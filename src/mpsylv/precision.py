"""Software simulation of reduced-precision floating-point arithmetic.

Values are always stored as native ``float64``; "computing in a low
precision" means that the result of every scalar arithmetic operation is
rounded to the nearest value representable in the target format
(round-to-nearest, ties to even).  Complex numbers round their real and
imaginary parts independently; complex multiplication is composed from
four rounded real multiplications and two rounded real additions, and
complex division uses Smith's algorithm with every step rounded.

A format is described by the number of binary digits in the significand
(including the implicit leading bit) and in the exponent.  The predefined
formats are::

    name       significand  exponent   unit roundoff
    bfloat16    8            8          2^-8
    binary16    11           5          2^-11
    tf32        11           8          2^-11
    b24         16           8          2^-16
    binary32    24           8          2^-24
    binary64    53           11         2^-53

Subnormal numbers are supported and rounded with gradual underflow.
Flush-to-zero is not offered.  A format needs 2 to 53 significand bits
and 2 to 11 exponent bits: values are stored as binary64, so a wider
format could not be represented.

Rounding has one reference implementation, a software kernel in the style
of the vectorised ``chop`` of Higham & Pranesh ("Simulating low precision
floating-point arithmetic", SISC 41(5), 2019).  The two formats with the
bits of an IEEE interchange format, binary32 (24:8) and binary16 (11:5),
round through the hardware conversion instead: ``float32``/``float16``
casts for arrays, ``struct`` ``'f'``/``'e'`` packing for scalars.  Those
conversions round to nearest, ties to even, with gradual underflow and
overflow to infinity, which is exactly the rounding the software kernel
implements, so results are bit-identical.  For t <= 25, the exact
result of +, -, *, / or sqrt on values of the format, rounded first to
binary64 and then to the format, is the correctly rounded result
(Figueroa, "When is double rounding innocuous?", SIGNUM 1995).  A sum
that carries a nonzero 2Sum residual is exact for operands of any width
when the residual breaks a tie.  The array path hands every such sum to
the software kernel; the scalar path (`_round_real_scalar`) casts it and
calls the software kernel only when the double sum is exactly a midpoint
of the format, the overflow threshold max_finite + ulp/2 included,
since anywhere else the residual cannot change the rounding.  Rounding
keeps a NaN's payload; results do not.  A NaN only ever means a
breakdown, and numpy picks its payload by loop layout and SIMD width, so
every NaN real or imaginary part of a kernel or `fl_*` result is the
quiet NaN 0x7ff8000000000000, as in RISC-V F and Arm's Default NaN mode,
and every other part keeps its bits (`_canonical`, in `_resident`).

Sequential sums have one whole-array form, `_accumulate`, the body of
`fl_sum`.  In binary64 and binary32 it runs its sums as one
``np.add.accumulate`` in complex128 or complex64.  That is exact, not an
approximation: every partial sum adds two values of the format, the
hardware rounds that sum to nearest, ties to even, with gradual
underflow and overflow to infinity, and so returns the correctly rounded
result the software path computes (Higham & Pranesh make the same point:
a format with a hardware dtype needs no simulated rounding).

For the same reason arrays of binary32 values are computed in complex64,
by one rule: entries take and return complex128, and a kernel calls
steps.  A kernel's steps are written once, with `_product`, `_add`,
`_sub`, `_accumulate` and `_divide`, which charge no flops and take their
arithmetic from the operand dtype: complex128 in binary64, float32 planes
for complex64 operands, the software rounding otherwise.  `_resident`,
the one way into a kernel, is the one place that knows binary32 runs in
complex64: it runs the kernel under one ``np.errstate``, on complex64
copies when every operand holds binary32 values, else on the complex128
operands.  A kernel charges its flops once (the QR iteration once per
sweep) and calls no entry, but for the one exception the benchmark's
tracer counts: `linalg._gemm_steps` forms a block of complex128 products
by one `fl_mul`.  The `fl_*` functions, each a one-step kernel with its
own charge, are the entry points for code outside a kernel.  A sum or
difference is one complex64 operation.  A product is formed from the
float32 planes as (ar*br - ai*bi, ar*bi + ai*br): the steps the software
path rounds, in the same order.  The complex64 ``*`` is never used,
because its SIMD multiply may fuse steps.  `linalg.gemm`, `lu`, the
triangular substitution, `_mgs_project`, `householder_qr`, `schur`,
`sylvester.solve_sylv_tri` and a GMRES correction
(`gmresir._resident_correction`) are kernels.  `householder_qr` and
`schur` (and so `hermitian_eig`) rerun in software on a Householder
vector, formed from a column scaled past overflow, that is not binary32.

The scalar steps of `schur` and of GMRES have one body each in every
format but binary64: the Householder scalars, the Givens rotation and the
Wilkinson shift (`linalg._reflector_chain`, `linalg._givens_chain`,
`linalg._shift_chain`), and the stored Hessenberg rotations and the rows
of the back substitution (`gmresir._rotation_chain`,
`gmresir._backsub_chain`).  They run on Python floats, each stage of
independent steps rounded by `FpFormat._scalar_rounding`: one ``struct``
cast in binary32 and binary16, whose double +, -, *, / or sqrt of values
of the format, cast once, is correctly rounded since 53 >= 2t + 2;
`_round_real_scalar` per value elsewhere, with the 2Sum residual in the
sums, which double rounding needs when t >= 26.  Each chain holds the
branches of the rounded `_s*` composition on zeros, infinities and
squares out of range, so every operand runs through the one body and
gets the bits that composition gives.  binary64 takes plain float and
complex bodies.  For the same reason the binary32 |x_i| of
`linalg._norm2_steps` are float32 steps.

Complex division has two references.  The scalar `_sdiv` in binary64 is
CPython's complex division (Smith's method, dividing by the
denominator), while `fl_div` in binary64 is numpy's, which multiplies by
a reciprocal and differs in the last bit for many quotients.  In the
other formats both are Smith's method with every step rounded, and a
zero divisor takes numpy's division.  `_quotient` is the vector form of
`_sdiv`, bit for bit.  It is composed of two halves:
`_smith_denominator`, the steps that depend on the divisor only, and
`_smith_numerator`.  `solve_sylv_tri` divides by the same shifted
diagonals in every wave, so it forms the denominator half once per
prepared pair and the numerator half per wave.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PrecisionOverflowWarning

__all__ = [
    "FpFormat",
    "FlopCounter",
    "PrecisionContext",
    "BFLOAT16",
    "BINARY16",
    "TF32",
    "B24",
    "BINARY32",
    "BINARY64",
    "FORMATS",
    "format_from_name",
    "parse_format",
    "round_to",
    "round_complex",
    "round_matrix",
    "fl_add",
    "fl_sub",
    "fl_mul",
    "fl_div",
    "fl_sqrt",
    "fl_sum",
]


@dataclass(frozen=True)
class FpFormat:
    """A binary floating-point format with IEEE-style exponent biasing.

    Formats compare and hash by their bits; the name is only a label, so
    ``parse_format("24:8") == BINARY32``.  The derived constants are
    computed once per format.
    """

    name: str = field(compare=False)
    significand_bits: int  # t, including the implicit leading bit
    exponent_bits: int

    def __post_init__(self):
        if self.significand_bits < 2:
            raise ValueError("significand needs at least 2 bits")
        if self.significand_bits > 53:
            raise ValueError(
                f"significand of {self.significand_bits} bits is wider than "
                "binary64's 53, in which values are stored")
        if self.exponent_bits < 2:
            raise ValueError("exponent needs at least 2 bits")
        if self.exponent_bits > 11:
            raise ValueError(
                f"exponent of {self.exponent_bits} bits is wider than "
                "binary64's 11, in which values are stored")

    @cached_property
    def unit_roundoff(self) -> float:
        return 2.0 ** -self.significand_bits

    @cached_property
    def emax(self) -> int:
        return 2 ** (self.exponent_bits - 1) - 1

    @cached_property
    def emin(self) -> int:
        return 1 - self.emax

    @cached_property
    def max_finite(self) -> float:
        t = self.significand_bits
        return (2.0 - 2.0 ** (1 - t)) * 2.0**self.emax

    @property
    def smallest_normal(self) -> float:
        return 2.0**self.emin

    @property
    def smallest_subnormal(self) -> float:
        return 2.0 ** (self.emin - self.significand_bits + 1)

    @cached_property
    def is_binary64(self) -> bool:
        return self.significand_bits == 53 and self.exponent_bits == 11

    @cached_property
    def _is_binary32(self) -> bool:
        return self.significand_bits == 24 and self.exponent_bits == 8

    @cached_property
    def _native(self):
        """(numpy dtype, struct packer, split constant) of the matching IEEE
        format, or None."""
        return _NATIVE.get((self.significand_bits, self.exponent_bits))

    @cached_property
    def _uncounted(self) -> "PrecisionContext":
        """A context of this format with no counter."""
        return PrecisionContext(self)

    @cached_property
    def _scalar_rounding(self):
        """(r, add), the stage roundings of the scalar chains, which run in
        every format but binary64.

        r[n](x_1, ..., x_n), n up to 16, returns the n doubles each rounded
        into the format as `_round_real_scalar` rounds them, ±inf past its
        range.  add[n](a_1, b_1, ..., a_n, b_n), n = 1, 2 or 4, returns the n
        sums a_i + b_i each correctly rounded, as `_sadd` rounds them.
        binary32 and binary16 round a stage by one ``struct`` cast, and a
        sum of two values of the format by casting its double: since
        53 >= 2t + 2, that is the correctly rounded sum.  Other formats
        round each value by `_round_real_scalar`, and each sum with its 2Sum
        residual (`_sums`), which double rounding needs when t >= 26.
        """
        native = self._native
        if native is None:
            def stage(*xs):
                return [_round_real_scalar(x, self) for x in xs]
            return (stage,) * 17, (lambda *xs: _sums(self, *xs),) * 5
        r = tuple(_cast_stage(struct.Struct(f"{n}{native[1].format}"), self) for n in range(17))
        return r, (None, lambda a, b: r[1](a + b), lambda a, b, c, d: r[2](a + b, c + d), None,
                   lambda a, b, c, d, e, f, g, h: r[4](a + b, c + d, e + f, g + h))

    @classmethod
    def from_bits(cls, significand_bits: int, exponent_bits: int,
                  name: str | None = None) -> "FpFormat":
        if name is None:
            name = f"p{significand_bits}e{exponent_bits}"
        return cls(name, significand_bits, exponent_bits)


# formats whose rounding the hardware conversions perform exactly: numpy
# dtype, struct packer, and 2^(52 - t) + 1, Veltkamp's constant for
# splitting a double into t + 1 significant bits (see `_round_real_scalar`)
_NATIVE = {
    (24, 8): (np.float32, struct.Struct("f"), 2.0**28 + 1.0),
    (11, 5): (np.float16, struct.Struct("e"), 2.0**41 + 1.0),
}

BFLOAT16 = FpFormat("bfloat16", 8, 8)
BINARY16 = FpFormat("binary16", 11, 5)
TF32 = FpFormat("tf32", 11, 8)
B24 = FpFormat("b24", 16, 8)
BINARY32 = FpFormat("binary32", 24, 8)
BINARY64 = FpFormat("binary64", 53, 11)

FORMATS = {
    "bfloat16": BFLOAT16,
    "binary16": BINARY16,
    "tf32": TF32,
    "b24": B24,
    "binary32": BINARY32,
    "binary64": BINARY64,
}


def format_from_name(name: str) -> FpFormat:
    try:
        return FORMATS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown format {name!r}; known: {sorted(FORMATS)}") from None


def parse_format(spec: str) -> FpFormat:
    """Resolve a format from a name or an explicit ``"t:e"`` bit pair."""
    if ":" in spec:
        t_str, e_str = spec.split(":", 1)
        return FpFormat.from_bits(int(t_str), int(e_str))
    return format_from_name(spec)


class FlopCounter:
    """Accumulates operation counts into named buckets.

    One count unit is one scalar (complex or real) addition, subtraction,
    multiplication, division, or square root.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}

    def add(self, bucket: str, n: int) -> None:
        self.counts[bucket] = self.counts.get(bucket, 0) + n

    def get(self, bucket: str) -> int:
        return self.counts.get(bucket, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def reset(self) -> None:
        self.counts.clear()

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"FlopCounter({inner})"


@dataclass(frozen=True)
class PrecisionContext:
    """An immutable arithmetic environment: a format plus optional accounting.

    Every ``fl_*`` operation executed under the context rounds its result
    into ``format`` and, when a counter is attached, charges one flop per
    scalar result to ``bucket``.
    """

    format: FpFormat
    counter: FlopCounter | None = field(default=None, compare=False)
    bucket: str = "high"

    @property
    def unit_roundoff(self) -> float:
        return self.format.unit_roundoff

    def count(self, n: int) -> None:
        counter = self.counter
        if counter is not None:  # FlopCounter.add, inline: it runs once per step
            counter.counts[self.bucket] = counter.counts.get(self.bucket, 0) + n


# ---------------------------------------------------------------------------
# rounding kernels

def _chop(x: np.ndarray, fmt: FpFormat,
          err: np.ndarray | None = None) -> np.ndarray:
    """Round a float64 array to the nearest representable values in fmt.

    The software kernel, and the reference for the native casts.  ``err``
    carries the part of the exact result that was lost when it was first
    rounded to double (a 2Sum residual); it is used only to break ties
    that fall exactly on a midpoint of the target format.
    """
    out = np.array(x, dtype=np.float64, copy=True)
    mask = np.isfinite(out) & (out != 0.0)
    if not mask.any():
        return out
    v = out[mask]
    _, e = np.frexp(v)
    # exponent of the leading significand bit, clamped into the subnormal range
    q = np.maximum(e - 1, fmt.emin)
    shift = q - (fmt.significand_bits - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(v, -shift)
        r = np.rint(scaled)
        if err is not None:
            ev = np.asarray(err, dtype=np.float64)[mask]
            lo = np.floor(scaled)
            mid = ((scaled - lo) == 0.5) & (ev != 0.0) & np.isfinite(ev)
            if mid.any():
                r[mid] = lo[mid] + (ev[mid] > 0.0)
        y = np.ldexp(r, shift)
    over = np.abs(y) > fmt.max_finite
    if over.any():
        y[over] = np.copysign(np.inf, v[over])
    zero = y == 0.0
    if zero.any():
        y[zero] = np.copysign(0.0, v[zero])
    out[mask] = y
    return out


def _round_real_array(x: np.ndarray, fmt: FpFormat,
                      err: np.ndarray | None = None) -> np.ndarray:
    """Round a float64 array into fmt; a native cast where one is exact."""
    if fmt.is_binary64:
        return np.array(x, dtype=np.float64, copy=True)
    native = fmt._native
    if native is None:
        return _chop(x, fmt, err)
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = x.astype(native[0]).astype(np.float64)
    nan = np.isnan(out)
    if np.count_nonzero(nan):
        out[nan] = x[nan]  # the cast would drop NaN payload bits
    if err is not None and np.count_nonzero(err):
        err = np.asarray(err, dtype=np.float64)
        tie = (err != 0.0) & np.isfinite(err)
        if np.count_nonzero(tie):
            out[tie] = _chop(x[tie], fmt, err[tie])
    return out


def _chop_scalar(x: float, fmt: FpFormat, err: float = 0.0) -> float:
    """The software kernel for one finite nonzero double."""
    _, e = math.frexp(x)
    if e - 1 > fmt.emax + 1:
        return math.copysign(math.inf, x)
    q = max(e - 1, fmt.emin)
    shift = q - (fmt.significand_bits - 1)
    scaled = math.ldexp(x, -shift)
    r = round(scaled)
    if err != 0.0 and math.isfinite(err):
        lo = math.floor(scaled)
        if scaled - lo == 0.5:
            r = lo + (1 if err > 0.0 else 0)
    try:
        y = math.ldexp(r, shift)
    except OverflowError:  # rounded up past the largest double
        return math.copysign(math.inf, x)
    if abs(y) > fmt.max_finite:
        return math.copysign(math.inf, x)
    if y == 0.0:
        return math.copysign(0.0, x)
    return y


def _round_real_scalar(x: float, fmt: FpFormat, err: float = 0.0) -> float:
    """x + err rounded into fmt, err being 0 or the 2Sum residual of the
    double sum x.

    A native format casts x and uses err only when x is exactly a midpoint
    of the format: the residual then breaks the tie (`_chop_scalar`).
    Elsewhere x and the exact sum x + err round alike: the midpoints are
    doubles, and no double lies strictly between x and x + err.
    """
    if fmt.is_binary64 or x == 0.0 or not math.isfinite(x):
        return x
    native = fmt._native
    if native is None:
        return _chop_scalar(x, fmt, err)
    packer = native[1]
    try:
        y = packer.unpack(packer.pack(x))[0]
    except OverflowError:
        # binary16's 'e' raises once |x| reaches the overflow threshold
        # max_finite + ulp/2, a midpoint, where a residual toward zero still
        # gives max_finite; binary32's native 'f' never raises, and returns
        # inf there, which the Veltkamp branch below corrects
        if err and math.isfinite(err) \
                and abs(x) - fmt.max_finite == 2.0 ** (fmt.emax - fmt.significand_bits):
            return _chop_scalar(x, fmt, err)
        return math.copysign(math.inf, x)
    if err and y != x and math.isfinite(err):
        # A midpoint has at most t + 1 significant bits, and Veltkamp's
        # split keeps x whole exactly when x has that few; a normal x that
        # does and is not a value of the format is a midpoint.  Below the
        # normal range the midpoints lie half the subnormal spacing from
        # the values (x - y is exact).
        c = x * native[2]
        if c - (c - x) == x and (abs(x) >= fmt.smallest_normal
                                 or abs(x - y) == fmt.smallest_subnormal / 2):
            return _chop_scalar(x, fmt, err)
    return y


def round_to(x: float, fmt: FpFormat) -> float:
    """Round one double to the nearest value representable in ``fmt``.

    Ties go to even.  Magnitudes past the overflow threshold map to signed
    infinity, magnitudes below half the smallest subnormal to signed zero,
    and NaN stays NaN.  The function is total and idempotent.
    """
    return _round_real_scalar(float(x), fmt)


def _compose(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with parts re and im, stored as they are.

    ``re + 1j * im`` is not exact: 1j * inf has a NaN real part, and
    adding the +0 real part of 1j * im turns a real -0 into +0.
    """
    z = np.empty(np.shape(re), dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


def _round_complex_array(z: np.ndarray, fmt: FpFormat) -> np.ndarray:
    if fmt.is_binary64:
        return np.array(z, dtype=np.complex128, copy=True)
    y = _round_real_array(np.array([z.real, z.imag]), fmt)
    return _compose(y[0], y[1])


def round_complex(z: complex, fmt: FpFormat) -> complex:
    """Round real and imaginary parts of a complex scalar independently."""
    return complex(_round_real_scalar(z.real, fmt),
                   _round_real_scalar(z.imag, fmt))


def round_matrix(M: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Round every entry of a matrix into ``fmt``.

    Emits a :class:`PrecisionOverflowWarning` if a finite entry overflowed
    to infinity; callers decide whether that is fatal.
    """
    M = np.asarray(M)
    if np.iscomplexobj(M):
        R = _round_complex_array(M.astype(np.complex128), fmt)
        overflowed = (~np.isfinite(R.real) & np.isfinite(M.real)) \
            | (~np.isfinite(R.imag) & np.isfinite(M.imag))
    else:
        R = _round_real_array(M.astype(np.float64), fmt)
        overflowed = ~np.isfinite(R) & np.isfinite(M)
        R = R.astype(np.complex128)
    if overflowed.any():
        warnings.warn(
            f"{int(overflowed.sum())} entries overflowed while rounding "
            f"into {fmt.name}", PrecisionOverflowWarning, stacklevel=2)
    return R


# ---------------------------------------------------------------------------
# rounded arithmetic
#
# The `fl_*` functions below accept scalars or ndarrays (anything numpy can
# broadcast) and return complex128 results.  Inputs are assumed to be
# already representable in the context's format; callers round operands on
# entry to a low-precision region.

def _two_sum(a: np.ndarray, b: np.ndarray):
    """Knuth 2Sum: s + e == a + b exactly, s == fl64(a + b)."""
    with np.errstate(invalid="ignore"):
        s = a + b
        bv = s - a
        e = (a - (s - bv)) + (b - bv)
        return s, np.where(np.isfinite(s), e, 0.0)


def _rounded_sum(a: np.ndarray, b: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Correctly rounded a + b into fmt (single rounding of the exact sum)."""
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    s, e = _two_sum(np.array([a.real, a.imag]), np.array([b.real, b.imag]))
    y = _round_real_array(s, fmt, e)
    return _compose(y[0], y[1])


def _binary32(*xs):
    """complex64 copies of the complex128 arrays xs if every entry of every
    x is a binary32 value, else None; a NaN entry fails the test.

    Call under ``np.errstate(over="ignore")``: a value past binary32's range
    casts to inf with a warning.
    """
    out = []
    for x in xs:
        x32 = x.astype(np.complex64)
        if not (x32 == x).all():
            return None
        out.append(x32)
    return out


# the quiet NaN of every NaN part of a kernel result
_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000))[0]


def _canonical(z):
    """z, a float64 or complex128 array or scalar, or where it holds a NaN
    a copy with each NaN real or imaginary part `_NAN`."""
    if np.isnan(z).any():
        a = np.array(z, order="C")
        parts = a.reshape(-1).view(np.float64)
        parts[np.isnan(parts)] = _NAN
        return a if isinstance(z, np.ndarray) else a[()]
    return z


def _plane_product(a: np.ndarray, b: np.ndarray, out=None):
    """The real and imaginary parts of a * b for complex64 arrays, formed
    as ar*br - ai*bi and ar*bi + ai*br from float32 planes; the shapes
    broadcast; with a complex64 ``out``, written into its planes.

    On binary32 values each step is the correctly rounded binary32 result,
    so the parts equal `_mul_parts`: the same four products, difference
    and sum, in the same order.  The complex64 ``*`` is not used: its SIMD
    loop may fuse steps.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if out is None:
        return ar * br - ai * bi, ar * bi + ai * br
    np.subtract(ar * br, ai * bi, out=out.real)
    np.add(ar * bi, ai * br, out=out.imag)
    return out


def _mul_parts(ar, ai, br, bi, fmt: FpFormat) -> np.ndarray:
    """Rounded real and imaginary parts of (ar + i ai)(br + i bi), stacked.

    Four rounded real products, then a rounded difference and sum: two
    rounding calls over stacked operands.  Charges no flops.
    """
    r = _round_real_array
    with np.errstate(invalid="ignore", over="ignore"):
        p = r(np.array([ar * br, ai * bi, ar * bi, ai * br]), fmt)
        return r(np.array([p[0] - p[1], p[2] + p[3]]), fmt)


# The steps below charge no flops.  Each takes its arithmetic from its
# operands: complex128 ``*`` and ``+`` in binary64; float32 planes when b is
# complex64, whose entries are binary32 values by construction (`_resident`
# checked them) and get no check here; the software rounding otherwise.  b
# is an array; a may be a scalar.

def _product(a, b: np.ndarray, fmt: FpFormat, out=None) -> np.ndarray:
    """a * b entrywise, in b's dtype or written into out: for a complex64
    b, the `_plane_product` parts (in out's planes; out overlaps no operand).

    binary64's numpy array multiply fuses steps on an AVX-512 x86-64 host
    (numpy 2.4): a * b and b * a differed for 32,884 of 100,000 complex
    normal pairs at array lengths 1 to 16; scalars matched the unfused
    formula.  Callers keep their operand order and shapes."""
    if fmt.is_binary64:
        return np.multiply(a, b, out=out)
    if b.dtype == np.complex64:
        if out is not None:
            return _plane_product(a, b, out)
        re, im = _plane_product(a, b)
    else:
        re, im = _mul_parts(a.real, a.imag, b.real, b.imag, fmt)
    z = np.empty(re.shape, dtype=b.dtype) if out is None else out
    z.real, z.imag = re, im
    return z


def _add(a: np.ndarray, b: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """a + b entrywise, as `_product` chooses the arithmetic."""
    if fmt.is_binary64 or b.dtype == np.complex64:
        return a + b
    return _rounded_sum(a, b, fmt)


def _sub(a: np.ndarray, b: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """a - b entrywise, as `_product` chooses the arithmetic."""
    if fmt.is_binary64 or b.dtype == np.complex64:
        return a - b
    return _rounded_sum(a, -b, fmt)


def _accumulate(P: np.ndarray, start, fmt: FpFormat) -> np.ndarray:
    """fl(...fl(fl(start + P[0]) + P[1]) ... + P[k-1]) along axis 0; start is
    an array of shape P.shape[1:], or None for +0.

    A complex64 P and any P in binary64 are summed by one
    ``np.add.accumulate`` over P written after start (+0 for None) into one
    buffer, in P's dtype; other P take `_add` step by step.
    """
    if P.dtype == np.complex64 or fmt.is_binary64:
        X = np.empty((len(P) + 1,) + P.shape[1:], dtype=P.dtype)
        X[0] = 0 if start is None else start
        X[1:] = P
        return np.add.accumulate(X, axis=0, out=X)[-1]
    acc = np.zeros(P.shape[1:], dtype=P.dtype) if start is None else start
    for p in P:
        acc = _add(acc, p, fmt)
    return np.array(acc)


def _summed_products(mul, a, b: np.ndarray, start, fmt: FpFormat, shape) -> np.ndarray:
    """``_accumulate(mul(a, b, fmt), start, fmt)``, mul being `_product`, with
    products of ``shape`` formed in the buffer where `_accumulate` sums."""
    if b.dtype == np.complex64 or fmt.is_binary64:
        X = np.empty((shape[0] + 1,) + shape[1:], dtype=b.dtype)
        X[0] = 0 if start is None else start
        mul(a, b, fmt, out=X[1:])
        return np.add.accumulate(X, axis=0, out=X)[-1]
    return _accumulate(mul(a, b, fmt), start, fmt)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _resident(kernel, ctx: PrecisionContext, *arrays):
    """``kernel(*arrays, ctx=ctx)``, which returns a tuple of arrays, or
    False when it finds an operand off binary32 in complex64 arrays.

    The one way into a kernel, which runs with numpy's warnings off, so
    that binary64's steps give inf and NaN silently, as the software
    rounding does, and returns complex128, every NaN part `_NAN`
    (`_canonical`).  In binary32, when every entry of every array is a
    binary32 value, the kernel runs on complex64 copies, whose steps then
    run on float32 planes, its flops charged once, when it returns or
    raises; a False runs it again from the arrays, uncharged so far, in
    complex128, whose software steps give the same values.  Every other
    call runs on complex128, complex64 operands widened.  A kernel calls
    steps, never an entry, but for the `fl_mul` per block of complex128
    products in `linalg._gemm_steps`, the call the benchmark's tracer counts.
    """
    out = None
    if ctx.format._is_binary32 and (ops := _binary32(*arrays)) is not None:
        tally = ctx if ctx.counter is None else PrecisionContext(ctx.format, FlopCounter())
        try:
            out = kernel(*ops, ctx=tally)
        finally:
            if out is not False and tally is not ctx:
                # a bucket is made only by a charge, as each kernel makes it
                for n in tally.counter.counts.values():
                    ctx.count(n)
    if not out:
        out = kernel(*[a.astype(np.complex128, copy=False) for a in arrays], ctx=ctx)
    return tuple([_canonical(z.astype(np.complex128, copy=False)) for z in out])


_FLOAT32 = np.dtype(np.float32)


def _entrywise(step, a, b, ctx: PrecisionContext):
    """``step(a, b, fmt)`` for `fl_add`, `fl_sub`, `fl_mul` and `fl_div`, a
    one-step `_resident` kernel charging one flop per result element."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    (z,) = _resident(lambda a, b, ctx: (step(a, b, ctx.format),), ctx.format._uncounted,
                     np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))
    ctx.count(z.size)
    return complex(z) if scalar else z


def fl_add(a, b, ctx: PrecisionContext):
    return _entrywise(_add, a, b, ctx)


def fl_sub(a, b, ctx: PrecisionContext):
    return _entrywise(_sub, a, b, ctx)


def fl_mul(a, b, ctx: PrecisionContext):
    return _entrywise(_product, a, b, ctx)


def _smith_step(x: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """A step of Smith's method rounded into fmt: a step on float32 planes,
    or in binary64, is its own rounding."""
    if x.dtype is _FLOAT32 or fmt.is_binary64:
        return x
    return _round_real_array(x, fmt)


_SWAP = np.array([1, -1])  # (re, im) plane indices to (im, re)


def _smith_denominator(b: np.ndarray, fmt: FpFormat):
    """The half of Smith's method that depends on the divisor b only, each
    step rounded by `_smith_step`.  Call under
    ``np.errstate(divide="ignore", invalid="ignore", over="ignore")``.

    Returns (perm, t, d), and a sign in binary64: perm indexes a's flat
    planes as (im, re) where |Re b| < |Im b| (swap); the ratio t of b's
    smaller part to its larger and the scaled denominator d come as one
    column per part of the quotient, (t, -t) and (d, d).  The swapped
    branch negates the imaginary part, so its d is (d, -d), since -(x / d)
    is x / -d bit for bit.  binary64 forms that part as CPython does,
    (Re a * t - Im a) / d, which differs in the sign of a zero: the sign
    (1, -1) negates Im a and t instead.
    """
    r = _smith_step
    swap = np.abs(b.real) < np.abs(b.imag)
    perm = np.arange(2 * b.size).reshape(b.shape + (2,)) + swap[..., None] * _SWAP
    planes = np.ascontiguousarray(b).reshape(-1).view(b.real.dtype)
    den_big, den_small = planes.take(perm[..., 0]), planes.take(perm[..., 1])
    t = r(den_small / den_big, fmt)
    d = r(den_big + r(den_small * t, fmt), fmt)
    t, d = np.stack([t, -t], axis=-1), np.stack([d, d], axis=-1)
    if fmt.is_binary64:
        sign = np.where(swap, -1.0, 1.0)[..., None]
        return perm, t * sign, d, np.concatenate([np.ones_like(sign), sign], axis=-1)
    np.negative(d[..., 1], out=d[..., 1], where=swap)
    return perm, t, d


def _smith_numerator(a: np.ndarray, den, fmt: FpFormat) -> np.ndarray:
    """a / b from a and the `_smith_denominator` of b, in a's dtype.

    Both parts run at once on a's planes (x, y) taken by perm: (x + y t) / d
    and (y - x t) / d, each step rounded by `_smith_step`.  Call under the
    same ``np.errstate`` as `_smith_denominator`.
    """
    r = _smith_step
    perm, t, d = den[:3]
    num = np.ascontiguousarray(a).reshape(-1).view(a.real.dtype).take(perm)
    if fmt.is_binary64:
        num *= den[3]
    q = r(r(num + r(num[..., ::-1] * t, fmt), fmt) / d, fmt)
    return q.view(a.dtype)[..., 0]


def _smith_planes(a: np.ndarray, den, out: np.ndarray) -> None:
    """`_smith_numerator` of a contiguous 1-d a where no step rounds
    (binary64, complex64 planes): its steps on a's planes, into out's."""
    perm, t, d = den[0], den[1], den[2]
    num = a.view(t.dtype).take(perm)
    if len(den) > 3:
        num *= den[3]
    num += num[:, ::-1] * t
    np.divide(num, d, out.view(t.dtype).reshape(d.shape))


def _quotient(a: np.ndarray, b: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """a / b entrywise by Smith's method, bit-identical to `_sdiv`:
    `_smith_numerator` of `_smith_denominator`, in b's dtype, and numpy's
    complex128 division for a zero divisor.  Every step is rounded into
    fmt, except in binary64, where the steps follow CPython's complex
    division as `_sdiv` does, and on complex64 operands, whose float32
    steps are the correctly rounded ones.  Charges no flops.
    """
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = _smith_numerator(a, _smith_denominator(b, fmt), fmt)
        zero = b == 0
        if zero.any():
            z[zero] = a[zero].astype(np.complex128) / b[zero].astype(np.complex128)
    return z


def _divide(a: np.ndarray, b: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """a / b entrywise: numpy's complex division in binary64 (run under a
    kernel's errstate), `_quotient` otherwise."""
    if fmt.is_binary64:
        return a / b
    return _quotient(a, b, fmt)


def fl_div(a, b, ctx: PrecisionContext):
    return _entrywise(_divide, a, b, ctx)


def fl_sum(P, ctx: PrecisionContext, start=None):
    """fl(...fl(fl(start + P[0]) + P[1]) ... + P[k-1]) along axis 0.

    The sums run in ascending order, each rounded into the context's
    format, and one flop is charged per element of P.  ``start`` may be
    any double and defaults to +0; P holds values of the format.  An
    empty P returns ``start`` unrounded, its NaN parts canonical.

    The sums are `_accumulate`'s.  In binary64, and in binary32 when P and
    start hold binary32 values, they run as one ``np.add.accumulate`` in
    complex128 or complex64.  Each step adds two values of the format, and
    the hardware's IEEE round-to-nearest-even sum of two such values is
    the correctly rounded sum the software path computes, with the same
    overflow, gradual underflow and signed zeros.
    """
    P = np.asarray(P, dtype=np.complex128)
    ctx.count(P.size)
    start = np.zeros(P.shape[1:], dtype=np.complex128) if start is None \
        else np.broadcast_to(np.asarray(start, dtype=np.complex128), P.shape[1:])
    (total,) = _resident(lambda P, start, ctx: (_accumulate(P, start, ctx.format),),
                         ctx.format._uncounted, P, start)
    return total


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def fl_sqrt(x, ctx: PrecisionContext):
    """Rounded square root of a nonnegative real array or scalar; the
    square root of a negative value is the canonical NaN, with no numpy
    warning, as in `_resident`."""
    scalar = np.ndim(x) == 0
    x = np.asarray(np.real(np.asarray(x)), dtype=np.float64)
    ctx.count(x.size)
    y = _canonical(_round_real_array(np.sqrt(x), ctx.format))
    return float(y) if scalar else y


# scalar fast paths used inside factorization inner loops ---------------------

def _two_sum_scalar(a: float, b: float):
    s = a + b
    if not math.isfinite(s):
        return s, 0.0
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _sums(fmt: FpFormat, *xs: float) -> list:
    """The sums x_0 + x_1, x_2 + x_3, ... each correctly rounded into fmt
    from its double and its 2Sum residual, for doubles of any width."""
    out = []
    for i in range(0, len(xs), 2):
        s, e = _two_sum_scalar(xs[i], xs[i + 1])
        out.append(_round_real_scalar(s, fmt, e))
    return out


def _cast_stage(s: struct.Struct, fmt: FpFormat):
    """The stage rounding of binary32 or binary16 for n = s's count: one
    ``struct`` cast, or `_round_real_scalar` per value when the cast
    raises, as binary16's ``'e'`` does past the range (binary32's native
    ``'f'`` casts such a value to +-inf, its rounding)."""
    pack, unpack = s.pack, s.unpack

    def stage(*xs):
        try:
            return unpack(pack(*xs))
        except OverflowError:
            return [_round_real_scalar(x, fmt) for x in xs]
    return stage


def _sadd(a: complex, b: complex, fmt: FpFormat) -> complex:
    if fmt.is_binary64:
        return a + b
    sr, er = _two_sum_scalar(a.real, b.real)
    si, ei = _two_sum_scalar(a.imag, b.imag)
    return complex(_round_real_scalar(sr, fmt, er),
                   _round_real_scalar(si, fmt, ei))


def _ssub(a: complex, b: complex, fmt: FpFormat) -> complex:
    if fmt.is_binary64:
        return a - b
    sr, er = _two_sum_scalar(a.real, -b.real)
    si, ei = _two_sum_scalar(a.imag, -b.imag)
    return complex(_round_real_scalar(sr, fmt, er),
                   _round_real_scalar(si, fmt, ei))


def _smul(a: complex, b: complex, fmt: FpFormat) -> complex:
    if fmt.is_binary64:
        return a * b
    r = _round_real_scalar
    rr = r(a.real * b.real, fmt)
    ii = r(a.imag * b.imag, fmt)
    ri = r(a.real * b.imag, fmt)
    ir = r(a.imag * b.real, fmt)
    return complex(r(rr - ii, fmt), r(ri + ir, fmt))


def _sdiv(a: complex, b: complex, fmt: FpFormat) -> complex:
    if fmt.is_binary64:
        return a / b
    r = _round_real_scalar
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    try:
        if abs(br) >= abs(bi):
            t = r(bi / br, fmt)
            d = r(br + r(bi * t, fmt), fmt)
            return complex(r(r(ar + r(ai * t, fmt), fmt) / d, fmt),
                           r(r(ai - r(ar * t, fmt), fmt) / d, fmt))
        t = r(br / bi, fmt)
        d = r(bi + r(br * t, fmt), fmt)
        return complex(r(r(ai + r(ar * t, fmt), fmt) / d, fmt),
                       -r(r(ar - r(ai * t, fmt), fmt) / d, fmt))
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return complex(np.complex128(a) / np.complex128(b))


def _ssqrt(x: float, fmt: FpFormat) -> float:
    if fmt.is_binary64:
        return math.sqrt(x)
    return _round_real_scalar(math.sqrt(x), fmt)


def _scaled_up(z: complex, e: int, fmt: FpFormat) -> complex:
    """z * 2^e rounded into fmt: exact unless a part overflows to inf."""
    def up(v):
        try:
            return _round_real_scalar(math.ldexp(v, e), fmt)
        except OverflowError:  # past the largest double
            return math.copysign(math.inf, v)
    return complex(up(z.real), up(z.imag))


def _shypot(a: float, b: float, fmt: FpFormat) -> float:
    """sqrt(a*a + b*b) composed from rounded square, add, sqrt steps.

    When the sum of squares rounds to 0 or inf although a and b are finite
    and not both 0, the steps run again on a and b scaled by a power of
    two, which is exact, and the root is scaled back.
    """
    r = _round_real_scalar
    s = r(r(a * a, fmt) + r(b * b, fmt), fmt)
    if (s == 0.0 or s == math.inf) and (a or b) and math.isfinite(a) and math.isfinite(b):
        _, e = math.frexp(max(abs(a), abs(b)))
        return _scaled_up(_shypot(math.ldexp(a, -e), math.ldexp(b, -e), fmt), e, fmt).real
    return _ssqrt(s, fmt) if math.isfinite(s) else math.inf


def _sabs(z: complex, fmt: FpFormat) -> float:
    """|z| composed from rounded square, add, sqrt steps (`_shypot`)."""
    if fmt.is_binary64:
        return abs(z)
    return _shypot(z.real, z.imag, fmt)
