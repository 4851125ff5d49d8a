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

Entries take and return complex128.  A kernel's steps are the methods
of one arithmetic object, which charge no flops: exact binary64 on
complex128 (`_EXACT64`), binary32 on the float32 planes of complex64
(`_PLANES32`), or software rounding of any format on complex128 (the
format's ``_arithmetic``).  `_resident`, the one way into a kernel, is the
one place that picks it (binary32's planes when every operand holds
binary32 values) and hands it over as ``ctx.arithmetic``.  In the exact
ones a sum is one hardware step, and a sequential sum one
``np.add.accumulate``: every partial sum adds two values of the format,
which the hardware rounds to nearest, ties to even, with gradual
underflow and overflow to infinity, as the software path does (Higham &
Pranesh: a format with a hardware dtype needs no simulated rounding).  A
kernel charges its flops once and calls no entry, but for the `fl_mul`
per block of complex128 products in `linalg._gemm_steps`, which the
benchmark's tracer counts; the `fl_*` functions, each a one-step kernel
with its own charge, are the entries for code outside a kernel.

The scalar steps of `schur` and of GMRES have one body each in every
format but binary64: the Householder scalars, the Givens rotation and the
Wilkinson shift (`linalg._reflector_chain`, `linalg._givens_chain`,
`linalg._shift_chain`), and the stored Hessenberg rotations and the rows
of the back substitution (`gmresir._rotation_chain`,
`gmresir._backsub_chain`).  They run on Python floats, each stage of
independent steps rounded as up[n](pk[n](...)) (`_scalar_rounding`): a
bound ``struct`` pack and unpack in binary32 and binary16, whose double
+, -, *, / or sqrt of values of the format, cast once, is correctly
rounded since 53 >= 2t + 2; `_round_real_scalar` per value elsewhere,
with the 2Sum residual in sums, which double rounding needs when t >= 26.
Each chain holds the branches of the rounded `_s*` composition on zeros,
infinities and squares out of range, so every operand runs through the
one body and gets the bits that composition gives.  binary64 takes plain
float and complex bodies.  For the same reason the binary32 |x_i| of a
vector norm are float32 steps on the planes.

Complex division has two references.  The scalar `_sdiv` in binary64 is
CPython's complex division (Smith's method, dividing by the
denominator), while `fl_div` in binary64 is numpy's, which multiplies by
a reciprocal and differs in the last bit for many quotients.  In the
other formats both are Smith's method with every step rounded, and a
zero divisor takes numpy's division.  An arithmetic's ``quotient`` is the
vector form of `_sdiv`, bit for bit.  It is composed of two halves:
``denominator``, the steps that depend on the divisor only, and
``numerator``.  `solve_sylv_tri` divides by the same shifted diagonals in
every wave, so it forms the denominator half once per prepared pair and
the numerator half per wave.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

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
    def _native(self):
        """(numpy dtype, struct packer, split constant) of the matching IEEE
        format, or None."""
        return _NATIVE.get((self.significand_bits, self.exponent_bits))

    @cached_property
    def _arithmetic(self) -> "_Arithmetic":
        """The format's arithmetic on complex128 (`_Arithmetic`)."""
        if self.is_binary64:
            return _EXACT64
        return _Arithmetic(self, _PLANES32 if self == BINARY32 else None)

    @cached_property
    def _scalar_rounding(self):
        """(pk, up, add), the stage roundings of the scalar chains, which run
        in every format but binary64.

        up[n](pk[n](x_1, ..., x_n)), n up to 16, returns the n doubles each
        rounded as `_round_real_scalar` rounds them, ±inf past the range.
        add[n](a_1, b_1, ..., a_n, b_n), n = 1, 2 or 4, returns the n sums
        a_i + b_i each correctly rounded, as `_sadd` does.  binary32 and
        binary16 take the bound ``pack`` and ``unpack`` of one ``struct`` of
        n values (binary16's pk[n] by `_cast_pack`), so a binary32 stage runs
        no Python frame, and cast a sum's double: since 53 >= 2t + 2, that is
        the correctly rounded sum.  Other formats round by `_round_real_scalar`
        in pk[n] (up[n] is ``tuple``), and each sum with its 2Sum residual."""
        native = self._native
        if native is None:
            def stage(*xs):
                return [_round_real_scalar(x, self) for x in xs]
            return (stage,) * 17, (tuple,) * 17, (lambda *xs: _sums(self, *xs),) * 5
        casts = [struct.Struct(f"{n}{native[1].format}") for n in range(17)]
        pk = tuple(s.pack if self == BINARY32 else _cast_pack(s, self) for s in casts)
        up = tuple(s.unpack for s in casts)
        return pk, up, (None, lambda a, b: up[1](pk[1](a + b)),
                        lambda a, b, c, d: up[2](pk[2](a + b, c + d)), None,
                        lambda a, b, c, d, e, f, g, h: up[4](pk[4](a + b, c + d, e + f, g + h)))

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
    # the arithmetic the steps under the context run in: the format's own,
    # or the one `_resident` hands a kernel (`_running`)
    arithmetic: "_Arithmetic" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arithmetic", self.format._arithmetic)

    def _running(self, arithmetic: "_Arithmetic", counter: FlopCounter | None):
        """A context of this format and bucket charging counter, if any, whose
        steps run in arithmetic: a kernel's, or one that keeps the kernel's."""
        ctx = PrecisionContext(self.format, counter, self.bucket)
        object.__setattr__(ctx, "arithmetic", arithmetic)
        return ctx

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


def _mul_parts(ar, ai, br, bi, fmt: FpFormat) -> np.ndarray:
    """Rounded real and imaginary parts of (ar + i ai)(br + i bi), stacked.

    Four rounded real products, then a rounded difference and sum: two
    rounding calls over stacked operands.  Charges no flops.
    """
    r = _round_real_array
    with np.errstate(invalid="ignore", over="ignore"):
        p = r(np.array([ar * br, ai * bi, ar * bi, ai * br]), fmt)
        return r(np.array([p[0] - p[1], p[2] + p[3]]), fmt)


def _frobenius(v) -> float:
    """Frobenius norm of an array in binary64: ``np.linalg.norm`` where that
    is finite and at least 2^-511, else (its unscaled squares overflow past
    ~1e154 and lose bits below ~1e-154) the norm of v scaled by its largest
    magnitude, or by a power of two (`_scaled_down`) when small.  Finite
    exactly when every entry is finite and the norm is below the largest
    double.  Narrower input is widened first: ``np.linalg.norm`` keeps the
    dtype."""
    v = np.asarray(v)
    v = v.astype(np.result_type(v.dtype, np.float64), copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.linalg.norm(v))
    if math.isinf(nrm) and np.isfinite(v).all():
        s = float(np.abs(v).max())
        nrm = s * float(np.linalg.norm(v / s))
    elif nrm < 2.0 ** -511 and v.any():
        scaled, e = _scaled_down(v.ravel())
        nrm = math.ldexp(float(np.linalg.norm(scaled)), e)
    return nrm


def _scaled_down(x: np.ndarray):
    """(x * 2^-e, e), e the binary exponent of the largest real or imaginary
    part of the finite nonzero vector x: every scaled part is below 1 in
    magnitude, and the scaling is exact in binary64.  A factor past 2^1023
    (x subnormal) is applied in two steps."""
    parts = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    _, e = math.frexp(float(np.abs(parts).max()))
    half = -e // 2 if e < -1023 else 0
    return (parts * math.ldexp(1.0, half) * math.ldexp(1.0, -e - half)).view(np.complex128), e


def _norm2_sum(mag: np.ndarray, fmt: FpFormat) -> float:
    """The rounded root of the ascending sum of the squares of mag, each
    partial sum acc + |x_i|^2 rounded as `_sums` rounds it: in binary32 and
    binary16 a ``struct`` cast of the double sum s unless that raises, s is
    NaN or Veltkamp's split says s may be a midpoint.  A NaN sum is inf."""
    packer, split = fmt._native[1:] if fmt._native else (None, 0.0)
    acc = 0.0
    for a in mag.tolist():
        # a ** 2 (libm pow) is the defined square; for t > 26 it can
        # differ from a * a in the last bit
        b = a ** 2
        s = acc + b
        try:
            y = packer and packer.unpack(packer.pack(s))[0]
        except OverflowError:
            y = None
        cast = y == s or y is not None and s == s and (c := s * split) - (c - s) != s
        acc = y if cast else _sums(fmt, acc, b)[0]
    return _ssqrt(acc if acc == acc else math.inf, fmt)


_SWAP = np.array([1, -1])  # (re, im) plane indices to (im, re)

# the rows [X0, X1, X1, X0] that the software rotation body multiplies by
# [c, s1, c, s2]
_PAIR = np.array([0, 1, 1, 0])


def _coefficient_layout(code, entries, shape):
    """A table packing of coefficients of one step and of two: (struct,
    index table, array shape) for each.  Each entry is a tuple of indices
    into the values, stored together for step 0, then for step 1."""
    def packing(q):
        table = [j if j < 2 else j + 4 * i for entry in entries for i in range(q) for j in entry]
        axes = shape + (q,) * (q > 1) + (1,)
        return struct.Struct(f"{len(table)}{code}"), itemgetter(*table), axes
    return packing(1), packing(2)


# The float32 layout indexes the values (0.0, -0.0, c, Re s, Im s, -Im s)
# of one step; a second step's c, Re s, Im s and -Im s are at 6 to 9.  The
# pairs of c, s and conj(s) are the float32 planes [kr, kr] and [-ki, ki],
# and the layout stores, for the rows' and then the columns'
# [[c, s1], [s2, c]], kr and then ki as (out, in, plane, [pair,] 1).
_PLANES = ({"c": (2, 2), "s": (3, 3), "s*": (3, 3)}, {"c": (1, 0), "s": (5, 4), "s*": (4, 5)})
_COMPLEX64 = _coefficient_layout(
    "f", [(k[x][plane],) for rows in (("c", "s", "s*", "c"), ("c", "s*", "s", "c"))
          for k in _PLANES for x in rows for plane in (0, 1)], (2, 2, 2, 2, 2))


def _packer(views):
    """The coefficients(c, s, cb=None, sb=None) of a complex128 rotation
    body: views(K) of [c, s, c, conj(s), c, s] packed as (re, im) doubles
    into K, step 0 then step 1 for each entry; a step's rows take
    [c, s1, c, s2] from 0 and its columns from 2."""
    K1, K2 = np.empty((6, 1), np.complex128), np.empty((6, 2, 1), np.complex128)
    pack1, pack2 = struct.Struct("12d").pack_into, struct.Struct("24d").pack_into
    one, two = views(K1), views(K2)

    def coefficients(c, s, cb=None, sb=None):
        sr, si = s.real, s.imag
        if cb is None:
            pack1(K1, 0, c, 0.0, sr, si, c, 0.0, sr, -si, c, 0.0, sr, si)
            return one
        tr, ti = sb.real, sb.imag
        pack2(K2, 0, c, 0.0, cb, 0.0, sr, si, tr, ti, c, 0.0, cb, 0.0, sr, -si, tr, -ti,
              c, 0.0, cb, 0.0, sr, si, tr, ti)
        return two
    return coefficients


class _Arithmetic:
    """Software rounding of any (t, e) on complex128, and the steps every
    arithmetic shares: a kernel's steps, which charge no flops; b is an
    array in every step, a may be a scalar.  Each step of an array is
    rounded by `_round_real_array` (`rounded`), a product as `_mul_parts`
    and a sum with its 2Sum residual (`_rounded_sum`).  ``exact``: no step
    rounds; ``resident``: the arithmetic on a narrower dtype that
    `_resident` tries first, or None; ``wide``: the format's own.
    """

    exact = False

    def __init__(self, fmt: FpFormat, resident: "_Arithmetic | None" = None):
        self.format, self.resident = fmt, resident

    @property
    def wide(self) -> "_Arithmetic":
        return self.format._arithmetic

    @cached_property
    def _uncounted(self) -> PrecisionContext:
        """A context of the format with no counter running this arithmetic."""
        return PrecisionContext(self.format)._running(self, None)

    @staticmethod
    def enter(*xs):
        """xs as operands, or None for a value off the format: complex128 here."""
        return [x.astype(np.complex128, copy=False) for x in xs]

    def rounded(self, x: np.ndarray) -> np.ndarray:
        """A float64 array of steps, each rounded into the format."""
        return _round_real_array(x, self.format)

    def product(self, a, b: np.ndarray, out=None) -> np.ndarray:
        """a * b entrywise, into out when given (out overlaps no operand)."""
        re, im = _mul_parts(a.real, a.imag, b.real, b.imag, self.format)
        if out is None:
            return _compose(re, im)
        out.real, out.imag = re, im
        return out

    def add(self, a, b: np.ndarray) -> np.ndarray:
        return _rounded_sum(a, b, self.format)

    def sub(self, a, b: np.ndarray) -> np.ndarray:
        return _rounded_sum(a, -b, self.format)

    def accumulate(self, P: np.ndarray, start) -> np.ndarray:
        """fl(...fl(fl(start + P[0]) + P[1]) ... + P[k-1]) along axis 0;
        start is an array of shape P.shape[1:], or None for +0."""
        acc = np.zeros(P.shape[1:], dtype=P.dtype) if start is None else start
        for p in P:
            acc = self.add(acc, p)
        return np.array(acc)

    def summed_products(self, a, b: np.ndarray, start, shape) -> np.ndarray:
        """``accumulate(product(a, b), start)`` for products of shape."""
        return self.accumulate(self.product(a, b), start)

    def dot(self, x: np.ndarray, y: np.ndarray, xh=None) -> complex:
        """conj(x).y: the products of conj(x), or of xh if the caller formed
        it, summed in ascending order from +0."""
        return complex(self.summed_products(np.conj(x) if xh is None else xh, y, None,
                                            (len(x),)))

    def quotient(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a / b entrywise by Smith's method, bit-identical to `_sdiv`:
        `numerator` of `denominator`, in b's dtype, and numpy's complex128
        division for a zero divisor."""
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z = self.numerator(a, self.denominator(b))
            zero = b == 0
            if zero.any():
                z[zero] = a[zero].astype(np.complex128) / b[zero].astype(np.complex128)
        return z

    divide = quotient

    def denominator(self, b: np.ndarray):
        """The half of Smith's method that depends on the divisor b only,
        each step `rounded`, under ``np.errstate(divide="ignore",
        invalid="ignore", over="ignore")``: (perm, t, d), and a sign in
        binary64 (`_swapped`).  perm indexes a's flat planes as (im, re)
        where |Re b| < |Im b| (swap); the ratio t of b's smaller part to its
        larger and the scaled denominator d come as one column per part of
        the quotient, (t, -t) and (d, d)."""
        r = self.rounded
        swap = np.abs(b.real) < np.abs(b.imag)
        perm = np.arange(2 * b.size).reshape(b.shape + (2,)) + swap[..., None] * _SWAP
        planes = np.ascontiguousarray(b).reshape(-1).view(b.real.dtype)
        den_big, den_small = planes.take(perm[..., 0]), planes.take(perm[..., 1])
        t = r(den_small / den_big)
        d = r(den_big + r(den_small * t))
        return self._swapped(perm, np.stack([t, -t], axis=-1), np.stack([d, d], axis=-1), swap)

    @staticmethod
    def _swapped(perm, t, d, swap):
        """The swapped branch negates the imaginary part, so its d is
        (d, -d), since -(x / d) is x / -d bit for bit."""
        np.negative(d[..., 1], out=d[..., 1], where=swap)
        return perm, t, d

    def numerator(self, a: np.ndarray, den) -> np.ndarray:
        """a / b from a and the `denominator` of b, in a's dtype: both parts
        at once on a's planes (x, y) taken by perm, (x + y t) / d and
        (y - x t) / d, each step `rounded`, under the same errstate."""
        r = self.rounded
        perm, t, d = den[:3]
        num = np.ascontiguousarray(a).reshape(-1).view(a.real.dtype).take(perm)
        if len(den) > 3:
            num *= den[3]
        q = r(r(num + r(num[..., ::-1] * t)) / d)
        return q.view(a.dtype)[..., 0]

    def norm2(self, x: np.ndarray) -> float:
        """The Euclidean norm of x from its `magnitudes` (`_norm2_sum`); when
        the squares overflow although every entry is finite, or underflow
        (the norm below the square root of the smallest normal) although an
        entry is nonzero, that of x scaled by a power of two, which is
        exact, in `wide`, scaled back."""
        fmt = self.format
        nrm = _norm2_sum(self.magnitudes(x), fmt)
        if (nrm == math.inf and np.isfinite(x).all()
                or nrm < math.sqrt(fmt.smallest_normal) and x.any()):
            scaled, e = _scaled_down(x)
            nrm = _scaled_up(_norm2_sum(self.wide.magnitudes(scaled), fmt), e, fmt).real
        return nrm

    def magnitudes(self, x: np.ndarray) -> np.ndarray:
        """Each |x_i| from two rounded squares, a rounded add and a rounded
        sqrt in one vector pass; a NaN part makes it inf."""
        x = x.astype(np.complex128, copy=False)
        r = self.rounded
        with np.errstate(invalid="ignore", over="ignore"):
            sq = r(np.array([x.real * x.real, x.imag * x.imag]))
            s = r(sq[0] + sq[1])
            finite = np.isfinite(s)
            return np.where(finite, r(np.sqrt(np.where(finite, s, 0.0))), np.inf)

    def rotation(self):
        """The Givens rotation body of `schur`, made once per call:
        coefficients(c, s), or (c, s, cb, sb) for two steps, returns the
        (K, L) of the rows and columns, fixed views of one buffer that the
        next call overwrites, and rotate(X, K) sets X <- (c X0 + s1 X1,
        c X1 - s2 X0) in place for a (2, n) view X of `rows`, (2, 2, n) for
        two steps: (s1, s2) = (s, conj(s)) in K, (conj(s), s) in L.  The
        caller charges the flops and holds the errstate.  Here the body is
        `product` and `add` of K = [c, s1, c, s2] and [X0, X1, X1, X0]."""
        def rotate(X, k):
            prods = self.product(k, X[_PAIR])
            np.negative(prods[3], out=prods[3])
            X[...] = self.add(prods[0::2], prods[1::2])
        return _packer(lambda K: (K[0:4], K[2:6])), rotate

    @staticmethod
    def rows(UH: np.ndarray) -> np.ndarray:
        """The stack UH of [U; H] as `rotation`'s body takes its rows."""
        return UH


class _Exact(_Arithmetic):
    """An arithmetic whose dtype's own steps are the format's: a sum or
    difference is the numpy ufunc itself, a step of Smith's method is its
    own rounding, and a sequential sum is one ``np.add.accumulate`` over
    the terms written after start (+0 for None) into one buffer."""

    exact = True
    add, sub = np.add, np.subtract

    @staticmethod
    def rounded(x):
        return x

    def accumulate(self, P, start):
        X = np.empty((len(P) + 1,) + P.shape[1:], dtype=P.dtype)
        X[0] = 0 if start is None else start
        X[1:] = P
        return np.add.accumulate(X, axis=0, out=X)[-1]

    def summed_products(self, a, b, start, shape):
        X = np.empty((shape[0] + 1,) + shape[1:], dtype=b.dtype)
        X[0] = 0 if start is None else start
        self.product(a, b, out=X[1:])
        return np.add.accumulate(X, axis=0, out=X)[-1]

    @staticmethod
    def numerator_into(a: np.ndarray, den, out: np.ndarray) -> None:
        """`numerator` of a contiguous 1-d a, on its planes, into out's."""
        perm, t, d = den[0], den[1], den[2]
        num = a.view(t.dtype).take(perm)
        if len(den) > 3:
            num *= den[3]
        num += num[:, ::-1] * t
        np.divide(num, d, out.view(t.dtype).reshape(d.shape))


class _Binary64(_Exact):
    """Exact binary64 on complex128, each step a numpy ufunc itself.
    `divide` is numpy's complex division, which multiplies by a reciprocal
    and differs from CPython's (`_sdiv`) in the last bit for many
    quotients; `quotient` keeps CPython's Smith steps for the waves of
    `sylvester.solve_sylv_tri`.  numpy's array multiply fuses steps on an
    AVX-512 x86-64 host (numpy 2.4): a * b and b * a differed for 32,884 of
    100,000 complex normal pairs at lengths 1 to 16, so callers keep their
    operand order and shapes."""

    product, divide = np.multiply, np.divide
    norm2 = staticmethod(_frobenius)

    @staticmethod
    def dot(x, y, xh=None):
        """numpy's ``vdot``, whose BLAS summation order depends on the strides."""
        return complex(np.vdot(x, y))

    @staticmethod
    def _swapped(perm, t, d, swap):
        """binary64 forms the swapped part as CPython does,
        (Re a * t - Im a) / d, which differs in the sign of a zero: a
        fourth entry, the sign (1, -1), negates Im a and t instead."""
        sign = np.where(swap, -1.0, 1.0)[..., None]
        return perm, t * sign, d, np.concatenate([np.ones_like(sign), sign], axis=-1)

    def rotation(self):
        """The body takes K as views (c, [s1, s2]), keeps `product`'s
        operand order, X first, and forms c X out of place, which numpy
        runs faster than an in-place product on a strided view."""
        def rotate(X, k):
            c, s = k
            B = s * X[::-1]
            np.negative(b := B[1], out=b)
            np.add(X * c, B, out=X)
        return _packer(lambda K: ((K[0:1], K[1:4:2]), (K[2:3], K[3:6:2]))), rotate


class _Planes32(_Exact):
    """binary32 on complex64, each step on float32 planes: a float32 step
    on binary32 values is the correctly rounded one.  A product is formed
    as (ar*br - ai*bi, ar*bi + ai*br), the steps the software path rounds,
    in the same order; the complex64 ``*`` is never used, because its SIMD
    loop may fuse steps."""

    @staticmethod
    def enter(*xs):
        """complex64 copies of the complex128 arrays xs if every entry is a
        binary32 value, else None (a NaN entry is not), under
        ``np.errstate(over="ignore")``: a value past the range casts to inf."""
        out = []
        for x in xs:
            x32 = x.astype(np.complex64)
            if not (x32 == x).all():
                return None
            out.append(x32)
        return out

    @staticmethod
    def product(a, b, out=None):
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        if out is None:
            re, im = ar * br - ai * bi, ar * bi + ai * br
            out = np.empty(re.shape, np.complex64)
            out.real, out.imag = re, im
            return out
        np.subtract(ar * br, ai * bi, out=out.real)
        np.add(ar * bi, ai * br, out=out.imag)
        return out

    @staticmethod
    def magnitudes(x):
        """|x_i| by float32 steps, which round as the software steps do."""
        with np.errstate(invalid="ignore", over="ignore"):
            return np.sqrt(np.square(x.real) + np.square(x.imag))

    def rotation(self):
        """X is given as its float32 planes V, (in, plane, [pair,] n), so
        that each numpy call loops over n: V * [kr, kr] + swap(V) * [-ki, ki]
        is `product`'s kr*gr - ki*gi and kr*gi + ki*gr, each step correctly
        rounded in any layout."""
        (pack1, take1, K1), (pack2, take2, K2) = [
            (S.pack_into, take, np.empty(shape, np.float32)) for S, take, shape in _COMPLEX64]
        one, two = (tuple(K1[0]), tuple(K1[1])), (tuple(K2[0]), tuple(K2[1]))

        def coefficients(c, s, cb=None, sb=None):
            if cb is None:
                pack1(K1, 0, *take1((0.0, -0.0, c, s.real, s.imag, -s.imag)))
                return one
            pack2(K2, 0, *take2((0.0, -0.0, c, s.real, s.imag, -s.imag,
                                 cb, sb.real, sb.imag, -sb.imag)))
            return two

        def rotate(V, k):
            kr, ki = k
            # k[o, i] X[i], plane by plane, in C order, so that numpy loops
            # over n whatever V's strides (in K order it would loop over the
            # planes, V's smallest stride)
            P = np.multiply(V, kr, order="C")
            P += np.multiply(V[:, ::-1], ki, order="C")
            # a contiguous block: numpy 2.4's negative miswrites a float32
            # input of stride 4 elements into a strided output (x86-64)
            np.negative(P[1, 0], out=P[1, 0])
            np.add(P[:, 0], P[:, 1], out=V)
        return coefficients, rotate

    @staticmethod
    def rows(UH):
        """UH's float32 planes as (matrix, row, plane, column)."""
        p, m = UH.shape[0], UH.shape[2]
        return UH.view(np.float32).reshape(p, 2 * m, m, 2).swapaxes(2, 3)


_EXACT64 = _Binary64(BINARY64)
_PLANES32 = _Planes32(BINARY32)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _resident(kernel, ctx: PrecisionContext, *arrays):
    """``kernel(*arrays, ctx=ctx)``, which returns a tuple of arrays, or
    False when it finds an operand off its arithmetic's format.

    The one way into a kernel, and the one place that picks the arithmetic
    its steps run in, handed to it as ``ctx.arithmetic``: the format's
    resident one (binary32's float32 planes) on the copies its `enter`
    makes when it takes every array, its flops charged once, when the
    kernel returns or raises; else, or after a False, which runs it again
    uncharged so far, the format's own (ctx is an entry's), whose steps
    give the same values.  numpy's warnings are off, as in the software
    rounding; the results are complex128, every NaN part `_NAN`.
    """
    out = None
    resident = ctx.arithmetic.resident
    if resident is not None and (ops := resident.enter(*arrays)) is not None:
        tally = (resident._uncounted if ctx.counter is None
                 else ctx._running(resident, FlopCounter()))
        try:
            out = kernel(*ops, ctx=tally)
        finally:
            if out is not False and tally.counter is not None:
                # a bucket is made only by a charge, as each kernel makes it
                for n in tally.counter.counts.values():
                    ctx.count(n)
    if not out:
        out = kernel(*ctx.arithmetic.enter(*arrays), ctx=ctx)
    return tuple([_canonical(z.astype(np.complex128, copy=False)) for z in out])


def _entrywise(step: str, a, b, ctx: PrecisionContext):
    """The arithmetic's step(a, b) for `fl_add`, `fl_sub`, `fl_mul` and
    `fl_div`, a one-step `_resident` kernel charging one flop per result
    element."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    (z,) = _resident(lambda a, b, ctx: (getattr(ctx.arithmetic, step)(a, b),),
                     ctx.arithmetic._uncounted,
                     np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))
    ctx.count(z.size)
    return complex(z) if scalar else z


def fl_add(a, b, ctx: PrecisionContext):
    return _entrywise("add", a, b, ctx)


def fl_sub(a, b, ctx: PrecisionContext):
    return _entrywise("sub", a, b, ctx)


def fl_mul(a, b, ctx: PrecisionContext):
    return _entrywise("product", a, b, ctx)


def fl_div(a, b, ctx: PrecisionContext):
    return _entrywise("divide", a, b, ctx)


def fl_sum(P, ctx: PrecisionContext, start=None):
    """fl(...fl(fl(start + P[0]) + P[1]) ... + P[k-1]) along axis 0.

    The sums run in ascending order, each rounded into the context's
    format (the arithmetic's ``accumulate``), and one flop is charged per
    element of P.  ``start`` may be any double and defaults to +0; P holds
    values of the format.  An empty P returns ``start`` unrounded, its NaN
    parts canonical.
    """
    P = np.asarray(P, dtype=np.complex128)
    ctx.count(P.size)
    start = np.zeros(P.shape[1:], dtype=np.complex128) if start is None \
        else np.broadcast_to(np.asarray(start, dtype=np.complex128), P.shape[1:])
    (total,) = _resident(lambda P, start, ctx: (ctx.arithmetic.accumulate(P, start),),
                         ctx.arithmetic._uncounted, P, start)
    return total


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def fl_sqrt(x, ctx: PrecisionContext):
    """Rounded square root of a real array or scalar; complex input is
    taken when every imaginary part is zero, and a nonzero or NaN one
    raises ValueError.  The square root of a negative value is the
    canonical NaN, with no numpy warning, as in `_resident`."""
    scalar = np.ndim(x) == 0
    x = np.asarray(x)
    if np.iscomplexobj(x) and (x.imag != 0).any():  # NaN != 0 too
        raise ValueError("fl_sqrt takes real values; an imaginary part is nonzero or NaN")
    x = np.asarray(x.real, dtype=np.float64)
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


def _cast_pack(s: struct.Struct, fmt: FpFormat):
    """The pk[n] of binary16's stages, n = s's count: s.pack, or where that
    raises, as ``'e'`` does past the range, the values rounded one by one
    by `_round_real_scalar` (±inf there), then packed.  binary32 takes
    s.pack itself: its native ``'f'`` casts such a value to ±inf."""
    pack = s.pack

    def packed(*xs):
        try:
            return pack(*xs)
        except OverflowError:
            return pack(*[_round_real_scalar(x, fmt) for x in xs])
    return packed


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
