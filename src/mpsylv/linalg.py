"""Dense complex linear algebra executable under a precision context.

All matrices are dense ``complex128`` ndarrays.  Every factorization and
product here can run under a :class:`~mpsylv.precision.PrecisionContext`,
in which case each scalar operation is rounded into the context's format;
under a binary64 context the kernels reduce to ordinary double arithmetic.
A kernel calls `precision`'s steps under the one ``np.errstate`` that
`precision._resident` enters per call and charges its flops once, so a
step pays no format dispatch, errstate or charge of its own; the `fl_*`
functions are the entry points for code outside a kernel.

`schur` also takes a stack of matrices, as numpy's linalg does: the
Householder reduction updates the whole stack in lockstep, and one driver
runs the QR iterations a pair at a time, rotating both matrices' rows,
then columns, through one strided view per pass, padded with exact zeros
that a finite rotation keeps zero.
Its QR iteration is the one eigenvalue iteration here: `hermitian_eig`
reads a Hermitian matrix's eigendecomposition off its Schur form.

Explicit Kronecker forms (`sylvester_kron_operator`, `kron_matrix`) are
intended for oracles and diagnostics only and are capped in size; the
diagnostics `norm(M, "two")`, `sep_f` and `cond_inf` use LAPACK's SVD and
inverse, with no iteration tolerance.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import (
    DimensionError,
    FormatOverflowError,
    IterationLimitError,
    MpsylvError,
    NonFiniteInputError,
    NotHermitianError,
    NumericBreakdownError,
    RankDeficiencyError,
    SingularMatrixError,
)
from .precision import (
    BINARY64,
    FlopCounter,
    FpFormat,
    PrecisionContext,
    fl_div,
    fl_mul,
    _accumulate,
    _add,
    _binary32,
    _canonical,
    _divide,
    _product,
    _resident,
    _round_real_array,
    _round_complex_array,
    _scaled_up,
    _shypot,
    _ssqrt,
    _ssub,
    _sub,
    _summed_products,
    _sums,
)

__all__ = [
    "DEFAULT_KRON_CAP",
    "SchurFactors",
    "LuFactors",
    "QrFactors",
    "as_matrix",
    "vec",
    "unvec",
    "gemm",
    "norm",
    "householder_qr",
    "mgs_qr",
    "lu",
    "lu_solve",
    "schur",
    "hermitian_eig",
    "kron_matrix",
    "sylvester_kron_operator",
    "cond_inf",
    "sep_f",
]

DEFAULT_KRON_CAP = 4096

# products formed per block of k indices in gemm; bounds its working memory
_GEMM_BLOCK = 1 << 15

_CTX64 = PrecisionContext(BINARY64)


@dataclass(frozen=True)
class SchurFactors:
    """Unitary factor U and upper-triangular factor T of A = U T U*."""

    U: np.ndarray
    T: np.ndarray


@dataclass(frozen=True)
class LuFactors:
    """L and U packed in one matrix (unit lower diagonal implicit), row pivots."""

    lu: np.ndarray
    pivots: np.ndarray  # pivots[k] = row swapped with k at step k


@dataclass(frozen=True)
class QrFactors:
    Q: np.ndarray
    R: np.ndarray


def _working_dtype(x, ctx: PrecisionContext | None):
    """complex64 for a complex64 x under a binary32 ctx, the operand of a
    step of a `_resident` kernel; complex128 otherwise."""
    if ctx is not None and getattr(x, "dtype", None) == np.complex64 and ctx.format._is_binary32:
        return np.complex64
    return np.complex128


def as_matrix(A, ctx: PrecisionContext | None = None) -> np.ndarray:
    """A as a nonempty 2-d complex128 array, or complex64 as `_working_dtype`
    keeps it."""
    M = np.asarray(A, dtype=_working_dtype(A, ctx))
    if M.ndim != 2 or M.size == 0:
        raise DimensionError(f"expected a nonempty 2-d matrix, got shape {M.shape}")
    return M


def vec(X: np.ndarray, ctx: PrecisionContext | None = None) -> np.ndarray:
    """Stack the columns of X into one vector, in `as_matrix`'s dtype."""
    return as_matrix(X, ctx).flatten(order="F")


def unvec(x: np.ndarray, m: int, n: int, ctx: PrecisionContext | None = None) -> np.ndarray:
    """The m x n matrix whose stacked columns are x, in `as_matrix`'s dtype."""
    x = np.asarray(x, dtype=_working_dtype(x, ctx)).ravel()
    if x.size != m * n:
        raise DimensionError(f"cannot reshape length {x.size} into {m}x{n}")
    return x.reshape((m, n), order="F")


def _enter(A: np.ndarray, ctx: PrecisionContext, what: str = "matrix") -> np.ndarray:
    """Round a matrix into the context's format, rejecting overflow."""
    R = _round_complex_array(as_matrix(A), ctx.format)
    if not np.isfinite(R).all() and np.isfinite(np.asarray(A)).all():
        raise FormatOverflowError(
            f"{what} has entries not representable in {ctx.format.name}")
    return R


# ---------------------------------------------------------------------------
# products and norms

def gemm(alpha, A, B, beta, C, ctx: PrecisionContext = _CTX64) -> np.ndarray:
    """fl(alpha*A@B + beta*C) with a fixed ascending-k accumulation order.

    Each entry sums its k rounded products in ascending order from +0, so
    results are deterministic and reproducible in every format.  The
    products are formed a block of k indices at a time, each block summed
    on from the last (`_gemm_steps`).  ``C`` may be None when beta == 0.
    """
    A = as_matrix(A, ctx)
    B = as_matrix(B, ctx)
    m, k = A.shape
    k2, n = B.shape
    if k != k2:
        raise DimensionError(f"inner dimensions differ: {A.shape} @ {B.shape}")
    if C is not None:
        C = as_matrix(C, ctx)
        if C.shape != (m, n):
            raise DimensionError(f"C has shape {C.shape}, expected {(m, n)}")
    elif beta != 0:
        raise DimensionError("C is required when beta != 0")
    # complex64 beside a complex64 A only when alpha and beta are binary32 values
    ab = np.array([alpha, beta], dtype=A.dtype)
    if ab.dtype != np.complex128 and ab.tolist() != [alpha, beta]:
        ab = np.array([alpha, beta], dtype=np.complex128)
    return _resident(_gemm_steps, ctx, ab, A, B, *([] if beta == 0 else [C]))[0]


def _gemm_steps(ab, A, B, C=None, *, ctx: PrecisionContext, mul=None):
    """The steps of `gemm` for ab = [alpha, beta] and C (None when beta is
    0), as a 1-tuple: each block's products summed on from the last
    block's sums (`_accumulate`), then the alpha and beta products and the
    sum with C.  A block's products are one `fl_mul` entry, uncharged, so
    its preamble runs once per block of up to `_GEMM_BLOCK` products; the
    steps of a kernel that call this body directly pass ``mul=_product``,
    whose products `_summed_products` forms in its accumulation buffer."""
    fmt = ctx.format
    alpha, beta = ab.tolist()
    m, k = A.shape
    n = B.shape[1]
    kb = max(1, _GEMM_BLOCK // (m * n))
    acc = None
    for p in range(0, k, kb):
        a, b = A[:, p:p + kb].T[:, :, None], B[p:p + kb, None, :]
        acc = (_accumulate(fl_mul(a, b, fmt._uncounted), acc, fmt) if mul is None
               else _summed_products(mul, a, b, acc, fmt, (len(a), m, n)))
    if alpha != 1:
        acc = _product(ab[0], acc, fmt)
    if C is not None:
        acc = _add(acc, C if beta == 1 else _product(ab[1], C, fmt), fmt)
    ctx.count(m * n * (2 * k + (alpha != 1) + (C is not None) * (1 + (beta != 1))))
    return (acc,)


def _frobenius(v) -> float:
    """Frobenius norm of an array in binary64: ``np.linalg.norm`` where that
    is finite and at least 2^-511, else (its unscaled squares overflow past
    ~1e154 and lose bits below ~1e-154) the norm of v scaled by its largest
    magnitude, or by a power of two (`_scaled_down`) when small.  Finite
    exactly when every entry is finite and the norm is below the largest
    double.  complex64 and float32 input is widened first:
    ``np.linalg.norm`` keeps the dtype."""
    v = np.asarray(v)
    if v.dtype in (np.complex64, np.float32):
        v = v.astype(np.result_type(v.dtype, np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.linalg.norm(v))
    if math.isinf(nrm) and np.isfinite(v).all():
        s = float(np.abs(v).max())
        nrm = s * float(np.linalg.norm(v / s))
    elif nrm < 2.0 ** -511 and v.any():
        scaled, e = _scaled_down(v.ravel())
        nrm = math.ldexp(float(np.linalg.norm(scaled)), e)
    return nrm


def norm(M, kind: str = "frobenius") -> float:
    """Matrix norm, always evaluated in binary64.

    ``kind`` is one of ``frobenius``, ``inf``, ``one``, ``two``.  The
    Frobenius norm scales past overflow (`_frobenius`); the two-norm is
    the largest singular value from LAPACK's SVD (`_singular_values`).
    """
    M = as_matrix(M)
    if kind == "frobenius":
        return _frobenius(M)
    if kind == "inf":
        return float(np.abs(M).sum(axis=1).max())
    if kind == "one":
        return float(np.abs(M).sum(axis=0).max())
    if kind == "two":
        return float(_singular_values(M)[0])
    raise ValueError(f"unknown norm kind {kind!r}")


def _dot(x: np.ndarray, y: np.ndarray, ctx: PrecisionContext, X=None, xh=None) -> complex:
    """conj(x).y under ctx, charging 2 len(x) flops: numpy's ``vdot`` in
    binary64, a BLAS call whose summation order depends on the strides, else
    the products of `_product` (of conj(x), or ``xh`` if the caller formed
    it) summed in ascending order from +0 as `_accumulate` sums, in X."""
    ctx.count(2 * len(x))
    if ctx.format.is_binary64:
        return complex(np.vdot(x, y))
    X = np.zeros(len(x) + 1, dtype=y.dtype) if X is None else X
    _product(np.conj(x) if xh is None else xh, y, ctx.format, out=X[1:])
    return complex(np.add.accumulate(X, out=X)[-1] if X.dtype == np.complex64
                   else _accumulate(X[1:], X[0], ctx.format))


def _vec_norm2_ctx(x: np.ndarray, ctx: PrecisionContext) -> float:
    """Euclidean vector norm composed from rounded square/add/sqrt steps.

    Each |x_i| is formed from two rounded squares, a rounded add and a
    rounded sqrt in one vector pass; its square is added unrounded into a
    rounded ascending accumulation.  When the squares overflow although
    every entry is finite, or underflow (the norm below the square root of
    the smallest normal) although an entry is nonzero, the steps run again
    on the entries scaled by a power of two, which is exact, and the norm
    is scaled back.
    """
    ctx.count(2 * len(x) + 1)
    x = np.asarray(x)
    x = x if x.dtype == np.complex64 else x.astype(np.complex128, copy=False)
    if ctx.format.is_binary64:
        return _frobenius(x)
    fmt = ctx.format
    nrm = _norm2_steps(x, fmt)
    if (nrm == math.inf and np.isfinite(x).all()
            or nrm < math.sqrt(fmt.smallest_normal) and x.any()):
        scaled, e = _scaled_down(x)
        nrm = _scaled_up(_norm2_steps(scaled, fmt), e, fmt).real
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


def _norm2_steps(x: np.ndarray, fmt: FpFormat) -> float:
    """The rounded steps of `_vec_norm2_ctx`; charges no flops.  |x_i| of a
    complex64 x (binary32 in `schur`) takes float32 steps, which round
    alike (`_givens_chain`).  Each partial sum acc + |x_i|^2 is `_sums`'
    rounding, which in binary32 and binary16 is a ``struct`` cast of the
    double sum s unless that raises OverflowError, s is NaN or Veltkamp's
    split says s may be a midpoint (see `_round_real_scalar`).  A NaN part
    makes |x_i| inf in the rounded steps, so a NaN sum is inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        if x.dtype == np.complex64:
            mag = np.sqrt(np.square(x.real) + np.square(x.imag))
        else:
            r = _round_real_array
            sq = r(np.array([x.real * x.real, x.imag * x.imag]), fmt)
            s = r(sq[0] + sq[1], fmt)
            finite = np.isfinite(s)
            mag = np.where(finite, r(np.sqrt(np.where(finite, s, 0.0)), fmt), np.inf)
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


# ---------------------------------------------------------------------------
# QR factorizations

def _fix_r_diagonal(Q: np.ndarray, R: np.ndarray, ctx: PrecisionContext):
    """Rescale columns of Q and rows of R so diag(R) is real and positive."""
    k = min(R.shape)
    for j in range(k):
        d = complex(R[j, j])
        if d == 0:
            continue
        a = abs(d)
        phase = d / a
        if phase != 1.0:
            R[j, j:] = fl_mul(np.conj(phase), R[j, j:], ctx)
            Q[:, j] = fl_mul(phase, Q[:, j], ctx)
        R[j, j] = R[j, j].real
    return Q, R


def _check_rank(R: np.ndarray, A: np.ndarray, ctx: PrecisionContext):
    k = min(R.shape)
    dmin = min(abs(R[j, j]) for j in range(k))
    if dmin <= R.shape[1] * ctx.format.unit_roundoff * _frobenius(A):
        raise RankDeficiencyError(
            f"input is numerically rank deficient (min |R_jj| = {dmin:.3e})")


def _mgs_project(Q: np.ndarray, v: np.ndarray, ctx: PrecisionContext):
    """Project v off the columns of Q one at a time (modified Gram-Schmidt)
    under ctx; returns the coefficients conj(q_i).v, the remainder and its
    `_vec_norm2_ctx`.

    Each coefficient is a `_dot`, and v loses fl(h_i q_i) (`_product`,
    `_sub`); binary32 takes the steps in complex64 (`_resident`)."""
    h, v, nrm = _resident(_mgs_steps, ctx, Q, v)
    return h, v, float(nrm.real)


def _mgs_steps(Q: np.ndarray, v: np.ndarray, *, ctx: PrecisionContext):
    """The steps of `_mgs_project` in one buffer, as (h, v, |v| as a 0-d array)."""
    fmt = ctx.format
    h = np.zeros(Q.shape[1], dtype=Q.dtype)
    X = np.zeros(len(v) + 1, dtype=v.dtype)
    # the conjugated basis, row-major, once per call; binary64's vdot takes Q's columns
    QH = None if fmt.is_binary64 else np.conjugate(Q.T, order="C")
    for i in range(Q.shape[1]):
        h[i] = _dot(Q[:, i], v, fmt._uncounted, X, None if QH is None else QH[i])
        v = _sub(v, _product(h[i], Q[:, i], fmt), fmt)
    ctx.count(4 * Q.size)
    return h, v, np.array(_vec_norm2_ctx(v, ctx))


def mgs_qr(A, ctx: PrecisionContext = _CTX64) -> QrFactors:
    """Modified Gram-Schmidt QR with a positive real diagonal of R."""
    A = _enter(A, ctx, "qr input")
    m, n = A.shape
    if m < n:
        raise DimensionError("mgs_qr requires rows >= cols")
    Q = A.copy()
    R = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        R[:j, j], v, nv = _mgs_project(Q[:, :j], Q[:, j], ctx)
        R[j, j] = nv
        if nv == 0.0:
            raise RankDeficiencyError(f"zero column norm at column {j}")
        Q[:, j] = fl_div(v, nv, ctx)
    Q, R = _fix_r_diagonal(Q, R, ctx)
    _check_rank(R, A, ctx)
    return QrFactors(Q, R)


def _make_reflector(x: np.ndarray, ctx: PrecisionContext):
    """Householder vector w and real beta with (I - beta w w*) x = -phase*|x| e1.

    When a step overflows although x is finite, the reflector is formed
    from x * 2^-e instead (see `_scaled_down`).  That is the same
    transformation, with w scaled by 2^-e and beta by 4^e; only head is
    scaled back.  The flops charged are those of one formation.  w is None
    for a zero x, and False for a complex64 x (binary32 in a `_resident`
    kernel) whose rescaled w, formed in binary64, is not binary32.
    """
    w, beta, head = _reflector_steps(x, ctx)
    if w is not None and not (0.0 < beta < math.inf and np.isfinite([w[0], head]).all()) \
            and np.isfinite(x).all():
        scaled, e = _scaled_down(x)
        w, beta, head = _reflector_steps(scaled, PrecisionContext(ctx.format))
        head = _scaled_up(head, e, ctx.format)
        if x.dtype == np.complex64:
            w = (_binary32(w) or [False])[0]
    return w, beta, head


def _reflector_steps(x: np.ndarray, ctx: PrecisionContext):
    """The rounded steps of `_make_reflector`; w[0], beta and head come from
    `_reflector_binary64` in binary64 and `_reflector_chain` otherwise."""
    fmt = ctx.format
    nx = _vec_norm2_ctx(x, ctx)
    if nx == 0.0:
        return None, 0.0, 0j
    ctx.count(3)
    x0 = complex(x[0])
    w = x.copy()
    if fmt.is_binary64:
        w[0], beta, head = _reflector_binary64(x0, nx)
    else:
        w[0], beta, head = _reflector_chain(x0, nx, fmt)
    return w, beta, head


def _reflector_binary64(x0: complex, nx: float):
    """w[0], beta and head from x0 = x[0] and nx = |x| > 0 in binary64, by
    float and complex operations: w[0] = x0 + phase nx, beta = 2 / w*w
    with w*w = 2 nx (nx + |x0|), real by construction, and head = -phase nx."""
    a0 = abs(x0)
    pn = (x0 / a0 if a0 != 0.0 else 1 + 0j) * nx
    ww = 2.0 * (nx * (nx + a0))  # 0 once it underflows: `_make_reflector` rescales
    return x0 + pn, 2.0 / ww if ww != 0.0 else math.inf, -1.0 * pn


def _reflector_chain(x0: complex, nx: float, fmt: FpFormat):
    """`_reflector_binary64` in any other format fmt, for nx > 0 a value of
    fmt.  x0 may lie off the format (the first entry of a rescaled
    column): the quotient x0 / |x0| rounds it first, and w[0] is its
    correctly rounded sum with phase nx."""
    r, add = fmt._scalar_rounding
    xr, xi = x0.real, x0.imag
    vr, vi, xx, yy = r[4](xr + xi * 0.0, xi - xr * 0.0, xr * xr, xi * xi)
    (s,) = r[1](xx + yy)
    if 0.0 < s < math.inf:
        (a0,) = r[1](math.sqrt(s))
    else:  # |x0|^2 is 0, inf or NaN: `_shypot` rescales
        a0 = _shypot(xr, xi, fmt)
    pr, pi = r[2](vr / a0, vi / a0) if a0 != 0.0 else (1.0, 0.0)  # the phase x0 / |x0|
    (q,) = add[1](nx, a0)
    # the products of phase * nx, and nx (nx + |x0|)
    rr, ir, p = r[3](pr * nx, pi * nx, nx * q)
    nr, ni = rr - pi * 0.0, pr * 0.0 + ir  # phase * nx
    # w*w = 2 p, whose zero imaginary part is NaN once nx or q is inf
    (ww,) = r[1](2.0 * p - 0.0 * (nx * 0.0 + 0.0 * q))
    (beta,) = r[1](2.0 / ww) if ww != 0.0 else (math.inf,)  # `_sdiv`'s 2 / 0
    if vr == xr and vi == xi:
        wr, wi = add[2](xr, nr, xi, ni)
    else:  # x0 off the format: the sum needs its 2Sum residual
        wr, wi = _sums(fmt, xr, nr, xi, ni)
    return complex(wr, wi), beta, complex(-nr - 0.0 * ni, -ni + 0.0 * nr)


def _apply_reflector_left_rounded(M: np.ndarray, w: np.ndarray, beta,
                                  ctx: PrecisionContext) -> None:
    """M <- (I - beta w w*) M in place, rows matching w's last axis: t = w* M
    summed from +0 (`_accumulate`), less the products of beta w and t, as
    steps of the calling kernel, charged once: on float32 planes for a
    complex64 M and w (binary32); a NaN is left for the caller.  A stack
    M (p, r, c) takes w (p, r) and p betas, each matrix its own."""
    fmt = ctx.format
    t = _accumulate(np.moveaxis(_product(np.conj(w)[..., None], M, fmt), -2, 0), None, fmt)
    bw = _product(np.asarray(beta, w.dtype)[..., None], w, fmt)
    M[...] = _sub(M, _product(bw[..., None], t[..., None, :], fmt), fmt)
    ctx.count(4 * M.size + w.size)


def _apply_reflector_right_rounded(M: np.ndarray, w: np.ndarray, beta,
                                   ctx: PrecisionContext) -> None:
    """M <- M (I - beta w w*) in place, columns matching w's last axis, with
    the steps of `_apply_reflector_left_rounded` on the rows of M."""
    fmt = ctx.format
    t = _accumulate(_product(np.moveaxis(M, -1, 0), np.moveaxis(w, -1, 0)[..., None], fmt),
                    None, fmt)
    bw = _product(np.asarray(beta, w.dtype)[..., None], np.conj(w), fmt)
    M[...] = _sub(M, _product(t[..., None], bw[..., None, :], fmt), fmt)
    ctx.count(4 * M.size + w.size)


def householder_qr(A, ctx: PrecisionContext = _CTX64) -> QrFactors:
    """Householder QR with a positive real diagonal of R.  In binary32 the
    reflections keep Q and R in complex64 (`_resident`)."""
    A = _enter(A, ctx, "qr input")
    m, n = A.shape
    if m < n:
        raise DimensionError("householder_qr requires rows >= cols")
    Q, R = _resident(_householder_steps, ctx, np.eye(m, dtype=np.complex128), A.copy())
    Q = Q[:, :n].copy()
    R = R[:n, :].copy()
    R[np.tril_indices(R.shape[0], -1)] = 0.0
    Q, R = _fix_r_diagonal(Q, R, ctx)
    _check_rank(R, A, ctx)
    return QrFactors(Q, R)


def _householder_steps(Q: np.ndarray, R: np.ndarray, *, ctx: PrecisionContext):
    """The reflections of `householder_qr` on Q = I and R = A, in place, as
    (Q, R); False where `_make_reflector` returns a w off binary32."""
    reflectors = []
    for j in range(R.shape[1]):
        w, beta, head = _make_reflector(R[j:, j].copy(), ctx)
        if w is False:
            return False
        if w is None:
            raise RankDeficiencyError(f"zero column at {j}")
        _apply_reflector_left_rounded(R[j:, j:], w, beta, ctx)
        R[j, j] = head
        R[j + 1:, j] = 0.0
        reflectors.append((j, w, beta))
    for j, w, beta in reversed(reflectors):
        _apply_reflector_left_rounded(Q[j:, j:], w, beta, ctx)
    return Q, R


# ---------------------------------------------------------------------------
# LU

def lu(A, ctx: PrecisionContext = _CTX64) -> LuFactors:
    """LU with partial pivoting, L unit lower and U packed; binary32 runs in complex64."""
    A = _enter(A, ctx, "lu input")
    m, n = A.shape
    if m != n:
        raise DimensionError("lu requires a square matrix")
    piv = np.arange(n)

    def steps(W, ctx):
        fmt, flops = ctx.format, 0
        for k in range(n):
            # on complex128 magnitudes: np.abs of complex64 entries rounds them
            p = k + int(np.argmax(np.abs(W[k:, k].astype(np.complex128, copy=False))))
            if W[p, k] == 0:
                if flops:
                    ctx.count(flops)
                raise SingularMatrixError(f"exactly zero pivot at step {k}")
            piv[k] = p
            if p != k:
                W[[k, p], :] = W[[p, k], :]
            if k + 1 < n:
                W[k + 1:, k] = _divide(W[k + 1:, k], W[k, k], fmt)
                W[k + 1:, k + 1:] = _sub(
                    W[k + 1:, k + 1:], _product(W[k + 1:, k:k + 1], W[k:k + 1, k + 1:], fmt), fmt)
                flops += (n - k - 1) * (2 * n - 2 * k - 1)
        ctx.count(flops)
        return (W,)
    return LuFactors(_resident(steps, ctx, A.copy())[0], piv)


def _apply_pivots(B: np.ndarray, piv: np.ndarray, inverse: bool = False) -> np.ndarray:
    B = B.copy()
    rng = range(len(piv) - 1, -1, -1) if inverse else range(len(piv))
    for k in rng:
        p = piv[k]
        if p != k:
            B[[k, p], :] = B[[p, k], :]
    return B


def _substitute(T: np.ndarray, B: np.ndarray, ctx, lower: bool, unit: bool,
                conj: bool) -> np.ndarray:
    """Columnwise substitution for T X = B (or T* X = B when conj), with T
    read as lower triangular (forward) or upper triangular (backward).  In
    binary32 it runs in complex64 (`_resident`)."""
    n = T.shape[0]

    def steps(T, X, ctx):
        fmt, flops = ctx.format, 0
        for i in range(n) if lower else range(n - 1, -1, -1):
            rest = slice(i + 1, n) if lower else slice(0, i)
            if not unit:
                diag = np.conj(T[i, i]) if conj else T[i, i]
                if diag == 0:
                    if flops:
                        ctx.count(flops)
                    raise SingularMatrixError("zero diagonal in triangular solve")
                X[i, :] = _divide(X[i, :], diag, fmt)
                flops += X.shape[1]
            col = np.conj(T[i, rest]) if conj else T[rest, i]
            if col.size:
                X[rest, :] = _sub(X[rest, :], _product(col[:, None], X[i:i + 1, :], fmt), fmt)
                flops += 2 * col.size * X.shape[1]
        if flops:
            ctx.count(flops)
        return (X,)
    return _resident(steps, ctx, T, B.copy())[0]


def lu_solve(F: LuFactors, B, side: str = "left", transpose: str = "no",
             ctx: PrecisionContext = _CTX64) -> np.ndarray:
    """Solve A X = B, X A = B, A* X = B or X A* = B from PA = LU factors."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if transpose not in ("no", "conj"):
        raise ValueError("transpose must be 'no' or 'conj'")
    B = as_matrix(B)
    n = F.lu.shape[0]
    if side == "right":
        # X A = B  <=>  A* X* = B*;  X A* = B  <=>  A X* = B*
        inner = "no" if transpose == "conj" else "conj"
        Y = lu_solve(F, B.conj().T, side="left", transpose=inner, ctx=ctx)
        return _canonical(Y.conj().T)  # conj flips a NaN's sign
    if B.shape[0] != n:
        raise DimensionError(f"rhs has {B.shape[0]} rows, expected {n}")
    if transpose == "no":
        # A = P^T L U:  solve L Z = P B, then U X = Z
        Z = _apply_pivots(B, F.pivots)
        Z = _substitute(F.lu, Z, ctx, lower=True, unit=True, conj=False)
        return _substitute(F.lu, Z, ctx, lower=False, unit=False, conj=False)
    # A* = U* L* P: solve U* Z = B (lower), L* W = Z (upper), X = P^T W
    Z = _substitute(F.lu, B, ctx, lower=True, unit=False, conj=True)
    W = _substitute(F.lu, Z, ctx, lower=False, unit=True, conj=True)
    return _apply_pivots(W, F.pivots, inverse=True)


# ---------------------------------------------------------------------------
# Schur decomposition

def _hessenberg(UH: np.ndarray, ctxs) -> bool:
    """Householder reduction of each H to Hessenberg form in the stack UH
    of [U; H], U = I on entry, in place, each matrix charged to its own
    context in ctxs.  A column's reflectors are formed in stack order and,
    when every matrix has one, applied in one call per side, else one
    matrix at a time.  False if a complex64 UH meets a w that is not
    binary32 (a rescaled x, `_make_reflector`), else True."""
    p, m = UH.shape[0], UH.shape[2]
    H, fmt = UH[:, m:], ctxs[0].format
    for k in range(m - 2):
        r = m - k - 1
        formed = []
        for i, c in enumerate(ctxs):
            x = H[i, k + 1:, k]
            if np.any(x[1:]):
                w, beta, head = _make_reflector(x, c)
                if w is False:
                    return False
                if w is not None:
                    formed.append((i, w, beta, head))
        groups = [formed] if len(formed) == p else [[f] for f in formed]
        for group in groups:
            idx, w, beta, head = zip(*group)
            at, w = slice(idx[0], idx[-1] + 1), np.array(w)
            _apply_reflector_left_rounded(H[at, k + 1:, k:], w, beta, fmt._uncounted)
            H[at, k + 1:, k] = 0.0
            H[at, k + 1, k] = head
            # the columns of U and of H in one update
            _apply_reflector_right_rounded(UH[at, :, k + 1:], w, beta, fmt._uncounted)
            for i in idx:  # the left update, and the right one as two
                ctxs[i].count(r * (12 * m - 4 * k + 3))
    if m > 2:
        H[(slice(None), *np.tril_indices(m, -2))] = 0.0
    return True


def _givens(f: complex, g: complex, fmt: FpFormat):
    """Unitary [[c, s], [-conj(s), c]]* zeroing g against f; c real:
    `_givens_binary64` in binary64, `_givens_chain` in every other format."""
    if fmt.is_binary64:
        return _givens_binary64(f, g)
    return _givens_chain(f, g, fmt)


def _givens_binary64(f: complex, g: complex):
    """`_givens` in binary64 by float and complex operations: c = |f| / d
    and s = (f / |f|) conj(g) / d, d = sqrt(|f|^2 + |g|^2) (``math.hypot``
    past the squares' range); NumericBreakdownError if an abs overflows."""
    if g == 0:
        return 1.0, 0j
    try:
        af, ag = abs(f), abs(g)
    except OverflowError:
        raise NumericBreakdownError("Givens operand magnitude past the double range") from None
    if f == 0:
        return 0.0, g.conjugate() / ag
    d2 = af * af + ag * ag
    d = math.hypot(af, ag) if d2 == 0.0 or d2 == math.inf else math.sqrt(d2)
    return af / d, f / af * g.conjugate() / d


# The scalar chains below are the one body of the Givens rotation, the
# Wilkinson shift and the Householder scalars in every format but binary64
# (and `gmresir` has two more).  They run on Python floats for values of
# the format.  Each step is one double operation on values of the format,
# rounded as the rounded composition of `_sadd`, `_ssub`, `_smul`, `_sdiv`
# and `_ssqrt` rounds it: r[n] of `FpFormat._scalar_rounding` rounds the n
# independent steps of a stage, and add[n] rounds the sums that the
# composition takes with a 2Sum residual.  The steps keep the zero cross
# terms of the complex steps, such as Im(f) * 0 in f / |f|, since the signs
# of zeros and NaN depend on them; a step that adds or subtracts such a
# zero to a value of the format is exact and is not rounded.  The
# composition's branches on zeros, on sums of squares out of range and on
# a zero divisor are the chains' own, so zeros, infinities, NaN and
# overflow run through the same body.


def _givens_chain(f: complex, g: complex, fmt: FpFormat):
    """`_givens` for values f and g of fmt: c = |f| / d and
    s = (f / |f|) conj(g) / d, d = sqrt(|f|^2 + |g|^2).  A magnitude or d
    whose sum of squares is 0 or inf comes from `_shypot`, which rescales."""
    if g == 0:
        return 1.0, 0j
    r, add = fmt._scalar_rounding
    fr, fi, gr, gi = f.real, f.imag, g.real, g.imag
    ff, fj, gg, gj = r[4](fr * fr, fi * fi, gr * gr, gi * gi)
    sf, sg = r[2](ff + fj, gg + gj)
    if 0.0 < sf < math.inf and 0.0 < sg < math.inf:
        af, ag = r[2](math.sqrt(sf), math.sqrt(sg))
    else:  # |f| or |g| is 0, or its squares leave the range, or a part is NaN
        af, ag = _shypot(fr, fi, fmt), _shypot(gr, gi, fmt)
    if f == 0:  # conj(g) / |g|
        sr, si = r[2]((gr + -gi * 0.0) / ag, (-gi - gr * 0.0) / ag)
        return 0.0, complex(sr, si)
    # the real parts of af * af and ag * ag, and f / af
    pf, pg, qr, qi = r[4](af * af, ag * ag, (fr + fi * 0.0) / af, (fi - fr * 0.0) / af)
    (d2,) = add[1](pf, pg)
    # the products of (f / af) * conj(g)
    rr, ii, ri, ir = r[4](qr * gr, qi * -gi, qr * -gi, qi * gr)
    d, pr, pi = r[3](math.sqrt(d2), rr - ii, ri + ir)
    if d2 == 0.0 or d2 == math.inf:  # the squares left the format's range
        d = _shypot(af, ag, fmt)
    # af / d, and ((f / af) * conj(g)) / d
    c, sr, si = r[3](af / d, (pr + pi * 0.0) / d, (pi - pr * 0.0) / d)
    return c, complex(sr, si)


# the rows [X0, X1, X1, X0] that the software `_rotation` body multiplies
# by [c, s1, c, s2]
_PAIR = np.array([0, 1, 1, 0])


def _coefficient_layout(code, entries, shape):
    """A table packing of coefficients of one step and of two: (struct,
    index table, array shape) for each."""
    def packing(q):
        table = [j if j < 2 else j + 4 * i for pair in entries for i in range(q) for j in pair]
        axes = shape + ((q,) if q > 1 else ()) + ((1, 2) if code == "f" else (1,))
        return struct.Struct(f"{len(table)}{code}"), itemgetter(*table), axes
    return packing(1), packing(2)


# Each entry of the complex64 layout is a pair of indices into the values
# (0.0, -0.0, c, Re s, Im s, -Im s) of one step; for two steps each pair
# is stored for step 0, then for step 1, whose c, Re s, Im s and -Im s are
# at 6 to 9.  The pairs of c, s and conj(s) are the float32 planes
# [kr, kr] and [-ki, ki], and the layout stores the planes of the rows'
# and then the columns' [[c, s1], [s2, c]] (out, in).  complex128 packs
# [c, s, c, conj(s), c, s] as (re, im) doubles straight, step 0 then
# step 1 for each entry: a step's rows take [c, s1, c, s2] from 0 and its
# columns from 2.
_PLANES = ({"c": (2, 2), "s": (3, 3), "s*": (3, 3)}, {"c": (1, 0), "s": (5, 4), "s*": (4, 5)})
_COMPLEX64 = _coefficient_layout(
    "f", [plane[x] for rows in (("c", "s", "s*", "c"), ("c", "s*", "s", "c"))
          for plane in _PLANES for x in rows], (2, 2, 2, 2))


def _rotation(dtype, fmt: FpFormat):
    """The Givens rotation body of `schur`, chosen once per call:
    coefficients(c, s), or (c, s, cb, sb) for two steps, returns the (K, L)
    of the rows and columns, fixed views of one buffer that the next call
    overwrites, and rotate(X, K) sets X <- (c X0 + s1 X1, c X1 - s2 X0) in
    place for a (2, n) view X, (2, 2, n) for two steps: (s1, s2) =
    (s, conj(s)) in K, (conj(s), s) in L.  The caller charges six flops per
    column and holds the errstate.  binary64 takes K as views (c, [s1, s2]),
    keeps `_product`'s operand order, X first, and forms c X out of place,
    which numpy runs faster than an in-place product on a strided view.  A
    complex64 X takes `_plane_product`'s steps on its float32 planes V:
    V * [kr, kr] + swap(V) * [-ki, ki] is exactly kr*gr - ki*gi and
    kr*gi + ki*gr, each step correctly rounded in any layout.  Others take
    `_product` and `_add` of K = [c, s1, c, s2] and [X0, X1, X1, X0]."""
    if dtype == np.complex64:
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

        def rotate(X, k):
            V = X[..., None].view(np.float32)
            kr, ki = k
            P = V * kr + V[..., ::-1] * ki  # k[o, i] X[i]
            np.negative(P[1, 0], out=P[1, 0])
            np.add(P[:, 0], P[:, 1], out=V)
        return coefficients, rotate
    if fmt.is_binary64:
        def rotate(X, k):
            c, s = k
            B = s * X[::-1]
            np.negative(b := B[1], out=b)
            np.add(X * c, B, out=X)
    else:
        def rotate(X, k):
            prods = _product(k, X[_PAIR], fmt)
            np.negative(prods[3], out=prods[3])
            X[...] = _add(prods[0::2], prods[1::2], fmt)
    K1, K2 = np.empty((6, 1), np.complex128), np.empty((6, 2, 1), np.complex128)
    pack1, pack2 = struct.Struct("12d").pack_into, struct.Struct("24d").pack_into
    one, two = [((K[0:1], K[1:4:2]), (K[2:3], K[3:6:2])) if fmt.is_binary64 else (K[0:4], K[2:6])
                for K in (K1, K2)]

    def coefficients(c, s, cb=None, sb=None):
        sr, si = s.real, s.imag
        if cb is None:
            pack1(K1, 0, c, 0.0, sr, si, c, 0.0, sr, -si, c, 0.0, sr, si)
            return one
        tr, ti = sb.real, sb.imag
        pack2(K2, 0, c, 0.0, cb, 0.0, sr, si, tr, ti, c, 0.0, cb, 0.0, sr, -si, tr, -ti,
              c, 0.0, cb, 0.0, sr, si, tr, ti)
        return two
    return coefficients, rotate


def _wilkinson_shift(H: np.ndarray, hi: int, fmt: FpFormat) -> complex:
    """The eigenvalue of the trailing 2x2 block [[a, b], [c, d]] of
    H[:hi + 1, :hi + 1] closest to d: `_shift_binary64` in binary64,
    `_shift_chain` in every other format."""
    a, b, c, d = H.item(hi - 1, hi - 1), H.item(hi - 1, hi), H.item(hi, hi - 1), H.item(hi, hi)
    if fmt.is_binary64:
        return _shift_binary64(a, b, c, d)
    return _shift_chain(a, b, c, d, fmt)


def _shift_binary64(a: complex, b: complex, c: complex, d: complex) -> complex:
    """The shift in binary64 by complex operations: delta = (a - d) / 2,
    the square root of delta^2 + b c aligned with delta, and
    d - b c / (delta + root), or d when that denominator is 0."""
    delta = 0.5 * (a - d)
    bc = b * c
    disc = complex(np.sqrt(np.complex128(delta * delta + bc)))
    if (delta.real * disc.real + delta.imag * disc.imag) < 0:
        disc = -disc
    denom = delta + disc
    if denom == 0:
        return d
    return d - bc / denom


def _shift_chain(a: complex, b: complex, c: complex, d: complex, fmt: FpFormat) -> complex:
    """`_shift_binary64` for values of any other format fmt: the principal
    square root from the unscaled magnitude of its argument (inf past the
    squares' range), and the quotient by Smith's method."""
    r, add = fmt._scalar_rounding
    ar, ai, br, bi, cr, ci, dr, di = a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    xr, xi = add[2](ar, -dr, ai, -di)  # a - d
    # 0.5 * (a - d), and the products of b * c
    hr, hi, p1, p2, p3, p4 = r[6](0.5 * xr, 0.5 * xi, br * cr, bi * ci, br * ci, bi * cr)
    er, ei = hr - 0.0 * xi, hi + 0.0 * xr  # delta
    bcr, bci, q1, q2, q3, q4 = r[6](p1 - p2, p3 + p4, er * er, ei * ei, er * ei, ei * er)
    ddr, ddi = r[2](q1 - q2, q3 + q4)
    zr, zi = add[2](ddr, bcr, ddi, bci)  # delta^2 + b c
    # its square root (u, v)
    if zr == 0.0 and zi == 0.0:
        ur, ui = 0.0, 0.0
    else:
        s1, s2 = r[2](zr * zr, zi * zi)
        (s,) = r[1](s1 + s2)
        # unscaled, inf past the squares' range: scaling it would change the
        # shifts, and so the results, of binary32 Schur forms whose
        # discriminant passes ~1.8e19
        (mag,) = r[1](math.sqrt(s)) if s < math.inf else (math.inf,)
        pos = zr >= 0.0
        (h,) = r[1](mag + zr if pos else mag - zr)
        (h,) = r[1](h / 2.0)
        (root,) = r[1](math.sqrt(h))
        if not pos:
            root = math.copysign(root, zi if zi != 0.0 else 1.0)
        if root == 0.0:
            ur, ui = 0.0, (zi if pos else 0.0)
        else:
            (twice,) = r[1](2.0 * root)
            (other,) = r[1](zi / twice)
            ur, ui = (root, other) if pos else (other, root)
    if er * ur + ei * ui < 0:  # align the root with delta
        ur, ui = -ur, -ui
    nr, ni = add[2](er, ur, ei, ui)
    if nr == 0.0 and ni == 0.0:
        return d
    # b c / (delta + root) by Smith's method.  No divisor is 0: |den| is at
    # least the larger part of the sum, whose real part is NaN only where
    # its imaginary part is NaN or infinite
    if abs(nr) >= abs(ni):
        (t,) = r[1](ni / nr)
        k1, k2, k3 = r[3](ni * t, bci * t, bcr * t)
        den, n1, n2 = r[3](nr + k1, bcr + k2, bci - k3)
        qr, qi = r[2](n1 / den, n2 / den)
    else:
        (t,) = r[1](nr / ni)
        k1, k2, k3 = r[3](nr * t, bcr * t, bci * t)
        den, n1, n2 = r[3](ni + k1, bci + k2, bcr - k3)
        qr, qi = r[2](n1 / den, n2 / den)
        qi = -qi
    sr, si = add[2](dr, -qr, di, -qi)
    return complex(sr, si)


def _shifted(h: complex, shift: complex, fmt: FpFormat) -> complex:
    """h - shift for values h and shift of fmt, as `_ssub` rounds it."""
    if fmt.is_binary64:
        return h - shift
    re, im = fmt._scalar_rounding[1][2](h.real, -shift.real, h.imag, -shift.imag)
    return complex(re, im)


def schur(A, ctx: PrecisionContext = _CTX64) -> SchurFactors:
    """Complex Schur form A = U T U* via Hessenberg reduction followed by
    a single-shift QR iteration with Wilkinson shifts.

    A subdiagonal entry deflates (is set to exact zero) once its magnitude
    drops below u*(|h_kk| + |h_k+1,k+1|) with u the context's unit roundoff.
    A is rounded into the context's format on entry, so callers pass it
    unrounded: an entry past the format's range raises FormatOverflowError
    before any flop is charged.  Raises IterationLimitError after 30*m
    sweeps.  In binary32 the reduction and the QR iteration keep U and H
    in complex64 from start to end (`_resident`).

    A may be a stack (p, m, m), as numpy's linalg takes it; U and T are
    then stacks, and U, T, flops and errors are those of one call per
    matrix in turn.  The reduction runs the stack in lockstep
    (`_hessenberg`), and the QR iterations a pair at a time
    (`_qr_iteration`): two matrices' steps share views padded with exact
    zeros, which a finite rotation keeps zero.
    """
    stacked = np.ndim(A) == 3
    if stacked and len(A) == 0:
        raise DimensionError(f"expected a nonempty stack, got shape {np.shape(A)}")
    entered, error = [], None
    for M in A if stacked else [A]:
        try:
            entered.append(_enter(M, ctx, "schur input"))
        except FormatOverflowError as exc:
            if not entered:
                raise
            error = exc
            break
    m = entered[0].shape[0]
    if entered[0].shape[1] != m:
        raise DimensionError("schur requires a square matrix")
    # U above H in one C-contiguous array per matrix: a reflector or a
    # Givens step updates the rows of H through one view and the columns
    # of U and H through others
    UH = np.concatenate([np.broadcast_to(np.eye(m, dtype=np.complex128), (len(entered), m, m)),
                         entered], axis=1)
    (UH,) = _resident(_schur_steps, ctx, UH)
    if error is not None:
        raise error
    U, T = UH[:, :m].copy(), np.triu(UH[:, m:])
    return SchurFactors(U, T) if stacked else SchurFactors(U[0], T[0])


def _schur_steps(UH: np.ndarray, *, ctx: PrecisionContext):
    """The steps of `schur` on the stack UH of [U; H], U = I on entry, in
    place, as a 1-tuple, or False as `_hessenberg` returns it.  The
    reduction runs the stack in lockstep (`_hessenberg`), the QR iterations
    a pair at a time (`_qr_iteration`).  Each matrix is charged to a tally
    of its own, and the tallies go to ctx in stack order."""
    ctxs = [PrecisionContext(ctx.format, FlopCounter()) for _ in UH]
    try:
        return _hessenberg(UH, ctxs) and _qr_iteration(UH, ctxs) and (UH,)
    finally:
        for c in ctxs:
            for n in c.counter.counts.values():
                ctx.count(n)


def _qr_iteration(UH: np.ndarray, ctxs) -> bool:
    """The QR iterations of `schur` on the C-contiguous stack UH of
    Hessenberg [U; H], in place, each charged to its own context in ctxs:
    True, or the error of the first matrix that raises, whose partner is
    run no further, raised with the charges of those after it dropped.
    Matrices 0 and 1 run to their ends, then 2 and 3, and an odd last one
    alone.  A pair's pending steps are applied through one view per pass
    on UH's buffer: the rows from the smaller first column, the columns to
    the larger row count, with coefficients(c, s, cb, sb).  The entries
    this pads with are exact zeros below H's subdiagonal or a deflated
    subdiagonal, which a rotation by finite c and s keeps zero.  A Givens
    step on a non-finite H may not have them (where c is not finite,
    neither is s): a pair of steps whose s is not finite is applied a
    matrix at a time."""
    p, m, dtype = UH.shape[0], UH.shape[2], UH.dtype
    coefficients, rotate = _rotation(dtype, ctxs[0].format)
    s0, s1, s2 = UH.strides

    def alone(X, step):
        k, first, rows, c, s = step
        K, L = coefficients(c, s)
        rotate(X[m + k:m + k + 2, first:], K)
        rotate(X[:rows, k:k + 2].T, L)

    def error(stop):  # the error that ended a run, or None
        return stop if isinstance(stop, MpsylvError) else None

    def to_end(steps, X):
        """The error that ends a run of steps applied alone, or None."""
        try:
            for step in steps:
                alone(X, step)
        except MpsylvError as exc:
            return exc

    for i in range(0, p, 2):
        X = UH[i]
        a = _qr_steps(X, ctxs[i])
        if i + 1 == p:
            errors = [to_end(a, X)]
        else:
            Y, b = UH[i + 1], _qr_steps(UH[i + 1], ctxs[i + 1])
            rows0, cols0 = i * s0 + m * s1, i * s0  # the offsets of the pair's views
            while True:
                try:
                    step = next(a)
                except (StopIteration, MpsylvError) as stop:
                    errors = [error(stop), error(stop) or to_end(b, Y)]
                    break
                try:
                    other = next(b)
                except (StopIteration, MpsylvError) as stop:
                    errors = [to_end(chain([step], a), X), error(stop)]
                    break
                k, f, r, c, s = step
                kb, fb, rb, cb, sb = other
                if not (cmath.isfinite(s) and cmath.isfinite(sb)):
                    alone(X, step)
                    alone(Y, other)
                    continue
                K, L = coefficients(c, s, cb, sb)
                f, r = f if f < fb else fb, r if r > rb else rb
                rotate(np.ndarray((2, 2, m - f), dtype, UH, rows0 + k * s1 + f * s2,
                                  (s1, s0 + (kb - k) * s1, s2)), K)
                rotate(np.ndarray((2, 2, r), dtype, UH, cols0 + k * s2,
                                  (s2, s0 + (kb - k) * s2, s1)), L)
        for j, exc in enumerate(errors, i):
            if exc is not None:
                for c in ctxs[j + 1:]:
                    c.counter.reset()
                raise exc
    return True


def _qr_steps(UH: np.ndarray, ctx: PrecisionContext):
    """The QR iteration of `schur` on one Hessenberg [U; H], a generator
    for `_qr_iteration`: it yields each Givens step (k, first, rows, c, s),
    resuming once the step is applied to rows k, k+1 of H from column
    first and to columns k, k+1 of UH[:rows].  A sweep charges its
    rotations' flops at its end and runs on the block [lo, hi] that
    `_deflate` finds, with `_givens`'s body bound once per run.  H's
    entries are read as Python complex numbers (``abs`` of a complex64
    numpy scalar returns float32)."""
    m = UH.shape[1]
    H = UH[m:]
    fmt = ctx.format
    givens = _givens_binary64 if fmt.is_binary64 else lambda f, g: _givens_chain(f, g, fmt)
    u = fmt.unit_roundoff
    limit = 30 * m
    sweeps = 0
    stuck = 0
    hi = m - 1
    while hi > 0:
        top, lo = _deflate(H, hi, u)
        if top < hi:
            hi, stuck = top, 0
        if hi == 0:
            break
        if sweeps >= limit:
            raise IterationLimitError(
                f"QR iteration did not converge within {limit} sweeps")
        h, y = H.item(lo, lo), H.item(lo + 1, lo)
        if stuck > 0 and stuck % 10 == 0:
            # exceptional shift to break a stalled cycle (a binary64 value)
            shift = complex(abs(H.item(hi, hi - 1)) + 0.75 * abs(H.item(hi, hi)))
            x = _ssub(h, shift, fmt)
        else:
            x = _shifted(h, _wilkinson_shift(H, hi, fmt), fmt)
        columns = 0
        for k in range(lo, hi):
            c, s = givens(x, y)
            # rows k, k+1 from column max(lo, k - 1), and columns k, k+1
            # of U and of H's rows to min(k + 2, hi)
            first = k - 1 if k > lo else lo
            rows = m + k + 3 if k < hi - 1 else m + hi + 1
            yield k, first, rows, c, s
            columns += m - first + rows
            if k > lo:
                H[k + 1, k - 1] = 0.0
            if k < hi - 1:
                x, y = H.item(k + 1, k), H.item(k + 2, k)
        ctx.count(6 * columns)
        sweeps += 1
        stuck += 1


def _deflate(H: np.ndarray, hi: int, u: float):
    """The active block (hi, lo) of H[:hi + 1, :hi + 1], hi = 0 once
    nothing is left, scanned from the bottom: hi steps down past each
    subdiagonal entry h_k+1,k that is zero or negligible, at most
    u (|h_kk| + |h_k+1,k+1|) by `_magnitude`, and lo down to the first
    such entry.  Each negligible entry met is set to exact zero; exact
    zeros (-0.0 too) are left alone.  An entry above lo is tested once its
    block is active: a sweep on [lo, hi] never writes H left of column lo,
    so it and its diagonals keep their values until then."""
    lo, d = hi, _magnitude(H.item(hi, hi))  # d = |h_lo,lo|
    while lo > 0:
        h, e = H.item(lo, lo - 1), _magnitude(H.item(lo - 1, lo - 1))
        if h == 0 or _magnitude(h) <= u * (e + d):
            if h != 0:
                H[lo, lo - 1] = 0.0
            if lo < hi:
                break
            hi -= 1
        lo, d = lo - 1, e
    return hi, lo


def _magnitude(z: complex) -> float:
    """abs(z), which has the bits of ``np.hypot`` (``np.abs`` on an array
    does not always), or inf past the double range, where abs raises."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition (read off the complex Schur form)

def hermitian_eig(A, ctx: PrecisionContext = _CTX64):
    """Eigendecomposition A = U diag(d) U* of a Hermitian matrix.

    The complex Schur form of a Hermitian matrix is its unitary
    diagonalization (Golub & Van Loan, sect. 7.1), so U is `schur`'s and d
    the real parts of T's diagonal.  A is rounded into the context's format
    on entry (FormatOverflowError for an entry past its range), so callers
    pass it unrounded.  When max|a|^2 of the entered matrix leaves the
    format's normal range, `schur` factors A 2^-e (`_scaled_down`, exact and
    uncharged), whose Wilkinson shifts then stay in range, and d is scaled
    back by 2^e and rounded into the format: an eigenvalue past its range
    becomes +-inf.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionError("hermitian_eig requires a square matrix")
    nrm = _frobenius(A)
    if _frobenius(A - A.conj().T) > 10 * ctx.format.unit_roundoff * max(nrm, 1e-300):
        raise NotHermitianError("input is not Hermitian to working accuracy")
    fmt = ctx.format
    A = _enter(A, ctx, "eig input")
    big = float(np.abs(A).max())
    A, e = (A, 0) if fmt.smallest_normal <= big * big <= fmt.max_finite / 4 else _scaled_down(A)
    F = schur(A, ctx)
    return F.U, np.array([_scaled_up(t, e, fmt).real for t in np.diag(F.T).tolist()])


# ---------------------------------------------------------------------------
# Kronecker utilities and conditioning diagnostics (binary64, LAPACK)

def kron_matrix(A, B, cap: int = DEFAULT_KRON_CAP) -> np.ndarray:
    A = as_matrix(A)
    B = as_matrix(B)
    rows = A.shape[0] * B.shape[0]
    cols = A.shape[1] * B.shape[1]
    if max(rows, cols) > cap:
        raise DimensionError(
            f"explicit Kronecker product of size {rows}x{cols} exceeds cap {cap}")
    return np.kron(A, B)


def sylvester_kron_operator(A, B, cap: int = DEFAULT_KRON_CAP) -> np.ndarray:
    """The mn x mn matrix I_n (x) A + B^T (x) I_m acting on vec(X)."""
    A = as_matrix(A)
    B = as_matrix(B)
    m = A.shape[0]
    n = B.shape[0]
    if A.shape[0] != A.shape[1] or B.shape[0] != B.shape[1]:
        raise DimensionError("coefficients must be square")
    if m * n > cap:
        raise DimensionError(f"mn = {m * n} exceeds Kronecker cap {cap}")
    return np.kron(np.eye(n), A) + np.kron(B.T, np.eye(m))


def _finite(M: np.ndarray) -> np.ndarray:
    """M, or NonFiniteInputError if it has a NaN or infinite entry."""
    if not np.isfinite(M).all():
        raise NonFiniteInputError("matrix has a NaN or infinite entry")
    return M


def _singular_values(M: np.ndarray) -> np.ndarray:
    """M's singular values, descending, from LAPACK's SVD (finite M only)."""
    return np.linalg.svd(_finite(M), compute_uv=False)


def cond_inf(M) -> float:
    """||M||_inf ||M^-1||_inf with LAPACK's inverse (``np.linalg.inv``) of
    a finite M; SingularMatrixError when its LU meets an exactly zero
    pivot."""
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionError("cond_inf requires a square matrix")
    try:
        inv = np.linalg.inv(_finite(M))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None
    return norm(M, "inf") * norm(inv, "inf")


def sep_f(A, B, cap: int = DEFAULT_KRON_CAP) -> float:
    """sep_F(A, -B), the smallest singular value of the Kronecker operator M
    (mn under the cap), from LAPACK's SVD: no iteration tolerance; zero up
    to an error of order u ||M||_2 when the spectra of A and -B intersect."""
    return float(_singular_values(sylvester_kron_operator(A, B, cap=cap))[-1])
