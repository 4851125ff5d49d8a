"""Dense complex linear algebra executable under a precision context.

All matrices are dense ``complex128`` ndarrays.  Every factorization and
product here can run under a :class:`~mpsylv.precision.PrecisionContext`,
in which case each scalar operation is rounded into the context's format;
under a binary64 context the kernels reduce to ordinary double arithmetic.

Explicit Kronecker forms (`sylvester_kron_operator`, `kron_matrix`) are
intended for oracles and diagnostics only and are capped in size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    FormatOverflowError,
    IterationLimitError,
    NotHermitianError,
    RankDeficiencyError,
    SingularMatrixError,
)
from .precision import (
    BINARY64,
    FpFormat,
    PrecisionContext,
    fl_add,
    fl_div,
    fl_mul,
    fl_sub,
    fl_sum,
    _binary32,
    _csqrt,
    _resident,
    _round_real_array,
    _round_real_scalar,
    _round_complex_array,
    _sabs,
    _sadd,
    _scaled_up,
    _sdiv,
    _shypot,
    _smul,
    _ssqrt,
    _ssub,
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

# the rows [X0, X1, X1, X0] that `_rotate_rows` multiplies by [c, s1, c, s2]
# outside binary64
_PAIR = np.array([0, 1, 1, 0])


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


def _gemm_steps(ab, A, B, C=None, *, ctx: PrecisionContext):
    """The steps of `gemm` for ab = [alpha, beta] and C (None when beta is
    0), as a 1-tuple: each block's products (`fl_mul`) summed on from the
    last block's sums (`fl_sum`), then the alpha and beta products and the
    sum with C."""
    alpha, beta = ab.tolist()
    m, k = A.shape
    n = B.shape[1]
    kb = max(1, _GEMM_BLOCK // (m * n))
    acc = None
    for p in range(0, k, kb):
        acc = fl_sum(fl_mul(A[:, p:p + kb].T[:, :, None], B[p:p + kb, None, :], ctx),
                     ctx, start=acc)
    if alpha != 1:
        acc = fl_mul(ab[0], acc, ctx)
    if C is not None:
        acc = fl_add(acc, C if beta == 1 else fl_mul(ab[1], C, ctx), ctx)
    return (acc,)


def _norm_two(M: np.ndarray, tol: float = 1e-10, max_iter: int = 1000) -> float:
    """Largest singular value by power iteration on M*M."""
    if not np.any(M):
        return 0.0
    n = M.shape[1]
    v = np.linspace(1.0, 2.0, n).astype(np.complex128)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = M.conj().T @ (M @ v)
        lam_new = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


def _frobenius(v) -> float:
    """Frobenius norm of an array in binary64: ``np.linalg.norm`` where that
    is finite, else (finite entries above ~1e154 overflow its unscaled
    squares) the norm of v scaled by its largest magnitude.  Finite exactly
    when every entry is finite and the norm is below the largest double."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(v))
    if math.isinf(nrm) and np.isfinite(v).all():
        s = float(np.abs(v).max())
        nrm = s * float(np.linalg.norm(v / s))
    return nrm


def norm(M, kind: str = "frobenius") -> float:
    """Matrix norm, always evaluated in binary64.

    ``kind`` is one of ``frobenius``, ``inf``, ``one``, ``two``.  The
    Frobenius norm scales past overflow (`_frobenius`); the two-norm runs
    a power iteration on M*M (tolerance 1e-10, at most 1000 iterations).
    """
    M = as_matrix(M)
    if kind == "frobenius":
        return _frobenius(M)
    if kind == "inf":
        return float(np.abs(M).sum(axis=1).max())
    if kind == "one":
        return float(np.abs(M).sum(axis=0).max())
    if kind == "two":
        return _norm_two(M)
    raise ValueError(f"unknown norm kind {kind!r}")


def _dot(x: np.ndarray, y: np.ndarray, ctx: PrecisionContext) -> complex:
    """conj(x).y accumulated in ascending index order under ctx, charging
    2 len(x) flops: numpy's ``vdot`` in binary64, else the products of
    `fl_mul` summed from +0 by `fl_sum`."""
    if ctx.format.is_binary64:
        ctx.count(2 * len(x))
        return complex(np.vdot(x, y))
    return complex(fl_sum(fl_mul(np.conj(x), y, ctx), ctx))


def _vec_norm2_ctx(x: np.ndarray, ctx: PrecisionContext) -> float:
    """Euclidean vector norm composed from rounded square/add/sqrt steps.

    Each |x_i| is formed from two rounded squares, a rounded add and a
    rounded sqrt in one vector pass; its square is added unrounded into a
    rounded ascending accumulation.  When the squares overflow although
    every entry is finite, the steps run again on the entries scaled by a
    power of two, which is exact, and the norm is scaled back.
    """
    ctx.count(2 * len(x) + 1)
    x = np.asarray(x)
    x = x if x.dtype == np.complex64 else x.astype(np.complex128, copy=False)
    if ctx.format.is_binary64:
        return _frobenius(x)
    fmt = ctx.format
    nrm = _norm2_steps(x, fmt)
    if nrm == math.inf and np.isfinite(x).all():
        scaled, e = _scaled_down(x)
        nrm = _scaled_up(_norm2_steps(scaled, fmt), e, fmt).real
    return nrm


def _scaled_down(x: np.ndarray):
    """(x * 2^-e, e), e the binary exponent of the largest real or imaginary
    part of the finite nonzero vector x: every scaled part is below 1 in
    magnitude, and the scaling is exact in binary64."""
    parts = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    _, e = math.frexp(float(np.abs(parts).max()))
    return (parts * math.ldexp(1.0, -e)).view(np.complex128), e


def _norm2_steps(x: np.ndarray, fmt: FpFormat) -> float:
    """The rounded steps of `_vec_norm2_ctx`; charges no flops.  |x_i| of a
    complex64 x (binary32 in `schur`) takes float32 steps, which round
    alike (`_givens_chain`)."""
    with np.errstate(invalid="ignore", over="ignore"):
        if x.dtype == np.complex64:
            mag = np.sqrt(np.square(x.real) + np.square(x.imag))
        else:
            r = _round_real_array
            sq = r(np.array([x.real * x.real, x.imag * x.imag]), fmt)
            s = r(sq[0] + sq[1], fmt)
            finite = np.isfinite(s)
            mag = np.where(finite, r(np.sqrt(np.where(finite, s, 0.0)), fmt), np.inf)
    acc = 0.0
    for a in mag.tolist():
        # a ** 2 (libm pow) is the defined square; for t > 26 it can
        # differ from a * a in the last bit
        b = a ** 2
        s = acc + b
        e = 0.0
        if math.isfinite(s):  # the 2Sum residual of `_sadd`
            bv = s - acc
            e = (acc - (s - bv)) + (b - bv)
        acc = _round_real_scalar(s, fmt, e)
    return _ssqrt(acc, fmt)


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

    Each coefficient is a `_dot`, and v loses fl(h_i q_i) (`fl_mul`,
    `fl_sub`); binary32 takes the steps in complex64 (`_resident`)."""
    h, v, nrm = _resident(_mgs_steps, ctx, Q, v)
    return h, v, float(nrm.real)


def _mgs_steps(Q: np.ndarray, v: np.ndarray, *, ctx: PrecisionContext):
    """The steps of `_mgs_project`, as (h, v, |v| as a 0-d array)."""
    h = np.zeros(Q.shape[1], dtype=Q.dtype)
    for i in range(Q.shape[1]):
        h[i] = _dot(Q[:, i], v, ctx)
        v = fl_sub(v, fl_mul(h[i], Q[:, i], ctx), ctx)
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
    `_reflector_chain` where it returns them, else `_reflector_scalars`."""
    fmt = ctx.format
    nx = _vec_norm2_ctx(x, ctx)
    if nx == 0.0:
        return None, 0.0, 0j
    ctx.count(3)
    x0 = complex(x[0])
    r = fmt._scalar_rounding
    w = x.copy()
    w[0], beta, head = (r and _reflector_chain(x0, nx, r)) or _reflector_scalars(x0, nx, fmt)
    return w, beta, head


def _reflector_scalars(x0: complex, nx: float, fmt: FpFormat):
    """w[0], beta and head from x0 = x[0] and nx = |x| by the `_s*` steps."""
    a0 = _sabs(x0, fmt)
    phase = _sdiv(x0, a0, fmt) if a0 != 0.0 else 1 + 0j
    pn = _smul(phase, nx, fmt)
    # w*w = 2 nx (nx + |x0|), real by construction
    ww = _smul(2.0, _smul(nx, _sadd(nx, a0, fmt), fmt), fmt).real
    return _sadd(x0, pn, fmt), _sdiv(2.0, ww, fmt).real, _smul(-1.0, pn, fmt)


def _reflector_chain(x0: complex, nx: float, r):
    """`_reflector_scalars` in binary32 or binary16 as in `_givens_chain`;
    None where x0 is not a value of the format, |x0|^2 is 0 or not finite
    (`_shypot` rescales there), nx is not finite or a step overflows."""
    xr, xi = x0.real, x0.imag
    try:
        vr, vi, xx, yy = r[4](xr, xi, xr * xr, xi * xi)
        (s,) = r[1](xx + yy)
        if not (vr == xr and vi == xi and 0.0 < s < math.inf and nx < math.inf):
            return None
        (a0,) = r[1](math.sqrt(s))
        # x0 / |x0| (|x0| > 0), and nx + |x0|
        pr, pi, q = r[3]((xr + xi * 0.0) / a0, (xi - xr * 0.0) / a0, nx + a0)
        # the products of (x0 / |x0|) * nx, and nx (nx + |x0|)
        rr, ir, p = r[3](pr * nx, pi * nx, nx * q)
        nr, ni = rr - pi * 0.0, pr * 0.0 + ir  # phase * nx
        wr, wi, ww = r[3](xr + nr, xi + ni, 2.0 * p)
        (beta,) = r[1](2.0 / ww)
    except (OverflowError, ZeroDivisionError):
        return None
    return complex(wr, wi), beta, complex(-nr - 0.0 * ni, -ni + 0.0 * nr)


def _apply_reflector_left_rounded(M: np.ndarray, w: np.ndarray, beta: float,
                                  ctx: PrecisionContext) -> None:
    """M <- (I - beta w w*) M in place, rows matching len(w): t = w* M
    summed from +0 (`fl_sum`), less the products of beta w and t.  A
    complex64 M and w (binary32 in a `_resident` kernel) take the steps on
    float32 planes; a NaN is left for the caller."""
    t = fl_sum(fl_mul(np.conj(w)[:, None], M, ctx), ctx)
    bw = fl_mul(w.dtype.type(beta), w, ctx)
    M[...] = fl_sub(M, fl_mul(bw[:, None], t[None, :], ctx), ctx)


def _apply_reflector_right_rounded(M: np.ndarray, w: np.ndarray, beta: float,
                                   ctx: PrecisionContext) -> None:
    """M <- M (I - beta w w*) in place, columns matching len(w), with the
    steps of `_apply_reflector_left_rounded` on the rows of M."""
    t = fl_sum(fl_mul(M.T, w[:, None], ctx), ctx)
    bw = fl_mul(w.dtype.type(beta), np.conj(w), ctx)
    M[...] = fl_sub(M, fl_mul(t[:, None], bw[None, :], ctx), ctx)


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
    """LU with partial pivoting; L unit lower and U packed together."""
    A = _enter(A, ctx, "lu input")
    m, n = A.shape
    if m != n:
        raise DimensionError("lu requires a square matrix")
    W = A.copy()
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(W[k:, k])))
        if W[p, k] == 0:
            raise SingularMatrixError(f"exactly zero pivot at step {k}")
        piv[k] = p
        if p != k:
            W[[k, p], :] = W[[p, k], :]
        W[k + 1:, k] = fl_div(W[k + 1:, k], W[k, k], ctx)
        if k + 1 < n:
            W[k + 1:, k + 1:] = fl_sub(
                W[k + 1:, k + 1:],
                fl_mul(W[k + 1:, k:k + 1], W[k:k + 1, k + 1:], ctx), ctx)
    return LuFactors(W, piv)


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
    read as lower triangular (forward) or upper triangular (backward)."""
    n = T.shape[0]
    X = B.copy()
    for i in range(n) if lower else range(n - 1, -1, -1):
        rest = slice(i + 1, n) if lower else slice(0, i)
        if not unit:
            diag = np.conj(T[i, i]) if conj else T[i, i]
            if diag == 0:
                raise SingularMatrixError("zero diagonal in triangular solve")
            X[i, :] = fl_div(X[i, :], diag, ctx)
        col = np.conj(T[i, rest]) if conj else T[rest, i]
        if col.size:
            X[rest, :] = fl_sub(X[rest, :], fl_mul(col[:, None], X[i:i + 1, :], ctx), ctx)
    return X


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
        return Y.conj().T
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

def _hessenberg(UH: np.ndarray, ctx: PrecisionContext) -> bool:
    """Householder reduction of H to Hessenberg form in the stacked [U; H],
    U = I on entry, in place.  False if a complex64 UH meets a w that is not
    binary32 (a rescaled x, `_make_reflector`) or ends holding a NaN."""
    m = UH.shape[1]
    H = UH[m:]
    for k in range(m - 2):
        x = H[k + 1:, k]
        if not np.any(x[1:]):
            continue
        w, beta, head = _make_reflector(x, ctx)
        if w is False:
            return False
        if w is None:
            continue
        _apply_reflector_left_rounded(H[k + 1:, k:], w, beta, ctx)
        H[k + 1:, k] = 0.0
        H[k + 1, k] = head
        # the columns of U and of H in one update, charged as two
        _apply_reflector_right_rounded(UH[:, k + 1:], w, beta, ctx)
        ctx.count(len(w))
    if m > 2:
        H[np.tril_indices(m, -2)] = 0.0
    return not (UH.dtype == np.complex64 and np.isnan(UH).any())


def _givens(f: complex, g: complex, fmt: FpFormat):
    """Unitary [[c, s], [-conj(s), c]]* zeroing g against f; c real.

    binary32 and binary16 take `_givens_chain` on values of the format, and
    `_givens_steps` wherever it returns None; other formats take
    `_givens_steps`.  The results are those of `_givens_steps`, bit for bit.
    """
    r = fmt._scalar_rounding
    if r is not None:
        out = _givens_chain(f, g, r)
        if out is not None:
            return out
    return _givens_steps(f, g, fmt)


def _givens_steps(f: complex, g: complex, fmt: FpFormat):
    """`_givens` composed from the rounded scalar steps `_sabs`, `_smul`,
    `_sadd`, `_ssqrt` and `_sdiv`, in any format but binary64, which takes
    `_givens_binary64`.  When the sum of squares is 0 or inf, d comes from
    `_shypot`, which rescales."""
    if g == 0:
        return 1.0, 0j
    if fmt.is_binary64:
        return _givens_binary64(f, g)
    ag = _sabs(g, fmt)
    if f == 0:
        return 0.0, _sdiv(g.conjugate(), ag, fmt)
    af = _sabs(f, fmt)
    d2 = _sadd(_smul(af, af, fmt), _smul(ag, ag, fmt), fmt).real
    if d2 == 0.0 or d2 == math.inf:  # the squares left the format's range
        d = _shypot(af, ag, fmt)
    else:
        d = _ssqrt(d2, fmt)
    c = _sdiv(af, d, fmt).real
    s = _sdiv(_smul(_sdiv(f, af, fmt), g.conjugate(), fmt), d, fmt)
    return c, s


def _givens_binary64(f: complex, g: complex):
    """`_givens_steps` in binary64 for g != 0, by the float and complex
    operations its steps reduce to (``math.hypot`` past the squares' range)."""
    ag = abs(g)
    if f == 0:
        return 0.0, g.conjugate() / ag
    af = abs(f)
    d2 = af * af + ag * ag
    d = math.hypot(af, ag) if d2 == 0.0 or d2 == math.inf else math.sqrt(d2)
    return af / d, f / af * g.conjugate() / d


# The scalar chains below run `_givens_steps` and `_shift_steps` on Python
# floats for values f, g (or a, b, c, d) of binary32 or binary16.  Each step
# is one double operation on values of the format, rounded by the format's
# ``struct`` cast (r = `FpFormat._scalar_rounding`, which rounds the
# independent steps of one stage in one cast).  The double result of +, -,
# *, / or sqrt on such values, rounded into the format, is the correctly
# rounded result because 53 >= 2t + 2 (Figueroa, SIGNUM 1995), which is what
# the `_s*` steps compute with their 2Sum residuals.  The steps keep the
# zero cross terms of the `_s*` composition, such as Im(f) * 0 in f / |f|,
# since the signs of zeros depend on them; a step that adds or subtracts a
# zero to a value of the format is exact and is not rounded.  Where the
# reference branches on a zero or an infinity, or a step overflows, the
# chains return None and the caller runs the reference.


def _givens_chain(f: complex, g: complex, r):
    """`_givens_steps` for binary32 or binary16 values f and g, or None
    where a sum of squares is 0 or not finite (`_shypot` rescales there),
    a step overflows or s is not finite."""
    fr, fi, gr, gi = f.real, f.imag, g.real, g.imag
    try:
        ff, fj, gg, gj = r[4](fr * fr, fi * fi, gr * gr, gi * gi)
        sf, sg = r[2](ff + fj, gg + gj)
        if not (0.0 < sf < math.inf and 0.0 < sg < math.inf):
            return None
        af, ag = r[2](math.sqrt(sf), math.sqrt(sg))
        # the real parts of af * af and ag * ag, and f / af
        pf, pg, qr, qi = r[4](af * af, ag * ag, (fr + fi * 0.0) / af, (fi - fr * 0.0) / af)
        # d^2, and the products of (f / af) * conj(g)
        d2, rr, ii, ri, ir = r[5](pf + pg, qr * gr, qi * -gi, qr * -gi, qi * gr)
        if not 0.0 < d2 < math.inf:
            return None
        d, pr, pi = r[3](math.sqrt(d2), rr - ii, ri + ir)
        # af / d (af > 0), and ((f / af) * conj(g)) / d
        c, sr, si = r[3](af / d, (pr + pi * 0.0) / d, (pi - pr * 0.0) / d)
    except OverflowError:
        return None
    if not (math.isfinite(sr) and math.isfinite(si)):
        return None
    return c, complex(sr, si)


def _rotate_rows(X: np.ndarray, c: float, s1: complex, s2: complex,
                 ctx: PrecisionContext) -> None:
    """X <- (c X0 + s1 X1, c X1 - s2 X0) in place, X a (2, n) view, with
    the flops of four products and two sums per column: in binary64 the
    complex128 products and sums of `fl_mul` and `fl_add`; for a complex64
    X, which `schur` and `hermitian_eig` keep in binary32, `_plane_rotation`
    (a NaN is left for the caller to find); else `fl_mul` and `fl_add`.
    Call under ``np.errstate(over="ignore", invalid="ignore")``."""
    if ctx.format.is_binary64:
        B = np.array([s1, s2])[:, None] * X[::-1]
        np.negative(B[1], out=B[1])
        X *= c
        X += B
    elif X.dtype == np.complex64:
        X[...] = _plane_rotation(X[_PAIR], c, s1, s2)
    else:
        prods = fl_mul(np.array([c, s1, c, s2], dtype=np.complex128)[:, None], X[_PAIR], ctx)
        X[...] = fl_add(prods[0::2], np.array([prods[1], -prods[3]]), ctx)
        return
    ctx.count(6 * X.shape[1])


def _plane_rotation(G: np.ndarray, c: float, s1: complex, s2: complex) -> np.ndarray:
    """[c G0 + s1 G1, c G2 - s2 G3] for the complex64 rows G, as complex64,
    with the steps of `_rotate_rows` on binary32 values: the plane products
    of `precision._plane_product`, the negation of the fourth and the
    pairwise sums.

    The planes are read from G's interleaved (re, im) pairs P: the products
    are P * [kr, kr] + swap(P) * [-ki, ki] for each coefficient k, which
    are kr*gr - ki*gi and kr*gi + ki*gr exactly (x + (-y) is x - y in IEEE
    arithmetic), signed zeros included.
    """
    k = np.array([c, c, -0.0, 0.0, s1.real, s1.real, -s1.imag, s1.imag,
                  c, c, -0.0, 0.0, s2.real, s2.real, -s2.imag, s2.imag],
                 dtype=np.float32).reshape(4, 1, 4)
    P = G.view(np.float32).reshape(4, -1, 2)
    prods = P * k[..., :2] + P[..., ::-1] * k[..., 2:]
    np.negative(prods[3], out=prods[3])
    return (prods[0::2] + prods[1::2]).view(np.complex64)[..., 0]


def _wilkinson_shift(H: np.ndarray, hi: int, fmt: FpFormat) -> complex:
    """The eigenvalue of the trailing 2x2 block [[a, b], [c, d]] of
    H[:hi + 1, :hi + 1] closest to d; binary32 and binary16 take
    `_shift_chain` on values of the format, as `_givens` takes
    `_givens_chain`, and `_shift_steps` wherever it returns None."""
    a, b, c, d = H[hi - 1:hi + 1, hi - 1:hi + 1].ravel().tolist()
    r = fmt._scalar_rounding
    if r is not None:
        shift = _shift_chain(a, b, c, d, r)
        if shift is not None:
            return shift
    return _shift_steps(a, b, c, d, fmt)


def _shift_chain(a: complex, b: complex, c: complex, d: complex, r):
    """`_shift_steps` for binary32 or binary16 values, or None where the
    reference branches on a zero (z, the square root or the denominator)
    or on the unscaled magnitude |z| overflowing, a step overflows or
    fails, or the shift is not finite."""
    ar, ai, br, bi, cr, ci, dr, di = a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    try:
        # a - d, and the products of b * c
        xr, xi, p1, p2, p3, p4 = r[6](ar - dr, ai - di, br * cr, bi * ci, br * ci, bi * cr)
        hr, hi, bcr, bci = r[4](0.5 * xr, 0.5 * xi, p1 - p2, p3 + p4)
        er, ei = hr - 0.0 * xi, hi + 0.0 * xr  # delta = 0.5 * (a - d)
        q1, q2, q3, q4 = r[4](er * er, ei * ei, er * ei, ei * er)
        ddr, ddi = r[2](q1 - q2, q3 + q4)
        zr, zi = r[2](ddr + bcr, ddi + bci)  # delta^2 + b c
        # _csqrt(z), its magnitude unscaled
        if zr == 0.0 and zi == 0.0:
            return None
        s1, s2 = r[2](zr * zr, zi * zi)
        (s,) = r[1](s1 + s2)
        if not s < math.inf:
            return None
        (mag,) = r[1](math.sqrt(s))
        (h,) = r[1](mag + zr if zr >= 0.0 else mag - zr)
        (h,) = r[1](h / 2.0)
        (root,) = r[1](math.sqrt(h))
        if zr < 0.0:
            root = math.copysign(root, zi if zi != 0.0 else 1.0)
        if root == 0.0:
            return None
        (twice,) = r[1](2.0 * root)
        (other,) = r[1](zi / twice)
        ur, ui = (root, other) if zr >= 0.0 else (other, root)
        if er * ur + ei * ui < 0:  # align the root with delta
            ur, ui = -ur, -ui
        nr, ni = r[2](er + ur, ei + ui)
        if nr == 0.0 and ni == 0.0:
            return None
        # b c / (delta + root) by Smith's method, then d minus it
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
        sr, si = r[2](dr - qr, di - qi)
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    if not (math.isfinite(sr) and math.isfinite(si)):
        return None
    return complex(sr, si)


def _shifted(h: complex, shift: complex, fmt: FpFormat) -> complex:
    """h - shift for values h and shift of fmt, as `_ssub` rounds it;
    binary32 and binary16 round the two parts by one struct cast unless a
    part overflows or is NaN."""
    r = fmt._scalar_rounding
    if r is not None:
        try:
            re, im = r[2](h.real - shift.real, h.imag - shift.imag)
        except OverflowError:
            return _ssub(h, shift, fmt)
        if re == re and im == im:
            return complex(re, im)
    return _ssub(h, shift, fmt)


def _shift_steps(a: complex, b: complex, c: complex, d: complex, fmt: FpFormat) -> complex:
    """`_wilkinson_shift` composed from the rounded scalar steps, in any
    format."""
    delta = _smul(0.5, _ssub(a, d, fmt), fmt)
    disc = _csqrt(_sadd(_smul(delta, delta, fmt), _smul(b, c, fmt), fmt), fmt)
    # pick the root of the 2x2 closest to d: align disc with delta
    if (delta.real * disc.real + delta.imag * disc.imag) < 0:
        disc = -disc
    denom = _sadd(delta, disc, fmt)
    if denom == 0:
        return d
    return _ssub(d, _sdiv(_smul(b, c, fmt), denom, fmt), fmt)


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
    """
    A = _enter(A, ctx, "schur input")
    m = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DimensionError("schur requires a square matrix")
    # U above H in one array: a reflector or a Givens step updates the rows
    # of H through one view and the columns of U and H through others
    UH = np.concatenate([np.eye(m, dtype=np.complex128), A])
    with np.errstate(over="ignore", invalid="ignore"):
        (UH,) = _resident(lambda X, ctx: _hessenberg(X, ctx) and _qr_iteration(X, ctx)
                          and (X,), ctx, UH)
    return SchurFactors(UH[:m].copy(), np.triu(UH[m:]))


def _qr_iteration(UH: np.ndarray, ctx: PrecisionContext) -> bool:
    """The QR iteration of `schur` on the stacked [U; H], in place; False
    as soon as a sweep leaves a NaN in a complex64 UH, else True.

    The deflation test and the exceptional shift read H in complex128:
    ``np.hypot`` and ``abs`` of complex64 entries return float32.
    """
    m = UH.shape[1]
    H = UH[m:]
    fmt = ctx.format
    resident = UH.dtype == np.complex64
    u = fmt.unit_roundoff
    limit = 30 * m
    sweeps = 0
    stuck = 0
    hi = m - 1
    while hi > 0:
        # deflate every negligible subdiagonal in one pass, leaving exact
        # zeros (-0.0 too) alone; np.hypot has the bits of abs() of a
        # complex scalar, which np.abs on an array does not always have
        d = np.asarray(np.diagonal(H)[:hi + 1], dtype=np.complex128)
        sub = np.asarray(np.diagonal(H, -1)[:hi], dtype=np.complex128)
        ad = np.hypot(d.real, d.imag)
        j = 1 + np.flatnonzero(
            (sub != 0) & (np.hypot(sub.real, sub.imag) <= u * (ad[:-1] + ad[1:])))
        H[j, j - 1] = 0.0
        if H[hi, hi - 1] == 0:
            hi -= 1
            stuck = 0
            continue
        lo = hi
        while lo > 0 and H[lo, lo - 1] != 0:
            lo -= 1
        if sweeps >= limit:
            raise IterationLimitError(
                f"QR iteration did not converge within {limit} sweeps")
        if stuck > 0 and stuck % 10 == 0:
            # exceptional shift to break a stalled cycle (a binary64 value)
            shift = complex(abs(complex(H[hi, hi - 1])) + 0.75 * abs(complex(H[hi, hi])))
            x = _ssub(complex(H[lo, lo]), shift, fmt)
        else:
            x = _shifted(complex(H[lo, lo]), _wilkinson_shift(H, hi, fmt), fmt)
        y = complex(H[lo + 1, lo])
        for k in range(lo, hi):
            c, s = _givens(x, y, fmt)
            _rotate_rows(H[k:k + 2, max(lo, k - 1):], c, s, s.conjugate(), ctx)
            _rotate_rows(UH[:m + min(k + 3, hi + 1), k:k + 2].T, c, s.conjugate(), s, ctx)
            if k > lo:
                H[k + 1, k - 1] = 0.0
            if k < hi - 1:
                x = complex(H[k + 1, k])
                y = complex(H[k + 2, k])
        sweeps += 1
        stuck += 1
        if resident and np.isnan(UH).any():
            return False
    return True


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition (cyclic complex Jacobi)

def hermitian_eig(A, ctx: PrecisionContext = _CTX64, max_sweeps: int = 30):
    """Eigendecomposition A = U diag(d) U* of a Hermitian matrix.

    Cyclic Jacobi sweeps; converges when the off-diagonal Frobenius mass
    falls below n*u*||A||_F.  A is rounded into the context's format on
    entry (FormatOverflowError for an entry past its range), so callers
    pass it unrounded.  In binary32 the sweeps keep V and W in complex64
    (`_resident`).
    """
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DimensionError("hermitian_eig requires a square matrix")
    nrm = _frobenius(A)
    if _frobenius(A - A.conj().T) > 10 * ctx.format.unit_roundoff * max(nrm, 1e-300):
        raise NotHermitianError("input is not Hermitian to working accuracy")
    # V above W in one array, as U above H in `schur`
    VW = np.concatenate([np.eye(n, dtype=np.complex128), _enter(A, ctx, "eig input")])
    tol = n * ctx.format.unit_roundoff * max(nrm, 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        (VW,) = _resident(lambda X, ctx: _jacobi_sweeps(X, ctx, tol, max_sweeps) and (X,),
                          ctx, VW)
    return VW[:n].copy(), np.real(np.diag(VW[n:])).copy()


def _jacobi_sweeps(VW: np.ndarray, ctx: PrecisionContext, tol: float,
                   max_sweeps: int) -> bool:
    """The Jacobi sweeps of `hermitian_eig` on the stacked [V; W], in
    place; False as soon as a sweep leaves a NaN in a complex64 VW, else
    True.  The stop test reads W in complex128."""
    n = VW.shape[1]
    W = VW[n:]
    fmt = ctx.format
    resident = VW.dtype == np.complex64
    for _ in range(max_sweeps):
        W64 = np.asarray(W, dtype=np.complex128)
        if _frobenius(W64 - np.diag(np.diag(W64))) <= tol:
            return True
        for p in range(n - 1):
            for q in range(p + 1, n):
                w = complex(W[p, q])
                aw = abs(w)
                if aw == 0.0 or aw <= 1e-3 * tol / n:
                    continue
                a = complex(W[p, p]).real
                b = complex(W[q, q]).real
                awr = _sabs(w, fmt)
                phase = _sdiv(w, awr, fmt)
                tau = _sdiv(_ssub(a, b, fmt), _smul(2.0, awr, fmt), fmt).real
                root = _ssqrt(_sadd(1.0, _smul(tau, tau, fmt), fmt).real, fmt)
                if tau >= 0:
                    t = _sdiv(1.0, _sadd(tau, root, fmt), fmt).real
                else:
                    t = _sdiv(-1.0, _ssub(root, tau, fmt), fmt).real
                c = _sdiv(1.0, _ssqrt(_sadd(1.0, _smul(t, t, fmt), fmt).real, fmt), fmt).real
                s = _smul(_smul(t, c, fmt), phase, fmt)
                # rows p and q of W, then columns p and q of V and W
                _rotate_rows(W[p:q + 1:q - p], c, s, s.conjugate(), ctx)
                _rotate_rows(VW[:, p:q + 1:q - p].T, c, s.conjugate(), s, ctx)
        if resident and np.isnan(VW).any():
            return False
    raise IterationLimitError(f"Jacobi did not converge in {max_sweeps} sweeps")


# ---------------------------------------------------------------------------
# Kronecker utilities and conditioning diagnostics (binary64 only)

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


def cond_inf(M) -> float:
    """Infinity-norm condition number via an explicit LU-based inverse."""
    M = as_matrix(M)
    F = lu(M)
    inv = lu_solve(F, np.eye(M.shape[0], dtype=np.complex128))
    return norm(M, "inf") * norm(inv, "inf")


def sep_f(A, B, cap: int = DEFAULT_KRON_CAP, tol: float = 1e-8,
          max_iter: int = 2000) -> float:
    """Smallest singular value of the Sylvester operator for (A, B).

    Zero iff the spectra of A and -B intersect (within the iteration
    tolerance).  Computed by inverse power iteration on M*M where M is the
    explicit Kronecker operator, so the product mn must sit under the cap.
    """
    M = sylvester_kron_operator(A, B, cap=cap)
    try:
        F = lu(M)
    except SingularMatrixError:
        return 0.0
    s = M.shape[0]
    v = np.linspace(1.0, 2.0, s).astype(np.complex128)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = lu_solve(F, v[:, None], transpose="conj")
        w = lu_solve(F, w)
        w = w.ravel()
        lam_new = float(np.linalg.norm(w))
        if lam_new == 0.0 or not np.isfinite(lam_new):
            return 0.0
        v = w / lam_new
        if abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return float(1.0 / np.sqrt(lam))
