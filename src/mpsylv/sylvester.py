"""Direct solvers for A X + X B = C.

The triangular recurrence solves the transformed equation one
anti-diagonal wave of entries at a time, in the operation order of
column-by-column substitution.  What depends on the triangular pair only
is done once per prepared pair, which GMRES-IR keeps for a correction
and the stationary refinement for a call; each solve enters binary32
once (`precision._resident`), which lets binary32 run every wave in
complex64 as binary64 does in complex128.

Every Schur-based solver in the package has the Bartels-Stewart shape,
written once here: a Schur pair of the coefficients (`_schur_pair`),
then a transform, a triangular solve and a back-transform
(`_schur_solve`, which GMRES-IR applies as its preconditioner).
`bartels_stewart` runs both in one precision; `solve_hermitian`
replaces the Schur step with an eigendecomposition when both
coefficients are Hermitian.  Inside a `_shared_schur_pairs` scope, which
the CLI opens for each problem, the solvers run on one problem share its
Schur pair in each format.

The quality measure used throughout the package is the relative residual

    ||A X + X B - C||_F / (||C||_F + ||X||_F (||A||_F + ||B||_F)),

always evaluated in binary64 no matter which precisions the solver used.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, NonFiniteInputError, NumericBreakdownError,
                     SingularEquationError)
from .linalg import SchurFactors, _frobenius, as_matrix, gemm, hermitian_eig, schur, sep_f
from .precision import (
    BINARY64,
    FlopCounter,
    PrecisionContext,
    fl_add,
    fl_div,
    _accumulate,
    _add,
    _product,
    _resident,
    _round_complex_array,
    _smith_denominator,
    _smith_numerator,
    _smith_planes,
)

__all__ = [
    "SylvesterProblem",
    "DirectSolveReport",
    "solve_sylv_tri",
    "bartels_stewart",
    "solve_hermitian",
    "residual",
    "solution_norm_bound",
]

_CTX64 = PrecisionContext(BINARY64)


@dataclass(frozen=True)
class SylvesterProblem:
    """A X + X B = C with a caller-declared structure kind.

    ``kind`` is one of ``general``, ``lyapunov`` (B = A*) or ``hermitian``
    (A = A*, B = B*).  The kind is declared, never inferred, so structural
    fast paths are only taken deliberately.  A NaN or infinite entry raises
    NonFiniteInputError.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        for name in "ABC":
            M = as_matrix(getattr(self, name))
            if not np.isfinite(M).all():
                raise NonFiniteInputError(f"{name} has a NaN or infinite entry")
            object.__setattr__(self, name, M)
        A, B, C = self.A, self.B, self.C
        m, n = C.shape
        if A.shape != (m, m) or B.shape != (n, n):
            raise DimensionError(
                f"incompatible shapes A{A.shape} B{B.shape} C{C.shape}")
        if self.kind not in ("general", "lyapunov", "hermitian"):
            raise ValueError(f"unknown kind {self.kind!r}")

        def adjoint(X, Y):  # X = Y* to 10 u ||Y||_F
            return _frobenius(X - Y.conj().T) <= 10 * BINARY64.unit_roundoff * max(
                _frobenius(Y), 1e-300)

        if self.kind == "lyapunov" and not (m == n and adjoint(B, A)):
            raise ValueError("kind='lyapunov' requires B = A*")
        if self.kind == "hermitian" and not (adjoint(A, A) and adjoint(B, B)):
            raise ValueError("kind='hermitian' requires Hermitian A and B")

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def n(self) -> int:
        return self.C.shape[1]


@dataclass(frozen=True)
class DirectSolveReport:
    residual: float
    schur_A: SchurFactors | None = None
    schur_B: SchurFactors | None = None


def _triangular_form(T: np.ndarray) -> str:
    n = T.shape[0]
    if n == 1:
        return "upper"
    if not np.tril(T, -1).any():
        return "upper"
    if not np.triu(T, 1).any():
        return "lower"
    raise DimensionError("coefficient is not triangular")


@functools.lru_cache(maxsize=8)  # a plan holds about 2 m n (m + n) indices
def _wave_plan(m: int, n: int, lower: bool):
    """Gather indices of the anti-diagonal wavefront of an m x n solve.

    Columns are taken in ascending order (descending when T_B is lower
    triangular); q is a column's position in that order.  Entry (i, k)
    depends only on Y[i, columns before k] and Y[rows below i, k], so all
    entries with (m-1-i) + q == w form wave w, and each has a chain of
    exactly w subtractions in the order of a column-by-column solve: the
    q updates y[i, c] T_B[c, k] in column order, then T_A[i, r] y[r, k]
    for r = m-1 down to i+1.

    Y is stored in wave order, wave w in ascending q, so that each wave
    fills one slice.  Returns (cols, order, first, waves): order[p] is the
    row-major index i * n + k of the entry at wave-order position p,
    first[p] the start of its wave, and wave w is (start, stop, factors):
    the slice it fills and the indices of the left and right factors of its
    w chain steps, in turn, in the buffer [Y in wave order | T_A | T_B]
    (T_A and T_B row-major), of shape (2, w (stop - start)).
    """
    cols = np.arange(n)[::-1] if lower else np.arange(n)
    off_a, off_b = m * n, m * n + m * m
    order = np.empty(m * n, dtype=np.intp)
    waves = []
    start = 0
    for w in range(m + n - 1):
        q = np.arange(max(0, w - m + 1), min(n, w + 1))
        i, k = m - 1 - (w - q), cols[q]
        s = np.arange(w)[:, None]
        c = cols[np.minimum(s, n - 1)]
        r = m - 1 - (s - q)
        in_b = s < q
        left = np.where(in_b, i * n + c, off_a + i * m + r)
        right = np.where(in_b, off_b + c * n + k, r * n + k)
        order[start:start + len(q)] = i * n + k
        waves.append((start, start + len(q), left, right))
        start += len(q)
    # row-major indices of Y entries to wave-order positions, replaced
    # one wave at a time so that the plan is held only once
    remap = np.concatenate([np.argsort(order), np.arange(off_a, off_b + n * n)])
    first = np.empty(m * n, dtype=np.intp)
    for w, (a, b, left, right) in enumerate(waves):
        waves[w] = (a, b, remap[np.stack([left, right]).reshape(2, -1)])
        first[a:b] = a
    return cols, order, first, waves


def solve_sylv_tri(T_A, T_B, C, ctx: PrecisionContext = _CTX64) -> np.ndarray:
    """Solve T_A Y + Y T_B = C with T_A upper triangular.

    T_B may be upper triangular (columns are solved in ascending order) or
    lower triangular (descending order, which serves the adjoint factor of
    the Lyapunov paths).  Each column is obtained by back substitution on
    the shifted coefficient T_A + T_B[j, j] I.  The entries are computed
    an anti-diagonal wave at a time (see `_wave_plan`): one rounded
    product, one rounded sum and one division per wave, in the operation
    order of the column-by-column recurrence, so results and flop counts
    are those of that recurrence.

    It is `_prepare_sylv_tri`, then one solve of C: a `precision._resident`
    kernel that runs the waves, then checks the shifted diagonals and Y
    and charges the flops, so a breakdown found in complex64 raises from
    there, once.  No NaN leaves the solve.

    Raises SingularEquationError when a shifted diagonal entry is exactly
    zero, and NumericBreakdownError when a NaN or infinity appears in the
    recurrence, at the first column (in solve order) where the
    column-by-column recurrence would have raised, having charged the
    flops it would have charged by then.
    """
    return _prepare_sylv_tri(T_A, T_B, ctx)(C)


def _prepare_sylv_tri(T_A, T_B, ctx: PrecisionContext = _CTX64):
    """`solve_sylv_tri` with T_A, T_B and ctx fixed: returns solve(C).

    Once per pair: the checks, the wave plan and, per dtype of C, the
    working buffer [Y | T_A | T_B]; once per dtype the waves run in (as
    `_resident` chooses): D, the shifted diagonals, their zeros, the Smith
    denominators and each wave's views of one scratch buffer.  A solve
    writes Y and the scratch before it reads them, so pairs may be solved
    in any interleaving.  A wave is one gather, one `_product`, then where no
    step rounds (binary64, complex64) one ``np.subtract.accumulate`` and
    Smith's numerator on the planes of its last row (`_smith_planes`),
    else `_accumulate` and `_smith_numerator`.
    """
    T_A = as_matrix(T_A, ctx)
    T_B = as_matrix(T_B, ctx)
    if _triangular_form(T_A) != "upper":
        raise DimensionError("T_A must be upper triangular")
    b_form = _triangular_form(T_B)
    m, n = T_A.shape[0], T_B.shape[0]
    if T_A.shape != (m, m) or T_B.shape != (n, n):
        raise DimensionError("inconsistent dimensions")
    fmt = ctx.format
    cols, order, first, waves = _wave_plan(m, n, b_form == "lower")
    off_b = m * n + m * m
    prepared, working = {}, {}

    def prepare(buf):
        # the shifted diagonals T_A[i, i] + T_B[k, k], row-major
        D = _add(buf[m * n:off_b:m + 1, None], buf[off_b::n + 1], fmt)
        den = list(_smith_denominator(D.ravel()[order], fmt))
        den[0] -= 2 * first[:, None]  # plane indices within each wave
        # each wave's X = [c; products] is a view of one buffer for the largest
        xs = np.empty(max((w + 1) * (b - a) for w, (a, b, _) in enumerate(waves)), buf.dtype)
        ops = []
        for w, (a, b, lr) in enumerate(waves):
            k = b - a
            ops.append((a, b, lr, [x[a:b] for x in den], xs[:(w + 1) * k].reshape(w + 1, k),
                        xs[:k], xs[k:(w + 1) * k]))
        singular = D == 0
        exact = fmt.is_binary64 or buf.dtype == np.complex64  # no step rounds
        prepared[buf.dtype] = plan = (singular, singular.any(axis=0)[cols], exact, ops)
        return plan

    def steps(buf, c, ctx):
        singular, failing, exact, ops = prepared.get(buf.dtype) or prepare(buf)
        for start, stop, lr, den, X, x0, prods in ops:
            x0[...] = c[start:stop]
            P = buf[lr]  # a fancy-index gather beats a take into a kept buffer
            _product(P[0], P[1], fmt, out=prods)
            if exact:  # x - p is x + (-p) exactly: the sums of fl_sum(-products, start=c)
                _smith_planes(np.subtract.accumulate(X, axis=0, out=X)[-1], den, buf[start:stop])
            else:
                buf[start:stop] = _smith_numerator(_accumulate(-X[1:], x0, fmt), den, fmt)
        Y = np.empty(m * n, dtype=buf.dtype)
        Y[order] = buf[:m * n]
        Y = Y.reshape(m, n)
        # D and the finite entries of Y are alike in complex64 and complex128
        failed = failing | ~np.isfinite(Y).all(axis=0)[cols]
        if not failed.any():
            ctx.count(m * n * (m + n))
            return (Y,)
        # flops of the p columns solved before the failing one
        p = int(np.argmax(failed))
        j = int(cols[p])
        done = p * m * (m + 1) + m * p * (2 * n - p - 1)
        if singular[:, j].any():
            i = int(np.flatnonzero(singular[:, j])[-1])
            # rows m-1 .. i+1 charged 2 + 2r each, row i its shifted diagonal
            ctx.count(done + 2 * (m - 1 - i) + m * (m - 1) - i * (i + 1) + 2)
            raise SingularEquationError(i, j)
        ctx.count(done + m * (m + 1))
        raise NumericBreakdownError(f"non-finite values while solving column {j}")

    def solve(C) -> np.ndarray:
        C = as_matrix(C, ctx)
        if C.shape != (m, n):
            raise DimensionError("inconsistent dimensions")
        if C.dtype not in working:
            working[C.dtype] = np.concatenate([np.zeros(m * n, C.dtype), T_A.ravel(), T_B.ravel()])
        return _resident(steps, ctx, working[C.dtype], C.ravel()[order])[0]

    return solve


def _sandwich(L, M, R, ctx: PrecisionContext) -> np.ndarray:
    """fl((L M) R): two rounded products under ctx."""
    return gemm(1.0, gemm(1.0, L, M, 0.0, None, ctx), R, 0.0, None, ctx)


# (problem id, format) -> (problem, Schur pair, charges) inside a
# `_shared_schur_pairs` scope; None outside one
_SHARED_PAIRS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "shared_schur_pairs", default=None)


@contextlib.contextmanager
def _shared_schur_pairs():
    """A scope in which `_schur_pair` factors each (problem, format) once.

    The CLI opens one per problem, so that the solvers it runs on the
    problem share the low-precision pair.  On leaving it, even by an
    exception, no factors are kept and sharing is off again.
    """
    token = _SHARED_PAIRS.set({})
    try:
        yield
    finally:
        _SHARED_PAIRS.reset(token)


def _factor_pair(p: SylvesterProblem, ctx: PrecisionContext):
    """`schur` of A, then of B, or of the stack [A; B] when the shapes
    agree, which factors both in lockstep with the same result."""
    if p.kind == "lyapunov":
        sf_A = schur(p.A, ctx)
        return sf_A, SchurFactors(sf_A.U, sf_A.T.conj().T)
    if p.A.shape != p.B.shape:
        return schur(p.A, ctx), schur(p.B, ctx)
    sf = schur(np.stack([p.A, p.B]), ctx)
    return SchurFactors(sf.U[0], sf.T[0]), SchurFactors(sf.U[1], sf.T[1])


def _schur_pair(p: SylvesterProblem, ctx: PrecisionContext):
    """Schur factors of A and B under ctx (B's are A's adjoint for a Lyapunov
    equation).  `schur` rounds the coefficients on entry and raises
    FormatOverflowError past the format's range, so they go in unrounded.

    Inside a `_shared_schur_pairs` scope the pair of each (problem object,
    format) is factored once, with its U and T made read-only; every later
    call returns the same factors and charges ctx the flops the first call
    charged, so each caller's counter reads as if it had factored alone.
    A factorization that raises is kept too: every later call charges the
    flops it charged and raises the same exception again.
    """
    shared = _SHARED_PAIRS.get()
    if shared is None:
        return _factor_pair(p, ctx)
    key = (id(p), ctx.format)
    hit = shared.get(key)
    if hit is None:
        tally = PrecisionContext(ctx.format, FlopCounter())
        try:
            pair = _factor_pair(p, tally)
            for sf in pair:
                sf.U.flags.writeable = sf.T.flags.writeable = False
        except Exception as exc:
            pair = exc
        # a bucket is made only by a charge, as `schur` makes it; p is held
        # so that its id is not reused while the scope lasts
        hit = shared[key] = (p, pair, tuple(tally.counter.counts.values()))
    for n in hit[2]:
        ctx.count(n)
    if isinstance(hit[1], Exception):
        raise hit[1].with_traceback(None)
    return hit[1]


def _schur_solve(W, sf_A: SchurFactors, sf_B: SchurFactors,
                 ctx: PrecisionContext) -> np.ndarray:
    """Apply the inverse Sylvester operator of the Schur factors to W:
    transform, solve the triangular equation, transform back, all under ctx."""
    V = solve_sylv_tri(sf_A.T, sf_B.T, _sandwich(sf_A.U.conj().T, W, sf_B.U, ctx), ctx)
    return _sandwich(sf_A.U, V, sf_B.U.conj().T, ctx)


def bartels_stewart(p: SylvesterProblem, ctx: PrecisionContext = _CTX64):
    """Schur-transform, solve the triangular equation, transform back.

    For kind='lyapunov' only one Schur decomposition is computed and the
    second factor pair is its adjoint.  Returns (X, DirectSolveReport).
    """
    sf_A, sf_B = _schur_pair(p, ctx)
    X = _schur_solve(_round_complex_array(p.C, ctx.format), sf_A, sf_B, ctx)
    return X, DirectSolveReport(residual(p, X), sf_A, sf_B)


def solve_hermitian(p: SylvesterProblem, ctx: PrecisionContext = _CTX64) -> np.ndarray:
    """Eigendecompose both Hermitian coefficients and divide entrywise."""
    if p.kind != "hermitian":
        raise ValueError("solve_hermitian requires kind='hermitian'")
    U_A, d_A = hermitian_eig(p.A, ctx)
    U_B, d_B = hermitian_eig(p.B, ctx)
    Ct = _sandwich(U_A.conj().T, _round_complex_array(p.C, ctx.format), U_B, ctx)
    denom = fl_add(d_A[:, None], d_B[None, :], ctx)
    if (denom == 0).any():
        i, j = np.argwhere(denom == 0)[0]
        raise SingularEquationError(int(i), int(j))
    Y = fl_div(Ct, denom, ctx)
    return _sandwich(U_A, Y, U_B.conj().T, ctx)


def _relative_residual(A, B, C, X) -> float:
    """||A X + X B - C||_F / (||C||_F + ||X||_F (||A||_F + ||B||_F)) of
    arrays, in binary64 with norms that scale past overflow."""
    num = _frobenius(A @ X + X @ B - C)
    den = _frobenius(C) + _frobenius(X) * (_frobenius(A) + _frobenius(B))
    return 0.0 if den == 0.0 else num / den


def residual(p: SylvesterProblem, X) -> float:
    """Relative residual of X, evaluated entirely in binary64."""
    X = as_matrix(X)
    if X.shape != p.C.shape:
        raise DimensionError("solution shape does not match C")
    return _relative_residual(p.A, p.B, p.C, X)


def solution_norm_bound(p: SylvesterProblem) -> float:
    """Diagnostic bound ||X||_F <= ||C||_F / sep_F(A, -B), sep_F by LAPACK's SVD."""
    s = sep_f(p.A, p.B)
    if s == 0.0:
        return float("inf")
    return _frobenius(p.C) / s
