"""Direct solvers for A X + X B = C.

The triangular recurrence solves the transformed equation one
anti-diagonal wave of entries at a time, in the operation order of
column-by-column substitution.  What does not change from wave to wave
is done once per solve: the check that the operands are values of the
format, which lets binary32 and binary64 run every wave in their
hardware dtype, and the denominator half of Smith's complex division by
the shifted diagonals.

Every Schur-based solver in the package has the Bartels-Stewart shape,
written once here: a Schur pair of the coefficients (`_schur_pair`),
then a transform, a triangular solve and a back-transform
(`_schur_solve`, which GMRES-IR applies as its preconditioner).
`bartels_stewart` runs both in one precision; `solve_hermitian`
replaces the Schur step with an eigendecomposition when both
coefficients are Hermitian.

The quality measure used throughout the package is the relative residual

    ||A X + X B - C||_F / (||C||_F + ||X||_F (||A||_F + ||B||_F)),

always evaluated in binary64 no matter which precisions the solver used.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, NonFiniteInputError, NumericBreakdownError,
                     SingularEquationError)
from .linalg import SchurFactors, _frobenius, as_matrix, gemm, hermitian_eig, schur, sep_f
from .precision import (
    BINARY64,
    PrecisionContext,
    fl_add,
    fl_div,
    fl_mul,
    fl_sum,
    _binary32,
    _exact,
    _product,
    _round_complex_array,
    _smith_denominator,
    _smith_numerator,
    _step_rounding,
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


@functools.lru_cache(maxsize=8)  # a plan holds about m n (m + n) indices
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
    fills one slice.  Returns (cols, order, waves): order[p] is the
    row-major index i * n + k of the entry at wave-order position p, and
    each wave is (start, stop, left, right), the slice it fills and, one
    chain step per row, the indices of its factors in the buffer
    [Y in wave order | T_A | T_B] (T_A and T_B row-major).
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
    for w, (a, b, left, right) in enumerate(waves):
        waves[w] = (a, b, remap[left], remap[right])
    return cols, order, waves


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

    Once per solve, not per wave: ``np.errstate`` is entered, the
    denominator half of Smith's method (`precision._smith_denominator`)
    is formed for all m n shifted diagonals, and the operands are checked.
    binary64 then runs every wave in complex128: the product of `fl_mul`
    and, for the chain, one ``np.subtract.accumulate`` from C, which is
    the accumulate of `fl_sum` on the negated products.  binary32 runs
    the waves in complex64 when [Y | T_A | T_B], C and the shifted
    diagonals all hold binary32 values (`precision._binary32`), with
    products from the float32 planes (`precision._product`): each
    step is the correctly rounded result the software path computes.  Other formats,
    and binary32 operands that fail the check (a C not rounded into the
    format, a NaN), take each wave through `fl_mul` and `fl_sum`.  Both
    finish with `precision._smith_numerator`.  The two binary32 paths
    differ at most in NaN payloads, which never leave the solve: a NaN in
    Y raises below.

    Raises SingularEquationError when a shifted diagonal entry is exactly
    zero, and NumericBreakdownError when a NaN or infinity appears in the
    recurrence, at the first column (in solve order) where the
    column-by-column recurrence would have raised, having charged the
    flops it would have charged by then.
    """
    T_A = as_matrix(T_A)
    T_B = as_matrix(T_B)
    if _triangular_form(T_A) != "upper":
        raise DimensionError("T_A must be upper triangular")
    b_form = _triangular_form(T_B)
    C = as_matrix(C)
    m, n = C.shape
    if T_A.shape != (m, m) or T_B.shape != (n, n):
        raise DimensionError("inconsistent dimensions")
    fmt = ctx.format
    quiet = PrecisionContext(fmt)
    cols, order, waves = _wave_plan(m, n, b_form == "lower")
    # the shifted diagonals T_A[i, i] + T_B[k, k]
    D = fl_add(np.diag(T_A)[:, None], np.diag(T_B)[None, :], quiet).ravel()
    buf = np.concatenate([np.zeros(m * n, dtype=np.complex128), T_A.ravel(), T_B.ravel()])
    c, d = C.ravel()[order], D[order]
    r = _step_rounding(fmt)
    native = fmt.is_binary64
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if fmt._is_binary32:
            ops = _binary32(buf, c, d)
            if ops is not None:
                (buf, c, d), r, native = ops, _exact, True
        den = _smith_denominator(d, r)
        for start, stop, left, right in waves:
            a, b = buf[left], buf[right]
            if native:
                X = np.empty((len(left) + 1, stop - start), dtype=buf.dtype)
                X[0] = c[start:stop]
                _product(a, b, fmt, out=X[1:])
                # x - p is x + (-p) exactly: fl_sum(-prods, start=c)
                s = np.subtract.accumulate(X, axis=0, out=X)[-1]
            else:
                s = fl_sum(-fl_mul(a, b, quiet), quiet, start=c[start:stop])
            y = buf[start:stop]
            y.real, y.imag = _smith_numerator(s, [x[start:stop] for x in den], r,
                                              fmt.is_binary64)
    Y = np.empty(m * n, dtype=np.complex128)
    Y[order] = buf[:m * n]
    Y = Y.reshape(m, n)
    singular = D.reshape(m, n) == 0
    failed = (singular.any(axis=0) | ~np.isfinite(Y).all(axis=0))[cols]
    if not failed.any():
        ctx.count(m * n * (m + n))
        return Y
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


def _sandwich(L, M, R, ctx: PrecisionContext) -> np.ndarray:
    """fl((L M) R): two rounded products under ctx."""
    return gemm(1.0, gemm(1.0, L, M, 0.0, None, ctx), R, 0.0, None, ctx)


def _schur_pair(p: SylvesterProblem, ctx: PrecisionContext):
    """Schur factors of A and B under ctx (B's are A's adjoint for a Lyapunov
    equation).  `schur` rounds the coefficients on entry and raises
    FormatOverflowError past the format's range, so they go in unrounded."""
    sf_A = schur(p.A, ctx)
    if p.kind == "lyapunov":
        return sf_A, SchurFactors(sf_A.U, sf_A.T.conj().T)
    return sf_A, schur(p.B, ctx)


def _schur_solve(W, sf_A: SchurFactors, sf_B: SchurFactors,
                 ctx: PrecisionContext) -> np.ndarray:
    """Apply the inverse Sylvester operator of the Schur factors to W:
    transform, solve the triangular equation, transform back, all under ctx."""
    V = _sandwich(sf_A.U.conj().T, W, sf_B.U, ctx)
    V = solve_sylv_tri(sf_A.T, sf_B.T, V, ctx)
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
    denom = d_A[:, None] + d_B[None, :]
    if (denom == 0).any():
        i, j = np.argwhere(denom == 0)[0]
        raise SingularEquationError(int(i), int(j))
    ctx.count(denom.size)
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
    """Diagnostic upper bound ||X||_F <= ||C||_F / sep_F(A, -B)."""
    s = sep_f(p.A, p.B)
    if s == 0.0:
        return float("inf")
    return _frobenius(p.C) / s
