"""Direct solvers for A X + X B = C.

The triangular recurrence solves the transformed equation one
anti-diagonal wave of entries at a time, in the operation order of
column-by-column substitution; `bartels_stewart` wraps it between Schur
decompositions of the coefficients and `solve_hermitian` replaces the
Schur step with an eigendecomposition when both coefficients are
Hermitian.

The quality measure used throughout the package is the relative residual

    ||A X + X B - C||_F / (||C||_F + ||X||_F (||A||_F + ||B||_F)),

always evaluated in binary64 no matter which precisions the solver used.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericBreakdownError, SingularEquationError
from .linalg import SchurFactors, as_matrix, gemm, hermitian_eig, schur, sep_f
from .precision import (
    BINARY64,
    PrecisionContext,
    fl_add,
    fl_div,
    fl_mul,
    fl_sum,
    _quotient,
    _round_complex_array,
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
    fast paths are only taken deliberately.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        A = as_matrix(self.A)
        B = as_matrix(self.B)
        C = as_matrix(self.C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        m, n = C.shape
        if A.shape != (m, m) or B.shape != (n, n):
            raise DimensionError(
                f"incompatible shapes A{A.shape} B{B.shape} C{C.shape}")
        if self.kind not in ("general", "lyapunov", "hermitian"):
            raise ValueError(f"unknown kind {self.kind!r}")
        u = BINARY64.unit_roundoff
        if self.kind == "lyapunov":
            if m != n or np.linalg.norm(B - A.conj().T) > 10 * u * max(
                    np.linalg.norm(A), 1e-300):
                raise ValueError("kind='lyapunov' requires B = A*")
        if self.kind == "hermitian":
            if np.linalg.norm(A - A.conj().T) > 10 * u * max(np.linalg.norm(A), 1e-300) \
                    or np.linalg.norm(B - B.conj().T) > 10 * u * max(np.linalg.norm(B), 1e-300):
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
    for r = m-1 down to i+1.  Indices point into the row-major buffer
    [Y | T_A | T_B]; each wave is (target, left, right) with one chain
    step per row of left and right.
    """
    cols = np.arange(n)[::-1] if lower else np.arange(n)
    off_a, off_b = m * n, m * n + m * m
    waves = []
    for w in range(m + n - 1):
        q = np.arange(max(0, w - m + 1), min(n, w + 1))
        i, k = m - 1 - (w - q), cols[q]
        s = np.arange(w)[:, None]
        c = cols[np.minimum(s, n - 1)]
        r = m - 1 - (s - q)
        in_b = s < q
        left = np.where(in_b, i * n + c, off_a + i * m + r)
        right = np.where(in_b, off_b + c * n + k, r * n + k)
        waves.append((i * n + k, left, right))
    return cols, waves


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
    cols, waves = _wave_plan(m, n, b_form == "lower")
    # the shifted diagonals T_A[i, i] + T_B[k, k]
    D = fl_add(np.diag(T_A)[:, None], np.diag(T_B)[None, :], quiet).ravel()
    buf = np.concatenate([np.zeros(m * n, dtype=np.complex128), T_A.ravel(), T_B.ravel()])
    c_flat = C.ravel()
    for target, left, right in waves:
        prods = fl_mul(buf[left], buf[right], quiet)
        buf[target] = _quotient(fl_sum(-prods, quiet, start=c_flat[target]),
                                D[target], fmt)
    Y = buf[:m * n].reshape(m, n)
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


def bartels_stewart(p: SylvesterProblem, ctx: PrecisionContext = _CTX64):
    """Schur-transform, solve the triangular equation, transform back.

    For kind='lyapunov' only one Schur decomposition is computed and the
    second factor pair is its adjoint.  Returns (X, DirectSolveReport).
    """
    A = _round_complex_array(p.A, ctx.format)
    C = _round_complex_array(p.C, ctx.format)
    sf_A = schur(A, ctx)
    if p.kind == "lyapunov":
        sf_B = SchurFactors(sf_A.U, sf_A.T.conj().T, sf_A.computed_in)
    else:
        sf_B = schur(_round_complex_array(p.B, ctx.format), ctx)
    Ct = gemm(1.0, gemm(1.0, sf_A.U.conj().T, C, 0.0, None, ctx),
              sf_B.U, 0.0, None, ctx)
    Y = solve_sylv_tri(sf_A.T, sf_B.T, Ct, ctx)
    X = gemm(1.0, gemm(1.0, sf_A.U, Y, 0.0, None, ctx),
             sf_B.U.conj().T, 0.0, None, ctx)
    return X, DirectSolveReport(residual(p, X), sf_A, sf_B)


def solve_hermitian(p: SylvesterProblem, ctx: PrecisionContext = _CTX64) -> np.ndarray:
    """Eigendecompose both Hermitian coefficients and divide entrywise."""
    if p.kind != "hermitian":
        raise ValueError("solve_hermitian requires kind='hermitian'")
    U_A, d_A = hermitian_eig(p.A, ctx)
    U_B, d_B = hermitian_eig(p.B, ctx)
    Ct = gemm(1.0, gemm(1.0, U_A.conj().T, _round_complex_array(p.C, ctx.format),
                        0.0, None, ctx), U_B, 0.0, None, ctx)
    denom = d_A[:, None] + d_B[None, :]
    if (denom == 0).any():
        i, j = np.argwhere(denom == 0)[0]
        raise SingularEquationError(int(i), int(j))
    ctx.count(denom.size)
    Y = fl_div(Ct, denom, ctx)
    return gemm(1.0, gemm(1.0, U_A, Y, 0.0, None, ctx),
                U_B.conj().T, 0.0, None, ctx)


def residual(p: SylvesterProblem, X) -> float:
    """Relative residual of X, evaluated entirely in binary64."""
    X = as_matrix(X)
    if X.shape != p.C.shape:
        raise DimensionError("solution shape does not match C")
    num = np.linalg.norm(p.A @ X + X @ p.B - p.C)
    den = np.linalg.norm(p.C) + np.linalg.norm(X) * (
        np.linalg.norm(p.A) + np.linalg.norm(p.B))
    if den == 0.0:
        return 0.0
    return float(num / den)


def solution_norm_bound(p: SylvesterProblem) -> float:
    """Diagnostic upper bound ||X||_F <= ||C||_F / sep_F(A, -B)."""
    s = sep_f(p.A, p.B)
    if s == 0.0:
        return float("inf")
    return float(np.linalg.norm(p.C) / s)
