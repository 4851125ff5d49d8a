"""Two-precision iterative refinement for Sylvester equations.

The building block is a stationary iteration for the perturbed triangular
equation (T_A + dT_A) Y + Y (T_B + dT_B) = C: each step solves the
unperturbed triangular equation for a correction and adds it to the
iterate.  On top of it sit two full solvers.  Both compute the Schur
decompositions of the coefficients in the low precision and then, in the
high precision, either re-orthonormalize the near-unitary factors by QR
(`mp_orth`) or work with their inverses through LU factorizations
(`mp_inv`); the triangular parts are refined to high precision and the
solution is recovered with factors that are unitary (or inverted) to high
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import Failure, NumericBreakdownError, SingularEquationError
from .linalg import SchurFactors, _frobenius, gemm, lu, lu_solve, mgs_qr
# unused here; bench/test_selftest.py checks that the tracer wraps this binding
from .linalg import schur  # noqa: F401
from .precision import (
    BINARY64,
    FlopCounter,
    FpFormat,
    PrecisionContext,
    fl_add,
    fl_sub,
    _round_complex_array,
)
from .sylvester import (SylvesterProblem, _relative_residual, _sandwich, _schur_pair,
                        residual, solve_sylv_tri)

__all__ = [
    "RefinementConfig",
    "SolveReport",
    "ConvergenceRegime",
    "solve_pert_sylv_tri_stat",
    "ir_linear_system",
    "mp_orth",
    "mp_inv",
    "check_convergence_regime",
]


@dataclass(frozen=True)
class RefinementConfig:
    """Precision pair and stopping rule for the refinement loops.

    The iteration stops when ||D_{i-1}||_F / ||Y_i||_F <= epsilon or after
    max_iter corrections.  With epsilon=None the tolerance defaults to
    1e-12 * max(m, n) when the high precision is binary64, and to
    1e4 * u_h * max(m, n) otherwise.
    """

    u_l: FpFormat = field(default_factory=lambda: BINARY64)
    u_h: FpFormat = field(default_factory=lambda: BINARY64)
    epsilon: float | None = None
    max_iter: int = 20

    def __post_init__(self):
        if self.u_h.unit_roundoff > self.u_l.unit_roundoff:
            raise ValueError("the high precision must not be coarser than the low one")
        # a NaN fails the comparison too
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def resolve_epsilon(self, m: int, n: int) -> float:
        if self.epsilon is not None:
            return self.epsilon
        if self.u_h.is_binary64:
            return 1e-12 * max(m, n)
        return 1e4 * self.u_h.unit_roundoff * max(m, n)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a refinement run.

    ``iterations`` counts computed corrections; ``correction_norms`` holds
    ||D_i||_F per step.  ``failure`` is None on success, otherwise the
    `Failure` that ended the run, explained in ``detail``.
    """

    X: np.ndarray
    iterations: int
    correction_norms: list
    residual: float
    converged: bool
    failure: Failure | None = None
    detail: str = ""


def _refine(x, correction, ctx: PrecisionContext, eps: float, max_iter: int,
            step_errors=(), step_failure: Failure | None = None,
            accept=None, stalled=None):
    """The outer loop every refinement solver runs on.

    Each pass computes ``d = correction(x)``, updates x <- x + d in the
    precision of ``ctx`` and records ||d||.  A correction that raises one
    of ``step_errors`` ends the run with ``step_failure`` before the
    update.  After the update, a non-finite entry of d or x, or a norm
    past the largest double, is a nan_breakdown; the run converges when
    ||d|| <= eps ||x|| or when ``accept(x)`` holds (``accept`` is called
    on every updated iterate, so it may record it); otherwise a true
    ``stalled()`` ends it with gmres_stagnation.  Returns (x, iterations,
    correction norms, failure, detail), with failure None on convergence.
    """
    norms = []
    for i in range(max_iter):
        try:
            d = correction(x)
        except step_errors as exc:
            return x, i, norms, step_failure, str(exc)
        x = np.asarray(fl_add(x, d, ctx))
        nd, nx = _frobenius(d), _frobenius(x)
        norms.append(nd)
        accepted = accept is not None and accept(x)
        if not (math.isfinite(nd) and math.isfinite(nx)):
            return x, i + 1, norms, Failure.NAN_BREAKDOWN, "iterate diverged to non-finite values"
        if nd <= eps * nx or accepted:
            return x, i + 1, norms, None, ""
        if stalled is not None and stalled():
            return x, i + 1, norms, Failure.GMRES_STAGNATION, "inner residual stopped decreasing"
    return (x, max_iter, norms, Failure.NON_CONVERGENCE,
            "correction ratio above epsilon at max_iter")


def solve_pert_sylv_tri_stat(T_A, dT_A, T_B, dT_B, C, Y0,
                             cfg: RefinementConfig,
                             counter: FlopCounter | None = None) -> SolveReport:
    """Stationary refinement for (T_A + dT_A) Y + Y (T_B + dT_B) = C.

    T_A and T_B are triangular, the perturbations unstructured.  Every
    arithmetic step runs in the high precision of ``cfg``; each pass forms
    the right-hand side with two matrix products, solves the triangular
    equation for the correction and updates the iterate.  The first
    iteration always runs.
    """
    ctx = PrecisionContext(cfg.u_h, counter, "high")
    T_A = np.asarray(T_A, dtype=np.complex128)
    T_B = np.asarray(T_B, dtype=np.complex128)
    C = np.asarray(C, dtype=np.complex128)
    m, n = C.shape
    S_A = fl_add(T_A, dT_A, ctx)
    S_B = fl_add(T_B, dT_B, ctx)

    def correction(Y):
        R = gemm(-1.0, S_A, Y, 1.0, C, ctx)
        R = gemm(-1.0, Y, S_B, 1.0, R, ctx)
        return solve_sylv_tri(T_A, T_B, R, ctx)

    Y, k, norms, failure, detail = _refine(
        np.asarray(Y0, dtype=np.complex128).copy(), correction, ctx,
        cfg.resolve_epsilon(m, n), cfg.max_iter,
        step_errors=NumericBreakdownError, step_failure=Failure.NAN_BREAKDOWN)
    return SolveReport(Y, k, norms, _relative_residual(S_A, S_B, C, Y),
                       failure is None, failure, detail)


def ir_linear_system(M, dM, b, x0, cfg: RefinementConfig,
                     counter: FlopCounter | None = None) -> SolveReport:
    """Iterative refinement for M x = b with a perturbed solver.

    The correction equation (M - dM) d = r is solved through one LU
    factorization computed up front; residuals and updates run in the high
    precision of ``cfg``.  Mirrors the stationary Sylvester iteration on
    the stacked-columns form and is used to validate it.
    """
    ctx = PrecisionContext(cfg.u_h, counter, "high")
    M = np.asarray(M, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128).ravel()
    F = lu(fl_sub(M, dM, ctx), ctx)

    def correction(x):
        r = gemm(-1.0, M, x[:, None], 1.0, b[:, None], ctx)
        return lu_solve(F, r, ctx=ctx).ravel()

    x, k, norms, failure, detail = _refine(
        np.asarray(x0, dtype=np.complex128).ravel().copy(), correction, ctx,
        cfg.resolve_epsilon(b.size, 1), cfg.max_iter)
    res = _frobenius(b - M @ x) / max(
        _frobenius(b) + _frobenius(M) * _frobenius(x), 1e-300)
    return SolveReport(x, k, norms, res, failure is None, failure, detail)


# A factor recovery takes the low-precision Schur pair and the coefficients
# rounded to the high precision, B None for a Lyapunov equation (whose
# second factor is the first), and returns F, the similarity transforms
# of A and B (None for Lyapunov), and the back-transform of Y to X.

def _reorthonormalize(sf_A: SchurFactors, sf_B: SchurFactors, A, B, C,
                      ctx: PrecisionContext):
    """`mp_orth`: the Q factors of a modified Gram-Schmidt QR (positive
    diagonal) of the Schur vectors stand in for them."""
    Q_A = mgs_qr(sf_A.U, ctx).Q
    Q_B = Q_A if B is None else mgs_qr(sf_B.U, ctx).Q
    return (_sandwich(Q_A.conj().T, C, Q_B, ctx),
            _sandwich(Q_A.conj().T, A, Q_A, ctx),
            None if B is None else _sandwich(Q_B.conj().T, B, Q_B, ctx),
            lambda Y: _sandwich(Q_A, Y, Q_B.conj().T, ctx))


def _invert(sf_A: SchurFactors, sf_B: SchurFactors, A, B, C, ctx: PrecisionContext):
    """`mp_inv`: the Schur vectors are kept and their inverses applied
    through LU factorizations."""
    U_A, U_B = sf_A.U, sf_B.U
    lu_A = lu(U_A.conj().T, ctx)
    lu_B = None if B is None else lu(U_B, ctx)
    S_A = lu_solve(lu_A, gemm(1.0, U_A.conj().T, A, 0.0, None, ctx), side="right", ctx=ctx)
    S_B = None if B is None else \
        lu_solve(lu_B, gemm(1.0, B, U_B, 0.0, None, ctx), side="left", ctx=ctx)

    def solution(Y):
        Z = lu_solve(lu_A, Y, side="left", ctx=ctx)
        if B is None:  # Z U_A^-1 = Z (U_A^*)^-* reuses lu_A
            return lu_solve(lu_A, Z, side="right", transpose="conj", ctx=ctx)
        return lu_solve(lu_B, Z, side="right", ctx=ctx)

    return _sandwich(U_A.conj().T, C, U_B, ctx), S_A, S_B, solution


def _failed_report(p: SylvesterProblem, exc: Exception, stage: str) -> SolveReport:
    X = np.full((p.m, p.n), np.nan, dtype=np.complex128)
    failure = Failure.SINGULAR_EQUATION if isinstance(exc, SingularEquationError) \
        else Failure.NAN_BREAKDOWN
    return SolveReport(X, 0, [], float("nan"), False, failure, f"{stage}: {exc}")


def _mixed_precision(p: SylvesterProblem, cfg: RefinementConfig,
                     counter: FlopCounter | None, y0_zero: bool,
                     recovery) -> SolveReport:
    """The pipeline `mp_orth` and `mp_inv` share, with their factor recovery.

    Schur pair in the low precision; right-hand side F and perturbations
    L_A, L_B (L_B = L_A^* for Lyapunov) from ``recovery`` in the high
    precision; an initial triangular solve in the low precision (a failure
    there is reported, or replaced by a zero start with ``y0_zero``);
    stationary refinement; and the back-transform by ``recovery``.
    """
    ctx_l = PrecisionContext(cfg.u_l, counter, "low")
    ctx_h = PrecisionContext(cfg.u_h, counter, "high")
    sf_A, sf_B = _schur_pair(p, ctx_l)
    fmt = ctx_h.format
    B = None if p.kind == "lyapunov" else _round_complex_array(p.B, fmt)
    F, S_A, S_B, solution = recovery(sf_A, sf_B, _round_complex_array(p.A, fmt), B,
                                     _round_complex_array(p.C, fmt), ctx_h)
    L_A = fl_sub(S_A, sf_A.T, ctx_h)
    L_B = L_A.conj().T.copy() if B is None else fl_sub(S_B, sf_B.T, ctx_h)
    try:
        Y0 = solve_sylv_tri(sf_A.T, sf_B.T, _round_complex_array(F, ctx_l.format), ctx_l)
    except (SingularEquationError, NumericBreakdownError) as exc:
        if not y0_zero:
            return _failed_report(p, exc, "initial triangular solve")
        Y0 = np.zeros((p.m, p.n), dtype=np.complex128)
    try:
        inner = solve_pert_sylv_tri_stat(sf_A.T, L_A, sf_B.T, L_B, F, Y0, cfg, counter)
    except SingularEquationError as exc:
        return _failed_report(p, exc, "refinement")
    X = solution(inner.X)
    return replace(inner, X=X, residual=residual(p, X))


def mp_orth(p: SylvesterProblem, cfg: RefinementConfig,
            counter: FlopCounter | None = None,
            y0_zero: bool = False) -> SolveReport:
    """Mixed-precision solver that re-orthonormalizes the Schur factors.

    Schur decompositions run in the low precision; their unitary factors
    are QR-factorized (modified Gram-Schmidt, positive diagonal) in the
    high precision and the refined triangular solution is recovered with
    the orthonormalized factors.  A singular triangular equation at the
    initial solve is reported as a typed failure, not raised; with
    ``y0_zero`` the failed initial solve is replaced by a zero start
    instead (an experimentation override, off by default).
    """
    return _mixed_precision(p, cfg, counter, y0_zero, _reorthonormalize)


def mp_inv(p: SylvesterProblem, cfg: RefinementConfig,
           counter: FlopCounter | None = None,
           y0_zero: bool = False) -> SolveReport:
    """Mixed-precision solver that inverts the Schur factors through LU.

    Identical to `mp_orth` except that the near-unitary factors are LU
    factorized in the high precision and all factor applications on the
    recovery side become triangular solves.
    """
    return _mixed_precision(p, cfg, counter, y0_zero, _invert)


@dataclass(frozen=True)
class ConvergenceRegime:
    threshold: float
    in_regime: bool
    expected_backward: float
    expected_forward_factor: float


def check_convergence_regime(u_l: FpFormat, u_h: FpFormat,
                             kappa_inf: float) -> ConvergenceRegime:
    """Condition-number threshold below which refinement is expected to work.

    The threshold is the power of ten just above 1/u_l (bfloat16 -> 1e3,
    binary16 and tf32 -> 1e4, binary32 -> 1e8).  Within the regime the
    limiting relative residual is of order u_h and the limiting forward
    error of order cond * u_h.
    """
    u = u_l.unit_roundoff
    threshold = 10.0 ** math.ceil(-math.log10(u) - 1e-12)
    return ConvergenceRegime(
        threshold=threshold,
        in_regime=bool(kappa_inf <= threshold),
        expected_backward=u_h.unit_roundoff,
        expected_forward_factor=u_h.unit_roundoff,
    )
