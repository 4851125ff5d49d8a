"""Schur-preconditioned GMRES refinement for Sylvester equations.

The outer loop is iterative refinement in the high precision; each
correction equation is solved by restarted GMRES applied to the left
preconditioned operator.  The preconditioner is the inverse Sylvester
operator built from the low-precision Schur factors and is applied
implicitly in three steps: transform the right-hand side with the unitary
factors, solve the triangular equation, transform back.  These are the
steps of `bartels_stewart` (`sylvester._schur_solve`, exported here as
`apply_preconditioner`).  Both the operator and the preconditioner act on
matrices, never on an explicitly formed Kronecker matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Failure, NumericBreakdownError, SingularEquationError
from .linalg import _frobenius, _mgs_project, _vec_norm2_ctx, gemm, unvec, vec
from .precision import (
    BINARY64,
    FlopCounter,
    FpFormat,
    PrecisionContext,
    fl_add,
    fl_div,
    fl_mul,
    fl_sub,
    fl_sum,
    _round_complex_array,
    _sabs,
    _sadd,
    _sdiv,
    _smul,
    _ssqrt,
    _ssub,
)
from .refinement import RefinementConfig, _refine
from .sylvester import SylvesterProblem, _schur_pair, residual
from .sylvester import _schur_solve as apply_preconditioner
# unused here; bench/test_selftest.py checks that the tracer wraps this binding
from .sylvester import solve_sylv_tri  # noqa: F401

__all__ = ["GmresConfig", "GmresIrReport", "apply_preconditioner", "gmres_ir_sylv"]


@dataclass(frozen=True)
class GmresConfig:
    """Inner-solver settings: restart length, tolerance, and the precision
    u_g in which the preconditioned system is formed and solved.

    The effective inner tolerance is max(inner_tol, 4 u_g): a relative
    residual below the roundoff of the precision GMRES runs in cannot be
    resolved, so demanding it would only burn the restart budget.
    """

    u_g: FpFormat = field(default_factory=lambda: BINARY64)
    restart: int = 20
    inner_tol: float = 1e-8
    max_restarts: int = 5

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be at least 1")
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be at least 1")
        if not 0 < self.inner_tol < 1:
            raise ValueError("inner_tol must lie in (0, 1)")


@dataclass(frozen=True)
class GmresIrReport:
    X: np.ndarray
    outer_iterations: int
    inner_iterations: list
    residual_history: list
    converged: bool
    failure: Failure | None = None
    detail: str = ""


def _gmres_correction(matvec, rhs_mat, gcfg: GmresConfig, ctx: PrecisionContext):
    """Restarted GMRES on the flattened preconditioned system.

    Returns (E, inner_iterations, stagnated).  Stagnation means a full
    restart cycle failed to shrink the relative residual below 0.9 of its
    value at the cycle start.
    """
    fmt = ctx.format
    m, n = rhs_mat.shape
    N = m * n
    b = vec(np.asarray(rhs_mat))
    x = np.zeros(N, dtype=np.complex128)
    beta0 = _frobenius(b)
    if beta0 == 0.0:
        return unvec(x, m, n), 0, False
    tol = max(gcfg.inner_tol, 4.0 * fmt.unit_roundoff)
    total_inner = 0
    stagnated = False
    p = gcfg.restart
    for _ in range(gcfg.max_restarts):
        if np.any(x):
            r = np.asarray(fl_sub(b, matvec(x), ctx)).ravel()
        else:
            r = b.copy()
        beta = _vec_norm2_ctx(r, ctx)
        if not np.isfinite(beta):
            return unvec(x, m, n), total_inner, True
        if beta <= tol * beta0:
            break
        cycle_start = beta
        V = np.zeros((N, p + 1), dtype=np.complex128)
        H = np.zeros((p + 1, p), dtype=np.complex128)
        cs = np.zeros(p, dtype=np.complex128)
        sn = np.zeros(p, dtype=np.complex128)
        g = np.zeros(p + 1, dtype=np.complex128)
        V[:, 0] = np.asarray(fl_div(r, beta, ctx)).ravel()
        g[0] = beta
        j = 0
        while j < p:
            w = np.asarray(matvec(V[:, j])).ravel()
            H[:j + 1, j], w = _mgs_project(V[:, :j + 1], w, ctx)
            hq = _vec_norm2_ctx(w, ctx)
            H[j + 1, j] = hq
            total_inner += 1
            if not np.isfinite(hq):
                return unvec(x, m, n), total_inner, True
            if hq != 0.0:
                V[:, j + 1] = np.asarray(fl_div(w, hq, ctx)).ravel()
            # apply accumulated rotations, then a new one zeroing H[j+1, j]
            for i in range(j):
                t = _sadd(_smul(complex(cs[i]).conjugate(), complex(H[i, j]), fmt),
                          _smul(complex(sn[i]).conjugate(), complex(H[i + 1, j]), fmt), fmt)
                H[i + 1, j] = _ssub(_smul(complex(cs[i]), complex(H[i + 1, j]), fmt),
                                    _smul(complex(sn[i]), complex(H[i, j]), fmt), fmt)
                H[i, j] = t
            hjj, hj1 = complex(H[j, j]), complex(H[j + 1, j])
            d = _ssqrt(_sadd(_sabs(hjj, fmt) ** 2, _sabs(hj1, fmt) ** 2, fmt).real, fmt)
            ctx.count(2)
            if d == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = _sdiv(hjj, d, fmt)
                sn[j] = _sdiv(hj1, d, fmt)
            H[j, j] = d
            H[j + 1, j] = 0.0
            g[j + 1] = _smul(-complex(sn[j]), complex(g[j]), fmt)
            g[j] = _smul(complex(cs[j]).conjugate(), complex(g[j]), fmt)
            j += 1
            if abs(g[j]) <= tol * beta0:
                break
        # back substitution on the rotated Hessenberg
        y = np.zeros(j, dtype=np.complex128)
        for i in range(j - 1, -1, -1):
            acc = complex(g[i])
            for l in range(i + 1, j):
                acc = _ssub(acc, _smul(complex(H[i, l]), complex(y[l]), fmt), fmt)
            ctx.count(2 * (j - i))
            y[i] = _sdiv(acc, complex(H[i, i]), fmt)
        upd = fl_sum(fl_mul(y[:, None], V[:, :j].T, ctx), ctx)
        x = np.asarray(fl_add(x, upd, ctx)).ravel()
        final = abs(complex(g[j]))
        if final <= tol * beta0:
            break
        if final > 0.9 * cycle_start:
            stagnated = True
            break
    else:
        stagnated = True
    return unvec(x, m, n), total_inner, stagnated


def gmres_ir_sylv(p: SylvesterProblem, gcfg: GmresConfig, rcfg: RefinementConfig,
                  counter: FlopCounter | None = None) -> GmresIrReport:
    """Refinement with GMRES correction solves in precision u_g.

    Schur factors are computed in the low precision of ``rcfg``.  Each
    outer step evaluates the residual in the high precision, left
    preconditions it in u_g, and solves the preconditioned correction
    equation by restarted GMRES in u_g, with the operator and the
    preconditioner applied implicitly to matrices.

    The outer loop stops successfully when the correction ratio
    ||E||_F / ||X||_F falls below the configured epsilon or when the
    binary64 relative residual reaches the backward-stable level
    10 * max(m, n) * u_h (GMRES corrections are only as accurate as the
    inner tolerance, so on harder problems their size plateaus above
    epsilon even once the residual is fully converged).
    """
    if gcfg.u_g not in (rcfg.u_l, rcfg.u_h):
        raise ValueError("u_g must equal one of the configured precisions")
    ctx_h = PrecisionContext(rcfg.u_h, counter, "high")
    ctx_pre = PrecisionContext(gcfg.u_g, counter, "precond")
    ctx_g = PrecisionContext(gcfg.u_g, counter, "gmres")
    sf_A, sf_B = _schur_pair(p, PrecisionContext(rcfg.u_l, counter, "low"))
    A = _round_complex_array(p.A, ctx_h.format)
    B = _round_complex_array(p.B, ctx_h.format)
    C = _round_complex_array(p.C, ctx_h.format)
    A_g = _round_complex_array(p.A, gcfg.u_g)
    B_g = _round_complex_array(p.B, gcfg.u_g)
    m, n = p.m, p.n
    eps = rcfg.resolve_epsilon(m, n)

    def matvec(xflat):
        W = unvec(xflat, m, n)
        W = gemm(1.0, A_g, W, 1.0, gemm(1.0, W, B_g, 0.0, None, ctx_g), ctx_g)
        return vec(apply_preconditioner(W, sf_A, sf_B, ctx_g))

    stable = 10.0 * max(m, n) * rcfg.u_h.unit_roundoff
    inner_counts, stalls, history = [], [], []

    def correction(X):
        R = gemm(-1.0, A, X, 1.0, C, ctx_h)
        R = gemm(-1.0, X, B, 1.0, R, ctx_h)
        Rt = apply_preconditioner(_round_complex_array(R, gcfg.u_g), sf_A, sf_B, ctx_pre)
        E, li, stagnated = _gmres_correction(matvec, Rt, gcfg, ctx_g)
        inner_counts.append(li)
        stalls.append(stagnated)
        return E

    def accept(X):
        history.append(residual(p, X))
        return history[-1] <= stable

    X, outer, _, failure, detail = _refine(
        np.zeros((m, n), dtype=np.complex128), correction, ctx_h, eps, rcfg.max_iter,
        step_errors=(SingularEquationError, NumericBreakdownError),
        step_failure=Failure.PRECONDITIONER, accept=accept, stalled=lambda: stalls[-1])
    return GmresIrReport(X, outer, inner_counts, history, failure is None, failure, detail)
