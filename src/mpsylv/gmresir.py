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

Each correction is one `precision._resident` kernel over the
preconditioned right-hand side, the coefficients in u_g and the Schur
factors (`_resident_correction`), and plans its matvec once from the
kernel's own copies (`_correction_plan`): U_A^* and U_B^* are formed and
the triangular pair prepared once, and its six products run `gemm`'s
steps with no entry or check.  In binary32 it enters and checks once and
runs every step in complex64: its products, triangular solves and
`_mgs_project` are steps on complex64 operands, which `_resident` passes
straight on.  The scalar steps that apply the stored Hessenberg rotations
and the rows of the back substitution run, in every format but binary64,
as chains on Python floats with one stage rounding per group of
independent steps (`_rotation_chain`, `_backsub_chain`),
bit-identical to their rounded `_s*` composition.  Only widened scalars
are compared: the abs of a complex64 value is a float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Failure, NumericBreakdownError, SingularEquationError
from .linalg import (SchurFactors, _frobenius, _gemm_steps, _mgs_project, _scaled_down,
                     _vec_norm2_ctx, gemm, unvec, vec)
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
    _product,
    _resident,
    _round_complex_array,
    _sabs,
    _sadd,
    _sdiv,
    _smul,
    _ssqrt,
)
from .refinement import RefinementConfig, _refine
from .sylvester import SylvesterProblem, _prepare_sylv_tri, _schur_pair, residual
from .sylvester import _schur_solve as apply_preconditioner
# unused here; bench/test_selftest.py checks that the tracer wraps this binding
from .sylvester import solve_sylv_tri  # noqa: F401

__all__ = ["GmresConfig", "GmresIrReport", "apply_preconditioner", "gmres_ir_sylv"]

_ONES = np.ones(2)  # [alpha, beta] of `_correction_plan`'s products


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
    value at the cycle start.  V, H, the rotations and g take the dtype of
    the flattened right-hand side: complex64 when the correction runs as a
    `_resident` kernel in binary32, whose steps then stay in complex64.
    """
    fmt = ctx.format
    m, n = rhs_mat.shape
    N = m * n
    b = vec(rhs_mat, ctx)
    x = np.zeros(N, dtype=b.dtype)
    beta0 = _frobenius(b)
    if beta0 == 0.0:
        return unvec(x, m, n, ctx), 0, False
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
            return unvec(x, m, n, ctx), total_inner, True
        if beta <= tol * beta0:
            break
        cycle_start = beta
        V = np.zeros((N, p + 1), dtype=b.dtype)
        H = np.zeros((p + 1, p), dtype=b.dtype)
        cs = np.zeros(p, dtype=b.dtype)
        sn = np.zeros(p, dtype=b.dtype)
        g = np.zeros(p + 1, dtype=b.dtype)
        V[:, 0] = np.asarray(fl_div(r, r.dtype.type(beta), ctx)).ravel()
        g[0] = beta
        j = 0
        while j < p:
            w = np.asarray(matvec(V[:, j])).ravel()
            H[:j + 1, j], w, hq = _mgs_project(V[:, :j + 1], w, ctx)
            H[j + 1, j] = hq
            total_inner += 1
            if not np.isfinite(hq):
                return unvec(x, m, n, ctx), total_inner, True
            if hq != 0.0:
                V[:, j + 1] = np.asarray(fl_div(w, w.dtype.type(hq), ctx)).ravel()
            # apply accumulated rotations, then a new one zeroing H[j+1, j]
            H[:j + 1, j] = _apply_rotations(cs[:j].tolist(), sn[:j].tolist(),
                                            H[:j + 1, j].tolist(), fmt)
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
            if abs(complex(g[j])) <= tol * beta0:
                break
        # back substitution on the rotated Hessenberg
        y = [0j] * j
        for i in range(j - 1, -1, -1):
            acc = _backsub(complex(g[i]), H[i, i + 1:j].tolist(), y[i + 1:j], fmt)
            ctx.count(2 * (j - i))
            y[i] = _sdiv(acc, complex(H[i, i]), fmt)
        y = np.array(y, dtype=b.dtype)
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
    return unvec(x, m, n, ctx), total_inner, stagnated


def _apply_rotations(cs: list, sn: list, h: list, fmt: FpFormat) -> list:
    """The stored rotations applied in turn to the Hessenberg column h:
    rotation i takes (h[i], h[i+1]) to (conj(c) h[i] + conj(s) h[i+1],
    c h[i+1] - s h[i]), by complex operations in binary64 and by
    `_rotation_chain` in every other format."""
    for i, (c, s) in enumerate(zip(cs, sn)):
        h0, h1 = h[i], h[i + 1]
        if fmt.is_binary64:
            h[i:i + 2] = c.conjugate() * h0 + s.conjugate() * h1, c * h1 - s * h0
        else:
            h[i:i + 2] = _rotation_chain(c, s, h0, h1, fmt)
    return h


# The chains below are the one body of a stored rotation and of a row of the
# back substitution in every format but binary64, by the recipe of
# `linalg._givens_chain`: the four real products of each complex product
# and their difference and sum are stages of r, and each complex sum or
# difference is a stage of add (r, add = `FpFormat._scalar_rounding`).


def _rotation_chain(c: complex, s: complex, h0: complex, h1: complex, fmt: FpFormat):
    """One stored rotation of `_apply_rotations` for values of fmt."""
    r, add = fmt._scalar_rounding
    cr, ci, sr, si = c.real, c.imag, s.real, s.imag
    ar, ai, br, bi = h0.real, h0.imag, h1.real, h1.imag
    # the four real products of conj(c) h0, conj(s) h1, c h1 and s h0
    p = r[16](cr * ar, -ci * ai, cr * ai, -ci * ar, sr * br, -si * bi, sr * bi, -si * br,
              cr * br, ci * bi, cr * bi, ci * br, sr * ar, si * ai, sr * ai, si * ar)
    q = r[8](p[0] - p[1], p[2] + p[3], p[4] - p[5], p[6] + p[7],
             p[8] - p[9], p[10] + p[11], p[12] - p[13], p[14] + p[15])
    tr, ti, ur, ui = add[4](q[0], q[2], q[1], q[3], q[4], -q[6], q[5], -q[7])
    return complex(tr, ti), complex(ur, ui)


def _backsub(acc: complex, hs: list, ys: list, fmt: FpFormat) -> complex:
    """acc less each product h y in turn, a row of the back substitution
    before its division: by complex operations in binary64 and by
    `_backsub_chain` in every other format."""
    if fmt.is_binary64:
        for h, y in zip(hs, ys):
            acc = acc - h * y
        return acc
    return _backsub_chain(acc, hs, ys, fmt)


def _backsub_chain(acc: complex, hs: list, ys: list, fmt: FpFormat) -> complex:
    """`_backsub` for values of fmt."""
    r, add = fmt._scalar_rounding
    ar, ai = acc.real, acc.imag
    for h, y in zip(hs, ys):
        hr, hi, yr, yi = h.real, h.imag, y.real, y.imag
        rr, ii, ri, ir = r[4](hr * yr, hi * yi, hr * yi, hi * yr)
        pr, pi = r[2](rr - ii, ri + ir)
        ar, ai = add[2](ar, -pr, ai, -pi)
    return complex(ar, ai)


def _resident_correction(b, A_g, B_g, sf_A: SchurFactors, sf_B: SchurFactors,
                         gcfg: GmresConfig, ctx: PrecisionContext):
    """`_gmres_correction` on b with the operator of A_g and B_g and the
    preconditioner of the Schur factors, as one `_resident` kernel that
    builds both from its own copies of the arrays: in binary32 the whole
    correction runs in complex64, entered and checked once.  Returns
    (E, inner iterations, stagnated)."""
    def steps(b, *operands, ctx):
        E, inner, stagnated = _gmres_correction(_correction_plan(*operands, ctx), b, gcfg, ctx)
        return E, np.array(inner), np.array(stagnated)

    E, inner, stagnated = _resident(steps, ctx, b, A_g, B_g, sf_A.U, sf_A.T, sf_B.U, sf_B.T)
    return E, int(inner.real), bool(stagnated.real)


def _correction_plan(A_g, B_g, U_A, T_A, U_B, T_B, ctx: PrecisionContext):
    """x -> vec(apply_preconditioner(gemm(1, A_g, W, 1, gemm(1, W, B_g, 0,
    None)))) for W = unvec(x), with its results, charges and errors: U_A^*
    and U_B^* are formed and the triangular pair prepared once, and each
    of the six products runs `gemm`'s steps with `_product`, unentered."""
    m, n = A_g.shape[0], B_g.shape[0]
    U_AH, U_BH = U_A.conj().T, U_B.conj().T
    solve = _prepare_sylv_tri(T_A, T_B, ctx)

    def mm(A, B, C=None):  # gemm(1, A, B, 1, C, ctx), C None for beta = 0
        return _gemm_steps(_ONES, A, B, C, ctx=ctx, mul=_product)[0]

    def matvec(xflat):
        W = unvec(xflat, m, n, ctx)
        V = solve(mm(mm(U_AH, mm(A_g, W, mm(W, B_g))), U_B))
        return vec(mm(mm(U_A, V), U_BH), ctx)
    return matvec


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

    stable = 10.0 * max(m, n) * rcfg.u_h.unit_roundoff
    inner_counts, stalls, history = [], [], []

    def correction(X):
        R = gemm(-1.0, A, X, 1.0, C, ctx_h)
        R = gemm(-1.0, X, B, 1.0, R, ctx_h)
        # R 2^-e, its largest part below 1, rounds into u_g clear of u_g's
        # underflow and overflow; the scalings are exact in binary64 and
        # charge no flops
        R, e = _scaled_down(R) if R.any() else (R, 0)
        Rt = apply_preconditioner(_round_complex_array(R, gcfg.u_g), sf_A, sf_B, ctx_pre)
        E, li, stagnated = _resident_correction(Rt, A_g, B_g, sf_A, sf_B, gcfg, ctx_g)
        inner_counts.append(li)
        stalls.append(stagnated)
        half = e // 2 if e > 1023 else 0  # 2^e past the largest double
        with np.errstate(over="ignore"):
            return E * math.ldexp(1.0, half) * math.ldexp(1.0, e - half)

    def accept(X):
        history.append(residual(p, X))
        return history[-1] <= stable

    X, outer, _, failure, detail = _refine(
        np.zeros((m, n), dtype=np.complex128), correction, ctx_h, eps, rcfg.max_iter,
        step_errors=(SingularEquationError, NumericBreakdownError),
        step_failure=Failure.PRECONDITIONER, accept=accept, stalled=lambda: stalls[-1])
    return GmresIrReport(X, outer, inner_counts, history, failure is None, failure, detail)
