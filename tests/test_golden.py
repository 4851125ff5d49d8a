"""Golden outcomes of the solver paths the benchmark does not run.

The benchmark pins general random-dense and logspace problems only.  Each
case here pins, for one further path, the iteration count, the failure
slug, every FlopCounter bucket, the sha256 of X and the binary64
residual, so a restructuring of the refinement code has to reproduce its
results bit for bit.  Re-record a value only when a change alters results
on purpose, and say so in that change.
"""

import hashlib
import warnings

import numpy as np
import pytest

from mpsylv.cli import ProblemGenerator, generate
from mpsylv.gmresir import GmresConfig, gmres_ir_sylv
from mpsylv.precision import BINARY16, BINARY32, BINARY64, FlopCounter
from mpsylv.refinement import (
    RefinementConfig,
    ir_linear_system,
    mp_inv,
    mp_orth,
    solve_pert_sylv_tri_stat,
)
from mpsylv.sylvester import SylvesterProblem

CFG32 = RefinementConfig(BINARY32, BINARY64)
CFG16 = RefinementConfig(BINARY16, BINARY64)
SOLVERS = {"orth": mp_orth, "inv": mp_inv}


def _slug(failure):
    return "ok" if failure is None else failure.split(":", 1)[0].split()[0]


def _sha(X):
    return hashlib.sha256(np.ascontiguousarray(X, dtype=np.complex128).tobytes()).hexdigest()


def _singular_problem():
    # lambda(A) meets -lambda(B) exactly: the triangular equation is singular
    rng = np.random.default_rng(5)
    A = np.triu(rng.standard_normal((3, 3)))
    B = np.triu(rng.standard_normal((2, 2)))
    A[0, 0], B[0, 0] = 1.0, -1.0
    return SylvesterProblem(A, B, np.ones((3, 2)))


def _overflow_problem():
    # the transformed right-hand side overflows binary16 (max 65504)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    B = rng.standard_normal((3, 3)) + 4 * np.eye(3)
    return SylvesterProblem(A, B, 1e6 * rng.standard_normal((4, 3)))


def _mp(solver, p, cfg, **kw):
    def run(counter):
        rep = SOLVERS[solver](p, cfg, counter, **kw)
        return rep.X, rep.iterations, rep.failure, rep.residual, None
    return run


def _ir(max_iter, scale):
    def run(counter):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 5 * np.eye(6)
        dM = scale * rng.standard_normal((6, 6))
        b = rng.standard_normal(6)
        cfg = RefinementConfig(BINARY64, BINARY64, max_iter=max_iter)
        rep = ir_linear_system(M, dM, b, np.zeros(6), cfg, counter)
        return rep.X, rep.iterations, rep.failure, rep.residual, None
    return run


def _ir_diverges(counter):
    # M - dM = 2^-40 for M = 1: each step multiplies the error by about -2^40
    cfg = RefinementConfig(BINARY64, BINARY64, max_iter=20)
    rep = ir_linear_system(np.eye(1), np.eye(1) - 2.0**-40, np.ones(1), np.zeros(1),
                           cfg, counter)
    return rep.X, rep.iterations, rep.failure, rep.residual, None


def _stat(C, dT_A):
    def run(counter):
        cfg = RefinementConfig(BINARY64, BINARY64, max_iter=20)
        rep = solve_pert_sylv_tri_stat(np.eye(1), dT_A, np.zeros((1, 1)), np.zeros((1, 1)),
                                       C, np.zeros((1, 1)), cfg, counter)
        return rep.X, rep.iterations, rep.failure, rep.residual, None
    return run


def _gmres(p, cfg=CFG32, restart=20):
    def run(counter):
        rep = gmres_ir_sylv(p, GmresConfig(cfg.u_l, restart=restart), cfg, counter)
        res = rep.residual_history[-1] if rep.residual_history else float("nan")
        return rep.X, rep.outer_iterations, rep.failure, res, rep.inner_iterations
    return run


def _cases():
    lyap = generate(ProblemGenerator("lyapunov", 6, 6, 0.0, seed=3))
    herm = generate(ProblemGenerator("hermitian", 6, 5, 0.0, seed=3))
    dense = generate(ProblemGenerator("random-dense", 5, 4, 0.0, seed=4))
    cases = {}
    for s in SOLVERS:
        cases[f"{s}-lyapunov"] = _mp(s, lyap, CFG32)
        cases[f"{s}-hermitian"] = _mp(s, herm, CFG32)
        cases[f"{s}-singular-initial"] = _mp(s, _singular_problem(), CFG32)
        cases[f"{s}-singular-y0-zero"] = _mp(s, _singular_problem(), CFG32, y0_zero=True)
        cases[f"{s}-overflow-initial"] = _mp(s, _overflow_problem(), CFG16)
        cases[f"{s}-overflow-y0-zero"] = _mp(s, _overflow_problem(), CFG16, y0_zero=True)
    cases["ir-converged"] = _ir(20, 1e-3)
    cases["ir-non-convergence"] = _ir(2, 1e-1)
    cases["ir-diverges"] = _ir_diverges
    cases["stat-diverges"] = _stat(np.ones((1, 1)), np.full((1, 1), 1e100))
    cases["stat-nan-rhs"] = _stat(np.full((1, 1), np.nan), np.zeros((1, 1)))
    cases["gmres-ul"] = _gmres(dense)
    cases["gmres-preconditioner"] = _gmres(_singular_problem())
    cases["gmres-ul-binary16"] = _gmres(dense, CFG16)
    cases["gmres-ul-overflow-binary16"] = _gmres(_overflow_problem(), CFG16)
    # restarts of 3 inner steps that fail to shrink the residual below 0.9
    # of its value at the cycle start
    cases["gmres-ul-stagnates"] = _gmres(
        generate(ProblemGenerator("logspace-conditioned", 10, 10, 10.0, seed=3)), restart=3)
    return cases


def outcome(name):
    counter = FlopCounter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        X, iters, failure, res, inner = _cases()[name](counter)
    return {"iterations": iters, "slug": _slug(failure), "flops": dict(counter.counts),
            "x_sha": _sha(X), "residual": repr(float(res)), "inner": inner}


GOLDEN = {
    "gmres-preconditioner": {
        "iterations": 0, "slug": "preconditioner", "inner": [],
        "flops": {"high": 84, "precond": 72},
        "x_sha": "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
        "residual": "nan",
    },
    "gmres-ul": {
        "iterations": 3, "slug": "ok", "inner": [2, 2, 2],
        "flops": {"low": 4902, "high": 1380, "precond": 2700, "gmres": 9279},
        "x_sha": "48659f5127a9f8ece1be5f3c615e306f80b77847b69e01500b7a2907995a0d68",
        "residual": "2.3825275647541112e-17",
    },
    "gmres-ul-binary16": {
        "iterations": 3, "slug": "ok", "inner": [2, 2, 0],
        "flops": {"low": 3582, "high": 1380, "precond": 2700, "gmres": 6227},
        "x_sha": "da2f9f29dbd8afbd181d33d11fab6aa2377961702ec3d313ab16e7a18a5abad2",
        "residual": "4.4478445471591336e-07",
    },
    "gmres-ul-overflow-binary16": {
        "iterations": 0, "slug": "preconditioner", "inner": [],
        "flops": {"low": 1731, "high": 216, "precond": 188},
        "x_sha": "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5",
        "residual": "nan",
    },
    "gmres-ul-stagnates": {
        "iterations": 1, "slug": "gmres_stagnation", "inner": [6],
        "flops": {"low": 29920, "high": 4500, "precond": 10000, "gmres": 107444},
        "x_sha": "d0266a8c7e13b1826999c962ef1fbbf479bdc999fe40c7c0e0abaa842f8858ac",
        "residual": "5.261451215083735e-08",
    },
    "inv-hermitian": {
        "iterations": 2, "slug": "ok", "inner": None,
        "flops": {"low": 6717, "high": 5160},
        "x_sha": "13db3dedd3068c844d0a2482b926750e89b37fc8f17735a1f847e2ba7ce57063",
        "residual": "7.965165202101088e-17",
    },
    "inv-lyapunov": {
        "iterations": 2, "slug": "ok", "inner": None,
        "flops": {"low": 6106, "high": 5669},
        "x_sha": "e6ca09538764d080d275f73f9234adf73a3f8ff4bfd96418f55d9705c658ef51",
        "residual": "7.574432575689455e-17",
    },
    "inv-overflow-initial": {
        "iterations": 0, "slug": "nan_breakdown", "inner": None,
        "flops": {"low": 1751, "high": 579},
        "x_sha": "2390375b79da0ae239fb4e53f132faf1563f5eb1b1127252ccccb33a166d4ca2",
        "residual": "nan",
    },
    "inv-overflow-y0-zero": {
        "iterations": 6, "slug": "ok", "inner": None,
        "flops": {"low": 1751, "high": 2620},
        "x_sha": "222eebf4a79db4f87bd754fbaae1c7be91b0e60e6925f1f8d4008c34c4aeef4e",
        "residual": "7.956540434511747e-17",
    },
    "inv-singular-initial": {
        "iterations": 0, "slug": "singular_equation", "inner": None,
        "flops": {"high": 216, "low": 12},
        "x_sha": "eca747ae6436b60278b98f2423355beaae887286461b13487d7d2a4fc510d208",
        "residual": "nan",
    },
    "inv-singular-y0-zero": {
        "iterations": 0, "slug": "singular_equation", "inner": None,
        "flops": {"high": 325, "low": 12},
        "x_sha": "eca747ae6436b60278b98f2423355beaae887286461b13487d7d2a4fc510d208",
        "residual": "nan",
    },
    "ir-converged": {
        "iterations": 5, "slug": "ok", "inner": None,
        "flops": {"high": 941},
        "x_sha": "99ca7d7c463a977ae5a1b7bdf6507b75161f3cccb95ace01d6230bcbdbf42467",
        "residual": "4.418911565301941e-17",
    },
    "ir-diverges": {
        "iterations": 20, "slug": "non_convergence", "inner": None,
        "flops": {"high": 121},
        "x_sha": "6767bb19d0c240135d079b430530088928b038213d3c4ec5f33b2f4c038a50a3",
        "residual": "1.0",
    },
    "ir-non-convergence": {
        "iterations": 2, "slug": "non_convergence", "inner": None,
        "flops": {"high": 473},
        "x_sha": "4a8462c9e15e80a75100c144a4b1a3aac8db7a8c9746c4f0328de9403e4bbc3e",
        "residual": "0.0009725428674510933",
    },
    "orth-hermitian": {
        "iterations": 2, "slug": "ok", "inner": None,
        "flops": {"low": 6717, "high": 5840},
        "x_sha": "d885ce8c1e32755d2678b96d313d7132d0f0a251f8a425e4ac332a50bbb0c9c3",
        "residual": "5.857608805155014e-17",
    },
    "orth-lyapunov": {
        "iterations": 2, "slug": "ok", "inner": None,
        "flops": {"low": 6106, "high": 6126},
        "x_sha": "1e2d9ed14ba41c4965344b6918ab8f20318fd7fb2566eef28a443b57482b042e",
        "residual": "6.124400445372377e-17",
    },
    "orth-overflow-initial": {
        "iterations": 0, "slug": "nan_breakdown", "inner": None,
        "flops": {"low": 1751, "high": 771},
        "x_sha": "2390375b79da0ae239fb4e53f132faf1563f5eb1b1127252ccccb33a166d4ca2",
        "residual": "nan",
    },
    "orth-overflow-y0-zero": {
        "iterations": 6, "slug": "ok", "inner": None,
        "flops": {"low": 1751, "high": 2836},
        "x_sha": "3680b09bf3daf400484886fab2a95d56ec61f9b94796a38fcdc104cba731f8d1",
        "residual": "6.486093051900578e-17",
    },
    "orth-singular-initial": {
        "iterations": 0, "slug": "singular_equation", "inner": None,
        "flops": {"high": 301, "low": 12},
        "x_sha": "eca747ae6436b60278b98f2423355beaae887286461b13487d7d2a4fc510d208",
        "residual": "nan",
    },
    "orth-singular-y0-zero": {
        "iterations": 0, "slug": "singular_equation", "inner": None,
        "flops": {"high": 410, "low": 12},
        "x_sha": "eca747ae6436b60278b98f2423355beaae887286461b13487d7d2a4fc510d208",
        "residual": "nan",
    },
    "stat-diverges": {
        "iterations": 4, "slug": "nan_breakdown", "inner": None,
        "flops": {"high": 56},
        "x_sha": "ef7460540332ce6db17f0ae6bdefcee4499bec3100d12af6e0107fd9cfd53f55",
        "residual": "nan",
    },
    "stat-nan-rhs": {
        "iterations": 0, "slug": "nan_breakdown", "inner": None,
        "flops": {"high": 12},
        "x_sha": "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        "residual": "nan",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outcome(name):
    assert outcome(name) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(_cases())
