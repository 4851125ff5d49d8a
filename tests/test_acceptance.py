"""Shipping criteria, one test per criterion.

Every test enforces its stated tolerance and prints one summary line, so
a verbose run reads as a per-criterion pass/fail report.
"""

import time

import numpy as np
import pytest

from mpsylv.cli import ProblemGenerator, generate, run_sweep_cond
from mpsylv.costmodel import ALGORITHMS, CostModel, k_star, phi, flops
from mpsylv.gmresir import GmresConfig, gmres_ir_sylv
from mpsylv.linalg import cond_inf, sep_f, sylvester_kron_operator, unvec, vec
from mpsylv.precision import (
    B24,
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    TF32,
    FlopCounter,
    PrecisionContext,
    fl_add,
    round_to,
)
from mpsylv.precision import _round_real_array
from mpsylv.refinement import (
    RefinementConfig,
    ir_linear_system,
    mp_inv,
    mp_orth,
    solve_pert_sylv_tri_stat,
)
from mpsylv.sylvester import (
    SylvesterProblem,
    bartels_stewart,
    residual,
    solve_hermitian,
)

from conftest import cmat, hermitian, rand_upper

ALL_FORMATS = [BFLOAT16, BINARY16, TF32, B24, BINARY32, BINARY64]


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num} pass: {name} {detail}".rstrip())


def kron_solve(p):
    Mf = sylvester_kron_operator(p.A, p.B)
    return unvec(np.linalg.solve(Mf, vec(p.C)), p.m, p.n)


def test_criterion_1_format_simulation(rng):
    start = time.time()
    for fmt in ALL_FORMATS:
        u = fmt.unit_roundoff
        ctx = PrecisionContext(fmt)
        tie = fl_add(1.0, u, ctx).real
        assert tie in (1.0, 1.0 + 2 * u), fmt.name
        assert fl_add(1.0, u * (1 + 2.0**-30), ctx).real == 1.0 + 2 * u, fmt.name
    # one million random doubles, mixed scales, against the bit-exact
    # native conversions; zero mismatches allowed
    N = 1_000_000
    x = rng.standard_normal(N) * np.exp(rng.uniform(-90, 90, N))
    x[:100] = [0.0, -0.0, np.inf, -np.inf, np.nan, 65504.0, 65520.0,
               70000.0, 2.0**-24, 2.0**-25] * 10
    with np.errstate(over="ignore"):
        n16 = np.float16(x).astype(np.float64)
        n32 = np.float32(x).astype(np.float64)
    r16 = _round_real_array(x, BINARY16)
    r32 = _round_real_array(x, BINARY32)
    ok16 = (r16 == n16) | (np.isnan(r16) & np.isnan(n16))
    ok32 = (r32 == n32) | (np.isnan(r32) & np.isnan(n32))
    assert ok16.all() and ok32.all()
    assert (np.signbit(r16) == np.signbit(n16)).all()
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, "format simulation", f"(1e6 doubles, {elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence(rng):
    start = time.time()
    cfg = RefinementConfig(BINARY64, BINARY64)
    gcfg = GmresConfig(BINARY64)
    worst = 0.0
    for i in range(100):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 11))
        p = SylvesterProblem(cmat(rng, m, m) + 2 * np.eye(m),
                             cmat(rng, n, n) + 2 * np.eye(n),
                             cmat(rng, m, n))
        ref = kron_solve(p)
        scale = np.linalg.norm(ref)
        X_bs, _ = bartels_stewart(p)
        X_or = mp_orth(p, cfg).X
        X_in = mp_inv(p, cfg).X
        X_gm = gmres_ir_sylv(p, gcfg, cfg).X
        for X in (X_bs, X_or, X_in, X_gm):
            rel = np.linalg.norm(X - ref) / scale
            worst = max(worst, rel)
            assert rel <= 1e-11
        ph = SylvesterProblem(hermitian(rng, m, 2 + np.sqrt(m)),
                              hermitian(rng, n, 2 + np.sqrt(n)),
                              cmat(rng, m, n), kind="hermitian")
        refh = kron_solve(ph)
        rel = np.linalg.norm(solve_hermitian(ph) - refh) / np.linalg.norm(refh)
        worst = max(worst, rel)
        assert rel <= 1e-11
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, "oracle equivalence", f"(100 problems, worst {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_3_residual_reduction_regime(rng):
    cfg = RefinementConfig(BINARY32, BINARY64)
    solved = 0
    attempts = 0
    while solved < 50 and attempts < 400:
        attempts += 1
        t = float(attempts % 6)
        m = n = int(6 + (attempts % 7))
        p = generate(ProblemGenerator("logspace-conditioned", m, n, t,
                                      seed=31, stream=attempts))
        if cond_inf(sylvester_kron_operator(p.A, p.B)) > 1e6:
            continue
        solved += 1
        for solver in (mp_orth, mp_inv):
            rep = solver(p, cfg)
            assert rep.failure is None, rep.failure
            assert rep.iterations <= 10
            assert rep.residual <= 1e3 * max(m, n) * 2.0**-53
    assert solved == 50
    _report(3, "limiting residual in regime", f"(50 problems, {2 * solved} solves)")


def test_criterion_4_conditioning_sweep(tmp_path):
    start = time.time()
    rcfg = RefinementConfig(BINARY32, BINARY64)
    rows = run_sweep_cond(10, 10, list(range(0, 16)), 1, rcfg,
                          tmp_path / "sweep.csv", reproducible=True)
    elapsed = time.time() - start
    cols = ["t", "condu", "res_sylv", "r_or", "r_in", "r_gmres_ul",
            "r_gmres_uh", "i_or", "i_in", "status"]
    table = [dict(zip(cols, r)) for r in rows]
    for row in table:
        t = row["t"]
        if t <= 7:
            assert row["r_or"] <= 1e-11, (t, row["r_or"])
            assert row["r_in"] <= 1e-11, (t, row["r_in"])
            assert "or:" not in row["status"] and "in:" not in row["status"]
        if t >= 12:
            failed_or = "or:" in row["status"] or row["r_or"] > 1e-8
            failed_in = "in:" in row["status"] or row["r_in"] > 1e-8
            assert failed_or and failed_in, (t, row)

    def frontier(key):
        last = -1
        for row in table:
            if np.isfinite(row[key]) and row[key] <= 1e-8:
                last = row["t"]
            else:
                break
        return last

    t_ul, t_uh = frontier("r_gmres_ul"), frontier("r_gmres_uh")
    assert t_uh > t_ul, (t_ul, t_uh)
    assert elapsed < 120.0
    _report(4, "conditioning sweep",
            f"(gmres survives to t={t_ul} low vs t={t_uh} high, {elapsed:.0f}s)")


def test_criterion_5_cost_model_exactness():
    assert abs(phi(CostModel(10, 10, 0.0, "mp_orth_lyap")) - 3.5) <= 1e-12
    assert k_star(CostModel(10, 10, 0.0, "mp_orth_lyap")) == 3
    assert k_star(CostModel(10, 10, 0.0, "mp_orth_sylv")) == 6
    assert abs(phi(CostModel(10, 10, 0.0, "mp_inv_lyap")) - 67 / 18) <= 1e-12
    assert k_star(CostModel(10, 10, 0.0, "mp_inv_lyap")) == 3
    grid = np.arange(0.0, 1.0 + 0.005, 0.01)
    for alg in ALGORITHMS:
        ks = [k_star(CostModel(16, 16, float(r), alg)) for r in grid]
        assert all(a >= b for a, b in zip(ks, ks[1:])), alg
    _report(5, "cost model exactness", "(phi, k*, monotone on 0:0.01:1)")


def test_criterion_6_flop_instrumentation():
    # degenerate precision pair: its deflation tolerance matches the
    # convergence assumption behind the tabulated Schur constant
    start = time.time()
    m = 128
    p = generate(ProblemGenerator("random-dense", m, m, 0.0, 0))
    counter = FlopCounter()
    rep = mp_orth(p, RefinementConfig(BINARY64, BINARY64), counter)
    model = flops("mp_orth_sylv", m, m, rep.iterations)
    lo, hi = counter.get("low"), counter.get("high")
    assert abs(lo - model.low_flops) <= 0.10 * model.low_flops, lo / model.low_flops
    assert abs(hi - model.high_flops) <= 0.10 * model.high_flops, hi / model.high_flops
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(6, "flop instrumentation",
            f"(m=128, low x{lo / model.low_flops:.3f}, high x{hi / model.high_flops:.3f}, "
            f"{elapsed:.0f}s)")


def test_criterion_7_stationary_theory(rng):
    # scalar contraction ratio within 10 percent
    cfg = RefinementConfig(BINARY64, BINARY64, epsilon=1e-15, max_iter=40)
    rep = solve_pert_sylv_tri_stat(np.array([[2.0]]), np.array([[0.1]]),
                                   np.array([[3.0]]), np.array([[0.0]]),
                                   np.array([[10.5]]), np.array([[0.0]]), cfg)
    target = 0.1 / 5.0
    for i in range(1, 4):
        ratio = rep.correction_norms[i + 1] / rep.correction_norms[i]
        assert abs(ratio - target) <= 0.1 * target

    # 200 instances satisfying the sufficient condition with 2x margin
    cfg = RefinementConfig(BINARY64, BINARY64, epsilon=1e-9, max_iter=80)
    done = 0
    while done < 200:
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        T_A, T_B = rand_upper(rng, m, 2.0), rand_upper(rng, n, 2.0)
        sep = sep_f(T_A, T_B)
        if sep == 0.0:
            continue
        dA, dB = cmat(rng, m, m), cmat(rng, n, n)
        scale = sep / 2.0 / (np.linalg.norm(dA) + np.linalg.norm(dB))
        rep = solve_pert_sylv_tri_stat(T_A, scale * dA, T_B, scale * dB,
                                       cmat(rng, m, n), np.zeros((m, n)), cfg)
        assert rep.converged, rep.failure
        done += 1

    # stacked-columns equivalence on mn <= 36
    for m, n in ((3, 2), (6, 6), (4, 9)):
        T_A, T_B = rand_upper(rng, m), rand_upper(rng, n)
        dA, dB = 0.05 * cmat(rng, m, m), 0.05 * cmat(rng, n, n)
        C = cmat(rng, m, n)
        cfg = RefinementConfig(BINARY64, BINARY64, epsilon=1e-300, max_iter=6)
        r1 = solve_pert_sylv_tri_stat(T_A, dA, T_B, dB, C, np.zeros((m, n)), cfg)
        M = sylvester_kron_operator(T_A, T_B) + sylvester_kron_operator(dA, dB)
        r2 = ir_linear_system(M, sylvester_kron_operator(dA, dB), vec(C),
                              np.zeros(m * n), cfg)
        assert np.linalg.norm(vec(r1.X) - r2.X) <= 1e-12 * np.linalg.norm(r2.X)
    _report(7, "stationary iteration theory",
            "(contraction, 200/200 sufficient-condition, vec equivalence)")


def test_criterion_8_singular_equation_behavior(rng):
    # lambda in the spectrum of A with -lambda in the spectrum of B: the
    # initial triangular solve must fail in a typed way, not crash
    A = np.triu(cmat(rng, 4, 4))
    B = np.triu(cmat(rng, 3, 3))
    A[0, 0], B[0, 0] = 0.75, -0.75
    p = SylvesterProblem(A, B, np.ones((4, 3)))
    cfg = RefinementConfig(TF32, BINARY64)
    for solver in (mp_orth, mp_inv):
        rep = solver(p, cfg)
        assert not rep.converged
        assert rep.failure is not None
        assert rep.failure.startswith(("singular_equation", "nan_breakdown"))
        assert "initial triangular solve" in rep.detail
        assert np.isnan(rep.X).all()
    _report(8, "singular equation behavior", "(typed failure at the initial solve)")


def test_criterion_9_cli_determinism(tmp_path):
    rcfg = RefinementConfig(BINARY32, BINARY64)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep_cond(8, 8, [0, 1, 2, 3], 13, rcfg, a, reproducible=True)
    run_sweep_cond(8, 8, [0, 1, 2, 3], 13, rcfg, b, reproducible=True)
    assert a.read_bytes() == b.read_bytes()
    _report(9, "CLI determinism", "(byte-identical reproducible sweeps)")
