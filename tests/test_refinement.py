import math
import warnings

import numpy as np
import pytest

from mpsylv.errors import Failure, NumericBreakdownError
from mpsylv.linalg import mgs_qr, schur, sep_f, sylvester_kron_operator, unvec, vec
from mpsylv.precision import (
    B24,
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    TF32,
    PrecisionContext,
)
from mpsylv.refinement import (
    RefinementConfig,
    _refine,
    check_convergence_regime,
    ir_linear_system,
    mp_inv,
    mp_orth,
    solve_pert_sylv_tri_stat,
)
from mpsylv.sylvester import SylvesterProblem, bartels_stewart, residual

from conftest import cmat, hermitian, rand_upper

CFG64 = RefinementConfig(BINARY64, BINARY64)
CFG32 = RefinementConfig(BINARY32, BINARY64)


class TestConfig:
    def test_epsilon_defaults(self):
        assert CFG64.resolve_epsilon(7, 12) == 1e-12 * 12
        cfg = RefinementConfig(TF32, BINARY32)
        assert cfg.resolve_epsilon(5, 5) == 1e4 * BINARY32.unit_roundoff * 5

    def test_rejects_coarser_high_precision(self):
        with pytest.raises(ValueError):
            RefinementConfig(BINARY64, BINARY32)

    def test_degenerate_equal_precisions_allowed(self):
        RefinementConfig(BINARY64, BINARY64)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-8, math.nan, math.inf])
    def test_rejects_epsilon_not_positive_and_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            RefinementConfig(BINARY32, BINARY64, epsilon=epsilon)

    def test_max_iter_default(self):
        assert RefinementConfig(BINARY32, BINARY64).max_iter == 20


class TestStationary:
    def test_exact_start_converges_immediately(self, rng):
        T_A, T_B = rand_upper(rng, 4), rand_upper(rng, 3)
        Y = cmat(rng, 4, 3)
        C = T_A @ Y + Y @ T_B
        rep = solve_pert_sylv_tri_stat(T_A, np.zeros((4, 4)), T_B,
                                       np.zeros((3, 3)), C, Y, CFG64)
        assert rep.converged and rep.iterations == 1
        assert rep.correction_norms[0] <= 1e-13 * np.linalg.norm(Y)

    def test_scalar_fixed_point(self):
        # y <- y + (10.5 - 5.1 y)/5 contracts at |0.1| / |5| = 0.02
        cfg = RefinementConfig(BINARY64, BINARY64, epsilon=1e-15, max_iter=40)
        rep = solve_pert_sylv_tri_stat(np.array([[2.0]]), np.array([[0.1]]),
                                       np.array([[3.0]]), np.array([[0.0]]),
                                       np.array([[10.5]]), np.array([[0.0]]), cfg)
        assert rep.converged
        assert rep.X[0, 0].real == pytest.approx(10.5 / 5.1, rel=1e-14)
        # geometric decay of the corrections at the predicted ratio
        ratios = [rep.correction_norms[i + 1] / rep.correction_norms[i]
                  for i in range(1, 4)]
        for r in ratios:
            assert r == pytest.approx(0.02, rel=0.1)

    def test_scalar_divergence_when_condition_violated(self):
        # |dT_A| / |T_A + T_B| = 0.5 / 0.1 = 5 > 1
        cfg = RefinementConfig(BINARY64, BINARY64, epsilon=1e-12, max_iter=15)
        rep = solve_pert_sylv_tri_stat(np.array([[1.0]]), np.array([[0.5]]),
                                       np.array([[-0.9]]), np.array([[0.0]]),
                                       np.array([[1.0]]), np.array([[0.0]]), cfg)
        assert not rep.converged
        assert rep.correction_norms[-1] > rep.correction_norms[0]

    def test_sufficient_condition_suite(self, rng):
        # 200 instances satisfying the separation inequality with a 2x
        # margin must all converge (geometric rate at worst ~1/2, so the
        # iteration budget here is sized for the rate, not for speed)
        cfg = RefinementConfig(BINARY64, BINARY64, epsilon=1e-9, max_iter=80)
        converged = 0
        for _ in range(200):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            T_A, T_B = rand_upper(rng, m, 2.0), rand_upper(rng, n, 2.0)
            sep = sep_f(T_A, T_B)
            if sep == 0.0:
                continue
            dA, dB = cmat(rng, m, m), cmat(rng, n, n)
            scale = sep / 2.0 / (np.linalg.norm(dA) + np.linalg.norm(dB))
            dA, dB = scale * dA, scale * dB
            assert np.linalg.norm(dA) + np.linalg.norm(dB) < sep
            C = cmat(rng, m, n)
            rep = solve_pert_sylv_tri_stat(T_A, dA, T_B, dB, C,
                                           np.zeros((m, n)), cfg)
            assert rep.converged, rep.failure
            converged += 1
        assert converged == 200

    def test_vec_equivalence_with_linear_ir(self, rng):
        # identical iterates through the stacked-columns correspondence
        for m, n in ((3, 2), (6, 6), (4, 9)):
            T_A, T_B = rand_upper(rng, m), rand_upper(rng, n)
            dA = 0.05 * cmat(rng, m, m)
            dB = 0.05 * cmat(rng, n, n)
            C = cmat(rng, m, n)
            cfg = RefinementConfig(BINARY64, BINARY64, epsilon=1e-300, max_iter=6)
            r1 = solve_pert_sylv_tri_stat(T_A, dA, T_B, dB, C,
                                          np.zeros((m, n)), cfg)
            M = sylvester_kron_operator(T_A, T_B) + sylvester_kron_operator(dA, dB)
            dM = sylvester_kron_operator(dA, dB)
            r2 = ir_linear_system(M, dM, vec(C), np.zeros(m * n), cfg)
            assert np.linalg.norm(vec(r1.X) - r2.X) <= 1e-12 * np.linalg.norm(r2.X)
            assert r1.iterations == r2.iterations

    def test_nan_breakdown_is_reported_not_raised(self, rng):
        T_A = rand_upper(rng, 3)
        T_B = rand_upper(rng, 2)
        C = cmat(rng, 3, 2)
        C[0, 0] = np.nan
        rep = solve_pert_sylv_tri_stat(T_A, np.zeros((3, 3)), T_B,
                                       np.zeros((2, 2)), C, np.zeros((3, 2)), CFG64)
        assert not rep.converged
        assert rep.failure and "nan_breakdown" in rep.failure


class TestRefineLoop:
    """The order of checks the shared refinement loop applies."""

    @staticmethod
    def run(corrections, **kw):
        steps = iter(corrections)
        return _refine(np.zeros(1, dtype=complex), lambda x: next(steps),
                       PrecisionContext(BINARY64), 1e-12, 3, **kw)

    def test_failed_step_leaves_iterate_and_count(self):
        def step(x):
            raise NumericBreakdownError("boom")
        x, k, norms, failure, detail = _refine(
            np.ones(1, dtype=complex), step, PrecisionContext(BINARY64), 1e-12, 3,
            step_errors=NumericBreakdownError, step_failure=Failure.NAN_BREAKDOWN)
        assert (x[0], k, norms, failure, detail) == (1, 0, [], Failure.NAN_BREAKDOWN, "boom")

    def test_non_finite_comes_before_acceptance(self):
        accepted = []
        _, k, _, failure, _ = self.run([np.array([np.inf])],
                                       accept=lambda x: accepted.append(x) or True)
        assert (k, failure, len(accepted)) == (1, Failure.NAN_BREAKDOWN, 1)

    def test_acceptance_comes_before_stall(self):
        _, k, _, failure, _ = self.run([np.ones(1)], accept=lambda x: True,
                                       stalled=lambda: True)
        assert (k, failure) == (1, None)

    def test_finite_iterate_past_1e154_is_not_a_breakdown(self):
        # the unscaled sum of squares overflows; the entries do not
        _, k, norms, failure, _ = self.run([np.array([1e250]), np.array([1e-10])])
        assert (k, failure) == (2, None) and norms == [1e250, 1e-10]

    def test_norm_past_the_largest_double_is_a_breakdown(self):
        big = np.array([1.5e308, 1.5e308])
        x, k, _, failure, _ = _refine(np.zeros(2, dtype=complex), lambda x: big,
                                      PrecisionContext(BINARY64), 1e-12, 3)
        assert np.isfinite(x).all() and (k, failure) == (1, Failure.NAN_BREAKDOWN)

    def test_stall_then_iteration_limit(self):
        _, k, norms, failure, _ = self.run([np.ones(1)], stalled=lambda: True)
        assert (k, norms, failure) == (1, [1.0], Failure.GMRES_STAGNATION)
        _, k, norms, failure, _ = self.run([np.ones(1)] * 3, stalled=lambda: False)
        assert (k, norms, failure) == (3, [1.0] * 3, Failure.NON_CONVERGENCE)


class TestIrLinearSystem:
    def test_large_right_hand_side_converges_like_a_small_one(self):
        # x ~ 1e250 squares past the largest double; only a scaled norm
        # sees that it is finite
        with np.errstate(over="ignore"):  # the reported residual's unscaled norms
            reps = [ir_linear_system(np.eye(1), 2.0**-30 * np.eye(1), [b], [0],
                                     RefinementConfig(BINARY32, BINARY64))
                    for b in (1e250, 1.0)]
        for rep in reps:
            assert rep.converged and rep.failure is None and rep.iterations == 3
        assert reps[0].X[0] == 1e250

    def test_diverged_iterate_has_a_finite_residual_and_no_warning(self):
        # each step multiplies the error by about -2^40; after 20 steps
        # x ~ -6.7e240, whose residual needs a scaled norm
        cfg = RefinementConfig(BINARY64, BINARY64, max_iter=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ir_linear_system(np.eye(1), np.eye(1) - 2.0**-40, np.ones(1),
                                   np.zeros(1), cfg)
        assert rep.failure == Failure.NON_CONVERGENCE and np.isfinite(rep.X).all()
        assert rep.residual == 1.0

    def test_unperturbed_converges_fast(self, rng):
        M = cmat(rng, 8, 8) + 4 * np.eye(8)
        b = cmat(rng, 8, 1).ravel()
        rep = ir_linear_system(M, np.zeros((8, 8)), b, np.zeros(8), CFG64)
        assert rep.converged and rep.iterations <= 2
        assert np.linalg.norm(M @ rep.X - b) <= 1e-13 * np.linalg.norm(b)

    def test_scalar_geometric_contraction(self):
        # with M = 1 and dM = 1/3 the solver inverts 2/3, so the error
        # contracts by |dM / (M - dM)| = 1/2 per step toward x = 1;
        # oracle: iterate the scalar recurrence directly
        M, dM, b = 1.0, 1.0 / 3.0, 1.0
        x, errs = 0.0, []
        for _ in range(8):
            x = x + (b - M * x) / (M - dM)
            errs.append(abs(x - 1.0))
        for i in range(1, 7):
            assert errs[i + 1] / errs[i] == pytest.approx(0.5, rel=1e-12)
        cfg = RefinementConfig(BINARY64, BINARY64, epsilon=1e-300, max_iter=8)
        rep = ir_linear_system(np.array([[M]]), np.array([[dM]]),
                               np.array([b]), np.array([0.0]), cfg)
        assert rep.X[0].real == pytest.approx(x, abs=1e-15)

    def test_perturbation_slows_but_converges(self, rng):
        M = cmat(rng, 6, 6) + 4 * np.eye(6)
        dM = 0.05 * cmat(rng, 6, 6)
        b = cmat(rng, 6, 1).ravel()
        rep = ir_linear_system(M, dM, b, np.zeros(6),
                               RefinementConfig(BINARY64, BINARY64, max_iter=40))
        assert rep.converged
        assert np.linalg.norm(M @ rep.X - b) <= 1e-10 * np.linalg.norm(b)


def _random_problem(rng, m, n):
    return SylvesterProblem(cmat(rng, m, m), cmat(rng, n, n), cmat(rng, m, n))


class TestMixedPrecisionSolvers:
    @pytest.mark.parametrize("solver", [mp_orth, mp_inv])
    def test_degenerate_binary64_matches_bartels_stewart(self, solver, rng):
        p = _random_problem(rng, 8, 6)
        X_bs, _ = bartels_stewart(p)
        rep = solver(p, CFG64)
        assert rep.converged and rep.iterations <= 2
        assert np.linalg.norm(rep.X - X_bs) <= 1e-12 * np.linalg.norm(X_bs)
        assert rep.residual <= 1e-14

    @pytest.mark.parametrize("solver", [mp_orth, mp_inv])
    def test_residual_within_10x_of_direct(self, solver, rng):
        for _ in range(5):
            p = _random_problem(rng, 7, 5)
            _, dr = bartels_stewart(p)
            rep = solver(p, CFG64)
            assert rep.residual <= 10 * max(dr.residual, 1e-17)

    @pytest.mark.parametrize("solver", [mp_orth, mp_inv])
    def test_binary32_low_precision_recovers_binary64_residual(self, solver, rng):
        from mpsylv.cli import ProblemGenerator, generate
        p = generate(ProblemGenerator("logspace-conditioned", 10, 10, 2.0, 7))
        rep = solver(p, CFG32)
        assert rep.converged
        assert rep.iterations <= 4
        assert rep.residual <= 1e-14

    @pytest.mark.parametrize("solver", [mp_orth, mp_inv])
    def test_divergence_on_extreme_conditioning(self, solver, rng):
        from mpsylv.cli import ProblemGenerator, generate
        p = generate(ProblemGenerator("logspace-conditioned", 10, 10, 12.0, 7))
        rep = solver(p, CFG32)
        assert (not rep.converged) or rep.residual > 100 * BINARY64.unit_roundoff

    @pytest.mark.parametrize("solver", [mp_orth, mp_inv])
    def test_lyapunov_kind(self, solver, rng):
        A = cmat(rng, 7, 7) + 4 * np.eye(7)
        p = SylvesterProblem(A, A.conj().T, hermitian(rng, 7), kind="lyapunov")
        rep = solver(p, CFG32)
        assert rep.converged and rep.residual <= 1e-14

    @pytest.mark.parametrize("solver", [mp_orth, mp_inv])
    def test_singular_equation_reported_at_initial_solve(self, solver, rng):
        A = np.triu(cmat(rng, 3, 3))
        B = np.triu(cmat(rng, 2, 2))
        A[0, 0], B[0, 0] = 1.0, -1.0
        p = SylvesterProblem(A, B, np.ones((3, 2)))
        rep = solver(p, CFG32)
        assert not rep.converged
        assert rep.failure is not None
        assert "initial triangular solve" in rep.detail
        assert rep.failure.startswith(("singular_equation", "nan_breakdown"))
        assert np.isnan(rep.X).all()

    @pytest.mark.parametrize("solver", [mp_orth, mp_inv])
    def test_y0_zero_override_continues_past_failed_initial_solve(self, solver, rng):
        A = np.triu(cmat(rng, 3, 3))
        B = np.triu(cmat(rng, 2, 2))
        A[0, 0], B[0, 0] = 1.0, -1.0
        p = SylvesterProblem(A, B, np.ones((3, 2)))
        rep = solver(p, CFG32, y0_zero=True)
        # the equation itself is singular, so refinement still fails, but
        # through the refinement stage rather than at the initial solve
        assert not rep.converged
        assert "refinement" in rep.detail

    def test_iteration_counts_close_between_variants(self, rng):
        from mpsylv.cli import ProblemGenerator, generate
        for t in (1.0, 3.0, 5.0):
            p = generate(ProblemGenerator("logspace-conditioned", 8, 8, t, 11))
            a = mp_orth(p, CFG32)
            b = mp_inv(p, CFG32)
            assert abs(a.iterations - b.iterations) <= 2

    def test_positive_qr_diagonals_inside_mp_orth(self, rng):
        # the orthonormalized factors must carry positive diagonals
        p = _random_problem(rng, 6, 4)
        ctx_l = PrecisionContext(BINARY32)
        sf = schur(np.asarray(p.A, dtype=complex), ctx_l)
        f = mgs_qr(sf.U, PrecisionContext(BINARY64))
        assert np.diag(f.R).real.min() > 0

    def test_naive_low_precision_recovery_fails(self, rng):
        # recovering with the raw low-precision Schur vectors caps the
        # residual at the low precision, unlike the orthonormalized route
        p = _random_problem(rng, 8, 8)
        u_l = BFLOAT16
        ctx_l = PrecisionContext(u_l)
        ctx_h = PrecisionContext(BINARY64)
        from mpsylv.precision import round_matrix
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sf_A = schur(round_matrix(p.A, u_l), ctx_l)
            sf_B = schur(round_matrix(p.B, u_l), ctx_l)
        from mpsylv.linalg import gemm
        from mpsylv.sylvester import solve_sylv_tri
        F = gemm(1.0, gemm(1.0, sf_A.U.conj().T, p.C, 0.0, None, ctx_h),
                 sf_B.U, 0.0, None, ctx_h)
        L_A = gemm(1.0, gemm(1.0, sf_A.U.conj().T, p.A, 0.0, None, ctx_h),
                   sf_A.U, 0.0, None, ctx_h) - sf_A.T
        L_B = gemm(1.0, gemm(1.0, sf_B.U.conj().T, p.B, 0.0, None, ctx_h),
                   sf_B.U, 0.0, None, ctx_h) - sf_B.T
        inner = solve_pert_sylv_tri_stat(sf_A.T, L_A, sf_B.T, L_B, F,
                                         np.zeros((8, 8)), CFG64)
        X_naive = sf_A.U @ inner.X @ sf_B.U.conj().T
        naive_res = residual(p, X_naive)
        good = mp_orth(p, RefinementConfig(u_l, BINARY64))
        assert naive_res > 1e-2 * u_l.unit_roundoff
        assert good.residual < naive_res / 10


class TestConvergenceRegime:
    def test_table_rows(self):
        r = check_convergence_regime(BINARY32, BINARY64, 1e6)
        assert r.in_regime and r.threshold == 1e8
        assert r.expected_backward == 2.0**-53
        r = check_convergence_regime(BFLOAT16, BINARY64, 1e5)
        assert not r.in_regime and r.threshold == 1e3
        r = check_convergence_regime(TF32, BINARY32, 1e3)
        assert r.in_regime and r.threshold == 1e4
        assert r.expected_backward == 2.0**-24
        assert check_convergence_regime(BINARY16, BINARY64, 1.0).threshold == 1e4

    def test_forward_factor_is_high_roundoff(self):
        r = check_convergence_regime(B24, BINARY64, 10.0)
        assert r.expected_forward_factor == BINARY64.unit_roundoff

    def test_limiting_residual_within_regime(self, rng):
        from mpsylv.cli import ProblemGenerator, generate
        from mpsylv.linalg import cond_inf
        count = 0
        for t in (0.0, 1.0, 2.0, 3.0):
            p = generate(ProblemGenerator("logspace-conditioned", 8, 8, t, 23))
            kappa = cond_inf(sylvester_kron_operator(p.A, p.B))
            regime = check_convergence_regime(BINARY32, BINARY64, kappa)
            if not regime.in_regime:
                continue
            count += 1
            for solver in (mp_orth, mp_inv):
                rep = solver(p, CFG32)
                assert rep.residual <= 1e3 * 8 * BINARY64.unit_roundoff
        assert count >= 3
