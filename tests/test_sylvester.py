import numpy as np
import pytest

import mpsylv.sylvester as sylvester
from mpsylv import cli
from mpsylv.errors import (
    DimensionError,
    FormatOverflowError,
    IterationLimitError,
    MpsylvError,
    NonFiniteInputError,
    SingularEquationError,
)
from mpsylv.gmresir import GmresConfig, gmres_ir_sylv
from mpsylv.linalg import cond_inf, schur, sylvester_kron_operator, unvec, vec
from mpsylv.precision import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    TF32,
    B24,
    FlopCounter,
    PrecisionContext,
    fl_div,
    round_matrix,
)
from mpsylv.refinement import RefinementConfig, mp_inv, mp_orth
from mpsylv.sylvester import (
    SylvesterProblem,
    _schur_pair,
    _shared_schur_pairs,
    bartels_stewart,
    residual,
    solution_norm_bound,
    solve_hermitian,
    solve_sylv_tri,
)

from conftest import cmat, hermitian, rand_upper

CTX = PrecisionContext(BINARY64)


def kron_solve(p):
    Mf = sylvester_kron_operator(p.A, p.B)
    return unvec(np.linalg.solve(Mf, vec(p.C)), p.m, p.n)


class TestSolveSylvTri:
    def test_scalar(self):
        Y = solve_sylv_tri(np.array([[2.0]]), np.array([[3.0]]),
                           np.array([[10.0]]), CTX)
        assert Y[0, 0] == 2.0

    def test_two_by_one_matches_kronecker_oracle(self):
        T_A = np.array([[1.0, 1.0], [0.0, 2.0]])
        T_B = np.array([[3.0]])
        C = np.array([[5.0], [6.0]])
        Y = solve_sylv_tri(T_A, T_B, C, CTX)
        ref = unvec(np.linalg.solve(sylvester_kron_operator(T_A, T_B), vec(C)), 2, 1)
        assert np.abs(Y - ref).max() < 1e-14
        assert np.allclose(Y.ravel(), [0.95, 1.2])

    def test_singular_pair_is_typed(self):
        with pytest.raises(SingularEquationError) as exc:
            solve_sylv_tri(np.array([[1.0]]), np.array([[-1.0]]),
                           np.array([[1.0]]), CTX)
        assert (exc.value.row, exc.value.col) == (0, 0)

    def test_random_upper_pair(self, rng):
        T_A, T_B = rand_upper(rng, 7), rand_upper(rng, 5)
        C = cmat(rng, 7, 5)
        Y = solve_sylv_tri(T_A, T_B, C, CTX)
        assert np.linalg.norm(T_A @ Y + Y @ T_B - C) < 1e-12 * np.linalg.norm(C)

    def test_lower_t_b_adjoint_path(self, rng):
        T_A = rand_upper(rng, 6)
        T_B = T_A.conj().T
        C = cmat(rng, 6, 6)
        Y = solve_sylv_tri(T_A, T_B, C, CTX)
        assert np.linalg.norm(T_A @ Y + Y @ T_B - C) < 1e-12 * np.linalg.norm(C)

    def test_rejects_full_t_a(self, rng):
        with pytest.raises(DimensionError):
            solve_sylv_tri(cmat(rng, 3, 3), rand_upper(rng, 2), cmat(rng, 3, 2), CTX)

    def test_flop_count_matches_mn_m_plus_n(self, rng):
        for m, n in ((12, 9), (20, 20)):
            counter = FlopCounter()
            ctx = PrecisionContext(BINARY64, counter, "w")
            solve_sylv_tri(rand_upper(rng, m), rand_upper(rng, n),
                           cmat(rng, m, n), ctx)
            model = m * n * (m + n)
            assert abs(counter.get("w") - model) <= 0.1 * model


class TestBartelsStewart:
    def test_identity_pair(self):
        p = SylvesterProblem(np.eye(2), np.eye(2), 2 * np.eye(2))
        X, rep = bartels_stewart(p, CTX)
        assert np.allclose(X, np.eye(2), atol=1e-14)

    def test_decoupled_diagonal(self):
        p = SylvesterProblem(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]),
                             np.ones((2, 2)))
        X, _ = bartels_stewart(p, CTX)
        assert np.allclose(X.real, [[1 / 4, 1 / 5], [1 / 5, 1 / 6]], atol=1e-14)

    def test_kronecker_oracle_agreement(self, rng):
        p = SylvesterProblem(cmat(rng, 8, 8), cmat(rng, 6, 6), cmat(rng, 8, 6))
        X, rep = bartels_stewart(p, CTX)
        ref = kron_solve(p)
        assert np.linalg.norm(X - ref) / np.linalg.norm(ref) < 1e-12
        assert rep.residual < 1e-14

    def test_oracle_equivalence_well_separated(self, rng):
        hits = 0
        for _ in range(30):
            m, n = rng.integers(2, 11), rng.integers(2, 11)
            p = SylvesterProblem(cmat(rng, m, m), cmat(rng, n, n), cmat(rng, m, n))
            Mf = sylvester_kron_operator(p.A, p.B)
            from mpsylv.linalg import sep_f, norm
            if sep_f(p.A, p.B) <= 0.01 * norm(Mf, "two"):
                continue
            hits += 1
            X, _ = bartels_stewart(p, CTX)
            ref = kron_solve(p)
            assert np.linalg.norm(X - ref) / np.linalg.norm(ref) <= 1e-11
        assert hits >= 10

    @pytest.mark.parametrize("fmt", [BFLOAT16, BINARY16, TF32, B24, BINARY32, BINARY64])
    def test_residual_stability_per_format(self, fmt, rng):
        # well conditioned problems only: kappa under 1/(100 u); near-scalar
        # coefficients keep even the bfloat16 threshold satisfiable
        u = fmt.unit_roundoff
        done = 0
        for _ in range(20):
            m, n = 5, 4
            p = SylvesterProblem(np.eye(m) + 0.05 * cmat(rng, m, m),
                                 np.eye(n) + 0.05 * cmat(rng, n, n),
                                 cmat(rng, m, n))
            if cond_inf(sylvester_kron_operator(p.A, p.B)) > 1.0 / (100 * u):
                continue
            done += 1
            X, rep = bartels_stewart(p, PrecisionContext(fmt))
            assert rep.residual <= 100 * max(m, n) * u
            if done >= 5:
                break
        assert done >= 3

    def test_lyapunov_single_schur_hermitian_solution(self, rng):
        A = cmat(rng, 6, 6) + 4 * np.eye(6)
        C = hermitian(rng, 6)
        p = SylvesterProblem(A, A.conj().T, C, kind="lyapunov")
        X, rep = bartels_stewart(p, CTX)
        u = BINARY64.unit_roundoff
        assert rep.schur_B.U is rep.schur_A.U
        assert np.linalg.norm(X - X.conj().T) <= 100 * 6 * u * np.linalg.norm(X)
        assert rep.residual < 1e-14

    def test_kind_validation(self, rng):
        A = cmat(rng, 3, 3)
        with pytest.raises(ValueError):
            SylvesterProblem(A, A, cmat(rng, 3, 3), kind="lyapunov")
        with pytest.raises(ValueError):
            SylvesterProblem(A, A.conj().T, cmat(rng, 3, 3), kind="hermitian")


class TestProblemValidation:
    @pytest.mark.parametrize("where", ["A", "B", "C"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry_is_typed(self, where, value, rng):
        mats = {"A": cmat(rng, 3, 3), "B": cmat(rng, 2, 2), "C": cmat(rng, 3, 2)}
        mats[where][0, 0] = value
        with pytest.raises(NonFiniteInputError, match=where) as exc:
            SylvesterProblem(mats["A"], mats["B"], mats["C"])
        assert isinstance(exc.value, MpsylvError) and isinstance(exc.value, ValueError)

    def test_structure_check_holds_past_the_unscaled_norms_overflow(self):
        # ||A||_F squares past the largest double; an unscaled norm would
        # read inf and let any B through
        A = np.array([[1e200, 1e200], [0.0, 1.0]])
        with pytest.raises(ValueError, match="B = A"):
            SylvesterProblem(A, -A.T, np.ones((2, 2)), kind="lyapunov")
        with pytest.raises(ValueError, match="Hermitian"):
            SylvesterProblem(A, np.eye(2), np.ones((2, 2)), kind="hermitian")
        p = SylvesterProblem(A, A.T, np.ones((2, 2)), kind="lyapunov")
        assert p.kind == "lyapunov"


CFG16 = RefinementConfig(BINARY16, BINARY64)
SCHUR_SOLVERS = {
    "mp_orth": lambda p, c: mp_orth(p, CFG16, c),
    "mp_inv": lambda p, c: mp_inv(p, CFG16, c),
    "gmres_ir_sylv": lambda p, c: gmres_ir_sylv(p, GmresConfig(BINARY16), CFG16, c),
    "bartels_stewart": lambda p, c: bartels_stewart(p, PrecisionContext(BINARY16, c, "low")),
}


class TestCoefficientOverflow:
    """An entry past the low format's range fails in the Schur step's entry
    check, before any flop, not after 30 m stalled QR sweeps."""

    @pytest.mark.parametrize("solver", sorted(SCHUR_SOLVERS))
    def test_raises_format_overflow_before_any_flop(self, solver, rng):
        A = rng.standard_normal((6, 6)) + 4 * np.eye(6)
        A[0, 1] = 1e5  # binary16 holds at most 65504
        p = SylvesterProblem(A, rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
        counter = FlopCounter()
        with pytest.raises(FormatOverflowError):
            SCHUR_SOLVERS[solver](p, counter)
        assert counter.total() == 0


class TestSolveHermitian:
    def test_identity_pair(self):
        p = SylvesterProblem(np.eye(2), np.eye(2), 2 * np.ones((2, 2)),
                             kind="hermitian")
        X = solve_hermitian(p, CTX)
        assert np.allclose(X, np.ones((2, 2)), atol=1e-13)

    def test_known_2x1(self):
        p = SylvesterProblem(np.array([[2.0, 1.0], [1.0, 2.0]]),
                             np.array([[4.0]]), np.array([[6.0], [6.0]]),
                             kind="hermitian")
        X = solve_hermitian(p, CTX)
        assert np.allclose(X.ravel().real, [6 / 7, 6 / 7], atol=1e-12)

    def test_agrees_with_general_path(self, rng):
        A = hermitian(rng, 5, shift=3.0)
        B = hermitian(rng, 4, shift=3.0)
        C = cmat(rng, 5, 4)
        ph = SylvesterProblem(A, B, C, kind="hermitian")
        pg = SylvesterProblem(A, B, C)
        Xh = solve_hermitian(ph, CTX)
        Xg, _ = bartels_stewart(pg, CTX)
        assert np.linalg.norm(Xh - Xg) / np.linalg.norm(Xg) < 1e-11

    def test_zero_eigen_sum_is_typed(self):
        p = SylvesterProblem(np.array([[1.0]]), np.array([[-1.0]]),
                             np.array([[1.0]]), kind="hermitian")
        with pytest.raises(SingularEquationError):
            solve_hermitian(p, CTX)

    @pytest.mark.parametrize("fmt", [BFLOAT16, BINARY32], ids=lambda f: f.name)
    def test_eigenvalue_sums_are_rounded(self, fmt, monkeypatch):
        p = cli.generate(cli.ProblemGenerator("hermitian", 6, 5, 0.0, seed=3))
        divisors = []

        def spy(a, b, ctx):
            divisors.append(np.asarray(b, dtype=np.complex128))
            return fl_div(a, b, ctx)

        monkeypatch.setattr(sylvester, "fl_div", spy)
        solve_hermitian(p, PrecisionContext(fmt))
        (denom,) = divisors
        assert denom.shape == (6, 5)
        assert (round_matrix(denom, fmt) == denom).all()


class TestResidual:
    def test_exact_solution_tiny(self):
        p = SylvesterProblem(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]),
                             np.ones((2, 2)))
        X = np.array([[1 / 4, 1 / 5], [1 / 5, 1 / 6]])
        assert residual(p, X) <= 1e-15

    def test_zero_solution_is_one(self, rng):
        p = SylvesterProblem(cmat(rng, 3, 3), cmat(rng, 2, 2), cmat(rng, 3, 2))
        assert residual(p, np.zeros((3, 2))) == 1.0

    def test_single_entry_perturbation_scales(self, rng):
        p = SylvesterProblem(cmat(rng, 4, 4), cmat(rng, 3, 3), cmat(rng, 4, 3))
        X = kron_solve(p)
        delta = 1e-6
        Xp = X.copy()
        Xp[1, 2] += delta
        E = np.zeros((4, 3))
        E[1, 2] = delta
        expected = np.linalg.norm(p.A @ E + E @ p.B)
        den = (np.linalg.norm(p.C)
               + np.linalg.norm(Xp) * (np.linalg.norm(p.A) + np.linalg.norm(p.B)))
        assert residual(p, Xp) == pytest.approx(expected / den, rel=1e-6)

    def test_norm_bound_diagnostic(self, rng):
        p = SylvesterProblem(cmat(rng, 4, 4) + 3 * np.eye(4),
                             cmat(rng, 3, 3) + 3 * np.eye(3), cmat(rng, 4, 3))
        X = kron_solve(p)
        assert np.linalg.norm(X) <= solution_norm_bound(p) * (1 + 1e-6)


class TestSharedSchurPairs:
    """`_schur_pair` inside and outside a `_shared_schur_pairs` scope."""

    @pytest.fixture
    def schur_calls(self, monkeypatch):
        calls = []

        def counted(A, ctx):
            calls.append(ctx.format)
            return schur(A, ctx)

        monkeypatch.setattr(sylvester, "schur", counted)
        return calls

    @staticmethod
    def _problem(rng, kind="general"):
        A = cmat(rng, 4, 4) + 4 * np.eye(4)
        B = A.conj().T if kind == "lyapunov" else cmat(rng, 3, 3) + 4 * np.eye(3)
        return SylvesterProblem(A, B, cmat(rng, 4, B.shape[0]), kind=kind)

    @pytest.mark.parametrize("kind", ["general", "lyapunov"])
    def test_second_call_shares_and_charges_alike(self, rng, schur_calls, kind):
        p = self._problem(rng, kind)
        first, second = FlopCounter(), FlopCounter()
        with _shared_schur_pairs():
            one = _schur_pair(p, PrecisionContext(BINARY32, first, "low"))
            n_calls = len(schur_calls)
            two = _schur_pair(p, PrecisionContext(BINARY32, second, "precond"))
        assert len(schur_calls) == n_calls == (1 if kind == "lyapunov" else 2)
        for a, b in zip(one, two):
            assert a.U is b.U and a.T is b.T
            assert not (a.U.flags.writeable or a.T.flags.writeable)
        assert first.counts["low"] > 0
        assert second.counts == {"precond": first.counts["low"]}
        # and the same charges as a factorization outside any scope
        alone = FlopCounter()
        _schur_pair(p, PrecisionContext(BINARY32, alone, "low"))
        assert alone.counts == first.counts

    def test_other_problem_or_format_misses(self, rng, schur_calls):
        p = self._problem(rng)
        twin = SylvesterProblem(p.A, p.B, p.C)
        with _shared_schur_pairs():
            pair = _schur_pair(p, PrecisionContext(BINARY32))
            other = _schur_pair(twin, PrecisionContext(BINARY32))
            wide = _schur_pair(p, PrecisionContext(BINARY64))
        assert len(schur_calls) == 6
        assert other[0].U is not pair[0].U and wide[0].U is not pair[0].U
        assert (other[0].U == pair[0].U).all()

    def test_raising_factorization_is_kept(self, rng, monkeypatch):
        """A factorization that raises runs once in a scope: every caller
        gets the charges of that run and the same error type and message."""
        p = self._problem(rng)
        calls = []

        def fails(A, ctx):
            calls.append(ctx.format)
            ctx.count(7)
            raise IterationLimitError("no convergence")

        monkeypatch.setattr(sylvester, "schur", fails)
        counters = [FlopCounter() for _ in range(3)]
        with _shared_schur_pairs():
            for counter, bucket in zip(counters, ("low", "precond", "low")):
                with pytest.raises(IterationLimitError, match="^no convergence$"):
                    _schur_pair(p, PrecisionContext(BINARY32, counter, bucket))
        assert len(calls) == 1
        assert [c.counts for c in counters] == [{"low": 7}, {"precond": 7}, {"low": 7}]
        # outside the scope nothing is kept
        with pytest.raises(IterationLimitError):
            _schur_pair(p, PrecisionContext(BINARY32))
        assert len(calls) == 2

    def test_scope_ends_even_when_a_solver_raises(self, rng, schur_calls):
        p = self._problem(rng)
        with pytest.raises(SingularEquationError):
            with _shared_schur_pairs():
                _schur_pair(p, PrecisionContext(BINARY32))
                raise SingularEquationError(0, 0)
        assert sylvester._SHARED_PAIRS.get() is None
        one = _schur_pair(p, PrecisionContext(BINARY32))
        two = _schur_pair(p, PrecisionContext(BINARY32))
        assert len(schur_calls) == 6
        assert one[0].U is not two[0].U and one[0].U.flags.writeable

    @pytest.mark.parametrize("u_l", [BINARY32, BINARY64])
    def test_run_solve_rows_and_flops_are_each_solver_alone(self, tmp_path, monkeypatch,
                                                            schur_calls, u_l):
        # with u_l = u_h, bs shares the mixed solvers' pair too
        p = cli.generate(cli.ProblemGenerator("lyapunov", 5, 5, 0.0, 3))
        rcfg = RefinementConfig(u_l, BINARY64)
        solvers = {
            "or": lambda c: mp_orth(p, rcfg, c),
            "in": lambda c: mp_inv(p, rcfg, c),
            "gmres-ul": lambda c: gmres_ir_sylv(p, GmresConfig(u_l, restart=20), rcfg, c),
            "gmres-uh": lambda c: gmres_ir_sylv(p, GmresConfig(BINARY64, restart=20), rcfg, c),
            "bs": lambda c: bartels_stewart(p, PrecisionContext(BINARY64, c, "high")),
        }
        alone_rows = [[s, *cli._run_one(s, p, rcfg, 20)] for s in solvers]
        alone_flops = []
        for call in solvers.values():
            c = FlopCounter()
            call(c)
            alone_flops.append(c.counts)
        n_alone = len(schur_calls)

        shared_flops = []

        def recorded(fn):
            def call(*args, counter=None, **kw):
                c = FlopCounter()
                if fn is bartels_stewart:
                    args = (args[0], PrecisionContext(args[1].format, c, args[1].bucket))
                else:
                    kw["counter"] = c
                try:
                    return fn(*args, **kw)
                finally:
                    shared_flops.append(c.counts)
            return call

        for name in ("mp_orth", "mp_inv", "gmres_ir_sylv", "bartels_stewart"):
            monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
        rows = cli.run_solve(p, rcfg, tmp_path / "x.csv", solvers=tuple(solvers),
                             reproducible=True)
        assert repr(rows) == repr(alone_rows)
        assert shared_flops == alone_flops
        assert len(schur_calls) - n_alone == (1 if u_l == BINARY64 else 2)
