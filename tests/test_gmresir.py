import warnings

import numpy as np
import pytest

import mpsylv.gmresir as gmresir
import mpsylv.linalg as linalg
import mpsylv.precision as precision
import mpsylv.sylvester as sylvester
from mpsylv.cli import ProblemGenerator, generate
from mpsylv.gmresir import GmresConfig, GmresIrReport, apply_preconditioner, gmres_ir_sylv
from mpsylv.linalg import schur, sylvester_kron_operator, unvec, vec
from mpsylv.errors import SingularEquationError
from mpsylv.linalg import SchurFactors
from mpsylv.precision import (BFLOAT16, BINARY16, BINARY32, BINARY64, FlopCounter,
                              PrecisionContext, _round_complex_array)
from mpsylv.refinement import RefinementConfig
from mpsylv.sylvester import SylvesterProblem, _schur_pair

from conftest import cmat

CTX = PrecisionContext(BINARY64)


class TestApplyPreconditioner:
    def test_identity_pair_halves(self, rng):
        sf = schur(np.eye(2), CTX)
        W = cmat(rng, 2, 2)
        assert np.abs(apply_preconditioner(W, sf, sf, CTX) - W / 2).max() < 1e-15

    def test_diagonal_entrywise(self, rng):
        sfA = schur(np.diag([1.0, 2.0]), CTX)
        sfB = schur(np.diag([3.0, 4.0]), CTX)
        W = cmat(rng, 2, 2)
        den = np.array([[4.0, 5.0], [5.0, 6.0]])
        assert np.abs(apply_preconditioner(W, sfA, sfB, CTX) - W / den).max() < 1e-15

    def test_kronecker_oracle_inverse(self, rng):
        A, B = cmat(rng, 4, 4), cmat(rng, 3, 3)
        X = cmat(rng, 4, 3)
        Mf = sylvester_kron_operator(A, B)
        W = unvec(Mf @ vec(X), 4, 3)
        Z = apply_preconditioner(W, schur(A, CTX), schur(B, CTX), CTX)
        assert np.abs(Z - X).max() <= 1e-12 * np.abs(X).max()


class TestGmresIr:
    def test_exact_preconditioner_converges_immediately(self, rng):
        p = SylvesterProblem(cmat(rng, 6, 6), cmat(rng, 5, 5), cmat(rng, 6, 5))
        rep = gmres_ir_sylv(p, GmresConfig(BINARY64),
                            RefinementConfig(BINARY64, BINARY64))
        assert rep.converged
        assert rep.outer_iterations <= 2
        assert all(li <= 2 for li in rep.inner_iterations)
        assert rep.residual_history[-1] <= 1e-14

    def test_implicit_operator_matches_kronecker(self, rng):
        # the operator applied inside GMRES is (precond o sylvester); undo
        # the preconditioner step and compare with the explicit matrix
        A, B = cmat(rng, 4, 4), cmat(rng, 3, 3)
        W = cmat(rng, 4, 3)
        got = A @ W + W @ B
        assert np.abs(sylvester_kron_operator(A, B) @ vec(W) - vec(got)).max() < 1e-13

    def test_mixed_precision_variants(self, rng):
        from mpsylv.cli import ProblemGenerator, generate
        p = generate(ProblemGenerator("logspace-conditioned", 8, 8, 1.0, 3))
        rcfg = RefinementConfig(BINARY32, BINARY64)
        rep_uh = gmres_ir_sylv(p, GmresConfig(BINARY64), rcfg)
        assert rep_uh.converged and rep_uh.residual_history[-1] <= 1e-13

    def test_ul_variant_diverges_before_uh(self, rng):
        # on the same seeds the low-precision inner variant must give out
        # at a strictly smaller conditioning exponent
        from mpsylv.cli import ProblemGenerator, generate
        rcfg = RefinementConfig(BINARY32, BINARY64)

        def survives(u_g, t):
            p = generate(ProblemGenerator("logspace-conditioned", 10, 10,
                                          float(t), 5, stream=t))
            rep = gmres_ir_sylv(p, GmresConfig(u_g), rcfg)
            res = rep.residual_history[-1] if rep.residual_history else np.inf
            return res <= 1e-8

        def frontier(u_g):
            last = -1
            for t in range(0, 14, 2):
                if not survives(u_g, t):
                    break
                last = t
            return last

        assert frontier(BINARY64) > frontier(BINARY32)

    def test_rejects_foreign_u_g(self):
        p = SylvesterProblem(np.eye(2), np.eye(2), np.ones((2, 2)))
        with pytest.raises(ValueError):
            gmres_ir_sylv(p, GmresConfig(BINARY32),
                          RefinementConfig(BINARY64, BINARY64))

    def test_inner_iteration_cap(self, rng):
        p = SylvesterProblem(cmat(rng, 5, 5), cmat(rng, 4, 4), cmat(rng, 5, 4))
        gcfg = GmresConfig(BINARY64, restart=3, max_restarts=2)
        rep = gmres_ir_sylv(p, gcfg, RefinementConfig(BINARY64, BINARY64))
        assert all(li <= gcfg.restart * gcfg.max_restarts
                   for li in rep.inner_iterations)

    def test_left_preconditioned_residual_consistency(self, rng):
        # the norm GMRES converged to matches the directly recomputed
        # preconditioned residual of its correction
        from mpsylv.gmresir import _gmres_correction
        A, B = cmat(rng, 4, 4) + 3 * np.eye(4), cmat(rng, 3, 3) + 3 * np.eye(3)
        C = cmat(rng, 4, 3)
        sfA, sfB = schur(A, CTX), schur(B, CTX)
        Rt = apply_preconditioner(C, sfA, sfB, CTX)

        def matvec(x):
            W = unvec(x, 4, 3)
            return vec(apply_preconditioner(A @ W + W @ B, sfA, sfB, CTX))

        E, li, stag = _gmres_correction(matvec, Rt, GmresConfig(BINARY64), CTX)
        r_direct = np.linalg.norm(vec(Rt) - matvec(vec(E)))
        assert r_direct <= max(1e-10, 2e-8 * np.linalg.norm(vec(Rt)))

    def test_flop_accounting_per_outer_step(self, rng):
        # per outer step: 2 beta high for the residual, 5 beta for the
        # preconditioning, 7 beta per inner iteration for GMRES
        m = n = 16
        p = SylvesterProblem(cmat(rng, m, m) + 4 * np.eye(m),
                             cmat(rng, n, n) + 4 * np.eye(n), cmat(rng, m, n))
        counter = FlopCounter()
        rep = gmres_ir_sylv(p, GmresConfig(BINARY64),
                            RefinementConfig(BINARY64, BINARY64), counter)
        beta = m * n * (m + n)
        k = rep.outer_iterations
        li = sum(rep.inner_iterations)
        assert counter.get("high") == pytest.approx(2 * k * beta, rel=0.1)
        assert counter.get("precond") == pytest.approx(5 * k * beta, rel=0.1)
        assert counter.get("gmres") == pytest.approx(7 * li * beta, rel=0.15)

    def test_report_shape(self, rng):
        p = SylvesterProblem(cmat(rng, 3, 3), cmat(rng, 2, 2), cmat(rng, 3, 2))
        rep = gmres_ir_sylv(p, GmresConfig(BINARY64),
                            RefinementConfig(BINARY64, BINARY64))
        assert isinstance(rep, GmresIrReport)
        assert len(rep.inner_iterations) == rep.outer_iterations
        assert len(rep.residual_history) == rep.outer_iterations


def _sweep_correction(t, idx):
    """The operands of the first binary32 GMRES correction of the 10x10
    criterion-4 sweep problem at t: the preconditioned right-hand side, the
    rounded coefficients and the Schur factors."""
    p = generate(ProblemGenerator("logspace-conditioned", 10, 10, float(t), 1, stream=idx))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sf_A, sf_B = _schur_pair(p, PrecisionContext(BINARY32))
    Rt = apply_preconditioner(_round_complex_array(p.C, BINARY32), sf_A, sf_B,
                              PrecisionContext(BINARY32))
    A_g, B_g = (_round_complex_array(M, BINARY32) for M in (p.A, p.B))
    return Rt, A_g, B_g, sf_A, sf_B


class TestResidentCorrection:
    """A binary32 GMRES correction runs as one `_resident` kernel in
    complex64, with the results and flops of the complex128 software path."""

    # short restarts keep the software path quick; t = 10 and 14 stagnate
    GCFG = GmresConfig(BINARY32, restart=4, max_restarts=3)

    @staticmethod
    def _run(operands, gcfg):
        counter = FlopCounter()
        E, inner, stagnated = gmresir._resident_correction(
            *operands, gcfg, PrecisionContext(BINARY32, counter, "gmres"))
        return np.ascontiguousarray(E).view(np.uint64).tobytes(), inner, stagnated, counter.counts

    @pytest.mark.parametrize("idx, t", enumerate((2, 6, 10, 14)))
    def test_matches_the_software_path(self, idx, t, monkeypatch):
        operands = _sweep_correction(t, idx)
        got = self._run(operands, self.GCFG)
        monkeypatch.setattr(precision, "_binary32", lambda *xs: None)
        want = self._run(operands, self.GCFG)
        assert got == want
        assert got[2] == (t >= 10)

    def test_one_operand_check_per_correction(self, monkeypatch):
        operands = _sweep_correction(10, 2)
        checks, dtypes = [], []
        binary32 = precision._binary32
        for module in (precision, linalg, sylvester, gmresir):  # wherever the name is bound
            if hasattr(module, "_binary32"):
                monkeypatch.setattr(module, "_binary32",
                                    lambda *xs: checks.append(1) or binary32(*xs))
        correction = gmresir._gmres_correction
        monkeypatch.setattr(gmresir, "_gmres_correction",
                            lambda mv, b, *a: dtypes.append(b.dtype) or correction(mv, b, *a))
        _, inner, _, _ = self._run(operands, self.GCFG)
        assert inner == 12
        assert len(checks) == 1
        assert dtypes == [np.complex64]

    def test_binary64_widens_complex64_operands(self, rng):
        """A binary64 gemm, triangular solve or projection on complex64
        arrays computes in complex128: the result of the widened operands."""
        A, B, C = (cmat(rng, 5, 5).astype(np.complex64) for _ in range(3))
        T_A, T_B = (np.triu(M) + 3 * np.eye(5, dtype=np.complex64) for M in (A, B))
        wide = [M.astype(np.complex128) for M in (A, B, C, T_A, T_B)]
        got = linalg.gemm(0.5, A, B, -1.0, C, CTX)
        want = linalg.gemm(0.5, wide[0], wide[1], -1.0, wide[2], CTX)
        assert got.dtype == np.complex128 and (got == want).all()
        got = sylvester.solve_sylv_tri(T_A, T_B, C, CTX)
        want = sylvester.solve_sylv_tri(wide[3], wide[4], wide[2], CTX)
        assert got.dtype == np.complex128 and (got == want).all()
        got = linalg._mgs_project(A, C[:, 0], CTX)
        want = linalg._mgs_project(wide[0], wide[2][:, 0], CTX)
        assert got[0].dtype == got[1].dtype == np.complex128
        assert all(np.all(g == w) for g, w in zip(got, want))


class TestCorrectionPlan:
    """`_correction_plan`, the matvec of a correction planned once, is the
    unprepared composition
    vec(apply_preconditioner(gemm(1, A_g, W, 1, gemm(1, W, B_g, 0, None))))
    bit for bit and in flop buckets, in every format a correction runs in;
    binary32 runs both inside one complex64 kernel, as a correction does."""

    @staticmethod
    def _operands(shape, fmt, rng):
        """(x, A_g, B_g, U_A, T_A, U_B, T_B) in fmt: the pair is square, 7x5
        or Lyapunov (B_g = A_g^*, U_B = U_A and a lower T_B = T_A^*)."""
        m, n = {"square": (6, 6), "7x5": (7, 5), "lyapunov": (6, 6)}[shape]
        A, U_A, T_A = cmat(rng, m, m), cmat(rng, m, m), np.triu(cmat(rng, m, m))
        if shape == "lyapunov":
            B, U_B, T_B = A.conj().T, U_A, T_A.conj().T
        else:
            B, U_B, T_B = cmat(rng, n, n), cmat(rng, n, n), np.triu(cmat(rng, n, n))
        return [_round_complex_array(M, fmt) for M in
                (cmat(rng, m * n, 1)[:, 0], A, B, U_A, T_A, U_B, T_B)]

    @staticmethod
    def _composition(A_g, B_g, U_A, T_A, U_B, T_B, ctx):
        m, n = A_g.shape[0], B_g.shape[0]

        def matvec(x):
            W = linalg.unvec(x, m, n, ctx)
            W = linalg.gemm(1.0, A_g, W, 1.0, linalg.gemm(1.0, W, B_g, 0.0, None, ctx), ctx)
            return vec(apply_preconditioner(W, SchurFactors(U_A, T_A), SchurFactors(U_B, T_B),
                                            ctx), ctx)
        return matvec

    @staticmethod
    def _outcomes(fmt, operands):
        """(dtype, bits or error, flop buckets) of the plan's and the
        composition's matvec of x, each charging its own counter, both in
        one `_resident` kernel."""
        got = []

        def kernel(x, *ops, ctx):
            for make in (gmresir._correction_plan, TestCorrectionPlan._composition):
                counter = FlopCounter()
                try:
                    z = make(*ops, PrecisionContext(ctx.format, counter, "gmres"))(x)
                    out = (z.dtype, z.view(np.uint8).tobytes())
                except SingularEquationError as exc:
                    out = (type(exc), str(exc), exc.args)
                got.append((out, dict(counter.counts)))
            return (x,)

        precision._resident(kernel, PrecisionContext(fmt), *operands)
        return got

    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32, BFLOAT16, BINARY16],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("shape", ["square", "7x5", "lyapunov"])
    def test_matches_the_composition(self, shape, fmt, rng):
        plan, composition = self._outcomes(fmt, self._operands(shape, fmt, rng))
        assert plan == composition
        assert plan[0][0] == (np.complex64 if fmt is BINARY32 else np.complex128)
        assert plan[1] == {"gmres": composition[1]["gmres"]} and plan[1]["gmres"] > 0

    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32, BFLOAT16, BINARY16],
                             ids=lambda f: f.name)
    def test_zero_shifted_diagonal_raises_alike(self, fmt, rng):
        operands = self._operands("7x5", fmt, rng)
        T_A, T_B = operands[4], operands[6]
        T_A[3, 3] = -T_B[2, 2]  # the shifted diagonal of entry (3, 2) is zero
        plan, composition = self._outcomes(fmt, operands)
        assert plan == composition
        assert plan[0][:2] == (SingularEquationError, str(SingularEquationError(3, 2)))
