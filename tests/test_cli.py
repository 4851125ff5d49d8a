import math

import numpy as np
import pytest

from mpsylv import cli
from mpsylv.cli import (
    ProblemGenerator,
    generate,
    main,
    run_bench,
    run_solve,
    run_sweep_cond,
    run_sweep_costmodel,
)
from mpsylv.linalg import sylvester_kron_operator
from mpsylv.mmio import write_matrix
from mpsylv.precision import BINARY16, BINARY32, BINARY64
from mpsylv.refinement import RefinementConfig

RCFG = RefinementConfig(BINARY32, BINARY64)


class TestGenerate:
    def test_scalar_logspace_is_exact(self):
        p = generate(ProblemGenerator("logspace-conditioned", 1, 1, 0.0, 9))
        assert p.A[0, 0] == 1.0 and p.B[0, 0] == 1.0
        assert sylvester_kron_operator(p.A, p.B)[0, 0] == 2.0

    def test_t_zero_modest_conditioning(self):
        p = generate(ProblemGenerator("logspace-conditioned", 10, 10, 0.0, 1))
        kappa = np.linalg.cond(sylvester_kron_operator(p.A, p.B), 2)
        assert kappa <= 1e3

    @pytest.mark.parametrize("t", [2.0, 8.0])
    def test_kappa_tracks_target_within_one_order(self, t):
        for seed in (0, 1, 2):
            p = generate(ProblemGenerator("logspace-conditioned", 10, 10, t, seed))
            sv = np.linalg.svd(sylvester_kron_operator(p.A, p.B), compute_uv=False)
            kappa = sv[0] / sv[-1]
            assert 10.0**t <= kappa <= 10.0 ** (t + 1)

    def test_t8_window(self):
        p = generate(ProblemGenerator("logspace-conditioned", 10, 10, 8.0, 4))
        kappa = np.linalg.cond(sylvester_kron_operator(p.A, p.B), 2)
        assert 1e7 <= kappa <= 1e9

    def test_deterministic_per_seed_and_stream(self):
        a = generate(ProblemGenerator("random-dense", 5, 4, 0.0, 3, stream=2))
        b = generate(ProblemGenerator("random-dense", 5, 4, 0.0, 3, stream=2))
        c = generate(ProblemGenerator("random-dense", 5, 4, 0.0, 3, stream=3))
        assert (a.A == b.A).all() and (a.C == b.C).all()
        assert not (a.A == c.A).all()

    def test_structured_kinds(self):
        ph = generate(ProblemGenerator("hermitian", 5, 4, 0.0, 0))
        assert ph.kind == "hermitian"
        pl = generate(ProblemGenerator("lyapunov", 5, 5, 0.0, 0))
        assert pl.kind == "lyapunov"
        assert (pl.B == pl.A.conj().T).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemGenerator("weird", 3, 3)
        with pytest.raises(ValueError):
            ProblemGenerator("lyapunov", 3, 4)

    @pytest.mark.parametrize("m, n, t", [
        (0, 3, 0.0), (3, 0, 0.0), (-2, 3, 0.0),
        (3, 3, -1.0), (3, 3, math.nan), (3, 3, math.inf), (3, 3, 308.0),
    ])
    def test_rejects_sizes_and_t_out_of_range(self, m, n, t):
        with pytest.raises(ValueError):
            ProblemGenerator("logspace-conditioned", m, n, t)

    def test_largest_t_is_accepted(self):
        ProblemGenerator("logspace-conditioned", 3, 3, 307.0)


class TestRunners:
    def test_solve_all_four_residuals_small(self, tmp_path):
        p = generate(ProblemGenerator("logspace-conditioned", 8, 8, 0.0, 5))
        rows = run_solve(p, RCFG, tmp_path / "s.csv",
                         solvers=("or", "in", "gmres-ul", "gmres-uh"),
                         reproducible=True)
        for row in rows:
            assert row[1] <= 1e-13, row
            assert row[4] == "ok"

    def test_solve_csv_columns(self, tmp_path):
        p = generate(ProblemGenerator("random-dense", 4, 3, 0.0, 5))
        run_solve(p, RCFG, tmp_path / "s.csv", solvers=("bs",), reproducible=True)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "solver,residual,iterations,converged,status"

    def test_sweep_cond_columns_and_status(self, tmp_path):
        run_sweep_cond(6, 6, [0, 1], 2, RCFG, tmp_path / "c.csv",
                       reproducible=True)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == ("t,condu,res_sylv,r_or,r_in,r_gmres_ul,r_gmres_uh,"
                          "i_or,i_in,status")
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 2

    def test_sweep_rows_survive_failures(self, tmp_path):
        # a singular problem must produce an in-row status, not a crash
        A = np.triu(np.ones((2, 2)))
        B = -np.eye(1)
        from mpsylv.sylvester import SylvesterProblem
        p = SylvesterProblem(A, B, np.ones((2, 1)))
        rows = run_solve(p, RCFG, tmp_path / "f.csv",
                         solvers=("or", "in", "bs"), reproducible=True)
        by_name = {r[0]: r for r in rows}
        for name in ("or", "in"):
            assert by_name[name][4] == "singular_equation"
            assert np.isnan(by_name[name][1])
        text = (tmp_path / "f.csv").read_text()
        assert "nan" in text and "singular_equation" in text

    def test_raised_errors_become_a_status(self, tmp_path):
        from mpsylv.sylvester import SylvesterProblem
        p = SylvesterProblem(np.triu(np.ones((2, 2))), -np.eye(1), np.ones((2, 1)))
        (row,) = run_solve(p, RCFG, tmp_path / "f.csv", solvers=("bs",),
                           reproducible=True)
        assert np.isnan(row[1])
        assert row[:1] + row[2:] == ["bs", None, False, "SingularEquationError"]
        # kappa ~ 1e5 puts the logspace coefficients past binary16's range
        rows = run_sweep_cond(4, 4, [5], 0, RefinementConfig(BINARY16, BINARY64),
                              tmp_path / "c.csv", reproducible=True)
        assert rows[0][-1] == ("or:FormatOverflowError;in:FormatOverflowError;"
                               "gmres-ul:FormatOverflowError;gmres-uh:FormatOverflowError")

    def test_sweep_costmodel_values(self, tmp_path):
        rows = run_sweep_costmodel(10, 10, tmp_path / "m.csv", reproducible=True)
        first = {(r[0], r[1]): (r[2], r[3]) for r in rows}
        funk, optk = first[("mp_orth_lyap", 0.0)]
        assert funk == 3.5 and optk == 3

    def test_bench_ratios(self, tmp_path):
        rows = run_bench(32, 32, 0, RefinementConfig(BINARY64, BINARY64),
                         tmp_path / "b.csv", algorithms=("or",),
                         reproducible=True)
        _, m, n, k, lo, lo_m, hi, hi_m, rlo, rhi = rows[0]
        assert 0.7 <= rlo <= 1.3 and 0.8 <= rhi <= 1.2

    def test_bench_rejects_unknown_algorithm(self, tmp_path):
        out = tmp_path / "b.csv"
        with pytest.raises(ValueError, match="bs"):
            run_bench(3, 3, 0, RCFG, out, algorithms=("or", "bs"))
        assert not out.exists()

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep_cond(5, 5, [0, 1, 2], 7, RCFG, a, solvers=("or", "bs"),
                       reproducible=True)
        run_sweep_cond(5, 5, [0, 1, 2], 7, RCFG, b, solvers=("or", "bs"),
                       reproducible=True)
        assert a.read_bytes() == b.read_bytes()


class TestMainEntry:
    def test_solve_generated(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["solve", "--m", "4", "--n", "3", "--seed", "2",
                   "--solvers", "bs,or", "--out", str(out), "--reproducible"])
        assert rc == 0
        assert out.exists()
        assert "residual" in capsys.readouterr().out

    def test_solve_matrix_market(self, tmp_path, rng):
        A = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        B = rng.standard_normal((2, 2)) + 4 * np.eye(2)
        C = rng.standard_normal((3, 2))
        for name, M in (("A", A), ("B", B), ("C", C)):
            write_matrix(tmp_path / f"{name}.mtx", M)
        out = tmp_path / "mm.csv"
        rc = main(["solve", "--matrix-market", str(tmp_path / "A.mtx"),
                   str(tmp_path / "B.mtx"), str(tmp_path / "C.mtx"),
                   "--solvers", "bs", "--out", str(out), "--reproducible"])
        assert rc == 0
        body = [l for l in out.read_text().splitlines() if l.startswith("bs")]
        assert float(body[0].split(",")[1]) < 1e-13

    def test_missing_matrix_market_file_is_a_usage_error(self, tmp_path, capsys):
        paths = [tmp_path / f"{name}.mtx" for name in "ABC"]
        for path in paths[:2]:
            write_matrix(path, np.eye(2))
        out = tmp_path / "mm.csv"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--matrix-market", *map(str, paths), "--out", str(out)])
        assert exc.value.code == 2
        assert "No such file" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_matrix_market_is_a_usage_error(self, tmp_path, capsys):
        paths = [tmp_path / f"{name}.mtx" for name in "ABC"]
        for path in paths:
            write_matrix(path, np.eye(2))
        paths[1].write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n")
        out = tmp_path / "mm.csv"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--matrix-market", *map(str, paths), "--out", str(out)])
        assert exc.value.code == 2
        assert "outside 2 x 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case, message", [
        ("shapes", "incompatible shapes"),
        ("nan", "NaN or infinite"),
        ("lyapunov", "requires B = A*"),
    ])
    def test_unusable_matrix_market_problem_is_a_usage_error(self, tmp_path, capsys,
                                                              case, message):
        A, B, C = np.eye(2) + np.triu(np.ones((2, 2))), np.eye(2), np.ones((2, 2))
        if case == "shapes":
            C = np.ones((2, 3))
        elif case == "nan":
            C[1, 0] = np.nan
        paths = [tmp_path / f"{name}.mtx" for name in "ABC"]
        for path, M in zip(paths, (A, B, C)):
            write_matrix(path, M)
        out = tmp_path / "mm.csv"
        argv = ["solve", "--matrix-market", *map(str, paths), "--out", str(out)]
        if case == "lyapunov":
            argv += ["--problem-kind", "lyapunov"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_costmodel_cli(self, tmp_path):
        out = tmp_path / "cm.csv"
        assert main(["sweep-costmodel", "--out", str(out)]) == 0
        assert "mp_inv_lyap" in out.read_text()

    def test_format_flags(self, tmp_path):
        out = tmp_path / "fmt.csv"
        rc = main(["solve", "--m", "3", "--n", "3", "--ul", "tf32",
                   "--uh", "binary64", "--solvers", "bs", "--out", str(out),
                   "--reproducible"])
        assert rc == 0
        assert "# ul = tf32" in out.read_text()

    def test_y0_zero_flag(self, tmp_path):
        out = tmp_path / "y.csv"
        rc = main(["solve", "--m", "4", "--n", "4", "--seed", "1",
                   "--y0-zero", "--solvers", "or", "--out", str(out),
                   "--reproducible"])
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ["solve", "--solvers", "bs,xx"],
        ["sweep-cond", "--t-range", "3"],
        ["sweep-cond", "--solvers", "gmres"],
        ["solve", "--ul", "binary64", "--uh", "binary32"],
        ["solve", "--solvers", "gmres", "--ug", "binary16"],
        ["solve", "--ul", "60:11"],
        ["solve", "--ul", "8:15"],
        ["solve", "--epsilon", "nan"],
        ["solve", "--epsilon", "inf"],
        ["solve", "--t", "nan"],
        ["solve", "--t", "309"],
        ["sweep-cond", "--restart", "0"],
        ["sweep-cond", "--t-range", "0:400"],
    ])
    def test_bad_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "bad.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--m", "3", "--n", "3", "--out", str(out)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    # argparse keeps the last value of a flag, so these cases cannot go
    # through the test above, which appends its own --m and --n
    @pytest.mark.parametrize("argv", [
        ["solve", "--m", "0"],
        ["solve", "--m", "-2"],
        ["solve", "--n", "0", "--kind", "random-dense"],
        ["sweep-cond", "--m", "0"],
        ["bench", "--n", "0"],
        ["sweep-costmodel", "--m", "0"],
    ])
    def test_bad_size_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "bad.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", [True, False], ids=["no-directory", "a-directory"])
    @pytest.mark.parametrize("command", ["solve", "sweep-cond", "bench", "sweep-costmodel"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                             command, missing):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the --out check")
        for name in ("_run_one", "mp_orth", "mp_inv", "run_sweep_costmodel"):
            monkeypatch.setattr(cli, name, no_solve)
        out = tmp_path / "missing" / "o.csv" if missing else tmp_path
        with pytest.raises(SystemExit) as exc:
            main([command, "--m", "3", "--n", "3", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--out" in err
        assert list(tmp_path.iterdir()) == []
