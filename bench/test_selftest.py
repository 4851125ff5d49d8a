"""Self-tests of the benchmark's own machinery (run: python3 -m pytest bench)."""

from __future__ import annotations

import json
import types

import pytest

import threads  # noqa: F401  first: pins BLAS/OpenMP to one thread

import run
import workloads as W
from tracer import Tracer, assert_untraced


@pytest.fixture
def lib():
    return W.load_mpsylv(run.ROOT / "src")


def _tiny(cls, **attrs):
    return type(f"Tiny{cls.__name__}", (cls,), {"m": 4, **attrs})


TinySylv = _tiny(W.SylvB32M12, universe=3)
TinyMm = _tiny(W.F64MmM24, universe=2)
TinySweep = _tiny(W.SweepCond10, t_values=(2, 14), universe=2)


def _solves(cls, lib, seed, tmp_path, n_jobs):
    w = cls(lib, seed, tmp_path / f"{cls.name}-{seed}")
    w.prepare()
    jobs = w.jobs()
    return [o for _ in range(n_jobs) for o in next(jobs)()]


# ---------------------------------------------------------------------------
# span arithmetic

def _fake_clock():
    now = [0]
    return now, (lambda: now[0])


def _units(tr, name):
    """(calls, inclusive, self) of a span, in fake-clock units."""
    s = tr.stats(name)
    return s["calls"], round(s["incl_s"] * 1e9), round(s["self_s"] * 1e9)


def test_self_time_of_nested_spans():
    now, clock = _fake_clock()
    tr = Tracer(clock)
    ns = types.SimpleNamespace()

    def fl_mul():
        now[0] += 1

    def schur():
        now[0] += 2
        ns.fl_mul()
        ns.fl_mul()
        now[0] += 3

    def mp_orth():
        now[0] += 10
        ns.schur()
        ns.fl_mul()
        now[0] += 1

    ns.fl_mul = tr.wrap("precision.fl_mul", fl_mul)
    ns.schur = tr.wrap("linalg.schur", schur)
    ns.mp_orth = tr.wrap("refinement.mp_orth", mp_orth)
    ns.mp_orth()
    ns.mp_orth()
    assert _units(tr, "precision.fl_mul") == (6, 6, 6)
    # schur: 2 + 3 of its own around two 1-unit children, per call
    assert _units(tr, "linalg.schur") == (2, 14, 10)
    # mp_orth: 10 + 1 of its own, 7 in schur, 1 in a direct fl_mul, per call
    assert _units(tr, "refinement.mp_orth") == (2, 38, 22)


def test_recursive_span_counts_inclusive_time_once():
    now, clock = _fake_clock()
    tr = Tracer(clock)
    ns = types.SimpleNamespace()

    def rec(depth):
        now[0] += 1
        if depth:
            ns.rec(depth - 1)
        now[0] += 1

    ns.rec = tr.wrap("linalg.rec", rec)
    ns.rec(2)
    # inclusive time counts the outermost activation only; self time is
    # 2 units of its own per level
    assert _units(tr, "linalg.rec") == (3, 6, 6)


def test_span_closes_when_the_call_raises():
    now, clock = _fake_clock()
    tr = Tracer(clock)

    def boom():
        now[0] += 4
        raise ValueError("x")

    traced_boom = tr.wrap("boom", boom)

    def outer():
        with pytest.raises(ValueError):
            traced_boom()
        now[0] += 1

    tr.wrap("outer", outer)()
    assert _units(tr, "boom") == (1, 4, 4)
    assert _units(tr, "outer") == (1, 5, 1)


# ---------------------------------------------------------------------------
# installing and removing the wrappers

def _bindings(lib):
    return {(name, attr): val
            for name, mod in vars(lib).items()
            for attr, val in vars(mod).items() if callable(val)}


def test_install_wraps_every_lookup_site_and_uninstall_restores(lib):
    before = _bindings(lib)
    tr = Tracer()
    tr.install()
    try:
        for mod, attr in ((lib.linalg, "fl_mul"), (lib.refinement, "schur"),
                          (lib.gmresir, "solve_sylv_tri"), (lib.cli, "mp_orth"),
                          (lib.pkg, "mp_orth"), (lib.precision, "fl_mul")):
            assert getattr(getattr(mod, attr), "__wrapped_by_tracer__", False), (mod, attr)
        with pytest.raises(RuntimeError):
            assert_untraced()
        lib.linalg.gemm(1.0, [[1.0]], [[2.0]], 0.0, None)
        assert tr.stats("linalg.gemm")["calls"] == 1
        assert tr.stats("precision.fl_mul")["calls"] == 1
    finally:
        tr.uninstall()
    assert_untraced()
    after = _bindings(lib)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_leaves_no_wrapper_before_untraced_timing(tmp_path, monkeypatch):
    states = []

    class Spied(TinySylv):
        def jobs(self):
            for job in super().jobs():
                def spied(job=job):
                    try:
                        assert_untraced()
                        states.append("untraced")
                    except RuntimeError:
                        states.append("traced")
                    return job()
                yield spied

    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run.microbench, "LARGE", 1 << 10)
    layer = run.traced_run(Spied, 0, tmp_path / "t", {})[0]
    n = len(states)
    end_to_end = run.untraced_run(Spied, 0, 0.01, tmp_path / "u", {})[0]
    assert states[:n] == ["untraced", "traced"] * Spied.universe * len(Spied.solvers)
    assert set(states[n:]) == {"untraced"}
    # the runs report exactly the metrics BENCHMARK.json declares
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert set(end_to_end) == {m["name"] for m in spec["end_to_end"]}
    assert sorted(W.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


# ---------------------------------------------------------------------------
# seeds, digests and the output check

@pytest.mark.parametrize("cls,n_jobs", [(TinySylv, 4), (TinyMm, 3), (TinySweep, 1)])
def test_same_seed_same_digests_other_seed_other_problems(cls, n_jobs, lib, tmp_path):
    a = _solves(cls, lib, 0, tmp_path, n_jobs)
    b = _solves(cls, lib, 0, tmp_path, n_jobs)
    c = _solves(cls, lib, 1, tmp_path, n_jobs)
    assert [o.digest() for o in a] == [o.digest() for o in b]
    assert a[0].key.split("/")[0] != c[0].key.split("/")[0]
    assert a[0].x_sha != c[0].x_sha


def test_output_check_flags_a_changed_bit_and_a_large_residual(lib, tmp_path):
    outs = _solves(TinySylv, lib, 0, tmp_path, 2)
    ref = {TinySylv.name: {o.key: {"digest": o.digest(), "slug": o.slug,
                                   "residual": o.residual} for o in outs}}
    assert W.check_outcomes(TinySylv.name, outs, ref) == []
    flipped = outs[0].x_sha[:-1] + ("0" if outs[0].x_sha[-1] != "0" else "1")
    outs[0].x_sha = flipped
    outs[1].residual = 1.0
    problems = W.check_outcomes(TinySylv.name, outs, ref)
    assert len(problems) == 3  # two digests differ, one residual above its bound
    assert W.check_outcomes(TinySylv.name, outs, {}) != []


def test_failure_reasons_are_recorded(lib, tmp_path):
    outs = _solves(TinySweep, lib, 0, tmp_path, 1)
    slugs = {o.slug for o in outs}
    assert "ok" in slugs and slugs - {"ok"}
    assert slugs <= {"ok", "non_convergence", "gmres_stagnation", "nan_breakdown",
                     "singular_equation", "preconditioner", "IterationLimitError"}
    assert W.failure_slug("gmres_stagnation: inner residual stopped decreasing") \
        == "gmres_stagnation"
