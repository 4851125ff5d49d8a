"""mpsylv benchmark: one closed-loop, single-thread run of one workload.

Run from the repository root:

    python3 bench/run.py --workload sylv-b32-m12 --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.
One solve follows another in a single process on one thread; the seed
chooses the problems, and every solve is checked against
``reference.json``.

``--trace 0`` sets up the workload several times (fresh import of mpsylv,
problem generation or Matrix Market writing, warm-up), then solves for
``--seconds`` and prints the end-to-end metrics.  Their times are in
reference seconds: wall time corrected for the host's speed at that
moment, as measured by ``speed.py``; the wall-clock figures are in the
details.

``--trace 1`` prints the per-layer metrics instead: it runs the rounding
microbenchmark, then a fixed set of solves twice, first untraced and then
with every traced mpsylv function wrapped (see ``tracer.py``); the
difference between the two times, in reference seconds, gives
``trace_overhead_frac``.

The last line of standard output is the result object; the line before
it holds the details (environment, sample counts, failure reasons, the
trace table).  A failed output check sets ``"correct": false`` and lists
the problems on standard error.
"""

from __future__ import annotations

from threads import THREAD_VARS  # first: pins BLAS/OpenMP to one thread

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import microbench
from speed import C_REF, SpeedProbe, to_ref
from tracer import Tracer, assert_untraced
from workloads import WORKLOADS, check_outcomes, load_mpsylv, load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3


def setup(cls, seed: int, workdir: Path, probe: SpeedProbe | None = None):
    """Import mpsylv afresh and prepare a workload.

    Returns (workload, wall seconds, reference seconds or None).
    """
    def make():
        w = cls(load_mpsylv(ROOT / "src"), seed, workdir, probe)
        w.prepare()
        return w

    if probe is not None:
        return probe.timed(make)
    t0 = time.perf_counter()
    w = make()
    return w, time.perf_counter() - t0, None


def closed_loop(w, seconds: float):
    """Run jobs back to back for ``seconds``, then to the end of the cycle
    through the workload's universe.

    Returns (outcomes, wall seconds).
    """
    jobs = w.jobs()
    outcomes = []
    done = 0
    t0 = time.perf_counter()
    while done % w.cycle_jobs or time.perf_counter() - t0 < seconds:
        outcomes.extend(next(jobs)())
        done += 1
    return outcomes, time.perf_counter() - t0


def fail_reasons(outcomes) -> dict:
    return dict(sorted(Counter(o.slug for o in outcomes if not o.ok).items()))


def untraced_run(cls, seed: int, seconds: float, workdir: Path, reference: dict):
    probe = SpeedProbe()
    setups = [setup(cls, seed, workdir, probe) for _ in range(SETUP_REPEATS)]
    w = setups[-1][0]
    assert_untraced()
    n_probe, spent = len(probe.samples), probe.spent
    outcomes, wall = closed_loop(w, seconds)
    # The probe ran after every solve; its own time is not the program's.
    # Each solve is converted at the speed measured around it, the time
    # between solves (reading files, generating problems) at the mean speed.
    net_wall = wall - (probe.spent - spent)
    between = net_wall - sum(o.wall_s for o in outcomes)
    loop_ref = sum(o.ref_s for o in outcomes) + to_ref(
        between, statistics.mean(probe.samples[n_probe - 1:]))
    problems = check_outcomes(cls.name, outcomes, reference)
    n_ok = sum(o.ok for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(ref for _, _, ref in setups), "s"),
        "solves_per_s": (len(outcomes) / loop_ref, "1/s"),
        "solve_s_p50": (statistics.median(o.ref_s for o in outcomes), "s"),
        "ok_frac": (n_ok / len(outcomes), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "solves": len(outcomes),
        "fail_frac": 1 - n_ok / len(outcomes),
        "fail_reasons": fail_reasons(outcomes),
        "residual_max": max(o.residual for o in outcomes if o.ok),
        "wall_clock": {
            "setup_s": statistics.median(dt for _, dt, _ in setups),
            "solves_per_s": len(outcomes) / net_wall,
            "solve_s_p50": statistics.median(o.wall_s for o in outcomes),
            "loop_s": wall,
        },
        "speed_probe_s": {"reference": C_REF, "median": statistics.median(probe.samples),
                          "min": min(probe.samples), "max": max(probe.samples),
                          "samples": len(probe.samples)},
    }
    return metrics, outcomes, problems, details


def _sum(outcomes, attr, solvers):
    return sum(getattr(o, attr) or 0 for o in outcomes if o.solver in solvers)


def cost_ratios(costmodel, outcomes):
    """Measured / modelled flops over the mp_orth and mp_inv solves."""
    low = high = low_model = high_model = 0.0
    for o in outcomes:
        if o.solver not in ("or", "in") or o.iterations is None:
            continue
        model = costmodel.flops("mp_orth_sylv" if o.solver == "or" else "mp_inv_sylv",
                                o.m, o.n, o.iterations)
        low += o.flops.get("low", 0)
        high += o.flops.get("high", 0)
        low_model += model.low_flops
        high_model += model.high_flops
    return low / low_model, high / high_model


def layer_metrics(tr: Tracer, w, outcomes, micro: dict, ratios, overhead: float) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for op in ("fl_mul", "fl_add", "fl_sub", "fl_div"):
        s = tr.stats(f"precision.{op}")
        put(f"precision.{op}.calls", s["calls"], "count")
        put(f"precision.{op}.self_s", s["self_s"], "s")
    m.update(micro)
    flops = Counter()
    for o in outcomes:
        flops.update(o.flops)
    for bucket in ("low", "high", "precond", "gmres"):
        put(f"precision.flops.{bucket}", flops[bucket], "count")
    s = tr.stats("linalg.schur")
    put("linalg.schur.calls", s["calls"], "count")
    put("linalg.schur.incl_s", s["incl_s"], "s")
    put("linalg.schur.self_s", s["self_s"], "s")
    for fn in ("mgs_qr", "lu", "lu_solve"):
        put(f"linalg.{fn}.incl_s", tr.stats(f"linalg.{fn}")["incl_s"], "s")
    s = tr.stats("linalg.gemm")
    put("linalg.gemm.calls", s["calls"], "count")
    put("linalg.gemm.incl_s", s["incl_s"], "s")
    s = tr.stats("sylvester.solve_sylv_tri")
    put("sylvester.solve_sylv_tri.calls", s["calls"], "count")
    put("sylvester.solve_sylv_tri.incl_s", s["incl_s"], "s")
    for fn in ("bartels_stewart", "residual"):
        put(f"sylvester.{fn}.incl_s", tr.stats(f"sylvester.{fn}")["incl_s"], "s")
    put("refinement.solve_pert_sylv_tri_stat.incl_s",
        tr.stats("refinement.solve_pert_sylv_tri_stat")["incl_s"], "s")
    refined = [o for o in outcomes if o.solver in ("or", "in")]
    put("refinement.iterations", _sum(outcomes, "iterations", ("or", "in")), "count")
    put("refinement.converged_frac",
        sum(o.ok for o in refined) / len(refined) if refined else 0.0, "frac")
    put("gmresir.gmres_ir_sylv.self_s", tr.stats("gmresir.gmres_ir_sylv")["self_s"], "s")
    s = tr.stats("gmresir.apply_preconditioner")
    put("gmresir.apply_preconditioner.calls", s["calls"], "count")
    put("gmresir.apply_preconditioner.incl_s", s["incl_s"], "s")
    gmres = ("gmres-ul", "gmres-uh")
    put("gmresir.outer_iterations", _sum(outcomes, "iterations", gmres), "count")
    put("gmresir.inner_iterations", _sum(outcomes, "inner_iterations", gmres), "count")
    put("cli.generate.s", tr.stats("cli.generate")["incl_s"], "s")
    put("cli.run_sweep_cond.self_s", tr.stats("cli.run_sweep_cond")["self_s"], "s")
    put("mmio.read_matrix.s", tr.stats("mmio.read_matrix")["incl_s"], "s")
    put("mmio.read_matrix.bytes", getattr(w, "input_bytes", 0), "bytes")
    put("mmio.write_matrix.s", tr.stats("mmio.write_matrix")["incl_s"], "s")
    put("costmodel.low_ratio", ratios[0], "ratio")
    put("costmodel.high_ratio", ratios[1], "ratio")
    put("residual_max", max(o.residual for o in outcomes if o.ok), "ratio")
    put("trace_overhead_frac", overhead, "frac")
    return m


def traced_run(cls, seed: int, workdir: Path, reference: dict):
    w, _, _ = setup(cls, seed, workdir)
    micro = microbench.run(w.lib.precision, seed)
    probe = SpeedProbe()
    tr = Tracer()
    with tr:
        w.make_inputs()  # traced set-up: generation or Matrix Market writing
    # Each job runs untraced, then traced, so both see the same host speed.
    base, outcomes = [], []
    base_ref = ref = wall = 0.0
    untraced_jobs, traced_jobs = w.jobs(), w.jobs()
    for _ in range(w.trace_jobs):
        assert_untraced()
        out, _, dt_ref = probe.timed(next(untraced_jobs))
        base += out
        base_ref += dt_ref
        with tr:
            out, dt, dt_ref = probe.timed(next(traced_jobs))
            outcomes += out
            wall += dt
            ref += dt_ref
    with tr:
        ratios = cost_ratios(w.lib.costmodel, outcomes)
    assert_untraced()
    checked = base + outcomes
    problems = check_outcomes(cls.name, checked, reference)
    if [o.digest() for o in base] != [o.digest() for o in outcomes]:
        problems.append("traced solves differ from the untraced solves")
    metrics = layer_metrics(tr, w, outcomes, micro, ratios, (ref - base_ref) / base_ref)
    table = tr.table()
    details = {
        "traced_solves": len(outcomes),
        "traced_wall_s": wall,
        "fail_reasons": fail_reasons(outcomes),
        "microbench": microbench.notes(_l3_bytes()),
        "self_share_of_traced_wall": {
            name: round(s["self_s"] / wall, 4) for name, s in
            sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:12]},
        "trace": table,
    }
    return metrics, checked, problems, details


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _l3_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            if (idx / "level").read_text().strip() == "3":
                size = (idx / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
                return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "mpsylv" / "__init__.py").is_file():
        print(f"error: no mpsylv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = load_reference(BENCH / "reference.json")
    cls = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, outcomes, problems, details = traced_run(cls, args.seed, workdir,
                                                              reference)
        else:
            metrics, outcomes, problems, details = untraced_run(cls, args.seed, args.seconds,
                                                                workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place if another run uses it
            work_root.rmdir()
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    details["environment"] = environment(args)
    details["output_check"] = {"solves_checked": len(outcomes), "problems": len(problems)}
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len({p.split(":", 1)[0] for p in problems}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
