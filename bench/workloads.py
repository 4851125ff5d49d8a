"""The benchmark's workloads, its solve outcomes and its output check.

Each workload draws its problems from a finite *universe* whose outcomes
are recorded in ``reference.json`` (see ``record.py``); ``--seed`` picks
where in the universe a run starts, so every solve a run makes can be
checked bit for bit against the reference whatever seed it gets.

A *solve* is one solver on one problem.  Solvers carry the short names
the CLI uses: ``bs`` (Bartels-Stewart), ``or`` (mp_orth), ``in``
(mp_inv), ``gmres-ul`` and ``gmres-uh`` (Schur-preconditioned GMRES-IR
with the inner solve in the low or the high precision).

The benchmark calls mpsylv only through module attributes looked up at
call time (``lib.refinement.mp_orth``), so the tracer's wrappers see
those calls too.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

LAYERS = ("precision", "linalg", "sylvester", "refinement", "gmresir",
          "costmodel", "cli", "mmio", "errors")

# A converged solve must reach a binary64 relative residual below
# RESIDUAL_FACTOR * max(m, n) * u_h with u_h = 2^-53: ten times the
# backward-stable level gmres_ir_sylv itself stops at.
RESIDUAL_FACTOR = 100.0
U_H = 2.0 ** -53


def load_mpsylv(src: Path) -> SimpleNamespace:
    """Import mpsylv afresh from ``src`` and return its modules by layer.

    Modules already imported are dropped first, so each call runs the
    package's import-time code again; set-up time includes it.
    """
    for name in [n for n in sys.modules if n == "mpsylv" or n.startswith("mpsylv.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("mpsylv")
    if Path(pkg.__file__).resolve().parent != (src / "mpsylv").resolve():
        raise ImportError(f"mpsylv was imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(pkg=pkg, **{
        layer: importlib.import_module(f"mpsylv.{layer}") for layer in LAYERS})


def failure_slug(failure: str | None) -> str:
    """'ok', or the reason word a solver report leads its failure with."""
    if failure is None:
        return "ok"
    return failure.split(":", 1)[0].split()[0]


@dataclass
class Outcome:
    """What one solve produced, and how long it took."""

    key: str            # "<problem stream>/<solver>"
    solver: str
    m: int
    n: int
    wall_s: float
    ref_s: float | None  # wall_s in reference seconds (speed.py); None untimed
    iterations: int | None
    slug: str           # "ok", a report's failure reason, or an error class
    x_sha: str
    residual: float
    inner_iterations: int = 0
    flops: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.slug == "ok"

    def digest(self) -> str:
        fields = [self.solver, self.key, self.iterations, self.slug,
                  self.x_sha, repr(self.residual)]
        return hashlib.sha256(json.dumps(fields).encode()).hexdigest()

    def residual_bound(self) -> float:
        return RESIDUAL_FACTOR * max(self.m, self.n) * U_H


def _x_sha(X) -> str:
    if X is None:
        return "none"
    return hashlib.sha256(np.ascontiguousarray(X, dtype=np.complex128).tobytes()).hexdigest()


def timed_solve(lib, solver: str, key: str, p, call, probe=None):
    """Run ``call(counter)`` for one solve; return (report, Outcome, error).

    ``call`` receives a fresh FlopCounter.  A typed MpsylvError is caught
    and returned as ``error``, with the report None and the error class
    as the outcome's reason.  With a SpeedProbe the solve is also timed
    in reference seconds.
    """
    counter = lib.precision.FlopCounter()

    def attempt():
        try:
            return call(counter), None
        except lib.errors.MpsylvError as exc:
            return None, exc

    if probe is None:
        t0 = time.perf_counter()
        rep, exc = attempt()
        wall, ref = time.perf_counter() - t0, None
    else:
        (rep, exc), wall, ref = probe.timed(attempt)
    flops = dict(counter.counts)
    if exc is not None:
        return None, Outcome(key, solver, p.m, p.n, wall, ref, None, type(exc).__name__,
                             "none", math.nan, flops=flops), exc
    inner = 0
    if solver == "bs":
        X, info = rep
        iters, slug, res = None, "ok", info.residual
    elif solver.startswith("gmres"):
        X, iters, slug = rep.X, rep.outer_iterations, failure_slug(rep.failure)
        res = rep.residual_history[-1] if rep.residual_history else math.nan
        inner = sum(rep.inner_iterations)
    else:
        X, iters, slug, res = rep.X, rep.iterations, failure_slug(rep.failure), rep.residual
    return rep, Outcome(key, solver, p.m, p.n, wall, ref, iters, slug, _x_sha(X),
                        float(res), inner, flops), None


def solve_direct(lib, solver: str, key: str, p, rcfg, probe=None) -> Outcome:
    """One solve through the library's public solver functions."""
    if solver == "bs":
        def call(c):
            return lib.sylvester.bartels_stewart(
                p, lib.precision.PrecisionContext(rcfg.u_h, c, "high"))
    elif solver == "or":
        def call(c):
            return lib.refinement.mp_orth(p, rcfg, c)
    elif solver == "in":
        def call(c):
            return lib.refinement.mp_inv(p, rcfg, c)
    else:
        raise ValueError(f"solver {solver!r} is not run directly")
    return timed_solve(lib, solver, key, p, call, probe)[1]


class SweepRecorder:
    """Records every solve `cli.run_sweep_cond` makes; its results are unchanged.

    While installed, the solver names in the ``cli`` namespace are
    replaced by pass-through functions that attach a FlopCounter when the
    caller passed none, time the call and keep its Outcome; an MpsylvError
    is recorded and re-raised for the CLI to handle as usual.  The
    problem stream comes from the last `cli.generate` call.
    """

    def __init__(self, lib, probe=None):
        self.lib = lib
        self.probe = probe
        self.outcomes: list[Outcome] = []
        self._saved = {}
        self._stream = "?"

    def _record(self, solver, p, call):
        rep, out, exc = timed_solve(self.lib, solver, f"{self._stream}/{solver}", p, call,
                                    self.probe)
        self.outcomes.append(out)
        if exc is not None:
            raise exc
        return rep

    def install(self):
        cli = self.lib.cli
        names = ("generate", "mp_orth", "mp_inv", "gmres_ir_sylv", "bartels_stewart")
        self._saved = {n: getattr(cli, n) for n in names}
        generate, mp_orth, mp_inv, gmres, bs = (self._saved[n] for n in names)

        def gen(g):
            self._stream = f"{g.seed}.{g.stream}"
            return generate(g)

        def orth(p, rcfg, counter=None, y0_zero=False):
            return self._record("or", p, lambda c: mp_orth(p, rcfg, counter or c, y0_zero=y0_zero))

        def inv(p, rcfg, counter=None, y0_zero=False):
            return self._record("in", p, lambda c: mp_inv(p, rcfg, counter or c, y0_zero=y0_zero))

        def gmres_ir(p, gcfg, rcfg, counter=None):
            name = "gmres-ul" if gcfg.u_g == rcfg.u_l else "gmres-uh"
            return self._record(name, p, lambda c: gmres(p, gcfg, rcfg, counter or c))

        def bartels(p, ctx):
            def call(c):
                if ctx.counter is None:
                    return bs(p, self.lib.precision.PrecisionContext(ctx.format, c, ctx.bucket))
                return bs(p, ctx)
            return self._record("bs", p, call)

        cli.generate, cli.mp_orth, cli.mp_inv = gen, orth, inv
        cli.gmres_ir_sylv, cli.bartels_stewart = gmres_ir, bartels

    def uninstall(self):
        for name, fn in self._saved.items():
            setattr(self.lib.cli, name, fn)
        self._saved = {}


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """A seeded, closed-loop source of solves.

    ``prepare`` makes the inputs (set-up); ``jobs`` yields, without end,
    callables that each perform some solves and return their Outcomes.
    ``cycle_jobs`` jobs solve the whole universe once; a timed run stops
    only at the end of a cycle, so every run solves the same problems,
    each as often as the others.  The traced run makes ``trace_jobs``
    jobs, twice.  With a SpeedProbe, solves are also timed in reference
    seconds.
    """

    name = ""
    universe = 1
    trace_jobs = 1

    @property
    def cycle_jobs(self) -> int:
        return self.universe

    def __init__(self, lib, seed: int, workdir: Path, probe=None):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.probe = probe

    def prepare(self) -> None:
        raise NotImplementedError

    def make_inputs(self) -> None:
        """The part of `prepare` that makes the inputs, without warm-up."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def jobs(self):
        raise NotImplementedError


class DenseWorkload(Workload):
    """Random-dense m x m problems, streams 0..universe-1 of generator seed 0,
    each solved by every solver in ``solvers`` in precisions (u_l, u_h)."""

    m = 0
    solvers: tuple = ()
    formats = ("binary32", "binary64")

    @property
    def cycle_jobs(self) -> int:
        return self.universe * len(self.solvers)

    @property
    def trace_jobs(self) -> int:
        return self.cycle_jobs

    def _order(self):
        start = (self.seed * 7) % self.universe
        return [(start + j) % self.universe for j in range(self.universe)]

    def _problem(self, k, m=None):
        cli = self.lib.cli
        m = m or self.m
        return cli.generate(cli.ProblemGenerator("random-dense", m, m, 0.0, 0, stream=k))

    def prepare(self):
        u_l, u_h = (self.lib.precision.FORMATS[f] for f in self.formats)
        self.rcfg = self.lib.refinement.RefinementConfig(u_l, u_h)
        self.make_inputs()
        warm = self._problem(0, m=4)
        for s in self.solvers:
            solve_direct(self.lib, s, "warm", warm, self.rcfg)

    def make_inputs(self):
        self.pool = [(k, self._problem(k)) for k in self._order()]

    def jobs(self):
        for k, p in itertools.cycle(self.pool):
            for s in self.solvers:
                yield lambda s=s, k=k, p=p: [
                    solve_direct(self.lib, s, f"{k}/{s}", p, self.rcfg, self.probe)]


class SylvB32M12(DenseWorkload):
    """mp_orth and mp_inv in binary32/binary64: the low-precision Schur
    factorizations (``linalg.schur`` and the ``precision.fl_*`` rounding)
    take nearly all of each solve; GMRES is absent."""

    name = "sylv-b32-m12"
    m = 12
    solvers = ("or", "in")
    universe = 8


class F64MmM24(DenseWorkload):
    """Problems written in set-up as hexfloat Matrix Market files, read back
    in the timed loop and solved in binary64/binary64.  Rounding is a no-op
    in binary64, so ``fl_*`` dispatch and Python loops are what is timed: a
    rounding-kernel change should not move this workload."""

    name = "f64-mm-m24"
    m = 24
    solvers = ("bs", "or", "in")
    formats = ("binary64", "binary64")
    universe = 5

    def _paths(self, k):
        return [self.workdir / f"p{k}_{x}.mtx" for x in "ABC"]

    def make_inputs(self):
        """Write every problem of the universe as hexfloat Matrix Market files."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for k in range(self.universe):
            p = self._problem(k)
            for path, M in zip(self._paths(k), (p.A, p.B, p.C)):
                self.lib.mmio.write_matrix(path, M)

    @property
    def input_bytes(self) -> int:
        """Size of the Matrix Market files one cycle reads."""
        return sum(path.stat().st_size for k in range(self.universe) for path in self._paths(k))

    def jobs(self):
        sylvester, mmio = self.lib.sylvester, self.lib.mmio
        for k in itertools.cycle(self._order()):
            paths = self._paths(k)
            A, B, C = (mmio.read_matrix(path) for path in paths)
            p = sylvester.SylvesterProblem(A, B, C)
            for s in self.solvers:
                yield lambda s=s, k=k, p=p: [
                    solve_direct(self.lib, s, f"{k}/{s}", p, self.rcfg, self.probe)]


class SweepCond10(Workload):
    """The paper's conditioning experiment, `cli.run_sweep_cond` on 10 x 10
    problems with kappa ~ 10^t, all five solvers.  The scalar Arnoldi and
    Givens loops of GMRES-IR dominate; past the kappa * u_l ~ 1 regime the
    refinement solvers fail by design, which exercises failure accounting."""

    name = "sweep-cond-10"
    m = 10
    t_values = (2, 6, 10, 14)
    universe = 2

    def prepare(self):
        prec = self.lib.precision
        self.rcfg = self.lib.refinement.RefinementConfig(prec.BINARY32, prec.BINARY64)
        self.make_inputs()
        self.lib.cli.run_sweep_cond(4, 4, [1], 0, self.rcfg, self.workdir / "warm.csv",
                                    reproducible=True)

    def sweep(self, sweep_seed: int) -> list[Outcome]:
        rec = SweepRecorder(self.lib, self.probe)
        rec.install()
        try:
            self.lib.cli.run_sweep_cond(self.m, self.m, list(self.t_values), sweep_seed,
                                        self.rcfg, self.workdir / "sweep.csv",
                                        reproducible=True)
        finally:
            rec.uninstall()
        return rec.outcomes

    def jobs(self):
        for k in itertools.count():
            yield lambda k=k: self.sweep((self.seed + k) % self.universe)


WORKLOADS = {w.name: w for w in (SylvB32M12, SweepCond10, F64MmM24)}


# ---------------------------------------------------------------------------
# output check

def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outcomes(workload: str, outcomes, reference: dict) -> list[str]:
    """Problems found in ``outcomes``; an empty list means the check passed.

    Every solve's digest must equal the one recorded for its key, and
    every converged solve's residual must lie below its stated bound.
    """
    ref = reference.get(workload, {})
    problems = []
    for o in outcomes:
        want = ref.get(o.key)
        if want is None:
            problems.append(f"{o.key}: no reference outcome")
        elif want["digest"] != o.digest():
            problems.append(f"{o.key}: digest differs from the reference "
                            f"(slug {o.slug} vs {want['slug']}, "
                            f"residual {o.residual!r} vs {want['residual']!r})")
        if o.ok and not o.residual < o.residual_bound():
            problems.append(f"{o.key}: residual {o.residual!r} not below "
                            f"{o.residual_bound()!r}")
    return problems
