"""Experiment harness and command-line front end.

Subcommands::

    solve            one problem, selected solvers, residual table
    sweep-cond       conditioning sweep over t with kappa_2 ~ 10^t
    sweep-costmodel  (rho, phi, k*) tables for the four cost formulas
    bench            instrumented flop counts next to the model counts

Every run writes CSV (UTF-8, LF) whose header is a block of '#'-prefixed
metadata lines recording the seed, precisions, tolerances and generator
identifier.  --reproducible omits the timestamp line, so that a rerun repeats
its bytes for a fixed numpy/BLAS build and BLAS thread count, such as
OPENBLAS_NUM_THREADS=1: ``condu`` comes from LAPACK's SVD, whose last
digits change with the thread count (ROADMAP item 1(c)).

Randomness comes from the counter-based Philox generator (philox4x64-10,
numpy BitGenerator "Philox") keyed by SeedSequence(entropy=seed,
spawn_key=(stream,)); the row index of a sweep is the stream.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .costmodel import ALGORITHMS, CostModel, flops, k_star, phi
from .errors import MpsylvError
from .gmresir import GmresConfig, gmres_ir_sylv
from .linalg import DEFAULT_KRON_CAP, sylvester_kron_operator
from .mmio import read_matrix
from .precision import (
    FlopCounter,
    FpFormat,
    PrecisionContext,
    parse_format,
)
from .refinement import RefinementConfig, mp_inv, mp_orth
from .sylvester import SylvesterProblem, _shared_schur_pairs, bartels_stewart

__all__ = [
    "ProblemGenerator",
    "generate",
    "run_solve",
    "run_sweep_cond",
    "run_sweep_costmodel",
    "run_bench",
    "main",
]

GENERATOR_ID = "philox4x64-10"
_T_MAX = 307
ALL_SOLVERS = ("or", "in", "gmres-ul", "gmres-uh", "bs")


@dataclass(frozen=True)
class ProblemGenerator:
    """Deterministic synthetic Sylvester problems.

    Kinds: ``random-dense`` (standard normal coefficients),
    ``logspace-conditioned`` (eigenvalues 10^linspace(0, t), similarity
    transforms drawn standard normal for A and uniform for B), ``hermitian``
    and ``lyapunov`` (diagonally shifted so the equation stays nonsingular).

    The logspace kind controls the conditioning of the stacked operator:
    transform candidates are redrawn until their own condition numbers are
    modest, and (while the problem is small enough for the explicit
    Kronecker oracle) until kappa_2 of the operator falls in
    [10^t, 10^(t+1)], so the target conditioning is met within one order
    of magnitude.  Rejections consume the same deterministic stream, so a
    (seed, stream) pair always yields the same problem.
    """

    kind: str
    m: int
    n: int
    t: float = 0.0
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.kind not in ("random-dense", "logspace-conditioned",
                             "hermitian", "lyapunov"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be at least 1, got {self.m} x {self.n}")
        if self.kind == "lyapunov" and self.m != self.n:
            raise ValueError("lyapunov generator requires m == n")
        # past 307 the kappa window's bound 10^(t+1) overflows a double;
        # a NaN fails both comparisons
        if not 0 <= self.t <= _T_MAX:
            raise ValueError(f"t must lie in [0, {_T_MAX}], got {self.t}")
        if self.seed < 0 or self.stream < 0:
            raise ValueError(f"seed and stream must be nonnegative, got {self.seed}, {self.stream}")


def _rng(g: ProblemGenerator) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=g.seed, spawn_key=(g.stream,))
    return np.random.Generator(np.random.Philox(ss))


def _similarity(P: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    # P @ diag(eigs) / P, the right division done as a transposed solve
    PD = P * eigs[None, :]
    return np.linalg.solve(P.T, PD.T).T


_TRANSFORM_COND_CAP = {"normal": 6.0, "uniform": 15.0}
_GENERATOR_ATTEMPTS = 400
# transform candidates drawn and conditioned as one stack
_TRANSFORM_CHUNK = 32


def _conditioned_transform(rng, size: int, family: str) -> np.ndarray:
    """The first of up to 400 draws whose condition number is at most the
    family's cap, else the first draw of least condition number.

    Draws are made and conditioned a stack of `_TRANSFORM_CHUNK` at a time:
    one (k, size, size) draw is the k single draws, and ``np.linalg.cond``
    of the stack is the condition number of each.  When a stack holds the
    draw returned, the generator is put back to the stack's start and
    draws again up to that draw only, so that it leaves the generator
    where one draw at a time would.
    """
    cap = _TRANSFORM_COND_CAP[family]
    draw = rng.standard_normal if family == "normal" else rng.random
    best, best_cond = None, np.inf
    for done in range(0, _GENERATOR_ATTEMPTS, _TRANSFORM_CHUNK):
        k = min(_TRANSFORM_CHUNK, _GENERATOR_ATTEMPTS - done)
        state = rng.bit_generator.state
        P = draw((k, size, size))
        c = np.linalg.cond(P)
        hit = np.flatnonzero(c <= cap)
        if hit.size:
            rng.bit_generator.state = state
            draw((hit[0] + 1, size, size))
            return P[hit[0]]
        # a NaN condition number never counts as the least
        i = int(np.argmin(np.where(np.isnan(c), np.inf, c)))
        if c[i] < best_cond:
            best, best_cond = P[i], c[i]
    return best


# id(problem) -> (problem, singular values of its Kronecker operator) in a
# `_row_singular_values` scope; unset outside one, where get({}) gives a
# dict that nothing keeps
_ROW_SV: contextvars.ContextVar[dict] = contextvars.ContextVar("row_singular_values")


@contextlib.contextmanager
def _row_singular_values():
    """One sweep row, in which `_condu` reuses `_logspace_problem`'s SVD."""
    token = _ROW_SV.set({})
    try:
        yield
    finally:
        _ROW_SV.reset(token)


def _logspace_problem(rng, m: int, n: int, t: float) -> SylvesterProblem:
    check_kappa = t >= 1.0 and m * n <= DEFAULT_KRON_CAP
    best, best_dist = None, np.inf
    for _ in range(_GENERATOR_ATTEMPTS):
        A = _similarity(_conditioned_transform(rng, m, "normal"),
                        np.logspace(0.0, t, m))
        B = _similarity(_conditioned_transform(rng, n, "uniform"),
                        np.logspace(0.0, t, n))
        C = rng.standard_normal((m, n))
        if not check_kappa:
            return SylvesterProblem(A, B, C)
        Mf = sylvester_kron_operator(A, B)
        sv = np.linalg.svd(Mf, compute_uv=False)
        # a singular operator has kappa = inf, and so an infinite distance
        kappa = float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else np.inf
        if 10.0**t <= kappa <= 10.0 ** (t + 1):
            best = SylvesterProblem(A, B, C), sv
            break
        dist = abs(np.log10(kappa) - (t + 0.5))
        if dist < best_dist:
            best, best_dist = (SylvesterProblem(A, B, C), sv), dist
        elif best is None:  # the first draw stands in while no distance is finite
            best = SylvesterProblem(A, B, C), sv
    # kept for `_condu` in a row scope, with the problem, so that its id is not reused
    _ROW_SV.get({})[id(best[0])] = best
    return best[0]


def generate(g: ProblemGenerator) -> SylvesterProblem:
    rng = _rng(g)
    m, n = g.m, g.n
    if g.kind == "logspace-conditioned":
        return _logspace_problem(rng, m, n, g.t)
    if g.kind == "random-dense":
        return SylvesterProblem(rng.standard_normal((m, m)),
                                rng.standard_normal((n, n)),
                                rng.standard_normal((m, n)))
    if g.kind == "hermitian":
        G = rng.standard_normal((m, m))
        A = (G + G.T) / 2 + (1.0 + np.sqrt(m)) * np.eye(m)
        G = rng.standard_normal((n, n))
        B = (G + G.T) / 2 + (1.0 + np.sqrt(n)) * np.eye(n)
        return SylvesterProblem(A, B, rng.standard_normal((m, n)),
                                kind="hermitian")
    # lyapunov: spectrum shifted into the right half plane
    A = rng.standard_normal((m, m)) + (1.0 + np.sqrt(m)) * np.eye(m)
    G = rng.standard_normal((m, m))
    C = (G + G.T) / 2
    return SylvesterProblem(A, A.conj().T, C, kind="lyapunov")


# ---------------------------------------------------------------------------
# CSV plumbing

def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if np.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def _write_csv(path, metadata: dict, columns, rows, reproducible: bool) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if not reproducible:
            fh.write(f"# written = {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        for key, val in metadata.items():
            fh.write(f"# {key} = {val}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _metadata(rcfg: RefinementConfig, gcfg_restart: int, seed, extra: dict) -> dict:
    md = {
        "generator": GENERATOR_ID,
        "seed": seed,
        "ul": rcfg.u_l.name,
        "uh": rcfg.u_h.name,
        "max_iter": rcfg.max_iter,
        "epsilon": "auto" if rcfg.epsilon is None else repr(rcfg.epsilon),
        "gmres_restart": gcfg_restart,
    }
    md.update(extra)
    return md


# ---------------------------------------------------------------------------
# solver dispatch

def _run_one(name: str, p: SylvesterProblem, rcfg: RefinementConfig,
             restart: int, y0_zero: bool = False):
    """Run one solver; returns (residual, iterations, converged, status).

    The status is "ok", the report's Failure, or the class name of an
    MpsylvError the solver raised (residual nan, iterations None).  The
    solvers are looked up as module globals on each call, so they can be
    swapped for instrumented ones.
    """
    try:
        if name == "bs":
            return bartels_stewart(p, PrecisionContext(rcfg.u_h))[1].residual, None, True, "ok"
        if name in ("or", "in"):
            rep = (mp_orth if name == "or" else mp_inv)(p, rcfg, y0_zero=y0_zero)
            res, iters = rep.residual, rep.iterations
        elif name in ("gmres-ul", "gmres-uh"):
            u_g = rcfg.u_l if name == "gmres-ul" else rcfg.u_h
            rep = gmres_ir_sylv(p, GmresConfig(u_g, restart=restart), rcfg)
            res = rep.residual_history[-1] if rep.residual_history else float("nan")
            iters = rep.outer_iterations
        else:
            raise ValueError(f"unknown solver {name!r}")
    except MpsylvError as exc:
        return float("nan"), None, False, type(exc).__name__
    return res, iters, rep.converged, rep.failure or "ok"


def run_solve(p: SylvesterProblem, rcfg: RefinementConfig, out,
              solvers=ALL_SOLVERS, restart: int = 20, seed="external",
              y0_zero: bool = False, reproducible: bool = False) -> list:
    """Solve one problem with each selected solver; returns the rows.

    The solvers share one Schur pair per format (`sylvester._schur_pair`):
    the four mixed solvers the u_l pair, and ``bs`` too when u_l = u_h.
    Each row, flop counts included, is that of its solver run alone.
    """
    with _shared_schur_pairs():
        rows = [[name, *_run_one(name, p, rcfg, restart, y0_zero)] for name in solvers]
    md = _metadata(rcfg, restart, seed, {"m": p.m, "n": p.n, "kind": p.kind})
    _write_csv(out, md, ["solver", "residual", "iterations", "converged", "status"],
               rows, reproducible)
    return rows


def _condu(p: SylvesterProblem, u_h: FpFormat) -> float | None:
    if p.m * p.n > DEFAULT_KRON_CAP:
        return None
    kept = _ROW_SV.get({}).get(id(p))
    sv = kept[1] if kept else np.linalg.svd(sylvester_kron_operator(p.A, p.B), compute_uv=False)
    if sv[-1] == 0.0:
        return float("inf")
    return float(sv[0] / sv[-1]) * u_h.unit_roundoff


def run_sweep_cond(m: int, n: int, t_values, seed: int, rcfg: RefinementConfig,
                   out, solvers=ALL_SOLVERS, restart: int = 20,
                   reproducible: bool = False) -> list:
    """Conditioning sweep: one generated problem per t, all solvers on it.

    As in `run_solve`, the solvers of a row share its Schur pair per format
    (`sylvester._schur_pair`), and no factors outlive the row; each
    solver's results and flop counts are those of that solver run alone.
    ``condu`` reuses the row's generator's SVD (`_row_singular_values`).
    """
    columns = ["t", "condu", "res_sylv", "r_or", "r_in",
               "r_gmres_ul", "r_gmres_uh", "i_or", "i_in", "status"]
    rows = []
    for idx, t in enumerate(t_values):
        with _row_singular_values(), _shared_schur_pairs():
            p = generate(ProblemGenerator("logspace-conditioned", m, n, float(t), seed,
                                          stream=idx))
            condu = _condu(p, rcfg.u_h)
            runs = [(name, _run_one(name, p, rcfg, restart)) for name in solvers]
        got, blank = dict(runs), (None,) * 4
        failures = [f"{name}:{r[3]}" for name, r in runs if r[3] != "ok"]
        rows.append([float(t), condu,
                     *(got.get(s, blank)[0] for s in ("bs", "or", "in", "gmres-ul", "gmres-uh")),
                     got.get("or", blank)[1], got.get("in", blank)[1],
                     ";".join(failures) or "ok"])
    md = _metadata(rcfg, restart, seed,
                   {"m": m, "n": n, "t_values": ":".join(str(t) for t in t_values),
                    "solvers": ",".join(solvers)})
    _write_csv(out, md, columns, rows, reproducible)
    return rows


def run_sweep_costmodel(m: int, n: int, out, step: float = 0.01,
                        reproducible: bool = False) -> list:
    """(rho, phi, k*) grid for each of the four cost formulas."""
    columns = ["algorithm", "rho", "funk", "optk"]
    rows = []
    grid = np.arange(0.0, 1.0 + step / 2, step)
    for alg in ALGORITHMS:
        mm = n if alg.endswith("_lyap") else m
        for r in grid:
            cm = CostModel(mm, n, float(r), alg)
            rows.append([alg, float(r), phi(cm), k_star(cm)])
    md = {"m": m, "n": n, "rho_step": step}
    _write_csv(out, md, columns, rows, reproducible)
    return rows


def run_bench(m: int, n: int, seed: int, rcfg: RefinementConfig, out,
              algorithms=("or", "in"), reproducible: bool = False) -> list:
    """Instrumented flop counts for the mixed solvers next to the model.

    ``algorithms`` holds "or" (mp_orth) and/or "in" (mp_inv).
    """
    unknown = [a for a in algorithms if a not in ("or", "in")]
    if unknown:
        raise ValueError(f"unknown bench algorithms {unknown}; known: or, in")
    columns = ["algorithm", "m", "n", "k", "low_measured", "low_model",
               "high_measured", "high_model", "low_ratio", "high_ratio"]
    rows = []
    for name in algorithms:
        g = ProblemGenerator("random-dense", m, n, 0.0, seed)
        p = generate(g)
        counter = FlopCounter()
        rep = mp_orth(p, rcfg, counter) if name == "or" else mp_inv(p, rcfg, counter)
        model = flops("mp_orth_sylv" if name == "or" else "mp_inv_sylv",
                      m, n, rep.iterations)
        lo, hi = counter.get("low"), counter.get("high")
        rows.append([name, m, n, rep.iterations, lo, model.low_flops,
                     hi, model.high_flops,
                     lo / model.low_flops, hi / model.high_flops])
    md = _metadata(rcfg, 0, seed, {"m": m, "n": n})
    _write_csv(out, md, columns, rows, reproducible)
    return rows


# ---------------------------------------------------------------------------
# argument parsing

REPRODUCIBLE_HELP = "omit the timestamp (bytes repeat for one numpy/BLAS build and thread count)"


def _add_common(sp):
    sp.add_argument("--m", type=int, default=10)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--ul", type=parse_format, default=parse_format("binary32"),
                    help="low precision (name or t:e)")
    sp.add_argument("--uh", type=parse_format, default=parse_format("binary64"),
                    help="high precision (name or t:e)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-iter", type=int, default=20)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--out", type=str, required=True)
    sp.add_argument("--reproducible", action="store_true", help=REPRODUCIBLE_HELP)


def _parse_t_range(spec: str):
    lo, _, hi = spec.partition(":")
    if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(
            f"expected a:b with integers 0 <= a <= b, got {spec!r}")
    return list(range(int(lo), int(hi) + 1))


def _solver_list(accepted):
    def parse(spec: str):
        names = spec.split(",")
        unknown = [s for s in names if s not in accepted]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown solver(s) {','.join(unknown)}; choose from {','.join(accepted)}")
        return names
    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mpsylv",
        description="Two-precision Sylvester and Lyapunov equation solvers")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one problem with selected solvers")
    _add_common(sp)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--kind", default="logspace-conditioned",
                    choices=("random-dense", "logspace-conditioned",
                             "hermitian", "lyapunov"))
    sp.add_argument("--solvers", type=_solver_list(ALL_SOLVERS),
                    default=",".join(ALL_SOLVERS))
    sp.add_argument("--y0-zero", action="store_true",
                    help="fall back to a zero initial iterate when the "
                         "low-precision triangular solve fails")
    sp.add_argument("--matrix-market", nargs=3, metavar=("A", "B", "C"),
                    default=None, help="read the problem from three files")
    sp.add_argument("--problem-kind", default="general",
                    choices=("general", "lyapunov", "hermitian"),
                    help="declared kind for a matrix-market problem")

    sp = sub.add_parser("sweep-cond", help="conditioning sweep over t")
    _add_common(sp)
    sp.add_argument("--t-range", type=_parse_t_range, default="0:15", metavar="a:b")
    sp.add_argument("--solvers", type=_solver_list(ALL_SOLVERS),
                    default=",".join(ALL_SOLVERS))
    sp.add_argument("--restart", type=int, default=20)

    sp = sub.add_parser("sweep-costmodel", help="(rho, phi, k*) tables")
    sp.add_argument("--m", type=int, default=10)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--out", type=str, required=True)
    sp.add_argument("--reproducible", action="store_true", help=REPRODUCIBLE_HELP)

    sp = sub.add_parser("bench", help="instrumented flops vs model")
    _add_common(sp)
    sp.add_argument("--solvers", type=_solver_list(("or", "in")), default="or,in")
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    if os.path.isdir(out):
        parser.error(f"--out: {out} is a directory")
    if not os.path.isdir(os.path.dirname(out)):
        parser.error(f"--out: directory {os.path.dirname(out)} does not exist")
    if args.command == "sweep-costmodel":
        try:
            CostModel(args.m, args.n, 0.0, "mp_orth_sylv")
        except ValueError as exc:
            parser.error(str(exc))
        run_sweep_costmodel(args.m, args.n, args.out,
                            reproducible=args.reproducible)
        print(f"wrote {args.out}")
        return 0
    # every setting is checked before the first solve runs
    try:
        rcfg = RefinementConfig(args.ul, args.uh, args.epsilon, args.max_iter)
        if args.command == "sweep-cond":
            GmresConfig(restart=args.restart)
            ProblemGenerator("logspace-conditioned", args.m, args.n, float(args.t_range[-1]),
                             args.seed)
        elif args.command == "bench":
            ProblemGenerator("random-dense", args.m, args.n, 0.0, args.seed)
        elif args.matrix_market is None:
            g = ProblemGenerator(args.kind, args.m, args.n, args.t, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "solve":
        if args.matrix_market is not None:
            # a missing or unreadable file (OSError), a malformed file,
            # mismatched shapes, a non-finite entry or a structure the
            # matrices lack (all ValueErrors) is a usage error
            try:
                p = SylvesterProblem(*(read_matrix(f) for f in args.matrix_market),
                                     kind=args.problem_kind)
            except (OSError, ValueError) as exc:
                parser.error(str(exc))
            seed = "matrix-market"
        else:
            p, seed = generate(g), args.seed
        rows = run_solve(p, rcfg, args.out, solvers=args.solvers,
                         seed=seed, y0_zero=args.y0_zero,
                         reproducible=args.reproducible)
        for row in rows:
            print(f"{row[0]:>9}: residual={row[1]!r} status={row[4]}")
        return 0
    if args.command == "sweep-cond":
        run_sweep_cond(args.m, args.n, args.t_range, args.seed,
                       rcfg, args.out, solvers=args.solvers,
                       restart=args.restart, reproducible=args.reproducible)
        print(f"wrote {args.out}")
        return 0
    if args.command == "bench":
        rows = run_bench(args.m, args.n, args.seed, rcfg, args.out,
                         algorithms=args.solvers,
                         reproducible=args.reproducible)
        for row in rows:
            print(f"{row[0]}: k={row[3]} low {row[4]:.3e}/{row[5]:.3e} "
                  f"high {row[6]:.3e}/{row[7]:.3e}")
        return 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
