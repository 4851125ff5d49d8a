"""Time the Schur and triangular-solve kernels of two source trees in one process.

    python3 tools/ab_kernels.py --parent PATH [--change PATH] [--rounds 40]
        [--b32 M K] [--b64 M K]
    python3 tools/ab_kernels.py --parent PATH [--change PATH] --fingerprint [N]

Each tree's ``src/mpsylv`` is loaded under a name of its own
(``mpsylv_parent``, ``mpsylv_change``), so both run in this process on
the same inputs.  The inputs are the benchmark's dense problems:
``random-dense`` problems of generator seed 0, streams 0..K-1, m = 12
and K = 8 in binary32 (as sylv-b32-m12 solves them) and m = 24 and K = 5
in binary64 (as f64-mm-m24 does) by default.  The kernels, per format:

- ``schur`` of each A alone, and of each pair [A; B] as one stack;
- ``solve_sylv_tri`` of T_A Y + Y T_B = C, with T_A and T_B the Schur
  factors of A and B in the format and C rounded into it, so that binary32
  runs on complex64 as in the solvers.

Each round times one pass of each kernel over all problems with
``time.process_time``, once per tree, the parent first in even rounds.
Whole-workload pairs (``tools/bench_pairs.py``) are swamped by the host's
drift at this level; alternating rounds in one process much less.  The
table gives, per kernel, each tree's median and minimum in ms per pass,
the change in the median, and the rounds the change won.  Every output
(U, T and Y bytes, flop buckets, error type and message) must be the same
byte for byte in both trees, or the script stops with exit status 1.
BLAS runs on one thread.

``--fingerprint`` times nothing: it runs the first N (810 by default)
of each of two seeded case families in both trees and compares their
outputs, the flop buckets, and the error type and message byte for
byte, naming the first case that differs (exit status 1).

Both modes compare each output with every NaN real or imaginary part
mapped to the quiet NaN 0x7ff8000000000000 first: a NaN's payload means
nothing in mpsylv, whose kernels return that NaN, so two trees may differ
in payloads alone.  NaN positions and every other bit are compared.

- ``schur`` cases.  The formats cycle through binary32 and binary64
  twice, at m 1-24, then bfloat16, binary16, tf32, b24 and 40:11, at
  m 1-14, on stacks of 1-3 matrices.  Each matrix is dense, real,
  Hessenberg with +-0 and negligible subdiagonal entries, Hessenberg with
  a NaN or inf in its deflated last column, near the top of the format's
  range (1e308 in binary64, sometimes past it), a scaled cyclic
  permutation, triangular, diagonal, the identity or graded.
- Solve cases.  The seven formats in turn, each case a triangular pair
  T_A Y + Y T_B = C of values of the format at m, n 1-7, with T_B upper
  or lower triangular and a quarter of the pairs singular, and four
  right-hand sides: ordinary, near the top of the range (it overflows),
  not rounded into the format (binary32's software path) and ordinary.
  A quarter of the binary32 cases pass complex64 operands, as a GMRES
  correction's steps do.  Each case runs a one-shot ``solve_sylv_tri``
  of the first C, one prepared pair (``_prepare_sylv_tri``) over all
  four, and ``_vec_norm2_ctx`` of each C; cases 0 and 4 of every nine
  also run ``gmres_ir_sylv`` (u_g the format, u_h binary64, restart 3) on
  a 4x4 or 5x3 problem.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
import warnings
from pathlib import Path

if __name__ == "__main__":  # before numpy loads its thread pools
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_tree(tree: Path, name: str):
    """The package under ``tree/src/mpsylv``, imported as ``name``, with its
    submodules loaded afresh (a package loaded before under ``name`` is
    dropped, so that each submodule is an attribute of the new one)."""
    for loaded in [k for k in sys.modules if k == name or k.startswith(f"{name}.")]:
        del sys.modules[loaded]
    pkg_dir = tree / "src" / "mpsylv"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "errors", "gmresir", "linalg", "precision", "refinement", "sylvester"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def _factors(lib, A, ctx):
    sf = lib.linalg.schur(A, ctx)
    return sf.U, sf.T


def problems(lib, m: int, count: int):
    """The ``random-dense`` problems of seed 0, streams 0..count-1."""
    cli = lib.cli
    return [cli.generate(cli.ProblemGenerator("random-dense", m, m, 0.0, 0, stream=k))
            for k in range(count)]


_NAN = np.array(0x7FF8000000000000, dtype=np.uint64).view(np.float64)


def _canonical_bytes(a) -> bytes:
    """The bytes of a, bytes or an array, with each NaN real or imaginary
    part of a float or complex array the quiet NaN 0x7ff8000000000000."""
    if isinstance(a, bytes):
        return a
    a = np.array(a)
    if a.dtype.kind in "fc":
        for part in (a.real, a.imag) if a.dtype.kind == "c" else (a,):
            part[np.isnan(part)] = _NAN
    return np.ascontiguousarray(a).tobytes()


def _result(run, ctx):
    """The bytes of ``run(ctx)``'s arrays, NaN parts made canonical
    (`_canonical_bytes`), or the type and message of the exception it
    raises: an MpsylvError, or any other."""
    try:
        return [_canonical_bytes(a) for a in run(ctx)]
    except Exception as exc:  # compared between the trees, not handled
        return type(exc).__name__, str(exc)


def _outcome(lib, fmt, *runs):
    """The `_result` of each of ``runs`` in turn, under one context, and
    the flop buckets they charged: a 1-tuple's result stands alone."""
    counter = lib.precision.FlopCounter()
    ctx = lib.precision.PrecisionContext(lib.precision.parse_format(fmt), counter, "low")
    with np.errstate(all="ignore"):
        out = [_result(run, ctx) for run in runs]
    return out[0] if len(out) == 1 else out, dict(counter.counts)


def inputs(lib, b32, b64):
    """{format: (m, problems, triangular operands)}, made by one tree and
    passed to both.  The operands are values of the format, as a solver
    passes them: T_A and T_B from its Schur factors, and C rounded."""
    out = {}
    for fmt, (m, count) in (("binary32", b32), ("binary64", b64)):
        ps = problems(lib, m, count)
        ctx = lib.precision.PrecisionContext(lib.precision.parse_format(fmt))
        tri = [(lib.linalg.schur(p.A, ctx).T, lib.linalg.schur(p.B, ctx).T,
                lib.precision.round_matrix(np.asarray(p.C, dtype=np.complex128), ctx.format))
               for p in ps]
        out[fmt] = m, ps, tri
    return out


def kernels(lib, made):
    """{label: pass()} for one tree on the inputs ``made``; pass() returns
    the outcomes of one pass of the kernel over its problems."""
    sylvester = lib.sylvester
    table = {}
    for fmt, (m, ps, tri) in made.items():
        tag = f"b{fmt[-2:]}-m{m}"

        def single(ps=ps, fmt=fmt):
            return [_outcome(lib, fmt, lambda ctx, A=p.A: _factors(lib, A, ctx)) for p in ps]

        def pair(ps=ps, fmt=fmt):
            return [_outcome(lib, fmt, lambda ctx, p=p: _factors(lib, np.stack([p.A, p.B]), ctx))
                    for p in ps]

        def solve(tri=tri, fmt=fmt):
            return [_outcome(lib, fmt, lambda ctx, t=t: [sylvester.solve_sylv_tri(*t, ctx)])
                    for t in tri]
        table[f"schur-{tag}"] = single
        table[f"schur-pair-{tag}"] = pair
        table[f"sylv-tri-{tag}"] = solve
    return table


def compare(parent: Path, change: Path, rounds: int, b32, b64):
    """Per kernel label, the process times in seconds of each round:
    {label: {"parent": [...], "change": [...]}}.  Raises AssertionError at
    the first output that differs between the trees."""
    libs = {"parent": load_tree(parent, "mpsylv_parent"),
            "change": load_tree(change, "mpsylv_change")}
    made = inputs(libs["parent"], b32, b64)
    sides = {side: kernels(lib, made) for side, lib in libs.items()}
    times = {label: {"parent": [], "change": []} for label in sides["parent"]}
    for r in range(rounds):
        for label in times:
            outs = {}
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                t0 = time.process_time()
                outs[side] = sides[side][label]()
                times[label][side].append(time.process_time() - t0)
            if outs["parent"] != outs["change"]:  # a check that survives python -O
                raise AssertionError(f"{label}: outputs differ in round {r}")
    return times


FORMATS = ("binary32", "binary64") * 2 + ("bfloat16", "binary16", "tf32", "b24", "40:11")
KINDS = ("dense", "real", "hessenberg", "nan-ending", "near-max", "cyclic",
         "triangular", "diagonal", "identity", "graded")


def _matrix(rng, kind: str, m: int, top: float) -> np.ndarray:
    """One m x m case matrix of ``kind``; ``top`` is the format's largest
    finite value."""
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    if kind == "real":
        return A.real.astype(np.complex128)
    if kind in ("hessenberg", "nan-ending"):
        A = np.triu(A, -1)
        sub = np.arange(m - 1)
        special = rng.random(m - 1) < 0.4
        A[sub[special] + 1, sub[special]] = rng.choice([0.0, -0.0, 1e-30, -3e-17j], special.sum())
        if kind == "nan-ending":  # deflated at once, so that the iteration can finish
            A[m - 1, m - 2:m - 1] = rng.choice([0.0, -0.0])
            A[int(rng.integers(m)), m - 1] = rng.choice([np.nan, complex(np.nan, 1.0), np.inf])
        return A
    if kind == "near-max":
        return A * (top * rng.choice([0.01, 0.1, 0.4]))
    if kind == "cyclic":
        return (np.eye(m, k=-1) + np.eye(m, k=m - 1)) * rng.choice([1.0, 2.0**-10, 0.5 * top])
    if kind == "triangular":
        return np.triu(A)
    if kind == "diagonal":
        return np.diag(np.diag(A))
    if kind == "identity":
        return np.eye(m, dtype=np.complex128)
    if kind == "graded":
        d = 2.0 ** (-4.0 * np.arange(m))
        return d[:, None] * A * d
    return A


def fingerprint_cases(lib, count: int):
    """The first ``count`` cases (label, format, A) of the seeded set; A is
    a stack of 1-3 matrices of one size, case i drawn from seed i."""
    cases = []
    for i in range(count):
        rng = np.random.default_rng(i)
        fmt = FORMATS[i % len(FORMATS)]
        m = int(rng.integers(1, 25 if fmt in ("binary32", "binary64") else 15))
        kinds = [KINDS[int(k)] for k in rng.integers(len(KINDS), size=rng.integers(1, 4))]
        top = lib.precision.parse_format(fmt).max_finite
        with np.errstate(over="ignore"):  # a near-max binary64 entry may pass 1.8e308
            A = np.stack([_matrix(rng, kind, m, top) for kind in kinds])
        cases.append((f"case {i} {fmt} m={m} {'+'.join(kinds)}", fmt, A))
    return cases


SOLVE_FORMATS = ("bfloat16", "binary16", "tf32", "b24", "binary32", "40:11", "binary64")


def solve_cases(lib, count: int):
    """The first ``count`` solve cases (label, format, T_A, T_B, [C], p):
    values of the format in complex128, or complex64 in binary32, and a
    SylvesterProblem p for `gmres_ir_sylv` or None; case i is drawn from
    seed 10000 + i."""
    cases = []
    for i in range(count):
        rng = np.random.default_rng(10_000 + i)
        fmt = SOLVE_FORMATS[i % len(SOLVE_FORMATS)]
        f = lib.precision.parse_format(fmt)
        m, n = (int(k) for k in rng.integers(1, 8, 2))
        cm = lambda r, c: rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        T_A, T_B = np.triu(cm(m, m)) + 2 * np.eye(m), np.triu(cm(n, n)) + 2 * np.eye(n)
        tags = []
        if rng.random() < 0.5:
            T_B, tags = T_B.T.copy(), tags + ["lower"]
        if rng.random() < 0.25:  # T_A[k, k] + T_B[j, j] = 0
            k, j = int(rng.integers(m)), int(rng.integers(n))
            T_A[k, k] = -T_B[j, j]
            tags.append("singular")
        Cs = [cm(m, n) for _ in range(4)]
        with np.errstate(over="ignore"), warnings.catch_warnings():
            Cs[1] *= f.max_finite / 2
            warnings.simplefilter("ignore")  # the near-top C rounds to inf in places
            T_A, T_B = (lib.precision.round_matrix(T, f) for T in (T_A, T_B))
            Cs = [C if k == 2 else lib.precision.round_matrix(C, f) for k, C in enumerate(Cs)]
            if fmt == "binary32" and rng.random() < 0.5:
                T_A, T_B, *Cs = (M.astype(np.complex64) for M in [T_A, T_B] + Cs)
                tags.append("complex64")
        p = None
        if i % 9 in (0, 4):
            pm, pn = ((4, 4), (5, 3))[i // 4 % 2]
            A, B = cm(pm, pm) + 3 * np.eye(pm), cm(pn, pn) + 3 * np.eye(pn)
            p = lib.sylvester.SylvesterProblem(A, B, cm(pm, pn))
            tags.append(f"gmres-{pm}x{pn}")
        cases.append((f"solve case {i} {fmt} m={m} n={n} {'+'.join(tags) or 'upper'}",
                      fmt, T_A, T_B, Cs, p))
    return cases


def _solve_runs(lib, T_A, T_B, Cs, p):
    """The runs of one solve case, for `_outcome`: a one-shot solve of
    Cs[0], one prepared pair over each C in turn (a pair that fails to
    prepare fails each run), the norm of each C raveled, and
    `gmres_ir_sylv` on p (X, iterations and failure) when p is given."""
    sylvester, linalg = lib.sylvester, lib.linalg
    pair = []

    def prepared(C):
        def run(ctx):
            if not pair:
                pair.append(sylvester._prepare_sylv_tri(T_A, T_B, ctx))
            return [pair[0](C)]
        return run

    def norm(C):
        return lambda ctx: [np.array(linalg._vec_norm2_ctx(C.ravel(), ctx))]

    def gmres(ctx):
        fmt = ctx.format
        rcfg = lib.refinement.RefinementConfig(fmt, lib.precision.parse_format("binary64"),
                                               max_iter=6)
        rep = lib.gmresir.gmres_ir_sylv(p, lib.gmresir.GmresConfig(fmt, restart=3), rcfg,
                                        ctx.counter)
        return [rep.X, np.array([rep.outer_iterations, *rep.inner_iterations]),
                str(rep.failure).encode()]

    runs = [lambda ctx: [sylvester.solve_sylv_tri(T_A, T_B, Cs[0], ctx)]]
    runs += [prepared(C) for C in Cs] + [norm(C) for C in Cs]
    return runs + ([gmres] if p is not None else [])


def _schur_family(libs, count: int) -> str:
    ends = {}
    for label, fmt, A in fingerprint_cases(libs[0], count):
        outs = [_outcome(lib, fmt, lambda ctx, lib=lib: _factors(lib, A, ctx)) for lib in libs]
        if outs[0] != outs[1]:
            raise AssertionError(f"{label}: outputs differ")
        out = outs[0][0]
        end = out[0] if isinstance(out, tuple) else (
            "NaN in T" if np.isnan(np.frombuffer(out[1], np.complex128)).any() else "finite")
        ends[end] = ends.get(end, 0) + 1
    return f"{count} schur cases byte-identical: " + ", ".join(
        f"{n} {end}" for end, n in sorted(ends.items()))


def _solve_family(libs, count: int) -> str:
    ends = {}
    for label, fmt, T_A, T_B, Cs, p in solve_cases(libs[0], count):
        outs = [_outcome(lib, fmt, *_solve_runs(lib, T_A, T_B, Cs, p)) for lib in libs]
        if outs[0] != outs[1]:
            raise AssertionError(f"{label}: outputs differ")
        for out in outs[0][0][:5]:  # the solves
            end = out[0] if isinstance(out, tuple) else "solved"
            ends[end] = ends.get(end, 0) + 1
    return f"{count} solve cases byte-identical: " + ", ".join(
        f"{n} {end}" for end, n in sorted(ends.items())) + " (of 5 solves each)"


def fingerprint(parent: Path, change: Path, count: int) -> str:
    """A summary of the first ``count`` cases of each family, whose outputs
    are the same byte for byte in both trees, one line per family.  Raises
    AssertionError naming the first case whose outputs differ."""
    libs = [load_tree(parent, "mpsylv_parent"), load_tree(change, "mpsylv_change")]
    return _schur_family(libs, count) + "\n" + _solve_family(libs, count)


def format_table(times) -> str:
    rows = [f"{'kernel':20s} {'parent ms':>20s} {'change ms':>20s} {'median':>8s}  wins",
            f"{'':20s} {'median / min':>20s} {'median / min':>20s}"]
    for label, t in times.items():
        p, c = t["parent"], t["change"]
        pm, cm = statistics.median(p), statistics.median(c)
        won = sum(b < a for a, b in zip(p, c))
        rows.append(f"{label:20s} {1e3 * pm:10.2f} / {1e3 * min(p):7.2f} "
                    f"{1e3 * cm:10.2f} / {1e3 * min(c):7.2f} {(cm - pm) / pm:+8.1%}  "
                    f"{won}/{len(p)}")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent commit's tree")
    ap.add_argument("--change", type=Path, default=ROOT, help="the change's tree")
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--b32", type=int, nargs=2, default=(12, 8), metavar=("M", "K"),
                    help="binary32 problem size and count")
    ap.add_argument("--b64", type=int, nargs=2, default=(24, 5), metavar=("M", "K"),
                    help="binary64 problem size and count")
    ap.add_argument("--fingerprint", type=int, nargs="?", const=810, default=None, metavar="N",
                    help="compare the outputs of the first N cases of each fingerprint "
                         "family (810 if N is not given) instead of timing")
    args = ap.parse_args(argv)
    if args.rounds < 1 or min(*args.b32, *args.b64) < 1:
        ap.error("--rounds, M and K must be >= 1")
    if args.fingerprint is not None and args.fingerprint < 1:
        ap.error("--fingerprint N must be >= 1")
    try:
        if args.fingerprint is not None:
            print(fingerprint(args.parent, args.change, args.fingerprint), flush=True)
            return 0
        times = compare(args.parent, args.change, args.rounds, args.b32, args.b64)
    except AssertionError as exc:
        print(f"not byte-identical: {exc}", flush=True)
        return 1
    print(format_table(times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
