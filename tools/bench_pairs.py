"""Run the benchmark in alternating pairs on two source trees and compare them.

    python3 tools/bench_pairs.py --parent PATH --label NAME [--change PATH]
        [--first-seed 1] [--workloads W ...] [--out DIR]

For every workload (all of ``BENCHMARK.json`` by default) it runs the ten
pairs N = first-seed, ..., first-seed + 9 of ``python3 bench/run.py
--workload W --seed N --seconds S --trace 0``, S being the change's
``BENCHMARK.json`` ``run_seconds``, in both trees, the parent tree first
when N is odd, and removes every ``__pycache__`` under both trees before
each run, so that each run compiles the package as a fresh checkout
would.  The results go to ``BENCH_<label>.json`` (the change) and
``BENCH_<label>_parent.json`` in DIR, and a table is printed: for each
workload and end-to-end metric, each side's median and quartiles, the
change in the median, the parent's interquartile range and the pairs the
change won, ties counting for neither side.

Make the parent tree a git checkout of the parent commit, for example
with ``git worktree add --detach <dir> <commit>``, so that each result
file records the commit it ran; a ``git archive`` export has no git
metadata and is recorded as "unknown (not a git checkout)".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # a claimed gain must win 9 of 10 pairs
COMMAND = "python3 bench/run.py --workload W --seed N --seconds {seconds} --trace 0"


def remove_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (the last line of standard output) of one run."""
    remove_bytecode(tree)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the inclusive quartiles; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent_runs: list[dict], change_runs: list[dict],
              metrics: list[tuple[str, str]]) -> list[dict]:
    """One row per metric (name, "higher" or "lower" is better) over runs
    of one workload, pairs matched by seed: each side's quartiles, the
    relative change of the median, the parent's interquartile range, and
    the pairs the change won and lost (a tie counts for neither)."""
    parent = {r["seed"]: r["result"] for r in parent_runs}
    change = {r["seed"]: r["result"] for r in change_runs}
    seeds = sorted(parent.keys() & change.keys())
    rows = []
    for name, better in metrics:
        p = [parent[s]["metrics"][name]["value"] for s in seeds]
        c = [change[s]["metrics"][name]["value"] for s in seeds]
        sign = 1 if better == "higher" else -1
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        rows.append({
            "metric": name, "pairs": len(seeds), "won": won, "lost": lost,
            "parent": pq, "change": cq,
            "delta": (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan"),
            "parent_iqr": pq[2] - pq[0],
            "beyond_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
            "correct": (sum(parent[s]["correct"] for s in seeds),
                        sum(change[s]["correct"] for s in seeds)),
        })
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    out = [workload]
    for r in rows:
        (p1, p2, p3), (c1, c2, c3) = r["parent"], r["change"]
        out.append(
            f"  {r['metric']:13s} parent {p2:.4g} [{p1:.4g}, {p3:.4g}] -> "
            f"change {c2:.4g} [{c1:.4g}, {c3:.4g}]  {r['delta']:+.1%}  "
            f"won {r['won']}/{r['pairs']} (lost {r['lost']})  "
            f"|diff| {'>' if r['beyond_iqr'] else '<='} parent IQR {r['parent_iqr']:.3g}")
    p_ok, c_ok = rows[0]["correct"] if rows else (0, 0)
    out.append(f"  correct runs: parent {p_ok}, change {c_ok}")
    return "\n".join(out)


def _commit(tree: Path) -> str:
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--",
                                "src", "bench"], capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head + (" with uncommitted changes to src/ or bench/" if dirty else "")


def _host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version}




def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>[_parent].json")
    ap.add_argument("--parent", type=Path, required=True, help="the parent commit's tree")
    ap.add_argument("--change", type=Path, default=ROOT, help="the change's tree")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.first_seed < 0:
        ap.error("--first-seed must be >= 0")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + PAIRS)
    protocol = (f"{PAIRS} pairs per workload, seed N = pair number ({seeds[0]} to "
                f"{seeds[-1]}), parent and change run back to back, the parent first on "
                "odd N, every __pycache__ removed on both sides before each run")
    docs = {}
    for side, tree in (("change", args.change), ("parent", args.parent)):
        docs[side] = {"commit": _commit(tree), "command": COMMAND.format(seconds=seconds),
                      "host": _host(), "protocol": protocol,
                      "runs": {w: [] for w in workloads}}
    files = {side: args.out / f"BENCH_{args.label}{suffix}.json"
             for side, suffix in (("change", ""), ("parent", "_parent"))}
    for w in workloads:
        for n in seeds:
            order = ("parent", "change") if n % 2 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                result = run_once(tree, w, n, seconds)
                docs[side]["runs"][w].append({"seed": n, "result": result})
                print(f"{w} seed {n} {side}: solves_per_s "
                      f"{result['metrics']['solves_per_s']['value']:.3f}", flush=True)
            # written after every pair, so an interrupted run keeps the pairs done so far
            for side, path in files.items():
                path.write_text(json.dumps(docs[side], indent=1) + "\n")
        print(format_rows(w, summarize(docs["parent"]["runs"][w], docs["change"]["runs"][w],
                                       metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
