"""Record the reference outcomes the benchmark's output check compares with.

Solves every problem of each named workload's universe once and stores,
per solve, its digest, failure reason, iteration count and residual:

    python3 bench/record.py sylv-b32-m24 sweep-cond-10 f64-mm-m48

Entries of workloads not named are kept.  Re-record only when a change
alters results on purpose, and say why in the change.
"""

from __future__ import annotations

import threads  # noqa: F401  first: pins BLAS/OpenMP to one thread

import argparse
import json
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS, load_mpsylv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def record(name: str, workdir: Path) -> dict:
    lib = load_mpsylv(ROOT / "src")
    w = WORKLOADS[name](lib, 0, workdir)
    w.prepare()
    jobs = w.jobs()
    entries = {}
    for _ in range(w.cycle_jobs):
        for o in next(jobs)():
            entries[o.key] = {"digest": o.digest(), "slug": o.slug,
                              "iterations": o.iterations, "residual": o.residual}
            print(json.dumps({"workload": name, "key": o.key, "wall_s": o.wall_s,
                              "slug": o.slug, "residual": o.residual}), flush=True)
    return dict(sorted(entries.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    ap.add_argument("--out", type=Path, default=BENCH / "reference.json")
    args = ap.parse_args(argv)
    ref = json.loads(args.out.read_text()) if args.out.exists() else {}
    for name in args.workloads:
        workdir = ROOT / ".bench_work" / f"record-{name}"
        try:
            ref[name] = record(name, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
