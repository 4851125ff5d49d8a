"""Rounding-kernel microbenchmark: `precision.round_matrix` per format.

Two sizes: 2^20 float64 elements (8 MiB, computed as 2^20 x 8 B, which
fits in the L3 cache of current server CPUs, so this times the kernel,
not DRAM; the details report the host's L3 size) and 32-element vectors,
the size of one row or column in the solvers' inner loops.  Plain
numpy casts through float32 and float16 and back are the baseline: they
round to binary32 and binary16 in hardware.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

FORMATS = ("bfloat16", "binary16", "b24", "binary32")
LARGE = 1 << 20
SMALL = 32
REPEATS = 7          # large-array timings; the median is reported
SMALL_CALLS = 400    # calls per small-vector timing


def _median_time(fn, repeats: int, calls: int = 1) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def run(precision, seed: int) -> dict:
    """Per-layer metrics of the rounding kernel, named as in BENCHMARK.json."""
    rng = np.random.default_rng(seed)
    large = rng.standard_normal(LARGE)
    small = rng.standard_normal(SMALL)
    out = {}
    for name in FORMATS:
        fmt = precision.FORMATS[name]
        t = _median_time(lambda: precision.round_matrix(large, fmt), REPEATS)
        out[f"precision.round_matrix.ns_per_elem.{name}"] = (t * 1e9 / LARGE, "ns")
        t = _median_time(lambda: precision.round_matrix(small, fmt), REPEATS, SMALL_CALLS)
        out[f"precision.round_matrix.us_per_call.{name}"] = (t * 1e6, "us")
    for name, dtype in (("f32", np.float32), ("f16", np.float16)):
        t = _median_time(lambda: large.astype(dtype).astype(np.float64), REPEATS)
        out[f"precision.cast_{name}.ns_per_elem"] = (t * 1e9 / LARGE, "ns")
    return out


def notes(l3_bytes: int | None) -> dict:
    return {
        "large_elems": LARGE,
        "large_bytes_computed": LARGE * 8,
        "small_elems": SMALL,
        "l3_bytes": l3_bytes,
        "large_fits_l3": None if l3_bytes is None else LARGE * 8 < l3_bytes,
        "bytes_note": "byte counts are computed from element counts, not measured",
    }
