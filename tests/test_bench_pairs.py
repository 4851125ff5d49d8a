"""The summary of `tools/bench_pairs.py`: quartiles per side, pairs matched
by seed, and pairs won with ties counting for neither side."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values, correct=True):
    return [{"seed": seed, "result": {"correct": correct, "metrics": {
        "solves_per_s": {"value": v, "unit": "1/s"},
        "solve_s_p50": {"value": 1.0 / v, "unit": "s"}}}}
        for seed, v in values.items()]


METRICS = [("solves_per_s", "higher"), ("solve_s_p50", "lower")]


def test_pairs_won_lost_and_tied():
    parent = _runs({1: 10.0, 2: 10.0, 3: 12.0, 4: 8.0, 5: 9.0})
    change = _runs({1: 11.0, 2: 10.0, 3: 11.0, 4: 9.0, 5: 9.5})
    rate, p50 = bench_pairs.summarize(parent, change, METRICS)
    # seed 2 ties, seed 3 is lost, the other three are won
    assert (rate["won"], rate["lost"], rate["pairs"]) == (3, 1, 5)
    # lower is better for the latency, and 1/v reverses every comparison
    assert (p50["won"], p50["lost"]) == (3, 1)
    assert rate["correct"] == (5, 5)


def test_quartiles_delta_and_parent_spread():
    parent = _runs({s: v for s, v in enumerate([8.0, 9.0, 10.0, 11.0, 12.0], 1)})
    change = _runs({s: v for s, v in enumerate([10.0, 11.0, 12.0, 13.0, 14.0], 1)})
    (rate,) = bench_pairs.summarize(parent, change, METRICS[:1])
    assert rate["parent"] == (9.0, 10.0, 11.0)
    assert rate["change"] == (11.0, 12.0, 13.0)
    assert rate["delta"] == pytest.approx(0.2)
    assert rate["parent_iqr"] == 2.0 and not rate["beyond_iqr"]  # |12 - 10| is not above 2


def test_pairs_are_matched_by_seed():
    # a seed run on one side only is no pair
    parent = _runs({1: 10.0, 2: 10.0})
    change = _runs({2: 12.0, 3: 5.0})
    (rate,) = bench_pairs.summarize(parent, change, METRICS[:1])
    assert (rate["pairs"], rate["won"], rate["lost"]) == (1, 1, 0)
    assert rate["parent"] == (10.0, 10.0, 10.0) and rate["beyond_iqr"]


def test_table_lists_every_metric():
    rows = bench_pairs.summarize(_runs({1: 10.0}), _runs({1: 11.0}, correct=False), METRICS)
    text = bench_pairs.format_rows("sweep-cond-10", rows)
    assert text.splitlines()[0] == "sweep-cond-10"
    assert "solves_per_s" in text and "solve_s_p50" in text and "won 1/1" in text
    assert "correct runs: parent 1, change 0" in text
