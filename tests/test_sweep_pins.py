"""Pinned conditioning sweeps: the CSV bytes and every solve's flop buckets.

`cli.run_sweep_cond` runs five solvers on each generated problem.  Each
case here pins the sha256 of the ``reproducible=True`` CSV and, row by
row, the FlopCounter buckets of each solver, counted by wrapping the
solver names in the ``cli`` namespace as the benchmark's SweepRecorder
does.  A change to how the sweep runs its solvers has to leave each
solver's results and charges as they are when it runs alone.

(a) is a binary32 sweep with a non-converging and a stagnating row; (b)
is a binary16 sweep whose rows t = 3 and 4 end in IterationLimitError in
all four mixed solvers.  (c) and (d) run the same 4x4 sweep with u_l =
bfloat16, whose rows t = 2 and 3 end in non_convergence, and with the
custom format 40:11, whose sums are wide enough (t >= 26) that a double
sum rounded once more into the format can be double-rounded.  (e) is an
8x8 sweep with u_l = u_h = binary64, which runs every solver's kernels on
their binary64 paths.  Both GMRES-IR solvers have u_g = u_l there, so the
recorder files both under gmres-ul and keeps the second one's buckets.
(f) is a binary32 sweep with a 9x9 A and a 6x6 B (factored one at a time)
and GMRES restarted every 3 inner iterations, so each correction's
operator runs on unequal shapes across several restart cycles; rows t = 7
and 8 stagnate in gmres-ul and row 8 ends in non_convergence in the
stationary solvers.
"""

import hashlib

import pytest

from mpsylv import cli
from mpsylv.precision import (BFLOAT16, BINARY16, BINARY32, BINARY64, FlopCounter,
                              PrecisionContext, parse_format)
from mpsylv.refinement import RefinementConfig

SWEEPS = {
    "binary32-6x6": dict(
        m=6, t_values=[0, 5, 10, 15], seed=1, u_l=BINARY32,
        sha="49f771b1ac834e1c98dceb92b0c068a2044800ab7ddc9aa80ed91cd9557dc4bb",
        flops=[
            {"or": {"high": 7500, "low": 2411},
             "in": {"high": 6658, "low": 2411},
             "gmres-ul": {"gmres": 21207, "high": 3132, "low": 1979, "precond": 6480},
             "gmres-uh": {"gmres": 14138, "high": 2088, "low": 1979, "precond": 4320},
             "bs": {"high": 4948}},
            {"or": {"high": 10452, "low": 7976},
             "in": {"high": 9610, "low": 7976},
             "gmres-ul": {"gmres": 31957, "high": 4176, "low": 7544, "precond": 8640},
             "gmres-uh": {"gmres": 21500, "high": 2088, "low": 7544, "precond": 4320},
             "bs": {"high": 11096}},
            {"or": {"high": 34068, "low": 6848},
             "in": {"high": 33226, "low": 6848},
             "gmres-ul": {"gmres": 732556, "high": 20880, "low": 6416, "precond": 43200},
             "gmres-uh": {"gmres": 76507, "high": 2088, "low": 6416, "precond": 4320},
             "bs": {"high": 10172}},
            {"or": {"high": 34068, "low": 7664},
             "in": {"high": 33226, "low": 7664},
             "gmres-ul": {"gmres": 646083, "high": 3132, "low": 7232, "precond": 6480},
             "gmres-uh": {"gmres": 194426, "high": 1044, "low": 7232, "precond": 2160},
             "bs": {"high": 9812}},
        ]),
    "binary16-5x5": dict(
        m=5, t_values=[0, 1, 2, 3, 4], seed=2, u_l=BINARY16,
        sha="b93fa513738b1384cd6dea2ec57e2ee82f6450b0440faf3daeefa58babe66218",
        flops=[
            # A and B round to exact identities in binary16 and the Schur
            # step charges nothing, so gmres-ul and gmres-uh have no low bucket
            {"or": {"high": 4410, "low": 250},
             "in": {"high": 3890, "low": 250},
             "gmres-ul": {"gmres": 10505, "high": 3125, "precond": 6250},
             "gmres-uh": {"gmres": 2106, "high": 625, "precond": 1250},
             "bs": {"high": 2532}},
            {"or": {"high": 7035, "low": 4256},
             "in": {"high": 6515, "low": 4256},
             "gmres-ul": {"gmres": 25278, "high": 3750, "low": 4006, "precond": 7500},
             "gmres-uh": {"gmres": 17466, "high": 1250, "low": 4006, "precond": 2500},
             "bs": {"high": 7188}},
            {"or": {"high": 9660, "low": 4592},
             "in": {"high": 9140, "low": 4592},
             "gmres-ul": {"gmres": 29491, "high": 4375, "low": 4342, "precond": 8750},
             "gmres-uh": {"gmres": 19879, "high": 1250, "low": 4342, "precond": 2500},
             "bs": {"high": 7356}},
            {"or": {"low": 49169},
             "in": {"low": 49169},
             "gmres-ul": {"low": 49169},
             "gmres-uh": {"low": 49169},
             "bs": {"high": 7032}},
            {"or": {"low": 50938},
             "in": {"low": 50938},
             "gmres-ul": {"low": 50938},
             "gmres-uh": {"low": 50938},
             "bs": {"high": 6720}},
        ]),
    "bfloat16-4x4": dict(
        m=4, t_values=[0, 1, 2, 3], seed=1, u_l=BFLOAT16,
        sha="87aec4ab9fe325e3d9ce83973ea2fcf053b2232fddc0a37118e30024780a66ec",
        flops=[
            {"or": {"low": 393, "high": 3704},
             "in": {"low": 393, "high": 3412},
             "gmres-ul": {"low": 265, "high": 2352, "precond": 4480, "gmres": 7882},
             "gmres-uh": {"low": 265, "high": 336, "precond": 640, "gmres": 3446},
             "bs": {"high": 965}},
            {"or": {"low": 2398, "high": 5096},
             "in": {"low": 2398, "high": 5268},
             "gmres-ul": {"low": 2270, "high": 2688, "precond": 5120, "gmres": 18024},
             "gmres-uh": {"low": 2270, "high": 672, "precond": 1280, "gmres": 12060},
             "bs": {"high": 4254}},
            {"or": {"low": 1990, "high": 10664},
             "in": {"low": 1990, "high": 10372},
             "gmres-ul": {"low": 1862, "high": 6720, "precond": 12800, "gmres": 53411},
             "gmres-uh": {"low": 1862, "high": 672, "precond": 1280, "gmres": 19279},
             "bs": {"high": 3858}},
            {"or": {"low": 1798, "high": 10664},
             "in": {"low": 1798, "high": 10372},
             "gmres-ul": {"low": 1670, "high": 6720, "precond": 12800, "gmres": 80713},
             "gmres-uh": {"low": 1670, "high": 672, "precond": 1280, "gmres": 22391},
             "bs": {"high": 3654}},
        ]),
    "40:11-4x4": dict(
        m=4, t_values=[0, 1, 2, 3], seed=1, u_l=parse_format("40:11"),
        sha="1edfa2668aeb32f5773393628d4aa85dc4ebcd98366389220e8ed58e06d07058",
        flops=[
            {"or": {"low": 393, "high": 1848},
             "in": {"low": 393, "high": 1556},
             "gmres-ul": {"low": 265, "high": 672, "precond": 1280, "gmres": 2252},
             "gmres-uh": {"low": 265, "high": 672, "precond": 1280, "gmres": 2252},
             "bs": {"high": 965}},
            {"or": {"low": 3610, "high": 2312},
             "in": {"low": 3610, "high": 2020},
             "gmres-ul": {"low": 3482, "high": 672, "precond": 1280, "gmres": 2252},
             "gmres-uh": {"low": 3482, "high": 672, "precond": 1280, "gmres": 2252},
             "bs": {"high": 4254}},
            {"or": {"low": 2938, "high": 2312},
             "in": {"low": 2938, "high": 2020},
             "gmres-ul": {"low": 2810, "high": 672, "precond": 1280, "gmres": 2252},
             "gmres-uh": {"low": 2810, "high": 672, "precond": 1280, "gmres": 2252},
             "bs": {"high": 3858}},
            {"or": {"low": 2806, "high": 2312},
             "in": {"low": 2806, "high": 2020},
             "gmres-ul": {"low": 2678, "high": 672, "precond": 1280, "gmres": 2252},
             "gmres-uh": {"low": 2678, "high": 672, "precond": 1280, "gmres": 2252},
             "bs": {"high": 3654}},
        ]),
    "binary64-8x8": dict(
        m=8, t_values=list(range(16)), seed=1, u_l=BINARY64,
        sha="b4247f96b93f6aa148642e38ed83fce8f4e87e60151226a83ef1b8edef69f035",
        flops=[
            {"or": {"low": 7590, "high": 14032},
             "in": {"low": 7590, "high": 12200},
             "gmres-ul": {"low": 6566, "high": 2368, "precond": 5120, "gmres": 8070},
             "bs": {"high": 11686}},
            {"or": {"low": 27162, "high": 14032},
             "in": {"low": 27162, "high": 12200},
             "gmres-ul": {"low": 26138, "high": 2368, "precond": 5120, "gmres": 8070},
             "bs": {"high": 31258}},
            {"or": {"low": 25038, "high": 14032},
             "in": {"low": 25038, "high": 12200},
             "gmres-ul": {"low": 24014, "high": 2368, "precond": 5120, "gmres": 8070},
             "bs": {"high": 29134}},
            {"or": {"low": 23514, "high": 14032},
             "in": {"low": 23514, "high": 12200},
             "gmres-ul": {"low": 22490, "high": 2368, "precond": 5120, "gmres": 8070},
             "bs": {"high": 27610}},
            {"or": {"low": 22362, "high": 14032},
             "in": {"low": 22362, "high": 12200},
             "gmres-ul": {"low": 21338, "high": 2368, "precond": 5120, "gmres": 8070},
             "bs": {"high": 26458}},
            {"or": {"low": 21894, "high": 14032},
             "in": {"low": 21894, "high": 12200},
             "gmres-ul": {"low": 20870, "high": 2368, "precond": 5120, "gmres": 8070},
             "bs": {"high": 25990}},
            {"or": {"low": 20478, "high": 17424},
             "in": {"low": 20478, "high": 15592},
             "gmres-ul": {"low": 19454, "high": 2368, "precond": 5120, "gmres": 8070},
             "bs": {"high": 24574}},
            {"or": {"low": 19890, "high": 17424},
             "in": {"low": 19890, "high": 15592},
             "gmres-ul": {"low": 18866, "high": 2368, "precond": 5120, "gmres": 8070},
             "bs": {"high": 23986}},
            {"or": {"low": 19302, "high": 17424},
             "in": {"low": 19302, "high": 15592},
             "gmres-ul": {"low": 18278, "high": 2368, "precond": 5120, "gmres": 8070},
             "bs": {"high": 23398}},
            {"or": {"low": 19062, "high": 17424},
             "in": {"low": 19062, "high": 15592},
             "gmres-ul": {"low": 18038, "high": 2368, "precond": 5120, "gmres": 16141},
             "bs": {"high": 23158}},
            {"or": {"low": 19182, "high": 17424},
             "in": {"low": 19182, "high": 15592},
             "gmres-ul": {"low": 18158, "high": 2368, "precond": 5120, "gmres": 16141},
             "bs": {"high": 23278}},
            {"or": {"low": 18846, "high": 20816},
             "in": {"low": 18846, "high": 15592},
             "gmres-ul": {"low": 17822, "high": 2368, "precond": 5120, "gmres": 16141},
             "bs": {"high": 22942}},
            {"or": {"low": 19326, "high": 20816},
             "in": {"low": 19326, "high": 15592},
             "gmres-ul": {"low": 18302, "high": 2368, "precond": 5120, "gmres": 16141},
             "bs": {"high": 23422}},
            {"or": {"low": 19338, "high": 24208},
             "in": {"low": 19338, "high": 22376},
             "gmres-ul": {"low": 18314, "high": 2368, "precond": 5120, "gmres": 16141},
             "bs": {"high": 23434}},
            {"or": {"low": 18858, "high": 27600},
             "in": {"low": 18858, "high": 25768},
             "gmres-ul": {"low": 17834, "high": 2368, "precond": 5120, "gmres": 16141},
             "bs": {"high": 22954}},
            {"or": {"low": 18630, "high": 30992},
             "in": {"low": 18630, "high": 35944},
             "gmres-ul": {"low": 17606, "high": 2368, "precond": 5120, "gmres": 24470},
             "bs": {"high": 22726}},
        ]),
    "binary32-9x6-restart3": dict(
        m=9, n=6, t_values=[4, 5, 6, 7, 8], seed=2, u_l=BINARY32, restart=3,
        sha="95d9ee94074277d31601f2a85492bc063026d024cda08366ec26b7a95cf7034e",
        flops=[
            {"or": {"low": 16999, "high": 17376},
             "in": {"low": 16999, "high": 15698},
             "gmres-ul": {"low": 16189, "high": 5670, "precond": 12150, "gmres": 38595},
             "gmres-uh": {"low": 16189, "high": 1890, "precond": 4050, "gmres": 19516},
             "bs": {"high": 23551}},
            {"or": {"low": 16879, "high": 25476},
             "in": {"low": 16879, "high": 23798},
             "gmres-ul": {"low": 16069, "high": 7560, "precond": 16200, "gmres": 71413},
             "gmres-uh": {"low": 16069, "high": 3780, "precond": 8100, "gmres": 39032},
             "bs": {"high": 22903}},
            {"or": {"low": 16579, "high": 25476},
             "in": {"low": 16579, "high": 23798},
             "gmres-ul": {"low": 15769, "high": 9450, "precond": 20250, "gmres": 141517},
             "gmres-uh": {"low": 15769, "high": 3780, "precond": 8100, "gmres": 63452},
             "bs": {"high": 21967}},
            {"or": {"low": 15895, "high": 55176},
             "in": {"low": 15895, "high": 53498},
             "gmres-ul": {"low": 15085, "high": 1890, "precond": 4050, "gmres": 120692},
             "gmres-uh": {"low": 15085, "high": 1890, "precond": 4050, "gmres": 57020},
             "bs": {"high": 20251}},
            {"or": {"low": 15463, "high": 63276},
             "in": {"low": 15463, "high": 61598},
             "gmres-ul": {"low": 14653, "high": 1890, "precond": 4050, "gmres": 120692},
             "gmres-uh": {"low": 14653, "high": 3780, "precond": 8100, "gmres": 241384},
             "bs": {"high": 20239}},
        ]),
}


def _recorded_sweep(monkeypatch, out, m, t_values, seed, u_l, n=None, restart=20):
    """Run the m x n (n defaults to m) sweep with GMRES restart length
    ``restart``, each solver charging a fresh FlopCounter; returns the CSV
    bytes and, per row, {solver: buckets}."""
    rows = []
    generate, orth, inv = cli.generate, cli.mp_orth, cli.mp_inv
    gmres, bs = cli.gmres_ir_sylv, cli.bartels_stewart

    def record(name, call):
        counter = FlopCounter()
        try:
            return call(counter)
        finally:
            rows[-1][name] = dict(counter.counts)

    def gen(g):
        rows.append({})
        return generate(g)

    monkeypatch.setattr(cli, "generate", gen)
    monkeypatch.setattr(cli, "mp_orth", lambda p, rcfg, counter=None, y0_zero=False: record(
        "or", lambda c: orth(p, rcfg, c, y0_zero=y0_zero)))
    monkeypatch.setattr(cli, "mp_inv", lambda p, rcfg, counter=None, y0_zero=False: record(
        "in", lambda c: inv(p, rcfg, c, y0_zero=y0_zero)))
    monkeypatch.setattr(cli, "gmres_ir_sylv", lambda p, gcfg, rcfg, counter=None: record(
        "gmres-ul" if gcfg.u_g == rcfg.u_l else "gmres-uh",
        lambda c: gmres(p, gcfg, rcfg, c)))
    monkeypatch.setattr(cli, "bartels_stewart", lambda p, ctx: record(
        "bs", lambda c: bs(p, PrecisionContext(ctx.format, c, ctx.bucket))))
    cli.run_sweep_cond(m, m if n is None else n, t_values, seed,
                       RefinementConfig(u_l, BINARY64), out, restart=restart, reproducible=True)
    return out.read_bytes(), rows


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_is_pinned(case, tmp_path, monkeypatch):
    want = SWEEPS[case]
    data, rows = _recorded_sweep(monkeypatch, tmp_path / "sweep.csv", want["m"],
                                 want["t_values"], want["seed"], want["u_l"],
                                 want.get("n"), want.get("restart", 20))
    assert rows == want["flops"]
    assert hashlib.sha256(data).hexdigest() == want["sha"]
