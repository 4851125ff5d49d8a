"""`tools/ab_kernels.py` on one tree against itself, at small sizes, and
its fingerprint mode on a prefix of the cases of both families."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "ab_kernels.py"
_spec = importlib.util.spec_from_file_location("ab_kernels", _PATH)
ab_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_kernels)

FINGERPRINT_CASES = 18  # each format at least twice; GMRES-IR in four formats
KERNELS = ["schur-b32-m4", "schur-pair-b32-m4", "sylv-tri-b32-m4",
           "schur-b64-m5", "schur-pair-b64-m5", "sylv-tri-b64-m5"]


def test_one_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(_PATH), "--parent", str(ROOT), "--change", str(ROOT),
         "--rounds", "2", "--b32", "4", "2", "--b64", "5", "2"],
        capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert [r.split()[0] for r in rows] == KERNELS
    assert all(r.endswith("/2") for r in rows)


def test_a_differing_output_stops_the_comparison(monkeypatch):
    kernels = ab_kernels.kernels

    def changed(lib, made):
        table = kernels(lib, made)
        if lib.__name__ == "mpsylv_change":
            run = table["sylv-tri-b64-m5"]
            table["sylv-tri-b64-m5"] = lambda: run()[1:]
        return table
    monkeypatch.setattr(ab_kernels, "kernels", changed)
    with pytest.raises(AssertionError, match="sylv-tri-b64-m5: outputs differ in round 0"):
        ab_kernels.compare(ROOT, ROOT, 1, (4, 2), (5, 2))


def test_fingerprint_of_one_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(_PATH), "--parent", str(ROOT), "--change", str(ROOT),
         "--fingerprint", str(FINGERPRINT_CASES)],
        capture_output=True, text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    schur_line, solve_line = proc.stdout.splitlines()
    assert schur_line.startswith(f"{FINGERPRINT_CASES} schur cases byte-identical: ")
    assert solve_line.startswith(f"{FINGERPRINT_CASES} solve cases byte-identical: ")
    for end in ("solved", "NumericBreakdownError", "SingularEquationError"):
        assert end in solve_line


def test_solve_cases_cover_the_family():
    lib = ab_kernels.load_tree(ROOT, "mpsylv_cases")
    labels = [case[0] for case in ab_kernels.solve_cases(lib, FINGERPRINT_CASES)]
    for tag in ("lower", "singular", "complex64", "gmres-4x4", "gmres-5x3"):
        assert any(tag in label.split()[-1].split("+") for label in labels), tag
    gmres = {label.split()[3] for label in labels if "gmres" in label}
    assert {"binary32", "binary64"} <= gmres


def test_fingerprint_names_the_first_differing_case(monkeypatch):
    """A Givens body changed in the last bit of s in one tree: the first
    binary64 case with a QR step differs."""
    load_tree = ab_kernels.load_tree

    def changed(tree, name):
        lib = load_tree(tree, name)
        if name == "mpsylv_change":
            givens = lib.linalg._givens_binary64

            def off_by_an_ulp(f, g):
                c, s = givens(f, g)
                return c, s * (1 + 2.0**-52)
            monkeypatch.setattr(lib.linalg, "_givens_binary64", off_by_an_ulp)
        return lib
    monkeypatch.setattr(ab_kernels, "load_tree", changed)
    with pytest.raises(AssertionError, match=r"^case \d+ binary64 m=\d+ .*: outputs differ$"):
        ab_kernels.fingerprint(ROOT, ROOT, FINGERPRINT_CASES)


def test_fingerprint_names_the_first_differing_solve_case(monkeypatch):
    """A prepared solve changed in the last bit of Y in one tree: the first
    solve case with a regular pair differs."""
    load_tree = ab_kernels.load_tree

    def changed(tree, name):
        lib = load_tree(tree, name)
        if name == "mpsylv_change":
            prepare = lib.sylvester._prepare_sylv_tri

            def off_by_an_ulp(T_A, T_B, ctx):
                solve = prepare(T_A, T_B, ctx)
                return lambda C: solve(C) * (1 + 2.0**-52)
            monkeypatch.setattr(lib.sylvester, "_prepare_sylv_tri", off_by_an_ulp)
        return lib
    monkeypatch.setattr(ab_kernels, "load_tree", changed)
    monkeypatch.setattr(ab_kernels, "_schur_family", lambda libs, count: "")
    with pytest.raises(AssertionError, match=r"^solve case \d+ .*: outputs differ$"):
        ab_kernels.fingerprint(ROOT, ROOT, FINGERPRINT_CASES)


def test_fingerprint_ignores_nan_payloads_only(monkeypatch):
    """A tree whose schur gives each NaN part of T another payload and sign
    passes the comparison, since NaN parts are compared as the canonical
    NaN; one that also moves a non-NaN part of such a T by one ulp fails,
    naming the case."""
    load_tree = ab_kernels.load_tree
    ulp = []

    def changed(tree, name):
        lib = load_tree(tree, name)
        if name == "mpsylv_change":
            schur = lib.linalg.schur

            def altered(A, ctx):
                sf = schur(A, ctx)
                T = sf.T.copy()
                parts = T.view(np.float64)
                nan = np.isnan(parts)
                if nan.any():
                    parts[nan] = np.array(0xFFF4000000000123, dtype=np.uint64).view(np.float64)
                    if ulp:
                        i = np.flatnonzero(~nan & (parts != 0))[0]
                        parts[i] = np.nextafter(parts[i], np.inf)
                return lib.linalg.SchurFactors(sf.U, T)
            monkeypatch.setattr(lib.linalg, "schur", altered)
        return lib
    monkeypatch.setattr(ab_kernels, "load_tree", changed)
    monkeypatch.setattr(ab_kernels, "_solve_family", lambda libs, count: "")
    summary = ab_kernels.fingerprint(ROOT, ROOT, FINGERPRINT_CASES)
    assert "NaN in T" in summary
    ulp.append(1)
    with pytest.raises(AssertionError, match=r"^case \d+ .*: outputs differ$"):
        ab_kernels.fingerprint(ROOT, ROOT, FINGERPRINT_CASES)
