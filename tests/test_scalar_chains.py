"""The native scalar chains of the binary32/binary16 QR sweep against the
`_s*` reference, and the complex64 working arrays of `schur` and
`hermitian_eig` against the complex128 software path."""

import math
import warnings

import numpy as np
import pytest

import mpsylv.linalg as linalg
import mpsylv.precision as precision
from mpsylv.errors import IterationLimitError
from mpsylv.linalg import (
    _givens,
    _givens_chain,
    _givens_steps,
    _shift_chain,
    _shift_steps,
    _wilkinson_shift,
    hermitian_eig,
    schur,
)
from mpsylv.precision import BINARY16, BINARY32, BINARY64, FlopCounter, PrecisionContext

from conftest import cmat, hermitian

N_ORACLE = 100_000

# (format, numpy dtype, unsigned type of the same width)
NATIVE = [(BINARY32, np.float32, np.uint32), (BINARY16, np.float16, np.uint16)]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


# the kinds of value `_parts` draws from, and their weights
MIXED = {"bits": 0.15, "moderate": 0.4, "zero": 0.08, "subnormal": 0.07, "big": 0.08,
         "tiny": 0.08, "special": 0.04, "small-exact": 0.1}
MODERATE = {"moderate": 0.8, "zero": 0.05, "small-exact": 0.15}


def _parts(rng, n, spec, weights, large=(0, 1)):
    """n values of a format as doubles, each drawn from one kind of value:
    random bit patterns of the format (NaN and inf included), moderate
    values, signed zeros, subnormals, values whose squares overflow (big)
    or underflow (tiny), inf and NaN, small integers times powers of two,
    or 2^[large)."""
    fmt, dtype, utype = spec
    width = np.dtype(utype).itemsize * 8
    t, emax = fmt.significand_bits, fmt.emax
    span = (emax + 1) / 16  # moderate values: their products stay well in range
    sign = rng.choice([-1.0, 1.0], n)
    raw = rng.integers(0, 2**width, n, dtype=np.uint64).astype(utype).view(dtype)
    kinds = {
        "bits": raw.astype(np.float64),
        "moderate": sign * 2.0 ** rng.uniform(-span, span, n),
        "zero": sign * 0.0,
        "subnormal": sign * rng.integers(1, 2**(t - 1), n) * fmt.smallest_subnormal,
        # |x|^2 past max_finite, |x| itself in range
        "big": sign * 2.0 ** rng.uniform((emax + 1) / 2 + 0.05, emax + 0.99, n),
        # |x|^2 below half the smallest subnormal
        "tiny": sign * 2.0 ** rng.uniform(fmt.emin - t + 1, (fmt.emin - t) / 2 - 0.05, n),
        "special": rng.choice([np.inf, -np.inf, np.nan], n),
        "small-exact": sign * rng.integers(1, 2**6, n) * 2.0 ** rng.integers(-6, 6, n),
        "large": sign * 2.0 ** rng.uniform(*large, n),
    }
    names = list(weights)
    kind = rng.choice(len(names), n, p=[weights[k] for k in names])
    x = np.choose(kind, [kinds[k] for k in names])
    with np.errstate(over="ignore"):
        return x.astype(dtype).astype(np.float64)  # round into the format


def _complex(rng, n, spec, weights=MIXED, large=(0, 1)):
    out = np.empty(n, dtype=np.complex128)
    out.real = _parts(rng, n, spec, weights, large)
    out.imag = _parts(rng, n, spec, weights, large)
    return out


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.mark.parametrize("spec", NATIVE, ids=lambda s: s[0].name)
def test_givens_chain_matches_reference(spec, rng):
    fmt = spec[0]
    r = fmt._scalar_rounding
    F, G = _complex(rng, N_ORACLE, spec), _complex(rng, N_ORACLE, spec)
    got, want = [], []
    native = fallback_nonfinite = 0
    for f, g in zip(F.tolist(), G.tolist()):
        out = _givens_chain(f, g, r)
        if out is None:
            fallback_nonfinite += not (np.isfinite(f) and np.isfinite(g))
            continue
        assert np.isfinite(f) and np.isfinite(g)  # inf and NaN take the fallback
        native += 1
        got.append(out)
        want.append(_givens_steps(f, g, fmt))
    got, want = np.array(got, dtype=np.complex128), np.array(want, dtype=np.complex128)
    assert (_bits(got) == _bits(want)).all()
    assert native > N_ORACLE // 4
    nonfinite = (~np.isfinite(F) | ~np.isfinite(G)).sum()
    assert fallback_nonfinite == nonfinite > 0


@pytest.mark.parametrize("spec", NATIVE, ids=lambda s: s[0].name)
def test_givens_dispatch_matches_reference(spec, rng):
    fmt = spec[0]
    F, G = _complex(rng, 5000, spec), _complex(rng, 5000, spec)
    for f, g in zip(F.tolist(), G.tolist()):
        got, want = _givens(f, g, fmt), _givens_steps(f, g, fmt)
        assert (_bits(got) == _bits(want)).all()


# unbiased exponents of entries whose products b c pass the range of
# |z|^2 in the square root of the discriminant (|z| > ~1.8e19 in binary32,
# > 256 in binary16)
LARGE = {BINARY32: (33, 60), BINARY16: (4.5, 7.5)}


@pytest.mark.parametrize("spec", NATIVE, ids=lambda s: s[0].name)
def test_shift_chain_matches_reference(spec, rng):
    fmt = spec[0]
    r = fmt._scalar_rounding
    # a third of the blocks from the mixture of `_givens`; the rest
    # moderate, a quarter of those with entries past LARGE
    n = N_ORACLE // 3
    blocks = np.concatenate([
        _complex(rng, 4 * n, spec),
        _complex(rng, 4 * (N_ORACLE - 2 * n), spec, MODERATE),
        _complex(rng, 4 * n, spec, {**MODERATE, "moderate": 0.55, "large": 0.25},
                 LARGE[fmt]),
    ]).reshape(N_ORACLE, 4)
    got, want = [], []
    big_disc = 0
    for a, b, c, d in blocks.tolist():
        shift = _shift_chain(a, b, c, d, r)
        if shift is None:
            continue
        got.append(shift)
        want.append(_shift_steps(a, b, c, d, fmt))
    got, want = np.array(got), np.array(want)
    assert (_bits(got) == _bits(want)).all()
    assert len(got) > N_ORACLE // 3
    # discriminants whose unscaled magnitude overflows take the fallback
    for a, b, c, d in blocks[-3000:].tolist():
        z = (0.5 * (a - d)) ** 2 + b * c
        if np.isfinite(z) and abs(z) > 2.0 * math.sqrt(fmt.max_finite) \
                and abs(z) < fmt.max_finite / 2:
            big_disc += 1
            assert _shift_chain(a, b, c, d, r) is None
            want = _shift_steps(a, b, c, d, fmt)
            H = np.array([[a, b], [c, d]])
            assert (_bits(_wilkinson_shift(H, 1, fmt)) == _bits(want)).all()
    assert big_disc > 0


def test_shift_reads_the_trailing_block(rng):
    H = np.asarray(precision.round_matrix(cmat(rng, 5, 5), BINARY32))
    for hi in range(1, 5):
        a, b, c, d = (complex(H[i, j]) for i, j in
                      ((hi - 1, hi - 1), (hi - 1, hi), (hi, hi - 1), (hi, hi)))
        want = _shift_steps(a, b, c, d, BINARY32)
        assert (_bits(_wilkinson_shift(H, hi, BINARY32)) == _bits(want)).all()


class TestBinary64GivensPastTheSquares:
    def test_squares_overflow(self):
        c, s = _givens(3e184, 4e184, BINARY64)
        assert (c, s) == pytest.approx((0.6, 0.8), rel=1e-15)
        G = np.array([[c, s], [-np.conj(s), c]])
        assert np.abs(G @ G.conj().T - np.eye(2)).max() <= 4 * BINARY64.unit_roundoff
        # the rotation zeroes g against f
        assert abs(-np.conj(s) * 3e184 + c * 4e184) <= 1e-15 * 5e184

    def test_squares_underflow(self):
        c, s = _givens(3e-170, 4e-170j, BINARY64)
        assert c == pytest.approx(0.6, rel=1e-15) and s == pytest.approx(-0.8j, rel=1e-15)


SIGNED = [0.0, -0.0, 1.0, -1.5, 2.0**-149, -(2.0**-149), 3.0e38]


@pytest.mark.parametrize("c, s", [(0.6, 0.8 + 0j), (0.6, complex(0.8, -0.0)),
                                  (1.0, complex(-0.0, 0.0)), (0.0, complex(0.0, -1.0)),
                                  (0.28, complex(-0.96, -0.0))])
def test_complex64_rotation_signed_zeros(c, s, rng):
    """`_rotate_rows` on a complex64 X (in place, no NaN check) against the
    software path of fl_mul and fl_add, on entries with signed zero,
    subnormal and large parts."""
    c, s = float(np.float32(c)), complex(np.complex64(s))  # binary32 coefficients
    n = 400
    X = np.empty((2, n), dtype=np.complex128)
    X.real = rng.choice(SIGNED, (2, n))
    X.imag = rng.choice(SIGNED, (2, n))
    want = X.copy()
    X32 = X.astype(np.complex64)
    counter, ref_counter = FlopCounter(), FlopCounter()
    linalg._rotate_rows(X32, c, s, np.conj(s), PrecisionContext(BINARY32, counter))
    linalg._rotate_rows(want, c, s, np.conj(s), PrecisionContext(BINARY32, ref_counter))
    got = X32.astype(np.complex128)
    assert not np.isnan(want).any()
    assert (_bits(got) == _bits(want)).all()
    assert counter.counts == ref_counter.counts


class TestBinary32SchurPath:
    """A binary32 schur of format values runs its QR sweep on the native
    chains and complex64 rotations; a NaN reruns it on the software path."""

    SOFTWARE = ("_round_real_scalar", "_smul", "_sdiv", "fl_mul", "fl_add")

    @pytest.fixture
    def sweep_calls(self, monkeypatch):
        """Names of the software steps called from inside `_qr_iteration`,
        and the dtypes and results of its runs."""
        seen, runs, inside = [], [], [False]
        for module in (precision, linalg):
            for name in self.SOFTWARE:
                def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
                    if inside[0]:
                        seen.append(_name)
                    return _f(*args, **kwargs)
                monkeypatch.setattr(module, name, spy)
        iterate = linalg._qr_iteration

        def sweep(UH, ctx):
            inside[0] = True
            try:
                clean = iterate(UH, ctx)
            finally:
                inside[0] = False
            runs.append((UH.dtype, clean))
            return clean
        monkeypatch.setattr(linalg, "_qr_iteration", sweep)
        return seen, runs

    def test_format_values_take_the_native_sweep(self, sweep_calls, rng):
        seen, runs = sweep_calls
        schur(cmat(rng, 12, 12), PrecisionContext(BINARY32))
        assert seen == []
        assert runs == [(np.complex64, True)]

    @staticmethod
    def _software(A, monkeypatch):
        """schur with the complex64 working arrays switched off."""
        counter = FlopCounter()
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_binary32", lambda *xs: None)
            sf = schur(A, PrecisionContext(BINARY32, counter, "low"))
        return sf, counter.counts

    @pytest.mark.parametrize("A", ["complex", "real", "companion"])
    def test_matches_the_software_path(self, A, rng, monkeypatch):
        A = {"complex": cmat(rng, 9, 9), "real": rng.standard_normal((9, 9)) + 0j,
             "companion": np.eye(5, k=-1) + np.eye(5, k=4)}[A]
        counter = FlopCounter()
        sf = schur(A, PrecisionContext(BINARY32, counter, "low"))
        ref, ref_flops = self._software(A, monkeypatch)
        assert (_bits(sf.T) == _bits(ref.T)).all() and (_bits(sf.U) == _bits(ref.U)).all()
        assert counter.counts == ref_flops

    def test_nan_reruns_on_the_software_path(self, sweep_calls, monkeypatch):
        # an upper Hessenberg input (so no reflector mixes the columns) whose
        # last column, past a deflated row, overflows and meets inf - inf
        # under the rotations of the leading block
        rng = np.random.default_rng(0)
        A = np.zeros((5, 5), dtype=np.complex128)
        A[:4, :4] = np.triu(cmat(rng, 4, 4), -1)
        A[:4, 4] = 3e38 * np.sign(rng.standard_normal(4))
        A[4, 4] = 1.0
        seen, runs = sweep_calls
        counter = FlopCounter()
        sf = schur(A, PrecisionContext(BINARY32, counter, "low"))
        assert runs == [(np.complex64, False), (np.complex128, True)]
        assert np.isnan(sf.T).any() and "fl_mul" in seen
        ref, ref_flops = self._software(A, monkeypatch)
        assert (_bits(sf.T) == _bits(ref.T)).all() and (_bits(sf.U) == _bits(ref.U)).all()
        assert counter.counts == ref_flops

    def test_iteration_limit_charges_the_sweeps(self, monkeypatch):
        A = np.eye(6, k=-1) + np.eye(6, k=5)  # a cyclic shift
        counters = []
        for software in (False, True):
            counter = FlopCounter()
            with monkeypatch.context() as mp:
                if software:
                    mp.setattr(linalg, "_binary32", lambda *xs: None)
                mp.setattr(linalg, "_wilkinson_shift", lambda H, hi, fmt: 0j)
                mp.setattr(linalg, "_shifted", lambda h, shift, fmt: h)
                with pytest.raises(IterationLimitError):
                    schur(A, PrecisionContext(BINARY32, counter, "low"))
            counters.append(counter.counts)
        assert counters[0] == counters[1] and counters[0]["low"] > 0


class TestBinary32HermitianPath:
    def test_matches_the_software_path(self, rng, monkeypatch):
        A = hermitian(rng, 8)
        counter = FlopCounter()
        V, d = hermitian_eig(A, PrecisionContext(BINARY32, counter, "low"))
        ref_counter = FlopCounter()
        monkeypatch.setattr(linalg, "_binary32", lambda *xs: None)
        V2, d2 = hermitian_eig(A, PrecisionContext(BINARY32, ref_counter, "low"))
        assert (_bits(V) == _bits(V2)).all()
        assert (np.ascontiguousarray(d).view(np.uint64) == d2.view(np.uint64)).all()
        assert counter.counts == ref_counter.counts
        assert V.dtype == np.complex128 and d.dtype == np.float64
