"""The native scalar chains of the binary32/binary16 Schur factorization
against the `_s*` reference, and the complex64 working arrays of `schur`
and `hermitian_eig` against the complex128 software path."""

import math
import warnings

import numpy as np
import pytest

import mpsylv.linalg as linalg
import mpsylv.precision as precision
from mpsylv.errors import IterationLimitError
from mpsylv.linalg import (
    _givens,
    _givens_binary64,
    _givens_chain,
    _givens_steps,
    _norm2_steps,
    _reflector_chain,
    _reflector_scalars,
    _shift_chain,
    _shift_steps,
    _wilkinson_shift,
    hermitian_eig,
    schur,
)
from mpsylv.precision import (
    BINARY16,
    BINARY32,
    BINARY64,
    FlopCounter,
    PrecisionContext,
    _sabs,
    _sadd,
    _sdiv,
    _smul,
    _ssqrt,
)

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


def _soft_givens64(f, g):
    """`_givens_steps`' composition of `_s*` steps in binary64."""
    fmt = BINARY64
    if g == 0:
        return 1.0, 0j
    ag = _sabs(g, fmt)
    if f == 0:
        return 0.0, _sdiv(g.conjugate(), ag, fmt)
    af = _sabs(f, fmt)
    d2 = _sadd(_smul(af, af, fmt), _smul(ag, ag, fmt), fmt).real
    d = math.hypot(af, ag) if d2 == 0.0 or d2 == math.inf else _ssqrt(d2, fmt)
    return _sdiv(af, d, fmt).real, _sdiv(_smul(_sdiv(f, af, fmt), g.conjugate(), fmt), d, fmt)


def test_givens_binary64_matches_the_s_steps(rng):
    n = 3000
    F, G = (cmat(rng, 1, n).ravel() * 10.0 ** rng.uniform(-300, 300, n) for _ in range(2))
    F[::50] = 0.0
    G[::70] = 0.0
    for f, g in zip(F.tolist(), G.tolist()):
        want = _soft_givens64(f, g)
        assert (_bits(_givens(f, g, BINARY64)) == _bits(want)).all()
        if g != 0:
            assert (_bits(_givens_binary64(f, g)) == _bits(want)).all()


@pytest.mark.parametrize("spec", NATIVE, ids=lambda s: s[0].name)
def test_reflector_chain_matches_reference(spec, rng):
    fmt = spec[0]
    r = fmt._scalar_rounding
    n = N_ORACLE // 5
    X0 = _complex(rng, n, spec)
    # a norm of the format, at least |x0| for half of the draws
    nx = np.abs(_parts(rng, n, spec, MIXED))
    nx[::2] = np.maximum(nx[::2], np.abs(X0[::2]).astype(spec[1]).astype(np.float64))
    nx[nx == 0.0] = 1.0
    got, want = [], []
    for x0, a in zip(X0.tolist(), nx.tolist()):
        out = _reflector_chain(x0, a, r)
        if out is None:
            continue
        assert np.isfinite(x0) and a < math.inf and x0 != 0
        got.append(out)
        want.append(_reflector_scalars(x0, a, fmt))
    got, want = np.array(got, dtype=np.complex128), np.array(want, dtype=np.complex128)
    assert (_bits(got) == _bits(want)).all()
    assert len(got) > n // 4
    # a value off the format, a zero and an infinite norm take the fallback
    assert _reflector_chain(0.1 + 0j, 1.0, r) is None
    assert _reflector_chain(complex(0.0, -0.0), 1.0, r) is None
    assert _reflector_chain(1 + 1j, math.inf, r) is None


def test_norm2_steps_float32_matches_software(rng, monkeypatch):
    """The float32 magnitudes of `_norm2_steps` against its software steps
    on 10^5 vectors of binary32 values, subnormals, squares that overflow
    or underflow, inf and NaN among them."""
    spec = NATIVE[0]
    lengths = rng.integers(1, 5, N_ORACLE)
    vectors = np.split(_complex(rng, lengths.sum(), spec), np.cumsum(lengths)[:-1])
    got = np.array([_norm2_steps(v, BINARY32) for v in vectors])
    native = sum(linalg._binary32(v) is not None for v in vectors)
    monkeypatch.setattr(linalg, "_binary32", lambda *xs: None)
    want = np.array([_norm2_steps(v, BINARY32) for v in vectors])
    assert (got.view(np.uint64) == want.view(np.uint64)).all()
    assert native > N_ORACLE // 2
    assert np.isinf(want).sum() > 1000 and (want == 0.0).sum() > 100


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


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("values", ["zeros", "signed"])
def test_complex64_reflection_signed_zeros(side, values, rng):
    """A Householder update of a complex64 M (in place, no NaN check)
    against the fl_mul/fl_sum/fl_sub path of a complex128 M, on entries
    with signed zero, subnormal and large parts: the bits of every part
    that is not NaN there, and NaN in the same parts."""
    choices = [0.0, -0.0, 1.0, -1.0] if values == "zeros" else SIGNED
    n, cols = 3, 2000
    shape = (n, cols) if side == "left" else (cols, n)
    M, w = np.empty(shape, dtype=np.complex128), np.empty(n, dtype=np.complex128)
    for z in (M, w):
        z.real = rng.choice(choices, z.shape)
        z.imag = rng.choice(choices, z.shape)
    apply = getattr(linalg, f"_apply_reflector_{side}_rounded")
    counter, ref_counter = FlopCounter(), FlopCounter()
    M32 = M.astype(np.complex64)
    apply(M32, w.astype(np.complex64), 0.75, PrecisionContext(BINARY32, counter))
    apply(M, w, 0.75, PrecisionContext(BINARY32, ref_counter))
    got, want = M32.astype(np.complex128).view(np.float64), M.view(np.float64)
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert (got[~nan].view(np.uint64) == want[~nan].view(np.uint64)).all()
    assert (np.signbit(want[want == 0.0])).any()
    assert counter.counts == ref_counter.counts == {"high": 4 * M.size + n}


def _spy_inside(monkeypatch, target, names):
    """Names of the steps among ``names`` called from inside
    ``linalg.<target>``, and the dtypes and results of its runs."""
    seen, runs, inside = [], [], [False]
    for module in (precision, linalg):
        for name in names:
            def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
                if inside[0]:
                    seen.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
    run = getattr(linalg, target)

    def wrapped(UH, ctx):
        inside[0] = True
        try:
            clean = run(UH, ctx)
        finally:
            inside[0] = False
        runs.append((UH.dtype, clean))
        return clean
    monkeypatch.setattr(linalg, target, wrapped)
    return seen, runs


class TestBinary32SchurPath:
    """A binary32 schur of format values runs its Householder reduction and
    its QR sweep on float32 planes and native chains; a NaN reruns the
    whole factorization on the software path."""

    SOFTWARE = ("_round_real_scalar", "_smul", "_sdiv", "fl_mul", "fl_add")
    REDUCTION_SOFTWARE = ("fl_mul", "fl_sum", "fl_sub", "_round_real_array")

    @pytest.fixture
    def sweep_calls(self, monkeypatch):
        return _spy_inside(monkeypatch, "_qr_iteration", self.SOFTWARE)

    @pytest.fixture
    def reduction_calls(self, monkeypatch):
        return _spy_inside(monkeypatch, "_hessenberg", self.REDUCTION_SOFTWARE)

    def test_format_values_take_the_native_sweep(self, sweep_calls, rng):
        seen, runs = sweep_calls
        schur(cmat(rng, 12, 12), PrecisionContext(BINARY32))
        assert seen == []
        assert runs == [(np.complex64, True)]

    def test_format_values_take_the_native_reduction(self, reduction_calls, rng):
        seen, runs = reduction_calls
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

    @staticmethod
    def _scaled(seed):
        """A 10x10 complex matrix whose entries are scaled from 1e-30 to 1e15."""
        rng = np.random.default_rng(seed)
        return cmat(rng, 10, 10) * 10.0 ** rng.uniform(-30, 15, (10, 10))

    @staticmethod
    def _peaked(tail):
        """A matrix whose first column has one entry near 3e20 over entries
        near tail: its squares overflow binary32, so the reflector is formed
        from the column scaled down by 2^-69 (`_make_reflector`)."""
        A = cmat(np.random.default_rng(0), 6, 6)
        A[2:, 0] = tail * cmat(np.random.default_rng(9), 4, 1).ravel()
        A[1, 0] = 3e20
        return A

    @pytest.mark.parametrize("case, resident", [
        *((f"scaled-{seed}", True) for seed in range(6)),
        # the scaled tail leaves binary32's range: w fails the check and the
        # reduction reruns on the software path
        ("peaked-1e-30", False),
        # the scaled tail stays in binary32: the reduction stays in complex64
        ("peaked-1e-3", True),
    ])
    def test_reduction_matches_the_software_path(self, case, resident, reduction_calls,
                                                 monkeypatch):
        if case.startswith("scaled"):
            A = self._scaled(int(case.split("-")[1]))
        else:
            A = self._peaked(float(case.split("-", 1)[1]))
        rescaled = []
        scaled_down = linalg._scaled_down
        monkeypatch.setattr(linalg, "_scaled_down", lambda x: rescaled.append(1) or scaled_down(x))
        seen, runs = reduction_calls
        counter = FlopCounter()
        sf = schur(A, PrecisionContext(BINARY32, counter, "low"))
        assert runs[0] == (np.complex64, resident)
        assert len(runs) == (1 if resident else 2)
        assert bool(rescaled) == case.startswith("peaked")
        ref, ref_flops = self._software(A, monkeypatch)
        assert (_bits(sf.T) == _bits(ref.T)).all() and (_bits(sf.U) == _bits(ref.U)).all()
        assert counter.counts == ref_flops
        assert np.isfinite(sf.T).all()

    def test_nan_overwritten_in_the_reduction(self, monkeypatch):
        """inf * 0 in the column that the first reflector then overwrites:
        the reduction stays in complex64, and its H, U and flops are those
        of the software path."""
        A = cmat(np.random.default_rng(0), 3, 3)
        A[1:, 0] = 1.68e38  # |x| stays finite, conj(w) x overflows
        nan = []  # after each complex64 update (the right ones transpose to left ones)
        left = linalg._apply_reflector_left_rounded

        def spy(M, *args):
            left(M, *args)
            if M.dtype == np.complex64:
                nan.append(np.isnan(M).any())
        monkeypatch.setattr(linalg, "_apply_reflector_left_rounded", spy)

        def reduction():
            counter = FlopCounter()
            ctx = PrecisionContext(BINARY32, counter, "low")
            UH = np.concatenate([np.eye(3, dtype=np.complex128), linalg._enter(A, ctx)])
            with np.errstate(over="ignore", invalid="ignore"):
                return linalg._complex64_resident(linalg._hessenberg, UH, ctx), counter.counts

        UH, flops = reduction()
        assert nan == [True, False, False]
        monkeypatch.setattr(linalg, "_binary32", lambda *xs: None)
        ref, ref_flops = reduction()
        assert len(nan) == 3  # the software path updates complex128 arrays
        assert (_bits(UH) == _bits(ref)).all() and flops == ref_flops
        assert np.isfinite(UH).all()

    def test_nan_in_the_reduction_reruns(self, reduction_calls, monkeypatch):
        # entries near 3e38: the reflector updates meet inf - inf
        # (one reflector, whose w holds binary32 values)
        rng = np.random.default_rng(0)
        A = 3e38 * np.sign(rng.standard_normal((3, 3))) + 0j
        A[0] = rng.standard_normal(3)
        _, reductions = reduction_calls
        counters = []
        for software in (False, True):
            counter = FlopCounter()
            with monkeypatch.context() as mp:
                if software:
                    mp.setattr(linalg, "_binary32", lambda *xs: None)
                # NaN entries never deflate
                with pytest.raises(IterationLimitError):
                    schur(A, PrecisionContext(BINARY32, counter, "low"))
            counters.append(counter.counts)
        assert reductions == [(np.complex64, False), (np.complex128, True),
                              (np.complex128, True)]
        assert counters[0] == counters[1] and counters[0]["low"] > 0

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
