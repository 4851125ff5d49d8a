"""The scalar chains of the Schur factorization and of the GMRES
Hessenberg rotations against their `_s*` composition (`scalar_oracle`) in
every format but binary64, and the complex64 working arrays of `schur` and
`hermitian_eig` against the complex128 software path."""

import math
import warnings

import numpy as np
import pytest

import mpsylv.linalg as linalg
import mpsylv.precision as precision
from mpsylv.errors import IterationLimitError, PrecisionOverflowWarning
from mpsylv.gmresir import _backsub_chain, _rotation_chain
from mpsylv.linalg import (
    _givens,
    _givens_binary64,
    _givens_chain,
    _norm2_steps,
    _reflector_chain,
    _shift_chain,
    _wilkinson_shift,
    hermitian_eig,
    schur,
)
from mpsylv.precision import (
    B24,
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    TF32,
    FlopCounter,
    PrecisionContext,
    _sabs,
    _sadd,
    _sdiv,
    _smul,
    _ssqrt,
    parse_format,
    round_matrix,
)

from conftest import CANONICAL_NAN, body_views, cmat, hermitian, nan_parts
from scalar_oracle import (
    _backsub_steps,
    _givens_steps,
    _norm2_per_entry,
    _reflector_scalars,
    _rotation_steps,
    _shift_steps,
)

# operand sets per format: binary32 and binary16 run their chains by a
# struct cast per stage, the software formats by `_round_real_scalar` per
# value, which costs about ten times as much; 40:11 (t >= 26) needs the
# 2Sum residual in its sums, where a probe found 1 Givens rotation and 1
# shift in 5,000 double-rounded without it
P40 = parse_format("40:11")
SETS = {BINARY32: 100_000, BINARY16: 100_000, BFLOAT16: 5000, TF32: 5000, B24: 5000,
        P40: 10_000}
FORMATS = list(SETS)


def _ids(fmt):
    return fmt.name


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


def _same(got, want):
    """Equal bits wherever want is not NaN, and NaN wherever it is."""
    g = np.ascontiguousarray(got, dtype=np.complex128).view(np.float64)
    w = np.ascontiguousarray(want, dtype=np.complex128).view(np.float64)
    nan = np.isnan(w)
    return bool((np.isnan(g) == nan).all()
                and (g[~nan].view(np.uint64) == w[~nan].view(np.uint64)).all())


# the kinds of value `_parts` draws from, and their weights
MIXED = {"any": 0.15, "moderate": 0.4, "zero": 0.08, "subnormal": 0.07, "big": 0.08,
         "tiny": 0.08, "special": 0.04, "small-exact": 0.1}
MODERATE = {"moderate": 0.8, "zero": 0.05, "small-exact": 0.15}


def _parts(rng, n, fmt, weights, large=(0, 1)):
    """n values of fmt as doubles, each drawn from one kind of value and
    rounded into fmt by `round_matrix`: values of any binade (subnormals
    and overflow to inf included), moderate values, signed zeros,
    subnormals, values whose squares overflow (big) or underflow (tiny),
    inf and NaN, small integers times powers of two, or 2^[large)."""
    t, emax = fmt.significand_bits, fmt.emax
    span = (emax + 1) / 16  # moderate values: their products stay well in range
    sign = rng.choice([-1.0, 1.0], n)
    kinds = {
        "any": sign * 2.0 ** rng.uniform(fmt.emin - t + 1, emax + 0.999, n),
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionOverflowWarning)
        return round_matrix(x, fmt).real


def _complex(rng, n, fmt, weights=MIXED, large=(0, 1)):
    out = np.empty(n, dtype=np.complex128)
    out.real = _parts(rng, n, fmt, weights, large)
    out.imag = _parts(rng, n, fmt, weights, large)
    return out


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _compare(chain, oracle, operand_sets):
    """chain and oracle on each operand set; returns the stacked results
    after checking them with `_same`."""
    got = np.array([chain(*ops) for ops in operand_sets], dtype=np.complex128)
    want = np.array([oracle(*ops) for ops in operand_sets], dtype=np.complex128)
    assert _same(got, want)
    return got, want


@pytest.mark.parametrize("fmt", FORMATS, ids=_ids)
def test_givens_chain_matches_reference(fmt, rng):
    n = SETS[fmt]
    F, G = _complex(rng, n, fmt), _complex(rng, n, fmt)
    got, want = _compare(lambda f, g: _givens_chain(f, g, fmt), lambda f, g: _givens_steps(f, g, fmt),
                         list(zip(F.tolist(), G.tolist())))
    finite = np.isfinite(want).all(axis=1)
    assert finite.sum() > n // 2
    # inf and NaN operands run through the chain too, and some results
    # of them are not NaN
    nonfinite = ~(np.isfinite(F) & np.isfinite(G))
    assert nonfinite.any() and not np.isnan(want[nonfinite]).all()


def test_sum_stage_breaks_double_rounding_ties():
    """1 + (2^-40 + 2^-79) in 40:11: the double sum 1 + 2^-40 is a midpoint
    of the format, so it rounds to 1 by ties to even, while the exact sum
    lies above it.  The sum stage carries the 2Sum residual and rounds up,
    as `_sadd` does."""
    b = 2.0**-40 + 2.0**-79
    (s,) = P40._scalar_rounding[2][1](1.0, b)
    assert s == _sadd(1.0, b, P40).real == 1.0 + 2.0**-39
    # binary32 sums of its values cast the double sum: 53 >= 2 * 24 + 2
    (s32,) = BINARY32._scalar_rounding[2][1](1.0, 2.0**-24 + 2.0**-47)
    assert s32 == _sadd(1.0, 2.0**-24 + 2.0**-47, BINARY32).real == 1.0 + 2.0**-23


def test_chains_round_sums_once():
    """Sums of the chains whose double is a midpoint of 40:11 while the
    exact sum lies above it (see above): each rounds up, as the oracle's
    `_sadd` and `_ssub` do."""
    b = complex(2.0**-40 + 2.0**-79, 0.0)
    up = 1.0 + 2.0**-39
    assert _backsub_chain(1 + 0j, [b], [-1 + 0j], P40) == _backsub_steps(1 + 0j, [b], [-1 + 0j], P40) == up
    h = _rotation_chain(1 + 0j, 1 + 0j, 1 + 0j, b, P40)
    assert h == _rotation_steps(1 + 0j, 1 + 0j, 1 + 0j, b, P40) and h[0] == up
    # a - d in the shift, and w[0] = x0 + phase |x|
    e = complex(2.0**-20, 0.0)  # b c small, so the shift is about -b c / (a - d)
    assert _shift_chain(1 + 0j, e, e, -b, P40) == _shift_steps(1 + 0j, e, e, -b, P40)
    assert _reflector_chain(b, 1.0, P40)[0] == _reflector_scalars(b, 1.0, P40)[0] == up


def test_stage_rounds_past_the_range_to_inf():
    """A stage up[n](pk[n](...)) of binary32 or binary16 rounds each value
    as `_round_real_scalar` does: ±inf past the range, where binary16's
    struct cast raises.  binary32's pk[n] and up[n] are the bound struct
    methods themselves, so its stage runs no Python frame."""
    for fmt in (BINARY32, BINARY16):
        pk, up, _ = fmt._scalar_rounding
        big = 2.0 * fmt.max_finite
        assert list(up[3](pk[3](big, -big, 1.0))) == [math.inf, -math.inf, 1.0]
    pk, up, _ = BINARY32._scalar_rounding
    assert all(type(f).__name__ == "builtin_function_or_method" for f in pk + up)


def _large(fmt):
    """Unbiased exponents of entries whose products b c pass the range of
    |z|^2 in the square root of the discriminant (|z| > ~1.8e19 in
    binary32, > 256 in binary16)."""
    return (fmt.emax + 1) / 4 + 0.5, fmt.emax / 2


@pytest.mark.parametrize("fmt", FORMATS, ids=_ids)
def test_shift_chain_matches_reference(fmt, rng):
    # a third of the blocks from the mixture of `_givens`; the rest
    # moderate, a quarter of those with entries past `_large`; and blocks
    # with a = d and b c = 0, whose shift is d itself
    N = SETS[fmt]
    n = N // 3
    blocks = np.concatenate([
        _complex(rng, 4 * n, fmt),
        _complex(rng, 4 * (N - 2 * n), fmt, MODERATE),
        _complex(rng, 4 * n, fmt, {**MODERATE, "moderate": 0.55, "large": 0.25}, _large(fmt)),
    ]).reshape(N, 4)
    triangular = _complex(rng, 400, fmt, {"small-exact": 0.5, "zero": 0.5}).reshape(100, 4)
    triangular[:, 3] = triangular[:, 0]
    triangular[::2, 1] = triangular[1::2, 2] = 0.0
    triangular[::4, 1] = complex(-0.0, -0.0)
    blocks = np.concatenate([blocks, triangular])
    got, want = _compare(lambda a, b, c, d: _shift_chain(a, b, c, d, fmt),
                         lambda a, b, c, d: _shift_steps(a, b, c, d, fmt), blocks.tolist())
    assert np.isfinite(want).sum() > N // 2
    assert (_bits(got[N:]) == _bits(triangular[:, 3])).all()
    # discriminants whose unscaled magnitude overflows run through the chain
    big_disc = 0
    for a, b, c, d in blocks[-n:].tolist():
        z = (0.5 * (a - d)) ** 2 + b * c
        if np.isfinite(z) and 2.0 * math.sqrt(fmt.max_finite) < abs(z) < fmt.max_finite / 2:
            big_disc += 1
            H = np.array([[a, b], [c, d]])
            assert _same(_wilkinson_shift(H, 1, fmt), _shift_steps(a, b, c, d, fmt))
    assert big_disc > 0


def test_shift_reads_the_trailing_block(rng):
    H = np.asarray(precision.round_matrix(cmat(rng, 5, 5), BINARY32))
    for hi in range(1, 5):
        a, b, c, d = (complex(H[i, j]) for i, j in
                      ((hi - 1, hi - 1), (hi - 1, hi), (hi, hi - 1), (hi, hi)))
        want = _shift_steps(a, b, c, d, BINARY32)
        assert (_bits(_wilkinson_shift(H, hi, BINARY32)) == _bits(want)).all()


def _soft_givens64(f, g):
    """The `_s*` composition of the Givens rotation in binary64."""
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
        assert (_bits(_givens_binary64(f, g)) == _bits(want)).all()


@pytest.mark.parametrize("fmt", FORMATS, ids=_ids)
def test_reflector_chain_matches_reference(fmt, rng):
    """w[0], beta and head on x0 = x[0] and a norm nx > 0 of the format (at
    least |x0| for half of the draws, inf among them), and on x0 off the
    format: values of the format scaled by 2^-e, as `_make_reflector`
    scales a column, parts of which fall below the subnormal range or into
    it with more bits than it holds."""
    n = SETS[fmt] // 5
    X0 = _complex(rng, n, fmt)
    nx = np.abs(_parts(rng, n, fmt, MIXED))
    nx[::2] = np.maximum(nx[::2], np.abs(round_matrix(np.abs(X0[::2]), fmt)))
    nx[(nx == 0.0) | np.isnan(nx)] = 1.0
    t = fmt.significand_bits
    off = _complex(rng, n, fmt, {"large": 0.9, "zero": 0.1}, (-1, 1)) \
        * 2.0 ** (fmt.emin - rng.integers(-t, 2 * t, n))
    off_nx = np.abs(_parts(rng, n, fmt, MODERATE))
    off_nx[off_nx == 0.0] = 1.0
    sets = list(zip(X0.tolist(), nx.tolist())) + list(zip(off.tolist(), off_nx.tolist()))
    got, want = _compare(lambda x0, a: _reflector_chain(x0, a, fmt),
                         lambda x0, a: _reflector_scalars(x0, a, fmt), sets)
    assert np.isfinite(want).all(axis=1).sum() > n // 2
    # the off-format parts and sums the draws reached
    parts = np.concatenate([off.real, off.imag])
    assert (0 < np.abs(parts)).any() and (np.abs(parts) < fmt.smallest_subnormal / 2).any()
    assert (round_matrix(parts, fmt).real != parts).sum() > n // 4


def test_norm2_steps_float32_matches_software(rng):
    """The float32 magnitudes of `_norm2_steps` on complex64 vectors against
    its software steps on 10^5 vectors of binary32 values, subnormals,
    squares that overflow or underflow and inf among them; a vector with a
    NaN, which fails the binary32 check, takes the software steps."""
    lengths = rng.integers(1, 5, SETS[BINARY32])
    vectors = np.split(_complex(rng, lengths.sum(), BINARY32), np.cumsum(lengths)[:-1])
    want = np.array([_norm2_steps(v, BINARY32) for v in vectors])
    # the vectors a binary32 schur keeps in complex64: no NaN
    native = [v for v in vectors if linalg._binary32(v) is not None]
    got = np.array([_norm2_steps(v.astype(np.complex64), BINARY32) for v in native])
    ref = np.array([_norm2_steps(v, BINARY32) for v in native])
    assert (got.view(np.uint64) == ref.view(np.uint64)).all()
    assert len(native) > SETS[BINARY32] // 2
    assert np.isinf(ref).sum() > 1000 and (ref == 0.0).sum() > 100
    assert np.isinf(want).sum() > np.isinf(ref).sum()  # the NaN vectors


def _norm_vectors(rng, fmt):
    """(family, vectors) of complex128 vectors of values of fmt built to
    hit each branch of the cast-first norm loop."""
    top, tiny = fmt.max_finite, fmt.smallest_subnormal
    t = fmt.significand_bits
    # odd a with a * a of t + 1 bits: a midpoint of fmt
    odd = rng.integers(math.ceil(2 ** (t / 2)), math.ceil(2 ** ((t + 1) / 2)), 200) | 1
    exact = [np.array([a], dtype=np.complex128) for a in odd[:20]]
    # a square before it lost from the double sum (binary32): its residual
    # decides the tie; in binary16 the sum is exact and the tie goes to even
    residual = [np.array([2.0 ** -((t + 7) // 2), a]) + 0j for a in odd]
    # squares that overflow the format in their sum, some near the top
    near = [np.array(round_matrix(rng.uniform(0.5, 1.0, 3) * math.sqrt(top), fmt).real)
            for _ in range(100)]
    over = near + [np.array([math.sqrt(top) * 0.8] * 2)]
    # partial sums below the normal range
    sub = [round_matrix(rng.uniform(1.0, 2.0, 4) * math.sqrt(tiny) * 2.0 ** rng.integers(0, 3),
                        fmt).real for _ in range(200)]
    inf, nan = math.inf, math.nan
    # a NaN with payload bits that a float32 copy keeps, and its negative
    pay, neg = np.array([0x7FF8010000000000, 0xFFF8000200000000], np.uint64).view(np.float64)
    special = [np.array(v) for v in ([1.0, inf], [inf, 2.0], [-inf, 1.0], [nan, 1.0],
                                     [1.0, complex(nan, 2.0)], [inf, nan], [nan, -inf],
                                     [complex(1.0, -inf), 3.0], [pay, 1.0], [2.0, neg, pay])]
    ordinary = [round_matrix(rng.standard_normal(int(k)) + 1j * rng.standard_normal(int(k)),
                             fmt).ravel() for k in rng.integers(1, 40, 200)]
    return {"exact": exact, "residual": residual, "overflow": over, "subnormal": sub,
            "special": special, "ordinary": ordinary}


@pytest.mark.parametrize("fmt", [BINARY32, BINARY16], ids=_ids)
def test_norm2_steps_match_the_per_entry_loop(fmt, rng, monkeypatch):
    """The cast-first loop of `_norm2_steps` against the per-entry loop it
    replaced (`scalar_oracle._norm2_per_entry`), bit for bit, on complex128
    vectors and on their complex64 copies, whose float32 magnitudes keep
    NaN; complex128 magnitudes turn it into inf, and so the norm of either
    is inf once an entry holds a NaN.  The midpoints take the
    fallback, and so do binary16's overflows, whose cast raises (binary32's
    gives inf), and NaN sums; ordinary entries almost never do."""
    fallback = {"exact", "residual"} if fmt is BINARY32 else {"exact", "overflow"}
    fallbacks = []
    sums = linalg._sums
    monkeypatch.setattr(linalg, "_sums", lambda *a: fallbacks.append(a) or sums(*a))
    as_bits = lambda v: np.array(v, dtype=np.float64).view(np.uint64)
    for family, vectors in _norm_vectors(rng, fmt).items():
        fallbacks.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionOverflowWarning)
            vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
        with np.errstate(over="ignore", invalid="ignore"):
            wide = [v.astype(np.complex64) for v in vectors]
            got = [_norm2_steps(v, fmt) for v in vectors + wide]
            for v, norm in zip(vectors + wide, got):
                assert as_bits(norm) == as_bits(_norm2_per_entry(v, fmt)), (family, v)
        if family == "overflow":
            assert math.inf in got
        if family == "subnormal":
            assert all(0.0 < x < math.sqrt(fmt.smallest_normal) for x in got)
        if family == "special":
            assert got == [math.inf] * len(got)
        if family == "ordinary":
            assert len(fallbacks) < sum(map(len, vectors + wide)) // 100
        assert fallbacks or family not in fallback, family
    # the sums before the square root: 4097^2 = 2^24 + 2^13 + 1 is a tie,
    # which the residual 2^-30 rounds up, and the cast alone to even
    monkeypatch.setattr(linalg, "_ssqrt", lambda x, fmt: x)
    assert _norm2_steps(np.array([2.0 ** -15, 4097.0]) + 0j, BINARY32) == 2**24 + 2**13 + 2
    assert _norm2_steps(np.array([4097.0]) + 0j, BINARY32) == 2**24 + 2**13


@pytest.mark.parametrize("fmt", FORMATS, ids=_ids)
def test_rotation_chain_matches_reference(fmt, rng):
    """The stored-rotation chain of GMRES against its `_s*` composition:
    half of the operand sets from the mixture of `_givens` (signed zeros,
    subnormals, overflowing products, inf and NaN), half moderate."""
    n = SETS[fmt] // 2
    sets = np.concatenate([_complex(rng, 4 * n, fmt),
                           _complex(rng, 4 * n, fmt, MODERATE)]).reshape(2 * n, 4)
    got, want = _compare(lambda c, s, h0, h1: _rotation_chain(c, s, h0, h1, fmt),
                         lambda c, s, h0, h1: _rotation_steps(c, s, h0, h1, fmt), sets.tolist())
    finite = np.isfinite(sets).all(axis=1)
    assert np.isfinite(want).all(axis=1).sum() > n
    assert not np.isfinite(want[finite]).all()  # products or sums past the range
    parts = np.concatenate([got.real.ravel(), got.imag.ravel()])
    zeros = parts[parts == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()  # -0 and +0 results


@pytest.mark.parametrize("fmt", FORMATS, ids=_ids)
def test_rotations_past_overflow(fmt):
    big = fmt.max_finite
    # conj(c) h0 overflows, and a sum of two products in range does too
    for c, s, h0, h1 in [(2 + 0j, 0j, complex(big, 0.0), 1 + 0j),
                         (1 + 0j, 1 + 0j, complex(big, -big), complex(big, big))]:
        want = _rotation_steps(c, s, h0, h1, fmt)
        assert not np.isfinite(want).all()
        assert _same(_rotation_chain(c, s, h0, h1, fmt), want)


@pytest.mark.parametrize("fmt", FORMATS, ids=_ids)
def test_backsub_chain_matches_reference(fmt, rng):
    """Rows of 0 to 4 products of the back substitution against the `_s*`
    steps, rows past the range among them."""
    n = SETS[fmt] // 4
    lengths = rng.integers(0, 5, n)
    total = int(lengths.sum())
    acc = np.concatenate([_complex(rng, n // 2, fmt), _complex(rng, n - n // 2, fmt, MODERATE)])
    pairs = np.concatenate([_complex(rng, 2 * (total // 2), fmt),
                            _complex(rng, 2 * (total - total // 2), fmt, MODERATE)])
    pairs = pairs.reshape(total, 2)
    stops = np.cumsum(lengths)
    rows = [(a, pairs[stop - k:stop, 0].tolist(), pairs[stop - k:stop, 1].tolist())
            for a, stop, k in zip(acc.tolist(), stops.tolist(), lengths.tolist())]
    got, want = _compare(lambda a, hs, ys: _backsub_chain(a, hs, ys, fmt),
                         lambda a, hs, ys: _backsub_steps(a, hs, ys, fmt), rows)
    finite = np.array([np.isfinite([a, *hs, *ys]).all() for a, hs, ys in rows])
    assert np.isfinite(want).sum() > n // 3
    assert not np.isfinite(want[finite]).all()
    big = complex(fmt.max_finite, 0.0)
    assert _backsub_chain(-big, [big], [1 + 0j], fmt) == -math.inf  # -max - max overflows


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
    """The complex64 `_rotation` body (in place, no NaN check) against the
    software steps of the complex128 body in binary32, on entries with
    signed zero, subnormal and large parts, in both passes."""
    c, s = float(np.float32(c)), complex(np.complex64(s))  # binary32 coefficients
    n = 400
    X = np.empty((2, n), dtype=np.complex128)
    X.real = rng.choice(SIGNED, (2, n))
    X.imag = rng.choice(SIGNED, (2, n))
    for i in (0, 1):
        want, X32 = X.copy(), X.astype(np.complex64)
        for Z in (X32, want):
            coefficients, rotate = linalg._rotation(Z.dtype, BINARY32)
            rotate(body_views(Z)[0], coefficients(c, s)[i])
        assert not np.isnan(want).any()
        assert (_bits(X32.astype(np.complex128)) == _bits(want)).all()


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
            if not hasattr(module, name):
                continue
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
    its QR sweep on float32 planes and native chains, with the software
    path's U, T and flops; a NaN stays there too."""

    SOFTWARE = ("_round_real_scalar", "_smul", "_sdiv", "_mul_parts", "_rounded_sum")
    REDUCTION_SOFTWARE = ("_mul_parts", "_rounded_sum", "_round_real_array")

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
            mp.setattr(precision, "_binary32", lambda *xs: None)
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
        nan = []  # after each complex64 update: left on H, right on [U; H]
        for side in ("left", "right"):
            def spy(M, *args, _update=getattr(linalg, f"_apply_reflector_{side}_rounded")):
                _update(M, *args)
                if M.dtype == np.complex64:
                    nan.append(np.isnan(M).any())
            monkeypatch.setattr(linalg, f"_apply_reflector_{side}_rounded", spy)

        def reduction():
            counter = FlopCounter()
            ctx = PrecisionContext(BINARY32, counter, "low")
            UH = np.concatenate([np.eye(3, dtype=np.complex128), linalg._enter(A, ctx)])
            with np.errstate(over="ignore", invalid="ignore"):
                (UH,) = linalg._resident(
                    lambda X, ctx: linalg._hessenberg(X[None], [ctx]) and (X,), ctx, UH)
            return UH, counter.counts

        UH, flops = reduction()
        assert nan == [True, False]
        monkeypatch.setattr(precision, "_binary32", lambda *xs: None)
        ref, ref_flops = reduction()
        assert len(nan) == 2  # the software path updates complex128 arrays
        assert (_bits(UH) == _bits(ref)).all() and flops == ref_flops
        assert np.isfinite(UH).all()

    def test_nan_in_the_reduction_stays_in_complex64(self, reduction_calls, monkeypatch):
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
                    mp.setattr(precision, "_binary32", lambda *xs: None)
                # NaN entries never deflate
                with pytest.raises(IterationLimitError):
                    schur(A, PrecisionContext(BINARY32, counter, "low"))
            counters.append(counter.counts)
        assert reductions == [(np.complex64, True), (np.complex128, True)]
        assert counters[0] == counters[1] and counters[0]["low"] > 0

    def test_nan_in_the_sweep_stays_in_complex64(self, sweep_calls, monkeypatch):
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
        assert runs == [(np.complex64, True)]
        assert np.isnan(sf.T).any() and seen == []
        assert set(nan_parts(sf.T)) == {CANONICAL_NAN}
        # the software path's U and T, whose NaN parts are canonical too
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
                    mp.setattr(precision, "_binary32", lambda *xs: None)
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
        monkeypatch.setattr(precision, "_binary32", lambda *xs: None)
        V2, d2 = hermitian_eig(A, PrecisionContext(BINARY32, ref_counter, "low"))
        assert (_bits(V) == _bits(V2)).all()
        assert (np.ascontiguousarray(d).view(np.uint64) == d2.view(np.uint64)).all()
        assert counter.counts == ref_counter.counts
        assert V.dtype == np.complex128 and d.dtype == np.float64
