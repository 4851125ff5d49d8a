import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpsylv.precision as precision
from mpsylv.errors import PrecisionOverflowWarning
from mpsylv.precision import (
    B24,
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    TF32,
    FlopCounter,
    FpFormat,
    PrecisionContext,
    fl_add,
    fl_div,
    fl_mul,
    fl_sqrt,
    fl_sub,
    format_from_name,
    parse_format,
    round_complex,
    round_matrix,
    round_to,
    _EXACT64,
    _PLANES32,
    _chop,
    _chop_scalar,
    _compose,
    _mul_parts,
    _round_real_array,
    _round_real_scalar,
    _rounded_sum,
)

from conftest import CANONICAL_NAN, canonical, nan_parts

ALL_FORMATS = [BFLOAT16, BINARY16, TF32, B24, BINARY32, BINARY64]

finite_doubles = st.floats(allow_nan=False, allow_infinity=False,
                           allow_subnormal=True)


def nearest_representable_oracle(x, fmt):
    """Enumerate the two neighbours of x on the format's grid exactly."""
    if x == 0.0 or not math.isfinite(x):
        return x
    t, emin, emax = fmt.significand_bits, fmt.emin, fmt.emax
    fx = Fraction(x)
    q = max(math.frexp(x)[1] - 1, emin)
    ulp = Fraction(2) ** (q - t + 1)
    lo = (fx / ulp).__floor__() * ulp
    hi = lo + ulp
    dlo, dhi = fx - lo, hi - fx
    if dlo < dhi:
        y = lo
    elif dhi < dlo:
        y = hi
    else:  # tie: even multiple of the ulp wins
        y = lo if ((lo / ulp) % 2 == 0) else hi
    thr = (Fraction(2) - Fraction(2) ** (-t)) * Fraction(2) ** emax
    if abs(y) >= thr:
        return math.copysign(math.inf, x)
    return float(y)


class TestFormats:
    def test_table_parameters(self):
        assert (BFLOAT16.significand_bits, BFLOAT16.exponent_bits) == (8, 8)
        assert (BINARY16.significand_bits, BINARY16.exponent_bits) == (11, 5)
        assert (TF32.significand_bits, TF32.exponent_bits) == (11, 8)
        assert (B24.significand_bits, B24.exponent_bits) == (16, 8)
        assert (BINARY32.significand_bits, BINARY32.exponent_bits) == (24, 8)
        assert (BINARY64.significand_bits, BINARY64.exponent_bits) == (53, 11)

    def test_unit_roundoff_and_range(self):
        for fmt in ALL_FORMATS:
            assert fmt.unit_roundoff == 2.0 ** -fmt.significand_bits
            assert fmt.emax == 2 ** (fmt.exponent_bits - 1) - 1
            assert fmt.emin == 1 - fmt.emax
        assert BINARY16.max_finite == 65504.0
        assert TF32.emax == B24.emax  # same exponent range, wider significand
        assert BINARY64.max_finite == np.finfo(np.float64).max

    def test_lookup_by_name_and_bits(self):
        assert format_from_name("TF32") is TF32
        assert format_from_name("b24") is B24
        with pytest.raises(ValueError):
            format_from_name("fp8")
        f = parse_format("16:8")
        assert (f.significand_bits, f.exponent_bits) == (16, 8)

    def test_equality_is_by_bits_not_name(self):
        f = parse_format("24:8")
        assert f.name != BINARY32.name
        assert f == BINARY32 and hash(f) == hash(BINARY32)
        assert f in (BINARY16, BINARY32) and f != B24

    @pytest.mark.parametrize("spec, message", [
        ("60:11", "significand of 60 bits"),
        ("54:8", "significand of 54 bits"),
        ("8:15", "exponent of 15 bits"),
        ("11:12", "exponent of 12 bits"),
    ])
    def test_rejects_formats_wider_than_binary64(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_format(spec)

    def test_widest_admissible_formats(self):
        assert parse_format("53:11") == BINARY64
        assert parse_format("53:8").max_finite == 2.0**128 - 2.0**75
        assert parse_format("8:11").emax == 1023

    def test_flush_to_zero_not_offered(self):
        with pytest.raises(TypeError):
            FpFormat("ftz", 8, 8, supports_subnormals=False)


class TestRoundTo:
    def test_below_half_ulp_drops(self):
        assert round_to(1 + 2.0**-12, TF32) == 1.0

    def test_exactly_representable(self):
        assert round_to(1 + 2.0**-10, TF32) == 1 + 2.0**-10

    def test_binary16_overflow(self):
        # 65504 is the largest binary16 value; 70000 is past the rounding
        # threshold, as the softfloat-style oracle confirms
        assert nearest_representable_oracle(70000.0, BINARY16) == math.inf
        assert round_to(70000.0, BINARY16) == math.inf
        assert round_to(-70000.0, BINARY16) == -math.inf

    def test_bfloat16_tenth(self):
        expect = nearest_representable_oracle(0.1, BFLOAT16)
        assert expect == 0.10009765625
        assert round_to(0.1, BFLOAT16) == expect

    def test_specials(self):
        for fmt in ALL_FORMATS:
            assert math.isnan(round_to(math.nan, fmt))
            assert round_to(math.inf, fmt) == math.inf
            assert round_to(-math.inf, fmt) == -math.inf
            z = round_to(-0.0, fmt)
            assert z == 0.0 and math.copysign(1, z) == -1

    def test_rounding_up_past_the_largest_double_overflows(self):
        fmt = FpFormat.from_bits(40, 11)
        assert round_to(1.7976931348623157e308, fmt) == math.inf
        assert round_to(-1.7976931348623157e308, fmt) == -math.inf

    def test_underflow_to_signed_zero(self):
        tiny = BINARY16.smallest_subnormal
        assert round_to(tiny * 0.49, BINARY16) == 0.0
        assert round_to(tiny * 0.51, BINARY16) == tiny
        assert math.copysign(1, round_to(-1e-12, BINARY16)) == -1

    @given(finite_doubles)
    @settings(max_examples=300)
    def test_idempotent(self, x):
        for fmt in (BFLOAT16, BINARY16, TF32, B24):
            y = round_to(x, fmt)
            assert round_to(y, fmt) == y or (math.isinf(y) and round_to(y, fmt) == y)

    @given(finite_doubles, finite_doubles)
    @settings(max_examples=300)
    def test_monotone(self, x, y):
        if x > y:
            x, y = y, x
        for fmt in (BFLOAT16, TF32, BINARY32):
            assert round_to(x, fmt) <= round_to(y, fmt)

    @given(finite_doubles)
    @settings(max_examples=300)
    def test_sign_symmetric(self, x):
        for fmt in (BINARY16, B24):
            assert round_to(-x, fmt) == -round_to(x, fmt)

    @given(st.integers(-60, 60), st.integers(0, 2**7 - 1))
    def test_exact_values_are_fixed_points(self, e, mant):
        # every bfloat16-representable double must round to itself
        x = math.ldexp(1 + mant / 2.0**7, e)
        assert round_to(x, BFLOAT16) == x

    @given(finite_doubles)
    @settings(max_examples=400)
    def test_matches_native_binary16_and_binary32(self, x):
        with np.errstate(over="ignore"):
            n16 = float(np.float16(x))
            n32 = float(np.float32(x))
        assert round_to(x, BINARY16) == n16 or (math.isnan(n16))
        assert round_to(x, BINARY32) == n32 or (math.isnan(n32))

    def test_oracle_agreement_randomized(self, rng):
        xs = rng.standard_normal(2000) * np.exp(rng.uniform(-80, 80, 2000))
        for fmt in (BFLOAT16, BINARY16, TF32, B24, BINARY32):
            for x in xs[:200]:
                assert round_to(float(x), fmt) == nearest_representable_oracle(float(x), fmt)


class TestFlOps:
    def test_half_ulp_tie_rounds_even(self):
        ctx = PrecisionContext(TF32)
        assert fl_add(1.0, 2.0**-11, ctx) == 1.0

    def test_exact_product(self):
        for fmt in (BINARY16, TF32, B24, BINARY32, BINARY64):
            assert fl_mul(3.0, 5.0, PrecisionContext(fmt)) == 15.0

    def test_binary16_sum_overflow(self):
        assert fl_add(65504.0, 1024.0, PrecisionContext(BINARY16)).real == math.inf

    def test_unit_roundoff_realization(self):
        for fmt in ALL_FORMATS:
            u = fmt.unit_roundoff
            ctx = PrecisionContext(fmt)
            assert fl_add(1.0, u, ctx).real in (1.0, 1.0 + 2 * u)
            assert fl_add(1.0, u * (1 + 2.0**-30), ctx).real == 1.0 + 2 * u

    def test_standard_model_bound(self, rng):
        for fmt in (BFLOAT16, TF32, BINARY32):
            u = fmt.unit_roundoff
            ctx = PrecisionContext(fmt)
            a = np.asarray(fl_add(rng.standard_normal(500), 0.0, ctx))
            b = np.asarray(fl_add(rng.standard_normal(500), 0.0, ctx))
            for op, ref in ((fl_add, a + b), (fl_sub, a - b),
                            (fl_mul, a * b), (fl_div, a / b)):
                got = np.asarray(op(a, b, ctx))
                mask = ref != 0
                assert (np.abs(got - ref)[mask] <= u * np.abs(ref)[mask]).all()

    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32, BINARY16, BFLOAT16, parse_format("40:11")],
                             ids=lambda f: f.name)
    def test_overflow_is_silent(self, fmt):
        """Products, sums and differences past the range are inf in every
        format, with no numpy RuntimeWarning."""
        big = np.array([fmt.max_finite])
        ctx = PrecisionContext(fmt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [fl_mul(big, big, ctx), fl_add(big, big, ctx), fl_sub(-big, big, ctx),
                   fl_mul(np.array([1e300]), np.array([1e300]), PrecisionContext(BINARY64)),
                   fl_mul(1j * big, big + 1j * big, ctx)]
        assert [complex(z[0]) for z in got[:4]] == [math.inf, math.inf, -math.inf, math.inf]
        assert np.isinf(got[4]).all()

    def test_complex_parts_round_independently(self):
        z = complex(1 + 2.0**-12, 1 + 2.0**-10)
        assert round_complex(z, TF32) == complex(1.0, 1 + 2.0**-10)

    def test_nan_inf_propagation(self):
        ctx = PrecisionContext(BINARY16)
        assert math.isnan(fl_mul(math.inf, 0.0, ctx).real)
        assert fl_add(math.inf, 1.0, ctx).real == math.inf

    def test_agrees_with_native_float32_ops(self, rng):
        ctx = PrecisionContext(BINARY32)
        a = np.float32(rng.standard_normal(3000)).astype(np.float64)
        b = np.float32(rng.standard_normal(3000) * 8).astype(np.float64)
        assert (np.asarray(fl_add(a, b, ctx)).real
                == (np.float32(a) + np.float32(b)).astype(np.float64)).all()
        assert (np.asarray(fl_mul(a, b, ctx)).real
                == (np.float32(a) * np.float32(b)).astype(np.float64)).all()
        assert (np.asarray(fl_div(a, b, ctx)).real
                == (np.float32(a) / np.float32(b)).astype(np.float64)).all()
        with np.errstate(invalid="ignore"):
            ref = np.sqrt(np.float32(np.abs(a))).astype(np.float64)
        assert (np.asarray(fl_sqrt(np.abs(a), ctx)) == ref).all()

    def test_overflowing_imaginary_part_leaves_real_part(self):
        z = fl_mul(300j, 300.0, PrecisionContext(BINARY16))
        assert _bits(z.real) == _bits(0.0) and z.imag == math.inf
        z = fl_add(np.array([1.0 + 65504j]), 65504j, PrecisionContext(BINARY16))[0]
        assert z.real == 1.0 and z.imag == math.inf

    def test_negative_zero_real_part_survives(self):
        for fmt in (BFLOAT16, BINARY16, BINARY32, FpFormat.from_bits(40, 11)):
            ctx = PrecisionContext(fmt)
            z = fl_mul(-1.0, 0.0, ctx)
            assert _bits(z.real) == _bits(-0.0) and _bits(z.imag) == _bits(0.0)
            z = fl_add(complex(-0.0, 1.0), complex(-0.0, 2.0), ctx)
            assert _bits(z.real) == _bits(-0.0) and z.imag == 3.0

    def test_scalar_in_scalar_out(self):
        ctx = PrecisionContext(TF32)
        assert isinstance(fl_add(1.0, 2.0, ctx), complex)
        assert isinstance(fl_mul(np.ones(3), 2.0, ctx), np.ndarray)

    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32, BFLOAT16], ids=lambda f: f.name)
    def test_sqrt_of_a_negative_value_is_the_canonical_nan_silently(self, fmt):
        """No numpy RuntimeWarning, which the tests' filterwarnings turn
        into an error."""
        ctx = PrecisionContext(fmt, FlopCounter())
        assert nan_parts(np.array(fl_sqrt(-1.0, ctx))) == [CANONICAL_NAN]
        got = fl_sqrt(np.array([-4.0, 4.0]), ctx)
        assert nan_parts(got) == [CANONICAL_NAN] and got[1] == 2.0
        assert ctx.counter.total() == 3

    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32, BFLOAT16], ids=lambda f: f.name)
    def test_sqrt_rejects_a_nonzero_or_nan_imaginary_part(self, fmt):
        """The real part alone would be a silently wrong root; a zero
        imaginary part, of either sign, is taken."""
        ctx = PrecisionContext(fmt, FlopCounter())
        for x in (3 + 4j, np.array([4 + 1j, 9]), complex(4.0, math.nan),
                  np.array([complex(1.0, -0.0), complex(4.0, 5e-324)])):
            with pytest.raises(ValueError, match="imaginary"):
                fl_sqrt(x, ctx)
        assert ctx.counter.total() == 0
        assert fl_sqrt(complex(4.0, -0.0), ctx) == 2.0
        got = fl_sqrt(np.array([4 + 0j, complex(9.0, -0.0)]), ctx)
        assert got.dtype == np.float64 and got.tolist() == [2.0, 3.0]
        assert fl_sqrt(np.float32(2.25), ctx) == 1.5


NATIVE = [(BINARY32, np.float32), (BINARY16, np.float16)]


def _bits(v):
    return np.asarray(v, dtype=np.float64).view(np.uint64)


def _ulp(v, fmt):
    """Spacing of fmt at the positive finite doubles v."""
    q = np.maximum(np.frexp(v)[1] - 1, fmt.emin)
    return np.ldexp(1.0, q - fmt.significand_bits + 1)


def _boundaries(fmt):
    """Doubles at and beside fmt's subnormal, tie and overflow boundaries."""
    tiny, normal, top = fmt.smallest_subnormal, fmt.smallest_normal, fmt.max_finite
    u = fmt.unit_roundoff
    with np.errstate(over="ignore"):  # binary64 has no double past its top
        x = np.array([0.0, tiny, tiny / 2, 3 * tiny / 2, normal, normal - tiny,
                      normal - tiny / 2, 1 + u, 1 + 3 * u, top, top + _ulp(top, fmt) / 2,
                      2 * top, math.inf])
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)])
    return np.concatenate([x, -x])


def _grid(fmt, dtype, patterns):
    """The positive values of fmt with the given bit patterns, the midpoints
    to their successors, and the doubles on either side of each midpoint."""
    v = np.asarray(patterns, dtype=np.uint64).astype(
        np.uint16 if dtype is np.float16 else np.uint32).view(dtype).astype(np.float64)
    mid = v + _ulp(v, fmt) / 2
    x = np.concatenate([v, mid, np.nextafter(mid, 0.0), np.nextafter(mid, math.inf)])
    return np.concatenate([x, -x])


def _exhaustive_grid(fmt, dtype):
    if dtype is np.float16:  # every positive finite binary16 value
        return _grid(fmt, dtype, np.arange(1, 0x7C00))
    # the first and last significands of every binary32 binade
    mant = np.array([0, 1, 2, 3, 2**22, 2**23 - 3, 2**23 - 2, 2**23 - 1])
    pats = (np.arange(255)[:, None] << 23 | mant).ravel()
    return _grid(fmt, dtype, pats[pats > 0])


class TestNativeCasts:
    """The native casts against the software kernel they replace."""

    @pytest.mark.parametrize("fmt, dtype", NATIVE)
    def test_software_kernel_matches_cast_at_boundaries(self, fmt, dtype):
        x = np.concatenate([_boundaries(fmt), _exhaustive_grid(fmt, dtype)])
        with np.errstate(over="ignore"):
            cast = x.astype(dtype).astype(np.float64)
        soft = _chop(x, fmt)
        assert (_bits(soft) == _bits(cast)).all()
        assert (_bits(_round_real_array(x, fmt)) == _bits(soft)).all()

    @pytest.mark.parametrize("fmt, dtype", NATIVE)
    def test_scalar_pack_matches_software_at_boundaries(self, fmt, dtype):
        x = np.concatenate([_boundaries(fmt), _exhaustive_grid(fmt, dtype)]).tolist()
        got = [_round_real_scalar(v, fmt) for v in x]
        ref = [v if v == 0.0 or not math.isfinite(v) else _chop_scalar(v, fmt) for v in x]
        assert (_bits(got) == _bits(ref)).all()

    @pytest.mark.parametrize("fmt, dtype", NATIVE)
    @given(pattern=st.integers(1, 2**31), sign=st.sampled_from([1.0, -1.0]),
           err_sign=st.sampled_from([0.0, 1.0, -1.0]))
    @settings(max_examples=300)
    def test_midpoint_with_residual(self, fmt, dtype, pattern, sign, err_sign):
        # v and its successor w bracket the midpoint; a residual of either
        # sign says which side of the midpoint the exact value lies on
        top = 0x7C00 if dtype is np.float16 else 0x7F800000
        v = float(_grid(fmt, dtype, [pattern % (top - 1) + 1])[0])
        w = v + float(_ulp(v, fmt))
        mid = (v + w) / 2
        err = err_sign * mid * 2.0**-60
        x, e = np.array([sign * mid]), np.array([sign * err])
        if err_sign == 0.0:
            with np.errstate(over="ignore"):
                want = float(x.astype(dtype)[0])
        else:
            want = sign * (w if err_sign > 0 else v)
            want = math.copysign(math.inf, want) if abs(want) > fmt.max_finite else want
        assert _bits(_round_real_array(x, fmt, e)) == _bits(want)
        assert _bits(_chop(x, fmt, e)) == _bits(want)
        assert _bits(_round_real_scalar(sign * mid, fmt, sign * err)) == _bits(want)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @given(payload=st.integers(1, 2**51 - 1), negative=st.booleans(),
           quiet=st.booleans())
    @settings(max_examples=50)
    def test_nan_payload_passes_through(self, fmt, payload, negative, quiet):
        bits = np.uint64(0x7FF0000000000000 | (quiet << 51) | payload | (negative << 63))
        x = np.array([bits]).view(np.float64)
        assert _bits(_round_real_array(x, fmt)) == bits
        assert _bits(_round_real_scalar(float(x[0]), fmt)) == bits

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @given(x=finite_doubles)
    @settings(max_examples=200)
    def test_scalar_equals_array(self, fmt, x):
        assert _bits(_round_real_scalar(x, fmt)) == _bits(_round_real_array(np.array([x]), fmt))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_scalar_equals_array_at_boundaries(self, fmt):
        x = _boundaries(fmt)
        assert (_bits([_round_real_scalar(v, fmt) for v in x.tolist()])
                == _bits(_round_real_array(x, fmt))).all()

    def test_software_kernel_on_a_million_doubles(self, rng):
        # the inputs of acceptance criterion 1, which now checks the cast
        # dispatch; this keeps the software kernel under the same oracle
        N = 1_000_000
        x = rng.standard_normal(N) * np.exp(rng.uniform(-90, 90, N))
        x[:100] = [0.0, -0.0, np.inf, -np.inf, np.nan, 65504.0, 65520.0,
                   70000.0, 2.0**-24, 2.0**-25] * 10
        for fmt, dtype in NATIVE:
            with np.errstate(over="ignore"):
                cast = x.astype(dtype).astype(np.float64)
            soft = _chop(x, fmt)
            ok = (_bits(soft) == _bits(cast)) | (np.isnan(soft) & np.isnan(cast))
            assert ok.all(), fmt.name


def _two_sum(a, b):
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


class TestScalarTieBreak:
    """_round_real_scalar rounds a 2Sum pair (x, err) by the native cast,
    and by the software kernel only where x is a midpoint of the format."""

    @staticmethod
    def _pairs(fmt, dtype, rng, n=100_000):
        top = 0x7C00 if dtype is np.float16 else 0x7F800000
        utype = np.uint16 if dtype is np.float16 else np.uint32

        def values(patterns):
            return np.asarray(patterns).astype(utype).view(dtype).astype(np.float64)

        # a value of the format (every binade, subnormals too) plus a double
        # 2^-1 to 2^-59 of its size: the residual is nonzero for most pairs
        a = values(rng.integers(1, top, n)) * rng.choice([-1.0, 1.0], n)
        s, e = _two_sum(a, rng.standard_normal(n) * a * np.ldexp(1.0, -rng.integers(1, 60, n)))
        # midpoints between a value and its successor: random patterns, the
        # subnormal ones, and the overflow threshold max_finite + ulp/2
        p = np.concatenate([rng.integers(1, top - 1, 2000), np.arange(1, 200)])
        mid = (values(p) + values(p + 1)) / 2
        mid = np.append(mid, fmt.max_finite + 2.0 ** (fmt.emax - fmt.significand_bits))
        mid = np.concatenate([mid, -mid])
        mid = np.concatenate([mid, mid])
        err = mid * 2.0**-60 * np.repeat([1.0, -1.0], len(mid) // 2)
        return np.concatenate([s, mid]), np.concatenate([e, err])

    @pytest.mark.parametrize("fmt, dtype", NATIVE)
    def test_two_sum_pairs_match_software(self, fmt, dtype, rng):
        x, err = self._pairs(fmt, dtype, rng)
        assert np.count_nonzero(err) > len(x) // 2
        assert (np.abs(x[np.isfinite(x)]) < fmt.smallest_normal).any()
        got = [_round_real_scalar(v, fmt, e) for v, e in zip(x.tolist(), err.tolist())]
        ref = [v if v == 0.0 or not math.isfinite(v) else _chop_scalar(v, fmt, e)
               for v, e in zip(x.tolist(), err.tolist())]
        assert (_bits(got) == _bits(ref)).all()

    @pytest.mark.parametrize("fmt, dtype", NATIVE)
    def test_software_kernel_only_at_midpoints(self, fmt, dtype, rng, monkeypatch):
        x, err = self._pairs(fmt, dtype, rng, 20_000)
        with np.errstate(over="ignore"):
            ties = _chop(x, fmt, np.ones_like(x)) != _chop(x, fmt, -np.ones_like(x))
        calls = []

        def spy(v, f, e=0.0, _chop_scalar=precision._chop_scalar):
            calls.append(v)
            return _chop_scalar(v, f, e)

        monkeypatch.setattr(precision, "_chop_scalar", spy)
        for v, e in zip(x.tolist(), err.tolist()):
            _round_real_scalar(v, fmt, e)
        assert _bits(calls).tolist() == _bits(x[ties & (err != 0)]).tolist()
        assert len(calls) > 4000

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY16], ids=lambda f: f.name)
    def test_overflow_threshold(self, fmt):
        top = fmt.max_finite + 2.0 ** (fmt.emax - fmt.significand_bits)
        for sign in (1.0, -1.0):
            assert _round_real_scalar(sign * top, fmt, -sign * 2.0**-60) == sign * fmt.max_finite
            assert _round_real_scalar(sign * top, fmt, sign * 2.0**-60) == sign * math.inf
            assert _round_real_scalar(sign * top, fmt) == sign * math.inf


def _binary32_values(rng, n):
    """Binary32 values from random bit patterns, so every binade and the
    subnormals are hit, plus the specials; no NaN."""
    bits = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32)
    v = bits.view(np.float32)
    specials = [0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, BINARY32.max_finite,
                BINARY32.smallest_subnormal, BINARY32.smallest_normal]
    return np.concatenate([specials, v[~np.isnan(v)].astype(np.float64)])


def _soft_sum(a, b):
    return _rounded_sum(*np.broadcast_arrays(np.asarray(a, dtype=np.complex128),
                                             np.asarray(b, dtype=np.complex128)), BINARY32)


def _soft_product(a, b):
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return _compose(*_mul_parts(a.real, a.imag, b.real, b.imag, BINARY32))


def _cbits(z):
    """The bits of the real and imaginary parts of z."""
    z = np.asarray(z, dtype=np.complex128)
    return np.array([_bits(z.real), _bits(z.imag)])


class TestBinary32Native:
    """fl_add, fl_sub and fl_mul in binary32 against the software path."""

    CTX = PrecisionContext(BINARY32)

    def _pairs(self, rng):
        v = _binary32_values(rng, 20000)
        k = len(v) // 4
        a = _compose(v[:k], v[k:2 * k])
        b = _compose(v[2 * k:3 * k], v[3 * k:4 * k])
        # every special against every special, in both parts
        s = v[:9]
        sa, sb = np.meshgrid(_compose(*np.meshgrid(s, s)), _compose(*np.meshgrid(s, s)))
        return np.concatenate([a, sa.ravel()]), np.concatenate([b, sb.ravel()])

    def test_ops_match_software_bit_for_bit(self, rng):
        a, b = self._pairs(rng)
        for op, ref in ((fl_add, _soft_sum(a, b)), (fl_sub, _soft_sum(a, -b)),
                        (fl_mul, _soft_product(a, b))):
            assert (_cbits(op(a, b, self.CTX)) == _cbits(canonical(ref))).all(), op.__name__
        # the grid holds inf * 0 and inf - inf, whose NaN parts are canonical
        assert np.isnan(fl_mul(a, b, self.CTX)).any()

    def test_native_path_taken_when_the_result_holds_a_nan(self, rng, monkeypatch):
        a, b = self._pairs(rng)
        a32, b32 = _PLANES32.enter(a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            # the steps fl_mul, fl_add and fl_sub take on complex64 copies:
            # the software path's bits in every part that is not NaN there,
            # and NaN in the same parts
            for step, ref in ((_PLANES32.product, _soft_product(a, b)),
                              (_PLANES32.add, _soft_sum(a, b)), (_PLANES32.sub, _soft_sum(a, -b))):
                got = step(a32, b32)
                assert got.dtype == np.complex64
                assert (_cbits(canonical(got)) == _cbits(canonical(ref))).all()
        assert np.isnan(_soft_product(a, b)).any()  # inf * 0 and inf - inf
        assert np.isinf(_soft_product(a, b)).any()  # products that overflow
        assert (np.abs(_soft_product(a, b)) < BINARY32.smallest_normal).any()
        # the entries stay on the planes for a result that holds a NaN:
        # no step of binary32's software arithmetic runs
        for name in ("product", "add", "sub"):
            monkeypatch.setattr(BINARY32._arithmetic, name,
                                lambda *args: pytest.fail("a software step"))
        for op in (fl_add, fl_sub, fl_mul):
            op(a, b, self.CTX)

    def test_scalars_and_broadcast_shapes(self, rng):
        v = _binary32_values(rng, 64)[9:]
        x, y = complex(v[0], v[1]), complex(v[2], -v[3])
        col, row = _compose(v[4:8], v[8:12])[:, None], _compose(v[12:19], v[19:26])[None, :]
        for op, ref in ((fl_add, _soft_sum), (fl_mul, _soft_product),
                        (fl_sub, lambda p, q: _soft_sum(p, -np.asarray(q)))):
            got = op(x, y, self.CTX)
            assert isinstance(got, complex)
            assert (_cbits(got) == _cbits(canonical(ref(x, y)))).all()
            for p, q in ((col, row), (x, row), (col, y)):
                got = op(p, q, self.CTX)
                assert got.shape == np.broadcast(p, q).shape
                assert (_cbits(got) == _cbits(canonical(ref(p, q)))).all()

    def test_operand_off_the_format_takes_the_software_path(self):
        # 1 + 2^-24 is not a binary32 value: its cast would round it to 1
        a, b = 1 + 2.0**-24, 1 + 2.0**-23
        assert _PLANES32.enter(np.asarray(a + 0j)) is None
        assert fl_mul(a, b, self.CTX) == 1 + 2.0**-22
        assert fl_add(0.1, 0.2, self.CTX) == _soft_sum(0.1, 0.2)

    def test_nan_operand_gives_the_canonical_nan(self):
        """A NaN operand is not a binary32 value: the step runs on the
        software path, whose bits it returns in every part that is not
        NaN, each NaN part the canonical NaN whatever the operand's payload
        and sign."""
        nan = np.array([0x7FF8000000000123, 0xFFF4000000000001], dtype=np.uint64).view(np.float64)
        a = _compose(nan, np.array([1.0, 2.0]))
        for got, ref in ((fl_add(a, 1.0, self.CTX), _soft_sum(a, 1.0)),
                         (fl_sub(1.0, a, self.CTX), _soft_sum(1.0, -a)),
                         (fl_mul(a, 3.0, self.CTX), _soft_product(a, 3.0))):
            assert (_cbits(got) == _cbits(canonical(ref))).all()
            assert len(nan_parts(got)) >= 2 and set(nan_parts(got)) == {CANONICAL_NAN}


class TestProductInto:
    """The float32 planes' ``product`` of complex64 operands formed straight
    in the planes of a caller's out has the bytes of `_mul_parts` and of
    ``product`` without out, for broadcast shapes, signed zeros and
    infinities; and the block sums of `gemm`'s steps formed in their
    accumulation buffer (``summed_products``) have the bytes of
    ``accumulate`` of the products."""

    SHAPES = [((7, 5, 1), (7, 1, 3)), ((4,), (4,)), ((), (6,)), ((3, 1), (1, 4)),
              ((2, 1, 5), (5,))]

    @staticmethod
    def _operands(rng, shape):
        """complex64 values of the shape, a quarter of the parts taken from
        +-0, +-inf, the largest value and the smallest subnormal."""
        special = np.array([0.0, -0.0, np.inf, -np.inf, BINARY32.max_finite,
                            -BINARY32.smallest_subnormal], dtype=np.float32)
        parts = rng.standard_normal((2,) + shape).astype(np.float32)
        pick = rng.random(parts.shape) < 0.25
        parts[pick] = rng.choice(special, int(pick.sum()))
        return _compose(parts[0], parts[1]).astype(np.complex64)

    def test_matches_mul_parts_and_the_product_without_out(self, rng):
        seen = np.zeros(3, dtype=bool)  # a NaN, an inf, a -0 among the parts
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(20):
                for sa, sb in self.SHAPES:
                    a, b = self._operands(rng, sa), self._operands(rng, sb)
                    out = np.empty(np.broadcast_shapes(sa, sb), dtype=np.complex64)
                    assert _PLANES32.product(a, b, out=out) is out
                    assert out.tobytes() == _PLANES32.product(a, b).tobytes()
                    a, b = a.astype(np.complex128), b.astype(np.complex128)
                    want = _mul_parts(a.real, a.imag, b.real, b.imag, BINARY32)
                    got = np.array([out.real, out.imag], dtype=np.float64)
                    assert (_bits(got) == _bits(want)).all()
                    seen |= [np.isnan(got).any(), np.isinf(got).any(),
                             (_bits(got) == _bits(-0.0)).any()]
        assert seen.all()

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64, BFLOAT16], ids=lambda f: f.name)
    def test_summed_products_match_accumulate(self, fmt, rng):
        """complex64 operands in binary32; binary64 with NaNs of distinct
        payloads, which the one accumulate and the step-by-step sums may
        keep differently where two meet, though in the same parts and with
        the same other bits; bfloat16, which sums step by step."""
        dtype = np.complex64 if fmt is BINARY32 else np.complex128
        ar = {BINARY32: _PLANES32, BINARY64: _EXACT64}.get(fmt, fmt._arithmetic)
        with_nan = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(40):
                kb, m, n = (int(k) for k in rng.integers(2, 8, 3))
                A = self._operands(rng, (m, kb)).astype(dtype)
                B = self._operands(rng, (kb, n)).astype(dtype)
                start = self._operands(rng, (m, n)).astype(dtype)
                if fmt is BINARY64:
                    pay = rng.integers(1, 2**50, 6).astype(np.uint64) | np.uint64(0x7FF8 << 48)
                    pay[::2] |= np.uint64(1 << 63)
                    nan = pay.view(np.float64)
                    for x in range(3):
                        A[rng.integers(m), rng.integers(kb)] = complex(1.0, nan[x])
                        B[rng.integers(kb), rng.integers(n)] = complex(nan[3 + x], 0.5)
                a, b = A.T[:, :, None], B[:, None, :]
                for s in (None, start):
                    P = ar.product(a, b)
                    want = ar.accumulate(P, s)
                    got = ar.summed_products(a, b, s, (kb, m, n))
                    assert got.dtype == want.dtype == dtype
                    assert got.tobytes() == want.tobytes()
                    if fmt is BINARY64:
                        steps = np.zeros((m, n), dtype) if s is None else s
                        for p in P:
                            steps = steps + p
                        assert (_cbits(canonical(want)) == _cbits(canonical(steps))).all()
                        with_nan += np.isnan(want).any()
        assert with_nan or fmt is not BINARY64


class TestArithmetic:
    """`_resident` hands a kernel the arithmetic of its format and of the
    dtype it runs in, and on binary32 values the float32 planes and
    binary32's software arithmetic give the same bytes."""

    @staticmethod
    def _handed(fmt, *arrays, reject=False):
        """(arithmetic, operand dtypes) of each run of a kernel entered by
        `_resident` in fmt; with reject, a run in the float32 planes
        returns False, as a kernel does for an operand off binary32."""
        runs = []

        def kernel(*ops, ctx):
            runs.append((ctx.arithmetic, {op.dtype for op in ops}))
            return not (reject and ctx.arithmetic is _PLANES32) and ops
        precision._resident(kernel, PrecisionContext(fmt, FlopCounter()), *arrays)
        return runs

    def test_binary64_gets_exact_complex128(self):
        a = np.array([1 + 2j, 0.1])
        assert self._handed(BINARY64, a, a.astype(np.complex64)) == [
            (_EXACT64, {np.dtype(np.complex128)})]
        assert PrecisionContext(BINARY64).arithmetic is _EXACT64 and _EXACT64.exact

    def test_binary32_values_get_the_float32_planes(self):
        a = np.array([1 + 2j, complex(0.5, -0.0)])
        assert self._handed(BINARY32, a, a[::-1]) == [(_PLANES32, {np.dtype(np.complex64)})]
        assert _PLANES32.exact and _PLANES32.wide is BINARY32._arithmetic

    def test_off_the_format_runs_get_binary32_software(self):
        soft = BINARY32._arithmetic
        assert type(soft) is precision._Arithmetic and soft.format == BINARY32
        assert soft.resident is _PLANES32 and not soft.exact
        wide = {np.dtype(np.complex128)}
        # 0.1 is off binary32, and so is a NaN
        assert self._handed(BINARY32, np.array([1 + 2j, 0.1])) == [(soft, wide)]
        assert self._handed(BINARY32, np.array([complex(math.nan, 1.0)])) == [(soft, wide)]
        # a kernel that finds an operand off the format reruns
        assert self._handed(BINARY32, np.array([1 + 2j]), reject=True) == [
            (_PLANES32, {np.dtype(np.complex64)}), (soft, wide)]

    @pytest.mark.parametrize("fmt", [BFLOAT16, BINARY16, TF32, B24, parse_format("40:11")],
                             ids=lambda f: f.name)
    def test_other_formats_get_the_software_arithmetic(self, fmt):
        (ar, dtypes), = self._handed(fmt, np.array([1 + 2j, complex(0.5, -0.0)]))
        assert type(ar) is precision._Arithmetic and ar.format == fmt
        assert ar is fmt._arithmetic is PrecisionContext(fmt).arithmetic
        assert ar.resident is None and not ar.exact and ar.wide is ar
        assert dtypes == {np.dtype(np.complex128)}

    def test_planes_match_software_bytes(self, rng):
        """add, sub, product with and without out, accumulate and divide,
        each NaN part made canonical, as `_resident` returns it."""
        special = [0.0, -0.0, math.inf, -math.inf, 3e38, -3e38, 2.0**-149, -2.0**-149, math.nan]
        parts = np.array(special + rng.standard_normal(40).tolist(), dtype=np.float32)
        parts = parts.astype(np.float64)
        re, im = np.meshgrid(parts, parts)
        z = _compose(re.ravel(), im.ravel())
        a, b = z, rng.permutation(z)
        a32, b32 = a.astype(np.complex64), b.astype(np.complex64)
        soft = BINARY32._arithmetic

        def same(got, want):
            got = np.asarray(got)
            assert got.dtype == np.complex64 and want.dtype == np.complex128
            assert canonical(got.astype(np.complex128)).tobytes() == canonical(want).tobytes()

        with np.errstate(all="ignore"):
            for step in ("add", "sub", "product", "divide"):
                same(getattr(_PLANES32, step)(a32, b32), getattr(soft, step)(a, b))
            out32, out = np.empty_like(a32), np.empty_like(a)
            assert _PLANES32.product(a32, b32, out=out32) is out32
            assert soft.product(a, b, out=out) is out
            same(out32, out)
            k = len(a) // 8
            P, P32 = a[:8 * k].reshape(8, k), a32[:8 * k].reshape(8, k)
            for start in (None, b[:k]):
                same(_PLANES32.accumulate(P32, None if start is None else b32[:k]),
                     soft.accumulate(P, start))
        assert np.isnan(soft.product(a, b)).any() and np.isinf(soft.add(a, b)).any()
        assert (soft.divide(a, b) == 0).any()


class TestRoundMatrix:
    def test_identity_fixed(self):
        for fmt in ALL_FORMATS:
            R = round_matrix(np.eye(4), fmt)
            assert (R == np.eye(4)).all()

    def test_rounds_entries(self):
        R = round_matrix(np.array([[0.1]]), BFLOAT16)
        assert R[0, 0] == 0.10009765625

    def test_idempotent(self, rng):
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        R = round_matrix(M, TF32)
        assert (round_matrix(R, TF32) == R).all()

    def test_overflow_reported_not_fatal(self):
        with pytest.warns(PrecisionOverflowWarning):
            R = round_matrix(np.array([[1e6]]), BINARY16)
        assert R[0, 0].real == math.inf

    def test_imaginary_overflow_keeps_real_part(self):
        with pytest.warns(PrecisionOverflowWarning):
            R = round_matrix(np.array([[1e6j, complex(-0.0, 1e6)]]), BINARY16)
        assert _bits(R[0, 0].real) == _bits(0.0) and R[0, 0].imag == math.inf
        assert _bits(R[0, 1].real) == _bits(-0.0) and R[0, 1].imag == math.inf


class TestFlopCounter:
    def test_counts_per_scalar_result(self):
        c = FlopCounter()
        ctx = PrecisionContext(BINARY32, c, "low")
        fl_add(np.ones((3, 4)), np.ones((3, 4)), ctx)
        fl_mul(2.0, np.ones(5), ctx)
        assert c.get("low") == 12 + 5
        assert c.total() == 17
        c.reset()
        assert c.total() == 0

    def test_buckets_are_separate(self):
        c = FlopCounter()
        fl_add(1.0, 2.0, PrecisionContext(BINARY64, c, "high"))
        fl_add(1.0, 2.0, PrecisionContext(BINARY32, c, "low"))
        assert c.get("high") == 1 and c.get("low") == 1
