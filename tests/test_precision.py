import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)

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

    def test_flush_to_zero_not_offered(self):
        with pytest.raises(ValueError):
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

    def test_scalar_in_scalar_out(self):
        ctx = PrecisionContext(TF32)
        assert isinstance(fl_add(1.0, 2.0, ctx), complex)
        assert isinstance(fl_mul(np.ones(3), 2.0, ctx), np.ndarray)


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
