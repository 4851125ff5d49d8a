"""Property tests of the whole-array recurrences against step-by-step references.

`fl_sum` must equal a loop of `fl_add`, the vector division `_quotient`
must equal Python's complex division in binary64 and `_sdiv` elsewhere,
and the wavefront `solve_sylv_tri` must equal the column-by-column
substitution kept below as `column_order_solve`: the same bits, the same
flops, and the same error class and position.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsylv.errors import NumericBreakdownError, SingularEquationError
from mpsylv.precision import (
    FlopCounter,
    PrecisionContext,
    fl_add,
    fl_mul,
    fl_sub,
    fl_sum,
    parse_format,
    round_matrix,
    round_to,
    _quotient,
    _sadd,
    _sdiv,
)
from mpsylv.sylvester import solve_sylv_tri

FORMATS = ("bfloat16", "binary16", "tf32", "b24", "binary32", "40:11", "binary64")


def bits(z):
    z = np.asarray(z, dtype=np.complex128)
    return np.ascontiguousarray(z).view(np.uint64)


def same(a, b, nan_payload=True):
    """Bit equality; without ``nan_payload`` any two NaNs compare equal."""
    ba, bb = bits(a), bits(b)
    if nan_payload:
        return np.array_equal(ba, bb)
    fa = np.ascontiguousarray(np.asarray(a, dtype=np.complex128)).view(np.float64)
    fb = np.ascontiguousarray(np.asarray(b, dtype=np.complex128)).view(np.float64)
    return bool(((ba == bb) | (np.isnan(fa) & np.isnan(fb))).all())


@st.composite
def values(draw, fmt, nan=True):
    """Doubles of the format: ordinary, tiny, huge and special."""
    f = parse_format(fmt)
    special = [0.0, -0.0, math.inf, -math.inf, f.max_finite, -f.max_finite,
               f.smallest_subnormal, -f.smallest_subnormal, f.smallest_normal, 1.0]
    if nan:
        special.append(math.nan)
    x = draw(st.one_of(
        st.sampled_from(special),
        st.floats(-4.0, 4.0),
        st.floats(allow_nan=False, allow_infinity=False, width=64)
        .map(lambda v: v * f.max_finite / 1.8e308),
        st.floats(-1.0, 1.0).map(lambda v: v * 64 * f.smallest_normal)))
    return round_to(x, f)


@st.composite
def complex_values(draw, fmt, nan=True):
    return complex(draw(values(fmt, nan)), draw(values(fmt, nan)))


# ---------------------------------------------------------------------------
# fl_sum


@st.composite
def sum_cases(draw):
    fmt = draw(st.sampled_from(FORMATS))
    k = draw(st.integers(0, 7))
    r = draw(st.integers(1, 3))
    entries = draw(st.lists(complex_values(fmt, nan=draw(st.booleans())),
                            min_size=k * r, max_size=k * r))
    P = np.array(entries, dtype=np.complex128).reshape(k, r)
    start = None
    if draw(st.booleans()):
        # any double: the first sum rounds it
        start = np.array([complex(draw(st.floats(width=64)), draw(st.floats(width=64)))
                          for _ in range(r)])
    return fmt, P, start


class TestFlSum:
    @settings(max_examples=400, deadline=None)
    @given(sum_cases())
    def test_equals_a_loop_of_fl_add(self, case):
        fmt, P, start = case
        ctx = PrecisionContext(parse_format(fmt))
        counter = FlopCounter()
        with np.errstate(all="ignore"):
            got = fl_sum(P, PrecisionContext(ctx.format, counter), start=start)
            acc = np.zeros(P.shape[1], dtype=np.complex128) if start is None else start
            for p in P:
                acc = np.asarray(fl_add(acc, p, ctx))
        assert same(got, acc), (got, acc)
        assert counter.total() == P.size

    def test_overflow_in_the_middle_of_the_chain(self):
        for fmt in FORMATS:
            f = parse_format(fmt)
            P = np.array([f.max_finite, f.max_finite, -f.max_finite, 1.0], dtype=np.complex128)
            with np.errstate(over="ignore"):
                got = complex(fl_sum(P, PrecisionContext(f)))
            assert got == complex(math.inf, 0.0), fmt

    def test_default_start_is_positive_zero(self):
        for fmt in FORMATS:
            got = complex(fl_sum(np.array([complex(-0.0, -0.0)]), PrecisionContext(parse_format(fmt))))
            assert same(got, 0j), fmt

    def test_empty_returns_start_unrounded(self):
        start = np.array([0.1 + 0.2j])
        got = fl_sum(np.zeros((0, 1)), PrecisionContext(parse_format("bfloat16")), start=start)
        assert same(got, start)

    def test_binary32_nan_payload_is_kept(self):
        ctx = PrecisionContext(parse_format("binary32"))
        payload = np.array([0x7FF0000000000123], dtype=np.uint64).view(np.float64)[0]
        P = np.array([1.0, complex(payload, 0.0), 2.0])
        got = fl_sum(P, ctx)
        ref = fl_add(fl_add(fl_add(0, P[0], ctx), P[1], ctx), P[2], ctx)
        assert same(got, ref)


# ---------------------------------------------------------------------------
# vector division


@st.composite
def division_cases(draw):
    fmt = draw(st.sampled_from(FORMATS))
    n = draw(st.integers(1, 6))
    # numerators may be any double (the first wave divides a raw C)
    a = [complex(draw(st.floats(width=64)), draw(st.floats(width=64)))
         if draw(st.booleans()) else draw(complex_values(fmt)) for _ in range(n)]
    b = []
    for _ in range(n):
        kind = draw(st.sampled_from(("any", "equal", "real", "imag")))
        br, bi = draw(values(fmt)), draw(values(fmt))
        if kind == "equal":  # |Re b| == |Im b|: the unswapped branch
            bi = math.copysign(br, bi)
        elif kind == "real":
            bi = draw(st.sampled_from((0.0, -0.0)))
        elif kind == "imag":
            br = draw(st.sampled_from((0.0, -0.0)))
        if br == 0 and bi == 0:
            br = 1.0
        b.append(complex(br, bi))
    return fmt, np.array(a), np.array(b)


class TestQuotient:
    @settings(max_examples=400, deadline=None)
    @given(division_cases())
    def test_matches_the_scalar_division(self, case):
        fmt, a, b = case
        f = parse_format(fmt)
        got = _quotient(a, b, f)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if f.is_binary64:  # CPython's complex division
                ref = [complex(x) / complex(y) for x, y in zip(a, b)]
            else:
                ref = [_sdiv(complex(x), complex(y), f) for x, y in zip(a, b)]
        # NaNs only end a recurrence, so only where they appear is pinned
        assert same(got, np.array(ref), nan_payload=False), (a, b, got, ref)

    def test_swapped_branch_zero_sign_follows_cpython(self):
        # (1+2j)/(1+2j) in the swapped branch: Im a * t == Re a exactly.
        # CPython forms the imaginary part as (0.0) / d = +0, the rounded
        # steps as -((0.0) / d) = -0
        a = b = np.array([1 + 2j])
        got = _quotient(a, b, parse_format("binary64"))[0]
        assert same(got, (1 + 2j) / (1 + 2j)) and same(got, 1 + 0j)
        f = parse_format("bfloat16")
        got = _quotient(a, b, f)[0]
        assert same(got, _sdiv(1 + 2j, 1 + 2j, f)) and same(got, complex(1.0, -0.0))


# ---------------------------------------------------------------------------
# wavefront triangular solve


def column_order_solve(T_A, T_B, C, ctx):
    """The column-by-column back substitution the wavefront reorders."""
    lower = T_B.shape[0] > 1 and not np.triu(T_B, 1).any() and np.tril(T_B, -1).any()
    W = np.array(C, dtype=np.complex128)
    m, n = W.shape
    fmt = ctx.format
    Y = np.zeros((m, n), dtype=np.complex128)
    for j in (range(n - 1, -1, -1) if lower else range(n)):
        shift = complex(T_B[j, j])
        col = W[:, j].copy()
        y = np.zeros(m, dtype=np.complex128)
        for i in range(m - 1, -1, -1):
            ctx.count(2)
            d = _sadd(complex(T_A[i, i]), shift, fmt)
            if d == 0:
                raise SingularEquationError(i, j)
            y[i] = _sdiv(complex(col[i]), d, fmt)
            if i > 0:
                col[:i] = fl_sub(col[:i], fl_mul(T_A[:i, i], y[i], ctx), ctx)
        if not np.isfinite(y).all():
            raise NumericBreakdownError(f"non-finite values while solving column {j}")
        Y[:, j] = y
        if not lower and j + 1 < n:
            W[:, j + 1:] = fl_sub(W[:, j + 1:], fl_mul(y[:, None], T_B[j:j + 1, j + 1:], ctx), ctx)
        elif lower and j > 0:
            W[:, :j] = fl_sub(W[:, :j], fl_mul(y[:, None], T_B[j:j + 1, :j], ctx), ctx)
    return Y


def _outcome(solve, T_A, T_B, C, fmt):
    counter = FlopCounter()
    ctx = PrecisionContext(parse_format(fmt), counter, "low")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            out = bits(solve(T_A, T_B, C, ctx)).tobytes()
        except SingularEquationError as exc:
            out = ("singular", exc.row, exc.col)
        except NumericBreakdownError as exc:
            out = ("breakdown", str(exc))
    return out, counter.get("low")


@st.composite
def triangular_cases(draw):
    fmt = draw(st.sampled_from(FORMATS))
    f = parse_format(fmt)
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = draw(st.sampled_from((1.0, 1e3, f.max_finite / 8)))
    cm = lambda r, c: rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    T_A = np.triu(cm(m, m)) + draw(st.sampled_from((0.0, 2.0))) * np.eye(m)
    T_B = np.triu(cm(n, n)) + draw(st.sampled_from((0.0, 2.0))) * np.eye(n)
    C = scale * cm(m, n)
    if draw(st.booleans()):  # a singular pair
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        T_A[i, i], T_B[j, j] = 1.25, -1.25
    for M in (T_A, C):  # a few special entries
        for _ in range(draw(st.integers(0, 2))):
            r, c = draw(st.integers(0, M.shape[0] - 1)), draw(st.integers(0, M.shape[1] - 1))
            if M is T_A and c < r:
                continue
            M[r, c] = draw(complex_values(fmt))
    if draw(st.booleans()):
        T_B = T_B.T.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = lambda M: np.array([[complex(round_to(z.real, f), round_to(z.imag, f))
                                 for z in row] for row in M])
        T_A, T_B = r(T_A), r(T_B)
        if draw(st.booleans()):
            C = r(C)
    return fmt, T_A, T_B, C


class TestWavefront:
    @settings(max_examples=300, deadline=None)
    @given(triangular_cases())
    def test_matches_column_order(self, case):
        fmt, T_A, T_B, C = case
        assert _outcome(solve_sylv_tri, T_A, T_B, C, fmt) \
            == _outcome(column_order_solve, T_A, T_B, C, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_every_failure_position(self, fmt):
        # a singular pair at each position in turn, upper and lower T_B
        rng = np.random.default_rng(3)
        for lower in (False, True):
            for i in range(3):
                for j in range(4):
                    T_A = np.triu(rng.standard_normal((3, 3))) + 2 * np.eye(3)
                    T_B = np.triu(rng.standard_normal((4, 4))) + 2 * np.eye(4)
                    T_A[i, i], T_B[j, j] = 0.5, -0.5
                    if lower:
                        T_B = T_B.T.copy()
                    C = rng.standard_normal((3, 4))
                    assert _outcome(solve_sylv_tri, T_A, T_B, C, fmt) \
                        == _outcome(column_order_solve, T_A, T_B, C, fmt)


# ---------------------------------------------------------------------------
# the wavefront at the benchmark's shapes, and the path it takes


def benchmark_case(m, lower, fmt, rounded, scale=1.0, seed=0):
    """A well-conditioned m x m triangular equation with coefficients in
    fmt; C is rounded into fmt or left as raw doubles."""
    f = parse_format(fmt)
    rng = np.random.default_rng(seed)
    cm = lambda r, c: rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    T_A = np.triu(cm(m, m)) + 3 * np.eye(m)
    T_B = np.triu(cm(m, m)) + 3 * np.eye(m)
    if lower:
        T_B = T_B.T.copy()
    C = scale * cm(m, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return (round_matrix(T_A, f), round_matrix(T_B, f),
                round_matrix(C, f) if rounded else C)


class TestWavefrontShapes:
    @pytest.mark.parametrize("rounded", [True, False], ids=["C-rounded", "C-raw"])
    @pytest.mark.parametrize("fmt", ["binary32", "binary64", "bfloat16"])
    @pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
    @pytest.mark.parametrize("m", [10, 12, 24])
    def test_matches_column_order(self, m, lower, fmt, rounded):
        T_A, T_B, C = benchmark_case(m, lower, fmt, rounded)
        got = _outcome(solve_sylv_tri, T_A, T_B, C, fmt)
        assert isinstance(got[0], bytes)  # the solve succeeds
        assert got == _outcome(column_order_solve, T_A, T_B, C, fmt)

    @pytest.mark.parametrize("fmt", ["binary32", "binary64", "bfloat16"])
    @pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
    def test_overflow_breaks_down_where_column_order_does(self, lower, fmt):
        # C near the top of the range: a product overflows within the first columns
        T_A, T_B, C = benchmark_case(12, lower, fmt, True,
                                     scale=parse_format(fmt).max_finite / 4)
        got = _outcome(solve_sylv_tri, T_A, T_B, C, fmt)
        assert got[0][0] == "breakdown"
        assert got == _outcome(column_order_solve, T_A, T_B, C, fmt)


class TestSolvePath:
    """binary32 and binary64 solves on values of the format run natively,
    with no call into the software rounding; others take fl_mul/fl_sum."""

    SOFTWARE = ("_round_real_array", "fl_mul", "fl_sum", "_quotient")

    @pytest.fixture
    def calls(self, monkeypatch):
        import mpsylv.precision as precision
        import mpsylv.sylvester as sylvester
        seen = []
        for module in (precision, sylvester):
            for name in self.SOFTWARE:
                if hasattr(module, name):
                    def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
                        seen.append(_name)
                        return _f(*args, **kwargs)
                    monkeypatch.setattr(module, name, spy)
        return seen

    @pytest.mark.parametrize("fmt", ["binary32", "binary64"])
    def test_format_values_take_the_native_path(self, calls, fmt):
        T_A, T_B, C = benchmark_case(10, False, fmt, True)
        calls.clear()  # rounding the case made calls of its own
        solve_sylv_tri(T_A, T_B, C, PrecisionContext(parse_format(fmt)))
        assert calls == []

    def test_raw_c_takes_the_software_path(self, calls):
        T_A, T_B, C = benchmark_case(10, True, "binary32", False)
        got = _outcome(solve_sylv_tri, T_A, T_B, C, "binary32")
        assert {"fl_mul", "fl_sum"} <= set(calls)
        assert got == _outcome(column_order_solve, T_A, T_B, C, "binary32")

    def test_nan_operand_takes_the_software_path(self, calls):
        T_A, T_B, C = benchmark_case(10, False, "binary32", True)
        T_A[2, 7] = complex(math.nan, 0.0)
        got = _outcome(solve_sylv_tri, T_A, T_B, C, "binary32")
        assert "fl_mul" in calls and got[0][0] == "breakdown"
        assert got == _outcome(column_order_solve, T_A, T_B, C, "binary32")
