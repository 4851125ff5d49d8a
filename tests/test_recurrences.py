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
    fl_div,
    fl_mul,
    fl_sub,
    fl_sum,
    parse_format,
    round_matrix,
    round_to,
    _quotient,
    _sadd,
    _sdiv,
    _smith_denominator,
    _smith_planes,
)
import mpsylv.gmresir as gmresir
import mpsylv.refinement as refinement
import mpsylv.sylvester as sylvester
from mpsylv.sylvester import solve_sylv_tri

from conftest import CANONICAL_NAN, canonical, nan_parts

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
            # with no step the chain is start, whose NaN parts fl_sum
            # returns canonical as every fl_* result
            acc = np.zeros(P.shape[1], dtype=np.complex128) if start is None else canonical(start)
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

    def test_empty_with_a_nan_start_returns_it_canonical(self):
        payload = np.array([0xFFF0000000000123], dtype=np.uint64).view(np.float64)[0]
        start = np.array([complex(0.0, payload)])
        got = fl_sum(np.zeros((0, 1)), PrecisionContext(parse_format("bfloat16")), start=start)
        assert same(got, canonical(start))
        assert nan_parts(got) == [CANONICAL_NAN]

    def test_binary32_nan_is_canonical(self):
        """A NaN operand of any payload sums, as the fl_add chain does, to
        the canonical NaN."""
        ctx = PrecisionContext(parse_format("binary32"))
        payload = np.array([0x7FF0000000000123], dtype=np.uint64).view(np.float64)[0]
        P = np.array([1.0, complex(payload, 0.0), 2.0])
        got = fl_sum(P, ctx)
        ref = fl_add(fl_add(fl_add(0, P[0], ctx), P[1], ctx), P[2], ctx)
        assert same(got, ref)
        assert nan_parts(got) == [CANONICAL_NAN]


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
        b.append(complex(br, bi))
    return fmt, np.array(a), np.array(b)


def _cpython_div(x, y):
    """x / y, and numpy's complex128 division where CPython's raises on a
    zero divisor, as `_sdiv` falls back to."""
    try:
        return x / y
    except ZeroDivisionError:
        return complex(np.complex128(x) / np.complex128(y))


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
                ref = [_cpython_div(complex(x), complex(y)) for x, y in zip(a, b)]
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

    @pytest.mark.parametrize("fmt", ["binary64", "binary32", "binary16", "bfloat16"])
    def test_zero_divisor_agrees_across_formats(self, fmt):
        # numpy's complex128 division in every format, silently
        ctx = PrecisionContext(parse_format(fmt))
        assert same(fl_div(1 + 1j, 0, ctx), complex(math.inf, math.inf))
        a, b = np.array([1 + 1j, -2.0, 0j, 2.0]), np.array([0j, complex(0.0, -0.0), 0j, 1 + 1j])
        with np.errstate(all="ignore"):
            want = a / b
        assert same(fl_div(a, b, ctx), want, nan_payload=False)


class TestSmithPlanes:
    """`_smith_planes`, the Smith step of a triangular wave where no step
    rounds, on the planes of a contiguous numerator: `_quotient`'s bits,
    NaN payloads included, for complex128 divisors in binary64 and
    complex64 divisors in binary32 (a wave never divides by zero)."""

    CASES = (("binary64", np.complex128, np.uint64), ("binary32", np.complex64, np.uint32))

    @staticmethod
    def _both(a, b, fmt):
        out = np.full_like(a, complex(math.nan, math.nan))
        with np.errstate(all="ignore"):
            _smith_planes(a, _smith_denominator(b, fmt), out)
            return out, _quotient(a, b, fmt)

    @pytest.mark.parametrize("fmt, dtype, uint", CASES)
    def test_swap_branch_signed_zeros_and_specials(self, fmt, dtype, uint):
        inf, nan = math.inf, math.nan
        payload = np.array([0x7FF0000000000123], dtype=np.uint64).view(np.float64)[0]
        a = np.array([1 + 2j, 1 + 2j, complex(-0.0, 0.0), complex(0.0, -0.0),
                      complex(-0.0, -0.0), complex(inf, 1.0), complex(1.0, -inf),
                      complex(nan, 2.0), complex(3.0, -nan), complex(payload, 1.0),
                      complex(inf, nan), 5 - 1j], dtype=dtype)
        b = np.array([3 + 1j, 1 + 2j, 1 + 3j, complex(-0.0, 2.0), complex(2.0, -0.0),
                      1 + 2j, 4 + 1j, complex(0.5, -3.0), 2 - 1j, 1 + 1j, 3 + 3j,
                      complex(-1.0, -4.0)], dtype=dtype)
        assert (np.abs(b.real) < np.abs(b.imag)).sum() == 6  # the swapped branch
        got, want = self._both(a, b, parse_format(fmt))
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got.view(uint), want.view(uint)), (got, want)

    @settings(max_examples=300, deadline=None)
    @given(division_cases())
    def test_matches_the_quotient(self, case):
        fmt, a, b = case
        for name, dtype, uint in self.CASES:
            with np.errstate(over="ignore"):
                a_, b_ = a.astype(dtype), b.astype(dtype)
            b_[b_ == 0] = 1
            got, want = self._both(a_, b_, parse_format(name))
            assert np.array_equal(got.view(uint), want.view(uint)), (name, a_, b_, got, want)


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


def _result(solve, *args):
    """The bits of solve(*args), or its error class and position."""
    try:
        return bits(solve(*args)).tobytes()
    except SingularEquationError as exc:
        return ("singular", exc.row, exc.col)
    except NumericBreakdownError as exc:
        return ("breakdown", str(exc))


def _outcome(solve, T_A, T_B, C, fmt):
    counter = FlopCounter()
    ctx = PrecisionContext(parse_format(fmt), counter, "low")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = _result(solve, T_A, T_B, C, ctx)
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
    def test_overflow_breaks_down_where_column_order_does(self, lower, fmt, monkeypatch):
        # C near the top of the range: a product overflows within the first columns
        T_A, T_B, C = benchmark_case(12, lower, fmt, True,
                                     scale=parse_format(fmt).max_finite / 4)
        runs = []  # the dtype of each run of the wave kernel
        resident = sylvester._resident

        def spy(kernel, ctx, *arrays):
            def recorded(buf, c, ctx):
                runs.append(buf.dtype)
                return kernel(buf, c, ctx=ctx)
            return resident(recorded, ctx, *arrays)

        monkeypatch.setattr(sylvester, "_resident", spy)
        got = _outcome(solve_sylv_tri, T_A, T_B, C, fmt)
        assert got[0][0] == "breakdown"
        # binary32 raises from its complex64 run, with no software rerun
        assert runs == [np.complex64 if fmt == "binary32" else np.complex128]
        assert got == _outcome(column_order_solve, T_A, T_B, C, fmt)


class TestSolvePath:
    """binary32 and binary64 solves on values of the format run natively,
    with no call into the software rounding; others take the software
    products and sums."""

    SOFTWARE = ("_mul_parts", "_rounded_sum", "_round_real_array", "_quotient")

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
        assert {"_mul_parts", "_rounded_sum"} <= set(calls)
        assert got == _outcome(column_order_solve, T_A, T_B, C, "binary32")

    def test_nan_operand_takes_the_software_path(self, calls):
        T_A, T_B, C = benchmark_case(10, False, "binary32", True)
        T_A[2, 7] = complex(math.nan, 0.0)
        got = _outcome(solve_sylv_tri, T_A, T_B, C, "binary32")
        assert "_mul_parts" in calls and got[0][0] == "breakdown"
        assert got == _outcome(column_order_solve, T_A, T_B, C, "binary32")


# ---------------------------------------------------------------------------
# one prepared pair over many right-hand sides


def _reused_outcomes(T_A, T_B, Cs, fmt):
    """`_outcome` of each C in turn, all solved by one `_prepare_sylv_tri`
    pair, with the flops each solve charged."""
    counter = FlopCounter()
    ctx = PrecisionContext(parse_format(fmt), counter, "low")
    outs = []
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solve = sylvester._prepare_sylv_tri(T_A, T_B, ctx)
        for C in Cs:
            before = counter.get("low")
            outs.append((_result(solve, C), counter.get("low") - before))
    return outs


def _sequence(fmt, lower, singular, seed=7, m=4, n=3):
    """A triangular pair and 52 right-hand sides: C[20] overflows within the
    solve, C[33] holds an infinity and C[40] is not rounded into fmt (the
    software path in binary32); the rest are ordinary."""
    f = parse_format(fmt)
    rng = np.random.default_rng(seed)
    cm = lambda r, c: rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    T_A = np.triu(cm(m, m)) + 2 * np.eye(m)
    T_B = np.triu(cm(n, n)) + 2 * np.eye(n)
    if singular:
        T_A[1, 1], T_B[2, 2] = 1.25, -1.25
    if lower:
        T_B = T_B.T.copy()
    Cs = [cm(m, n) for _ in range(52)]
    Cs[33][1, 0] = math.inf
    with np.errstate(over="ignore"), warnings.catch_warnings():
        Cs[20] *= f.max_finite / 2
        warnings.simplefilter("ignore")
        Cs = [C if k == 40 else round_matrix(C, f) for k, C in enumerate(Cs)]
        return round_matrix(T_A, f), round_matrix(T_B, f), Cs


class TestPreparedPair:
    """A pair prepared once gives every solve the bits, the flops and the
    error of a one-shot `solve_sylv_tri` and of the column-by-column
    recurrence, whatever solves came before it (a breakdown included)."""

    def _check(self, T_A, T_B, Cs, fmt, singular):
        reused = _reused_outcomes(T_A, T_B, Cs, fmt)
        for C, got in zip(Cs, reused):
            assert got == _outcome(solve_sylv_tri, T_A, T_B, C, fmt)
            wide = [np.asarray(M, dtype=np.complex128) for M in (T_A, T_B, C)]
            assert got == _outcome(column_order_solve, *wide, fmt)
        kinds = [out if isinstance(out, bytes) else out[0] for out, _ in reused]
        if singular:  # an overflow may break down before the singular column
            assert set(kinds) <= {"singular", "breakdown"} and kinds[0] == "singular"
        else:
            assert kinds[20] == kinds[33] == "breakdown"
            assert all(isinstance(k, bytes) for k in kinds[21:33] + kinds[34:])

    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    @pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_matches_one_shot_and_column_order(self, fmt, lower, singular):
        self._check(*_sequence(fmt, lower, singular), fmt, singular)

    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    @pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
    def test_complex64_in_kernel(self, lower, singular):
        # complex64 operands in binary32: the steps of a GMRES correction
        T_A, T_B, Cs = _sequence("binary32", lower, singular)
        with np.errstate(over="ignore"):
            T_A, T_B, *Cs = (M.astype(np.complex64) for M in [T_A, T_B] + Cs)
        self._check(T_A, T_B, Cs, "binary32", singular)


class TestInterleavedPairs:
    """Two pairs of one shape and dtype, prepared at once and solved in
    turn: every solve has the bytes of a one-shot `solve_sylv_tri` and of
    the column-by-column recurrence, so no working or wave buffer is
    shared through `_wave_plan`'s cache (a buffer shared by shape would
    give the one-shot solves the same wrong bytes)."""

    @pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
    @pytest.mark.parametrize("fmt", ["binary32-in-kernel", "binary64"])
    def test_each_solve_matches_one_shot(self, fmt, lower):
        name = fmt.split("-")[0]
        ctx = PrecisionContext(parse_format(name))
        pairs = [_sequence(name, lower, False, seed=seed) for seed in (7, 8)]
        if fmt == "binary32-in-kernel":  # the steps of a GMRES correction
            with np.errstate(over="ignore"):
                pairs = [[M.astype(np.complex64) for M in (T_A, T_B)]
                         + [[C.astype(np.complex64) for C in Cs]] for T_A, T_B, Cs in pairs]
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solves = [sylvester._prepare_sylv_tri(T_A, T_B, ctx) for T_A, T_B, _ in pairs]
            for k in range(12):
                for (T_A, T_B, Cs), solve in zip(pairs, solves):
                    got = _result(solve, Cs[k])
                    assert isinstance(got, bytes)
                    assert got == _result(solve_sylv_tri, T_A, T_B, Cs[k], ctx)
                    wide = [np.asarray(M, dtype=np.complex128) for M in (T_A, T_B, Cs[k])]
                    assert got == _result(column_order_solve, *wide, ctx)


class TestPreparedPairCallers:
    """GMRES-IR prepares one pair per correction and the stationary
    refinement one per call; with a pair prepared afresh for every solve,
    as one-shot solves do, both give the same results and charge the same
    buckets."""

    @staticmethod
    def _run(solver, p, fmt):
        from mpsylv.gmresir import GmresConfig, gmres_ir_sylv
        from mpsylv.refinement import RefinementConfig, mp_inv, mp_orth
        u_l = parse_format(fmt)
        cfg = RefinementConfig(u_l, parse_format("binary64"), max_iter=6)
        counter = FlopCounter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if solver == "gmres":
                rep = gmres_ir_sylv(p, GmresConfig(u_g=u_l, restart=4), cfg, counter)
                iters = (rep.outer_iterations, rep.inner_iterations)
            else:
                rep = (mp_orth if solver == "orth" else mp_inv)(p, cfg, counter)
                iters = rep.iterations
        return bits(rep.X).tobytes(), iters, rep.failure, dict(counter.counts)

    @staticmethod
    def _problem(singular):
        from mpsylv.sylvester import SylvesterProblem
        rng = np.random.default_rng(11)
        cm = lambda r, c: rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        A, B = cm(5, 5) + 3 * np.eye(5), cm(4, 4) + 3 * np.eye(4)
        if singular:  # lambda(A) meets -lambda(B): every triangular solve raises
            A, B = np.triu(A), np.triu(B)
            A[0, 0], B[0, 0] = 1.0, -1.0
        return SylvesterProblem(A, B, cm(5, 4))

    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    @pytest.mark.parametrize("fmt", ["binary32", "binary16", "binary64"])
    @pytest.mark.parametrize("solver", ["gmres", "orth", "inv"])
    def test_same_results_and_buckets(self, solver, fmt, singular, monkeypatch):
        p = self._problem(singular)
        kept = self._run(solver, p, fmt)
        prepare, calls = sylvester._prepare_sylv_tri, []

        def fresh(module):
            def prepare_afresh(T_A, T_B, ctx):
                calls.append(module)
                return lambda C: prepare(T_A, T_B, ctx)(C)
            return prepare_afresh

        for module in (sylvester, refinement, gmresir):
            monkeypatch.setattr(module, "_prepare_sylv_tri", fresh(module))
        assert kept == self._run(solver, p, fmt)
        assert singular == (kept[2] is not None)
        # the kept pair of the correction (GMRES) or the call (stationary) was replaced
        assert singular or (gmresir if solver == "gmres" else refinement) in calls
