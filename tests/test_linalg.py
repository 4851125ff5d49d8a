import math
from fractions import Fraction

import numpy as np
import pytest

from mpsylv.errors import (
    DimensionError,
    FormatOverflowError,
    IterationLimitError,
    MpsylvError,
    NonFiniteInputError,
    NotHermitianError,
    NumericBreakdownError,
    RankDeficiencyError,
    SingularMatrixError,
)
import mpsylv.linalg as linalg
import mpsylv.precision as precision
import mpsylv.sylvester as sylvester
from mpsylv.linalg import (
    _givens,
    _make_reflector,
    _mgs_project,
    _rotation,
    _vec_norm2_ctx,
    cond_inf,
    gemm,
    hermitian_eig,
    householder_qr,
    kron_matrix,
    lu,
    lu_solve,
    mgs_qr,
    norm,
    schur,
    sep_f,
    sylvester_kron_operator,
    unvec,
    vec,
)
from mpsylv.precision import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    TF32,
    B24,
    FlopCounter,
    PrecisionContext,
    _compose,
    _mul_parts,
    _rounded_sum,
    _sabs,
    fl_add,
    fl_mul,
    parse_format,
    round_complex,
    round_matrix,
    round_to,
)

from conftest import CANONICAL_NAN, canonical, cmat, hermitian, nan_parts
from test_precision import _soft_product, _soft_sum

CTX = PrecisionContext(BINARY64)
LOW_FORMATS = [BFLOAT16, BINARY16, TF32, B24, BINARY32]


class TestGemm:
    def test_identity(self, rng):
        M = cmat(rng, 3, 4)
        out = gemm(1.0, np.eye(3), M, 0.0, None, CTX)
        assert np.allclose(out, M, rtol=0, atol=0)

    def test_integer_exact(self):
        A = np.array([[1, 2], [3, 4]], dtype=complex)
        B = np.array([[5], [6]], dtype=complex)
        out = gemm(1.0, A, B, 0.0, None, CTX)
        assert (out == np.array([[17], [39]])).all()

    def test_tenths_against_rational_oracle(self):
        # 2x2 matrices of 0.1 entries, one rounded accumulation step
        A = np.full((2, 2), 0.1, dtype=complex)
        got = gemm(1.0, A, A, 0.0, None, CTX)
        tenth = Fraction(0.1)
        exact = float(2 * tenth * tenth)
        u = BINARY64.unit_roundoff
        assert abs(got[0, 0].real - exact) <= 4 * u * exact

    def test_alpha_beta(self, rng):
        A, B, C = cmat(rng, 4, 3), cmat(rng, 3, 5), cmat(rng, 4, 5)
        out = gemm(2.0 + 1j, A, B, -0.5, C, CTX)
        assert np.allclose(out, (2 + 1j) * A @ B - 0.5 * C, atol=1e-13)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            gemm(1.0, cmat(rng, 2, 3), cmat(rng, 2, 3), 0.0, None, CTX)

    def test_deterministic_in_low_precision(self, rng):
        A, B = cmat(rng, 6, 6), cmat(rng, 6, 6)
        ctx = PrecisionContext(TF32)
        one = gemm(1.0, A, B, 0.0, None, ctx)
        two = gemm(1.0, A, B, 0.0, None, ctx)
        assert (one == two).all()


class TestNorm:
    def test_frobenius_identity(self):
        assert norm(np.eye(3), "frobenius") == pytest.approx(np.sqrt(3), rel=1e-15)

    def test_frobenius_of_complex64_is_binary64(self):
        g = np.random.default_rng(1)
        v = (g.standard_normal(100) + 1j * g.standard_normal(100)).astype(np.complex64)
        assert linalg._frobenius(v) == np.linalg.norm(v.astype(np.complex128))
        assert linalg._frobenius(v.real) == np.linalg.norm(v.real.astype(np.float64))

    def test_inf_row_sums(self):
        assert norm(np.array([[1, -2], [3, -4]]), "inf") == 7.0

    def test_one_col_sums(self):
        assert norm(np.array([[1, -2], [3, -4]]), "one") == 6.0

    def test_two_diagonal(self):
        assert norm(np.diag([1.0, 5.0, 2.0]), "two") == pytest.approx(5.0, rel=1e-8)

    def test_two_vs_svd(self, rng):
        M = cmat(rng, 7, 5)
        assert norm(M, "two") == pytest.approx(np.linalg.svd(M, compute_uv=False)[0],
                                               rel=1e-8)

    def test_two_clustered_largest_values(self, rng):
        # a power iteration on M*M stops short of ||M||_2 when the two
        # largest singular values nearly coincide
        Q = np.linalg.qr(cmat(rng, 6, 6))[0]
        for M in (np.diag([2.0, 2.0 - 2e-7, 1.0]),
                  Q @ np.diag([5.0, 5.0 * (1 - 1e-6), 3.0, 2.0, 1.0, 0.5]) @ Q.conj().T):
            assert norm(M, "two") == pytest.approx(np.linalg.svd(M, compute_uv=False)[0],
                                                   rel=1e-12)

    def test_two_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            norm(np.array([[1.0, np.nan], [0.0, 1.0]]), "two")

    def test_zero_iff_zero(self):
        assert norm(np.zeros((3, 3)), "two") == 0.0
        assert norm(np.zeros((3, 3)), "frobenius") == 0.0

    def test_frobenius_below_the_squares_range(self):
        # squares below 2^-1022 lose bits, and below 2^-1074 vanish
        x = np.random.default_rng(0).standard_normal((4, 4))[:, 0]
        assert linalg._frobenius(x * 1e-165) == pytest.approx(2.4907e-165, rel=1e-4)
        assert linalg._frobenius(x * 1e-165) == pytest.approx(
            linalg._frobenius(x) * 1e-165, rel=1e-15)
        assert linalg._frobenius(x * 2.0 ** -1060) == math.ldexp(linalg._frobenius(x), -1060)
        assert linalg._frobenius(np.array([5e-324, 0.0])) == 5e-324


class TestQr:
    @pytest.mark.parametrize("qr", [mgs_qr, householder_qr])
    def test_identity(self, qr):
        f = qr(np.eye(4), CTX)
        assert np.allclose(f.Q, np.eye(4)) and np.allclose(f.R, np.eye(4))

    @pytest.mark.parametrize("qr", [mgs_qr, householder_qr])
    def test_scaled_identity_positive_diag(self, qr):
        f = qr(2 * np.eye(3), CTX)
        assert np.allclose(f.Q, np.eye(3)) and np.allclose(f.R, 2 * np.eye(3))

    @pytest.mark.parametrize("qr", [mgs_qr, householder_qr])
    def test_perturbed_unitary_vs_reorthonormalization_oracle(self, qr, rng):
        U, _ = np.linalg.qr(cmat(rng, 5, 5))
        A = U + 1e-8 * cmat(rng, 5, 5)
        f = qr(A, CTX)
        Qo, Ro = np.linalg.qr(A)
        d = np.diag(Ro) / np.abs(np.diag(Ro))
        Qo = Qo * d[None, :]
        assert np.abs(f.Q - Qo).max() < 1e-6

    @pytest.mark.parametrize("qr", [mgs_qr, householder_qr])
    def test_invariants_random(self, qr, rng):
        for n in (2, 5, 9):
            A = cmat(rng, n, n)
            f = qr(A, CTX)
            u = BINARY64.unit_roundoff
            assert np.diag(f.R).real.min() > 0
            assert (np.diag(f.R).imag == 0).all()
            assert norm(f.Q.conj().T @ f.Q - np.eye(n), "two") <= 100 * n * u
            assert np.abs(f.Q @ f.R - A).max() <= 100 * n * u * np.abs(A).max()

    @pytest.mark.parametrize("qr", [mgs_qr, householder_qr])
    def test_rank_deficiency(self, qr, rng):
        A = cmat(rng, 4, 2)
        A = np.hstack([A, A[:, :1]])  # exactly dependent column
        with pytest.raises(RankDeficiencyError):
            qr(A, CTX)

    @pytest.mark.parametrize("k", [548, 1000])
    def test_householder_below_the_squares_range(self, k):
        # w*w underflows: the reflector is formed from the column scaled up
        A = np.random.default_rng(0).standard_normal((4, 4))
        ref, f = householder_qr(A, CTX), householder_qr(A * 2.0 ** -k, CTX)
        assert (_bits(f.Q) == _bits(ref.Q)).all()
        assert (f.R == ref.R * 2.0 ** -k).all()

    @pytest.mark.parametrize("qr", [mgs_qr, householder_qr])
    def test_full_rank_past_the_squares_range(self, qr, recwarn):
        # ||A||_F squares past overflow: the rank test must not read it as inf
        f = qr(np.array([[1.0, 2.0], [3.0, 5.0]]) * 1e200, CTX)
        assert np.diag(f.R).real == pytest.approx([math.sqrt(10) * 1e200,
                                                   math.sqrt(10) * 1e199], rel=1e-14)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestLu:
    def test_identity_roundtrip(self, rng):
        B = cmat(rng, 4, 2)
        assert np.allclose(lu_solve(lu(np.eye(4), CTX), B, ctx=CTX), B)

    def test_diagonal(self):
        F = lu(np.diag([2.0, 4.0]), CTX)
        X = lu_solve(F, np.array([[2.0], [8.0]]), ctx=CTX)
        assert np.allclose(X.ravel(), [1.0, 2.0])

    def test_random_vs_dense_inverse_oracle(self, rng):
        M = cmat(rng, 6, 6)
        B = cmat(rng, 6, 3)
        X = lu_solve(lu(M, CTX), B, ctx=CTX)
        ref = np.linalg.inv(M) @ B
        assert np.linalg.norm(X - ref) / np.linalg.norm(ref) < 1e-12

    def test_all_sides_and_transposes(self, rng):
        M = cmat(rng, 5, 5)
        F = lu(M, CTX)
        B = cmat(rng, 5, 2)
        assert np.abs(M @ lu_solve(F, B, "left", "no", CTX) - B).max() < 1e-12
        assert np.abs(M.conj().T @ lu_solve(F, B, "left", "conj", CTX) - B).max() < 1e-12
        Bt = cmat(rng, 2, 5)
        assert np.abs(lu_solve(F, Bt, "right", "no", CTX) @ M - Bt).max() < 1e-12
        assert np.abs(lu_solve(F, Bt, "right", "conj", CTX) @ M.conj().T - Bt).max() < 1e-12

    def test_unit_lower_magnitudes(self, rng):
        F = lu(cmat(rng, 8, 8), CTX)
        L = np.tril(F.lu, -1)
        assert np.abs(L).max() <= 1.0 + 1e-15

    def test_residual_bound(self, rng):
        M = cmat(rng, 10, 10)
        F = lu(M, CTX)
        B = cmat(rng, 10, 10)
        X = lu_solve(F, B, ctx=CTX)
        u = BINARY64.unit_roundoff
        assert (np.linalg.norm(M @ X - B)
                <= 100 * 10 * u * np.linalg.norm(M) * np.linalg.norm(X))

    def test_exact_zero_pivot(self):
        with pytest.raises(SingularMatrixError):
            lu(np.zeros((2, 2)), CTX)


class TestSchur:
    def test_diagonal_input(self):
        sf = schur(np.diag([3.0, 1.0, 2.0]), CTX)
        assert sorted(np.diag(sf.T).real) == [1.0, 2.0, 3.0]
        # U is a permutation up to phases: |U| has a single 1 per row/column
        P = np.abs(sf.U)
        assert np.allclose(P @ P.T, np.eye(3), atol=1e-12)
        assert np.allclose(np.sort(P.ravel())[-3:], 1.0, atol=1e-12)

    @pytest.mark.parametrize("h11, z", [
        # abs() (libm hypot) puts |h21| exactly on u*(|h11| + |h22|), while
        # numpy's vectorized complex abs reads |h21| one ulp higher ...
        (abs(0.105 - 0.93j) * 2.0**53, 0.105 - 0.93j),
        # ... or |h11| one ulp lower
        (-0.455 - 0.992j, (-0.455 - 0.992j) * 2.0**-53),
    ])
    def test_deflation_threshold_uses_scalar_abs(self, h11, z):
        H = np.array([[h11, 1.0], [z, 0.0]])
        sf = schur(H, CTX)
        assert (sf.U == np.eye(2)).all() and (sf.T == np.triu(H)).all()

    def test_triangular_preserved(self, rng):
        T0 = np.triu(cmat(rng, 5, 5))
        sf = schur(T0, CTX)
        assert np.abs(np.diag(sf.T) - np.diag(T0)).max() < 1e-14

    def test_rotation_eigenvalues(self):
        sf = schur(np.array([[0.0, 1.0], [-1.0, 0.0]]), CTX)
        got = np.sort_complex(np.diag(sf.T))
        assert np.abs(got - np.array([-1j, 1j])).max() < 1e-14

    def test_strict_lower_exactly_zero(self, rng):
        sf = schur(cmat(rng, 12, 12), CTX)
        assert (np.tril(sf.T, -1) == 0).all()

    @pytest.mark.parametrize("fmt", [BFLOAT16, BINARY16, TF32, B24, BINARY32, BINARY64])
    def test_reconstruction_invariants_all_formats(self, fmt, rng):
        ctx = PrecisionContext(fmt)
        u = fmt.unit_roundoff
        for m in (6, 17, 50):
            A = rng.standard_normal((m, m)) + 0j
            sf = schur(A, ctx)
            nrmA = np.linalg.norm(A)
            assert np.linalg.norm(sf.U @ sf.T @ sf.U.conj().T - A) <= 100 * m * u * nrmA
            assert np.linalg.norm(sf.U.conj().T @ sf.U - np.eye(m)) <= 100 * m * u
            assert (np.tril(sf.T, -1) == 0).all()

    def test_spectrum_vs_numpy_oracle(self, rng):
        for m in (3, 6, 10):
            A = cmat(rng, m, m)
            sf = schur(A, CTX)
            mine = np.sort_complex(np.diag(sf.T))
            ref = np.sort_complex(np.linalg.eigvals(A))
            assert np.abs(mine - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())

    def test_companion_matrix_converges(self):
        # roots of z^3 = 1; exceptional shifts must break the symmetry cycle
        A = np.eye(3, k=-1) + 0j
        A[0, 2] = 1.0
        sf = schur(A, CTX)
        got = np.sort_complex(np.diag(sf.T))
        ref = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
        assert np.abs(got - ref).max() < 1e-10

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4 (scale-safe Schur): binary64 "
                       "schur of 1.5e308 times the cyclic permutation returns a "
                       "non-unitary U and T = 0 without an error")
    def test_cyclic_permutation_near_the_top_of_the_range(self):
        """The eigenvalues 1.5e308 exp(2 pi i k / 3) are representable.  The
        backward error is taken on A and T scaled by 2^-1023, exactly, so
        that nothing in the check overflows."""
        m, u = 3, BINARY64.unit_roundoff
        A = 1.5e308 * (np.eye(m, k=-1) + np.eye(m, k=m - 1))
        sf = schur(A, CTX)
        assert np.linalg.norm(sf.U.conj().T @ sf.U - np.eye(m)) <= 100 * m * u
        As, Ts = A * 2.0**-1023, sf.T * 2.0**-1023
        assert np.linalg.norm(sf.U @ Ts @ sf.U.conj().T - As) <= 100 * m * u * np.linalg.norm(As)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _soft_rotate(P, Q, c, s1, s2):
    """The rotation's products and sums composed from the software path."""
    a = np.array([[c], [s1], [c], [s2]], dtype=np.complex128)
    a, b = np.broadcast_arrays(a, np.array([P, Q, Q, P]))
    prods = _compose(*_mul_parts(a.real, a.imag, b.real, b.imag, BINARY32))
    return _rounded_sum(prods[0::2], np.array([prods[1], -prods[3]]), BINARY32)


def _rotated(P, Q, c, s, i, fmt, dtype=np.complex128):
    """[P, Q] as one (2, n) array of dtype after fmt's `_rotation` body by c
    and s, in complex128: (s1, s2) = (s, conj(s)) for i = 0 (the rows of a
    step) and (conj(s), s) for i = 1 (its columns)."""
    X = np.array([P, Q], dtype=dtype)
    coefficients, rotate = _rotation(X.dtype, fmt)
    with np.errstate(over="ignore", invalid="ignore"):
        rotate(X, coefficients(c, s)[i])
    return X.astype(np.complex128)


def _part_bits_match(got, want):
    """Equal bits in every real and imaginary part that is not NaN in want,
    and NaN in the same parts; a complex64 NaN's payload is its own."""
    g, w = got.view(np.float64), want.view(np.float64)
    nan = np.isnan(w)
    bits_match = (g[~nan].view(np.uint64) == w[~nan].view(np.uint64)).all()
    return (np.isnan(g) == nan).all() and bits_match


class TestRotate:
    @pytest.mark.parametrize("case", ["binary32", "overflow", "nan", "off-format"])
    def test_binary32_matches_software_composition(self, case, rng):
        P, Q = round_matrix(cmat(rng, 2, 33, scale=1e3), BINARY32)
        c, s = _givens(complex(P[0]), complex(Q[0]), BINARY32)
        if case == "overflow":
            c, s = _givens(1 + 0j, 1 + 0j, BINARY32)
            P[1] = Q[1] = BINARY32.max_finite  # c P + s Q passes the top
        elif case == "nan":
            P[3] = complex(np.inf, 1.0)  # Im s * inf with Im s = 0
            c, s = _givens(1 + 0j, 1 + 0j, BINARY32)
        elif case == "off-format":
            Q[4] = 0.1
        ref = _soft_rotate(P, Q, c, s, np.conj(s))
        # complex128 takes the software steps, complex64 (binary32 values
        # only) the float32 planes, as in schur
        for dtype in [np.complex128] + ([np.complex64] if case != "off-format" else []):
            got = _rotated(P, Q, c, s, 0, BINARY32, dtype)
            if dtype is np.complex128:
                assert (got.view(np.uint64) == ref.view(np.uint64)).all()
            assert _part_bits_match(got, ref)
        assert np.isnan(ref).any() == (case == "nan")
        assert np.isfinite(ref).all() == (case in ("binary32", "off-format"))

    @pytest.mark.parametrize("fmt", [BINARY64, BFLOAT16], ids=lambda f: f.name)
    def test_matches_fl_mul_fl_add(self, fmt, rng):
        # binary64 also where products overflow or underflow
        for scale in [1e2, 1e300, 1e-300] * 10 if fmt == BINARY64 else [1e2] * 10:
            P, Q = round_matrix(cmat(rng, 2, 29, scale=scale), fmt)
            c, s = _givens(complex(P[0]), complex(Q[0]), fmt)
            ctx = PrecisionContext(fmt)
            for i, (s1, s2) in enumerate([(s, np.conj(s)), (np.conj(s), s)]):
                new = _rotated(P, Q, c, s, i, fmt)
                with np.errstate(over="ignore", invalid="ignore"):
                    prods = fl_mul(np.array([[c], [s1], [c], [s2]]), np.array([P, Q, Q, P]), ctx)
                    ref = fl_add(prods[0::2], np.array([prods[1], -prods[3]]), ctx)
                assert (_bits(new) == _bits(ref)).all()

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64, BFLOAT16], ids=lambda f: f.name)
    def test_strided_view_in_place(self, fmt, rng):
        # two strided columns of a stacked [U; H], as in schur, which keeps
        # it in complex64 in binary32
        n, p, q = 7, 1, 5
        VW = round_matrix(cmat(rng, 2 * n, n), fmt)
        c, s = _givens(complex(VW[0, p]), complex(VW[0, q]), fmt)
        if fmt == BINARY32:
            want = _soft_rotate(VW[:, p], VW[:, q], c, np.conj(s), s)
            VW = VW.astype(np.complex64)
        else:
            want = _rotated(VW[:, p], VW[:, q], c, s, 1, fmt)
        before = VW.copy()
        coefficients, rotate = _rotation(VW.dtype, fmt)
        with np.errstate(over="ignore", invalid="ignore"):
            rotate(VW[:, p:q + 1:q - p].T, coefficients(c, s)[1])
        for got, ref in ((VW[:, p], want[0]), (VW[:, q], want[1])):
            assert (_bits(got.astype(np.complex128)) == _bits(ref)).all()
        others = np.ones(n, dtype=bool)
        others[[p, q]] = False
        assert (_bits(VW[:, others]) == _bits(before[:, others])).all()


def _in_place_rotate(X, k):
    """The binary64 rotation body as four in-place steps, the oracle of
    `_rotation`'s."""
    B = k[1::2] * X[::-1]
    np.negative(B[1], out=B[1])
    X *= k[:1]
    X += B


def _nested_coefficients(c, s):
    """The complex128 coefficients [c, s, c, conj(s), c, s] from nested
    lists, of one step or, for tuples c and s, of two: the oracle of
    `_rotation`'s."""
    if isinstance(c, tuple):
        return np.array([c, s, c, [y.conjugate() for y in s], c, s],
                        dtype=np.complex128).reshape(6, -1, 1)
    return np.array([c, s, c, s.conjugate(), c, s], dtype=np.complex128).reshape(6, 1)


def _same_cut(K, nested):
    """Whether the binary64 coefficients K are the views (c, [s1, s2]) of
    the rows and the columns, [c, s, c, conj(s)] from 0 and from 2 of the
    nested ones, in bytes, all four on one buffer."""
    views = [v for rows_or_columns in K for v in rows_or_columns]
    want = [nested[0:1], nested[1:4:2], nested[2:3], nested[3:6:2]]
    return (all(v.base is views[0].base for v in views)
            and all(v.tobytes() == w.tobytes() for v, w in zip(views, want)))


def _with_specials(rng, X, share=0.15):
    """X with about share of its real and imaginary parts replaced by +-0,
    +-inf, +-1e308 or a NaN of random sign and payload, in place."""
    parts = X.view(np.float64).reshape(-1)
    for i in np.flatnonzero(rng.random(parts.size) < share):
        kind = rng.integers(7)
        if kind == 6:
            bits = 0x7FF0000000000000 | int(rng.integers(1, 2**52)) | int(rng.integers(2)) << 63
            parts[i] = np.array([bits], dtype=np.uint64).view(np.float64)[0]
        else:
            parts[i] = (0.0, -0.0, np.inf, -np.inf, 1e308, -1e308)[kind]
    return X


def _schur_views(UH, kind, rng):
    """A view of the stack UH of [U; H] as `_qr_iteration` rotates it and
    which of a step's coefficients it takes (0 for the rows, 1 for the
    columns), by kind: the rows or the columns of a step of matrix 0, or of
    steps of matrices 0 and 1 paired."""
    m = UH.shape[2]
    k, kb, first = rng.integers(m - 1), rng.integers(m - 1), rng.integers(m)
    rows = m + min(k + 3, m)
    s0, s1, s2 = UH.strides
    if kind == "row":
        return UH[0, m + k:m + k + 2, first:], 0
    if kind == "column":
        return UH[0, :rows, k:k + 2].T, 1
    if kind == "paired rows":
        return np.ndarray((2, 2, m - first), UH.dtype, UH, (m + k) * s1 + first * s2,
                          (s1, s0 + (kb - k) * s1, s2)), 0
    return np.ndarray((2, 2, rows), UH.dtype, UH, k * s2, (s2, s0 + (kb - k) * s2, s1)), 1


class TestBinary64RotationOracle:
    """The binary64 body of `_rotation` against the in-place composition, on
    views of a stack as `_qr_iteration` takes them, with +-0, +-inf, NaN
    with payloads and 1e308 among the entries and in c and s: the same
    bits in every part that is not NaN, and NaN in the same parts.  Which
    payload numpy keeps where two NaN meet depends on its loop layout; a
    kernel returns the canonical NaN."""

    @pytest.mark.parametrize("kind", ["row", "column", "paired rows", "paired columns"])
    def test_bits_match_the_in_place_composition(self, kind, rng):
        coefficients, rotate = _rotation(np.complex128, BINARY64)
        with_nan = 0
        for m in list(range(2, 27)) * 4:
            UH = _with_specials(rng, np.stack([cmat(rng, 2 * m, m), cmat(rng, 2 * m, m)]))
            f, g = _with_specials(rng, cmat(rng, 2, 2), share=0.1).tolist()
            with np.errstate(all="ignore"):
                c, s = zip(_givens(f[0], g[0], BINARY64), _givens(f[1], g[1], BINARY64))
                if kind.startswith("paired"):
                    K = coefficients(c[0], s[0], c[1], s[1])
                else:
                    c, s = c[0], s[0]
                    K = coefficients(c, s)
                nested = _nested_coefficients(c, s)
                # the pre-cut views (c, [s1, s2]) of the rows and the columns
                assert _same_cut(K, nested)
                want, got = UH.copy(), UH.copy()
                seed = rng.integers(2**32)
                X, i = _schur_views(want, kind, np.random.default_rng(seed))
                _in_place_rotate(X, nested[2 * i:2 * i + 4])
                X, i = _schur_views(got, kind, np.random.default_rng(seed))
                rotate(X, K[i])
            with_nan += np.isnan(want).any()
            assert _part_bits_match(got, want)
        assert with_nan > 10


def _entrywise_deflate(H, hi, u):
    """The deflation pass read entry by entry, the oracle of `_deflate`."""
    d = np.asarray(np.diagonal(H)[:hi + 1], dtype=np.complex128)
    sub = np.asarray(np.diagonal(H, -1)[:hi], dtype=np.complex128)
    ad = np.hypot(d.real, d.imag)
    j = 1 + np.flatnonzero(
        (sub != 0) & (np.hypot(sub.real, sub.imag) <= u * (ad[:-1] + ad[1:])))
    H[j, j - 1] = 0.0
    while hi > 0 and H[hi, hi - 1] == 0:
        hi -= 1
    lo = hi
    while lo > 0 and H[lo, lo - 1] != 0:
        lo -= 1
    return hi, lo


GOLDEN_FORMATS = ("bfloat16", "binary16", "tf32", "b24", "binary32", "40:11", "binary64")
CYCLIC = np.eye(6, k=-1) + np.eye(6, k=5)  # stalls under the unshifted QR iteration


def _factored(factor, fmt):
    """The U and T bytes of each factorization that ``factor(ctx)`` returns,
    or the type and message of the error it raises, and the flop buckets."""
    counter = FlopCounter()
    try:
        out = [(_bits(sf.U).tobytes(), _bits(sf.T).tobytes())
               for sf in factor(PrecisionContext(fmt, counter, "low"))]
    except MpsylvError as exc:
        out = (type(exc), str(exc))
    return out, counter.counts


def _one_by_one(*As):
    return lambda ctx: [schur(A, ctx) for A in As]


def _stacked(*As):
    def factor(ctx):
        sf = schur(np.stack(As), ctx)
        assert sf.U.shape == sf.T.shape == (len(As),) + As[0].shape
        return [linalg.SchurFactors(U, T) for U, T in zip(sf.U, sf.T)]
    return factor


def _one_pass_deflate(H, hi, u):
    """The deflation pass that `_deflate` replaced, the oracle of `schur`
    with it: every negligible subdiagonal entry of H[:hi + 1, :hi + 1] set
    to zero at once, read through one gather of H's diagonal and
    subdiagonal."""
    m = H.shape[0]
    at = np.arange(2 * m - 1) // 2 * (m + 1) + np.arange(2 * m - 1) % 2 * m
    v = np.asarray(H.take(at[:2 * hi + 1]), dtype=np.complex128)
    a = np.hypot(v.real, v.imag)
    sub = v[1::2]
    small = (a[1::2] <= u * (a[:-1:2] + a[2::2])) & (sub != 0)
    if small.any():
        H.put(at[1:2 * hi:2][small], 0.0)
    zero = (small | (sub == 0)).tolist()
    while hi > 0 and zero[hi - 1]:
        hi -= 1
    lo = hi
    while lo > 0 and not zero[lo - 1]:
        lo -= 1
    return hi, lo


class TestDeflateOracle:
    @pytest.mark.parametrize("dtype, fmt", [(np.complex128, BINARY64), (np.complex128, BFLOAT16),
                                            (np.complex64, BINARY32)],
                             ids=["complex128-binary64", "complex128-bfloat16", "complex64"])
    def test_matches_the_entrywise_pass(self, dtype, fmt, rng):
        """Hessenberg H with exact +-0 subdiagonal entries, NaN and inf, and
        entries exactly on and just above u (|h_kk| + |h_k+1,k+1|).
        `_deflate` finds the entrywise pass's (hi, lo) and writes its zeros,
        except that it leaves the negligible entries above lo for later; the
        one-pass oracle writes all of them."""
        u = fmt.unit_roundoff
        for m in list(range(2, 13)) * 8:
            H = np.triu(cmat(rng, m, m), -1).astype(dtype)
            H[np.diag_indices(m)] = 2.0 ** rng.integers(-3, 4, m)  # |h_kk| + |h_k+1,k+1| exact
            for k in range(m - 1):
                t = u * (abs(complex(H[k, k])) + abs(complex(H[k + 1, k + 1])))
                H[k + 1, k] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), t, 1j * t,
                               -t * (1 + 2 * u), np.nan, complex(np.inf, 1.0), H[k + 1, k],
                               H[k + 1, k]][rng.integers(11)]
            if m > 1 and rng.random() < 0.2:
                H[rng.integers(m), rng.integers(m)] = [np.nan, np.inf][rng.integers(2)]
            for hi in range(1, m):
                want, got, one = H.copy(), H.copy(), H.copy()
                ends = _entrywise_deflate(want, hi, u)
                assert _one_pass_deflate(one, hi, u) == ends
                assert one.tobytes() == want.tobytes()
                assert linalg._deflate(got, hi, u) == ends
                lo = ends[1]
                above = (np.arange(1, lo), np.arange(lo - 1))  # H[k, k - 1] for k < lo
                want[above] = H[above]
                assert got.tobytes() == want.tobytes()

    def test_magnitudes_past_the_double_range(self):
        """abs of a complex whose magnitude passes the double range raises,
        where np.hypot gives inf: a finite entry beside it is negligible."""
        big, u = complex(1.5e308, 1.5e308), BINARY64.unit_roundoff
        for d, sub in ((big, 1.0), (1.0, big), (big, big)):
            want = np.array([[d, 0.0], [sub, 1.0]])
            got = want.copy()
            with np.errstate(over="ignore"):
                assert linalg._deflate(got, 1, u) == _entrywise_deflate(want, 1, u)
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def _hessenberg(rng, fmt, special):
        """A 6x6 Hessenberg matrix whose subdiagonal holds a signed zero at
        (1, 0), a negligible entry at (2, 1), which stays above the first
        active block, and special at (4, 3)."""
        H = np.triu(cmat(rng, 6, 6), -1)
        u = parse_format(fmt).unit_roundoff
        H[1, 0] = complex(0.0, -0.0)
        for k, t in ((2, "small"), (4, special)):
            H[k, k - 1] = 0.25 * u * (abs(H[k - 1, k - 1]) + abs(H[k, k])) if t == "small" else t
        return H

    @pytest.mark.parametrize("fmt", GOLDEN_FORMATS)
    def test_schur_matches_the_one_pass(self, fmt, monkeypatch):
        """schur of single matrices and pairs with exact +-0, negligible,
        NaN and inf subdiagonal entries: U and T bytes, flop buckets and
        errors as with the one-pass deflation."""
        rng = np.random.default_rng(3)
        A, B, N, I = (self._hessenberg(rng, fmt, x) for x in
                      (-0.0, "small", np.nan, complex(np.inf, 1.0)))
        runs = [_one_by_one(A, B, N, I, cmat(rng, 6, 6))]
        runs += [_stacked(*pair) for pair in ((A, B), (B, A), (A, N), (I, B), (N, I))]
        got = [_factored(run, parse_format(fmt)) for run in runs]
        monkeypatch.setattr(linalg, "_deflate", _one_pass_deflate)
        assert got == [_factored(run, parse_format(fmt)) for run in runs]
        assert any(out[0] is IterationLimitError for out, _ in got)


def _listed_planes(c, s):
    """The complex64 coefficients from Python lists: the planes [kr, kr]
    and [-ki, ki] of [c, s, c, conj(s), c, s] on the first axis, the
    oracle of `_rotation`'s packed ones."""
    def row(c, s):
        sr, si = s.real, s.imag
        return [c, c, -0.0, 0.0, sr, sr, -si, si, c, c, -0.0, 0.0, sr, sr, si, -si,
                c, c, -0.0, 0.0, sr, sr, -si, si]
    if isinstance(c, tuple):
        K = np.array([row(x, y) for x, y in zip(c, s)], dtype=np.float32)
        return K.reshape(-1, 6, 2, 1, 2).transpose(1, 2, 0, 3, 4)
    return np.array(row(c, s), dtype=np.float32).reshape(6, 2, 1, 2)


class TestPackedCoefficients:
    PARTS = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 0.75)

    @classmethod
    def _cases(cls):
        """The arguments of one step (c, s) and of two (c, s, cb, sb), for
        c = +-0, 0.6, 1, NaN and s parts of +-0, +-inf, NaN of either sign
        and 0.75, with the oracles' (c, s) of each."""
        values = [complex(a, b) for a in cls.PARTS for b in cls.PARTS]
        for c in (0.0, -0.0, 0.6, 1.0, np.nan):
            for s, t in zip(values, values[::-1]):
                yield (c, s), (c, s)
                yield (c, s, 0.8, t), ((c, 0.8), (s, t))
                yield (0.8, t, c, s), ((0.8, c), (t, s))

    @pytest.mark.parametrize("dtype, fmt", [(np.complex64, BINARY32), (np.complex128, BINARY64),
                                            (np.complex128, BINARY32), (np.complex128, BINARY16),
                                            (np.complex128, BFLOAT16)],
                             ids=["complex64", "complex128", "complex128-binary32",
                                  "complex128-binary16", "complex128-bfloat16"])
    def test_bytes_match_the_listed_coefficients(self, dtype, fmt):
        """complex128 takes [c, s, c, conj(s), c, s] from 0 and from 2, as
        pre-cut views (c, [s1, s2]) in binary64 and as arrays [c, s1, c, s2]
        in the software formats; complex64 the planes of [[c, s1], [s2, c]]
        of each pass."""
        coefficients, _ = _rotation(dtype, fmt)
        for args, cs in self._cases():
            K = coefficients(*args)
            if fmt == BINARY64:
                assert _same_cut(K, _nested_coefficients(*cs))
                continue
            if dtype == np.complex128:
                want = _nested_coefficients(*cs)
                want = np.array([want[0:4], want[2:6]])
            else:
                # the rows take [c, s, c, conj(s)] as [[0, 1], [3, 2]],
                # the columns [c, conj(s), c, s] as [[2, 3], [5, 4]]
                want = np.moveaxis(_listed_planes(*cs)[[[[0, 1], [3, 2]], [[2, 3], [5, 4]]]], 3, 1)
            assert np.array(K).tobytes() == want.tobytes()

    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32, BINARY16, BFLOAT16, TF32, B24],
                             ids=lambda f: f.name)
    def test_direct_packing_matches_the_table(self, fmt):
        """The complex128 buffer packed straight, one step and two, against
        the index-table packing of [c, s, c, conj(s), c, s] by
        `_coefficient_layout` over the values (0.0, -0.0, c, Re s, Im s,
        -Im s) of each step, byte for byte."""
        coefficients, _ = _rotation(np.complex128, fmt)
        entries = [{"c": (2, 0), "s": (3, 4), "s*": (3, 5)}[x] for x in ("c", "s", "c", "s*", "c", "s")]
        tables = linalg._coefficient_layout("d", entries, (6,))
        for args, _ in self._cases():
            K = coefficients(*args)
            buffer = (K[0][0] if fmt == BINARY64 else K[0]).base
            pack, take, shape = tables[len(args) // 2 - 1]
            values = [0.0, -0.0]
            for c, s in zip(args[0::2], args[1::2]):
                values += [c, s.real, s.imag, -s.imag]
            want = np.empty(shape, np.complex128)
            pack.pack_into(want, 0, *take(values))
            assert buffer.shape == want.shape and buffer.tobytes() == want.tobytes()


class TestSchurStack:
    """schur of a stack against one schur call per matrix: U and T bytes,
    flop buckets, and error type and message."""

    @staticmethod
    def _same(fmt, *As):
        got = _factored(_stacked(*As), fmt)
        assert got == _factored(_one_by_one(*As), fmt)
        return got

    @pytest.fixture
    def unshifted(self, monkeypatch):
        monkeypatch.setattr(linalg, "_wilkinson_shift", lambda H, hi, fmt: 0j)
        monkeypatch.setattr(linalg, "_shifted", lambda h, shift, fmt: h)

    @staticmethod
    def _converging(rng):
        """A 6x6 matrix that the unshifted iteration still factors."""
        return np.diag(2.0 ** np.arange(6)) + 0.05 * cmat(rng, 6, 6)

    @pytest.mark.parametrize("fmt", GOLDEN_FORMATS)
    def test_dense(self, fmt, rng):
        for m in (1, 2, 8):
            self._same(parse_format(fmt), cmat(rng, m, m), cmat(rng, m, m))
        self._same(parse_format(fmt), *(rng.standard_normal((5, 5)) + 0j for _ in range(3)))

    @pytest.mark.parametrize("fmt", GOLDEN_FORMATS)
    def test_hessenberg_with_exact_and_signed_zeros(self, fmt, rng):
        A, B = np.triu(cmat(rng, 8, 8), -1), np.triu(cmat(rng, 8, 8), -1)
        A[4, 3] = 0.0
        A[2, 1] = complex(0.0, -0.0)
        B[1, 0] = -0.0
        B[7, 6] = complex(-0.0, 0.0)
        for pair in ((A, B), (B, A)):
            self._same(parse_format(fmt), *pair)

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=lambda f: f.name)
    @pytest.mark.parametrize("p, stalls", [
        pytest.param(2, 0, id="0"), pytest.param(2, 1, id="1"),
        # the second pair raises
        pytest.param(3, 2, id="3-at-2"), pytest.param(4, 2, id="4-at-2"),
        pytest.param(4, 3, id="4-at-3")])
    def test_stall_in_one_factor(self, fmt, p, stalls, unshifted, rng):
        stack = [self._converging(rng) for _ in range(p - 1)]
        stack.insert(stalls, CYCLIC)
        (error, _), flops = self._same(fmt, *stack)
        assert error is IterationLimitError and flops["low"] > 0

    @pytest.mark.parametrize("first_ok", [False, True])
    def test_overflow_in_b_after_a(self, first_ok, unshifted, rng):
        B = self._converging(rng)
        B[0, 1] = 1e39  # past binary32
        A = self._converging(rng) if first_ok else CYCLIC
        (error, _), flops = self._same(BINARY32, A, B)
        assert error is (FormatOverflowError if first_ok else IterationLimitError)
        assert flops["low"] > 0
        (error, _), flops = self._same(BINARY32, B, A)
        assert error is FormatOverflowError and flops == {}

    def test_givens_operand_past_the_double_range(self, rng):
        """|g| of a finite binary64 Givens operand passes the largest
        double: NumericBreakdownError alone, and in a pair with an ordinary
        matrix on either side, where it stops the pair driver."""
        big = np.array([[1, 1], [1.5e308 + 1.5e308j, 1]])
        with pytest.raises(NumericBreakdownError, match="double range"):
            schur(big, CTX)
        A = cmat(rng, 2, 2)
        (error, _), flops = self._same(BINARY64, A, big)
        assert error is NumericBreakdownError and flops["low"] > 0
        (error, _), flops = self._same(BINARY64, big, A)
        assert error is NumericBreakdownError

    @pytest.mark.parametrize("fmt, big", [(BINARY32, 3e38), (BINARY64, 1.7e308)],
                             ids=["binary32", "binary64"])
    def test_nan_in_one_factor(self, fmt, big, rng):
        """The input of `test_scalar_chains`' binary32 NaN sweep: a last
        column past a deflated row overflows and meets inf - inf, and T
        ends with NaN.  Paired in either order, U, T and flops are those
        of one matrix at a time, and every NaN part of T is the canonical
        NaN (binary32 stays in complex64)."""
        A = self._nan_input(big)
        other = cmat(rng, 5, 5)
        for pair in ((A, other), (other, A)):
            self._same(fmt, *pair)
        T = schur(np.stack([other, A]), PrecisionContext(fmt)).T
        assert nan_parts(T[1]) and set(nan_parts(T)) == {CANONICAL_NAN}

    @staticmethod
    def _nan_input(big):
        """A last column past a deflated row that overflows and meets inf - inf."""
        A = np.zeros((5, 5), dtype=np.complex128)
        g = np.random.default_rng(0)
        A[:4, :4] = np.triu(cmat(g, 4, 4), -1)
        A[:4, 4] = big * np.sign(g.standard_normal(4))
        A[4, 4] = 1.0
        return A

    @staticmethod
    def _huge_input():
        """Entries near 1e308, whose binary64 reduction meets inf - inf."""
        g = np.random.default_rng(0)
        A = 1e308 * np.sign(g.standard_normal((4, 4))) + 0j
        A[0] = g.standard_normal(4)
        return A

    @pytest.mark.parametrize("ends", ["converges", "raises"])
    def test_non_finite_lane_runs_once(self, ends, rng, monkeypatch):
        """A binary64 pair in which one matrix ends holding inf or NaN, in
        both orders: each matrix runs once, in the pair, and its U, T and
        flops are those of a run alone (`_same`), each NaN part of U and T
        the canonical NaN.  The second input's reduction meets inf - inf,
        so it never deflates and raises after 30 m sweeps."""
        A = self._nan_input(1.7e308) if ends == "converges" else self._huge_input()
        runs, steps = [], linalg._qr_steps
        monkeypatch.setattr(linalg, "_qr_steps", lambda UH, ctx: runs.append(1) or steps(UH, ctx))
        for i, pair in enumerate(((A, cmat(rng, *A.shape)), (cmat(rng, *A.shape), A))):
            runs.clear()
            out, _ = self._same(BINARY64, *pair)
            # the pair, then one call per matrix up to the first that raises
            assert len(runs) == 2 + (1 if ends == "raises" and i == 0 else 2)
            if ends == "converges":
                T = np.frombuffer(out[i][1], np.float64)
                assert np.isnan(T).any()
                assert set(T[np.isnan(T)].view(np.uint64).tolist()) == {CANONICAL_NAN}

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=lambda f: f.name)
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_nan_rotation_beside_a_deflated_entry(self, fmt, bad, rng):
        """A Hessenberg matrix with a deflated subdiagonal entry above a
        block that holds inf or NaN, so that the block's Givens steps have
        a NaN c or s.  Paired with a dense matrix, whose steps start
        further left, those steps are applied unpadded: the deflated entry
        stays zero, the block stays where it is, and the flops are those
        of a run alone."""
        A = np.triu(cmat(rng, 6, 6), -1)
        A[2, 1] = 0.0
        A[4, 3] = bad
        for pair in ((A, cmat(rng, 6, 6)), (cmat(rng, 6, 6), A)):
            (error, _), flops = self._same(fmt, *pair)
            assert error is IterationLimitError and flops["low"] > 0

    def test_shared_pairs_replay_a_same_shape_pair(self, rng, monkeypatch, unshifted):
        """`_schur_pair` factors a same-shape pair as one stack, and a
        `_shared_schur_pairs` scope replays its charges and its error."""
        calls = []
        monkeypatch.setattr(sylvester, "schur",
                            lambda A, ctx: calls.append(np.ndim(A)) or schur(A, ctx))
        for B in (self._converging(rng), CYCLIC):
            p = sylvester.SylvesterProblem(self._converging(rng), B, cmat(rng, 6, 6))
            want = _factored(_one_by_one(p.A, p.B), BINARY32)
            with sylvester._shared_schur_pairs():
                got = [_factored(lambda ctx: sylvester._schur_pair(p, ctx), BINARY32)
                       for _ in range(2)]
            assert got == [want, want]
            assert calls == [3]
            calls.clear()
        assert want[0][0] is IterationLimitError

    @staticmethod
    def _spy(monkeypatch, name):
        """The leading (stack) axis length of each call to ``linalg.<name>``."""
        sizes, run = [], getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda X, *args: sizes.append(len(X)) or run(X, *args))
        return sizes

    @pytest.mark.parametrize("fmt", GOLDEN_FORMATS)
    def test_reduced_column_beside_a_dense_one(self, fmt, rng, monkeypatch):
        """Columns 0 to 2 of A are in Hessenberg form already, so they get no
        reflector in A and are reduced one matrix at a time; the others run
        in lockstep."""
        A = np.triu(cmat(rng, 7, 7), -1)
        A[:, 3:] = cmat(rng, 7, 4)
        sizes = self._spy(monkeypatch, "_apply_reflector_left_rounded")
        for pair in ((A, cmat(rng, 7, 7)), (cmat(rng, 7, 7), A)):
            sizes.clear()
            self._same(parse_format(fmt), *pair)
            assert 1 in sizes and 2 in sizes

    @pytest.mark.parametrize("tail", [1e-3, 1e-30])
    def test_rescaled_reflector_in_one_factor(self, tail, monkeypatch):
        """A first column with an entry near 3e20, whose squares overflow
        binary32: its reflector is formed from the column scaled down
        (`_make_reflector`).  With a tail near 1e-30 the scaled w leaves
        binary32 and the stack reruns on the software path."""
        A = cmat(np.random.default_rng(0), 6, 6)
        A[2:, 0] = tail * cmat(np.random.default_rng(9), 4, 1).ravel()
        A[1, 0] = 3e20
        rescaled = []
        scaled_down = linalg._scaled_down
        monkeypatch.setattr(linalg, "_scaled_down", lambda x: rescaled.append(1) or scaled_down(x))
        other = cmat(np.random.default_rng(1), 6, 6)
        for pair in ((A, other), (other, A)):
            rescaled.clear()
            factors, _ = self._same(BINARY32, *pair)
            assert rescaled
            assert all(np.isfinite(np.frombuffer(T, np.float64)).all() for _, T in factors)

    def test_overflow_in_one_reduction_stays_in_lockstep(self, rng, monkeypatch):
        """Entries near 1e308: the binary64 reflector updates meet inf - inf
        in the lockstep reduction, and T holds NaN, which never deflates;
        the flops are those of one matrix at a time."""
        A = self._huge_input()
        sizes = self._spy(monkeypatch, "_hessenberg")
        for i, pair in enumerate(((A, cmat(rng, 4, 4)), (cmat(rng, 4, 4), A))):
            sizes.clear()
            (error, _), flops = self._same(BINARY64, *pair)
            assert error is IterationLimitError and flops["low"] > 0
            # the stack once, then the calls one by one up to the one that raises
            assert sizes == [2] + [1] * (i + 1)

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=lambda f: f.name)
    def test_dense_pair_reduces_in_lockstep(self, fmt, rng, monkeypatch):
        sizes = self._spy(monkeypatch, "_apply_reflector_left_rounded")
        schur(np.stack([cmat(rng, 8, 8), cmat(rng, 8, 8)]), PrecisionContext(fmt))
        assert sizes == [2] * (8 - 2)

    @pytest.mark.parametrize("first_stalls", [False, True])
    def test_partner_of_a_failed_run_stops(self, first_stalls, unshifted, rng, monkeypatch):
        """Once matrix 0 of a pair raises, its partner, whose charges are
        dropped, is run no further: CYCLIC beside CYCLIC would raise in the
        same sweep.  Once matrix 1 raises, matrix 0 runs on to its end."""
        ended, run = [], linalg._qr_steps

        def steps(UH, ctx):
            i = len(ended)
            ended.append(False)
            try:
                out = yield from run(UH, ctx)
            except MpsylvError:
                ended[i] = True
                raise
            ended[i] = True
            return out
        monkeypatch.setattr(linalg, "_qr_steps", steps)
        first = CYCLIC if first_stalls else self._converging(rng)
        with pytest.raises(IterationLimitError):
            schur(np.stack([first, CYCLIC]), PrecisionContext(BINARY64))
        assert ended == [True, not first_stalls]


class TestHouseholderScaling:
    def test_norm_past_the_squares_range(self):
        counter = FlopCounter()
        ctx = PrecisionContext(BINARY16, counter, "low")
        assert _vec_norm2_ctx(np.array([300.0, 1.0]), ctx) == 300.0
        assert counter.get("low") == 5
        assert _vec_norm2_ctx(np.array([60000.0, 60000.0]), ctx) == np.inf

    @pytest.mark.parametrize("fmt, value", [(BINARY16, 1e-4), (BINARY16, 3e-4),
                                            (BINARY32, 1e-21)],
                             ids=["binary16-1e-4", "binary16-3e-4", "binary32-1e-21"])
    def test_norm_below_the_squares_range(self, fmt, value):
        # the squares underflow: unscaled, binary16 gives 0.0 for 1e-4 and is
        # 15% high for 3e-4, and binary32 is 2.6e-4 high for 1e-21
        x = round_matrix(np.full((1, 100), value, dtype=np.complex128), fmt).ravel()
        ctx = PrecisionContext(fmt)
        got = _vec_norm2_ctx(x, ctx)
        # the steps on x scaled into range, its largest part in [1/2, 1)
        e = math.frexp(value)[1]
        assert got == math.ldexp(_vec_norm2_ctx(math.ldexp(1.0, -e) * x, ctx), e)
        # and the error bound of 100 rounded squares summed in turn
        want = float(np.linalg.norm(x))
        assert abs(got - want) <= (len(x) / 2 + 2) * fmt.unit_roundoff * want

    def test_reflector_past_the_squares_range(self):
        x = np.array([300.0, 1.0 + 0j])
        counter = FlopCounter()
        w, beta, head = _make_reflector(x, PrecisionContext(BINARY16, counter, "low"))
        assert np.isfinite(w).all() and 0.0 < beta < np.inf
        assert head == -300.0
        assert counter.get("low") == 2 * len(x) + 4
        y = x - beta * w * np.vdot(w, x)
        u = BINARY16.unit_roundoff
        assert abs(y[0] - head) <= 4 * u * 300 and abs(y[1]) <= 4 * u * 300


class TestSquaresPastTheRange:
    """binary16 squares underflow below |x| ~ 2.4e-4 and overflow from 256."""

    def test_abs(self):
        a = round_to(1e-4, BINARY16)
        exact = a * 2**0.5
        assert abs(_sabs(complex(a, a), BINARY16) - exact) <= 2 * BINARY16.unit_roundoff * exact
        assert _sabs(300.0, BINARY16) == 300.0
        assert _sabs(-300j, BINARY16) == 300.0
        assert _sabs(60000 + 60000j, BINARY16) == np.inf  # |z| itself overflows
        assert _sabs(0j, BINARY16) == 0.0

    @pytest.mark.parametrize("f, g", [(300.0, 1.0), (1e-4, 1e-4j), (1.0, 1e3j)])
    def test_givens(self, f, g):
        f, g = round_complex(f, BINARY16), round_complex(g, BINARY16)
        c, s = _givens(f, g, BINARY16)
        u = BINARY16.unit_roundoff
        assert np.isfinite([c, s]).all()
        assert abs(c * c + abs(s) ** 2 - 1.0) <= 8 * u
        # the rotation's second row sends [f, g] to c g - conj(s) f = 0
        assert abs(c * g - np.conj(s) * f) <= 8 * u * max(abs(f), abs(g))


class TestHermitianEig:
    def test_identity(self):
        U, d = hermitian_eig(np.eye(3), CTX)
        assert np.allclose(d, 1.0)

    def test_analytic_2x2(self):
        U, d = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), CTX)
        assert np.allclose(sorted(d), [1.0, 3.0], atol=1e-12)

    def test_cross_oracle_with_schur(self, rng):
        H = hermitian(rng, 8)
        U, d = hermitian_eig(H, CTX)
        sf = schur(H, CTX)
        assert np.abs(np.sort(d) - np.sort(np.diag(sf.T).real)).max() < 1e-10

    def test_reconstruction_and_unitarity(self, rng):
        H = hermitian(rng, 9)
        U, d = hermitian_eig(H, CTX)
        u = BINARY64.unit_roundoff
        assert np.linalg.norm(U.conj().T @ U - np.eye(9)) <= 100 * 9 * u
        assert np.allclose(U @ np.diag(d) @ U.conj().T, H, atol=1e-12)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(NotHermitianError):
            hermitian_eig(cmat(rng, 4, 4), CTX)

    def test_rejects_non_hermitian_past_unscaled_norm_range(self):
        # entries above ~1e154 overflow an unscaled Frobenius norm to inf
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[1e200, 1e200], [0.0, 1.0]]), CTX)

    def test_large_hermitian_entries(self):
        U, d = hermitian_eig(np.array([[1e200, 1e199], [1e199, 1e200]]), CTX)
        assert np.allclose(sorted(d), [0.9e200, 1.1e200], rtol=1e-12, atol=0.0)

    def test_binary16_converges_where_jacobi_stalled(self, rng):
        # cyclic Jacobi's stop test n*u*||A||_F sat at binary16's rounding
        # floor for this matrix and ended in IterationLimitError
        H = hermitian(rng, 5)
        U, d = hermitian_eig(H, PrecisionContext(BINARY16))
        u = BINARY16.unit_roundoff
        assert np.linalg.norm(H - U @ np.diag(d) @ U.conj().T) <= 100 * 5 * u * np.linalg.norm(H)

    def test_binary16_random_set_converges(self):
        for seed in range(40):
            n = 4 + seed % 9
            G = cmat(np.random.default_rng(seed), n, n)
            U, d = hermitian_eig((G + G.conj().T) / 2, PrecisionContext(BINARY16))
            assert np.isfinite(U).all() and np.isfinite(d).all(), seed

    def test_entry_past_range_raises_before_scaling(self):
        with pytest.raises(FormatOverflowError):
            hermitian_eig(np.array([[1e5, 1.0], [1.0, 2.0]]), PrecisionContext(BINARY16))

    def test_eigenvalue_past_range_is_inf(self):
        # the eigenvalues are 0 (three times) and 2.4e5, past binary16's 65504
        U, d = hermitian_eig(np.full((4, 4), 6e4), PrecisionContext(BINARY16))
        assert np.isfinite(U).all()
        assert np.isfinite(np.sort(d)[:3]).all() and np.sort(d)[3] == np.inf

    def test_tiny_entries_scaled(self, rng):
        H = 1e-300 * hermitian(rng, 4)
        U, d = hermitian_eig(H, CTX)
        want = np.linalg.eigvalsh(H)
        assert np.abs(np.sort(d) - want).max() / np.abs(want).max() < 1e-15


class TestKronAndConditioning:
    def test_scalar_operator(self):
        assert sylvester_kron_operator(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 5.0

    def test_identity_pair(self):
        Mf = sylvester_kron_operator(np.eye(2), np.eye(2))
        assert (Mf == 2 * np.eye(4)).all()

    def test_operator_matches_direct_evaluation(self, rng):
        A, B, X = cmat(rng, 2, 2), cmat(rng, 2, 2), cmat(rng, 2, 2)
        Mf = sylvester_kron_operator(A, B)
        assert np.abs(Mf @ vec(X) - vec(A @ X + X @ B)).max() < 1e-14

    def test_vec_kron_identity(self, rng):
        A, X, B = cmat(rng, 3, 3), cmat(rng, 3, 3), cmat(rng, 3, 3)
        lhs = vec(A @ X @ B)
        rhs = kron_matrix(B.T, A) @ vec(X)
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_cap(self, rng):
        with pytest.raises(DimensionError):
            sylvester_kron_operator(np.eye(80), np.eye(80), cap=4096)

    def test_unvec_roundtrip(self, rng):
        X = cmat(rng, 4, 3)
        assert (unvec(vec(X), 4, 3) == X).all()

    def test_cond_inf_identity(self):
        assert cond_inf(np.eye(5)) == pytest.approx(1.0)

    def test_cond_inf_scale_invariant(self, rng):
        M = cmat(rng, 6, 6)
        assert cond_inf(3.7 * M) == pytest.approx(cond_inf(M), rel=1e-12)

    def test_sep_common_eigenvalue_is_zero(self):
        assert sep_f(np.array([[1.0]]), np.array([[-1.0]])) == 0.0

    def test_cond_inf_singular(self):
        with pytest.raises(SingularMatrixError):
            cond_inf(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_cond_inf_non_square(self):
        with pytest.raises(DimensionError):
            cond_inf(np.ones((2, 3)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_cond_inf_rejects_non_finite(self, entry):
        # unchecked, LAPACK's inverse carries the NaN through to a nan
        # result, and an infinite entry gives an infinite norm
        with pytest.raises(NonFiniteInputError):
            cond_inf(np.array([[entry, 1.0], [0.0, 1.0]]))

    def test_sep_clustered_smallest_singular_values(self):
        # an inverse power iteration stops short of sep_F on a near-double
        # smallest value
        assert sep_f(np.diag([1.0, 1.0 + 1e-7, 3.0]), np.array([[0.0]])) == pytest.approx(
            1.0, rel=1e-12)

    def test_sep_diagonal(self):
        got = sep_f(np.diag([1.0, 2.0]), np.array([[3.0]]))
        assert got == pytest.approx(4.0, rel=1e-6)

    def test_sep_vs_svd_oracle(self, rng):
        A, B = cmat(rng, 4, 4), cmat(rng, 3, 3)
        ref = np.linalg.svd(sylvester_kron_operator(A, B), compute_uv=False)[-1]
        assert sep_f(A, B) == pytest.approx(ref, rel=1e-6)


def _b32_bits(rng, shape, exponents=(-20, 20)):
    """Complex binary32 values from random bit patterns: random sign and
    significand in both parts, biased exponent drawn from ``exponents``
    (unbiased bounds, upper excluded; None for every pattern but NaN)."""
    n = 2 * int(np.prod(shape))
    if exponents is None:
        v = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32).view(np.float32)
        v = np.where(np.isnan(v), np.float32(0.0), v)
    else:
        lo, hi = exponents
        bits = (rng.integers(0, 2, n, dtype=np.uint32) << np.uint32(31)) \
            | (rng.integers(127 + lo, 127 + hi, n, dtype=np.uint32) << np.uint32(23)) \
            | rng.integers(0, 2**23, n, dtype=np.uint32)
        v = bits.view(np.float32)
    v = v.astype(np.float64)
    return _compose(v[:n // 2], v[n // 2:]).reshape(shape)


def _soft_gemm(alpha, A, B, beta, C):
    """`gemm`'s steps in binary32, each rounded by the software kernel."""
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.complex128)
    for p in range(A.shape[1]):
        acc = _soft_sum(acc, _soft_product(A[:, p:p + 1], B[p:p + 1, :]))
    if alpha != 1:
        acc = _soft_product(alpha, acc)
    if beta == 0:
        return acc
    return _soft_sum(acc, C if beta == 1 else _soft_product(beta, C))


def _soft_mgs(Q, v):
    """`_mgs_project`'s steps in binary32, each rounded by the software kernel."""
    h = np.zeros(Q.shape[1], dtype=np.complex128)
    for i in range(Q.shape[1]):
        acc = np.zeros((), dtype=np.complex128)
        for p in _soft_product(np.conj(Q[:, i]), v):
            acc = _soft_sum(acc, p)
        h[i] = acc
        v = _soft_sum(v, -_soft_product(h[i], Q[:, i]))
    return h, v


def _counted(f, *args):
    counter = FlopCounter()
    out = f(*args, PrecisionContext(BINARY32, counter, "gmres"))
    return out, counter.total()


GEMM_CASES = ["bits", "tiny", "full-range", "overflow", "inf-times-zero", "off-format",
              "signed-zeros"]


def _gemm_operands(case, rng, m=5, k=7, n=6):
    exponents = {"tiny": (-75, -60), "full-range": None}.get(case, (-20, 20))
    A, B, C = (_b32_bits(rng, s, exponents) for s in ((m, k), (k, n), (m, n)))
    if case == "overflow":  # positive real products past the top: inf, no NaN
        A, B = np.abs(A.real) * 2.0**100, np.abs(B.real) * 2.0**100
        A, B = A.astype(np.complex128), B.astype(np.complex128)
    elif case == "inf-times-zero":
        A[1, 2], B[2, :] = complex(np.inf, 0.0), 0.0
    elif case == "off-format":
        A[1, 2] = 1 + 2.0**-24
    elif case == "signed-zeros":  # every product is (-0, +0): the +0 start shows
        A, B = np.full((m, k), -1 + 0j), np.zeros((k, n), dtype=np.complex128)
    return A, B, C


def _mgs_operands(rng, exponents=(-6, -2), N=40, q=7):
    """Q and v small enough that v stays finite through q projections."""
    return _b32_bits(rng, (N, q), exponents), _b32_bits(rng, N, exponents)


def _triangular_operands(rng, m=5, n=4):
    """T_A, T_B and C of a nonsingular triangular Sylvester equation in
    binary32 values."""
    T_A, T_B = (np.triu(_b32_bits(rng, (k, k), (-2, 2))) for k in (m, n))
    np.fill_diagonal(T_A, 3.0)
    np.fill_diagonal(T_B, 1.5)
    return T_A, T_B, _b32_bits(rng, (m, n), (-2, 2))


class TestBinary32Kernels:
    """binary32 `gemm` and `_mgs_project` check their operands once per
    call; their values and flops are those of the fl_mul/fl_sum path, each
    NaN part of a result the canonical NaN."""

    @pytest.mark.parametrize("case", GEMM_CASES)
    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.0, 0.5])
    @pytest.mark.parametrize("beta", [1.0, -1.0, 0.0, 0.5])
    def test_gemm_matches_software_composition(self, case, alpha, beta, rng, monkeypatch):
        A, B, C = _gemm_operands(case, rng)
        got, flops = _counted(lambda *a: gemm(alpha, *a[:2], beta, C, a[2]), A, B)
        want = canonical(_soft_gemm(alpha, A, B, beta, C))
        assert (_bits(got) == _bits(want)).all()
        monkeypatch.setattr(precision, "_binary32", lambda *xs: None)
        ref, ref_flops = _counted(lambda *a: gemm(alpha, *a[:2], beta, C, a[2]), A, B)
        assert (_bits(ref) == _bits(want)).all() and flops == ref_flops
        if case == "overflow" and alpha == 1:  # else 0 * inf in alpha * acc
            assert np.isinf(want).any() and not np.isnan(want).any()
        if case == "inf-times-zero":
            assert np.isnan(want).any()

    @pytest.mark.parametrize("case", ["bits", "inf-times-zero"])
    def test_gemm_over_several_blocks(self, case, rng, monkeypatch):
        monkeypatch.setattr(linalg, "_GEMM_BLOCK", 3 * 4 * 4)  # 4 k-steps a block
        A, B, C = _gemm_operands(case, rng, m=3, k=11, n=4)
        got, flops = _counted(lambda *a: gemm(-1.0, *a[:2], 0.5, C, a[2]), A, B)
        assert (_bits(got) == _bits(canonical(_soft_gemm(-1.0, A, B, 0.5, C)))).all()
        assert flops == 3 * 4 * (2 * 11 + 3)

    @pytest.mark.parametrize("case", ["bits", "tiny", "full-range", "overflow",
                                      "inf-times-zero", "off-format", "signed-zeros"])
    def test_mgs_matches_software_composition(self, case, rng, monkeypatch):
        Q, v = _mgs_operands(rng, {"tiny": (-75, -60), "full-range": None}.get(case, (-6, -2)))
        if case == "overflow":
            Q[:, 2] = np.abs(Q[:, 2].real) * 2.0**100
            v = np.abs(v.real) * 2.0**100 + 0j
        elif case == "inf-times-zero":
            Q[3, 1], v[3] = complex(np.inf, 0.0), 0.0
        elif case == "off-format":
            v[3] = 1 + 2.0**-24
        elif case == "signed-zeros":  # conj(q) v is (-0, +0) throughout
            Q, v = np.full(Q.shape, complex(-1.0, -0.0)), np.zeros_like(v)
        (h, w, nrm), flops = _counted(lambda *a: _mgs_project(*a), Q, v)
        want = [canonical(x) for x in _soft_mgs(Q, v)]
        assert (_bits(h) == _bits(want[0])).all() and (_bits(w) == _bits(want[1])).all()
        monkeypatch.setattr(precision, "_binary32", lambda *xs: None)
        (h2, w2, nrm2), ref_flops = _counted(lambda *a: _mgs_project(*a), Q, v)
        assert (_bits(h2) == _bits(h)).all() and (_bits(w2) == _bits(w)).all()
        # the remainder's norm: its software steps on the software remainder
        nrm3 = canonical(_vec_norm2_ctx(want[1], PrecisionContext(BINARY32))).real
        assert _bits(np.array([nrm, nrm2])).tolist() == _bits(np.array([nrm3, nrm3])).tolist()
        assert flops == ref_flops == 4 * Q.size + 2 * len(v) + 1
        assert np.isnan(want[1]).any() == (case in ("full-range", "overflow", "inf-times-zero"))


class TestBinary32KernelPath:
    """On binary32 values, gemm and _mgs_project make no software rounding
    call and check their operands once; an operand outside the format
    takes the software products and sums."""

    SOFTWARE = ("_mul_parts", "_rounded_sum", "_round_real_array")

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for module in (precision, linalg):
            for name in self.SOFTWARE:
                if not hasattr(module, name):
                    continue
                def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
                    seen.append(_name)
                    return _f(*args, **kwargs)
                monkeypatch.setattr(module, name, spy)
        return seen

    def test_one_operand_check_per_call(self, rng, monkeypatch):
        checks = []
        binary32 = precision._binary32
        for module in (precision, linalg, sylvester):  # wherever the name is bound
            if hasattr(module, "_binary32"):
                monkeypatch.setattr(module, "_binary32",
                                    lambda *xs: checks.append(1) or binary32(*xs))
        ctx = PrecisionContext(BINARY32)
        A, B, C = _gemm_operands("bits", rng)
        gemm(0.5, A, B, -1.0, C, ctx)
        assert len(checks) == 1
        _mgs_project(*_mgs_operands(rng), ctx)
        assert len(checks) == 2
        sylvester.solve_sylv_tri(*_triangular_operands(rng), ctx)
        assert len(checks) == 3
        precision.fl_div(A, A[::-1], ctx)
        assert len(checks) == 4

    def test_format_values_take_the_native_path(self, calls, rng):
        ctx = PrecisionContext(BINARY32)
        A, B, C = _gemm_operands("bits", rng)
        gemm(0.5, A, B, -1.0, C, ctx)
        _mgs_project(*_mgs_operands(rng), ctx)
        sylvester.solve_sylv_tri(*_triangular_operands(rng), ctx)
        precision.fl_div(A, A[::-1], ctx)
        assert calls == []

    def test_off_format_operand_takes_the_software_path(self, calls, rng):
        ctx = PrecisionContext(BINARY32)
        A, B, C = _gemm_operands("off-format", rng)
        gemm(1.0, A, B, 0.0, None, ctx)
        # the software products are binary32 values, which fl_sum adds natively
        assert "_mul_parts" in calls
        calls.clear()
        Q, v = _mgs_operands(rng)
        v[0] = 1 + 2.0**-24
        _mgs_project(Q, v, ctx)
        assert {"_mul_parts", "_rounded_sum"} <= set(calls)


class TestBinary64Sums:
    def test_gemm_sum_past_overflow_is_silent(self):
        # the products are 1e308, their sum overflows: inf, and no numpy
        # RuntimeWarning (pytest turns one into an error)
        got = gemm(1.0, [[1e200, 1e200]], [[1e108], [1e108]], 0.0, None)
        assert got[0, 0] == complex(np.inf, 0.0)

    def test_sum_of_opposite_infinities_is_silent(self):
        got = precision.fl_sum(np.array([np.inf, -np.inf]), CTX)
        assert np.isnan(got.real)


def _householder_runs(A, monkeypatch, software=False):
    """binary32 householder_qr of A as (factors or the exception raised,
    flops, dtypes of R in each run of its reflections); ``software``
    switches the complex64 arrays off."""
    counter, runs = FlopCounter(), []
    steps = linalg._householder_steps
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_householder_steps",
                   lambda Q, R, ctx: runs.append(R.dtype) or steps(Q, R, ctx=ctx))
        if software:
            mp.setattr(precision, "_binary32", lambda *xs: None)
        try:
            out = householder_qr(A, PrecisionContext(BINARY32, counter, "low"))
        except RankDeficiencyError as exc:
            out = exc
    return out, counter.counts, runs


class TestBinary32HouseholderQr:
    """binary32 householder_qr keeps Q and R in complex64 (`_resident`),
    with the Q, R and flops of the software path; a w formed from a
    rescaled column off binary32 reruns in complex128, a NaN does not."""

    @staticmethod
    def _peaked(tail):
        """A column with one entry near 3e20 over entries near tail: the
        reflector is formed from the column scaled by 2^-69."""
        A = cmat(np.random.default_rng(0), 7, 4)
        A[2:, 0] = tail * cmat(np.random.default_rng(9), 5, 1).ravel()
        A[1, 0] = 3e20
        return A

    @pytest.mark.parametrize("case, runs", [
        ("normal", [np.complex64]),
        ("real", [np.complex64]),
        ("peaked-1e-3", [np.complex64]),
        # the rescaled tail leaves binary32's range: w fails the check
        ("peaked-1e-30", [np.complex64, np.complex128]),
        # entries near 3e38: the updates meet inf - inf, in complex64
        ("nan", [np.complex64]),
    ])
    def test_matches_the_software_path(self, case, runs, monkeypatch):
        rng = np.random.default_rng(3)
        if case.startswith("peaked"):
            A = self._peaked(float(case.split("-", 1)[1]))
        elif case == "nan":
            A = 3e38 * np.sign(rng.standard_normal((4, 3))) + 0j
        else:
            A = cmat(rng, 8, 5) if case == "normal" else rng.standard_normal((8, 5)) + 0j
        got, flops, got_runs = _householder_runs(A, monkeypatch)
        want, want_flops, want_runs = _householder_runs(A, monkeypatch, software=True)
        assert got_runs == runs and want_runs == [np.complex128]
        assert flops == want_flops and flops["low"] > 0
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert (_bits(got.Q) == _bits(want.Q)).all() and (_bits(got.R) == _bits(want.R)).all()
            assert got.Q.dtype == np.complex128

    def test_format_values_take_no_software_step(self, rng, monkeypatch):
        # the reflections only: `_fix_r_diagonal`'s phases are not binary32
        seen, inside = [], [False]
        for name in ("_mul_parts", "_rounded_sum"):
            def spy(*args, _f=getattr(precision, name), _name=name):
                if inside[0]:
                    seen.append(_name)
                return _f(*args)
            monkeypatch.setattr(precision, name, spy)
        steps = linalg._householder_steps

        def reflections(Q, R, ctx):
            inside[0] = True
            try:
                return steps(Q, R, ctx=ctx)
            finally:
                inside[0] = False
        monkeypatch.setattr(linalg, "_householder_steps", reflections)
        householder_qr(cmat(rng, 8, 5), PrecisionContext(BINARY32))
        assert seen == []


class TestNormAccumulation:
    def test_residual_breaks_ties(self):
        # in 40:11, a**2 = 2^-40 + 2^-78 (a double): 1 + a**2 and then
        # (1 + 2^-39) + a**2 are midpoints in the double sum, and the 2Sum
        # residual 2^-78 rounds both up, to 1 + 2^-38; ties to even would
        # leave 1
        a = 2.0**-20 * (1 + 2.0**-39)
        x = np.array([1, a, a], dtype=np.complex128)
        assert _vec_norm2_ctx(x, PrecisionContext(parse_format("40:11"))) == 1 + 2.0**-39


class TestBinary64Norm:
    def test_vector_norm_scales_past_overflow(self):
        got = _vec_norm2_ctx([1e200, 1e200], CTX)
        assert np.isfinite(got) and got == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)

    def test_vector_norm_is_numpys_where_finite(self, rng):
        x = cmat(rng, 1, 50).ravel()
        assert _vec_norm2_ctx(x, CTX) == float(np.linalg.norm(x))
