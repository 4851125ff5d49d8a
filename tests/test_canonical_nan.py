"""Every NaN part of a kernel result is the quiet NaN 0x7ff8000000000000.

The kernels and the ``fl_*`` entries get NaN operands of random payload
and sign, in binary64, binary32 and bfloat16.  In binary32 a NaN operand
is not a binary32 value, so those run on the software path; operands
holding +-inf and +-0 instead keep binary32 on the complex64 planes, where
inf * 0 and inf - inf make the NaN.  Whatever the path, the payloads of the
operands and numpy's loop layout, each NaN real or imaginary part of the
result has the same bits.
"""

import numpy as np
import pytest

from mpsylv.errors import MpsylvError, NumericBreakdownError
from mpsylv.gmresir import GmresConfig, _resident_correction
from mpsylv.linalg import gemm, householder_qr, lu, lu_solve, mgs_qr, schur
from mpsylv.precision import (
    BFLOAT16,
    BINARY32,
    BINARY64,
    PrecisionContext,
    _binary32,
    fl_add,
    fl_div,
    fl_mul,
    fl_sqrt,
    fl_sub,
    fl_sum,
    round_matrix,
)
from mpsylv.sylvester import solve_sylv_tri

from conftest import CANONICAL_NAN, nan_parts

FORMATS = [BINARY64, BINARY32, BFLOAT16]
# NaN operands of random payload and sign, or (binary32's complex64 path) infinities
KINDS = ["nan", "inf"]


def _nan(rng, n):
    """n quiet NaN of random payload and sign."""
    bits = (0x7FF8000000000000 | rng.integers(1, 2**51, n, dtype=np.uint64)
            | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
    return bits.view(np.float64)


def _operands(rng, fmt, kind, *shape, share=0.2, shift=0.0):
    """A complex array of values of fmt, normal ones plus shift on the
    diagonal, about ``share`` of its real and imaginary parts replaced: by
    NaN of random payload and sign, or by +-inf and +-0."""
    parts = rng.standard_normal((2,) + shape)
    if shift:
        parts[0] += shift * np.eye(*shape)
    pick = rng.random(parts.shape) < share
    if kind == "nan":
        parts[pick] = _nan(rng, int(pick.sum()))
    else:
        parts[pick] = rng.choice([np.inf, -np.inf, 0.0, -0.0], int(pick.sum()))
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = (round_matrix(p, fmt).real for p in parts)
    return z


def _check(results, fmt, kind, *operands):
    """Every NaN part of the results is canonical, some result holds one,
    and binary32's +-inf operands are values of the format (the complex64
    path)."""
    if fmt is BINARY32 and kind == "inf":
        with np.errstate(over="ignore"):
            assert _binary32(*[np.asarray(x, dtype=np.complex128) for x in operands]) is not None
    parts = [bits for z in results for bits in nan_parts(z)]
    assert parts and set(parts) == {CANONICAL_NAN}


@pytest.fixture(params=FORMATS, ids=lambda f: f.name)
def fmt(request):
    return request.param


@pytest.fixture(params=KINDS)
def kind(request):
    return request.param


@pytest.fixture
def ctx(fmt):
    return PrecisionContext(fmt)


@pytest.fixture
def seeded(fmt, kind):
    return np.random.default_rng([FORMATS.index(fmt), KINDS.index(kind)])


def test_entries(fmt, kind, ctx, seeded):
    a, b = (_operands(seeded, fmt, kind, 40) for _ in range(2))
    with np.errstate(invalid="ignore", divide="ignore"):
        results = [fl_add(a, b, ctx), fl_sub(a, b, ctx), fl_mul(a, b, ctx),
                   fl_div(a, b, ctx), fl_sum(np.stack([a, b]), ctx),
                   fl_sum(a, ctx), fl_sqrt(np.abs(a.real) * np.sign(b.real), ctx)]
    _check(results, fmt, kind, a, b)
    # a scalar of the 1-d sum, and a Python complex of a scalar step
    assert np.ndim(results[-2]) == 0 and isinstance(fl_mul(complex(a[0]), 2.0, ctx), complex)


def test_gemm(fmt, kind, ctx, seeded):
    A, B, C = (_operands(seeded, fmt, kind, *s) for s in ((5, 7), (7, 6), (5, 6)))
    _check([gemm(1.0, A, B, 0.0, None, ctx), gemm(0.5, A, B, -1.0, C, ctx)], fmt, kind, A, B, C)


def test_lu_and_lu_solve(fmt, kind, ctx, seeded):
    A = _operands(seeded, fmt, kind, 6, 6, share=0.1, shift=8.0)
    B = _operands(seeded, fmt, kind, 6, 3)
    F = lu(A, ctx)
    results = [F.lu] + [lu_solve(F, B if side == "left" else B.T, side, transpose, ctx)
                        for side in ("left", "right") for transpose in ("no", "conj")]
    _check(results, fmt, kind, A, B)


@pytest.mark.parametrize("qr", [mgs_qr, householder_qr])
def test_qr(qr, fmt, kind, ctx, seeded):
    """An infinite entry makes the QR factorizations' rank test fail, so
    the "inf" kind has entries near the top of the range instead, whose
    products overflow and meet inf - inf."""
    if kind == "nan":
        A = _operands(seeded, fmt, kind, 7, 4, share=0.1)
    else:
        A = fmt.max_finite / 2 * np.sign(seeded.standard_normal((7, 4))) + 0j
        A[0] = round_matrix(seeded.standard_normal(4), fmt)
    F = qr(A, ctx)
    _check([F.Q, F.R], fmt, kind, A)


def _nan_ending(rng, fmt, kind, m=6):
    """A Hessenberg matrix whose last row is deflated at once and whose last
    column holds NaN (kind "nan") or entries near the top of fmt's range
    that meet inf - inf under the leading block's rotations ("inf")."""
    A = np.triu(_operands(rng, fmt, kind, m, m, share=0.0), -1)
    A[m - 1, m - 2] = 0.0
    if kind == "nan":
        A[: m - 1, m - 1] = _nan(rng, m - 1)
    else:
        A[: m - 1, m - 1] = fmt.max_finite * np.sign(rng.standard_normal(m - 1))
    return A


def test_schur(fmt, kind, ctx, seeded):
    A = _nan_ending(seeded, fmt, kind)
    alone = schur(A, ctx)
    pair = schur(np.stack([A, _operands(seeded, fmt, kind, 6, 6, share=0.0)]), ctx)
    _check([alone.U, alone.T, pair.U, pair.T], fmt, kind, A)
    assert nan_parts(pair.T[0]) == nan_parts(alone.T)


def test_solve_sylv_tri_lets_no_nan_out(fmt, kind, ctx, seeded):
    T_A = np.triu(_operands(seeded, fmt, kind, 4, 4, share=0.0, shift=3.0))
    T_B = np.triu(_operands(seeded, fmt, kind, 3, 3, share=0.0, shift=3.0))
    C = _operands(seeded, fmt, kind, 4, 3, share=0.3)
    with pytest.raises(NumericBreakdownError):
        solve_sylv_tri(T_A, T_B, C, ctx)


def test_gmres_correction(fmt, kind, ctx, seeded):
    """One GMRES-IR correction whose right-hand side holds NaN or inf: its
    norm is not finite, so it returns the zero correction, stagnated."""
    A, B = (_operands(seeded, fmt, kind, n, n, share=0.0, shift=3.0) for n in (4, 3))
    sf_A, sf_B = schur(A, ctx), schur(B, ctx)
    b = _operands(seeded, fmt, kind, 4, 3, share=0.3)
    try:
        E, inner, stagnated = _resident_correction(b, A, B, sf_A, sf_B,
                                                   GmresConfig(fmt, restart=3), ctx)
    except MpsylvError:
        pytest.fail("a correction on a non-finite right-hand side returns")
    assert not E.any() and stagnated and inner == 0
