import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsylv.errors import MatrixMarketError
from mpsylv.mmio import read_matrix, write_matrix

from conftest import cmat


def test_hexfloat_roundtrip_bit_exact(tmp_path, rng):
    M = cmat(rng, 5, 3) * np.exp(rng.uniform(-300, 300, (5, 3)))
    path = tmp_path / "m.mtx"
    write_matrix(path, M)
    R = read_matrix(path)
    assert R.shape == M.shape
    assert (R == M).all()


def test_decimal_roundtrip_bit_exact(tmp_path, rng):
    # repr() decimals parse back to the same double
    M = cmat(rng, 4, 4)
    path = tmp_path / "m.mtx"
    write_matrix(path, M, hexfloat=False)
    assert (read_matrix(path) == M).all()


def test_read_coordinate_real(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% a comment\n"
                    "2 3 2\n"
                    "1 2 0.5\n"
                    "2 3 -1.25\n")
    M = read_matrix(path)
    ref = np.zeros((2, 3), dtype=complex)
    ref[0, 1] = 0.5
    ref[1, 2] = -1.25
    assert (M == ref).all()


def test_read_array_symmetric(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n"
                    "2 2\n1\n2\n3\n")
    M = read_matrix(path)
    assert (M == np.array([[1, 2], [2, 3]])).all()


def test_read_coordinate_hermitian(tmp_path):
    path = tmp_path / "h.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex hermitian\n"
                    "2 2 2\n"
                    "1 1 2 0\n"
                    "2 1 1 -3\n")
    M = read_matrix(path)
    assert M[0, 1] == complex(1, 3) and M[1, 0] == complex(1, -3)


def test_read_hexfloat_tokens(tmp_path):
    path = tmp_path / "x.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "1 1\n0x1.8p+1\n")
    assert read_matrix(path)[0, 0] == 3.0


def test_rejects_garbage_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("hello\n1 1\n0\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_read_array_hermitian(tmp_path):
    path = tmp_path / "h.mtx"
    path.write_text("%%MatrixMarket matrix array complex hermitian\n"
                    "2 2\n1 0\n2 -3\n4 0\n")
    assert (read_matrix(path) == np.array([[1, 2 + 3j], [2 - 3j, 4]])).all()


def test_read_array_skew_symmetric_omits_the_diagonal(tmp_path):
    path = tmp_path / "k.mtx"
    path.write_text("%%MatrixMarket matrix array real skew-symmetric\n"
                    "3 3\n1\n2\n3\n")
    assert (read_matrix(path) == np.array([[0, -1, -2], [1, 0, -3], [2, 3, 0]])).all()


REAL_COORD = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text, message", [
    (REAL_COORD + "2 2 1\n0 1 1.0\n", "index (0, 1) outside 2 x 2"),
    (REAL_COORD + "2 2 1\n3 1 1.0\n", "index (3, 1) outside 2 x 2"),
    (REAL_COORD + "2 2 1\n1 -1 1.0\n", "outside 2 x 2"),
    (REAL_COORD + "2 2 2\n1 1 1.0\n", "declares 2 entries, holds 1"),
    (REAL_COORD + "2 2 1\n1 1 1.0\n2 2 1.0\n", "declares 1 entries, holds 2"),
    (REAL_COORD + "2 2 1\n1 1\n", "expected 3 numbers, got 2"),
    (REAL_COORD + "2 2\n", "bad size line"),
    (REAL_COORD + "2 x 1\n1 1 1\n", "bad size line"),
    (REAL_COORD + "% only a comment\n", "missing size line"),
    (REAL_COORD + "2 2 1\n1 1 abc\n", "could not convert"),
    (REAL_COORD + "2 2 1\n1.5 1 1\n", "invalid literal"),
    ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2.0\n",
     "expected 4 numbers, got 3"),
    ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n", "declares 4 entries, holds 3"),
    ("%%MatrixMarket matrix array complex general\n1 1\n1\n", "expected 2 numbers, got 1"),
    ("%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n", "must be square"),
    ("%%MatrixMarket matrix coordinate real hermitian\n2 3 0\n", "must be square"),
    ("%%MatrixMarket matrix array real general\n-1 2\n", "bad size line"),
    ("%%MatrixMarket matrix array pattern general\n1 1\n", "unsupported field"),
    ("%%MatrixMarket vector array real general\n1 1\n", "not a Matrix Market matrix"),
])
def test_malformed_files_raise_a_typed_error(tmp_path, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError, match=re.escape(message)):
        read_matrix(path)


def test_binary_file_raises_a_typed_error(tmp_path):
    path = tmp_path / "bin.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array real general\n1 1\n\xff\xfe\n")
    with pytest.raises(MatrixMarketError, match="not a text file"):
        read_matrix(path)


_TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "1.5", "0x1p-1", "nan", "x", "%", ""])


@st.composite
def near_valid_files(draw):
    """Small Matrix Market texts, mostly well formed, with random damage."""
    layout = draw(st.sampled_from(["array", "coordinate"] * 3 + ["cube"]))
    field = draw(st.sampled_from(["real", "integer", "complex"] * 2 + ["pattern"]))
    symmetry = draw(st.sampled_from(["general"] * 4 + ["symmetric", "hermitian",
                                                       "skew-symmetric", "diagonal"]))
    lines = [f"%%MatrixMarket matrix {layout} {field} {symmetry}"]
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    nnz = draw(st.integers(0, 4))
    lines.append(f"{rows} {cols}" + (f" {nnz}" if layout == "coordinate" else ""))
    if draw(st.integers(0, 3)):  # as many entries as a general matrix declares
        count = nnz if layout == "coordinate" else rows * cols
        number = st.sampled_from(["0", "-1", "1.5", "0x1p-1", "nan", "1e400"])
        for _ in range(count):
            index = [str(draw(st.integers(0, 4))) for _ in range(2 * (layout == "coordinate"))]
            values = [draw(number) for _ in range(1 + (field == "complex"))]
            lines.append(" ".join(index + values))
    else:
        for _ in range(draw(st.integers(0, 10))):
            lines.append(" ".join(draw(st.lists(_TOKENS, max_size=5))))
    if not draw(st.integers(0, 3)):  # damage one line
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = " ".join(draw(st.lists(_TOKENS, max_size=5)))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(near_valid_files())
def test_fuzzed_files_read_or_raise_a_typed_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "f.mtx"
    path.write_text(text)
    try:
        M = read_matrix(path)
    except MatrixMarketError:
        return
    assert M.dtype == np.complex128 and M.ndim == 2
