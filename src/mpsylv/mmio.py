"""Matrix Market text I/O with bit-exact round-tripping.

Reading accepts ``array`` and ``coordinate`` layouts with ``real``,
``integer`` or ``complex`` fields and ``general``, ``symmetric``,
``hermitian`` or ``skew-symmetric`` symmetry.  Numbers may be plain
decimals or C99 hexadecimal floats; writing uses hexadecimal floats so a
write/read cycle reproduces every double exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, MatrixMarketError
from .precision import _compose

__all__ = ["read_matrix", "write_matrix"]

_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")


def _parse_number(tok: str) -> float:
    if "x" in tok or "X" in tok:
        return float.fromhex(tok)
    return float(tok)


def read_matrix(path) -> np.ndarray:
    """Read one matrix from a Matrix Market file as complex128.

    Raises MatrixMarketError for a file that does not follow the format:
    a bad header or size line, a coordinate index outside the declared
    size (indices are 1-based), a line with too few numbers, or an entry
    count other than the declared nnz (coordinate) or the number the
    size and symmetry imply (array), a coordinate position listed twice
    (in a non-general file, also as the mirror of an earlier entry), a
    coordinate entry above the diagonal of a non-general file, a
    Hermitian diagonal entry that is not real, or a listed skew-symmetric
    diagonal entry.  Symmetric, Hermitian and skew-symmetric files store
    the lower triangle, the skew-symmetric one without its zero diagonal.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read(fh, path)
    except UnicodeDecodeError as exc:
        raise MatrixMarketError(f"{path}: not a text file ({exc.reason})") from None


def _read(fh, path) -> np.ndarray:
    header = fh.readline().split()
    if len(header) < 5 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
        raise MatrixMarketError(f"{path}: not a Matrix Market matrix file")
    layout, field, symmetry = header[2].lower(), header[3].lower(), header[4].lower()
    if layout not in ("array", "coordinate"):
        raise MatrixMarketError(f"{path}: unsupported layout {layout!r}")
    if field not in ("real", "integer", "complex"):
        raise MatrixMarketError(f"{path}: unsupported field {field!r}")
    if symmetry not in _SYMMETRIES:
        raise MatrixMarketError(f"{path}: unsupported symmetry {symmetry!r}")
    # (line number, tokens) of every line that is not blank or a comment
    body = [(n, toks) for n, toks in enumerate((line.split() for line in fh), 2)
            if toks and not toks[0].startswith("%")]
    if not body:
        raise MatrixMarketError(f"{path}: missing size line")
    n, sizes = body[0]
    coordinate = layout == "coordinate"
    try:
        dims = [int(t) for t in sizes[:3 if coordinate else 2]]
    except ValueError:
        dims = []
    if len(dims) != (3 if coordinate else 2) or min(dims) < 0:
        raise MatrixMarketError(f"{path}:{n}: bad size line {' '.join(sizes)!r}")
    rows, cols = dims[0], dims[1]
    if symmetry != "general" and rows != cols:
        raise MatrixMarketError(f"{path}: a {symmetry} matrix must be square")
    entries = body[1:]
    if coordinate:
        expected = dims[2]
    elif symmetry == "general":
        expected = rows * cols
    elif symmetry == "skew-symmetric":
        expected = cols * (cols - 1) // 2
    else:
        expected = cols * (cols + 1) // 2
    if len(entries) != expected:
        raise MatrixMarketError(
            f"{path}: declares {expected} entries, holds {len(entries)}")
    per = 2 if field == "complex" else 1
    width = per + (2 if coordinate else 0)
    short = next(((n, len(toks)) for n, toks in entries if len(toks) < width), None)
    if short is not None:
        raise MatrixMarketError(f"{path}:{short[0]}: expected {width} numbers, got {short[1]}")
    values = _numbers(entries, width - per, width, path)
    if per == 2:
        values = _compose(values[0::2], values[1::2])
    M = np.zeros((rows, cols), dtype=np.complex128)
    if coordinate:
        listed = {}  # the line that set each position
        for (n, toks), v in zip(entries, values.tolist()):
            try:
                i, j = int(toks[0]) - 1, int(toks[1]) - 1
            except ValueError as exc:
                raise MatrixMarketError(f"{path}:{n}: {exc}") from None
            if not (0 <= i < rows and 0 <= j < cols):
                raise MatrixMarketError(
                    f"{path}:{n}: index ({i + 1}, {j + 1}) outside {rows} x {cols}")
            if (i, j) in listed:
                raise MatrixMarketError(f"{path}:{n}: entry ({i + 1}, {j + 1}) "
                                        f"already set by line {listed[i, j]}")
            if i == j:
                _check_diagonal(v, symmetry, f"{path}:{n}")
            if i < j and symmetry != "general":
                raise MatrixMarketError(f"{path}:{n}: entry ({i + 1}, {j + 1}) lies above the "
                                        f"diagonal; a {symmetry} file lists the lower triangle")
            M[i, j], listed[i, j] = v, n
            if i != j and symmetry != "general":
                M[j, i], listed[j, i] = _mirror(v, symmetry), n
    elif symmetry == "general":
        M[:] = values.reshape(cols, rows).T
    else:
        # the lower triangle in column order
        J, I = np.triu_indices(cols, 1 if symmetry == "skew-symmetric" else 0)
        bad = np.flatnonzero((I == J) & (values.imag != 0))
        if len(bad):
            _check_diagonal(values[bad[0]], symmetry, f"{path}:{entries[bad[0]][0]}")
        M[I, J] = values
        off = I != J
        M[J[off], I[off]] = _mirror(values[off], symmetry)
    return M


def _numbers(entries, first, stop, path) -> np.ndarray:
    """Tokens first..stop-1 of every entry line, parsed, in one flat array."""
    try:
        return np.array([_parse_number(t) for _, toks in entries for t in toks[first:stop]],
                        dtype=np.float64)
    except ValueError:
        for n, toks in entries:
            try:
                [_parse_number(t) for t in toks[first:stop]]
            except ValueError as exc:
                raise MatrixMarketError(f"{path}:{n}: {exc}") from None
        raise


def _check_diagonal(v, symmetry, where):
    """Raise unless v may stand on the diagonal of a matrix of this symmetry."""
    if symmetry == "skew-symmetric":
        raise MatrixMarketError(f"{where}: a skew-symmetric file lists no diagonal entry")
    if symmetry == "hermitian" and v.imag != 0:
        raise MatrixMarketError(f"{where}: hermitian diagonal entry {v} is not real")


def _mirror(v, symmetry):
    """The entry at (j, i) of a non-general matrix whose entry at (i, j) is v."""
    if symmetry == "hermitian":
        return np.conj(v)
    if symmetry == "skew-symmetric":
        return -v
    return v


def _format_number(x: float, hexfloat: bool) -> str:
    return float(x).hex() if hexfloat else repr(float(x))


def write_matrix(path, M, hexfloat: bool = True) -> None:
    """Write a dense matrix in array layout; complex field, general symmetry."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2:
        raise DimensionError("write_matrix expects a 2-d matrix")
    rows, cols = M.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix array complex general\n")
        fh.write(f"{rows} {cols}\n")
        for j in range(cols):
            for i in range(rows):
                v = M[i, j]
                fh.write(f"{_format_number(v.real, hexfloat)} "
                         f"{_format_number(v.imag, hexfloat)}\n")
