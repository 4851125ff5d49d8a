import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def cmat(rng, m, n, scale=1.0):
    return scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def rand_upper(rng, n, diag_shift=3.0):
    """Random upper triangular with diagonal pushed away from zero."""
    T = np.triu(cmat(rng, n, n))
    T += diag_shift * np.eye(n)
    return T


def hermitian(rng, n, shift=0.0):
    G = cmat(rng, n, n)
    return (G + G.conj().T) / 2 + shift * np.eye(n)


CANONICAL_NAN = 0x7FF8000000000000  # the NaN of every NaN part of a kernel result


def canonical(z):
    """A complex128 copy of z whose NaN real and imaginary parts are all
    the quiet NaN 0x7ff8000000000000, as a kernel returns them; every
    other part keeps its bits."""
    z = np.array(z, dtype=np.complex128)
    nan = np.array(CANONICAL_NAN, dtype=np.uint64).view(np.float64)
    for part in (z.real, z.imag):
        part[np.isnan(part)] = nan
    return z


def nan_parts(z):
    """The bits of the NaN real and imaginary parts of z, as a list."""
    parts = np.array(z, dtype=np.complex128, ndmin=1, order="C").view(np.float64)
    return parts[np.isnan(parts)].view(np.uint64).tolist()
