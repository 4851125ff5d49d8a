"""The scalar steps of `schur` and of the GMRES rotations composed from the
rounded `_s*` steps of `mpsylv.precision`, and the per-entry sum of the
binary32 and binary16 vector norm.

They are the oracle of the scalar chains (`linalg._givens_chain`,
`_shift_chain`, `_reflector_chain`, `gmresir._rotation_chain` and
`_backsub_chain`): every step is rounded by `_sadd`, `_ssub`, `_smul`,
`_sdiv` or `_ssqrt`, with the branches on zeros and infinities written as
the composition takes them.  Every format but binary64.
"""

import math

import numpy as np

from mpsylv.precision import (
    FpFormat,
    _round_real_array,
    _round_real_scalar,
    _sabs,
    _sadd,
    _sdiv,
    _shypot,
    _smul,
    _ssqrt,
    _ssub,
)


def _givens_steps(f: complex, g: complex, fmt: FpFormat):
    """The Givens rotation zeroing g against f.  When the sum of squares is
    0 or inf, d comes from `_shypot`, which rescales."""
    if g == 0:
        return 1.0, 0j
    ag = _sabs(g, fmt)
    if f == 0:
        return 0.0, _sdiv(g.conjugate(), ag, fmt)
    af = _sabs(f, fmt)
    d2 = _sadd(_smul(af, af, fmt), _smul(ag, ag, fmt), fmt).real
    if d2 == 0.0 or d2 == math.inf:  # the squares left the format's range
        d = _shypot(af, ag, fmt)
    else:
        d = _ssqrt(d2, fmt)
    c = _sdiv(af, d, fmt).real
    s = _sdiv(_smul(_sdiv(f, af, fmt), g.conjugate(), fmt), d, fmt)
    return c, s


def _csqrt(z: complex, fmt: FpFormat) -> complex:
    """Principal complex square root from the unscaled magnitude of z: inf
    once its squares leave the format's range."""
    if z == 0:
        return 0j
    r = _round_real_scalar
    a, b = z.real, z.imag
    s = r(r(a * a, fmt) + r(b * b, fmt), fmt)
    mag = _ssqrt(s, fmt) if math.isfinite(s) else math.inf
    if a >= 0.0:
        u = _ssqrt(r(r(mag + a, fmt) / 2.0, fmt), fmt)
        if u == 0.0:
            return complex(0.0, b)
        v = r(b / r(2.0 * u, fmt), fmt)
        return complex(u, v)
    v = _ssqrt(r(r(mag - a, fmt) / 2.0, fmt), fmt)
    v = math.copysign(v, b if b != 0.0 else 1.0)
    if v == 0.0:
        return complex(0.0, 0.0)
    u = r(b / r(2.0 * v, fmt), fmt)
    return complex(u, v)


def _shift_steps(a: complex, b: complex, c: complex, d: complex, fmt: FpFormat) -> complex:
    """The eigenvalue of [[a, b], [c, d]] closest to d (the Wilkinson shift)."""
    delta = _smul(0.5, _ssub(a, d, fmt), fmt)
    disc = _csqrt(_sadd(_smul(delta, delta, fmt), _smul(b, c, fmt), fmt), fmt)
    # pick the root of the 2x2 closest to d: align disc with delta
    if (delta.real * disc.real + delta.imag * disc.imag) < 0:
        disc = -disc
    denom = _sadd(delta, disc, fmt)
    if denom == 0:
        return d
    return _ssub(d, _sdiv(_smul(b, c, fmt), denom, fmt), fmt)


def _reflector_scalars(x0: complex, nx: float, fmt: FpFormat):
    """w[0], beta and head of a Householder reflector from x0 = x[0] and
    nx = |x| > 0."""
    a0 = _sabs(x0, fmt)
    phase = _sdiv(x0, a0, fmt) if a0 != 0.0 else 1 + 0j
    pn = _smul(phase, nx, fmt)
    # w*w = 2 nx (nx + |x0|), real by construction
    ww = _smul(2.0, _smul(nx, _sadd(nx, a0, fmt), fmt), fmt).real
    return _sadd(x0, pn, fmt), _sdiv(2.0, ww, fmt).real, _smul(-1.0, pn, fmt)


def _rotation_steps(c: complex, s: complex, h0: complex, h1: complex, fmt: FpFormat):
    """One stored GMRES rotation: (conj(c) h0 + conj(s) h1, c h1 - s h0)."""
    return (_sadd(_smul(c.conjugate(), h0, fmt), _smul(s.conjugate(), h1, fmt), fmt),
            _ssub(_smul(c, h1, fmt), _smul(s, h0, fmt), fmt))


def _backsub_steps(acc: complex, hs: list, ys: list, fmt: FpFormat) -> complex:
    """acc less each product h y in turn."""
    for h, y in zip(hs, ys):
        acc = _ssub(acc, _smul(h, y, fmt), fmt)
    return acc


def _norm2_per_entry(x: np.ndarray, fmt: FpFormat) -> float:
    """The rounded steps of a vector norm as each partial sum was rounded before its
    cast-first loop: the double sum and its 2Sum residual, one
    `_round_real_scalar` per entry, in every format."""
    with np.errstate(invalid="ignore", over="ignore"):
        if x.dtype == np.complex64:
            mag = np.sqrt(np.square(x.real) + np.square(x.imag))
        else:
            r = _round_real_array
            sq = r(np.array([x.real * x.real, x.imag * x.imag]), fmt)
            s = r(sq[0] + sq[1], fmt)
            finite = np.isfinite(s)
            mag = np.where(finite, r(np.sqrt(np.where(finite, s, 0.0)), fmt), np.inf)
    acc = 0.0
    for a in mag.tolist():
        b = a ** 2
        s = acc + b
        e = 0.0
        if math.isfinite(s):
            bv = s - acc
            e = (acc - (s - bv)) + (b - bv)
        acc = _round_real_scalar(s, fmt, e)
    # a NaN |x_i| is inf in the rounded steps above, and so is the NaN sum
    # it gives the float32 steps
    return _ssqrt(acc if acc == acc else math.inf, fmt)
