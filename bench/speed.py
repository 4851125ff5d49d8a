"""Host-speed probe, used to put timings on a common clock.

The benchmark runs on shared virtual machines whose speed drifts by up
to ~2x over minutes (other tenants contend for the same cores), which
swamps any change worth detecting.  The probe is a fixed kernel of small
numpy operations and a Python loop, the same instruction mix as the
simulator, that calls no mpsylv code, so no change to mpsylv can move it.
Timed right before and after each solve and set-up, it measures how fast
the host is running at that moment; dividing by it converts a wall time
into *reference seconds*: the time the same work takes when one probe
repetition takes ``C_REF`` seconds.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds per repetition when the defining machine (2-vCPU Xeon
# guest, Python 3.11, numpy 2.4) was quiet.
C_REF = 5.0e-6
REPS = 1500  # ~8 ms per sample at C_REF


class SpeedProbe:
    """Samples host speed; keeps every sample and the time spent probing."""

    def __init__(self):
        self._x = np.linspace(0.1, 3.0, 32)
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> float:
        """Seconds per probe repetition, measured now."""
        x = self._x
        t0 = time.perf_counter()
        for _ in range(REPS):
            mant, exp = np.frexp(x)
            np.ldexp(np.rint(np.ldexp(mant, 24)), exp - 24)
            acc = 0.0
            for v in range(16):
                acc += v * 1.5
        dt = time.perf_counter() - t0
        self.spent += dt
        self.samples.append(dt / REPS)
        return dt / REPS

    def last(self) -> float:
        return self.samples[-1] if self.samples else self.sample()

    def timed(self, fn):
        """Run ``fn()`` between two samples; return (result, wall s, reference s)."""
        before = self.last()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        return result, wall, to_ref(wall, (before + self.sample()) / 2)


def to_ref(wall: float, speed: float) -> float:
    """Convert wall seconds measured at probe ``speed`` into reference seconds."""
    return wall * C_REF / speed
