"""Flop-ratio cost model for the two-precision solvers.

``rho`` is the cost of one low-precision flop relative to one
high-precision flop.  ``phi(rho)`` is the iteration budget at which a
mixed-precision solver breaks even with the one-precision direct solver,
and ``k_star = floor(phi)`` the largest affordable iteration count.  All
counts are leading order only, and all are read from one table, `flops`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ALGORITHMS",
    "CostModel",
    "FlopCount",
    "Crossover",
    "phi",
    "k_star",
    "crossover_rho",
    "flops",
    "flops_gmres_ir",
]

ALGORITHMS = ("mp_orth_sylv", "mp_orth_lyap", "mp_inv_sylv", "mp_inv_lyap")


@dataclass(frozen=True)
class CostModel:
    m: int
    n: int
    rho: float
    algorithm: str

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.algorithm.endswith("_lyap") and self.m != self.n:
            raise ValueError("Lyapunov model requires m == n")


@dataclass(frozen=True)
class FlopCount:
    low_flops: float
    high_flops: float


@dataclass(frozen=True)
class Crossover:
    rho: float
    clamped: bool


def _alpha_beta(m: int, n: int):
    return float(m**3 + n**3), float(m * n * (m + n))


def _direct(algorithm: str, m: int, n: int) -> float:
    """Flops of the Bartels-Stewart baseline a mixed solver competes with."""
    base = "bartels_stewart_lyap" if algorithm.endswith("_lyap") else "bartels_stewart_sylv"
    return flops(base, m, n).high_flops


def phi(cm: CostModel) -> float:
    """Break-even iteration budget; may be negative when low flops are dear.

    The high-precision count high(k) is linear in the iteration count k,
    so rho * low + high(phi) = direct gives
    phi = (direct - rho * low - high(0)) / (high(1) - high(0)).
    """
    f0 = flops(cm.algorithm, cm.m, cm.n, 0)
    f1 = flops(cm.algorithm, cm.m, cm.n, 1)
    return ((_direct(cm.algorithm, cm.m, cm.n) - cm.rho * f0.low_flops - f0.high_flops)
            / (f1.high_flops - f0.high_flops))


def k_star(cm: CostModel) -> int:
    """floor(phi); clamps to -1 when the mixed route is never cheaper."""
    return max(math.floor(phi(cm)), -1)


def crossover_rho(algorithm: str, m: int, n: int, k: int) -> Crossover:
    """The rho at which phi(rho) == k, clamped into [0, 1] with a flag:
    rho = (direct - high(k)) / low."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    f = flops(algorithm, m, n, k)
    r = (_direct(algorithm, m, n) - f.high_flops) / f.low_flops
    clamped = r < 0.0 or r > 1.0
    return Crossover(min(max(r, 0.0), 1.0), clamped)


def flops(algorithm: str, m: int, n: int, k: int = 0) -> FlopCount:
    """Leading-order flop counts per precision, exactly as tabulated.

    Mixed-precision entries take the refinement iteration count ``k``;
    the direct baselines (``bartels_stewart_sylv``, ``bartels_stewart_lyap``,
    ``hermitian``) ignore it.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    a, b = _alpha_beta(m, n)
    g = float(n**3)
    if algorithm == "mp_orth_sylv":
        return FlopCount(25.0 * a + b, 6.0 * a + (4.0 + 3.0 * k) * b)
    if algorithm == "mp_inv_sylv":
        return FlopCount(25.0 * a + b, (4.0 + 2.0 / 3.0) * a + (4.0 + 3.0 * k) * b)
    if algorithm == "mp_orth_lyap":
        return FlopCount(27.0 * g, (14.0 + 6.0 * k) * g)
    if algorithm == "mp_inv_lyap":
        return FlopCount(27.0 * g, (12.0 + 2.0 / 3.0 + 6.0 * k) * g)
    if algorithm == "bartels_stewart_sylv":
        return FlopCount(0.0, 25.0 * a + 5.0 * b)
    if algorithm == "bartels_stewart_lyap":
        return FlopCount(0.0, 35.0 * g)
    if algorithm == "hermitian":
        return FlopCount(0.0, 26.0 * g)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def flops_gmres_ir(variant: str, m: int, n: int, k: int,
                   inner_iterations, kind: str = "sylvester") -> FlopCount:
    """Tabulated counts for the Schur-preconditioned GMRES refinement.

    ``variant`` selects where the preconditioned solves run: "ul" applies
    the preconditioner and GMRES in the low precision, "uh" in the high
    one.  ``inner_iterations`` lists the GMRES iteration count of each of
    the ``k`` outer steps.
    """
    li = list(inner_iterations)
    if len(li) != k or any(l < 1 for l in li):
        raise ValueError("inner_iterations must list k counts, each >= 1")
    a, b = _alpha_beta(m, n)
    g = float(n**3)
    s = float(sum(li))
    if kind == "sylvester":
        if variant == "ul":
            return FlopCount(25.0 * a + 5.0 * b, (7.0 * s + 2.0 * k) * b)
        if variant == "uh":
            return FlopCount(25.0 * a, (7.0 * s + 7.0 * k) * b)
    elif kind == "lyapunov":
        if variant == "ul":
            return FlopCount((25.0 + 10.0 * k) * g, (14.0 * s + 4.0 * k) * g)
        if variant == "uh":
            return FlopCount(25.0 * g, (14.0 * s + 14.0 * k) * g)
    else:
        raise ValueError("kind must be 'sylvester' or 'lyapunov'")
    raise ValueError("variant must be 'ul' or 'uh'")
