"""Parameter sets for LQG design on the discretized wave equation ring.

The physical model carries a wave speed c, grid spacing dx, quadratic cost
weights (q1 on displacement, q2 on velocity, r on control effort) and noise
scales (sigma_d disturbance, sigma_m measurement), plus a length alpha that
weights the spatial-gradient part of the state cost.  After rescaling time,
state and inputs, every design formula depends on them only through four
dimensionless groups:

    pi1 = alpha**2 / dx**2                 gradient-energy weight
    pi2 = c**2 * q1**2 / (q2**2 * dx**2)   velocity-cost weight
    pi3 = dx**2 * r / (c**2 * q1)          control-effort price
    pi4 = dx**2 * sigma_d / (c**2 * sigma_m)   disturbance/sensor ratio

The synthesized gains are completely decentralized (diagonal) exactly when
pi1 = 2/pi3 (regulator) and pi1 = 2/pi4 (filter); ``locality_residuals``
measures the distance from those conditions.  Matching the weights to the
noise scales, q1 = sigma_m and r = sigma_d, makes the two conditions
coincide, and both reduce to the dimensional statement

    alpha**2 * sigma_d / (c**2 * sigma_m) = 2,

which involves neither dx nor n: decentralization survives grid refinement.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "DimensionalParams",
    "NondimParams",
    "nondimensionalize",
    "locality_residuals",
]


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0):
        raise ValueError(f"{name} must be positive, got {value!r}")


def _require_finite(name: str, value: float) -> None:
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class DimensionalParams:
    """Physical description of the plant, cost and noise."""

    c: float        # wave speed
    dx: float       # grid spacing
    n: int          # number of ring sites
    q1: float       # displacement cost weight
    q2: float       # velocity cost weight
    r: float        # control effort weight
    sigma_m: float  # measurement noise scale
    sigma_d: float  # disturbance intensity scale
    alpha: float    # gradient-cost length scale (may be zero)

    def __post_init__(self):
        for name in ("c", "dx", "q1", "q2", "r", "sigma_m", "sigma_d"):
            value = getattr(self, name)
            _require_finite(name, value)
            _require_positive(name, value)
        _require_finite("alpha", self.alpha)
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n!r}")


@dataclass(frozen=True)
class NondimParams:
    """The four dimensionless groups plus the grid size."""

    pi1: float
    pi2: float
    pi3: float
    pi4: float
    n: int

    def __post_init__(self):
        _require_finite("pi1", self.pi1)
        if self.pi1 < 0.0:
            raise ValueError(f"pi1 must be nonnegative, got {self.pi1!r}")
        for name in ("pi2", "pi3", "pi4"):
            value = getattr(self, name)
            _require_finite(name, value)
            _require_positive(name, value)
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n!r}")


def nondimensionalize(p: DimensionalParams) -> NondimParams:
    """Collapse a physical parameter set onto the four groups."""
    csq_dxsq = (p.c / p.dx) ** 2
    return NondimParams(
        pi1=(p.alpha / p.dx) ** 2,
        pi2=csq_dxsq * (p.q1 / p.q2) ** 2,
        pi3=p.r / (csq_dxsq * p.q1),
        pi4=p.sigma_d / (csq_dxsq * p.sigma_m),
        n=p.n,
    )


def locality_residuals(p: NondimParams) -> tuple[float, float]:
    """Distance from the complete-decentralization conditions.

    Returns ``(pi1 - 2/pi3, pi1 - 2/pi4)``; the regulator (resp. filter)
    gains are diagonal exactly when the first (resp. second) entry is zero.
    """
    return (p.pi1 - 2.0 / p.pi3, p.pi1 - 2.0 / p.pi4)
