"""Deterministic unequal link-gain profile and its large-system moments.

Gains follow a geometric decay curve sampled at the K midpoints of its
log-range, which keeps the empirical gain distribution stable as K grows
(random shadowing draws would confound convergence studies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerProfile:
    """Link-gain range [beta_min, beta_max] for the geometric decay curve.

    eta parameterizes the nominal decay rate of the underlying curve, but it
    cancels out of the sampled gains because the sampling interval is defined
    through eta as well; it is validated and otherwise inert.
    """

    beta_min: float
    beta_max: float
    eta: float = 0.5

    def __post_init__(self):
        if not 0 < self.beta_min <= self.beta_max:
            raise ValueError(
                f"need 0 < beta_min <= beta_max, got {self.beta_min}, {self.beta_max}"
            )
        if not math.isfinite(self.beta_max):
            raise ValueError(f"beta_max must be finite, got {self.beta_max}")
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")
        moments = limiting_moments(self)
        if not all(math.isfinite(m) and m > 0 for m in moments):
            raise ValueError(
                f"the limiting moments of [{self.beta_min}, {self.beta_max}] are {moments}, "
                "not both finite and positive"
            )


def link_gains(K: int, profile: PowerProfile) -> np.ndarray:
    """K link gains decaying geometrically across the profile range.

    beta_j = beta_max * (beta_min/beta_max) ** ((2j - 1) / (2K)) for
    j = 1..K: midpoint sampling, so gains are strictly inside
    (beta_min, beta_max) and strictly decreasing when the range is proper.
    """
    if K < 1:
        raise ValueError(f"K must be positive, got {K}")
    j = np.arange(1, K + 1)
    ratio = profile.beta_min / profile.beta_max
    return profile.beta_max * ratio ** ((2 * j - 1) / (2 * K))


def limiting_moments(profile: PowerProfile) -> tuple[float, float]:
    """Large-K limits of the average gain and average inverse gain.

    The midpoint-sampled averages are Riemann sums of an exponential curve,
    so the limits are the logarithmic means of beta and 1/beta over the
    range; a degenerate range returns (c, 1/c).
    """
    lo, hi = profile.beta_min, profile.beta_max
    if lo == hi:
        return float(lo), 1.0 / lo
    log_ratio = math.log(hi / lo)
    return (hi - lo) / log_ratio, (1.0 / lo - 1.0 / hi) / log_ratio
