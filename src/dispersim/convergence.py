"""Stability of the compensating cascade and the length-bandwidth trade-off.

The cascade converges on a band iff the sub-system error response stays
strictly inside the unit circle there: |1 - sqrt(alpha)*exp(-j*theta)| < 1
with theta the dispersion phase accumulated over the target span. For a
beta2-only span this reduces to a closed-form bound on
``|beta2|/2 * (pi*B)^2 * z`` evaluated at the band edge delta_omega = pi*B,
which yields the maximum stable transmission length for a given bandwidth.
"""

import math

import numpy as np

from .iterative import CONTRACTION_MARGIN


def stable(alpha: float, beta2: float, bandwidth_hz: float, z_m: float) -> bool:
    """True iff sup over |delta_omega| <= pi*B of the error magnitude is < 1.

    The test is strict with a :data:`CONTRACTION_MARGIN` guard. For a
    beta2-only span the supremum sits at the band edge (the magnitude is
    monotone in the accumulated phase while it stays below pi), so the edge
    value decides.
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if z_m < 0:
        raise ValueError("z must be non-negative")
    theta_edge = abs(beta2) / 2.0 * (math.pi * bandwidth_hz) ** 2 * z_m
    if theta_edge >= math.pi:
        return False
    # |1 - sqrt(alpha)*exp(-j*theta)| via the law of cosines
    worst = np.sqrt(1.0 + alpha - 2.0 * math.sqrt(alpha) * np.cos(theta_edge))
    return worst < 1.0 - CONTRACTION_MARGIN


def z_max(bandwidth_hz: float, alpha: float, beta2: float) -> float:
    """Longest stable span for a given band: 2*acos(sqrt(alpha)/2) / (|beta2|*(pi*B)^2).

    Unbounded (inf) when beta2 is zero.
    """
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if beta2 == 0:
        return math.inf
    return (
        2.0
        * math.acos(math.sqrt(alpha) / 2.0)
        / (abs(beta2) * (math.pi * bandwidth_hz) ** 2)
    )
