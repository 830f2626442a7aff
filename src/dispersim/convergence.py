"""Stability of the compensating cascade and the length-bandwidth trade-off.

The cascade converges on a band iff the sub-system error response stays
strictly inside the unit circle there: |1 - sqrt(alpha)*exp(-j*theta)| < 1
with theta the dispersion phase accumulated over the target span. For a
beta2-only span this reduces to a closed-form bound on the phase
:func:`edge_phase` at the band edge delta_omega = pi*B, which yields the
maximum stable transmission length for a given bandwidth.
"""

import math
import sys

import numpy as np

from .iterative import CONTRACTION_MARGIN


def dispersion_strength(beta2: float, z_m: float, bandwidth_hz: float) -> float:
    """Dimensionless xi = |beta2| * z * (2*pi*B)^2.

    When |beta2| * z leaves the normal double range, xi is the per-metre
    strength times z instead: multiplying first would lose digits, or all of
    them, to underflow.
    """
    omega_sq = (2.0 * math.pi * bandwidth_hz) ** 2
    beta2_z = abs(beta2) * z_m
    if beta2_z < sys.float_info.min and beta2 and z_m:
        return abs(beta2) * omega_sq * z_m
    return beta2_z * omega_sq


def span_length(xi: float, beta2: float, bandwidth_hz: float) -> float:
    """Span z of dispersion strength xi: xi / (|beta2| * (2*pi*B)^2)."""
    return xi / dispersion_strength(beta2, 1.0, bandwidth_hz)


def edge_phase(beta2: float, bandwidth_hz: float, z_m: float) -> float:
    """Dispersion phase theta_e = |beta2|/2 * (pi*B)^2 * z at the band edge.

    The halving comes last: halving a subnormal |beta2| first can round it
    to zero and make :func:`z_max` divide by zero.
    """
    return abs(beta2) * (math.pi * bandwidth_hz) ** 2 * z_m / 2.0


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
    theta_edge = edge_phase(beta2, bandwidth_hz, z_m)
    if theta_edge >= math.pi:
        return False
    # |1 - sqrt(alpha)*exp(-j*theta)| via the law of cosines
    worst = np.sqrt(1.0 + alpha - 2.0 * math.sqrt(alpha) * np.cos(theta_edge))
    return worst < 1.0 - CONTRACTION_MARGIN


def z_max(bandwidth_hz: float, alpha: float, beta2: float) -> float:
    """Longest stable span for a given band: the z where theta_e = acos(sqrt(alpha)/2).

    Unbounded (inf) when beta2 is zero.
    """
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if beta2 == 0:
        return math.inf
    return math.acos(math.sqrt(alpha) / 2.0) / edge_phase(beta2, bandwidth_hz, 1.0)
