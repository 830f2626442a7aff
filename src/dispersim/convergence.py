"""Stability of the compensating cascade and the length-bandwidth trade-off.

The cascade converges on a band iff the sub-system error response stays
strictly inside the unit circle there: |1 - sqrt(alpha)*exp(-j*theta)| < 1
with theta the dispersion phase accumulated over the target span. For a
beta2-only span this reduces to a closed-form bound on the phase
:func:`edge_phase` at the band edge delta_omega = pi*B, which yields the
maximum stable transmission length for a given bandwidth.
"""

import cmath
import math
import sys

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


def _check_band(alpha: float, beta2: float, bandwidth_hz: float) -> None:
    """Raise ValueError unless 0 < alpha <= 1, beta2 is finite and 0 < B < inf.

    Every comparison is written so that NaN fails it.
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if not math.isfinite(beta2):
        raise ValueError("beta2 must be finite")
    if not 0 < bandwidth_hz < math.inf:
        raise ValueError("bandwidth must be positive and finite")


def edge_error(alpha: float, beta2: float, bandwidth_hz: float, z_m: float) -> float:
    """Worst in-band error magnitude: sup of |1 - sqrt(alpha)*exp(-j*theta)|.

    The supremum over |delta_omega| <= pi*B sits at the band edge, because
    the magnitude grows with the accumulated phase up to pi, where it peaks
    at 1 + sqrt(alpha); :func:`edge_phase` is capped there. K stages leave an
    in-band error of at most this value to the power K+1. The complex
    modulus keeps its digits at small phase, where the law of cosines
    1 + alpha - 2*sqrt(alpha)*cos(theta) cancels.
    """
    _check_band(alpha, beta2, bandwidth_hz)
    if not 0 <= z_m < math.inf:
        raise ValueError("z must be non-negative and finite")
    theta_edge = min(edge_phase(beta2, bandwidth_hz, z_m), math.pi)
    return abs(1 - math.sqrt(alpha) * cmath.exp(-1j * theta_edge))


def stable(alpha: float, beta2: float, bandwidth_hz: float, z_m: float) -> bool:
    """True iff :func:`edge_error` < 1 - :data:`CONTRACTION_MARGIN` (a strict test)."""
    return bool(edge_error(alpha, beta2, bandwidth_hz, z_m) < 1.0 - CONTRACTION_MARGIN)


def z_max(bandwidth_hz: float, alpha: float, beta2: float) -> float:
    """Longest stable span for a given band: the z where theta_e = acos(sqrt(alpha)/2).

    Unbounded (inf) when beta2 is 0 or the phase over one metre underflows to 0.
    Zero beta2 returns first: with a huge band, (pi*B)^2 would overflow.
    """
    _check_band(alpha, beta2, bandwidth_hz)
    if beta2 == 0 or (unit_phase := edge_phase(beta2, bandwidth_hz, 1.0)) == 0:
        return math.inf
    return math.acos(math.sqrt(alpha) / 2.0) / unit_phase
