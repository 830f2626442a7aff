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

#: Points of the dense band scan used when higher dispersion orders are set.
N_PROBE = 4097


def _error_magnitude(alpha: float, theta) -> np.ndarray:
    """|1 - sqrt(alpha)*exp(-j*theta)| via the law of cosines."""
    return np.sqrt(1.0 + alpha - 2.0 * math.sqrt(alpha) * np.cos(theta))


def stable(
    alpha: float,
    beta2: float,
    bandwidth_hz: float,
    z_m: float,
    extra_betas: tuple = (),
) -> bool:
    """True iff sup over |delta_omega| <= pi*B of the error magnitude is < 1.

    The test is strict with a :data:`CONTRACTION_MARGIN` guard. With only
    beta2 present the supremum sits at the band edge (the magnitude is
    monotone in the accumulated phase while it stays below pi), so the edge
    value decides; configured higher orders ``extra_betas = (beta3, ...)``
    switch to a dense numeric scan of the band at :data:`N_PROBE` points.
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if z_m < 0:
        raise ValueError("z must be non-negative")
    edge = math.pi * bandwidth_hz
    if not extra_betas:
        theta_edge = abs(beta2) / 2.0 * edge**2 * z_m
        if theta_edge >= math.pi:
            return False
        worst = _error_magnitude(alpha, theta_edge)
    else:
        dw = np.linspace(-edge, edge, N_PROBE)
        theta = beta2 / 2.0 * dw**2
        power = dw**2
        for i, beta_i in enumerate(extra_betas, start=3):
            power = power * dw
            theta = theta + beta_i / math.factorial(i) * power
        worst = float(np.max(_error_magnitude(alpha, z_m * theta)))
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
