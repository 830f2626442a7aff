"""Fiber parameterization and the all-pass dispersion response.

A fiber is described by the Taylor coefficients ``beta_i`` of its
propagation constant around the carrier (beta0 rad/m, beta1 s/m, beta2
s^2/m, ...). Linear propagation over length z multiplies the spectrum by
``exp(-j * z * sum_i beta_i / i! * delta_omega^i)``; simulations run in the
retarded frame, so only orders i >= 2 enter the sampled phase while beta0
and beta1 stay available as bookkeeping constants.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.fft import fft, ifft

from .signal import Envelope, FrequencyGrid, TransferFunction, check_wraparound

# ps/nm/km expressed in s/m^2
_D_CONVENTIONAL = 1e-6
# ps^2/km expressed in s^2/m
_BETA2_CONVENTIONAL = 1e-27


def _lambda0_squared(lambda0_m: float) -> float:
    """lambda0**2 of a positive lambda0 whose square is a positive finite double."""
    try:
        square = lambda0_m**2
    except OverflowError:
        square = math.inf
    if not (lambda0_m > 0 and 0 < square < math.inf):
        raise ValueError(
            f"wavelength {lambda0_m:g} m is out of range: it must be positive "
            "and finite, and its square neither overflows nor underflows"
        )
    return square


def d_to_beta2(d_ps_nm_km: float, lambda0_m: float) -> float:
    """Convert a dispersion coefficient D (ps/nm/km) to beta2 (s^2/m)."""
    square = _lambda0_squared(lambda0_m)
    d_si = d_ps_nm_km * _D_CONVENTIONAL
    # + 0.0 normalizes the negative zero that the sign flip produces at D = 0
    return -d_si * square / (2.0 * np.pi * SPEED_OF_LIGHT) + 0.0


def beta2_to_d(beta2_s2_m: float, lambda0_m: float) -> float:
    """Convert beta2 (s^2/m) to the dispersion coefficient D (ps/nm/km)."""
    square = _lambda0_squared(lambda0_m)
    d_si = -beta2_s2_m * 2.0 * np.pi * SPEED_OF_LIGHT / square
    return d_si / _D_CONVENTIONAL + 0.0


@dataclass(frozen=True)
class FiberParams:
    """Propagation-constant coefficients and length of one fiber span.

    ``betas[i]`` has units s^i/m; at least beta0..beta2 must be present.
    """

    betas: tuple
    length_m: float

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if len(betas) < 3:
            raise ValueError("betas must include beta0, beta1 and beta2")
        if not all(math.isfinite(b) for b in betas):
            raise ValueError("betas must be finite")
        if not (math.isfinite(self.length_m) and self.length_m >= 0):
            raise ValueError("length_m must be non-negative and finite")
        object.__setattr__(self, "betas", betas)

    @property
    def beta0(self) -> float:
        return self.betas[0]

    @property
    def beta1(self) -> float:
        return self.betas[1]

    @property
    def beta2(self) -> float:
        return self.betas[2]


def dispersion_tf(fiber: FiberParams, grid: FrequencyGrid) -> TransferFunction:
    """All-pass response of one span in the retarded frame.

    Only orders i >= 2 contribute: exp(-j*z*sum_{i>=2} beta_i/i! * dw^i).
    """
    dw = grid.delta_omega
    phase_per_m = np.zeros(grid.n_samples)
    power = dw * dw
    for i in range(2, len(fiber.betas)):
        phase_per_m = phase_per_m + fiber.betas[i] / math.factorial(i) * power
        power = power * dw
    return TransferFunction(grid, np.exp(-1j * fiber.length_m * phase_per_m))


def propagate(e: Envelope, fiber: FiberParams) -> Envelope:
    """Propagate an envelope through one span in the retarded frame.

    Rejects configurations where the dispersive spread would wrap around
    the circular time window. The input is transformed once, for the guard
    and the product alike, and the product is formed in place.
    """
    spectrum = fft(e.samples)
    check_wraparound(e, spectrum, fiber.beta2 * fiber.length_m)
    spectrum *= dispersion_tf(fiber, e.grid).values
    return Envelope(e.grid, ifft(spectrum, overwrite_x=True))
