"""Fiber spans and the all-pass dispersion response.

A span is described by its group-velocity dispersion beta2 (s^2/m) and its
length z. Simulations run in the retarded frame, so linear propagation
over z multiplies the spectrum by ``exp(-j * z * beta2/2 * delta_omega^2)``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .signal import (
    Envelope,
    FrequencyGrid,
    TransferFunction,
    check_wraparound,
    fft,
    ifft,
)

#: Speed of light in vacuum, m/s (exact in the SI).
SPEED_OF_LIGHT = 299792458.0

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
    """Group-velocity dispersion ``beta2`` (s^2/m) and length of one span."""

    beta2: float
    length_m: float

    def __post_init__(self):
        if not math.isfinite(self.beta2):
            raise ValueError("beta2 must be finite")
        if not (math.isfinite(self.length_m) and self.length_m >= 0):
            raise ValueError("length_m must be non-negative and finite")

    @property
    def betas(self) -> tuple:
        # (beta0, beta1, beta2) in the retarded frame; perfbench/tracer.py keys on it
        return (0.0, 0.0, self.beta2)


def dispersion_response(fiber: FiberParams, dw: np.ndarray) -> np.ndarray:
    """Values exp(-j*z*beta2/2*dw^2) of one span's response at the offsets ``dw``.

    ``dw`` holds baseband offsets in rad/s: a grid's ``delta_omega`` or any
    subset of it, such as the bins of a signal band.
    """
    phase_per_m = fiber.beta2 / 2 * (dw * dw)
    return np.exp(-1j * fiber.length_m * phase_per_m)


def dispersion_tf(fiber: FiberParams, grid: FrequencyGrid) -> TransferFunction:
    """All-pass response exp(-j*z*beta2/2*dw^2) of one span in the retarded frame."""
    return TransferFunction(grid, dispersion_response(fiber, grid.delta_omega))


def propagate(e: Envelope, fiber: FiberParams) -> Envelope:
    """Propagate an envelope through one span in the retarded frame.

    Rejects configurations where the dispersive spread would wrap around
    the circular time window. The input is transformed once, for the guard
    and the product alike, and the product with :func:`dispersion_response`
    on the grid is formed in place.
    """
    spectrum = fft(e.samples)
    check_wraparound(e, spectrum, fiber.beta2 * fiber.length_m)
    spectrum *= dispersion_response(fiber, e.grid.delta_omega)
    return Envelope(e.grid, ifft(spectrum))
