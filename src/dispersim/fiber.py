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
    intensity_fwhm,
)


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
    spectrum, dw = fft(e.samples), e.grid.delta_omega
    gvd = fiber.beta2 * fiber.length_m
    check_wraparound(e.grid, dw, spectrum, intensity_fwhm(e), gvd)
    spectrum *= dispersion_response(fiber, dw)
    return Envelope(e.grid, ifft(spectrum))
