"""Sampled-signal substrate: grids, envelopes, responses and pulse metrics.

All quantities are SI (seconds, meters, rad/s). Frequency axes follow the
DC-centered convention: bin k carries the signed baseband offset
``delta_omega[k] = 2*pi*f_k`` with ``f_k in [-1/(2*dt), 1/(2*dt))`` and the
Nyquist bin assigned to the negative side, i.e. the ordering of
``numpy.fft.fftfreq``.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import fftfreq


class GridMismatchError(ValueError):
    """Raised when two sampled objects do not share the same grid."""


class WindowError(ValueError):
    """Raised when a pulse does not fit the requested time window."""


class WraparoundError(RuntimeError):
    """Raised when a circular spectral operation would wrap in time."""


class WidthMetricError(ValueError):
    """Raised when a pulse has no measurable half-maximum width."""


def fft(x):
    """Forward DFT of ``x`` (numpy's pocketfft), into a new array."""
    return np.fft.fft(x)


def ifft(x):
    """Inverse DFT of ``x``, written in place into ``x``.

    ``x`` must be a complex128 array that the caller no longer needs.
    """
    return np.fft.ifft(x, out=x)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform sampling grid: ``n_samples`` points spaced ``dt`` seconds.

    The time window is ``n_samples * dt`` and the frequency resolution is
    ``df = 1 / (n_samples * dt)``.
    """

    n_samples: int
    dt: float

    def __post_init__(self):
        n = self.n_samples
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"n_samples must be an integer, got {n!r}")
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_samples must be a power of two >= 2, got {n}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    @cached_property
    def df(self) -> float:
        return 1.0 / (self.n_samples * self.dt)

    @cached_property
    def window(self) -> float:
        """Total time span of the grid in seconds."""
        return self.n_samples * self.dt

    @cached_property
    def delta_omega(self) -> np.ndarray:
        """Signed baseband offsets 2*pi*f_k (rad/s), FFT bin order."""
        dw = 2.0 * np.pi * fftfreq(self.n_samples, self.dt)
        dw.setflags(write=False)
        return dw

    @cached_property
    def bin_index(self) -> np.ndarray:
        """Signed bin numbers k with f_k = k*df (Nyquist bin is -n/2)."""
        k = np.rint(fftfreq(self.n_samples, 1.0) * self.n_samples).astype(int)
        k.setflags(write=False)
        return k

    @cached_property
    def time_axis(self) -> np.ndarray:
        t = np.arange(self.n_samples) * self.dt
        t.setflags(write=False)
        return t


def _as_complex_grid_array(values, grid: FrequencyGrid) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).copy()
    if arr.ndim != 1 or arr.size != grid.n_samples:
        raise ValueError(
            f"expected {grid.n_samples} samples, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("samples must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Envelope:
    """Complex baseband field samples on a grid's time axis."""

    grid: FrequencyGrid
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "samples", _as_complex_grid_array(self.samples, self.grid)
        )

    @property
    def energy(self) -> float:
        """Integrated power sum(|s|^2) * dt."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.dt)


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Complex frequency response sampled on a grid, FFT bin order."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_complex_grid_array(self.values, self.grid)
        )

    def __mul__(self, other: "TransferFunction") -> "TransferFunction":
        if self.grid != other.grid:
            raise GridMismatchError("cannot compose responses on different grids")
        return TransferFunction(self.grid, self.values * other.values)


def apply_tf(e: Envelope, h: TransferFunction) -> Envelope:
    """Multiply the envelope's spectrum bin-wise by ``h``.

    The multiplication is circular in time: content shifted past the window
    edge wraps around. Callers that model physical propagation should guard
    with :func:`check_wraparound`.
    """
    if e.grid != h.grid:
        raise GridMismatchError(
            f"envelope grid ({e.grid.n_samples} x {e.grid.dt!r}) does not match "
            f"response grid ({h.grid.n_samples} x {h.grid.dt!r})"
        )
    return Envelope(e.grid, ifft(fft(e.samples) * h.values))


def make_sinc_pulse(grid: FrequencyGrid, zero_to_zero_width: float) -> Envelope:
    """Band-limited sinc pulse of unit peak, centered mid-window.

    The main-lobe nulls are separated by ``zero_to_zero_width`` (W) and the
    two-sided baseband bandwidth is B = 2/W, i.e. the spectrum is a flat
    rectangle over |delta_omega| <= pi*B.

    The pulse is synthesized in the frequency domain on the nearest
    bin-aligned band (half weight on the edge bins), which keeps the
    out-of-band spectral content at rounding level instead of the ~1e-1
    leakage a time-truncated sinc would exhibit. The realized bandwidth is
    quantized to the grid; it is exact whenever the window is an integer
    multiple of W.

    Parameters
    ----------
    grid : FrequencyGrid
    zero_to_zero_width : float
        Separation of the two main-lobe nulls, seconds.
    """
    w = zero_to_zero_width
    if not (np.isfinite(w) and w > 0):
        raise ValueError("zero_to_zero_width must be positive")
    if grid.window < 8.0 * w:
        raise WindowError(
            f"time window {grid.window:.3e} s is below the 8x guard margin "
            f"for a {w:.3e} s wide pulse"
        )
    w_df = w * grid.df  # zero once the window leaves the float range
    half_band = 1.0 / w_df if w_df else np.inf  # pi*B in units of d_omega
    # capped at n, which fails the check below, so int() never sees inf
    half_band_bins = int(round(min(half_band, grid.n_samples)))
    if half_band_bins > grid.n_samples // 2 - 1:
        raise WindowError(
            "time step too coarse: pulse bandwidth exceeds the grid band"
        )
    k = np.abs(grid.bin_index)
    weights = np.where(k < half_band_bins, 1.0, 0.0)
    weights[k == half_band_bins] = 0.5
    center = grid.n_samples // 2
    t_c = center * grid.dt
    samples = ifft(weights * np.exp(-1j * grid.delta_omega * t_c))
    samples = samples * (1.0 / samples[center].real)
    return Envelope(grid, samples)


def make_gaussian_pulse(grid: FrequencyGrid, t0: float) -> Envelope:
    """Unchirped Gaussian ``exp(-(t-t_c)^2 / (2*t0^2))``: unit peak, mid-window.

    ``t0`` is the half-width at the 1/e point of the intensity |s|^2; the
    intensity FWHM is ``2*sqrt(ln 2)*t0``.
    """
    if not (np.isfinite(t0) and t0 > 0):
        raise ValueError("t0 must be positive")
    if t0 < 4.0 * grid.dt:
        raise WindowError(f"t0 = {t0:.3e} s under-resolved: need t0 >= 4*dt")
    if grid.window < 16.0 * t0:
        raise WindowError(
            f"time window {grid.window:.3e} s too small: need >= 16*t0"
        )
    t_c = (grid.n_samples // 2) * grid.dt
    tau = grid.time_axis - t_c
    samples = np.exp(-(tau**2) / (2.0 * t0**2))
    return Envelope(grid, samples.astype(np.complex128))


def intensity_fwhm(e: Envelope) -> float:
    """Full width at half maximum of |s(t)|^2, seconds.

    Crossings are located by linear interpolation of the intensity between
    samples. If several lobes exceed half maximum the outermost crossings
    are used and a warning is emitted. The width is computed from fractional
    bin offsets only, so it is invariant under integer-sample delays. An
    all-zero signal or a lobe on the window edge raises
    :class:`WidthMetricError`.
    """
    intensity = np.abs(e.samples) ** 2
    peak = intensity.max()
    if peak == 0:
        raise WidthMetricError("cannot measure the width of an all-zero signal")
    half = 0.5 * peak
    above = np.nonzero(intensity >= half)[0]
    i_lo, i_hi = above[0], above[-1]
    if above.size != i_hi - i_lo + 1:
        warnings.warn(
            "multiple lobes cross half maximum; using outermost crossings",
            stacklevel=2,
        )
    if i_lo == 0 or i_hi == e.grid.n_samples - 1:
        raise WidthMetricError("half-maximum lobe touches the window edge")
    frac_lo = (intensity[i_lo] - half) / (intensity[i_lo] - intensity[i_lo - 1])
    frac_hi = (intensity[i_hi] - half) / (intensity[i_hi] - intensity[i_hi + 1])
    return ((i_hi - i_lo) + frac_lo + frac_hi) * e.grid.dt


#: Identifier of the pulse-width metric, recorded in all emitted outputs.
WIDTH_METRIC = "fwhm_intensity_linear_interp"


def broadening_factor(tx: Envelope, rx: Envelope) -> float:
    """Ratio of received to transmitted pulse width (:data:`WIDTH_METRIC`)."""
    if tx.grid != rx.grid:
        raise GridMismatchError("tx and rx must share a grid")
    return intensity_fwhm(rx) / intensity_fwhm(tx)


#: A bin is occupied when its magnitude exceeds this fraction of the peak.
OCCUPIED_THRESHOLD = 1e-6
#: The time window must exceed pulse width plus dispersive spread this many times.
GUARD_FACTOR = 4.0


def occupied_bandwidth(grid: FrequencyGrid, spectrum: np.ndarray) -> float:
    """Two-sided bandwidth B = max occupied |delta_omega| / pi, Hz.

    ``spectrum`` holds FFT samples on ``grid``; a bin counts as occupied
    when its magnitude exceeds :data:`OCCUPIED_THRESHOLD` times the peak.
    """
    mag = np.abs(spectrum)
    peak = mag.max()
    if peak == 0:
        return 0.0
    occupied = mag > OCCUPIED_THRESHOLD * peak
    return float(np.max(np.abs(grid.delta_omega[occupied])) / np.pi)


def check_wraparound(
    e: Envelope, spectrum: np.ndarray, accumulated_gvd: float
) -> None:
    """Reject circular propagation that could wrap in time.

    ``spectrum`` is ``fft(e.samples)``, which the caller transforms anyway.
    ``accumulated_gvd`` is the worst-case |beta2 * length| product of the
    operation about to be applied (s^2). The dispersive spread across the
    occupied band 2*pi*B is ``accumulated_gvd * 2*pi*B`` and the time window
    must exceed pulse width plus spread by :data:`GUARD_FACTOR`.
    """
    width = intensity_fwhm(e)
    band = occupied_bandwidth(e.grid, spectrum)
    spread = abs(accumulated_gvd) * 2.0 * np.pi * band
    needed = GUARD_FACTOR * (width + spread)
    if e.grid.window < needed:
        raise WraparoundError(
            f"time window {e.grid.window:.3e} s cannot absorb a pulse of "
            f"width {width:.3e} s with dispersive spread {spread:.3e} s "
            f"(need >= {needed:.3e} s)"
        )
