"""Sampled-signal substrate: grids, envelopes, responses and pulse metrics.

All quantities are SI (seconds, meters, rad/s). Frequency axes follow the
DC-centered convention: bin k carries the signed baseband offset
``delta_omega[k] = 2*pi*f_k`` with ``f_k in [-1/(2*dt), 1/(2*dt))`` and the
Nyquist bin assigned to the negative side, i.e. the ordering of
``numpy.fft.fftfreq``.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    The samples are the N-point inverse transform of the band of
    :func:`make_sinc_band` before its unit-peak scale; here the scale is
    the sampled centre value.

    Parameters
    ----------
    grid : FrequencyGrid
    zero_to_zero_width : float
        Separation of the two main-lobe nulls, seconds.
    """
    shape = _sinc_band_shape(grid, zero_to_zero_width)
    n, center = grid.n_samples, grid.n_samples // 2
    spectrum = np.zeros(n, np.complex128)
    spectrum[band_bins(n, shape.size // 2)] = shape
    samples = ifft(spectrum)
    samples = samples * (1.0 / samples[center].real)
    return Envelope(grid, samples)


def make_sinc_band(grid: FrequencyGrid, zero_to_zero_width: float) -> np.ndarray:
    """The DFT of :func:`make_sinc_pulse` on its band bins, built without the pulse.

    The values sit on ``band_bins(n, h)``, h = :func:`sinc_band_bins`, and
    every other bin of the pulse's spectrum is zero. The unit-peak scale
    is the centre sample taken as a sum over these bins, so the values
    match the transform of the sampled pulse to rounding.
    """
    shape = _sinc_band_shape(grid, zero_to_zero_width)
    # at the centre sample n/2 the inverse transform turns bin k by (-1)**k
    signs = 1.0 - 2.0 * (_band_k(shape.size // 2) % 2)
    peak = np.dot(shape.real, signs) / grid.n_samples
    return shape * (1.0 / peak)


def _sinc_band_shape(grid: FrequencyGrid, zero_to_zero_width: float) -> np.ndarray:
    """Unscaled sinc spectrum on ``band_bins(n, h)``: weights times centring phase."""
    w = zero_to_zero_width
    if not (np.isfinite(w) and w > 0):
        raise ValueError("zero_to_zero_width must be positive")
    if grid.window < 8.0 * w:
        raise WindowError(
            f"time window {grid.window:.3e} s is below the 8x guard margin "
            f"for a {w:.3e} s wide pulse"
        )
    h = sinc_band_bins(grid, w)
    weights = np.ones(2 * h + 1)
    weights[[h, h + 1]] = 0.5  # the edge bins +h and -h
    t_c = (grid.n_samples // 2) * grid.dt
    return weights * np.exp(-1j * band_offsets(grid, h) * t_c)


def sinc_band_bins(grid: FrequencyGrid, zero_to_zero_width: float) -> int:
    """Half-band bin count h of a sinc pulse: its spectrum lives on |k| <= h.

    h is pi*B in units of the grid's d_omega, with B = 2/W, rounded to the
    nearest bin (see :func:`make_sinc_pulse`). Raises :class:`WindowError`
    when that band does not fit below the grid's Nyquist bin.
    """
    w_df = zero_to_zero_width * grid.df  # zero once the window leaves the float range
    half_band = 1.0 / w_df if w_df else np.inf  # pi*B in units of d_omega
    # capped at n, which fails the check below, so int() never sees inf
    h = int(round(min(half_band, grid.n_samples)))
    if h > grid.n_samples // 2 - 1:
        raise WindowError(
            "time step too coarse: pulse bandwidth exceeds the grid band"
        )
    return h


def band_bins(n_samples: int, h: int) -> np.ndarray:
    """Indices of the bins |k| <= h of an n-point DFT, in FFT order (0..h, -h..-1)."""
    return np.r_[0 : h + 1, n_samples - h : n_samples]


def _band_k(h: int) -> np.ndarray:
    """Signed bin numbers k of :func:`band_bins`: 0..h, then -h..-1."""
    return np.r_[0 : h + 1, -h:0]


def band_offsets(grid: FrequencyGrid, h: int) -> np.ndarray:
    """``grid.delta_omega`` at :func:`band_bins`, without the N-point axis.

    2*pi*(k*df) is what :func:`numpy.fft.fftfreq` computes, bit for bit.
    """
    return 2.0 * np.pi * (_band_k(h) * grid.df)


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
    return _fwhm(np.abs(e.samples) ** 2, e.grid.dt)


def _fwhm(intensity: np.ndarray, dt: float) -> float:
    """:func:`intensity_fwhm` of the sampled intensity ``|s|^2`` with step ``dt``."""
    peak = intensity.max()
    if peak == 0:
        raise WidthMetricError("cannot measure the width of an all-zero signal")
    half = 0.5 * peak
    above = np.nonzero(intensity >= half)[0]
    i_lo, i_hi = above[0], above[-1]
    one_lobe = above.size == i_hi - i_lo + 1
    return _crossing_width(
        intensity.__getitem__, half, i_lo, i_hi, one_lobe, intensity.size, dt
    )


def _crossing_width(at, half, i_lo, i_hi, one_lobe, n, dt) -> float:
    """The interpolated width between the outermost samples ``i_lo``/``i_hi``.

    ``at(i)`` is the intensity of sample i; ``one_lobe`` is False when a
    sample between them falls below ``half``.
    """
    if not one_lobe:
        warnings.warn(
            "multiple lobes cross half maximum; using outermost crossings",
            stacklevel=4,
        )
    if i_lo == 0 or i_hi == n - 1:
        raise WidthMetricError("half-maximum lobe touches the window edge")
    frac_lo = (at(i_lo) - half) / (at(i_lo) - at(i_lo - 1))
    frac_hi = (at(i_hi) - half) / (at(i_hi) - at(i_hi + 1))
    return ((i_hi - i_lo) + frac_lo + frac_hi) * dt


#: The coarse grid of :func:`band_intensity_fwhm` has at least this many
#: samples per band bin (a power of two, capped at the grid size).
COARSE_PER_BIN = 64
#: Largest table of direct sums band_intensity_fwhm builds: 1 GiB of complex128.
MAX_TABLE_SIZE = 2**26


def band_intensity_fwhm(grid: FrequencyGrid, band: np.ndarray) -> float:
    """:func:`intensity_fwhm` of an envelope whose spectrum lives on a band.

    ``band`` holds the DFT of the envelope on ``grid`` at the bins |k| <= h,
    in the order of :func:`band_bins`; every other bin is zero. The width,
    warning and errors are those of :func:`intensity_fwhm` applied to the
    inverse transform of the whole spectrum, but no N-point array is built:

    - an M-point inverse transform of the band gives every (N/M)-th sample,
      with M = :data:`COARSE_PER_BIN` * h rounded up to a power of two and
      capped at N (where it gives every sample and the rule runs on those);
    - that coarse grid bounds the intensity between its samples, which
      leaves a few (N/M)-sample stretches that may hold the peak or a
      half-maximum crossing;
    - direct sums over the band give the samples of those stretches, and
      the linear-interpolation rule runs on them.

    Raises :class:`WindowError` where the table of those sums would exceed
    :data:`MAX_TABLE_SIZE` values, before allocating it.
    """
    n = grid.n_samples
    h = band.size // 2
    if band.shape != (2 * h + 1,) or 2 * h + 1 >= n:
        raise ValueError(f"expected 2h+1 < {n} band bins, got shape {band.shape}")
    m = min(n, 1 << max(1, (COARSE_PER_BIN * h - 1).bit_length()))
    r = n // m
    if m < n and band.size * (r + 2) > MAX_TABLE_SIZE:
        raise WindowError(
            f"time step too fine: cannot allocate the width metric's "
            f"{band.size}x{r + 2} table of direct sums (at most "
            f"{MAX_TABLE_SIZE} values); use fewer samples"
        )
    coarse = np.zeros(m, np.complex128)
    scale = m / n  # a power of two: exact
    np.multiply(band[: h + 1], scale, out=coarse[: h + 1])
    np.multiply(band[h + 1 :], scale, out=coarse[m - h :])
    intensity = np.abs(ifft(coarse)) ** 2  # |s|^2 at samples 0, r, 2r, ...
    if m == n:
        return _fwhm(intensity, grid.dt)
    return _sparse_fwhm(intensity, _BandSamples(band, n, r), grid.dt)


class _BandSamples:
    """Intensity of the band-limited envelope at any sample, by direct sums.

    Samples are evaluated for whole coarse intervals j at a time, as the
    r+2 samples jr-1..jr+r (indices modulo n), and kept.
    """

    #: Intervals evaluated in one matrix product.
    CHUNK = 64

    def __init__(self, band: np.ndarray, n: int, r: int):
        self.k, self.table = _stretch_table(n, band.size // 2, r)
        self.band = band / n
        self.n, self.r = n, r
        self.known = {}

    def evaluate(self, intervals) -> float:
        """Evaluate the r+2 samples of each of ``intervals``; return the largest."""
        top = -np.inf
        for lo in range(0, len(intervals), self.CHUNK):
            starts = np.asarray(intervals[lo : lo + self.CHUNK]) * self.r - 1
            turns = np.outer(starts, self.k) % self.n  # exact: no phase digits lost
            rotated = self.band * np.exp((2j * np.pi / self.n) * turns)
            chunk = np.abs(rotated @ self.table) ** 2
            for start, row in zip(starts.tolist(), chunk.tolist()):
                self.known.update(zip(range(start, start + self.r + 2), row))
            top = max(top, chunk.max())
        return top

    def at(self, i: int) -> float:
        if i not in self.known:
            self.evaluate([(i + 1) // self.r])
        return self.known[i]


@lru_cache(maxsize=4)
def _stretch_table(n: int, h: int, r: int):
    """Band bin numbers k, and exp(2j*pi*k*t/n) for the offsets t = 0..r+1."""
    k = _band_k(h)
    table = np.exp((2j * np.pi / n) * np.outer(k, np.arange(r + 2)))
    k.setflags(write=False)
    table.setflags(write=False)
    return k, table


def _sparse_fwhm(coarse: np.ndarray, fine: _BandSamples, dt: float) -> float:
    """:func:`_fwhm` of the fine samples, given every r-th of them in ``coarse``.

    The intensity is a trigonometric polynomial of degree 2h over the
    window, so (Bernstein) its second derivative stays below
    (4*pi*h/N)**2 times its maximum. Between two coarse samples it then
    strays from their chord by at most 1/8 of that times r**2, which is
    q = 2*(pi*h/M)**2 times the maximum: ``slack`` bounds that (doubled,
    for rounding). So every sample of interval j (samples jr..jr+r) lies
    in [lower[j], upper[j]], and only the intervals whose bounds straddle
    the peak or half maximum are evaluated sample by sample.
    """
    peak_c = coarse.max()
    if peak_c == 0:
        raise WidthMetricError("cannot measure the width of an all-zero signal")
    r, m = fine.r, coarse.size
    q = 2.0 * (np.pi * (fine.k.size // 2) / m) ** 2
    slack = 2.0 * q / (1.0 - q) * peak_c
    ends = np.append(coarse, coarse[0])  # interval j runs from sample jr to (j+1)r
    upper = np.maximum(ends[:-1], ends[1:]) + slack
    lower = np.minimum(ends[:-1], ends[1:]) - slack
    peak = fine.evaluate(np.nonzero(upper >= peak_c)[0])
    half = 0.5 * peak
    reach = upper >= half  # intervals that may hold a sample >= half
    fine.evaluate(np.nonzero(reach & (lower < half))[0])

    def outermost(intervals, pick):
        # the first interval, in the given order, holding a sample >= half
        for j in intervals.tolist():
            hits = [i for i in range(j * r, j * r + r) if fine.at(i) >= half]
            if hits:
                return pick(hits)
        raise AssertionError("the peak interval holds a sample >= half")

    reach = np.nonzero(reach)[0]
    i_lo = outermost(reach, min)
    i_hi = outermost(reach[::-1], max)
    # a sample between the crossings below half lies in an interval whose
    # lower bound is below half
    first, last = (i_lo + 1) // r, (i_hi - 1) // r
    one_lobe = not any(
        fine.at(i) < half
        for j in (np.nonzero(lower[first : last + 1] < half)[0] + first).tolist()
        for i in range(max(j * r, i_lo + 1), min(j * r + r, i_hi))
    )
    return _crossing_width(fine.at, half, i_lo, i_hi, one_lobe, fine.n, dt)


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
    bandwidth = occupied_bandwidth(e.grid, spectrum)
    _require_window(e.grid, intensity_fwhm(e), bandwidth, accumulated_gvd)


def check_band_wraparound(
    grid: FrequencyGrid, band: np.ndarray, accumulated_gvd: float, width: float
) -> None:
    """:func:`check_wraparound` of the envelope whose spectrum is ``band``.

    ``band`` is laid out as in :func:`band_intensity_fwhm`, and ``width`` is
    that function's value for it. The occupied band reaches the edge bins
    +-h, as a sinc's half-weight edge bins do, so no N-point scan is needed.
    """
    h = band.size // 2
    # delta_omega at bin h, over pi: what occupied_bandwidth reads for a sinc
    bandwidth = float(band_offsets(grid, h)[h] / np.pi)
    _require_window(grid, width, bandwidth, accumulated_gvd)


def _require_window(grid, width, bandwidth, accumulated_gvd) -> None:
    """Raise :class:`WraparoundError` unless the window holds width plus spread."""
    spread = abs(accumulated_gvd) * 2.0 * np.pi * bandwidth
    needed = GUARD_FACTOR * (width + spread)
    if grid.window < needed:
        raise WraparoundError(
            f"time window {grid.window:.3e} s cannot absorb a pulse of "
            f"width {width:.3e} s with dispersive spread {spread:.3e} s "
            f"(need >= {needed:.3e} s)"
        )
