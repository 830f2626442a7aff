"""Sampled-signal substrate: grids, envelopes, responses and pulse metrics.

All quantities are SI (seconds, meters, rad/s). Frequency axes follow the
DC-centered convention: bin k carries the signed baseband offset
``delta_omega[k] = 2*pi*f_k`` with ``f_k in [-1/(2*dt), 1/(2*dt))`` and the
Nyquist bin assigned to the negative side, i.e. the ordering of
``numpy.fft.fftfreq``.

A sinc pulse is defined once, by its band (:func:`make_sinc_band`):
:func:`make_sinc_pulse` is that band's inverse transform (:func:`band_samples`).
A band-limited envelope can be measured from its band bins alone:
``band_intensity_fwhm(reference, band)`` bounds the intensity between the
samples of a coarse transform and sums the band directly where the bounds
leave the peak or a half-maximum crossing open. The reference, a
:func:`band_reference` built once for every band it measures, checks the
band size and the tables of those sums once, measures its own band's width,
and holds its coarse bounds, which, widened by a band's L1 distance from it,
bound any band nearby without a transform of its own.

:func:`check_wraparound` is the one window guard, for a whole spectrum at
``grid.delta_omega`` and for a band at its :func:`band_offsets` alike: it
reads the occupied band from the spectrum at its own offsets.
"""

import sys
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


def is_integer(x) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
        if not is_integer(n):
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

    The samples are the N-point inverse transform of :func:`make_sinc_band`
    (:func:`band_samples`), so the pulse has no scale of its own and its
    transform is the band, with every other bin zero. That keeps the
    out-of-band spectral content at rounding level instead of the ~1e-1
    leakage a time-truncated sinc would exhibit.

    Parameters
    ----------
    grid : FrequencyGrid
    zero_to_zero_width : float
        Separation of the two main-lobe nulls, seconds.
    """
    return Envelope(grid, band_samples(grid, make_sinc_band(grid, zero_to_zero_width)))


def make_sinc_band(grid: FrequencyGrid, zero_to_zero_width: float) -> np.ndarray:
    """The spectrum of the sinc pulse of :func:`make_sinc_pulse` on its band bins.

    The values sit on ``band_bins(n, h)``, h = :func:`sinc_band_bins`: the
    nearest bin-aligned band (half weight on the edge bins) times the phase
    that centres the pulse on sample N/2. The realized bandwidth is
    quantized to the grid; it is exact whenever the window is an integer
    multiple of W. The unit-peak scale is the centre sample taken as a sum
    over these bins, so the pulse's centre sample is 1 to rounding.
    """
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
    shape = weights * np.exp(-1j * band_offsets(grid, h) * t_c)
    # at the centre sample n/2 the inverse transform turns bin k by (-1)**k
    signs = 1.0 - 2.0 * (_band_k(h) % 2)
    peak = np.dot(shape.real, signs) / grid.n_samples
    return shape * (1.0 / peak)


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


def band_samples(grid: FrequencyGrid, band: np.ndarray) -> np.ndarray:
    """The samples on ``grid`` whose DFT is ``band`` on its bins and zero elsewhere.

    ``band`` holds 2h+1 bins in the order of :func:`band_bins`, as in
    :func:`band_intensity_fwhm`; the result is the N-point inverse transform
    of the zero-padded spectrum, in a new array.
    """
    return _padded_ifft(band, grid.n_samples)


def _padded_ifft(band: np.ndarray, m: int) -> np.ndarray:
    """The m-point inverse transform of ``band`` on its bins, zero elsewhere."""
    h = band.size // 2
    spectrum = np.zeros(m, np.complex128)
    spectrum[: h + 1] = band[: h + 1]
    spectrum[m - h :] = band[h + 1 :]
    return ifft(spectrum)


def make_gaussian_pulse(grid: FrequencyGrid, t0: float) -> Envelope:
    """Unchirped Gaussian ``exp(-(t-t_c)^2 / (2*t0^2))``: unit peak, mid-window.

    ``t0`` is the half-width at the 1/e point of the intensity |s|^2; the
    intensity FWHM is ``2*sqrt(ln 2)*t0``. Besides the window rules, t0**2
    and the squared half window must be normal finite doubles.
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
    # tau**2 reaches t_c**2, and the window rule above keeps 2*t0**2 below it
    tiny = sys.float_info.min
    if not (tiny <= float(t0) * float(t0) and float(t_c) * float(t_c) < np.inf):
        raise ValueError(
            f"t0 = {t0:.3e} s is out of range: t0**2 and the squared half "
            f"window ({t_c:.3e} s)**2 must be normal finite doubles"
        )
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
        half, i_lo, i_hi, one_lobe, intensity.size, dt,
        lambda: intensity[[i_lo - 1, i_lo, i_hi, i_hi + 1]],
    )


def _crossing_width(half, i_lo, i_hi, one_lobe, n, dt, edges) -> float:
    """The interpolated width between the outermost samples ``i_lo``/``i_hi``.

    ``one_lobe`` is False when a sample between them falls below ``half``.
    ``edges()`` gives the intensity at i_lo - 1, i_lo, i_hi and i_hi + 1; it
    is asked only once none of them lies outside the window.
    """
    if not one_lobe:
        warnings.warn(
            "multiple lobes cross half maximum; using outermost crossings",
            stacklevel=4,
        )
    if i_lo == 0 or i_hi == n - 1:
        raise WidthMetricError("half-maximum lobe touches the window edge")
    out_lo, in_lo, in_hi, out_hi = edges()
    frac_lo = (in_lo - half) / (in_lo - out_lo)
    frac_hi = (in_hi - half) / (in_hi - out_hi)
    return ((i_hi - i_lo) + frac_lo + frac_hi) * dt


#: The coarse grid of :func:`band_intensity_fwhm` has at least this many
#: samples per band bin (a power of two, capped at the grid size).
COARSE_PER_BIN = 64
#: Largest tables of direct sums band_intensity_fwhm builds, the sums and
#: the roots of unity together: 1 GiB of complex128.
MAX_TABLE_SIZE = 2**26
#: :class:`BandReference` widens a band's distance by this factor, far more
#: than the relative rounding of a sum over the 2h+1 < MAX_TABLE_SIZE bins.
_DISTANCE_MARGIN = 1.0 + 2.0**-20
#: :func:`band_reference` gives no bounds for a coarse peak outside this
#: range, so that every bound it widens stays far inside the double range.
_REFERENCE_PEAKS = (2.0**-500, 2.0**500)


def band_intensity_fwhm(reference: "BandReference", band: np.ndarray) -> float:
    """:func:`intensity_fwhm` of an envelope whose spectrum lives on a band.

    ``band`` holds the DFT of the envelope on ``reference.grid`` at the bins
    |k| <= h of the reference's band, in the order of :func:`band_bins`;
    every other bin is zero. The width, warning and errors are those of
    :func:`intensity_fwhm` applied to the inverse transform of the whole
    spectrum, but no N-point array is built:

    - an M-point inverse transform of the band gives every (N/M)-th sample,
      with M = :data:`COARSE_PER_BIN` * h rounded up to a power of two and
      capped at N (where it gives every sample and the rule runs on those);
    - that coarse grid bounds the intensity between its samples, which
      leaves a few (N/M)-sample stretches that may hold the peak or a
      half-maximum crossing;
    - direct sums over the band give the samples of those stretches, and
      the linear-interpolation rule runs on them.

    Where ``band`` lies close enough to the :func:`band_reference`, the
    reference's bounds stand in for the coarse grid, and ``band`` needs no
    transform; the result, warning and errors are the same bits either way.
    A reference of a zero band bounds no band. Raises ValueError for a band
    of another size, or one that is not finite (:meth:`BandReference.bounds`).
    """
    grid, m = reference.grid, reference.m
    n = grid.n_samples
    bounds = reference.bounds(band)
    if bounds is None:
        coarse = _coarse_intensity(band, n, m)
        if m == n:
            return _fwhm(coarse, grid.dt)
        bounds = _chord_bounds(coarse, band.size // 2)
    return _sparse_fwhm(*bounds, _BandSamples(band, n, m), grid.dt)


def _coarse_intensity(band: np.ndarray, n: int, m: int) -> np.ndarray:
    """|s|^2 at the samples 0, r, 2r, ... (r = n/m), by an m-point inverse transform."""
    return np.abs(_padded_ifft(band * (m / n), m)) ** 2  # m/n is a power of two: exact


def _slack(peak: float, h: int, m: int) -> float:
    """How far the intensity may stray from the chord of two coarse samples, doubled.

    The intensity is a trigonometric polynomial of degree 2h over the
    window, so (Bernstein) its second derivative stays below (4*pi*h/N)**2
    times its maximum. Between two coarse samples it then strays from their
    chord by at most 1/8 of that times r**2, which is q = 2*(pi*h/M)**2
    times the maximum, and the maximum is at most peak / (1 - q). The
    factor 2 is room for rounding.
    """
    q = 2.0 * (np.pi * h / m) ** 2
    return 2.0 * q / (1.0 - q) * peak


def _chord_bounds(coarse: np.ndarray, h: int):
    """The (upper, lower, floor) bounds of :func:`_sparse_fwhm` from the coarse samples.

    Interval j runs from coarse sample j to j + 1 (the last one wraps to 0);
    its bounds are their chord widened by :func:`_slack`, and the floor is
    the largest coarse sample.
    """
    peak = coarse.max()
    slack = _slack(peak, h, coarse.size)
    ends = np.append(coarse, coarse[0])
    upper = np.maximum(ends[:-1], ends[1:]) + slack
    lower = np.minimum(ends[:-1], ends[1:]) - slack
    return upper, lower, peak


@dataclass(frozen=True, eq=False)
class BandReference:
    """One band, its width, and the coarse bounds that bound the bands near it.

    For two bands b and b0 on the same bins, the inverse DFT sum and the
    triangle inequality give |s_b(t) - s_b0(t)| <= eps = ||b - b0||_1 / N at
    every sample t. So b0's bounds on its amplitude |s_b0| over each coarse
    interval, widened by eps, bound b's intensity there too, and the
    amplitude at b0's largest coarse sample, less eps, is a floor for b's
    peak. They are used while eps <= ``reach`` = slack / (2*sqrt(peak)),
    b0's :func:`_slack` and coarse peak: there the widened bounds are at most
    about twice as loose as b's own would be. A reference without bounds
    has reach -inf and bounds no band. ``m`` is the size M of the coarse
    grid of :func:`band_intensity_fwhm`. Build one with :func:`band_reference`.
    """

    grid: FrequencyGrid
    band: np.ndarray
    m: int
    amplitude_upper: np.ndarray | None
    amplitude_lower: np.ndarray | None
    amplitude_peak: float | None
    reach: float

    @cached_property
    def width(self) -> float:
        """:func:`band_intensity_fwhm` of the band, measured on first use."""
        return band_intensity_fwhm(self, self.band)

    @cached_property
    def offsets(self) -> np.ndarray:
        """:func:`band_offsets` of the band's bins."""
        return band_offsets(self.grid, self.band.size // 2)

    def bounds(self, band: np.ndarray):
        """The (upper, lower, floor) of :func:`_sparse_fwhm` for ``band``, or None.

        eps is widened by a margin for its own rounding; the rounding of the
        bounds and of the direct sums is inside the slack's factor 2. Raises
        ValueError for a band of another size, or one that is not finite.
        """
        if band.shape != self.band.shape:
            raise ValueError(f"expected {self.band.size} band bins, got {band.shape}")
        eps = np.abs(band - self.band).sum() * (_DISTANCE_MARGIN / self.grid.n_samples)
        if not eps < np.inf:  # the reference's band is finite
            raise ValueError("band must be finite")
        if not eps <= self.reach:
            return None
        upper = (self.amplitude_upper + eps) ** 2
        lower = np.maximum(self.amplitude_lower - eps, 0.0) ** 2
        return upper, lower, (self.amplitude_peak - eps) ** 2


def band_reference(grid: FrequencyGrid, band: np.ndarray) -> BandReference:
    """The :class:`BandReference` of ``band``, from one coarse transform.

    Raises ValueError unless ``band`` has 2h+1 < N finite bins, and
    :class:`WindowError` where the tables of :class:`_BandSamples` (the
    (2h+1) x (N/M + 2) direct sums and the M roots of unity) would exceed
    :data:`MAX_TABLE_SIZE` values, before allocating anything. The reference
    has no bounds where :func:`band_intensity_fwhm` measures every sample
    (M = N) and where the coarse peak lies outside ``_REFERENCE_PEAKS``;
    its width is measured only when asked for.
    """
    n = grid.n_samples
    h = band.size // 2
    if band.shape != (2 * h + 1,) or 2 * h + 1 >= n:
        raise ValueError(f"expected 2h+1 < {n} band bins, got shape {band.shape}")
    m = min(n, 1 << max(1, (COARSE_PER_BIN * h - 1).bit_length()))
    r = n // m
    if m < n and band.size * (r + 2) + m > MAX_TABLE_SIZE:
        raise WindowError(
            f"time step too fine: cannot allocate the width metric's "
            f"{band.size}x{r + 2} table of direct sums and {m} roots of unity "
            f"(at most {MAX_TABLE_SIZE} values); use fewer samples"
        )
    if not np.isfinite(band).all():
        raise ValueError("band must be finite")
    band = band.copy()
    band.setflags(write=False)
    if m < n:
        upper, lower, peak = _chord_bounds(_coarse_intensity(band, n, m), h)
        if _REFERENCE_PEAKS[0] <= peak <= _REFERENCE_PEAKS[1]:
            amplitude_peak = np.sqrt(peak)
            return BandReference(
                grid, band, m, np.sqrt(upper), np.sqrt(np.maximum(lower, 0.0)),
                amplitude_peak, _slack(peak, h, m) / (2.0 * amplitude_peak),
            )
    return BandReference(grid, band, m, None, None, None, -np.inf)


class _BandSamples:
    """Intensity of the band-limited envelope on whole coarse intervals, by direct sums.

    Row j holds the r+2 samples jr-1..jr+r (indices modulo n) of interval j:
    |s|^2 of the band turned by exp(2j*pi*k*jr/n), an m-th root of unity
    taken from a table at the exact index k*j mod m, times the table of
    exp(2j*pi*k*t/n) for t = -1..r. Each row is its own vector-matrix
    product, so its bits do not depend on which rows are evaluated with it.
    Sample i is read from the row of its interval i // r; the row's first
    and last samples serve only a crossing found in that interval.
    """

    #: Rows evaluated in one stacked product.
    CHUNK = 64

    def __init__(self, band: np.ndarray, n: int, m: int):
        self.k, self.roots, self.table = _direct_sum_tables(n, band.size // 2, m)
        self.band = band / n
        self.n, self.m, self.r = n, m, n // m
        self.rows = {}

    def evaluate(self, intervals: list) -> float:
        """Evaluate the rows of ``intervals``; return the largest sample they hold."""
        top = -np.inf
        new = []
        for j in intervals:
            if j in self.rows:
                top = max(top, self.rows[j][1:-1].max())
            else:
                new.append(j)
        for lo in range(0, len(new), self.CHUNK):
            chunk = new[lo : lo + self.CHUNK]
            # k*j mod m, as m is a power of two (also for k < 0)
            turns = np.multiply.outer(chunk, self.k) & (self.m - 1)
            rows = np.abs((self.band * self.roots[turns])[:, None, :] @ self.table) ** 2
            self.rows.update(zip(chunk, rows[:, 0]))
            top = max(top, rows[:, 0, 1:-1].max())
        return top

    def at(self, j: int, lo: int, hi: int) -> np.ndarray:
        """The samples lo..hi-1 from the row of interval j, within jr-1..jr+r."""
        if j not in self.rows:
            self.evaluate([j])
        base = j * self.r - 1
        return self.rows[j][lo - base : hi - base]


@lru_cache(maxsize=4)
def _direct_sum_tables(n: int, h: int, m: int):
    """Bin numbers k, the m-th roots of unity, and exp(2j*pi*k*t/n) for t = -1..n/m."""
    k = _band_k(h)
    roots = np.exp((2j * np.pi / m) * np.arange(m))
    table = np.exp((2j * np.pi / n) * np.outer(k, np.arange(-1, n // m + 1)))
    for values in (k, roots, table):
        values.setflags(write=False)
    return k, roots, table


def _sparse_fwhm(upper, lower, floor, fine: _BandSamples, dt: float) -> float:
    """:func:`_fwhm` of the fine samples, given bounds on every coarse interval.

    Every sample of interval j (samples jr..jr+r) lies in [lower[j],
    upper[j]], and some sample reaches about ``floor`` (0 only for an
    all-zero signal). Only the intervals whose bounds reach the floor, or
    straddle half the peak, are evaluated sample by sample, and the
    outcome depends on the samples alone: bounds from the band's own coarse
    grid (:func:`_chord_bounds`) and from a :class:`BandReference` give the
    same bits.
    """
    if floor == 0:
        raise WidthMetricError("cannot measure the width of an all-zero signal")
    r = fine.r
    peak = fine.evaluate(np.flatnonzero(upper >= floor).tolist())
    half = 0.5 * peak
    reach = upper >= half  # intervals that may hold a sample >= half
    fine.evaluate(np.flatnonzero(reach & (lower < half)).tolist())

    def outermost(intervals, pick):
        # the first interval, in the given order, holding a sample >= half
        for j in intervals:
            hits = np.flatnonzero(fine.at(j, j * r, j * r + r) >= half)
            if hits.size:
                return j * r + int(hits[pick])
        raise AssertionError("the peak interval holds a sample >= half")

    reach = np.flatnonzero(reach).tolist()
    i_lo = outermost(reach, 0)
    i_hi = outermost(reversed(reach), -1)
    # a sample between the crossings below half lies in an interval whose
    # lower bound is below half
    lo, hi = i_lo + 1, i_hi
    first, last = lo // r, (hi - 1) // r
    one_lobe = not any(
        (fine.at(j, max(j * r, lo), min(j * r + r, hi)) < half).any()
        for j in (np.flatnonzero(lower[first : last + 1] < half) + first).tolist()
    )

    def edges():
        # both samples of a crossing come from the row of its inner one
        out_lo, in_lo = fine.at(i_lo // r, i_lo - 1, i_lo + 1)
        in_hi, out_hi = fine.at(i_hi // r, i_hi, i_hi + 2)
        return out_lo, in_lo, in_hi, out_hi

    return _crossing_width(half, i_lo, i_hi, one_lobe, fine.n, dt, edges)


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


def occupied_bandwidth(offsets: np.ndarray, spectrum: np.ndarray) -> float:
    """Two-sided bandwidth B = max occupied |delta_omega| / pi, Hz.

    ``spectrum`` holds DFT values at the baseband offsets ``offsets``: a
    grid's ``delta_omega`` or a band's :func:`band_offsets`. A bin counts
    as occupied when its magnitude exceeds :data:`OCCUPIED_THRESHOLD` times
    the peak.
    """
    mag = np.abs(spectrum)
    peak = mag.max()
    if peak == 0:
        return 0.0
    occupied = mag > OCCUPIED_THRESHOLD * peak
    return float(np.max(np.abs(offsets[occupied])) / np.pi)


def check_wraparound(
    grid: FrequencyGrid, offsets: np.ndarray, spectrum: np.ndarray,
    width: float, accumulated_gvd: float,
) -> None:
    """Reject circular propagation that could wrap in time.

    ``spectrum`` holds the DFT of a pulse on ``grid`` at ``offsets``, and
    every other bin is zero: the whole spectrum at ``grid.delta_omega``, or
    a band at its :func:`band_offsets`. ``width`` is the pulse's width
    (:func:`intensity_fwhm`). ``accumulated_gvd`` is the worst-case
    |beta2 * length| product of the operation about to be applied (s^2).
    The dispersive spread across the occupied band 2*pi*B
    (:func:`occupied_bandwidth`) is ``accumulated_gvd * 2*pi*B`` and the
    time window must exceed width plus spread by :data:`GUARD_FACTOR`.
    """
    bandwidth = occupied_bandwidth(offsets, spectrum)
    spread = abs(accumulated_gvd) * 2.0 * np.pi * bandwidth
    needed = GUARD_FACTOR * (width + spread)
    if grid.window < needed:
        raise WraparoundError(
            f"time window {grid.window:.3e} s cannot absorb a pulse of "
            f"width {width:.3e} s with dispersive spread {spread:.3e} s "
            f"(need >= {needed:.3e} s)"
        )
