"""Sampled-signal substrate: grids, envelopes, responses and pulse metrics.

All quantities are SI (seconds, meters, rad/s). Frequency axes follow the
DC-centered convention: bin k carries the signed baseband offset
``delta_omega[k] = 2*pi*f_k`` with ``f_k in [-1/(2*dt), 1/(2*dt))`` and the
Nyquist bin assigned to the negative side, i.e. the ordering of
``numpy.fft.fftfreq``.

A sinc pulse is defined by its band (:func:`make_sinc_band`). The width
metric is :func:`intensity_fwhm` on a whole envelope, and
:func:`band_outcomes` on the band-limited ones of a run, from their band
bins alone. :func:`check_wraparound` is the one window guard for both.
"""

import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import fftfreq

from .base import WidthMetricError, WraparoundError, check_window, width_grids


class GridMismatchError(ValueError):
    """Raised when two sampled objects do not share the same grid."""


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

    The values sit on the bins 0..h, then -h..-1, h = :func:`sinc_band_bins`:
    the nearest bin-aligned band (half weight on the edge bins) times the phase
    that centres the pulse on sample N/2. The realized bandwidth is
    quantized to the grid; it is exact whenever the window is an integer
    multiple of W. The unit-peak scale is the centre sample taken as a sum
    over these bins, so the pulse's centre sample is 1 to within about
    2e-16, and exactly 1 where h is a power of two.
    """
    w = zero_to_zero_width
    if not (np.isfinite(w) and w > 0):
        raise ValueError("zero_to_zero_width must be positive")
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
    nearest bin (see :func:`make_sinc_pulse`). Raises
    :class:`~dispersim.base.WindowError` when the window is under 8 widths
    or that band does not fit below the grid's Nyquist bin
    (:func:`~dispersim.base.check_window`).
    """
    return check_window("sinc", zero_to_zero_width, grid.n_samples, grid.dt)


def _band_k(h: int) -> np.ndarray:
    """Signed bin numbers k of the band bins |k| <= h, in FFT order: 0..h, -h..-1."""
    return np.r_[0 : h + 1, -h:0]


def band_offsets(grid: FrequencyGrid, h: int) -> np.ndarray:
    """``grid.delta_omega`` at the band bins 0..h, -h..-1, without the N-point axis.

    2*pi*(k*df) is what :func:`numpy.fft.fftfreq` computes, bit for bit.
    """
    return 2.0 * np.pi * (_band_k(h) * grid.df)


def band_samples(grid: FrequencyGrid, band: np.ndarray) -> np.ndarray:
    """The samples on ``grid`` whose DFT is ``band`` on its bins and zero elsewhere.

    ``band`` holds 2h+1 bins in the order 0..h, -h..-1, as each band of
    :func:`band_outcomes` does; the result is the N-point inverse transform
    of the zero-padded spectrum, in a new array.
    """
    return _padded_ifft(band, grid.n_samples)


def _padded_ifft(band: np.ndarray, m: int) -> np.ndarray:
    """The m-point inverse transform of ``band`` on its bins, zero elsewhere.

    A stack of bands, one per row of ``band``, gives one transform per row.
    """
    h = band.shape[-1] // 2
    spectrum = np.zeros(band.shape[:-1] + (m,), np.complex128)
    spectrum[..., : h + 1] = band[..., : h + 1]
    spectrum[..., m - h :] = band[..., h + 1 :]
    return ifft(spectrum)


def make_gaussian_pulse(grid: FrequencyGrid, t0: float) -> Envelope:
    """Unchirped Gaussian ``exp(-(t-t_c)^2 / (2*t0^2))``: unit peak, mid-window.

    ``t0`` is the half-width at the 1/e point of the intensity |s|^2; the
    intensity FWHM is ``2*sqrt(ln 2)*t0``. Besides the window rules, t0**2
    and the squared half window must be normal finite doubles.
    """
    if not (np.isfinite(t0) and t0 > 0):
        raise ValueError("t0 must be positive")
    check_window("gaussian", t0, grid.n_samples, grid.dt)
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
    return report_outcomes(*_every_sample((np.abs(e.samples) ** 2)[None], e.grid.dt))[0]


#: The errors of the width rule, by the code a band's outcome carries (0: none).
_NOT_FINITE, _ALL_ZERO, _EDGE = 1, 2, 3
_ERRORS = {
    _NOT_FINITE: (ValueError, "band must be finite"),
    _ALL_ZERO: (WidthMetricError, "cannot measure the width of an all-zero signal"),
    _EDGE: (WidthMetricError, "half-maximum lobe touches the window edge"),
}


def report_outcomes(widths, multi, codes) -> np.ndarray:
    """The widths of a stack, once its outcomes are reported in stack order.

    ``multi`` flags each band with several lobes above half maximum and
    ``codes`` its error, as :func:`band_outcomes` gives them. The bands are
    reported as one band at a time would be: a band that is not finite or
    all zero raises before its lobes are looked at; a band with several
    lobes warns, and then raises if a lobe touches the window edge. The
    first error ends the stack. Reporting the parts of a stack one after
    the other gives the warnings and the first error of the whole. Each
    warning is attributed to the caller of this function's caller.
    """
    errors = np.flatnonzero(codes)
    end = errors[0] if errors.size else codes.size
    warned = multi[: end + 1] if end < codes.size and codes[end] == _EDGE else multi[:end]
    for _ in range(np.count_nonzero(warned)):
        warnings.warn(
            "multiple lobes cross half maximum; using outermost crossings",
            stacklevel=3,
        )
    if end < codes.size:
        error, message = _ERRORS[codes[end]]
        raise error(message)
    return widths


def _crossings(half, i_lo, i_hi, one_lobe, n, dt, edges):
    """The outcomes of a stack from each band's outermost samples >= ``half``.

    Those samples are ``i_lo`` and ``i_hi``, and ``one_lobe`` is False
    where a sample between them falls below ``half``. ``edges(bands)``
    gives the intensity at i_lo - 1, i_lo, i_hi and i_hi + 1 of the given
    bands; it is asked only for bands none of whose samples lie outside the
    window. Returns the interpolated widths (NaN on the
    window edge), the multi-lobe flags and the codes of :func:`report_outcomes`.
    """
    on_edge = (i_lo == 0) | (i_hi == n - 1)
    ok = np.flatnonzero(~on_edge)
    out_lo, in_lo, in_hi, out_hi = edges(ok)
    half, i_lo, i_hi = half[ok], i_lo[ok], i_hi[ok]
    frac_lo = (in_lo - half) / (in_lo - out_lo)
    frac_hi = (in_hi - half) / (in_hi - out_hi)
    widths = np.full(on_edge.size, np.nan)
    widths[ok] = ((i_hi - i_lo) + frac_lo + frac_hi) * dt
    return widths, ~one_lobe, np.where(on_edge, _EDGE, 0)


def _every_sample(intensity: np.ndarray, dt: float):
    """:func:`_crossings` of intensities ``|s|^2``, a band per row, sampled at ``dt``."""
    n = intensity.shape[1]
    peak = intensity.max(axis=1)
    half = 0.5 * peak
    above = intensity >= half[:, None]
    i_lo = above.argmax(axis=1)
    i_hi = n - 1 - above[:, ::-1].argmax(axis=1)
    one_lobe = np.count_nonzero(above, axis=1) == i_hi - i_lo + 1

    def edges(ok):
        lo, hi = i_lo[ok], i_hi[ok]
        return tuple(intensity[ok, i] for i in (lo - 1, lo, hi, hi + 1))

    widths, multi, codes = _crossings(half, i_lo, i_hi, one_lobe, n, dt, edges)
    codes[peak == 0] = _ALL_ZERO
    return widths, multi, codes


#: :func:`band_outcomes` holds at most this many coarse samples' worth of
#: distinct bands (bands times M_e), and at least one band, before it measures
#: them in one batch, so that the bands held and a batch's coarse transforms
#: and bounds stay at a few MiB however many bands a run has.
BATCH_SAMPLES = 2**18
#: :func:`_direct_sums` evaluates this many rows in one stacked product.
_CHUNK = 64
#: :class:`BandReference` widens a band's distance by this factor, far more
#: than the relative rounding of a sum over the 2h+1 bins, fewer than
#: :data:`~dispersim.base.MAX_TABLE_SIZE`.
_DISTANCE_MARGIN = 1.0 + 2.0**-20
#: :func:`band_reference` gives no bounds for a coarse peak outside this
#: range, so that every bound it widens stays far inside the double range.
_REFERENCE_PEAKS = (2.0**-500, 2.0**500)


def band_outcomes(reference: "BandReference", bands):
    """The outcome of each band a run yields: its width, multi-lobe flag and error code.

    ``bands`` is any iterable of bands, such as a generator; it may refill
    and yield one array each time, as each band is read when it is yielded.
    Each band holds the DFT of an envelope on ``reference.grid`` at the bins
    |k| <= h of the reference's band, in the order 0..h, -h..-1; every other
    bin is zero. Nothing is reported, so :func:`report_outcomes` gives the
    widths, warnings and first error of any part of the run. Each width, to
    about 1e-15 relative, and those warnings and that error are the ones of
    :func:`intensity_fwhm` applied to the inverse transform of each whole
    spectrum in turn, but no N-point array is built; as a width has the same
    bits in any stack, they are what a call on each part alone would give.
    The sinc commands measure every band of a run in one call. Each band is
    keyed by its bytes: a distinct band is held once, and a repeat of a band
    held holds only its index. At most max(1, :data:`BATCH_SAMPLES` // M_e)
    distinct bands are held at a time, so the run is never held whole. When
    that many are held and another distinct band arrives, and once at the
    end, the bands held are measured in one pass of these steps over all of
    them, on the evaluation grid of M_e samples that
    :func:`~dispersim.base.width_grids` gives for (N, h), ``reference.m``:

    - the L1 distance of each band from the :func:`band_reference`
      (:meth:`BandReference.distances`);
    - bounds on the intensity over each interval of the evaluation grid
      that may reach half a band's peak (:func:`_candidates`): for a band
      close enough to the reference, the reference's bounds widened by the
      distance, which it takes on its finer coarse grid of M samples and
      merges onto the M_e intervals; for the others, the chords of their
      own samples on the evaluation grid, every (N/M_e)-th sample, from one
      M_e-point inverse transform of all of them (:func:`_chord_bounds`);
    - the intervals that one rule on those bounds picks, and their samples,
      as direct sums over the band bins whose rows are each their own
      product (:func:`_sparse_widths`);
    - the crossings, by the linear-interpolation rule (:func:`_crossings`).

    Where M_e = N the evaluation grid holds every sample and the rule runs
    on it (:func:`_every_sample`). Every formula is elementwise over the
    bands and M_e depends on (N, h) alone, so a width has the same bits in
    any stack, and the same bits from the reference's bounds as from its
    own. A reference of a zero band bounds no band. Raises ValueError for a
    band of another size; a band that is not finite gets its error code.
    """
    shape = reference.band.shape
    step = max(1, BATCH_SAMPLES // reference.m)
    held, which, parts = {}, [], []

    def measure():
        # the keys of ``held``, in the order of their indices, are the bands
        stack = np.frombuffer(b"".join(held), np.complex128).reshape(-1, shape[0])
        parts.append(tuple(values[which] for values in _measure(reference, stack)))

    for band in bands:
        if np.shape(band) != shape:
            raise ValueError(
                f"expected {shape[0]} band bins per band, got shape {np.shape(band)}"
            )
        key = np.asarray(band, np.complex128).tobytes()
        if key not in held and len(held) == step:
            measure()
            held, which = {}, []
        which.append(held.setdefault(key, len(held)))
    measure()  # the last band read, if any, is held
    return tuple(np.concatenate(values) for values in zip(*parts))


def _measure(reference: "BandReference", bands: np.ndarray):
    """The outcomes of :func:`_crossings` of a batch of bands."""
    grid, m = reference.grid, reference.m
    n, count = grid.n_samples, len(bands)
    widths, multi = np.full(count, np.nan), np.zeros(count, bool)
    codes = np.zeros(count, np.int8)
    eps = reference.distances(bands)
    finite = eps < np.inf  # the reference's band is finite
    codes[~finite] = _NOT_FINITE
    near = eps <= reference.reach
    far = np.flatnonzero(finite & ~near)
    coarse = _coarse_intensity(bands[far], n, m) if far.size else None
    if m == n:  # the reference has no bounds then: every band is far
        if coarse is not None:
            widths[far], multi[far], codes[far] = _every_sample(coarse, grid.dt)
        return widths, multi, codes
    if coarse is not None:
        # a far band whose coarse peak is 0 is all zero; a near band's floor
        # (A - eps)**2 is not, as eps <= reach <= q/(1-q)*A (:func:`_slack`)
        # and q = 2*(pi*h/M)**2 <= 0.005 on the reference's grid of M samples
        zero = coarse.max(axis=1) == 0
        codes[far[zero]] = _ALL_ZERO
        far, coarse = far[~zero], coarse[~zero]
    order = np.concatenate([np.flatnonzero(near), far])
    if order.size:
        candidates = _candidates(reference, eps[near], coarse)
        outcomes = _sparse_widths(bands[order], *candidates, n, m, grid.dt)
        widths[order], multi[order], codes[order] = outcomes
    return widths, multi, codes


def _coarse_intensity(bands: np.ndarray, n: int, m: int) -> np.ndarray:
    """|s|^2 at the samples 0, r, 2r, ... (r = n/m) of each band, by m-point ifft."""
    intensity = np.abs(_padded_ifft(bands * (m / n), m))  # m/n is a power of two: exact
    return np.square(intensity, out=intensity)


def _slack(peak, h: int, m: int):
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
    """The upper bounds and slack of :func:`_sparse_widths` from coarse samples.

    ``coarse`` holds one band's coarse samples per row. Interval j runs from
    coarse sample j to j + 1 (the last one wraps to 0); its bounds are their
    chord widened by the :func:`_slack` of the band's largest coarse
    sample: upper[j] = max(ends) + slack, and lower = min(ends) - slack,
    which :func:`_candidates` forms only where it is asked for.
    """
    slack = _slack(coarse.max(axis=1), h, coarse.shape[1])
    upper = np.empty_like(coarse)
    np.maximum(coarse[:, :-1], coarse[:, 1:], out=upper[:, :-1])
    np.maximum(coarse[:, -1], coarse[:, 0], out=upper[:, -1])
    upper += slack[:, None]
    return upper, slack


def _candidates(reference: "BandReference", eps: np.ndarray, coarse):
    """The intervals of a batch that may reach half a band's floor, with bounds.

    Interval j of the evaluation grid (m = ``reference.m`` samples) of band
    b has the key b*m + j. The first bands lie within the reference's
    reach, at the distances ``eps``: their bounds are the reference's
    amplitude bounds widened by eps and squared, and their floor
    (amplitude_peak - eps)**2. The other bands, if ``coarse`` holds their
    samples on the evaluation grid, are bounded by those samples' chords
    (:func:`_chord_bounds`), and their floor is the largest one. Returns
    the keys, ascending, their upper and lower bounds, each band's floor,
    and the least level :func:`_sparse_widths` may ask of each band: half
    its floor (the batch's least, for the first bands), less a margin of
    2**-20, which no rounding of the peak reaches.
    """
    m, parts = reference.m, []
    if eps.size:
        floor = (reference.amplitude_peak - eps) ** 2
        least = np.full(eps.size, 0.5 * floor.min() * (1.0 - 2.0**-20))
        # (U + eps)**2 >= level asks for U >= sqrt(level) - eps, up to a
        # rounding far inside the margin of 2**-40
        cut = np.sqrt(least[0]) * (1.0 - 2.0**-40) - eps.max()
        columns = np.flatnonzero(reference.amplitude_upper >= cut)
        widen = eps[:, None]
        upper = (reference.amplitude_upper[columns] + widen) ** 2
        lower = np.maximum(reference.amplitude_lower[columns] - widen, 0.0) ** 2
        keys = np.arange(0, eps.size * m, m)[:, None] + columns
        parts.append((keys.ravel(), upper.ravel(), lower.ravel(), floor, least))
    if coarse is not None:
        upper, slack = _chord_bounds(coarse, reference.band.size // 2)
        floor = coarse.max(axis=1)
        least = 0.5 * floor * (1.0 - 2.0**-20)
        keys = np.flatnonzero(upper >= least[:, None])
        band, j = np.divmod(keys, m)
        lower = np.minimum(coarse[band, j], coarse[band, (j + 1) & (m - 1)]) - slack[band]
        keys += eps.size * m
        parts.append((keys, upper.reshape(-1)[keys - eps.size * m], lower, floor, least))
    return tuple(np.concatenate(values) for values in zip(*parts))


@dataclass(frozen=True, eq=False)
class BandReference:
    """One band and the coarse bounds that bound the bands near it.

    For two bands b and b0 on the same bins, the inverse DFT sum and the
    triangle inequality give |s_b(t) - s_b0(t)| <= eps = ||b - b0||_1 / N at
    every sample t. So b0's bounds on its amplitude |s_b0| over each
    interval, widened by eps, bound b's intensity there too, and the
    amplitude at b0's largest coarse sample, less eps, is a floor for b's
    peak. b0's bounds are taken on its coarse grid of M samples and merged
    onto the intervals of the evaluation grid of :func:`band_outcomes`,
    whose size M_e is ``m``: each holds the largest upper and the least
    lower bound of the M/M_e coarse intervals it spans. They are used while
    eps <= ``reach`` = slack / (2*sqrt(peak)), b0's :func:`_slack` and
    coarse peak on the M grid: there the widened bounds are at most about
    twice as loose as b's own would be on that grid. A reference without
    bounds has reach -inf and bounds no band. Build one with
    :func:`band_reference`.
    """

    grid: FrequencyGrid
    band: np.ndarray
    m: int
    amplitude_upper: np.ndarray | None
    amplitude_lower: np.ndarray | None
    amplitude_peak: float | None
    reach: float

    @cached_property
    def offsets(self) -> np.ndarray:
        """:func:`band_offsets` of the band's bins."""
        return band_offsets(self.grid, self.band.size // 2)

    def distances(self, bands: np.ndarray) -> np.ndarray:
        """eps of each band of a stack of this band's size, widened for its own rounding.

        It is not finite for a band that is not finite.
        """
        eps = np.abs(bands - self.band).sum(axis=1)
        return eps * (_DISTANCE_MARGIN / self.grid.n_samples)


def band_reference(grid: FrequencyGrid, band: np.ndarray) -> BandReference:
    """The :class:`BandReference` of ``band``, from one M-point coarse transform.

    Raises ValueError unless ``band`` has 2h+1 < N finite bins, and
    :class:`~dispersim.base.WindowError` where the tables of
    :func:`_direct_sums` would be too large
    (:func:`~dispersim.base.width_grids`, which gives M and M_e), before
    allocating anything. The reference has no bounds where
    :func:`band_outcomes` measures every sample (M = N) and where the
    coarse peak lies outside ``_REFERENCE_PEAKS``.
    """
    n = grid.n_samples
    h = band.size // 2
    if band.shape != (2 * h + 1,) or 2 * h + 1 >= n:
        raise ValueError(f"expected 2h+1 < {n} band bins, got shape {band.shape}")
    m, m_e = width_grids(n, h)
    if not np.isfinite(band).all():
        raise ValueError("band must be finite")
    band = band.copy()
    band.setflags(write=False)
    if m < n:
        coarse = _coarse_intensity(band[None], n, m)
        (upper,), (slack,) = _chord_bounds(coarse, h)
        [coarse] = coarse
        peak = coarse.max()
        if _REFERENCE_PEAKS[0] <= peak <= _REFERENCE_PEAKS[1]:
            lower = np.minimum(coarse, np.roll(coarse, -1)) - slack
            # M/M_e coarse intervals make one interval of the evaluation grid
            upper = upper.reshape(m_e, -1).max(axis=1)
            lower = lower.reshape(m_e, -1).min(axis=1)
            amplitude_peak = np.sqrt(peak)
            return BandReference(
                grid, band, m_e, np.sqrt(upper), np.sqrt(np.maximum(lower, 0.0)),
                amplitude_peak, slack / (2.0 * amplitude_peak),
            )
    return BandReference(grid, band, m_e, None, None, None, -np.inf)


def _direct_sums(bands: np.ndarray, keys: np.ndarray, n: int, m: int) -> np.ndarray:
    """Intensity of band-limited envelopes on chosen intervals, by direct sums.

    The intervals are those of the evaluation grid of :func:`band_outcomes`,
    M_e = ``m`` samples, so a row holds at most
    :data:`~dispersim.base.ROW_SAMPLES` + 2 samples where M_e < M.
    Interval j of band b has the key b*m + j. Its row holds the r+2 samples
    jr-1..jr+r (indices modulo n): |s|^2 of the band turned by
    exp(2j*pi*k*jr/n), an m-th root of unity taken from a table at the
    exact index k*j mod m, times the table of exp(2j*pi*k*t/n) for
    t = -1..r. Each row is its own (1, 2h+1) @ table product, stacked
    :data:`_CHUNK` at a time, so its bits do not depend on its stack.
    """
    k, roots, table = _direct_sum_tables(n, bands.shape[1] // 2, m)
    bands = bands / n
    band, interval = np.divmod(keys, m)
    rows = np.empty((keys.size, n // m + 2))
    for lo in range(0, keys.size, _CHUNK):
        b, j = band[lo : lo + _CHUNK], interval[lo : lo + _CHUNK]
        # k*j mod m, as m is a power of two (also for k < 0)
        turns = np.multiply.outer(j, k) & (m - 1)
        sums = (bands[b] * roots[turns])[:, None, :] @ table
        rows[lo : lo + _CHUNK] = np.abs(sums[:, 0]) ** 2
    return rows


@lru_cache(maxsize=4)
def _direct_sum_tables(n: int, h: int, m: int):
    """Bin numbers k, the m-th roots of unity, and exp(2j*pi*k*t/n) for t = -1..n/m."""
    k = _band_k(h)
    roots = np.exp((2j * np.pi / m) * np.arange(m))
    table = np.exp((2j * np.pi / n) * np.outer(k, np.arange(-1, n // m + 1)))
    for values in (k, roots, table):
        values.setflags(write=False)
    return k, roots, table


def _sparse_widths(bands, keys, upper, lower, floor, least, n: int, m: int, dt: float):
    """:func:`_crossings` of the samples of bands bounded on their evaluation grid.

    Every sample of band b's interval j (samples jr..jr+r, r = n/m), key
    b*m + j, lies within the interval's ``upper`` and ``lower`` bounds;
    ``keys`` holds, ascending, every interval that may reach half the
    band's peak (:func:`_candidates`), and some sample of band b reaches
    about ``floor[b]`` > 0. One pass of :func:`_direct_sums` evaluates the
    candidates that (a) reach the floor, which hold the peak; (b) have a
    lower bound below half the band's largest upper bound, which takes
    every interval that may straddle half the peak; (c) come right after
    one of those; or (d) start or end the window.

    The interval of the last sample >= half straddles, as its closed range
    holds the next sample, unless it ends the window (d). That of the first
    one straddles too, unless the sample starts it: then the interval before
    straddles (b) and this one comes right after it (c), or it starts the
    window (d). A dip below half between them shows in a straddling
    interval, which holds the dip's last sample and the next one >= half.
    So the outcome depends on the samples alone: bounds from the bands' own
    coarse samples and from a :class:`BandReference` give the same bits.
    """
    count, r = floor.size, n // m
    band, interval = np.divmod(keys, m)
    top = np.full(count, -np.inf)
    np.maximum.at(top, band, upper)
    pick = (upper >= floor[band]) | (lower < 0.5 * top[band])  # (a), (b)
    pick[1:] |= pick[:-1]  # (c)
    pick |= (interval == 0) | (interval == m - 1)  # (d)
    keys, band, interval = keys[pick], band[pick], interval[pick]
    rows = _direct_sums(bands, keys, n, m)
    inner = rows[:, 1:-1]
    peak = np.full(count, -np.inf)
    np.maximum.at(peak, band, inner.max(axis=1))
    half = 0.5 * peak
    if not (half >= least).all():
        raise AssertionError("a band's peak lies below its floor")
    above = inner >= half[band, None]

    # the first and last rows of each band that hold a sample >= half, in
    # ascending key order, and the places p of the outermost such samples
    holds = np.flatnonzero(above.any(axis=1))
    row_lo = holds[np.searchsorted(band[holds], np.arange(count))]
    row_hi = holds[np.searchsorted(band[holds], np.arange(count), "right") - 1]
    p_lo = above[row_lo].argmax(axis=1)
    p_hi = r - 1 - above[row_hi, ::-1].argmax(axis=1)
    i_lo, i_hi = interval[row_lo] * r + p_lo, interval[row_hi] * r + p_hi

    # several lobes leave a sample strictly between the crossings below half
    t = interval[:, None] * r + np.arange(r)  # the samples of each row
    inside = (t > i_lo[band, None]) & (t < i_hi[band, None])
    multi = np.zeros(count, bool)
    multi[band[(inside & ~above).any(axis=1)]] = True

    def edges(ok):
        # both samples of a crossing come from the row of its inner one,
        # which holds inner sample p at index p + 1
        lo, hi, p, q = row_lo[ok], row_hi[ok], p_lo[ok], p_hi[ok]
        return rows[lo, p], rows[lo, p + 1], rows[hi, q + 1], rows[hi, q + 2]

    return _crossings(half, i_lo, i_hi, ~multi, n, dt, edges)


def broadening_factor(tx: Envelope, rx: Envelope) -> float:
    """Ratio of received to transmitted pulse width (:data:`dispersim.base.WIDTH_METRIC`)."""
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

    A sinc's half-weight edge bins +-h lie far above
    :data:`OCCUPIED_THRESHOLD`, and a span's phase keeps their magnitude, so
    its band and its whole spectrum give the same B, bit for bit, for the
    sent and the dispersed sinc alike.
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
