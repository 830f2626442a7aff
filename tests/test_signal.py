import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.fft import fft

from dispersim import (
    Envelope,
    FrequencyGrid,
    GridMismatchError,
    TransferFunction,
    WidthMetricError,
    WindowError,
    WraparoundError,
    apply_tf,
    broadening_factor,
    check_wraparound,
    d_to_beta2,
    intensity_fwhm,
    make_gaussian_pulse,
    make_sinc_pulse,
    occupied_bandwidth,
)
from dispersim import base as base_module
from dispersim import signal as signal_module
from dispersim.compensator import (
    CompensatorSpec,
    compensate,
    match_pcf,
    stage_responses,
)
from dispersim.base import COARSE_PER_BIN, ROW_SAMPLES, check_window
from dispersim.convergence import span_length
from dispersim.fiber import (
    FiberParams,
    dispersion_response,
    dispersion_tf,
    propagate,
)
from dispersim.signal import (
    band_offsets,
    band_outcomes,
    band_reference,
    band_samples,
    ifft,
    make_sinc_band,
    report_outcomes,
)


def bin_numbers(n):
    """Signed bin numbers k of an n-point DFT, f_k = k*df (Nyquist bin is -n/2)."""
    return np.rint(np.fft.fftfreq(n, 1.0) * n).astype(int)


def band_bins(n, h):
    """Indices of the bins |k| <= h of an n-point DFT, in FFT order (0..h, -h..-1)."""
    return np.r_[0 : h + 1, n - h : n]


def band_widths(reference, bands):
    """The widths of a stack of bands: one band_outcomes call, then report_outcomes."""
    return report_outcomes(*band_outcomes(reference, bands))


def random_envelope(grid, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(grid.n_samples) + 1j * rng.standard_normal(
        grid.n_samples
    )
    return Envelope(grid, samples)


class TestFrequencyGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FrequencyGrid(1000, 1e-12)

    @pytest.mark.parametrize("n", [True, 8.0, np.bool_(True)])
    def test_rejects_non_integer_sizes(self, n):
        with pytest.raises(ValueError, match=f"must be an integer, got {n!r}"):
            FrequencyGrid(n, 1e-12)
        assert FrequencyGrid(np.int64(8), 1e-12).n_samples == 8

    def test_rejects_tiny_or_bad_dt(self):
        with pytest.raises(ValueError):
            FrequencyGrid(1, 1e-12)
        with pytest.raises(ValueError):
            FrequencyGrid(8, 0.0)
        with pytest.raises(ValueError):
            FrequencyGrid(8, -1e-12)

    def test_axis_conventions(self):
        grid = FrequencyGrid(16, 2e-12)
        dw = grid.delta_omega
        assert dw[0] == 0.0
        # every bin except DC and Nyquist has a sign partner
        positive = np.sort(dw[dw > 0])
        negative = np.sort(-dw[dw < 0])
        np.testing.assert_allclose(positive, negative[:-1], rtol=1e-15)
        assert np.isclose(np.max(np.abs(dw)), np.pi / grid.dt, rtol=1e-15)
        # Nyquist bin sits on the negative side
        assert dw[grid.n_samples // 2] < 0
        assert np.isclose(grid.df, 1.0 / (16 * 2e-12), rtol=1e-15)

    def test_arrays_are_frozen(self):
        grid = FrequencyGrid(8, 1e-12)
        with pytest.raises(ValueError):
            grid.delta_omega[0] = 1.0


class TestTransforms:
    """Spectral occupancy as the wraparound guard reads it."""

    def test_constant_signal_is_dc_only(self):
        grid = FrequencyGrid(8, 1e-12)
        assert occupied_bandwidth(grid.delta_omega, fft(np.ones(8))) == 0.0

    def test_zero_spectrum_occupies_no_band(self):
        grid = FrequencyGrid(8, 1e-12)
        assert occupied_bandwidth(grid.delta_omega, np.zeros(8, complex)) == 0.0

    def test_impulse_is_flat(self):
        grid = FrequencyGrid(8, 1e-12)
        samples = np.zeros(8)
        samples[3] = 1.0
        # every bin is occupied, up to the Nyquist offset pi/dt
        assert occupied_bandwidth(grid.delta_omega, fft(samples)) == pytest.approx(
            1 / grid.dt, rel=1e-15
        )

    def test_round_trip_and_parseval(self):
        # an all-pass response and its conjugate: energy kept, input restored
        grid = FrequencyGrid(1024, 0.5e-12)
        e = random_envelope(grid, seed=42)
        phase = np.random.default_rng(43).uniform(0, 2 * np.pi, 1024)
        there = apply_tf(e, TransferFunction(grid, np.exp(1j * phase)))
        back = apply_tf(there, TransferFunction(grid, np.exp(-1j * phase)))
        assert abs(there.energy / e.energy - 1) < 1e-12
        np.testing.assert_allclose(back.samples, e.samples, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 256, 16384, 65536])
    def test_in_place_inverse_is_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = np.fft.ifft(x)
        out = ifft(x)
        assert np.shares_memory(out, x)
        assert np.array_equal(out.view(np.float64), expected.view(np.float64))


def unit_tf(grid):
    return TransferFunction(grid, np.ones(grid.n_samples))


class TestApplyTf:
    def test_identity(self):
        grid = FrequencyGrid(256, 1e-12)
        e = random_envelope(grid)
        out = apply_tf(e, unit_tf(grid))
        np.testing.assert_allclose(out.samples, e.samples, atol=1e-14)

    def test_grid_mismatch_rejected(self):
        e = random_envelope(FrequencyGrid(256, 1e-12))
        h = unit_tf(FrequencyGrid(256, 2e-12))
        with pytest.raises(GridMismatchError):
            apply_tf(e, h)
        with pytest.raises(GridMismatchError):
            unit_tf(FrequencyGrid(256, 1e-12)) * h

    def test_linear_phase_is_circular_delay(self):
        grid = FrequencyGrid(256, 1e-12)
        e = random_envelope(grid, seed=7)
        delay_samples = 37
        h = TransferFunction(
            grid, np.exp(-1j * grid.delta_omega * delay_samples * grid.dt)
        )
        out = apply_tf(e, h)
        np.testing.assert_allclose(
            out.samples, np.roll(e.samples, delay_samples), atol=1e-12
        )

    def test_composition(self):
        grid = FrequencyGrid(128, 1e-12)
        rng = np.random.default_rng(3)
        h1 = TransferFunction(grid, np.exp(1j * rng.uniform(0, 2 * np.pi, 128)))
        h2 = TransferFunction(grid, rng.uniform(0.1, 1.0, 128))
        e = random_envelope(grid, seed=4)
        once = apply_tf(e, h1 * h2)
        twice = apply_tf(apply_tf(e, h1), h2)
        np.testing.assert_allclose(once.samples, twice.samples, atol=1e-12)

    def test_linearity(self):
        grid = FrequencyGrid(128, 1e-12)
        rng = np.random.default_rng(5)
        h = TransferFunction(
            grid, rng.standard_normal(128) + 1j * rng.standard_normal(128)
        )
        e1 = random_envelope(grid, seed=6)
        e2 = random_envelope(grid, seed=7)
        a, b = 0.7 - 0.2j, -1.3 + 0.4j
        combo = Envelope(grid, a * e1.samples + b * e2.samples)
        lhs = apply_tf(combo, h).samples
        rhs = a * apply_tf(e1, h).samples + b * apply_tf(e2, h).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSincPulse:
    def setup_method(self):
        self.width = 666.7e-12
        self.grid = FrequencyGrid(16384, 64 * self.width / 16384)

    def test_bandwidth_matches_width(self):
        e = make_sinc_pulse(self.grid, self.width)
        band = occupied_bandwidth(self.grid.delta_omega, fft(e.samples))
        assert abs(band / (2 / self.width) - 1) < 1e-12

    def test_spectrum_is_rectangular(self):
        e = make_sinc_pulse(self.grid, self.width)
        mags = np.abs(np.fft.fft(e.samples))
        half_band = round(1.0 / (self.width * self.grid.df))
        k = bin_numbers(self.grid.n_samples)
        inner = mags[np.abs(k) < half_band]
        np.testing.assert_allclose(inner, inner[0], rtol=1e-12)
        edges = mags[np.abs(k) == half_band]
        np.testing.assert_allclose(edges, inner[0] / 2, rtol=1e-12)

    def test_out_of_band_content_negligible(self):
        e = make_sinc_pulse(self.grid, self.width)
        mags = np.abs(np.fft.fft(e.samples))
        half_band = round(1.0 / (self.width * self.grid.df))
        outside = mags[np.abs(bin_numbers(self.grid.n_samples)) > half_band]
        assert np.max(outside) < 1e-3 * np.max(mags)

    def test_nulls_and_peak(self):
        e = make_sinc_pulse(self.grid, self.width)
        center = self.grid.n_samples // 2
        off = round(self.width / 2 / self.grid.dt)
        assert abs(e.samples[center]) == pytest.approx(1.0, rel=1e-12)
        assert abs(e.samples[center + off]) < 1e-12
        assert abs(e.samples[center - off]) < 1e-12
        assert np.argmax(np.abs(e.samples)) == center

    def test_window_guard(self):
        grid = FrequencyGrid(64, 1e-12)  # 64 ps window
        with pytest.raises(WindowError):
            make_sinc_pulse(grid, 10e-12)  # needs >= 80 ps

    def test_resolution_guard(self):
        # window is fine but dt is too coarse to hold the band
        grid = FrequencyGrid(16, 1e-12)
        with pytest.raises(WindowError):
            make_sinc_pulse(grid, 2e-12)


def frozen_sinc_pulse(grid, zero_to_zero_width):
    """make_sinc_pulse's samples as the full-grid formula gave them: do not edit."""
    half_band_bins = check_window(
        "sinc", zero_to_zero_width, grid.n_samples, grid.dt
    )
    k = np.abs(bin_numbers(grid.n_samples))
    weights = np.where(k < half_band_bins, 1.0, 0.0)
    weights[k == half_band_bins] = 0.5
    center = grid.n_samples // 2
    t_c = center * grid.dt
    samples = ifft(weights * np.exp(-1j * grid.delta_omega * t_c))
    return samples * (1.0 / samples[center].real)


def sinc_grid(n, window_factor, width=2 / 3e9):
    return FrequencyGrid(n, window_factor * width / n)


class TestSincBand:
    """make_sinc_pulse as the inverse transform of make_sinc_band."""

    width = 2 / 3e9

    @pytest.mark.parametrize(
        "n, window_factor",
        [(256, 8.0), (1024, 16.0), (4096, 128.0), (16384, 64.0), (65536, 32.0)],
    )
    def test_pulse_keeps_its_bits(self, n, window_factor):
        # h = window_factor is a power of two, so is the band's unit-peak scale
        grid = sinc_grid(n, window_factor)
        got = make_sinc_pulse(grid, self.width).samples
        want = frozen_sinc_pulse(grid, self.width)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2**p for p in range(8, 17)]),
        window_factor=st.one_of(
            st.sampled_from([8.0, 16.0, 32.0, 64.0, 128.0]),
            st.integers(8, 128).map(float),
            st.floats(8.0, 128.0),
        ),
    )
    def test_band_is_the_pulse_spectrum(self, n, window_factor):
        grid = sinc_grid(n, window_factor)
        try:
            pulse = make_sinc_pulse(grid, self.width)
        except WindowError as exc:  # the 8x margin, or a band past Nyquist
            with pytest.raises(WindowError, match=str(exc)):
                make_sinc_band(grid, self.width)
            return
        band = make_sinc_band(grid, self.width)
        h = band.size // 2
        assert h == check_window("sinc", self.width, grid.n_samples, grid.dt)
        samples = pulse.samples
        np.testing.assert_array_equal(
            samples.view(np.int64), band_samples(grid, band).view(np.int64)
        )
        # the full-grid formula scaled by its own centre sample: the same bits
        # where h, and so the scale, is a power of two, rounding elsewhere
        frozen = frozen_sinc_pulse(grid, self.width)
        if h & (h - 1) == 0:
            np.testing.assert_array_equal(samples.view(np.int64), frozen.view(np.int64))
        else:
            assert np.abs(samples - frozen).max() <= 1e-15 * np.abs(frozen).max()
        assert abs(samples[n // 2] - 1.0) <= 1e-15
        bins = band_bins(n, h)
        spectrum = fft(samples)
        assert np.max(np.abs(band - spectrum[bins])) <= 1e-14 * np.max(np.abs(spectrum))
        np.testing.assert_array_equal(
            band_offsets(grid, h).view(np.int64), grid.delta_omega[bins].view(np.int64)
        )
        want = intensity_fwhm(pulse)
        assert own_width(grid, band) == pytest.approx(want, rel=1e-12)

    def test_checks_are_those_of_the_pulse(self):
        with pytest.raises(ValueError, match="positive"):
            make_sinc_band(sinc_grid(1024, 64.0), 0.0)
        with pytest.raises(WindowError, match="guard margin"):
            make_sinc_band(sinc_grid(1024, 7.9), self.width)
        with pytest.raises(WindowError, match="too coarse"):
            make_sinc_band(sinc_grid(256, 128.0), self.width)


class TestGaussianPulse:
    def setup_method(self):
        self.t0 = 100e-12
        self.grid = FrequencyGrid(16384, 64 * self.t0 / 16384)

    def test_peak_at_center(self):
        e = make_gaussian_pulse(self.grid, self.t0)
        center = self.grid.n_samples // 2
        assert np.argmax(np.abs(e.samples)) == center
        assert abs(e.samples[center]) == pytest.approx(1.0, rel=1e-12)

    def test_one_over_e_intensity_half_width(self):
        e = make_gaussian_pulse(self.grid, self.t0)
        intensity = np.abs(e.samples) ** 2
        center = self.grid.n_samples // 2
        level = intensity[center] / np.e
        right = center + np.argmax(intensity[center:] < level)
        measured = (right - center) * self.grid.dt
        assert abs(measured - self.t0) <= self.grid.dt

    def test_energy_closed_form(self):
        e = make_gaussian_pulse(self.grid, self.t0)
        expected = self.t0 * np.sqrt(np.pi)
        assert abs(e.energy / expected - 1) < 1e-3

    def test_guards(self):
        for t0 in (0.0, -50e-12):
            with pytest.raises(ValueError, match="t0 must be positive"):
                make_gaussian_pulse(self.grid, t0)
        with pytest.raises(WindowError):
            make_gaussian_pulse(FrequencyGrid(16384, 1e-12), 2e-12)  # t0 < 4 dt
        with pytest.raises(WindowError):
            make_gaussian_pulse(FrequencyGrid(64, 1e-12), 10e-12)  # window < 16 t0

    @pytest.mark.parametrize("t0", [1e-300, 1e153, 1e300])
    def test_squares_outside_double_range_raise(self, t0):
        # t0**2 underflows, the squared half window 32*t0 overflows, or both
        # squares overflow: a ValueError that says so, not an OverflowError
        # or non-finite samples
        with pytest.raises(ValueError, match="out of range"):
            make_gaussian_pulse(FrequencyGrid(256, 64 * t0 / 256), t0)

    def test_quadratic_phase_broadens_per_closed_form(self):
        # dispersion oracle exercised through apply_tf alone
        beta2_z = -21e-27 * 100e3
        h = TransferFunction(
            self.grid, np.exp(-1j * beta2_z / 2 * self.grid.delta_omega**2)
        )
        e = make_gaussian_pulse(self.grid, self.t0)
        out = apply_tf(e, h)
        expected = np.sqrt(1 + (beta2_z / self.t0**2) ** 2)
        assert broadening_factor(e, out) == pytest.approx(expected, rel=5e-3)


class TestWidthMetric:
    def setup_method(self):
        self.grid = FrequencyGrid(8192, 1e-12)
        self.pulse = make_gaussian_pulse(self.grid, 50e-12)

    def test_identity_is_exactly_one(self):
        assert broadening_factor(self.pulse, self.pulse) == 1.0

    def test_integer_delay_is_exactly_one(self):
        delayed = Envelope(self.grid, np.roll(self.pulse.samples, 1000))
        assert broadening_factor(self.pulse, delayed) == 1.0

    def test_amplitude_scaling_invariance(self):
        scaled = Envelope(self.grid, 3.7 * self.pulse.samples)
        assert broadening_factor(self.pulse, scaled) == 1.0

    def test_gaussian_fwhm_value(self):
        expected = 2 * np.sqrt(np.log(2)) * 50e-12
        assert intensity_fwhm(self.pulse) == pytest.approx(expected, rel=1e-4)

    def test_zero_signal_rejected(self):
        zero = Envelope(self.grid, np.zeros(8192))
        with pytest.raises(WidthMetricError, match="all-zero"):
            intensity_fwhm(zero)
        with pytest.raises(WidthMetricError):
            broadening_factor(self.pulse, zero)

    def test_grid_mismatch_rejected(self):
        other = make_gaussian_pulse(FrequencyGrid(8192, 2e-12), 50e-12)
        with pytest.raises(GridMismatchError):
            broadening_factor(self.pulse, other)

    def test_multi_lobe_warns_and_uses_outermost(self):
        t = self.grid.time_axis
        lobes = np.exp(-((t - 2e-9) ** 2) / (2 * (50e-12) ** 2)) + 0.9 * np.exp(
            -((t - 6e-9) ** 2) / (2 * (50e-12) ** 2)
        )
        e = Envelope(self.grid, lobes)
        with pytest.warns(UserWarning, match="outermost"):
            width = intensity_fwhm(e)
        assert width > 3.9e-9  # spans both lobes

    def test_edge_touching_lobe_rejected(self):
        samples = np.ones(8192)
        with pytest.raises(WidthMetricError, match="window edge"):
            intensity_fwhm(Envelope(self.grid, samples))


def full_grid(grid, band):
    """The envelope whose spectrum is ``band`` on its bins and zero elsewhere."""
    n = grid.n_samples
    spectrum = np.zeros(n, np.complex128)
    spectrum[band_bins(n, band.size // 2)] = band
    return Envelope(grid, ifft(spectrum))


def outcome(measure, *args):
    """The width or WidthMetricError message, and the warnings, of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = measure(*args)
        except WidthMetricError as exc:
            value = str(exc)
    return value, [str(w.message) for w in caught]


def width_of(reference, band):
    """band_widths of ``band`` through ``reference``, as a stack of one."""
    return band_widths(reference, band[None])[0]


def own_width(grid, band):
    """band_widths of ``band`` from its own coarse grid.

    The reference holds a zero band, which bounds no band; it is broadcast,
    so that a reference refused for its tables allocates nothing.
    """
    zero = np.broadcast_to(np.complex128(0), band.shape)
    return width_of(band_reference(grid, zero), band)


# The per-band width path that band_widths replaced, kept as its reference:
# one band at a time, its bounds from the reference when in reach and from
# its own coarse transform otherwise, and its direct-sum rows kept in a dict
# and evaluated as the walks over them ask for each.


def reference_width(reference, band):
    """The width of one band through ``reference``, by the per-band path."""
    grid, m = reference.grid, reference.m
    n, h = grid.n_samples, band.size // 2
    if band.shape != reference.band.shape:
        raise ValueError(f"expected {reference.band.size} band bins, got {band.shape}")
    eps = np.abs(band - reference.band).sum() * (signal_module._DISTANCE_MARGIN / n)
    if not eps < np.inf:
        raise ValueError("band must be finite")
    if eps <= reference.reach:
        upper = (reference.amplitude_upper + eps) ** 2
        lower = np.maximum(reference.amplitude_lower - eps, 0.0) ** 2
        bounds = upper, lower, (reference.amplitude_peak - eps) ** 2
    else:
        spectrum = np.zeros(m, np.complex128)
        spectrum[: h + 1] = band[: h + 1] * (m / n)
        spectrum[m - h :] = band[h + 1 :] * (m / n)
        coarse = np.abs(np.fft.ifft(spectrum, out=spectrum)) ** 2
        if m == n:
            return reference_fwhm(coarse, grid.dt)
        peak = coarse.max()
        q = 2.0 * (np.pi * h / m) ** 2
        slack = 2.0 * q / (1.0 - q) * peak
        ends = np.append(coarse, coarse[0])
        upper = np.maximum(ends[:-1], ends[1:]) + slack
        lower = np.minimum(ends[:-1], ends[1:]) - slack
        bounds = upper, lower, peak
    return reference_sparse_fwhm(*bounds, ReferenceSamples(band, n, m), grid.dt)


def reference_fwhm(intensity, dt):
    """The width rule on every sample of one intensity."""
    peak = intensity.max()
    if peak == 0:
        raise WidthMetricError("cannot measure the width of an all-zero signal")
    half = 0.5 * peak
    above = np.nonzero(intensity >= half)[0]
    i_lo, i_hi = above[0], above[-1]
    one_lobe = above.size == i_hi - i_lo + 1
    return reference_crossing_width(
        half, i_lo, i_hi, one_lobe, intensity.size, dt,
        lambda: intensity[[i_lo - 1, i_lo, i_hi, i_hi + 1]],
    )


def reference_crossing_width(half, i_lo, i_hi, one_lobe, n, dt, edges):
    """The interpolated width between the outermost samples >= half, or its error."""
    if not one_lobe:
        warnings.warn("multiple lobes cross half maximum; using outermost crossings")
    if i_lo == 0 or i_hi == n - 1:
        raise WidthMetricError("half-maximum lobe touches the window edge")
    out_lo, in_lo, in_hi, out_hi = edges()
    frac_lo = (in_lo - half) / (in_lo - out_lo)
    frac_hi = (in_hi - half) / (in_hi - out_hi)
    return ((i_hi - i_lo) + frac_lo + frac_hi) * dt


class ReferenceSamples:
    """The direct-sum rows of one band, each evaluated on first use and kept."""

    CHUNK = 64

    def __init__(self, band, n, m):
        self.k, self.roots, self.table = signal_module._direct_sum_tables(
            n, band.size // 2, m
        )
        self.band = band / n
        self.n, self.m, self.r = n, m, n // m
        self.rows = {}

    def evaluate(self, intervals):
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
            turns = np.multiply.outer(chunk, self.k) & (self.m - 1)
            rows = np.abs((self.band * self.roots[turns])[:, None, :] @ self.table) ** 2
            self.rows.update(zip(chunk, rows[:, 0]))
            top = max(top, rows[:, 0, 1:-1].max())
        return top

    def at(self, j, lo, hi):
        """The samples lo..hi-1 from the row of interval j, within jr-1..jr+r."""
        if j not in self.rows:
            self.evaluate([j])
        base = j * self.r - 1
        return self.rows[j][lo - base : hi - base]


def reference_sparse_fwhm(upper, lower, floor, fine, dt):
    """The width rule on the samples of the intervals the bounds leave open."""
    if floor == 0:
        raise WidthMetricError("cannot measure the width of an all-zero signal")
    r = fine.r
    peak = fine.evaluate(np.flatnonzero(upper >= floor).tolist())
    half = 0.5 * peak
    reach = upper >= half
    fine.evaluate(np.flatnonzero(reach & (lower < half)).tolist())

    def outermost(intervals, pick):
        for j in intervals:
            hits = np.flatnonzero(fine.at(j, j * r, j * r + r) >= half)
            if hits.size:
                return j * r + int(hits[pick])
        raise AssertionError("the peak interval holds a sample >= half")

    reach = np.flatnonzero(reach).tolist()
    i_lo = outermost(reach, 0)
    i_hi = outermost(reversed(reach), -1)
    lo, hi = i_lo + 1, i_hi
    first, last = lo // r, (hi - 1) // r
    one_lobe = not any(
        (fine.at(j, max(j * r, lo), min(j * r + r, hi)) < half).any()
        for j in (np.flatnonzero(lower[first : last + 1] < half) + first).tolist()
    )

    def edges():
        out_lo, in_lo = fine.at(i_lo // r, i_lo - 1, i_lo + 1)
        in_hi, out_hi = fine.at(i_hi // r, i_hi, i_hi + 2)
        return out_lo, in_lo, in_hi, out_hi

    return reference_crossing_width(half, i_lo, i_hi, one_lobe, fine.n, dt, edges)


def assert_same_outcome(grid, band, rel=1e-12):
    got, got_warnings = outcome(own_width, grid, band)
    want, want_warnings = outcome(intensity_fwhm, full_grid(grid, band))
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=rel, abs=0)


def sinc_band(grid, delay_samples=None, amplitude=1.0):
    """Band of the unit-peak sinc at 64 widths per window, ``delay`` samples late."""
    n = grid.n_samples
    h = check_window("sinc", grid.window / 64, grid.n_samples, grid.dt)
    k = bin_numbers(n)[band_bins(n, h)]
    weights = np.where(np.abs(k) == h, 0.5, 1.0) * amplitude * n / (2 * h)
    delay = n // 2 if delay_samples is None else delay_samples
    return weights * np.exp(-2j * np.pi * k * delay / n)


class TestBandWidthMetric:
    """band_widths against intensity_fwhm of the whole inverse transform."""

    # 65536 samples measure on a coarse grid plus direct sums; 1024 on every sample
    grids = [FrequencyGrid(65536, 1e-12), FrequencyGrid(1024, 1e-12)]

    @pytest.mark.parametrize("grid", grids, ids=["sparse", "every-sample"])
    def test_sinc_width(self, grid):
        assert_same_outcome(grid, sinc_band(grid))

    @pytest.mark.parametrize("grid", grids, ids=["sparse", "every-sample"])
    def test_multi_lobe_warns_and_uses_outermost(self, grid):
        n = grid.n_samples
        band = sinc_band(grid, n // 4) + sinc_band(grid, 3 * n // 4, amplitude=0.9)
        assert_same_outcome(grid, band)
        with pytest.warns(UserWarning, match="multiple lobes"):
            width = own_width(grid, band)
        assert width > grid.window / 2  # spans both lobes

    @pytest.mark.parametrize("grid", grids, ids=["sparse", "every-sample"])
    def test_zero_signal_rejected(self, grid):
        band = np.zeros(129, np.complex128)
        assert_same_outcome(grid, band)
        with pytest.raises(WidthMetricError, match="all-zero"):
            own_width(grid, band)

    @pytest.mark.parametrize("grid", grids, ids=["sparse", "every-sample"])
    def test_edge_touching_lobe_rejected(self, grid):
        # the lobe of a sinc centred d samples in, d its half-maximum reach,
        # starts at the first sample and ends before the last
        n = grid.n_samples
        centred = np.abs(full_grid(grid, sinc_band(grid)).samples[n // 2 :]) ** 2
        reach = np.count_nonzero(centred >= 0.5 * centred.max()) - 1
        for delay in (reach, n - 1 - reach):
            band = sinc_band(grid, delay)
            assert_same_outcome(grid, band)
            with pytest.raises(WidthMetricError, match="window edge"):
                own_width(grid, band)

    def test_batches_bound_the_memory_of_a_deep_stack(self):
        # 1000 distinct bands out of the reference's reach, each measured
        # from its own 4096-point coarse transform: in one batch their
        # transforms and bounds would take over 100 MB
        grid = FrequencyGrid(2**17, 1e-12)
        band = sinc_band(grid)
        reference = band_reference(grid, band)
        bands = band * np.linspace(2.0, 3.0, 1000)[:, None]
        assert not (reference.distances(bands) <= reference.reach).any()
        tracemalloc.start()
        try:
            widths = band_widths(reference, bands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert widths == pytest.approx(
            band_widths(reference, reference.band[None])[0], rel=1e-12
        )

    @pytest.mark.parametrize("n, r", [(65536, 16), (16384, 16), (8192, 8)])
    def test_table_of_direct_sums_is_bounded(self, monkeypatch, n, r):
        # the direct sums on the evaluation grid and the 4096-point coarse
        # transform count together. At h = 64 the evaluation grid is the
        # coarse grid at 65536 (rows of 16 samples), and a quarter of it at
        # 16384 (rows of 16) and at 8192 (rows of 8)
        grid = FrequencyGrid(n, 1e-12)
        band = sinc_band(grid)
        assert self.stride(grid, band) == r
        size = band.size * (r + 2) + 4096
        monkeypatch.setattr(base_module, "MAX_TABLE_SIZE", size)
        assert own_width(grid, band) > 0
        assert band_reference(grid, band).reach > 0
        monkeypatch.setattr(base_module, "MAX_TABLE_SIZE", size - 1)
        for measure in (own_width, band_reference):
            with pytest.raises(WindowError, match=f"129x{r + 2} table .* 4096-point"):
                measure(grid, band)

    @pytest.mark.parametrize(
        "n, h, tables_fit, message",
        [
            # a 129 x (2**28 + 2) table of direct sums: 550 GB
            (2**40, 64, False, "129x268435458 table of direct sums and 4096-point"),
            # a 3145729 x 10 table on 2**25 intervals, 503 MB, fits with
            # their 2**25 roots of unity, but not with the 2**27-point coarse
            # transform, 2 GiB
            (2**28, 3 * 2**19, True, "3145729x10 table of direct sums and 134217728-point"),
        ],
        ids=["direct-sums", "coarse-transform"],
    )
    def test_huge_grid_is_refused_before_allocating(self, n, h, tables_fit, message):
        grid = FrequencyGrid(n, 1e-15)
        band = np.broadcast_to(np.complex128(1), (2 * h + 1,))  # no memory
        m_e = self.evaluation_size(grid, band)
        sums = band.size * (n // m_e + 2)
        assert (sums + m_e <= base_module.MAX_TABLE_SIZE) == tables_fit
        tracemalloc.start()
        try:
            for measure in (own_width, band_reference):
                with pytest.raises(WindowError, match=message):
                    measure(grid, band)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("delay", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("grid", grids, ids=["sparse", "every-sample"])
    def test_lobe_wrapping_past_the_edge_warns_and_is_rejected(self, grid, delay):
        # centred on the first or last sample, the lobe wraps to the other end
        band = sinc_band(grid, delay % grid.n_samples)
        assert_same_outcome(grid, band)
        with pytest.warns(UserWarning, match="multiple lobes"):
            with pytest.raises(WidthMetricError, match="window edge"):
                own_width(grid, band)

    @staticmethod
    def evaluation_size(grid, band):
        """Points M_e of the grid band_widths measures on.

        Its coarse grid M has COARSE_PER_BIN points per band bin, rounded up
        to a power of two; M_e is N where M reaches N, and otherwise M/4, or
        more where N/M_e would pass ROW_SAMPLES, up to M.
        """
        n, h = grid.n_samples, band.size // 2
        m = min(n, 1 << (COARSE_PER_BIN * h - 1).bit_length())
        return m if m == n else min(m, max(m // 4, n // ROW_SAMPLES))

    @classmethod
    def stride(cls, grid, band):
        """Samples between two points of the evaluation grid of band_widths."""
        return grid.n_samples // cls.evaluation_size(grid, band)

    @staticmethod
    def two_lobes(grid, second_delay, ratio):
        """Sincs at n/4 and ``second_delay`` whose peak intensities are in ``ratio``."""
        n = grid.n_samples
        amplitude = np.sqrt(ratio)
        for _ in range(4):  # the lobes' tails lift each other's peaks a little
            band = sinc_band(grid, n // 4) + sinc_band(grid, second_delay, amplitude)
            intensity = np.abs(full_grid(grid, band).samples) ** 2
            got = intensity[second_delay] / intensity[n // 4]
            amplitude *= np.sqrt(ratio / got)
        return band

    def test_lobe_just_above_half_between_coarse_samples(self):
        # the second lobe tops out at half maximum + 1e-5, midway between
        # two coarse samples, which both read below half maximum
        grid = self.grids[0]
        n, r = grid.n_samples, self.stride(grid, sinc_band(grid))
        assert r > 1
        band = self.two_lobes(grid, 3 * n // 4 + r // 2, 0.5 * (1 + 1e-5))
        assert_same_outcome(grid, band)
        with pytest.warns(UserWarning, match="multiple lobes"):
            assert own_width(grid, band) > grid.window / 2

    def test_highest_peak_between_coarse_samples(self):
        # two lobes 1e-6 apart in height: the higher one sits midway between
        # coarse samples, the lower one on a coarse sample
        grid = self.grids[0]
        n, r = grid.n_samples, self.stride(grid, sinc_band(grid))
        band = self.two_lobes(grid, 3 * n // 4 + r // 2, 1 + 1e-6)
        assert_same_outcome(grid, band)

    def test_band_must_fit_the_grid(self):
        with pytest.raises(ValueError, match="band bins"):
            own_width(FrequencyGrid(16, 1e-12), np.ones(17, np.complex128))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("grid", grids, ids=["sparse", "every-sample"])
    def test_band_that_is_not_finite_is_refused(self, grid, bad):
        # such a band is never near a reference, so it is measured from its
        # own coarse grid (65536) or every sample (1024), which sum the bad bin
        band = sinc_band(grid)
        bad_band = band.copy()
        bad_band[3] = bad
        for reference in (band_reference(grid, band), band_reference(grid, 0 * band)):
            with pytest.raises(ValueError, match="band must be finite"):
                width_of(reference, bad_band)
        with pytest.raises(ValueError, match="band must be finite"):
            reference = band_reference(grid, bad_band)
            band_widths(reference, reference.band[None])[0]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2**p for p in range(10, 17)]),
        h=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        smooth=st.booleans(),
    )
    # a lobe across the window edge: the first and last intervals hold
    # only samples >= half
    @example(n=1024, h=4, seed=0, smooth=False)
    def test_any_band_spectrum(self, n, h, seed, smooth):
        # random complex bins, optionally tapered: multi-lobe signals, edge
        # lobes and single lobes of every shape
        rng = np.random.default_rng(seed)
        band = rng.standard_normal(2 * h + 1) + 1j * rng.standard_normal(2 * h + 1)
        if smooth:
            k = np.r_[0 : h + 1, -h:0]
            band *= np.exp(-((k / (0.3 * h + 1)) ** 2))
        assert_same_outcome(FrequencyGrid(n, 1e-12), band)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2**p for p in range(10, 17)]),
        xi=st.floats(0.05, 6.0),
        alpha=st.floats(0.05, 1.0),
        k=st.integers(0, 30),
        pcf_d=st.floats(300.0, 6000.0),
    )
    def test_compensated_pulse(self, n, xi, alpha, k, pcf_d):
        # The full-grid output carries rounding noise outside the band, which
        # the cascade amplifies. Where that noise is negligible the band alone
        # must give the full-grid width. The noise moves the width by about
        # sqrt(share)/20 (a share of 2e-21 moved it by 1.5e-12), so a share
        # below 1e-24 is what 1e-12 needs.
        bandwidth, beta2 = 3e9, -21e-27
        grid = FrequencyGrid(n, 64 * (2 / bandwidth) / n)
        tx = make_sinc_pulse(grid, 2 / bandwidth)
        target = FiberParams(beta2, xi / (abs(beta2) * (2 * np.pi * bandwidth) ** 2))
        sub = match_pcf(target, d_to_beta2(pcf_d, 1.55e-6), alpha=alpha)
        out = compensate(propagate(tx, target), CompensatorSpec(sub, k))
        spectrum = fft(out.samples)
        bins = band_bins(n, check_window("sinc", 2 / bandwidth, n, grid.dt))
        outside = np.sum(np.abs(np.delete(spectrum, bins)) ** 2)
        if outside < 1e-24 * np.sum(np.abs(spectrum) ** 2):
            got = own_width(grid, spectrum[bins])
            want = intensity_fwhm(Envelope(grid, ifft(spectrum)))  # in place
            assert got == pytest.approx(want, rel=1e-12)


def bits(result):
    """An :func:`outcome` with its width as the hex of its bits."""
    value, caught = result
    return (value.hex() if isinstance(value, float) else value), caught


def near(grid, band, ratio, rng):
    """``band`` moved by a random step of ratio times its reference's reach.

    The step is measured as BandReference.bounds measures it: ||step||_1 / N.
    """
    reference = band_reference(grid, band)
    step = rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size)
    step *= ratio * reference.reach * grid.n_samples / np.abs(step).sum()
    return band + step


class TestBandReference:
    """band_widths through a band's reference against a zero band's."""

    @staticmethod
    def reference_band(grid, kind, h, rng):
        """A band of ``kind``; the sinc kinds are 64 widths per window (h = 64)."""
        n = grid.n_samples
        if kind in ("random", "tapered"):
            band = rng.standard_normal(2 * h + 1) + 1j * rng.standard_normal(2 * h + 1)
            if kind == "tapered":
                band *= np.exp(-((np.r_[0 : h + 1, -h:0] / (0.3 * h + 1)) ** 2))
            return band
        if kind == "two-lobe":
            delay = int(rng.integers(n // 2, n))
            second = sinc_band(grid, delay, rng.uniform(0.6, 1.2))
            return sinc_band(grid, n // 4) + second
        # edge-touching: the lobe's half-maximum reach is about n / 128 samples
        delay = int(rng.integers(0, n // 64))
        return sinc_band(grid, delay if rng.random() < 0.5 else n - 1 - delay)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([2**p for p in range(13, 18)]),
        h=st.integers(1, 80),
        kind=st.sampled_from(
            ["random", "tapered", "two-lobe", "edge-touching", "zero"]
        ),
        ratio=st.one_of(
            st.sampled_from([0.0, 1e-9, 0.5, 0.999, 1.001, 2.0]), st.floats(0.0, 3.0)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # the first sample >= half starts an interval whose samples all reach half
    @example(n=8192, h=33, kind="random", ratio=0.0, seed=1)
    # rows of 16 and of 8 samples, under merged bounds and under the band's own
    @example(n=16384, h=64, kind="two-lobe", ratio=0.5, seed=2)
    @example(n=8192, h=64, kind="tapered", ratio=0.999, seed=3)
    @example(n=16384, h=64, kind="random", ratio=1.001, seed=4)
    def test_same_bits_with_and_without_the_reference(self, n, h, kind, ratio, seed):
        # a reference band of some kind and a band a drawn distance from it,
        # on either side of the switch at ratio 1: the width, the warning
        # and the error are the same bits either way
        grid = FrequencyGrid(n, 1e-12)
        rng = np.random.default_rng(seed)
        reference_band = self.reference_band(grid, kind, h, rng)
        reference = band_reference(grid, reference_band)
        if kind == "zero":
            band = np.zeros_like(reference_band)
        elif reference.reach == -np.inf:  # measured on every sample: M = N
            assert TestBandWidthMetric.stride(grid, reference_band) == 1
            band = reference_band
        else:
            band = near(grid, reference_band, ratio, rng)
            if abs(ratio - 1) > 1e-3:
                in_reach = reference.distances(band[None])[0] <= reference.reach
                assert in_reach == (ratio < 1)
        got = outcome(width_of, reference, band)
        assert bits(got) == bits(outcome(own_width, grid, band))
        assert bits(got) == bits(outcome(reference_width, reference, band))

    @pytest.mark.parametrize("n", [65536, 16384], ids=["coarse", "merged"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["added", "taken"])
    def test_bounds_hold_where_the_whole_distance_lands_on_one_sample(self, sign, n):
        # The edge bins alone give a cosine intensity of frequency 2h, whose
        # curvature meets Bernstein's bound; here its top lies midway between
        # two coarse samples. The step from it adds its whole L1 size to the
        # amplitude there (or takes it away): added, it lifts that sample
        # above the reference's own bound, which only the widening covers.
        # At 16384 samples the reference's bounds are merged 4:1 onto the
        # intervals of the evaluation grid, whose rows hold 16 samples.
        h = 64
        grid = FrequencyGrid(n, 1e-12)
        r = TestBandWidthMetric.stride(grid, np.zeros(2 * h + 1))
        assert r == 16
        top = n // 2 + n // (COARSE_PER_BIN * h) // 2
        k = np.r_[0 : h + 1, -h:0]
        reference_band = np.zeros(2 * h + 1, np.complex128)
        reference_band[[h, h + 1]] = np.exp(-2j * np.pi * np.array([h, -h]) * top / n)
        reference = band_reference(grid, reference_band)
        amplitude = full_grid(grid, reference_band).samples[top]
        eps = 0.999 * reference.reach
        step = sign * eps * n / k.size * amplitude / abs(amplitude)
        band = reference_band + step * np.exp(-2j * np.pi * k * top / n)
        m = n // r
        keys, upper, lower, floor, least = signal_module._candidates(
            reference, reference.distances(band[None]), None
        )
        assert top // r in keys  # band 0's keys are its intervals j
        intensity = np.abs(full_grid(grid, band).samples) ** 2
        ends = np.append(intensity, intensity[0])
        for j in range(m):  # samples jr..jr+r
            stretch = ends[j * r : j * r + r + 1]
            if j in keys:
                i = np.searchsorted(keys, j)
                assert lower[i] <= stretch.min() and stretch.max() <= upper[i], j
            else:  # an interval left out cannot reach half the floor
                assert stretch.max() < least[0], j
        assert floor[0] <= intensity.max()
        unwidened = reference.amplitude_upper[top // r] ** 2
        assert (intensity[top] > unwidened) == (sign > 0)

    def test_peak_below_its_floor_is_refused(self):
        # a least level above every sample means a bound failed: the width
        # metric stops rather than measure a band whose peak it never reads
        grid = FrequencyGrid(8192, 1e-12)
        band = sinc_band(grid)
        reference = band_reference(grid, band)
        keys, upper, lower, floor, least = signal_module._candidates(
            reference, reference.distances(band[None]), None
        )
        args = (grid.n_samples, reference.m, grid.dt)
        signal_module._sparse_widths(band[None], keys, upper, lower, floor, least, *args)
        least = np.full_like(least, 2.0 * np.max(np.abs(full_grid(grid, band).samples) ** 2))
        with pytest.raises(AssertionError, match="a band's peak lies below its floor"):
            signal_module._sparse_widths(band[None], keys, upper, lower, floor, least, *args)

    def test_no_reference_where_it_would_not_be_used(self):
        grid = FrequencyGrid(4096, 1e-12)
        reference = band_reference(grid, sinc_band(grid))
        assert reference.reach == -np.inf  # M = N = 4096
        width = band_widths(reference, reference.band[None])[0]
        assert width == own_width(grid, sinc_band(grid))
        grid = FrequencyGrid(8192, 1e-12)
        assert band_reference(grid, sinc_band(grid)).reach > 0
        # a zero band, and peaks (1e-320, 1e280) whose widened bounds could
        # leave the normal doubles: a floor rounded to 0 would read all-zero
        for scale in (0.0, 1e-160, 1e140):
            reference = band_reference(grid, scale * sinc_band(grid))
            assert reference.reach == -np.inf
            assert not reference.distances(sinc_band(grid)[None])[0] <= reference.reach

    def test_width_is_measured_when_asked_for(self):
        # a band without a measurable width (all zero, or a lobe across the
        # window edge) is still a reference; its width raises and warns as
        # its own band_widths does, and only when it is measured
        grid = FrequencyGrid(8192, 1e-12)
        for band in (np.zeros(129, np.complex128), sinc_band(grid, 0)):
            reference = band_reference(grid, band)
            want = outcome(own_width, grid, band)
            assert isinstance(want[0], str)
            width = outcome(lambda: band_widths(reference, reference.band[None])[0])
            assert width == want

    def test_band_of_another_size_is_refused(self):
        grid = FrequencyGrid(8192, 1e-12)
        reference = band_reference(grid, sinc_band(grid))
        with pytest.raises(ValueError, match="expected 129 band bins"):
            width_of(reference, np.ones(127, np.complex128))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([2**13, 2**14, 2**16, 2**20]),
        h=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_a_row_has_the_same_bits_alone_or_among_others(self, n, h, seed, data):
        # Row j of one band, evaluated alone, and among rows of that band and
        # of other bands of the stack, which share its stacked products
        rng = np.random.default_rng(seed)
        shape = (4, 2 * h + 1)
        bands = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = TestBandWidthMetric.evaluation_size(FrequencyGrid(n, 1e-12), bands[0])
        intervals = st.integers(0, m - 1)
        b = data.draw(st.integers(0, 3))
        j = data.draw(intervals)
        alone = signal_module._direct_sums(bands[b : b + 1], np.array([j]), n, m)
        keys = {b * m + j}
        for other in range(4):
            drawn = data.draw(st.lists(intervals, max_size=50))
            keys.update(other * m + i for i in drawn)
        keys = np.array(sorted(keys))
        among = signal_module._direct_sums(bands, keys, n, m)
        assert among.shape == (keys.size, 2 + n // m)
        row = among[np.searchsorted(keys, b * m + j)]
        assert alone[0].tobytes() == row.tobytes()
        # so are the rows of the per-band reference, in its own products
        single = ReferenceSamples(bands[b], n, m)
        single.evaluate([j])
        assert single.rows[j].tobytes() == row.tobytes()

    @staticmethod
    def stack(grid, reference, kinds, rng):
        """Bands of the given kinds near, and far from, the reference's band."""
        n, base = grid.n_samples, reference.band
        h = base.size // 2
        k = np.r_[0 : h + 1, -h:0]
        scale = reference.reach if reference.reach > 0 else np.abs(base).sum() / n

        def step(ratio):
            re, im = rng.standard_normal((2, base.size))
            direction = re + 1j * im
            return base + direction * (ratio * scale * n / np.abs(direction).sum())

        def delayed(band, samples):
            return band * np.exp(-2j * np.pi * k * samples / n)

        bands = []
        for kind in kinds:
            if kind == "near":
                band = step(rng.uniform(0.0, 0.999))
            elif kind == "far":
                band = step(rng.uniform(1.001, 3.0))
            elif kind == "zero":
                band = np.zeros_like(base)
            elif kind == "scaled":
                band = base * rng.choice([1e-3, 0.5, 3.0, 1e4])
            elif kind == "two-lobe":
                band = base + delayed(base, int(rng.integers(n // 8, n // 2))) * 0.8
            elif kind == "edge":  # the lobe moved onto the first sample
                band = delayed(base, n // 2)
            elif kind == "not-finite":
                band = base.copy()
                band[int(rng.integers(base.size))] = np.nan
            else:  # "repeat": an earlier band of the stack, bit for bit
                band = bands[int(rng.integers(len(bands)))] if bands else base.copy()
            bands.append(band)
        return np.array(bands)

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.sampled_from([2**12, 2**13, 2**14, 2**16]),
        base=st.sampled_from(["sinc", "tapered"]),
        h=st.integers(1, 80),
        kinds=st.lists(
            # the kinds that raise are drawn less often, so that most stacks
            # are measured to their end
            st.sampled_from(
                ["near", "far", "scaled", "two-lobe", "repeat"] * 4
                + ["zero", "edge", "not-finite"]
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # the first sample >= half starts an interval whose samples all reach half
    @example(n=8192, base="sinc", h=1, kinds=["two-lobe"], seed=54)
    # a sinc base on rows of 16 and of 8 samples
    @example(n=16384, base="sinc", h=64, kinds=["near", "far", "two-lobe", "repeat"], seed=5)
    @example(n=8192, base="sinc", h=64, kinds=["far", "near", "scaled", "edge"], seed=6)
    def test_stack_matches_the_per_band_reference(self, n, base, h, kinds, seed):
        # Every width of a stack is the per-band path's, bit for bit, with its
        # warnings in the same number and the same first error, band by band
        # in stack order. A sinc base (h = 64) is measured on every sample at
        # n = 4096 (M = N), on an evaluation grid a quarter of its coarse grid
        # at 8192 and 16384 (rows of 8 and 16 samples), and on its coarse grid
        # at 65536; a tapered one, of any h, mostly on a grid coarser than N.
        grid = FrequencyGrid(n, 1e-12)
        rng = np.random.default_rng(seed)
        if base == "sinc":
            band = sinc_band(grid, int(rng.integers(3 * n // 8, 5 * n // 8)))
        else:
            band = TestBandReference.reference_band(grid, "tapered", h, rng)
        reference = band_reference(grid, band)
        bands = self.stack(grid, reference, kinds, rng)

        def per_band():
            return [reference_width(reference, b) for b in bands]

        def batched():
            return band_widths(reference, bands).tolist()

        got, want = stack_outcome(batched), stack_outcome(per_band)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2**12, 2**14, 2**16]),
        xis=st.lists(st.floats(0.05, 8.0), min_size=2, max_size=2),
        alpha=st.floats(0.05, 1.0),
        k_max=st.integers(0, 12),
        bad=st.sampled_from(["nan", "inf", "zero", "edge"]),
        data=st.data(),
    )
    def test_mixed_stack_gives_each_band_its_stack_of_one(
        self, n, xis, alpha, k_max, bad, data
    ):
        # A sinc run's width stream: the sent band (the reference's own), the
        # received bands of two spans and their stage outputs, some repeated
        # rows, and one band that is not finite, all zero or on the window
        # edge, each at a drawn place. Every outcome has the bits of the
        # band's stack of one. The warnings and the first error of the whole
        # stack, and of its parts reported one after the other, are those of
        # one band at a time.
        width, beta2 = 2 / 3e9, -21e-27
        grid = FrequencyGrid(n, 64 * width / n)  # a 3 GHz sinc, 64 widths
        reference = band_reference(grid, make_sinc_band(grid, width))
        offsets = reference.offsets
        bands = [reference.band]
        for xi in xis:
            fiber = FiberParams(beta2, span_length(xi, beta2, 3e9))
            h_span = dispersion_response(fiber, offsets)  # the matched pcf's too
            rx = reference.band * h_span
            bands.append(rx)
            bands += [rx * r for r in stage_responses(alpha, h_span, range(k_max + 1))]
        places = st.integers(0, len(bands))
        for _ in range(data.draw(st.integers(0, 4), label="repeats")):
            row = bands[data.draw(st.integers(0, len(bands) - 1), label="repeated")]
            bands.insert(data.draw(places, label="repeat place"), row)
        if bad == "edge":  # the sent pulse half a window on: two lobes, on the edge
            h = reference.band.size // 2
            odd = reference.band * (1.0 - 2.0 * (np.r_[0 : h + 1, -h:0] % 2))
        else:
            value = {"nan": np.nan, "inf": np.inf, "zero": 0.0}[bad]
            odd = np.full_like(reference.band, value)
        bands.insert(data.draw(st.integers(0, len(bands)), label="odd place"), odd)
        stack = np.array(bands)
        outcomes = band_outcomes(reference, stack)
        alone = [outcome_bits(band_outcomes(reference, band[None]))[0] for band in stack]
        assert outcome_bits(outcomes) == alone

        places = st.integers(0, len(stack))
        cuts = sorted(data.draw(st.lists(places, max_size=3), label="cuts"))

        def in_parts():
            widths = []
            for lo, hi in zip([0] + cuts, cuts + [len(stack)]):
                widths += report_outcomes(*(v[lo:hi] for v in outcomes)).tolist()
            return widths

        want = stack_outcome(lambda: [width_of(reference, band) for band in stack])
        assert stack_outcome(lambda: band_widths(reference, stack)) == want
        assert stack_outcome(in_parts) == want

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2**12, 2**13, 2**14, 2**16]),
        rows=st.integers(1, 4),
        kinds=st.lists(
            st.sampled_from(["near", "far", "scaled", "two-lobe", "repeat"]), max_size=10
        ),
        repeats=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_bands_are_read_from_any_iterable_a_chunk_at_a_time(
        self, n, rows, kinds, repeats, seed, data
    ):
        # BATCH_SAMPLES is cut so that a batch holds 1 to 4 distinct bands. A
        # generator yields mixed bands: one that is not finite, one all zero,
        # one on the window edge, and later repeats of earlier bands. The
        # outcomes are the bits of the whole stack's. Each measured batch holds
        # distinct bands only, and the first one is measured as soon as a
        # distinct band arrives past a full batch, before the rest is read.
        grid = FrequencyGrid(n, 1e-12)
        rng = np.random.default_rng(seed)
        band = sinc_band(grid, int(rng.integers(3 * n // 8, 5 * n // 8)))
        reference = band_reference(grid, band)
        kinds = data.draw(st.permutations(kinds + ["zero", "edge", "not-finite"]))
        bands = list(self.stack(grid, reference, kinds, rng))
        total = len(bands) + repeats
        for _ in range(repeats):
            i = data.draw(st.integers(0, len(bands) - 1), label="repeated")
            bands.insert(data.draw(st.integers(i + 1, len(bands)), label="place"), bands[i])
        want = outcome_bits(band_outcomes(reference, np.array(bands)))
        keys = [row.tobytes() for row in bands]
        starts = [i for i, key in enumerate(keys) if key not in keys[:i]]
        yielded, calls = [0], []

        def read():
            for band in bands:
                yielded[0] += 1
                yield band

        def measure(reference, stack):
            calls.append((yielded[0], {row.tobytes() for row in stack}, len(stack)))
            return original(reference, stack)

        original = signal_module._measure
        with pytest.MonkeyPatch.context() as mp:
            batch = rows * reference.m + int(rng.integers(reference.m))
            mp.setattr(signal_module, "BATCH_SAMPLES", batch)
            mp.setattr(signal_module, "_measure", measure)
            got = outcome_bits(band_outcomes(reference, read()))
        assert got == want
        assert yielded[0] == total
        assert all(len(distinct) == size <= rows for _, distinct, size in calls)
        assert calls[0][0] == (starts[rows] + 1 if len(starts) > rows else total)

    def test_a_refilled_array_is_read_as_each_band_it_holds(self):
        # A generator that refills one array and yields it every time: each
        # band is read as it stands when yielded, so the outcomes are the
        # bits of the equivalent stack's.
        grid = FrequencyGrid(2**13, 1e-12)
        reference = band_reference(grid, sinc_band(grid))
        kinds = ["near", "far", "scaled", "two-lobe", "zero", "edge", "not-finite"]
        stack = self.stack(grid, reference, kinds, np.random.default_rng(7))

        def refilled():
            band = np.empty_like(stack[0])
            for row in stack:
                band[:] = row
                yield band

        want = outcome_bits(band_outcomes(reference, stack))
        assert len(set(want)) == len(stack)
        assert outcome_bits(band_outcomes(reference, refilled())) == want

    def test_a_small_run_allocates_for_its_own_bands(self):
        # Three bands of a 3 GHz sinc on 16384 samples, 64 widths: 0.4 MB,
        # where holding room for BATCH_SAMPLES band values takes 4 MiB more.
        width, beta2 = 2 / 3e9, -21e-27
        grid = FrequencyGrid(2**14, 64 * width / 2**14)
        reference = band_reference(grid, make_sinc_band(grid, width))
        fiber = FiberParams(beta2, span_length(0.5, beta2, 3e9))
        rx = reference.band * dispersion_response(fiber, reference.offsets)
        bands = [reference.band, rx, 2.0 * rx]
        tracemalloc.start()
        try:
            widths = report_outcomes(*band_outcomes(reference, bands))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert widths[1] == widths[2] > widths[0]


def outcome_bits(outcomes):
    """Each band's width bits, multi-lobe flag and error code, of band_outcomes."""
    widths, multi, codes = outcomes
    bits = widths.view(np.int64).tolist()
    return list(zip(bits, multi.tolist(), codes.tolist()))


def stack_outcome(measure):
    """The widths' bits or the first error, and the warnings, of one stack."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = [np.float64(w).view(np.int64) for w in measure()]
        except ValueError as exc:  # WidthMetricError too
            value = f"{type(exc).__name__}: {exc}"
    return value, [str(w.message) for w in caught]


def grid_guard(e, spectrum, accumulated_gvd):
    """check_wraparound on the full grid, as propagate and compensate run it."""
    width = intensity_fwhm(e)
    check_wraparound(e.grid, e.grid.delta_omega, spectrum, width, accumulated_gvd)


class TestWraparoundGuard:
    def test_accepts_mild_spread(self):
        grid = FrequencyGrid(16384, 64 * 100e-12 / 16384)
        e = make_gaussian_pulse(grid, 100e-12)
        grid_guard(e, fft(e.samples), 21e-27 * 100e3)

    def test_rejects_excessive_spread(self):
        grid = FrequencyGrid(512, 16 * 100e-12 / 512)
        e = make_gaussian_pulse(grid, 100e-12)
        with pytest.raises(WraparoundError):
            grid_guard(e, fft(e.samples), 21e-27 * 2e6)


def guard_outcome(check, *args):
    """None or the WraparoundError/WidthMetricError message, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check(*args)
            raised = None
        except (WraparoundError, WidthMetricError) as exc:
            raised = f"{type(exc).__name__}: {exc}"
    return raised, [str(w.message) for w in caught]


def band_guard(grid, band, accumulated_gvd):
    """check_wraparound on the band's offsets, as the band path runs it."""
    reference = band_reference(grid, band)
    width = band_widths(reference, reference.band[None])[0]
    offsets = band_offsets(grid, band.size // 2)
    check_wraparound(grid, offsets, band, width, accumulated_gvd)


class TestBandWraparoundGuard:
    """check_wraparound on the band's offsets against it on the full grid."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2**p for p in range(8, 15)]),
        window_factor=st.floats(8.0, 128.0),
        span_xi=st.floats(0.0, 60.0),
        margin=st.floats(0.25, 2.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_raises_exactly_when_the_full_grid_guard_does(
        self, n, window_factor, span_xi, margin, sign
    ):
        # the sent sinc, dispersed over a span of strength span_xi, against a
        # spread that asks for `margin` times the window (or none at all
        # where the pulse width alone exceeds that)
        bandwidth, beta2 = 3e9, -21e-27
        grid = sinc_grid(n, window_factor)
        try:
            tx = make_sinc_pulse(grid, 2 / bandwidth)
        except WindowError:
            return
        z = span_xi / (abs(beta2) * (2 * np.pi * bandwidth) ** 2)
        fiber = FiberParams(beta2, z)
        rx = apply_tf(tx, dispersion_tf(fiber, grid))  # no guard on the span
        spectrum = fft(rx.samples)
        band = make_sinc_band(grid, 2 / bandwidth)
        rx_band = band * dispersion_response(fiber, band_offsets(grid, band.size // 2))
        occupied = occupied_bandwidth(grid.delta_omega, spectrum)
        # read from the band, the occupied band is the edge bin's, bit for bit
        h = band.size // 2
        edge = band_offsets(grid, h)[h] / np.pi
        for b in (band, rx_band):
            assert occupied_bandwidth(band_offsets(grid, h), b) == edge == occupied
        width = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # guard_outcome compares the warnings
            with contextlib.suppress(WidthMetricError):
                width = intensity_fwhm(rx)
        spread = max(grid.window * margin / 4 - width, 0.0)
        gvd = sign * spread / (2 * np.pi * occupied)
        needed = 4 * (width + abs(gvd) * 2 * np.pi * occupied)
        if abs(grid.window / needed - 1) < 1e-9:
            return  # the two widths may round to either side
        got = guard_outcome(band_guard, grid, rx_band, gvd)
        assert got == guard_outcome(grid_guard, rx, spectrum, gvd)

    def test_the_edge_bins_set_the_band(self):
        # window factor 50.5 rounds the band to 50 bins: the occupied band,
        # not the configured 3 GHz, sets the spread in the message
        grid = sinc_grid(4096, 50.5)
        tx = make_sinc_pulse(grid, 2 / 3e9)
        band = make_sinc_band(grid, 2 / 3e9)
        gvd = grid.window / (2 * np.pi * 3e9)
        want = guard_outcome(grid_guard, tx, fft(tx.samples), gvd)
        assert want[0] is not None
        assert guard_outcome(band_guard, grid, band, gvd) == want


class TestEnvelope:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Envelope(FrequencyGrid(8, 1e-12), np.ones(7))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0.0, np.inf)], ids=["nan", "inf", "inf-imag"]
    )
    def test_non_finite_samples_rejected(self, bad):
        samples = np.ones(8, complex)
        samples[3] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            Envelope(FrequencyGrid(8, 1e-12), samples)

    def test_samples_read_only(self):
        e = Envelope(FrequencyGrid(8, 1e-12), np.ones(8))
        with pytest.raises(ValueError):
            e.samples[0] = 2.0

    def test_energy(self):
        e = Envelope(FrequencyGrid(8, 2e-12), 2.0 * np.ones(8))
        assert e.energy == pytest.approx(8 * 4 * 2e-12, rel=1e-15)
