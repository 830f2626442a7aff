import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    intensity_fwhm,
    make_gaussian_pulse,
    make_sinc_pulse,
    occupied_bandwidth,
)
from dispersim import signal as signal_module
from dispersim.compensator import CompensatorSpec, compensate, match_pcf
from dispersim.fiber import (
    FiberParams,
    d_to_beta2,
    dispersion_response,
    dispersion_tf,
    propagate,
)
from dispersim.signal import (
    COARSE_PER_BIN,
    band_bins,
    band_intensity_fwhm,
    band_offsets,
    check_band_wraparound,
    ifft,
    make_sinc_band,
    sinc_band_bins,
)


def bin_numbers(n):
    """Signed bin numbers k of an n-point DFT, f_k = k*df (Nyquist bin is -n/2)."""
    return np.rint(np.fft.fftfreq(n, 1.0) * n).astype(int)


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
        assert occupied_bandwidth(grid, fft(np.ones(8))) == 0.0

    def test_impulse_is_flat(self):
        grid = FrequencyGrid(8, 1e-12)
        samples = np.zeros(8)
        samples[3] = 1.0
        # every bin is occupied, up to the Nyquist offset pi/dt
        assert occupied_bandwidth(grid, fft(samples)) == pytest.approx(
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
        band = occupied_bandwidth(self.grid, fft(e.samples))
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
    half_band_bins = sinc_band_bins(grid, zero_to_zero_width)
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
    """make_sinc_band against the transform of the sampled make_sinc_pulse."""

    width = 2 / 3e9

    @pytest.mark.parametrize(
        "n, window_factor",
        [(256, 8.0), (1024, 50.5), (4096, 127.3), (16384, 64.0), (65536, 100.25)],
    )
    def test_pulse_keeps_its_bits(self, n, window_factor):
        grid = sinc_grid(n, window_factor)
        got = make_sinc_pulse(grid, self.width).samples
        want = frozen_sinc_pulse(grid, self.width)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2**p for p in range(8, 17)]),
        window_factor=st.one_of(
            st.integers(8, 128).map(float), st.floats(8.0, 128.0)
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
        np.testing.assert_array_equal(
            pulse.samples.view(np.int64),
            frozen_sinc_pulse(grid, self.width).view(np.int64),
        )
        band = make_sinc_band(grid, self.width)
        h = band.size // 2
        assert h == sinc_band_bins(grid, self.width)
        bins = band_bins(n, h)
        spectrum = fft(pulse.samples)
        assert np.max(np.abs(band - spectrum[bins])) <= 1e-14 * np.max(np.abs(spectrum))
        np.testing.assert_array_equal(
            band_offsets(grid, h).view(np.int64), grid.delta_omega[bins].view(np.int64)
        )
        want = intensity_fwhm(pulse)
        assert band_intensity_fwhm(grid, band) == pytest.approx(want, rel=1e-12)

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
        with pytest.raises(WindowError):
            make_gaussian_pulse(FrequencyGrid(16384, 1e-12), 2e-12)  # t0 < 4 dt
        with pytest.raises(WindowError):
            make_gaussian_pulse(FrequencyGrid(64, 1e-12), 10e-12)  # window < 16 t0

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


def assert_same_outcome(grid, band, rel=1e-12):
    got, got_warnings = outcome(band_intensity_fwhm, grid, band)
    want, want_warnings = outcome(intensity_fwhm, full_grid(grid, band))
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=rel, abs=0)


def sinc_band(grid, delay_samples=None, amplitude=1.0):
    """Band of the unit-peak sinc at 64 widths per window, ``delay`` samples late."""
    n = grid.n_samples
    h = sinc_band_bins(grid, grid.window / 64)
    k = bin_numbers(n)[band_bins(n, h)]
    weights = np.where(np.abs(k) == h, 0.5, 1.0) * amplitude * n / (2 * h)
    delay = n // 2 if delay_samples is None else delay_samples
    return weights * np.exp(-2j * np.pi * k * delay / n)


class TestBandWidthMetric:
    """band_intensity_fwhm against intensity_fwhm of the whole inverse transform."""

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
            width = band_intensity_fwhm(grid, band)
        assert width > grid.window / 2  # spans both lobes

    @pytest.mark.parametrize("grid", grids, ids=["sparse", "every-sample"])
    def test_zero_signal_rejected(self, grid):
        band = np.zeros(129, np.complex128)
        assert_same_outcome(grid, band)
        with pytest.raises(WidthMetricError, match="all-zero"):
            band_intensity_fwhm(grid, band)

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
                band_intensity_fwhm(grid, band)

    def test_table_of_direct_sums_is_bounded(self, monkeypatch):
        grid = self.grids[0]
        band = sinc_band(grid)
        size = band.size * (self.stride(grid, band) + 2)
        monkeypatch.setattr(signal_module, "MAX_TABLE_SIZE", size)
        assert band_intensity_fwhm(grid, band) > 0
        monkeypatch.setattr(signal_module, "MAX_TABLE_SIZE", size - 1)
        with pytest.raises(WindowError, match="cannot allocate"):
            band_intensity_fwhm(grid, band)

    def test_huge_grid_is_refused_before_allocating(self):
        # 2**40 samples would ask for a 129 x (2**28 + 2) table: 550 GB
        grid = FrequencyGrid(2**40, 1e-15)
        tracemalloc.start()
        try:
            with pytest.raises(WindowError, match="129x268435458"):
                band_intensity_fwhm(grid, np.ones(129, np.complex128))
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
                band_intensity_fwhm(grid, band)

    @staticmethod
    def stride(grid, band):
        """Samples between two points of the coarse grid of band_intensity_fwhm."""
        n, h = grid.n_samples, band.size // 2
        return n // min(n, 1 << (COARSE_PER_BIN * h - 1).bit_length())

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
            assert band_intensity_fwhm(grid, band) > grid.window / 2

    def test_highest_peak_between_coarse_samples(self):
        # two lobes 1e-6 apart in height: the higher one sits midway between
        # coarse samples, the lower one on a coarse sample
        grid = self.grids[0]
        n, r = grid.n_samples, self.stride(grid, sinc_band(grid))
        band = self.two_lobes(grid, 3 * n // 4 + r // 2, 1 + 1e-6)
        assert_same_outcome(grid, band)

    def test_band_must_fit_the_grid(self):
        with pytest.raises(ValueError, match="band bins"):
            band_intensity_fwhm(FrequencyGrid(16, 1e-12), np.ones(17, np.complex128))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2**p for p in range(10, 17)]),
        h=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        smooth=st.booleans(),
    )
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
        bins = band_bins(n, sinc_band_bins(grid, 2 / bandwidth))
        outside = np.sum(np.abs(np.delete(spectrum, bins)) ** 2)
        if outside < 1e-24 * np.sum(np.abs(spectrum) ** 2):
            got = band_intensity_fwhm(grid, spectrum[bins])
            want = intensity_fwhm(Envelope(grid, ifft(spectrum)))  # in place
            assert got == pytest.approx(want, rel=1e-12)


class TestWraparoundGuard:
    def test_accepts_mild_spread(self):
        grid = FrequencyGrid(16384, 64 * 100e-12 / 16384)
        e = make_gaussian_pulse(grid, 100e-12)
        check_wraparound(e, fft(e.samples), 21e-27 * 100e3)

    def test_rejects_excessive_spread(self):
        grid = FrequencyGrid(512, 16 * 100e-12 / 512)
        e = make_gaussian_pulse(grid, 100e-12)
        with pytest.raises(WraparoundError):
            check_wraparound(e, fft(e.samples), 21e-27 * 2e6)


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
    """check_band_wraparound with the band's width, as the stage search runs it."""
    width = band_intensity_fwhm(grid, band)
    check_band_wraparound(grid, band, accumulated_gvd, width)


class TestBandWraparoundGuard:
    """check_band_wraparound against check_wraparound of the full-grid envelope."""

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
        occupied = occupied_bandwidth(grid, spectrum)
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
        assert got == guard_outcome(check_wraparound, rx, spectrum, gvd)

    def test_the_edge_bins_set_the_band(self):
        # window factor 50.5 rounds the band to 50 bins: the occupied band,
        # not the configured 3 GHz, sets the spread in the message
        grid = sinc_grid(4096, 50.5)
        tx = make_sinc_pulse(grid, 2 / 3e9)
        band = make_sinc_band(grid, 2 / 3e9)
        gvd = grid.window / (2 * np.pi * 3e9)
        want = guard_outcome(check_wraparound, tx, fft(tx.samples), gvd)
        assert want[0] is not None
        assert guard_outcome(band_guard, grid, band, gvd) == want


class TestEnvelope:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Envelope(FrequencyGrid(8, 1e-12), np.ones(7))

    def test_samples_read_only(self):
        e = Envelope(FrequencyGrid(8, 1e-12), np.ones(8))
        with pytest.raises(ValueError):
            e.samples[0] = 2.0

    def test_energy(self):
        e = Envelope(FrequencyGrid(8, 2e-12), 2.0 * np.ones(8))
        assert e.energy == pytest.approx(8 * 4 * 2e-12, rel=1e-15)
