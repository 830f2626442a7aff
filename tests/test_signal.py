import numpy as np
import pytest
from scipy.fft import fft

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
        k = self.grid.bin_index
        inner = mags[np.abs(k) < half_band]
        np.testing.assert_allclose(inner, inner[0], rtol=1e-12)
        edges = mags[np.abs(k) == half_band]
        np.testing.assert_allclose(edges, inner[0] / 2, rtol=1e-12)

    def test_out_of_band_content_negligible(self):
        e = make_sinc_pulse(self.grid, self.width)
        mags = np.abs(np.fft.fft(e.samples))
        half_band = round(1.0 / (self.width * self.grid.df))
        outside = mags[np.abs(self.grid.bin_index) > half_band]
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
