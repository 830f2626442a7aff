import numpy as np
import pytest

from dispersim import (
    Envelope,
    FiberParams,
    FrequencyGrid,
    WraparoundError,
    beta2_to_d,
    broadening_factor,
    d_to_beta2,
    dispersion_tf,
    make_gaussian_pulse,
    propagate,
)

LAMBDA0 = 1550e-9
PS2_PER_KM = 1e-27


class TestUnitConversions:
    def test_smf_reference_point(self):
        beta2 = d_to_beta2(17.0, LAMBDA0)
        assert beta2 == pytest.approx(-2.1682619391414893e-26, rel=1e-12)
        # a typical quoted value is -21 ps^2/km; the exact conversion lands within 4%
        assert abs(beta2 / (-21 * PS2_PER_KM) - 1) < 0.04

    def test_beta2_to_d_reference_points(self):
        assert beta2_to_d(-21 * PS2_PER_KM, LAMBDA0) == pytest.approx(
            16.464800380223068, rel=1e-12
        )
        assert beta2_to_d(-2806 * PS2_PER_KM, LAMBDA0) == pytest.approx(
            2200.0109460431395, rel=1e-12
        )

    def test_zero_maps(self):
        assert d_to_beta2(0.0, LAMBDA0) == 0.0
        assert beta2_to_d(0.0, LAMBDA0) == 0.0

    def test_round_trip(self):
        for d in (17.0, -250.0, 2200.0, 0.3):
            assert beta2_to_d(d_to_beta2(d, LAMBDA0), LAMBDA0) == pytest.approx(
                d, rel=1e-12
            )

    def test_bad_lambda_rejected(self):
        # not positive, or a square that is not a positive finite double
        for lambda0 in (0.0, -1.55e-6, float("nan"), 1e200, 1e-170):
            for convert in (d_to_beta2, beta2_to_d):
                with pytest.raises(ValueError, match="out of range"):
                    convert(17.0, lambda0)


class TestFiberParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FiberParams(np.nan, 1e3)
        with pytest.raises(ValueError):
            FiberParams(-21e-27, -1.0)


def aligned_grid():
    # df = 187.5 MHz so that 1.5 GHz falls exactly on bin 8
    df = 187.5e6
    n = 1024
    return FrequencyGrid(n, 1.0 / (n * df))


class TestDispersionTf:
    def test_zero_length_is_identity(self):
        fiber = FiberParams(-21e-27, 0.0)
        h = dispersion_tf(fiber, aligned_grid())
        assert np.all(h.values == 1.0)

    def test_quadratic_phase_value(self):
        # beta2 = -21 ps^2/km over 130 km at delta_omega = 2*pi*1.5 GHz
        fiber = FiberParams(-21 * PS2_PER_KM, 130e3)
        grid = aligned_grid()
        h = dispersion_tf(fiber, grid)
        k = np.argmin(np.abs(grid.delta_omega - 2 * np.pi * 1.5e9))
        assert np.angle(h.values[k]) == pytest.approx(0.12124809006738275, rel=1e-9)

    def test_unit_modulus(self):
        fiber = FiberParams(-21e-27, 80e3)
        h = dispersion_tf(fiber, aligned_grid())
        np.testing.assert_allclose(np.abs(h.values), 1.0, rtol=1e-12)

    def test_length_additivity(self):
        grid = aligned_grid()
        h1 = dispersion_tf(FiberParams(-21e-27, 30e3), grid)
        h2 = dispersion_tf(FiberParams(-21e-27, 45e3), grid)
        h3 = dispersion_tf(FiberParams(-21e-27, 75e3), grid)
        np.testing.assert_allclose((h1 * h2).values, h3.values, atol=1e-12)

    def test_sign_flip_conjugates(self):
        grid = aligned_grid()
        plus = dispersion_tf(FiberParams(21e-27, 50e3), grid)
        minus = dispersion_tf(FiberParams(-21e-27, 50e3), grid)
        np.testing.assert_allclose(minus.values, np.conj(plus.values), atol=1e-15)


class TestPropagate:
    def setup_method(self):
        self.t0 = 100e-12
        self.grid = FrequencyGrid(16384, 64 * self.t0 / 16384)
        self.pulse = make_gaussian_pulse(self.grid, self.t0)

    def test_zero_length_identity(self):
        fiber = FiberParams(-21e-27, 0.0)
        out = propagate(self.pulse, fiber)
        np.testing.assert_allclose(out.samples, self.pulse.samples, atol=1e-14)

    def test_energy_conserved(self):
        fiber = FiberParams(-21e-27, 100e3)
        out = propagate(self.pulse, fiber)
        assert abs(out.energy / self.pulse.energy - 1) < 1e-12

    def test_gaussian_broadening_oracle(self):
        z = 100e3
        beta2 = -21 * PS2_PER_KM
        fiber = FiberParams(beta2, z)
        out = propagate(self.pulse, fiber)
        expected = np.sqrt(1 + (beta2 * z / self.t0**2) ** 2)
        assert expected == pytest.approx(1.0218121158021176, rel=1e-12)
        assert broadening_factor(self.pulse, out) == pytest.approx(
            expected, rel=5e-3
        )

    def test_wraparound_rejected(self):
        fiber = FiberParams(-21e-27, 1e8)
        with pytest.raises(WraparoundError):
            propagate(self.pulse, fiber)
