import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dispersim import (
    CONTRACTION_MARGIN,
    FiberParams,
    FrequencyGrid,
    match_pcf,
    stable,
    subsystem_error_tf,
    z_max,
)
from dispersim.compensator import band_error_max
from dispersim.convergence import dispersion_strength, edge_phase, span_length

BETA2 = -21e-27
PS2_PER_KM = 1e-27


def bisect_boundary(alpha, beta2, bandwidth_hz, z_hi=1e9, rel_tol=1e-12):
    """Independent oracle: bisection on stable() for the critical length."""
    assert stable(alpha, beta2, bandwidth_hz, 0.0)
    assert not stable(alpha, beta2, bandwidth_hz, z_hi)
    lo, hi = 0.0, z_hi
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if stable(alpha, beta2, bandwidth_hz, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStable:
    def test_zero_length_always_stable(self):
        for alpha in (1e-6, 0.3, 1.0):
            assert stable(alpha, BETA2, 10e9, 0.0)

    def test_quarter_turn_at_unit_alpha_unstable(self):
        # accumulated edge phase pi/2 gives error magnitude sqrt(2)
        bandwidth = 3e9
        z = math.pi / 2 / (abs(BETA2) / 2 * (math.pi * bandwidth) ** 2)
        assert not stable(1.0, BETA2, bandwidth, z)

    def test_boundary_is_excluded(self):
        alpha = 0.8
        bandwidth = 3e9
        z_crit = z_max(bandwidth, alpha, BETA2)
        assert not stable(alpha, BETA2, bandwidth, z_crit)
        assert stable(alpha, BETA2, bandwidth, 0.999999 * z_crit)

    def test_closed_form_matches_numeric_path(self):
        # a dense scan of |1 - sqrt(alpha)*exp(-j*theta)| over the band
        # must reach the same decision as the band-edge closed form
        edge = math.pi * 3e9
        dw = np.linspace(-edge, edge, 4097)
        for alpha in (0.4, 1.0):
            for frac in (0.5, 0.99, 1.01, 2.0):
                z = frac * z_max(3e9, alpha, BETA2)
                theta = BETA2 / 2.0 * dw**2 * z
                worst = np.max(np.abs(1 - math.sqrt(alpha) * np.exp(-1j * theta)))
                numeric = worst < 1.0 - CONTRACTION_MARGIN
                assert stable(alpha, BETA2, 3e9, z) == numeric

    def test_monotone_in_length_and_bandwidth(self):
        # once unstable, growing z or B never restores stability
        alpha = 0.7
        seen_false = False
        for z in np.geomspace(1e3, 1e8, 120):
            flag = stable(alpha, BETA2, 3e9, z)
            if seen_false:
                assert not flag
            seen_false = seen_false or not flag
        assert seen_false
        seen_false = False
        for bandwidth in np.geomspace(1e8, 1e11, 120):
            flag = stable(alpha, BETA2, bandwidth, 500e3)
            if seen_false:
                assert not flag
            seen_false = seen_false or not flag
        assert seen_false

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stable(0.0, BETA2, 1e9, 1e3)
        with pytest.raises(ValueError):
            stable(0.5, BETA2, -1e9, 1e3)
        with pytest.raises(ValueError):
            stable(0.5, BETA2, 1e9, -1.0)


class TestDispersionStrength:
    @pytest.mark.parametrize("z_km", [1e-300, 1e-302])
    def test_tiny_span_keeps_its_digits(self, z_km):
        # |beta2| * z is subnormal at 1e-300 km and rounds to zero at 1e-302 km
        per_metre = dispersion_strength(BETA2, 1.0, 3e9)
        strength = dispersion_strength(BETA2, z_km * 1e3, 3e9)
        assert strength == pytest.approx(per_metre * z_km * 1e3, rel=1e-15, abs=0)

    def test_tiny_strength_round_trips_through_span_length(self):
        beta2 = -1.0 * PS2_PER_KM
        z = span_length(1.1e-308, beta2, 1e8)
        strength = dispersion_strength(beta2, z, 1e8)
        assert strength == pytest.approx(1.1e-308, rel=1e-15, abs=0)

    def test_normal_range_keeps_product_order(self):
        expected = abs(BETA2) * 130e3 * (2 * math.pi * 3e9) ** 2
        assert dispersion_strength(BETA2, 130e3, 3e9) == expected


@settings(max_examples=300, deadline=None)
@given(
    beta2_ps2_km=st.floats(1.0, 100.0),
    sign=st.sampled_from([-1.0, 1.0]),
    bandwidth=st.floats(1e8, 1e11),
    # xi / 8 is subnormal below 1.8e-307, and from about 2.2e-308 down
    # 8 * edge_phase misses xi by more than 1e-15
    xi=st.floats(1e-307, 20.0),
    alpha=st.floats(0.01, 1.0),
)
def test_length_bandwidth_law_has_one_source(beta2_ps2_km, sign, bandwidth, xi, alpha):
    beta2 = sign * beta2_ps2_km * PS2_PER_KM
    z = span_length(xi, beta2, bandwidth)
    strength = dispersion_strength(beta2, z, bandwidth)
    assert strength == pytest.approx(xi, rel=1e-15, abs=0)
    theta_e = edge_phase(beta2, bandwidth, z)
    assert 8 * theta_e == pytest.approx(strength, rel=1e-15, abs=0)
    boundary = z_max(bandwidth, alpha, beta2)
    assert stable(alpha, beta2, bandwidth, boundary * (1 - 1e-6))
    assert not stable(alpha, beta2, bandwidth, boundary * (1 + 1e-6))


class TestZMax:
    def test_reference_value(self):
        # alpha = 1: acos(1/2) = pi/3
        assert z_max(3e9, 1.0, BETA2) == pytest.approx(1122786.1946518193, rel=1e-12)

    def test_inverse_square_bandwidth_scaling(self):
        z1 = z_max(2e9, 0.7, BETA2)
        z4 = z_max(8e9, 0.7, BETA2)
        assert z1 == pytest.approx(16 * z4, rel=1e-12)

    def test_vanishing_alpha_maximizes_region(self):
        # acos(0) = pi/2 caps the reachable phase
        tiny = z_max(3e9, 1e-12, BETA2)
        cap = 2 * (math.pi / 2) / (abs(BETA2) * (math.pi * 3e9) ** 2)
        assert tiny == pytest.approx(cap, rel=1e-6)
        assert tiny > z_max(3e9, 1.0, BETA2)

    def test_zero_beta2_unbounded(self):
        assert z_max(3e9, 0.5, 0.0) == math.inf

    def test_subnormal_beta2_does_not_divide_by_zero(self):
        # |beta2| / 2 rounds to zero here; |beta2| * (pi*B)^2 does not
        assert z_max(10680708.0, 0.25, 5e-324) == math.inf

    def test_product_with_b_squared_constant(self):
        for alpha in (0.25, 0.5, 1.0):
            products = [
                z_max(b, alpha, BETA2) * b**2
                for b in np.geomspace(0.5e9, 20e9, 7)
            ]
            ref = products[0]
            assert all(abs(p / ref - 1) < 1e-9 for p in products)

    def test_matches_bisection_oracle(self):
        for alpha in (0.3, 0.7, 1.0):
            for bandwidth in (1e9, 3e9, 7e9):
                closed = z_max(bandwidth, alpha, BETA2)
                oracle = bisect_boundary(alpha, BETA2, bandwidth)
                assert abs(oracle / closed - 1) < 1e-6


class TestRegionTable:
    """stable() over a (B, z) grid against the closed-form boundary z_max(B)."""

    bandwidths = np.geomspace(1e9, 10e9, 8)
    zs = np.geomspace(1e3, 2e6, 160)

    def table(self, alpha):
        matrix = np.array(
            [[stable(alpha, BETA2, b, z) for z in self.zs] for b in self.bandwidths]
        )
        boundary = np.array([z_max(b, alpha, BETA2) for b in self.bandwidths])
        return matrix, boundary

    def test_matrix_consistent_with_boundary(self):
        matrix, boundary = self.table(0.6)
        for i in range(self.bandwidths.size):
            for j in range(self.zs.size):
                cell_lo = self.zs[j - 1] if j > 0 else 0.0
                cell_hi = self.zs[j + 1] if j + 1 < self.zs.size else np.inf
                if cell_hi < boundary[i]:
                    assert matrix[i, j]
                if cell_lo > boundary[i]:
                    assert not matrix[i, j]

    def test_cells_below_minimum_boundary_all_true(self):
        matrix, boundary = self.table(1.0)
        below = self.zs < boundary.min()
        assert matrix[:, below].all()

    def test_region_shrinks_with_alpha(self):
        m_low, b_low = self.table(0.3)
        m_high, b_high = self.table(0.9)
        assert np.all(b_high <= b_low)
        # pointwise: anything stable at high alpha is stable at low alpha
        assert np.all(m_low | ~m_high)


class TestCrossModule:
    def test_stable_points_drive_residual_to_zero(self):
        grid = FrequencyGrid(2048, 64 * 666.7e-12 / 2048)
        bandwidth = 3e9
        for alpha, frac in ((1.0, 0.5), (0.5, 0.8), (0.25, 0.9)):
            z = frac * z_max(bandwidth, alpha, BETA2)
            assert stable(alpha, BETA2, bandwidth, z)
            target = FiberParams(BETA2, z)
            sub = match_pcf(target, -2806 * PS2_PER_KM, alpha=alpha)
            worst = band_error_max(subsystem_error_tf(sub, grid), bandwidth)
            residuals = [worst ** (k + 1) for k in (0, 5, 30, 200)]
            assert all(b < a for a, b in zip(residuals, residuals[1:]))
            assert residuals[-1] < 1e-3
