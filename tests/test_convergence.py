import json
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
from dispersim.convergence import (
    dispersion_strength,
    edge_error,
    edge_phase,
    span_length,
)
from dispersim.fiber import d_to_beta2

BETA2 = -21e-27
PS2_PER_KM = 1e-27


def band_bin_max(e_d, bandwidth_hz):
    """Largest sampled |E_D| over the bins with |delta_omega| <= pi*B."""
    in_band = np.abs(e_d.grid.delta_omega) <= np.pi * bandwidth_hz * (1 + 1e-12)
    return float(np.max(np.abs(e_d.values[in_band])))


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

    def test_returns_a_python_bool(self):
        # both decisions come from the law-of-cosines branch, not theta >= pi
        quarter_turn = math.pi / 2 / edge_phase(BETA2, 3e9, 1.0)
        inside = stable(1.0, BETA2, 3e9, 0.0)
        outside = stable(1.0, BETA2, 3e9, quarter_turn)
        assert inside is True
        assert outside is False
        assert json.loads(json.dumps({"stable": [inside, outside]})) == {
            "stable": [True, False]
        }

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: stable(1.0, BETA2, math.nan, 1e5),
            lambda: stable(1.0, BETA2, 3e9, math.nan),
            lambda: edge_error(1.0, BETA2, math.nan, 1e5),
            lambda: edge_error(1.0, BETA2, 3e9, math.nan),
            lambda: z_max(math.nan, 1.0, BETA2),
        ],
        ids=["stable-B", "stable-z", "edge_error-B", "edge_error-z", "z_max-B"],
    )
    def test_nan_is_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize(
        "beta2, bandwidth, match",
        [
            (math.nan, 3e9, "beta2"),
            (math.inf, 3e9, "beta2"),
            (-math.inf, 3e9, "beta2"),
            # inf * 0 is nan: the zero-length span must not hide the band
            (BETA2, math.inf, "bandwidth"),
        ],
        ids=["beta2-nan", "beta2-inf", "beta2-minus-inf", "bandwidth-inf"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda beta2, bandwidth: stable(1.0, beta2, bandwidth, 0.0),
            lambda beta2, bandwidth: edge_error(1.0, beta2, bandwidth, 0.0),
            lambda beta2, bandwidth: z_max(bandwidth, 1.0, beta2),
        ],
        ids=["stable", "edge_error", "z_max"],
    )
    def test_non_finite_beta2_or_bandwidth_is_rejected(
        self, call, beta2, bandwidth, match
    ):
        with pytest.raises(ValueError, match=match):
            call(beta2, bandwidth)

    @pytest.mark.parametrize("call", [stable, edge_error], ids=["stable", "edge_error"])
    def test_infinite_length_is_rejected(self, call):
        # zero beta2 times an infinite span is nan inside edge_phase
        with pytest.raises(ValueError, match="finite"):
            call(1.0, 0.0, 3e9, math.inf)


class TestEdgeError:
    """The worst in-band |1 - sqrt(alpha)*exp(-j*theta)| in closed form."""

    @staticmethod
    def span(theta_e, bandwidth=3e9):
        """Span length whose band-edge phase is theta_e."""
        return theta_e / edge_phase(BETA2, bandwidth, 1.0)

    def test_perfect_operator(self):
        assert edge_error(1.0, BETA2, 3e9, 0.0) == 0.0

    def test_boundary_case_not_contractive(self):
        for alpha in (0.3, 0.8, 1.0):
            worst = edge_error(alpha, BETA2, 3e9, z_max(3e9, alpha, BETA2))
            assert worst == pytest.approx(1.0, abs=1e-15)
            assert not worst < 1.0 - CONTRACTION_MARGIN

    @pytest.mark.parametrize("theta_e", [1e-3, 0.3, 1.0, math.pi / 2, 3.0])
    def test_all_pass_chord_identity(self, theta_e):
        # |1 - exp(-j*theta)| = 2*sin(theta/2)
        worst = edge_error(1.0, BETA2, 3e9, self.span(theta_e))
        assert worst == pytest.approx(2 * math.sin(theta_e / 2), rel=1e-12)

    def test_small_strength_keeps_its_digits(self):
        # 1 + alpha - 2*sqrt(alpha)*cos(theta) cancels to 0 here
        xi = 1e-9
        worst = edge_error(1.0, BETA2, 3e9, span_length(xi, BETA2, 3e9))
        assert worst == pytest.approx(xi / 8, rel=1e-9, abs=0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_phase_is_capped_at_a_half_turn(self, alpha):
        for theta_e in (math.pi, 4.0, 1e3):
            worst = edge_error(alpha, BETA2, 3e9, self.span(theta_e))
            assert worst == 1 + math.sqrt(alpha)


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
        # (pi*B)^2 overflows at this band, so zero beta2 must return first
        assert z_max(4.267837816154154e153, 1.0, 0.0) == math.inf

    def test_underflowing_unit_phase_is_unbounded(self):
        # |beta2| * (pi*B)^2 underflows to 0; the true bound is about 1e700 m
        assert z_max(1e-200, 1.0, -1e-300) == math.inf

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
            worst = edge_error(alpha, BETA2, bandwidth, z)
            sampled = band_bin_max(subsystem_error_tf(sub, grid), bandwidth)
            assert sampled <= worst * (1 + 1e-14)
            residuals = [worst ** (k + 1) for k in (0, 5, 30, 200)]
            assert all(b < a for a, b in zip(residuals, residuals[1:]))
            assert residuals[-1] < 1e-3


@settings(max_examples=200, deadline=None)
@given(
    theta_e=st.floats(1e-6, math.pi, exclude_max=True),
    alpha=st.floats(0.01, 1.0),
    beta2_ps2_km=st.floats(1.0, 100.0),
    pcf_d=st.floats(1500.0, 3000.0),
    bandwidth=st.floats(1e8, 1e11),
    window_factor=st.integers(1, 100),
    offset=st.sampled_from([0.0, 0.5, 0.25]),
)
def test_edge_error_is_the_band_bin_maximum(
    theta_e, alpha, beta2_ps2_km, pcf_d, bandwidth, window_factor, offset
):
    # an integer window factor puts the band edge pi*B on a bin
    n = 256
    grid = FrequencyGrid(n, (window_factor + offset) * (2 / bandwidth) / n)
    beta2 = -beta2_ps2_km * PS2_PER_KM
    z = theta_e / edge_phase(beta2, bandwidth, 1.0)
    sub = match_pcf(FiberParams(beta2, z), d_to_beta2(pcf_d, 1.55e-6), alpha=alpha)
    sampled = band_bin_max(subsystem_error_tf(sub, grid), bandwidth)
    worst = edge_error(alpha, beta2, bandwidth, z)
    if offset == 0.0:
        assert worst == pytest.approx(sampled, rel=1e-14, abs=0)
    else:
        assert worst >= sampled * (1 - 1e-14)
