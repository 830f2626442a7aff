import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dispersim import (
    CompensatorSpec,
    Envelope,
    FiberParams,
    FrequencyGrid,
    IterationSpec,
    SubsystemSpec,
    WraparoundError,
    apply_tf,
    broadening_factor,
    compensate,
    compensation_latency,
    compensator_tf,
    default_gain,
    dispersion_tf,
    feedback_run,
    make_sinc_pulse,
    match_pcf,
    propagate,
    stable,
    subsystem_error_tf,
    subsystem_tf,
)
from dispersim.compensator import DEFAULT_SMF_BETA1, MAX_STAGES, stage_responses
from dispersim.convergence import edge_error
from dispersim.fiber import d_to_beta2, dispersion_response

PS2_PER_KM = 1e-27


def matched_example(alpha=1.0):
    target = FiberParams(-21 * PS2_PER_KM, 130e3)
    return target, match_pcf(target, -2806 * PS2_PER_KM, alpha=alpha)


GRID = FrequencyGrid(4096, 64 * 666.7e-12 / 4096)
BAND_HZ = 3e9


class TestSubsystemSpec:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SubsystemSpec(
                FiberParams(-21e-27, 1e3), FiberParams(-2806e-27, 2e3), 1.0
            )

    def test_alpha_bounds(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                SubsystemSpec(
                    FiberParams(-21e-27, 1e3), FiberParams(-2806e-27, 1e3), alpha
                )


class TestCompensatorSpec:
    def test_default_gain(self):
        _, sub = matched_example(alpha=0.25)
        spec = CompensatorSpec(sub, 3)
        assert spec.gain == 0.25 * 2**4
        assert default_gain(0.25, 3) == 0.25 * 2**4

    def test_gain_is_always_the_rule(self):
        _, sub = matched_example(alpha=0.5)
        for k in (0, 1, 7, MAX_STAGES):
            assert CompensatorSpec(sub, k).gain == default_gain(0.5, k)
        with pytest.raises(TypeError):
            CompensatorSpec(sub, 1, gain=7.0)

    def test_negative_stage_count_rejected(self):
        _, sub = matched_example()
        with pytest.raises(ValueError):
            CompensatorSpec(sub, -1)

    @pytest.mark.parametrize("k", [True, 2.0])
    def test_stage_count_must_be_an_integer(self, k):
        _, sub = matched_example()
        with pytest.raises(ValueError, match="k_stages must be an integer"):
            CompensatorSpec(sub, k)
        assert CompensatorSpec(sub, np.int64(2)).k_stages == 2

    def test_stage_count_past_gain_range_rejected(self):
        _, sub = matched_example()
        with pytest.raises(ValueError, match=str(MAX_STAGES)):
            CompensatorSpec(sub, MAX_STAGES + 1)


class TestSubsystemErrorTf:
    def test_dc_value_exact(self):
        for alpha in (1.0, 0.25, 0.7):
            _, sub = matched_example(alpha=alpha)
            e_d = subsystem_error_tf(sub, GRID)
            assert e_d.values[0] == 1.0 - math.sqrt(alpha)

    def test_alpha_quarter_dc_magnitude(self):
        _, sub = matched_example(alpha=0.25)
        assert abs(subsystem_error_tf(sub, GRID).values[0]) == 0.5

    def test_magnitude_envelope(self):
        _, sub = matched_example(alpha=0.6)
        mags = np.abs(subsystem_error_tf(sub, GRID).values)
        lo, hi = 1 - math.sqrt(0.6), 1 + math.sqrt(0.6)
        assert np.all(mags >= lo - 1e-12)
        assert np.all(mags <= hi + 1e-12)

    def test_unit_alpha_chord_identity(self):
        _, sub = matched_example(alpha=1.0)
        e_d = subsystem_error_tf(sub, GRID)
        theta = sub.pcf.beta2 / 2 * GRID.delta_omega**2 * sub.length_m
        np.testing.assert_allclose(
            np.abs(e_d.values), 2 * np.abs(np.sin(theta / 2)), atol=1e-12
        )


class TestSubsystemTf:
    def test_vanishing_alpha_leaves_up_branch(self):
        up = FiberParams(-21e-27, 1e3)
        down = FiberParams(-2806e-27, 1e3)
        sub = SubsystemSpec(up, down, alpha=1e-30)
        got = subsystem_tf(sub, GRID)
        expected = dispersion_tf(up, GRID).values / np.sqrt(2)
        np.testing.assert_allclose(got.values, expected, atol=1e-12)

    def test_identical_branches_cancel(self):
        up = FiberParams(-21e-27, 1e3)
        sub = SubsystemSpec(up, up, alpha=1.0)
        got = subsystem_tf(sub, GRID)
        np.testing.assert_allclose(got.values, 0.0, atol=1e-15)

    def test_exact_equals_factored_without_up_branch_dispersion(self):
        up = FiberParams(0.0, 973.0)
        down = FiberParams(-2806e-27, 973.0)
        sub = SubsystemSpec(up, down, alpha=0.8)
        exact = subsystem_tf(sub, GRID).values
        factored = subsystem_error_tf(sub, GRID).values / math.sqrt(2.0)
        np.testing.assert_allclose(exact, factored, atol=1e-12)

    def test_factored_error_bounded_by_up_branch_phase(self):
        up = FiberParams(-21e-27, 973.0)
        down = FiberParams(-2806e-27, 973.0)
        sub = SubsystemSpec(up, down, alpha=1.0)
        exact = subsystem_tf(sub, GRID).values
        factored = subsystem_error_tf(sub, GRID).values / math.sqrt(2.0)
        phi_up = np.abs(up.beta2 / 2 * GRID.delta_omega**2 * up.length_m)
        gap = np.abs(exact - factored)
        assert np.all(gap <= phi_up / np.sqrt(2) + 1e-12)
        assert np.max(gap) > 0  # the approximation is not vacuous


class TestMatchPcf:
    def test_reference_length(self):
        _, sub = matched_example()
        assert sub.length_m == pytest.approx(972.9151817533856, rel=1e-12)

    def test_self_match(self):
        target = FiberParams(-21e-27, 130e3)
        sub = match_pcf(target, -21e-27)
        assert sub.length_m == pytest.approx(130e3, rel=1e-15)

    def test_inverse_proportionality(self):
        target = FiberParams(-21e-27, 130e3)
        l1 = match_pcf(target, -1000e-27).length_m
        l2 = match_pcf(target, -2000e-27).length_m
        assert l1 == pytest.approx(2 * l2, rel=1e-15)

    def test_sign_and_zero_rejected(self):
        target = FiberParams(-21e-27, 130e3)
        with pytest.raises(ValueError):
            match_pcf(target, 2806e-27)
        with pytest.raises(ValueError):
            match_pcf(target, 0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_small_values_of_one_sign_match(self, sign):
        # the product of the two beta2 values underflows to zero; their signs
        # still agree, so the branch length is well defined
        sub = match_pcf(FiberParams(sign * -1e-170, 1.3e5), sign * -1e-160)
        assert sub.length_m == pytest.approx(1.3e-5, rel=1e-12)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="same sign"):
            match_pcf(FiberParams(0.0, 1.3e5), -1e-160)

    def test_down_branch_mirrors_the_span(self):
        target = FiberParams(-21e-27, 130e3)
        sub = match_pcf(target, -2806e-27)
        # matched accumulation makes the down branch mirror the whole span
        h_target = dispersion_tf(target, GRID)
        h_down = dispersion_tf(sub.pcf, GRID)
        np.testing.assert_allclose(h_down.values, h_target.values, atol=1e-9)


class TestCompensatorTf:
    def test_k0_default_gain_is_attenuated_identity(self):
        _, sub = matched_example(alpha=0.49)
        spec = CompensatorSpec(sub, 0)
        values = compensator_tf(spec, GRID).values
        np.testing.assert_allclose(np.abs(values), 0.7, rtol=1e-12)

    def test_default_gain_prefactor_is_sqrt_alpha(self):
        _, sub = matched_example(alpha=0.36)
        spec = CompensatorSpec(sub, 4)
        assert spec.prefactor == pytest.approx(0.6, rel=1e-15)

    def test_residual_identity_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            alpha = rng.uniform(0.25, 1.0)
            k = int(rng.integers(1, 11))
            beta2 = -rng.uniform(5, 30) * PS2_PER_KM
            z = rng.uniform(10e3, 200e3)
            pcf_beta2 = -rng.uniform(500, 5000) * PS2_PER_KM
            target = FiberParams(beta2, z)
            sub = match_pcf(target, pcf_beta2, alpha=alpha)
            spec = CompensatorSpec(sub, k)
            product = compensator_tf(spec, GRID) * dispersion_tf(target, GRID)
            e_d = subsystem_error_tf(sub, GRID).values
            np.testing.assert_allclose(
                np.abs(product.values),
                np.abs(1 - e_d ** (k + 1)),
                atol=1e-12,
            )

    def test_gain_rule_dc_level(self):
        for alpha in (0.3, 0.8, 1.0):
            target, sub = matched_example(alpha=alpha)
            for k in (0, 2, 6):
                spec = CompensatorSpec(sub, k)
                product = compensator_tf(spec, GRID) * dispersion_tf(target, GRID)
                expected = 1 - (1 - math.sqrt(alpha)) ** (k + 1)
                assert abs(product.values[0]) == pytest.approx(expected, abs=1e-12)

    def test_large_k_limit_inverts_band(self):
        target, sub = matched_example(alpha=1.0)
        spec = CompensatorSpec(sub, 60)
        h = compensator_tf(spec, GRID)
        e_d = np.abs(subsystem_error_tf(sub, GRID).values)
        convergent = e_d < 0.5
        limit = np.conj(dispersion_tf(sub.pcf, GRID).values)
        gap = np.abs(h.values - limit)[convergent]
        bound = (0.5**61) / (1 - 0.5)
        assert np.max(gap) <= bound + 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("k", [0, 1, 5, 12, 30])
    def test_physical_cascade_is_smf_path_times_differential_cascade(self, k, alpha):
        # The physical cascade: each identity path is the up-branch fiber and
        # each error pass the two-branch sub-system, sum_j stage^j * ident^(K-j).
        # It factors into H_smf over K*L times the cascade of a sub-system whose
        # down branch carries the differential dispersion beta2_pcf - beta2_smf.
        grid = FrequencyGrid(16384, 64 * (2 / BAND_HZ) / 16384)
        _, sub = matched_example(alpha=alpha)
        stage = math.sqrt(2.0) * subsystem_tf(sub, grid).values
        ident = dispersion_tf(sub.smf, grid).values
        physical = CompensatorSpec(sub, k).prefactor * sum(
            stage**j * ident ** (k - j) for j in range(k + 1)
        )
        length = sub.length_m
        differential = SubsystemSpec(
            FiberParams(0.0, length),
            FiberParams(sub.pcf.beta2 - sub.smf.beta2, length),
            alpha,
        )
        smf_path = dispersion_tf(FiberParams(sub.smf.beta2, k * length), grid)
        cascade = compensator_tf(CompensatorSpec(differential, k), grid)
        gap = np.abs((smf_path * cascade).values - physical)
        band = np.abs(grid.delta_omega) <= np.pi * BAND_HZ
        assert np.max(gap[band]) <= 1e-13
        assert np.max(gap) <= 1e-10 * np.max(np.abs(physical))

    def test_geometric_improvement_per_stage(self):
        target, sub = matched_example(alpha=1.0)
        band = np.abs(GRID.delta_omega) <= np.pi * BAND_HZ
        r = np.max(np.abs(subsystem_error_tf(sub, GRID).values[band]))
        prev = None
        for k in range(0, 6):
            spec = CompensatorSpec(sub, k)
            product = (compensator_tf(spec, GRID) * dispersion_tf(target, GRID)).values
            # distance from the identity, not just its magnitude
            dev = np.max(np.abs(product[band] - 1.0))
            if prev is not None:
                assert dev <= r * prev + 1e-14
            prev = dev


class TestCompensate:
    def setup_method(self):
        self.grid = FrequencyGrid(16384, 64 * 666.7e-12 / 16384)
        self.tx = make_sinc_pulse(self.grid, 666.7e-12)

    def test_zero_length_target_is_identity(self):
        target = FiberParams(-21e-27, 0.0)
        sub = match_pcf(target, -2806e-27, alpha=1.0)
        out = compensate(self.tx, CompensatorSpec(sub, 0))
        np.testing.assert_allclose(out.samples, self.tx.samples, atol=1e-12)

    def test_round_trip_restores_pulse(self):
        target = FiberParams(-21e-27, 130e3)
        rx = propagate(self.tx, target)
        sub = match_pcf(target, -2806e-27, alpha=1.0)
        out = compensate(rx, CompensatorSpec(sub, 8))
        # retarded frame: the bulk delay is not applied, so the pulse stays put
        worst = edge_error(1.0, target.beta2, BAND_HZ, target.length_m)
        assert worst**9 < 1e-6
        err = np.sum(np.abs(out.samples - self.tx.samples) ** 2)
        ref = np.sum(np.abs(self.tx.samples) ** 2)
        assert err / ref < 1e-12

    def test_direct_and_feedback_agree(self):
        target = FiberParams(-21e-27, 130e3)
        rx = propagate(self.tx, target)
        sub = match_pcf(target, -2806e-27, alpha=0.7)
        h_pcf = dispersion_tf(sub.pcf, self.grid)
        for k in (0, 1, 5):
            spec = CompensatorSpec(sub, k)
            direct = compensate(rx, spec)
            loop = spec.prefactor * feedback_run(
                rx, h_pcf, IterationSpec(k, math.sqrt(sub.alpha))
            ).samples
            num = np.sum(np.abs(direct.samples - loop) ** 2)
            den = np.sum(np.abs(direct.samples) ** 2)
            assert num / den < 1e-10

    def test_latency_bookkeeping(self):
        _, sub = matched_example()
        spec = CompensatorSpec(sub, 4)
        assert compensation_latency(spec) == pytest.approx(
            4 * sub.length_m * DEFAULT_SMF_BETA1, rel=1e-15
        )


class TestCompensateFullGrid:
    """compensate against the per-K reference path, and its input checks."""

    grid = FrequencyGrid(16384, 64 * (2 / BAND_HZ) / 16384)

    @staticmethod
    def assert_bit_exact(rx, spec):
        out = compensate(rx, spec)
        ref = apply_tf(rx, compensator_tf(spec, rx.grid))
        # int64 view: array_equal would let -0.0 and 0.0 pass as equal
        assert np.array_equal(out.samples.view(np.int64), ref.samples.view(np.int64))

    @pytest.mark.parametrize("k", [0, 3, 7, 20])
    def test_bit_exact_against_compensator_tf(self, k):
        target, sub = matched_example(alpha=0.7)
        rx = propagate(make_sinc_pulse(self.grid, 2 / BAND_HZ), target)
        self.assert_bit_exact(rx, CompensatorSpec(sub, k))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 20), alpha=st.floats(0.05, 1.0))
    def test_any_stage_count_is_bit_exact(self, k, alpha):
        grid = FrequencyGrid(1024, 64 * (2 / BAND_HZ) / 1024)
        target, sub = matched_example(alpha=alpha)
        rx = propagate(make_sinc_pulse(grid, 2 / BAND_HZ), target)
        self.assert_bit_exact(rx, CompensatorSpec(sub, k))

    def test_stage_ceiling_checked_before_any_work(self):
        # a span this long fails the window guard at MAX_STAGES; one stage
        # more is refused by the spec, before compensate transforms anything
        sub = match_pcf(FiberParams(-21 * PS2_PER_KM, 40 * 130e3), -2806 * PS2_PER_KM)
        tx = make_sinc_pulse(self.grid, 2 / BAND_HZ)
        with pytest.raises(WraparoundError):
            compensate(tx, CompensatorSpec(sub, MAX_STAGES))
        with pytest.raises(ValueError, match=str(MAX_STAGES)):
            compensate(tx, CompensatorSpec(sub, MAX_STAGES + 1))


class TestCompensateProperty:
    """Sweep-sized operating points anywhere in the convergence region."""

    grid = FrequencyGrid(16384, 64 * (2 / BAND_HZ) / 16384)
    tx = make_sinc_pulse(grid, 2 / BAND_HZ)

    @settings(max_examples=40, deadline=None)
    @given(
        xi=st.floats(0.05, 12.0),
        alpha=st.floats(0.05, 1.0),
        k=st.integers(0, 12),
        pcf_d=st.floats(1500.0, 3000.0),
    )
    def test_broadening_factor_neither_raises_nor_warns(self, xi, alpha, k, pcf_d):
        beta2 = -21 * PS2_PER_KM
        z = xi / (abs(beta2) * (2 * np.pi * BAND_HZ) ** 2)
        assume(stable(alpha, beta2, BAND_HZ, z))
        target = FiberParams(beta2, z)
        sub = match_pcf(target, d_to_beta2(pcf_d, 1.55e-6), alpha=alpha)
        rx = propagate(self.tx, target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = compensate(rx, CompensatorSpec(sub, k))
            factor = broadening_factor(self.tx, out)
        assert math.isfinite(factor) and factor > 0


class TestStageResponses:
    """The shared per-K cascade response against the per-K reference path."""

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        k_list=st.lists(st.integers(0, 20), min_size=1, unique=True).map(sorted),
        n=st.sampled_from([1024, 16384]),
    )
    def test_every_yield_is_bit_exact_against_compensator_tf(self, alpha, k_list, n):
        # at N = 16384 a product with an unnamed temporary may be elided and
        # reordered by numpy, which with FMA changes the last bit
        grid = FrequencyGrid(n, 64 * (2 / BAND_HZ) / n)
        _, sub = matched_example(alpha=alpha)
        h_pcf = dispersion_response(sub.pcf, grid.delta_omega)
        responses = list(stage_responses(sub, h_pcf, k_list))
        assert len(responses) == len(k_list)
        for k, response in zip(k_list, responses):
            ref = compensator_tf(CompensatorSpec(sub, k), grid).values
            # int64 view: array_equal would let -0.0 and 0.0 pass as equal
            assert np.array_equal(response.view(np.int64), ref.view(np.int64))


class TestPassivityAudit:
    def test_all_elements_below_unity_except_gain(self):
        _, sub = matched_example(alpha=0.6)
        for fiber in (sub.smf, sub.pcf):
            h = dispersion_tf(fiber, GRID)
            assert np.max(np.abs(h.values)) <= 1 + 1e-12
        up_weight = 1 / math.sqrt(2)
        down_weight = math.sqrt(sub.alpha) / math.sqrt(2)
        assert up_weight <= 1
        assert down_weight <= 1
        spec = CompensatorSpec(sub, 3)
        assert spec.gain > 1  # the one active element
