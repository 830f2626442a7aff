import numpy as np
import pytest

from dispersim import (
    Envelope,
    FrequencyGrid,
    GridMismatchError,
    IterationSpec,
    TransferFunction,
    apply_tf,
    error_tf,
    feedback_run,
    neumann_sum_tf,
)


def constant_tf(grid, value):
    return TransferFunction(grid, np.full(grid.n_samples, value, dtype=complex))


def random_tf(grid, seed, radius=1.0, center=1.0):
    # values scattered in a disk around `center`
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0, 1, grid.n_samples))
    phi = rng.uniform(0, 2 * np.pi, grid.n_samples)
    return TransferFunction(grid, center + r * np.exp(1j * phi))


GRID = FrequencyGrid(256, 1e-12)


class TestIterationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterationSpec(-1)
        with pytest.raises(ValueError):
            IterationSpec(2, mu=0.0)
        with pytest.raises(ValueError):
            IterationSpec(2.5)  # type: ignore[arg-type]


class TestErrorTf:
    def test_perfect_operator_gives_zero(self):
        e = error_tf(constant_tf(GRID, 1.0), mu=1.0)
        assert np.all(e.values == 0)

    def test_null_operator_gives_identity(self):
        e = error_tf(constant_tf(GRID, 0.0))
        assert np.all(e.values == 1.0)

    def test_scalar_half(self):
        e = error_tf(constant_tf(GRID, 0.5), mu=1.0)
        assert np.all(e.values == 0.5)


class TestNeumannSum:
    def test_zeroth_partial_sum_is_identity(self):
        s = neumann_sum_tf(random_tf(GRID, 0), IterationSpec(0))
        assert np.all(s.values == 1.0)

    def test_scalar_geometric_sums_are_exact(self):
        h = constant_tf(GRID, 0.5)
        # powers of one half sum exactly in binary floating point
        s9 = neumann_sum_tf(h, IterationSpec(9))
        assert np.all(s9.values == 1.998046875)  # 2 - 2**-9
        s10 = neumann_sum_tf(h, IterationSpec(10))
        assert np.all(s10.values == 1.9990234375)  # 2 - 2**-10

    def test_scalar_limit(self):
        h = constant_tf(GRID, 0.5)
        s = neumann_sum_tf(h, IterationSpec(60))
        np.testing.assert_allclose(s.values, 2.0, rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 17, 64])
    def test_partial_sum_identity(self, k):
        h = random_tf(GRID, seed=k, radius=1.5)
        mu = 0.8
        s = neumann_sum_tf(h, IterationSpec(k, mu))
        e = 1.0 - mu * h.values
        lhs = s.values * (1.0 - e)
        rhs = 1.0 - e ** (k + 1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, k))

    def test_geometric_remainder_bound(self):
        h = random_tf(GRID, seed=11, radius=0.6)  # contracting: |1 - h| <= 0.6
        r = np.max(np.abs(error_tf(h).values))
        assert r < 1
        for k in (0, 1, 3, 8):
            s = neumann_sum_tf(h, IterationSpec(k))
            resid = np.max(np.abs(s.values * h.values - 1.0))
            assert resid <= r ** (k + 1) + 1e-12

    def test_monotone_improvement(self):
        h = random_tf(GRID, seed=12, radius=0.7)
        prev = np.inf
        for k in range(10):
            s = neumann_sum_tf(h, IterationSpec(k))
            resid = np.max(np.abs(s.values * h.values - 1.0))
            assert resid <= prev + 1e-15
            prev = resid


class TestFeedbackRun:
    def test_zero_iterations_passthrough(self):
        e = Envelope(GRID, np.arange(256) / 256.0)
        out = feedback_run(e, random_tf(GRID, 1), IterationSpec(0))
        np.testing.assert_array_equal(out.samples, e.samples)

    def test_fixed_point_for_perfect_operator(self):
        e = Envelope(GRID, np.sin(np.arange(256) / 9.0))
        for k in (1, 4, 9):
            out = feedback_run(e, constant_tf(GRID, 1.0), IterationSpec(k))
            np.testing.assert_allclose(out.samples, e.samples, atol=1e-12)

    def test_matches_direct_cascade(self):
        rng = np.random.default_rng(21)
        e = Envelope(
            GRID, rng.standard_normal(256) + 1j * rng.standard_normal(256)
        )
        h = random_tf(GRID, seed=22, radius=1.2)
        spec = IterationSpec(5, mu=0.9)
        via_loop = feedback_run(e, h, spec)
        via_sum = apply_tf(e, neumann_sum_tf(h, spec))
        num = np.sum(np.abs(via_loop.samples - via_sum.samples) ** 2)
        den = np.sum(np.abs(via_sum.samples) ** 2)
        assert num / den < 1e-10

    def test_grid_mismatch_rejected(self):
        e = Envelope(GRID, np.ones(256))
        other = constant_tf(FrequencyGrid(256, 2e-12), 1.0)
        with pytest.raises(GridMismatchError):
            feedback_run(e, other, IterationSpec(1))


class TestScalingTradeOff:
    """Larger mu speeds convergence but shrinks where the sum converges."""

    def setup_method(self):
        rng = np.random.default_rng(33)
        self.h = TransferFunction(GRID, rng.uniform(0.5, 1.5, GRID.n_samples))

    def iterations_to(self, mu, tol=1e-6, k_cap=200):
        e = 1.0 - mu * self.h.values
        term = np.ones_like(e)
        acc = np.ones_like(e)
        for k in range(1, k_cap + 1):
            term = term * e
            acc = acc + term
            if np.max(np.abs(acc * mu * self.h.values - 1.0)) < tol:
                return k
        return k_cap + 1

    def test_larger_mu_converges_faster_below_optimum(self):
        # optimum for values in [0.5, 1.5] is mu = 1
        counts = [self.iterations_to(mu) for mu in (0.5, 0.7, 0.9, 1.0)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_convergent_set_shrinks_past_optimum(self):
        def n_convergent(mu):
            return int(np.sum(np.abs(1.0 - mu * self.h.values) < 1.0))

        sizes = [n_convergent(mu) for mu in (1.0, 1.4, 1.8, 2.2, 2.6)]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] < sizes[0]
