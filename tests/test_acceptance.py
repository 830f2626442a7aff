"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS/FAIL
lines alongside the pytest verdicts.
"""

import json
import math

import numpy as np
import pytest

from dispersim import (
    CompensatorSpec,
    Envelope,
    FiberParams,
    FrequencyGrid,
    IterationSpec,
    TransferFunction,
    apply_tf,
    broadening_factor,
    compensator_tf,
    dispersion_tf,
    feedback_run,
    make_gaussian_pulse,
    match_pcf,
    neumann_sum_tf,
    propagate,
    stable,
    subsystem_error_tf,
    z_max,
)
from dispersim.cli import main

PS2_PER_KM = 1e-27


def report(number: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {verdict}")


def test_criterion_1_residual_identity():
    """100 randomized matched cascades obey the bin-wise residual identity."""
    rng = np.random.default_rng(20240809)
    grid = FrequencyGrid(1024, 2e-12)
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.25, 1.0)
        k = int(rng.integers(1, 11))
        beta2 = -rng.uniform(5, 30) * PS2_PER_KM
        z = rng.uniform(10e3, 200e3)
        pcf_beta2 = -rng.uniform(500, 5000) * PS2_PER_KM
        target = FiberParams(beta2, z)
        sub = match_pcf(target, pcf_beta2, alpha=alpha)
        spec = CompensatorSpec(sub, k)
        product = compensator_tf(spec, grid) * dispersion_tf(target, grid)
        e_d = subsystem_error_tf(sub, grid).values
        expected = np.abs(1 - e_d ** (k + 1))
        diff = np.abs(np.abs(product.values) - expected)
        # 1e-12 absolute where the residual is O(1) and below; where
        # |E_D|^(K+1) grows to 2^(K+1) out of band, one float64 ulp already
        # exceeds 1e-12, so the tolerance turns relative there.
        worst = max(worst, float(np.max(diff / np.maximum(expected, 1.0))))
    ok = worst < 1e-12
    report(1, "residual identity", ok)
    assert ok, f"worst scaled deviation {worst:.3e}"


def test_criterion_2_direct_feedback_equivalence():
    """Cascade and closed-loop realizations emit the same envelopes."""
    rng = np.random.default_rng(7)
    grid = FrequencyGrid(4096, 1e-12)
    samples = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    e_in = Envelope(grid, samples)
    radius = np.sqrt(rng.uniform(0, 1, 4096)) * 1.2
    phase = rng.uniform(0, 2 * np.pi, 4096)
    h = TransferFunction(grid, 1.0 + radius * np.exp(1j * phase))
    ok = True
    details = []
    for k in (0, 1, 5, 10):
        spec = IterationSpec(k, mu=0.9)
        direct = apply_tf(e_in, neumann_sum_tf(h, spec))
        looped = feedback_run(e_in, h, spec)
        rel = np.sum(np.abs(direct.samples - looped.samples) ** 2) / np.sum(
            np.abs(direct.samples) ** 2
        )
        details.append((k, rel))
        ok = ok and rel < 1e-10
    report(2, "direct/feedback equivalence", ok)
    assert ok, f"relative energy mismatches: {details}"


def test_criterion_3_gaussian_oracle():
    """Dispersed Gaussian width follows the closed-form broadening factor."""
    t0 = 100e-12
    beta2 = -21 * PS2_PER_KM
    z = 100e3
    grid = FrequencyGrid(16384, 64 * t0 / 16384)
    tx = make_gaussian_pulse(grid, t0)
    rx = propagate(tx, FiberParams(beta2, z))
    measured = broadening_factor(tx, rx)
    expected = math.sqrt(1 + (beta2 * z / t0**2) ** 2)
    ok = abs(measured / expected - 1) < 0.005
    report(3, "gaussian broadening oracle", ok)
    assert ok, f"measured {measured:.6f}, expected {expected:.6f}"


def test_criterion_4_worked_example(tmp_path):
    """3 GHz / 130 km / beta2 = -21 ps^2/km link: strength and one-stage result."""
    doc = {
        "scenario": "worked-example",
        "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6, "z_km": 130.0},
        "pcf": {"d_ps_nm_km": 2200.0},
        "compensator": {"alphas": [1.0], "k_max": 2},
        "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384},
        "output": {"dir": "out"},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["scenario", "--config", str(config), "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "scenario.json").read_text())
    xi = rep["dispersion_strength"]["value"]
    table = {entry["k"]: entry["broadening_factor"] for entry in
             rep["stage_search"]["k_table"]}
    ok_xi = abs(xi - 0.97) <= 0.01
    ok_b = table[1] <= 1.1 + 0.05
    ok = ok_xi and ok_b
    report(4, "worked example", ok)
    assert ok, f"xi = {xi:.4f}, one-stage broadening = {table[1]:.4f}"


def test_criterion_5_matched_length():
    """The matched branch length lands around one kilometer."""
    pcf_beta2 = -2805.9860388889867 * PS2_PER_KM  # exact conversion of 2200 ps/nm/km
    lengths = []
    for fiber_beta2 in (-21 * PS2_PER_KM, -2.1682619391414893e-26):
        target = FiberParams(fiber_beta2, 130e3)
        lengths.append(match_pcf(target, pcf_beta2).length_m)
    ok = all(900.0 <= length <= 1100.0 for length in lengths)
    report(5, "matched length", ok)
    assert ok, f"lengths {lengths}"


def test_criterion_6_region_law(tmp_path):
    """Boundary law, bisection oracle and alpha monotonicity of the region."""
    beta2 = -21 * PS2_PER_KM
    bandwidths = np.geomspace(1e9, 10e9, 6)
    alphas = (0.25, 0.5, 1.0)
    z_grid = np.geomspace(1e3, 5e6, 240)

    ok_const = True
    for alpha in alphas:
        products = [z_max(b, alpha, beta2) * b**2 for b in bandwidths]
        ok_const = ok_const and max(products) / min(products) - 1 < 1e-9

    def bisect(alpha, b):
        lo, hi = 0.0, 1e9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if stable(alpha, beta2, b, mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    ok_oracle = True
    for alpha in alphas:
        for b in bandwidths:
            boundary = z_max(b, alpha, beta2)
            oracle = bisect(alpha, b)
            j = int(np.clip(np.searchsorted(z_grid, boundary), 1, z_grid.size - 1))
            cell = z_grid[j] - z_grid[j - 1]
            ok_oracle = ok_oracle and abs(oracle - boundary) <= cell
            # the two only differ by the strictness margin of stable()
            ok_oracle = ok_oracle and abs(oracle / boundary - 1) < 1e-8

    ok_mono = True
    for b in bandwidths:
        boundaries = [z_max(b, alpha, beta2) for alpha in alphas]
        ok_mono = ok_mono and all(
            hi > lo for lo, hi in zip(boundaries[::-1], boundaries[::-1][1:])
        )
        for alpha_lo, alpha_hi in zip(alphas, alphas[1:]):
            for z in z_grid[:: len(z_grid) // 24]:
                if stable(alpha_hi, beta2, b, z):
                    ok_mono = ok_mono and stable(alpha_lo, beta2, b, z)

    ok = ok_const and ok_oracle and ok_mono
    report(6, "region law", ok)
    assert ok, f"const={ok_const} oracle={ok_oracle} monotone={ok_mono}"


def test_criterion_7_monotone_convergence(tmp_path):
    """Broadening shrinks with stage count and saturates once the residual dies."""
    doc = {
        "scenario": "stage-sweep",
        "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6},
        "pcf": {"d_ps_nm_km": 2200.0},
        "compensator": {"alphas": [0.5, 1.0], "k_max": 12},
        "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384},
        "sweep": {"xi": [0.5, 1.0, 2.0]},
        "output": {"dir": "out"},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["sweep-k", "--config", str(config), "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    curves = {}
    for row in rows:
        xi_s, alpha_s, k_s, factor_s, residual_s = row.split(",")
        assert factor_s != "diverged"
        curves.setdefault((float(xi_s), float(alpha_s)), []).append(
            (int(k_s), float(factor_s), float(residual_s))
        )
    assert len(curves) == 6

    ok_mono = True
    ok_limit = True
    k_to_converge = {}
    for key, entries in curves.items():
        entries.sort()
        factors = [f for _, f, _ in entries]
        ok_mono = ok_mono and all(
            b <= a + 0.01 for a, b in zip(factors, factors[1:])
        )
        k_star = next(k for k, _, r in entries if r < 1e-3)
        k_to_converge[key] = k_star
        ok_limit = ok_limit and factors[k_star] <= 1.01

    ok_alpha = all(
        k_to_converge[(xi, 0.5)] >= k_to_converge[(xi, 1.0)]
        for xi in (0.5, 1.0, 2.0)
    )
    ok = ok_mono and ok_limit and ok_alpha
    report(7, "monotone convergence", ok)
    assert ok, (
        f"monotone={ok_mono} limit={ok_limit} alpha-speed={ok_alpha} "
        f"k_to_converge={k_to_converge}"
    )
