"""The sinc commands report functions of (xi, alpha, K) and the grid alone.

At a fixed dispersion strength xi, attenuation alpha, stage counts, sample
count and window, the fiber's beta2, the pcf's D and the bandwidth B enter
``sweep-k`` and ``scenario`` only through xi: their factors and band
residuals do not move when (beta2, D, B) is drawn anew, with either sign of
the dispersion. The pcf's D does not enter them at all: the matched
branch's response is the span's own, so with the rest fixed every factor
keeps its bits.
"""

import csv
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from dispersim.cli import main
from dispersim.config import parse_config
from dispersim.convergence import span_length

XI = [0.5, 2.0, 12.0]  # 12 diverges at alpha 1
ALPHAS = [0.5, 1.0]
SCENARIO_XI = 2.0
K_MAX = 6
N_SAMPLES = 1024
RTOL = 1e-12


def _doc(beta2_ps2_km, pcf_d_ps_nm_km, bandwidth_hz):
    return {
        "scenario": "dimensionless",
        "fiber": {"beta2_ps2_km": beta2_ps2_km},
        "pcf": {"d_ps_nm_km": pcf_d_ps_nm_km},
        "compensator": {"alphas": ALPHAS, "k_max": K_MAX},
        "signal": {"pulse": "sinc", "bandwidth_hz": bandwidth_hz, "n_samples": N_SAMPLES},
        "sweep": {"xi": XI},
    }


def _run(tmp_path, command, doc):
    config, out = tmp_path / f"{command}.json", tmp_path / command
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return out


def outputs(tmp_path, beta2_ps2_km, pcf_d_ps_nm_km, bandwidth_hz):
    """sweep.csv's rows and scenario's k_table at one (beta2, pcf D, B)."""
    doc = _doc(beta2_ps2_km, pcf_d_ps_nm_km, bandwidth_hz)
    with (_run(tmp_path, "sweep-k", doc) / "sweep.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    beta2 = parse_config(doc).fiber_beta2
    doc["fiber"]["z_km"] = span_length(SCENARIO_XI, beta2, bandwidth_hz) / 1e3
    report = json.loads((_run(tmp_path, "scenario", doc) / "scenario.json").read_text())
    return rows, report["stage_search"]["k_table"]


def _close(got, want):
    if want == "diverged":
        return got == want
    return float(got) == pytest.approx(float(want), rel=RTOL)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The outputs of the README fibers: beta2 -21 ps^2/km, pcf D 2200, B 3 GHz."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dispersim.experiments.fmt", lambda x: f"{float(x):.17g}")
        return outputs(tmp_path_factory.mktemp("reference"), -21.0, 2200.0, 3e9)


@settings(max_examples=20, deadline=None)
@given(
    sign=st.sampled_from([-1.0, 1.0]),
    beta2_ps2_km=st.floats(1.0, 40.0),
    pcf_d_ps_nm_km=st.floats(300.0, 5000.0),
    bandwidth_hz=st.floats(0.3e9, 100e9),
)
def test_factors_and_residuals_depend_on_xi_not_on_the_fibers_or_band(
    reference, tmp_path_factory, sign, beta2_ps2_km, pcf_d_ps_nm_km, bandwidth_hz
):
    # the sign of the dispersion is drawn too: beta2 > 0 (normal dispersion)
    # goes with a pcf D < 0, and mirrors every response into its conjugate.
    # sweep.csv prints 9 digits, where a rounding boundary can flip the last
    # one; 17 compare the numbers themselves
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dispersim.experiments.fmt", lambda x: f"{float(x):.17g}")
        rows, k_table = outputs(
            tmp_path_factory.mktemp("draw"),
            sign * beta2_ps2_km,
            -sign * pcf_d_ps_nm_km,
            bandwidth_hz,
        )
    want_rows, want_table = reference
    assert len(rows) == len(want_rows) == len(XI) * len(ALPHAS) * (K_MAX + 1)
    for row, want in zip(rows, want_rows):
        assert (row["xi"], row["alpha"], row["K"]) == (want["xi"], want["alpha"], want["K"])
        for key in ("broadening_factor", "residual_max"):
            assert _close(row[key], want[key]), (row, want)
    assert [e["k"] for e in k_table] == [e["k"] for e in want_table]
    for entry, want in zip(k_table, want_table):
        for key in ("broadening_factor", "residual_max"):
            assert entry[key] == pytest.approx(want[key], rel=RTOL), (entry, want)


def _pcf_doc(pcf_d_ps_nm_km):
    """The README fibers at z 400 km, alpha 0.5, K 0..20 and N 16384."""
    return {
        "scenario": "pcf-d",
        "fiber": {"beta2_ps2_km": -21.0, "z_km": 400.0},
        "pcf": {"d_ps_nm_km": pcf_d_ps_nm_km},
        "compensator": {"alphas": [0.5], "k_max": 20},
        "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384},
        "sweep": {"xi": [0.5, 1.0, 2.0]},
    }


def _pcf_outputs(tmp_path, pcf_d_ps_nm_km):
    """sweep.csv's 17-digit factors and scenario's k_table factors at one pcf D."""
    doc = _pcf_doc(pcf_d_ps_nm_km)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dispersim.experiments.fmt", lambda x: f"{float(x):.17g}")
        sweep = _run(tmp_path, "sweep-k", doc) / "sweep.csv"
        with sweep.open(encoding="utf-8") as fh:
            rows = [row["broadening_factor"] for row in csv.DictReader(fh)]
    report = json.loads((_run(tmp_path, "scenario", doc) / "scenario.json").read_text())
    return rows, [e["broadening_factor"] for e in report["stage_search"]["k_table"]]


@pytest.fixture(scope="module")
def pcf_reference(tmp_path_factory):
    """The outputs at the README's pcf D of 2200 ps/nm/km."""
    return _pcf_outputs(tmp_path_factory.mktemp("pcf-reference"), 2200.0)


@settings(max_examples=10, deadline=None)
@given(pcf_d_ps_nm_km=st.floats(300.0, 6000.0))
@example(pcf_d_ps_nm_km=1500.0)
@example(pcf_d_ps_nm_km=3100.0)
@example(pcf_d_ps_nm_km=5000.0)
def test_factors_keep_their_bits_whatever_the_pcf_d(
    pcf_reference, tmp_path_factory, pcf_d_ps_nm_km
):
    rows, k_table = _pcf_outputs(tmp_path_factory.mktemp("pcf-draw"), pcf_d_ps_nm_km)
    want_rows, want_table = pcf_reference
    assert len(rows) == 3 * 21 and len(k_table) == 21
    assert rows == want_rows
    assert k_table == want_table
