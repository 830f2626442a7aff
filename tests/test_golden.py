"""Output bytes of fixed sweeps, a scenario and a region, pinned by sha256,
and the width metric's work on the golden runs, pinned by exact counts.

The digests are those of the 9-digit outputs, which hold on any host: the
17-digit ``k_table`` factors of ``scenario.json`` can move by about 1e-15
relative with the BLAS kernels and SIMD level, so they are hashed as
``%.9g``, and no envelope dump is pinned. A change that moves any of these
bytes on purpose must say so, and update the digest. So must a change that
moves a work count: one that adds work fails here.
"""

import hashlib
import json

import pytest

from dispersim import signal
from dispersim.cli import main

SWEEP = {
    "scenario": "golden-sweep",
    "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6},
    "pcf": {"d_ps_nm_km": 2200.0},
    "compensator": {"alphas": [0.25, 1.0], "k_max": 12},
    "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384},
    # at xi 9.5 alpha 1 diverges
    "sweep": {"xi": [0.5, 2.0, 9.5]},
    "output": {"dir": "out"},
}
# a k_list sweep: at xi 12 both alphas diverge, so half its rows read diverged
K_LIST = {
    "scenario": "golden-k-list",
    "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6},
    "pcf": {"d_ps_nm_km": 2200.0},
    "compensator": {"alphas": [0.25, 1.0], "k_list": [0, 7, 150]},
    "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384},
    "sweep": {"xi": [0.5, 12.0]},
    "output": {"dir": "out"},
}
REGION = {
    "scenario": "golden-region",
    "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6},
    "compensator": {"alphas": [0.25, 1.0]},
    "region": {"bandwidths_hz": [1e9, 3e9]},
    "output": {"dir": "out"},
}
SCENARIO = {
    "scenario": "golden-scenario",
    "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6, "z_km": 400.0},
    "pcf": {"d_ps_nm_km": 2200.0},
    "dcf": {"d_ps_nm_km": -250.0, "quoted_path_km": 7.0},
    "compensator": {"alphas": [0.5], "k_max": 20, "target_broadening": 1.001},
    "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384},
    "output": {"dir": "out"},
}


def run(tmp_path, command, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "command, doc, digests",
    [
        ("sweep-k", SWEEP, {
            "sweep.csv": "a0912adaea8ff8a5c3466eb171118054809d4f593843c341e12adfcfc8b4135a",
            "meta.json": "d7c6263cfa602821fe918f4615ef50498a1d0c2dba935747da308af676eedac2",
        }),
        ("sweep-k", K_LIST, {
            "sweep.csv": "d2212c848a13f188419efc02fa7555d9d9ce13ee548e46e97122ba2e07eac781",
            "meta.json": "d8e2a6cebe7d4ea8ff60f02306d689bca3df35bed91c6cefbb78ab9896d87f78",
        }),
        ("region", REGION, {
            "region.csv": "f946b53533945ecab9a5e58255c239902ece46f8103937a304c086a4c1bd7159",
            "meta.json": "b888a001688772be11c3cd6a567a19b7b7c07bd21f0db45f612b69abb8043f57",
        }),
    ],
    ids=["sweep", "k-list-sweep", "region"],
)
def test_csv_run_bytes(tmp_path, command, doc, digests):
    out = run(tmp_path, command, doc)
    assert {name: sha256((out / name).read_bytes()) for name in digests} == digests


def test_scenario_bytes(tmp_path):
    out = run(tmp_path, "scenario", SCENARIO)
    report = json.loads((out / "scenario.json").read_text(encoding="utf-8"))
    assert report["stage_search"]["required_k"] == 1
    for entry in report["stage_search"]["k_table"]:
        entry["broadening_factor"] = "%.9g" % entry["broadening_factor"]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert sha256(text.encode()) == (
        "c820ccd51e5aa4e0481921c291908916949cefd5e4866b10fc2ac5173045336f"
    )


@pytest.mark.parametrize(
    "command, doc, points, rows",
    [
        # N = 16384, h = 64: rows of 16 samples on a 1024-point evaluation
        # grid, a quarter of the 4096-point coarse grid. The points are the
        # sent band's 4096 and 1024 for each of 31 bands out of its reach.
        ("sweep-k", SWEEP, 4096 + 31 * 1024, 526),
        # N = 65536, h = 64: N >= 1024h, so the evaluation grid is the
        # 4096-point coarse grid itself, with rows of 16 samples. The points
        # are the sent band's and those of 5 bands out of its reach.
        ("scenario", {**SCENARIO, "signal": {**SCENARIO["signal"], "n_samples": 65536}},
         6 * 4096, 234),
    ],
    ids=["sweep", "scenario-65536"],
)
def test_width_metric_work(tmp_path, monkeypatch, command, doc, points, rows):
    # the points of every coarse inverse transform and the rows of every
    # table of direct sums that a run's widths take
    work = {"points": 0, "rows": 0}
    coarse_intensity, direct_sums = signal._coarse_intensity, signal._direct_sums

    def counted_coarse(bands, n, m):
        work["points"] += len(bands) * m
        return coarse_intensity(bands, n, m)

    def counted_sums(bands, keys, n, m):
        work["rows"] += keys.size
        return direct_sums(bands, keys, n, m)

    monkeypatch.setattr(signal, "_coarse_intensity", counted_coarse)
    monkeypatch.setattr(signal, "_direct_sums", counted_sums)
    run(tmp_path, command, doc)
    assert work == {"points": points, "rows": rows}
