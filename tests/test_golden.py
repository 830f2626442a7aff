"""Output bytes of a fixed sweep and scenario, pinned by sha256.

The digests are those of the 9-digit outputs, which hold on any host: the
17-digit ``k_table`` factors of ``scenario.json`` can move by about 1e-15
relative with the BLAS kernels and SIMD level, so they are hashed as
``%.9g``, and no envelope dump is pinned. A change that moves any of these
bytes on purpose must say so, and update the digest.
"""

import hashlib
import json

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


def test_sweep_bytes(tmp_path):
    out = run(tmp_path, "sweep-k", SWEEP)
    assert sha256((out / "sweep.csv").read_bytes()) == (
        "a0912adaea8ff8a5c3466eb171118054809d4f593843c341e12adfcfc8b4135a"
    )
    assert sha256((out / "meta.json").read_bytes()) == (
        "d7c6263cfa602821fe918f4615ef50498a1d0c2dba935747da308af676eedac2"
    )


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
