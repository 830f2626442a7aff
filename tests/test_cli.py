import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dispersim import d_to_beta2
from dispersim.cli import main
from dispersim.compensator import (
    CompensatorSpec,
    compensate,
    match_pcf,
    stage_responses,
)
from dispersim.config import DOMAINS, parse_config
from dispersim.experiments import (
    ENVELOPE_BLOCK,
    FIELD,
    WORDS,
    _encode_9g,
    _envelope_csv,
    _sinc_envelopes,
    fmt,
)
from dispersim.fiber import FiberParams, dispersion_response, propagate
from dispersim.convergence import edge_error, span_length, stable, z_max
from dispersim.signal import (
    Envelope,
    FrequencyGrid,
    WidthMetricError,
    WraparoundError,
    band_offsets,
    band_outcomes,
    band_reference,
    band_samples,
    intensity_fwhm,
    make_gaussian_pulse,
    make_sinc_band,
    make_sinc_pulse,
    report_outcomes,
)
from dispersim import (
    cli,
    compensator as compensator_module,
    experiments,
    fiber as fiber_module,
    signal as signal_module,
)

SRC = Path(signal_module.__file__).resolve().parent.parent


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def sweep_doc(xi, alphas, k_max=3, n_samples=4096):
    return {
        "scenario": "cli-test",
        "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6},
        "pcf": {"d_ps_nm_km": 2200.0},
        "compensator": {"alphas": alphas, "k_max": k_max},
        "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": n_samples},
        "sweep": {"xi": xi},
        "output": {"dir": "out"},
    }


def scenario_doc(z_km=130.0, n_samples=8192):
    return {
        "scenario": "worked-example",
        "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6, "z_km": z_km},
        "pcf": {"d_ps_nm_km": 2200.0},
        "dcf": {"d_ps_nm_km": -250.0, "quoted_path_km": 7.0},
        "compensator": {"alphas": [1.0], "k_max": 3},
        "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": n_samples},
        "output": {"dir": "out"},
    }


def sent_pulse(cfg):
    """The configured pulse on the configured grid, as ``propagate`` dumps it."""
    make_pulse = make_sinc_pulse if cfg.pulse == "sinc" else make_gaussian_pulse
    return make_pulse(FrequencyGrid(cfg.n_samples, cfg.dt_s), cfg.pulse_width_s)


def readme_doc(pcf_d_ps_nm_km=2200.0):
    """The configuration printed in the README."""
    return {
        "scenario": "worked-example",
        "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6, "z_km": 130.0},
        "pcf": {"d_ps_nm_km": pcf_d_ps_nm_km},
        "dcf": {"d_ps_nm_km": -250.0, "quoted_path_km": 7.0},
        "compensator": {"alphas": [1.0], "k_max": 12, "target_broadening": 1.1},
        "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384},
        "sweep": {"xi": [0.5, 1.0, 2.0]},
        "region": {
            "bandwidths_hz": {"min": 1e9, "max": 1e10, "count": 40, "spacing": "log"}
        },
        "output": {"dir": "out"},
    }


def deep_doc(k_max, **signal):
    """xi 2, alpha 1: a stage search deep past the full grid's noise ceiling."""
    return {
        "scenario": "deep-k",
        "fiber": {"beta2_ps2_km": -21.0, "z_km": 268.045},
        "pcf": {"d_ps_nm_km": 2200.0},
        "compensator": {"alphas": [1.0], "k_max": k_max},
        "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 4096, **signal},
    }


class TestConvert:
    @pytest.mark.parametrize(
        "d, lines",
        [
            ("17", ["beta2    -21.6826 ps^2/km  (-2.16826194e-26 s^2/m)",
                    "D        17 ps/nm/km"]),
            # a zero D converts to a zero beta2, not -0
            ("0", ["beta2    0 ps^2/km  (0 s^2/m)"]),
            # and a given -0 is echoed as 0
            ("-0", ["D        0 ps/nm/km  (0 s/m^2)", "beta2    0 ps^2/km  (0 s^2/m)"]),
        ],
        ids=["d-17", "d-0", "d-minus-0"],
    )
    def test_d_to_beta2(self, capsys, d, lines):
        assert main(["convert", "--d", d, "--lambda", "1550e-9"]) == 0
        out = capsys.readouterr().out
        for line in lines:
            assert line in out
        assert "-0 " not in out

    @pytest.mark.parametrize(
        "beta2, line",
        [
            ("0", "D        0 ps/nm/km"),
            ("-21.6826", "D        17 ps/nm/km"),
            ("-0", "beta2    0 ps^2/km  (0 s^2/m)"),
        ],
        ids=["beta2-0", "beta2-21.6826", "beta2-minus-0"],
    )
    def test_beta2_to_d(self, capsys, beta2, line):
        assert main(["convert", "--beta2", beta2]) == 0
        out = capsys.readouterr().out
        assert line in out
        assert "-0 " not in out

    def test_high_dispersion_fiber(self, capsys):
        assert main(["convert", "--d", "2200", "--lambda", "1550e-9"]) == 0
        out = capsys.readouterr().out
        assert "-2805.99 ps^2/km" in out
        assert "note:" in out

    def test_requires_exactly_one_input(self, capsys):
        assert main(["convert"]) == 2
        assert main(["convert", "--d", "17", "--beta2", "-21"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_malformed_number(self, capsys):
        assert main(["convert", "--d", "abc"]) == 2
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize(
        "argv",
        [["--d", "inf"], ["--beta2", "nan"], ["--d", "17", "--lambda", "nan"]],
        ids=["d-inf", "beta2-nan", "lambda-nan"],
    )
    def test_non_finite_input_exits_2(self, argv, capsys):
        assert main(["convert", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert f"error: {argv[-2]} = {argv[-1]} is outside its domain" in captured.err

    def test_module_entry_point(self, tmp_path):
        # ``python -m dispersim`` is the one module entry point; it runs main's
        # commands and passes on main's exit code
        def run_module(module, *argv):
            return subprocess.run(
                [sys.executable, "-m", module, *argv],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                capture_output=True, text=True, cwd=tmp_path,
            )

        def run(*argv):
            return run_module("dispersim", *argv)

        proc = run("convert", "--d", "17")
        assert proc.returncode == 0
        assert "ps^2/km" in proc.stdout
        config = write_config(tmp_path, region_doc())
        proc = run("region", "--config", config, "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "region.csv").is_file()
        proc = run("region", "--config", config, "--out", "")
        assert proc.returncode == 2
        assert proc.stderr.count("error:") == 1
        # the cli module is not an entry point: it refuses and names the one that is
        proc = run_module("dispersim.cli", "convert", "--d", "17")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: run python -m dispersim, not python -m dispersim.cli\n"


def region_doc():
    return {
        "scenario": "region-test",
        "fiber": {"beta2_ps2_km": -21.0},
        "compensator": {"alphas": [1.0, 0.25]},
        "region": {"bandwidths_hz": [1e9, 3e9, 10e9]},
        "output": {"dir": "out"},
    }


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    assert main(["convert", "--d", "17"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    config = write_config(tmp_path, region_doc())
    assert main(["region", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert main(["convert", "--d", "17"]) == 0
    assert main(["sweep-k"]) == 2
    assert built == []


@pytest.mark.parametrize(
    "command, runner",
    [("region", "run_region"), ("sweep-k", "run_sweep"),
     ("scenario", "run_scenario"), ("propagate", "run_propagate")],
)
def test_run_command_calls_the_runner_bound_in_cli(tmp_path, monkeypatch, command, runner):
    # a tracer rebinds the runners after the parser exists; its wrapper must run
    cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, runner, lambda cfg, outdir: calls.append(outdir) or 0)
    doc = sweep_doc([0.5], [1.0], k_max=1, n_samples=1024)
    doc["fiber"]["z_km"] = 100.0  # every command's parts (config.REQUIRED_PARTS)
    config = write_config(tmp_path, {**doc, "region": {"bandwidths_hz": [1e9]}})
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 0
    assert calls == [out]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["region", "sweep-k"])
def test_empty_out_exits_2_like_an_empty_output_dir(tmp_path, monkeypatch, capsys, command):
    doc = sweep_doc([0.5], [1.0], k_max=1, n_samples=1024)
    doc["region"] = {"bandwidths_hz": [1e9]}
    config = write_config(tmp_path, doc)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([command, "--config", config, "--out", ""]) == 2
    assert capsys.readouterr().err == "error: --out must be a non-empty string\n"
    doc["output"]["dir"] = ""
    assert main([command, "--config", write_config(tmp_path, doc, "empty.json")]) == 2
    assert capsys.readouterr().err == "error: output.dir must be a non-empty string\n"
    assert list(cwd.iterdir()) == []


class TestRegion:
    def run(self, tmp_path, outname="out"):
        config = write_config(tmp_path, region_doc())
        out = tmp_path / outname
        assert main(["region", "--config", config, "--out", str(out)]) == 0
        return (out / "region.csv").read_text(), out

    def test_header_and_ordering(self, tmp_path):
        text, _ = self.run(tmp_path)
        lines = text.strip().split("\n")
        assert lines[0] == "B_hz,z_max_m,alpha,beta2_si"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        bs = [float(r[0]) for r in rows]
        alphas = [float(r[2]) for r in rows]
        assert bs == sorted(bs)
        assert alphas[:2] == [0.25, 1.0]  # alpha ascending within each B

    def test_boundary_values_and_monotonicity(self, tmp_path):
        text, _ = self.run(tmp_path)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        by_alpha = {}
        for r in rows:
            by_alpha.setdefault(float(r[2]), []).append((float(r[0]), float(r[1])))
        for alpha, pts in by_alpha.items():
            # the law z_max * B^2 = const holds exactly on the emission path ...
            exact = [z_max(b, alpha, -21e-27) * b**2 for b, _ in pts]
            assert max(exact) / min(exact) - 1 < 1e-9
            # ... and the CSV reproduces it up to 9-significant-digit rounding
            products = [z * b**2 for b, z in pts]
            assert max(products) / min(products) - 1 < 2e-8
            for (b, z), value in zip(pts, exact):
                assert z * b**2 == pytest.approx(value, rel=5e-9)
        # spot value at alpha = 1, B = 3 GHz
        spot = dict(by_alpha[1.0])[3e9]
        assert spot == pytest.approx(1122786.1946518193, rel=1e-8)
        # smaller alpha dominates pointwise
        for (b1, z1), (b2, z2) in zip(by_alpha[0.25], by_alpha[1.0]):
            assert b1 == b2
            assert z1 > z2

    def test_byte_determinism(self, tmp_path):
        text1, out1 = self.run(tmp_path, "out1")
        text2, out2 = self.run(tmp_path, "out2")
        assert text1 == text2
        assert (out1 / "meta.json").read_bytes() == (out2 / "meta.json").read_bytes()

    def test_zero_dispersion_writes_0_whichever_key_gives_it(self, tmp_path):
        outputs = set()
        for key in ("beta2_ps2_km", "d_ps_nm_km"):
            for zero in (0.0, -0.0):
                doc = region_doc()
                doc["fiber"] = {key: zero}
                out = tmp_path / f"{key}{zero}"
                config = write_config(tmp_path, doc)
                assert main(["region", "--config", config, "--out", str(out)]) == 0
                outputs.add((out / "region.csv").read_bytes())
                meta = json.loads((out / "meta.json").read_text())
                beta2 = meta["resolved_si"]["fiber_beta2_s2_m"]
                assert (beta2, math.copysign(1.0, beta2)) == (0.0, 1.0)
        [csv] = outputs
        assert {row.split(",")[3] for row in csv.decode().splitlines()[1:]} == {"0"}

    def test_meta_contents(self, tmp_path):
        _, out = self.run(tmp_path)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["command"] == "region"
        assert meta["width_metric"] == "fwhm_intensity_linear_interp"
        assert meta["resolved_si"]["fiber_beta2_s2_m"] == -21e-27
        assert meta["config"]["scenario"] == "region-test"

    def test_missing_region_section(self, tmp_path, capsys):
        doc = region_doc()
        del doc["region"]
        config = write_config(tmp_path, doc)
        assert main(["region", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        # a missing part is reported before the output path is made or refused
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert main(["region", "--config", config, "--out", str(blocker / "sub")]) == 2
        refusal = "error: region.bandwidths_hz is required for the region command\n"
        assert capsys.readouterr().err == 2 * refusal

    def test_unwritable_output(self, tmp_path, capsys):
        config = write_config(tmp_path, region_doc())
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        rc = main(["region", "--config", config, "--out", str(blocker / "sub")])
        assert rc == 2
        assert capsys.readouterr().err != ""

    def test_missing_config_file(self, capsys):
        assert main(["region", "--config", "/nonexistent.json"]) == 2
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("command", ["region", "propagate"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, command):
        config = tmp_path / "utf16.json"
        config.write_bytes(b"\xff\xfe" + json.dumps(readme_doc()).encode("utf-16-le"))
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "utf16.json is not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["region", "propagate"])
    def test_deeply_nested_config_exits_2(self, tmp_path, capsys, command):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000)
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "invalid JSON" in err and "recursion" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, key",
        [
            # last-wins would run 1400 km, outside the convergence region
            ('"z_km": 130.0', '"z_km": 130.0, "z_km": 1400.0', "z_km"),
            ('"scenario": ', '"fiber": {"d_ps_nm_km": 17.0}, "scenario": ', "fiber"),
        ],
        ids=["nested-key", "top-level-section"],
    )
    def test_repeated_json_key_exits_2(self, tmp_path, capsys, old, new, key):
        text = json.dumps(readme_doc()).replace(old, new, 1)
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"repeated key '{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["region", "sweep-k"])
    def test_repeated_alpha_exits_2(self, tmp_path, capsys, command):
        doc = _doc(
            readme_doc(), signal=_SMALL_SINC, compensator={"alphas": [1.0, 0.5, 1.0]}
        )
        config = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "compensator.alphas must not repeat a value" in err
        assert not out.exists()


class TestSweep:
    def test_rows_and_convergence(self, tmp_path):
        doc = sweep_doc([0.5, 1.0], [1.0], k_max=4)
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep-k", "--config", config, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "xi,alpha,K,broadening_factor,residual_max"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 1 * 5
        # sort key ordering: xi, then alpha, then K
        keys = [(float(r[0]), float(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        beta2 = parse_config(doc).fiber_beta2
        for r in rows:
            k = int(r[2])
            residual = float(r[4])
            factor = float(r[3])
            z = span_length(float(r[0]), beta2, 3e9)
            assert r[4] == fmt(edge_error(float(r[1]), beta2, 3e9, z) ** (k + 1))
            if residual < 1e-3:
                assert factor == pytest.approx(1.0, abs=0.01)
            if k > 0:
                assert residual < 1.0

    def test_diverged_rows_are_flagged(self, tmp_path):
        config = write_config(tmp_path, sweep_doc([20.0], [1.0], k_max=2))
        out = tmp_path / "out"
        assert main(["sweep-k", "--config", config, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        for r in rows:
            assert r[3] == "diverged"
            assert float(r[4]) >= 1.0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["diverged_rows"] == 3

    def test_diverged_rows_count_a_mixed_sweep(self, tmp_path):
        # at xi 9.5 alpha 0.25 still converges and alpha 1 diverges
        doc = sweep_doc([0.5, 9.5], [0.25, 1.0], k_max=3)
        config, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["sweep-k", "--config", config, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        diverged = [r[:3] for r in rows if r[3] == "diverged"]
        assert diverged == [["9.5", "1", str(k)] for k in range(4)]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["diverged_rows"] == len(diverged)
        assert meta["rows"] == len(rows) == 16

    @pytest.mark.parametrize("xi", [12.0, 100.0])
    def test_diverged_pair_builds_no_response(self, tmp_path, monkeypatch, xi):
        # xi 12 puts the edge phase past acos(1/2); from 8*pi on it is capped
        calls = []
        for module in ("dispersim.fiber", "dispersim.compensator"):
            monkeypatch.setattr(f"{module}.dispersion_tf", lambda *a: calls.append(a))
        monkeypatch.setattr(
            "dispersim.experiments.dispersion_response", lambda *a: calls.append(a)
        )
        doc = sweep_doc([xi], [1.0], k_max=2)
        config, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["sweep-k", "--config", config, "--out", str(out)]) == 0
        assert calls == []
        beta2 = parse_config(doc).fiber_beta2
        worst = edge_error(1.0, beta2, 3e9, span_length(xi, beta2, 3e9))
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[1:] == [
            f"{fmt(xi)},1,{k},diverged,{fmt(worst ** (k + 1))}" for k in range(3)
        ]

    def test_deep_stages_carry_no_rounding_noise(self, tmp_path):
        # Outside the band |E_D| reaches 1 + sqrt(alpha), so a full-grid
        # stage search amplified rounding noise there until it took over the
        # width: alpha 1 read 135.5 at K=55, with 69 multi-lobe warnings. The
        # stage search runs on the band bins, where every K has converged by
        # K=30. A warning fails the test (pytest turns it into an error).
        doc = readme_doc()
        doc["compensator"] = {"alphas": [0.5, 1.0], "k_max": 90}
        doc["sweep"]["xi"] = [2.0]
        config, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["sweep-k", "--config", config, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 91
        factors = {(r[1], int(r[2])): float(r[3]) for r in rows}
        for (alpha, k), factor in factors.items():
            if k >= 30:
                assert abs(factor - factors[alpha, 30]) <= 1e-6, (alpha, k)
        # and scenario's stage search, K 0..60 at xi 2 and alpha 1
        config, out = write_config(tmp_path, deep_doc(60)), tmp_path / "deep"
        assert main(["scenario", "--config", config, "--out", str(out)]) == 0
        search = json.loads((out / "scenario.json").read_text())["stage_search"]
        table = search["k_table"]
        assert [e["k"] for e in table] == list(range(61))
        for e in table[30:]:
            assert abs(e["broadening_factor"] - table[30]["broadening_factor"]) <= 1e-6

    def test_stage_count_past_the_old_noise_ceiling_is_measured(self, tmp_path):
        # K=156 at alpha 1 used to be amplified rounding noise whose lobe
        # touched the window edge (exit 3); the output is the sent pulse
        doc = readme_doc()
        doc["signal"]["n_samples"] = 4096
        doc["compensator"] = {"alphas": [1.0], "k_list": [156]}
        doc["sweep"]["xi"] = [0.2]
        config, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["sweep-k", "--config", config, "--out", str(out)]) == 0
        [row] = (out / "sweep.csv").read_text().strip().split("\n")[1:]
        assert float(row.split(",")[3]) == pytest.approx(1.0, abs=1e-12)

    def test_unmeasurable_width_exits_3(self, tmp_path, capsys, monkeypatch):
        # no converged stage search is known to reach the width errors, so the
        # measuring pass raises one here, for the run's one call
        def edge(reference, bands):
            raise WidthMetricError("half-maximum lobe touches the window edge")

        monkeypatch.setattr("dispersim.experiments.band_outcomes", edge)
        doc = sweep_doc([0.2], [1.0], k_max=2)
        config = write_config(tmp_path, doc)
        rc = main(["sweep-k", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "window edge" in err

    def test_pulse_outside_window_exits_2_when_all_pairs_diverge(
        self, tmp_path, capsys
    ):
        doc = sweep_doc([20.0], [1.0], k_max=2)
        doc["signal"]["window_factor"] = 4
        config = write_config(tmp_path, doc)
        rc = main(["sweep-k", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "guard margin" in err

    def test_stage_count_past_float_range_exits_2(self, tmp_path, capsys):
        # the gain alpha * 2**1101 is not a finite double
        doc = readme_doc()
        doc["compensator"] = {"alphas": [1.0], "k_list": [1100]}
        doc["signal"]["window_factor"] = 2000
        config = write_config(tmp_path, doc)
        rc = main(["sweep-k", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "1022" in err

    def test_stage_guard_alone_rejects(self, tmp_path, capsys):
        # 12 stages spread the pulse 12 times as far as the span does: the
        # window holds the span's spread, but not the stages'
        doc = sweep_doc([2.0], [1.0], k_max=12)
        doc["signal"]["window_factor"] = 8
        config = write_config(tmp_path, doc)
        rc = main(["sweep-k", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        # the spread in the message is that of the stages, not of the span
        beta2 = parse_config(doc).fiber_beta2
        spread = 12 * abs(beta2) * span_length(2.0, beta2, 3e9) * 2 * math.pi * 3e9
        assert f"dispersive spread {spread:.3e} s" in err

    def test_stage_search_memory_does_not_grow_with_the_alphas(self, tmp_path):
        # At a window of 512 widths the band holds 1025 bins, so the outputs
        # of K 0..600 take 9.9 MB per alpha. The width metric holds at most
        # BATCH_SAMPLES // M distinct outputs (M coarse samples per band) and
        # measures them as one batch: four alphas peak as high as the one
        # whose bands lie farthest from the sent band (alpha 0.25, the most
        # coarse transforms per batch), where a whole stack would hold 39 MB.
        # The untraced first run fills the caches, whose first fill would
        # otherwise count in a peak.
        peaks = []
        for run, alphas in enumerate(([0.25], [0.25], [0.25, 0.5, 0.75, 1.0])):
            doc = sweep_doc([0.3], alphas, k_max=600, n_samples=65536)
            doc["signal"]["window_factor"] = 512
            config, out = write_config(tmp_path, doc), tmp_path / f"out{run}"
            if run:
                tracemalloc.start()
            try:
                rc = main(["sweep-k", "--config", config, "--out", str(out)])
                if run:
                    peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rc == 0
            assert "diverged" not in (out / "sweep.csv").read_text()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_one_dispersion_response_per_converging_span(self, tmp_path, monkeypatch):
        # the matched pcf's response is the span's own: each span where some
        # alpha converges builds one response, for its received band and its
        # cascade alike, and xi 12, where every alpha diverges, builds none
        calls = []

        def counted(fiber, dw):
            calls.append(fiber.length_m)
            return dispersion_response(fiber, dw)

        monkeypatch.setattr(experiments, "dispersion_response", counted)
        doc = sweep_doc([0.5, 2.0, 12.0], [0.5, 1.0], k_max=3)
        config = write_config(tmp_path, doc)
        assert main(["sweep-k", "--config", config, "--out", str(tmp_path / "o")]) == 0
        beta2 = parse_config(doc).fiber_beta2
        assert calls == [span_length(xi, beta2, 3e9) for xi in (0.5, 2.0)]

    def test_byte_determinism(self, tmp_path):
        config = write_config(tmp_path, sweep_doc([0.5, 1.0], [0.5, 1.0], k_max=3))
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert main(["sweep-k", "--config", config, "--out", str(out1)]) == 0
        assert main(["sweep-k", "--config", config, "--out", str(out2)]) == 0
        for name in ("sweep.csv", "meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestScenario:
    def test_report_values(self, tmp_path):
        config = write_config(tmp_path, scenario_doc())
        out = tmp_path / "out"
        assert main(["scenario", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "scenario.json").read_text())
        xi = report["dispersion_strength"]["value"]
        assert xi == pytest.approx(0.969984720539062, rel=1e-12)
        length = report["matched_subsystem"]["length_m"]
        pcf_beta2 = d_to_beta2(2200.0, 1.55e-6)
        assert length == pytest.approx(21e-27 * 130e3 / abs(pcf_beta2), rel=1e-12)
        assert 900 <= length <= 1100
        table = report["stage_search"]["k_table"]
        assert [entry["k"] for entry in table] == [0, 1, 2, 3]
        assert all(entry["residual_max"] < 1 for entry in table[1:])
        required = report["stage_search"]["required_k"]
        assert required is not None
        assert report["compensator_path"]["length_m"] == required * length
        dcf = report["dcf_comparison"]
        dcf_beta2 = d_to_beta2(-250.0, 1.55e-6)
        assert dcf["path_m"] == pytest.approx(
            130e3 * 21e-27 / abs(dcf_beta2), rel=1e-12
        )
        assert dcf["quoted_path_m"] == 7000.0
        assert report["width_metric"] == "fwhm_intensity_linear_interp"

    def test_outputs_are_the_sent_pulse_from_k_16_on(self, tmp_path):
        # at 16384 samples the width metric runs on its coarse grid and
        # direct sums, and from some K on the stage search measures the
        # outputs from the sent band's bounds. There the outputs are the
        # sent pulse: every factor from K=16 on is 1 to 1e-12, and K=0
        # already meets the target
        doc = scenario_doc(n_samples=16384)
        doc["compensator"]["k_max"] = 40
        config, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["scenario", "--config", config, "--out", str(out)]) == 0
        search = json.loads((out / "scenario.json").read_text())["stage_search"]
        table = search["k_table"]
        assert [e["k"] for e in table] == list(range(41))
        assert search["required_k"] == 0
        for e in table[16:]:
            assert abs(e["broadening_factor"] - 1) <= 1e-12, e

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_k_table_matches_the_full_grid_path(self, tmp_path, alpha):
        # the stage search measures every K from the band bins; up to K=12 it
        # must give the width of the full-grid compensate output
        doc = scenario_doc(n_samples=65536)
        doc["compensator"] = {"alphas": [alpha], "k_max": 12}
        config, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["scenario", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "scenario.json").read_text())
        cfg = parse_config(doc)
        tx = sent_pulse(cfg)
        fiber = FiberParams(cfg.fiber_beta2, cfg.z_m)
        rx = propagate(tx, fiber)
        sub = match_pcf(fiber, cfg.pcf_beta2, alpha=alpha)
        for entry in report["stage_search"]["k_table"]:
            out_k = compensate(rx, CompensatorSpec(sub, entry["k"]))
            want = intensity_fwhm(out_k) / intensity_fwhm(tx)
            assert entry["broadening_factor"] == pytest.approx(want, rel=1e-12)

    def test_k_table_matches_sweep_rows(self, tmp_path, monkeypatch):
        # sweep.csv prints 9 digits; print 17 so the full numbers are compared
        monkeypatch.setattr("dispersim.experiments.fmt", lambda x: f"{float(x):.17g}")
        xi, alpha = 2.0, 0.5
        sweep = sweep_doc([xi], [alpha], k_max=6)
        beta2 = parse_config(sweep).fiber_beta2
        scenario = scenario_doc(z_km=span_length(xi, beta2, 3e9) / 1e3, n_samples=4096)
        scenario["compensator"] = {"alphas": [alpha], "k_max": 6}
        out = tmp_path / "out"
        for command, doc in (("sweep-k", sweep), ("scenario", scenario)):
            config = write_config(tmp_path, doc, name=f"{command}.json")
            assert main([command, "--config", config, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        report = json.loads((out / "scenario.json").read_text())
        table = report["stage_search"]["k_table"]
        assert [entry["k"] for entry in table] == [int(r[2]) for r in rows]
        assert len(table) == 7
        for entry, r in zip(table, rows):
            # z round-trips through km, so the numbers agree but not to the bit
            assert entry["broadening_factor"] == pytest.approx(float(r[3]), rel=1e-12)
            assert entry["residual_max"] == pytest.approx(float(r[4]), rel=1e-12)

    @pytest.mark.filterwarnings("ignore:multiple lobes")
    @settings(max_examples=60, deadline=None)
    @given(
        xi=st.floats(0.05, 6.0),
        alpha=st.floats(0.05, 1.0),
        k_max=st.integers(0, 40),
        n=st.sampled_from([16384, 65536]),
    )
    @example(xi=1.0, alpha=1.0, k_max=40, n=65536)
    def test_k_table_matches_the_widths_without_a_reference(self, xi, alpha, k_max, n):
        # The stage search measures each K near the sent band from the sent
        # band's coarse bounds; every factor must be the bits of the width
        # measured from the K's own coarse grid. Once the last K's
        # residual_max is well inside the reference's reach (about 4.8e-3 of
        # the unit peak), some K must have run without a coarse transform.
        beta2 = -21e-27
        assume(stable(alpha, beta2, 3e9, span_length(xi, beta2, 3e9)))
        doc = scenario_doc(z_km=span_length(xi, beta2, 3e9) / 1e3, n_samples=n)
        doc["compensator"] = {"alphas": [alpha], "k_max": k_max}
        coarse = []  # the bands of each coarse transform
        transform = signal_module._coarse_intensity

        def counted(bands, *args):
            coarse.append(len(bands))
            return transform(bands, *args)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(signal_module, "_coarse_intensity", counted)
            config = write_config(Path(tmp), doc)
            rc, err = _run_captured(["scenario", "--config", config, "--out", tmp])
            # the K stages' spread may exceed the window: the guard's exit 3
            assert (rc, err) == (0, "") or (rc == 3 and "cannot absorb" in err)
            assume(rc == 0)
            report = json.loads((Path(tmp) / "scenario.json").read_text())
        table = report["stage_search"]["k_table"]
        cfg = parse_config(doc)
        grid = FrequencyGrid(cfg.n_samples, cfg.dt_s)
        tx_band = make_sinc_band(grid, cfg.pulse_width_s)
        offsets = band_offsets(grid, tx_band.size // 2)
        fiber = FiberParams(cfg.fiber_beta2, cfg.z_m)
        h_span = dispersion_response(fiber, offsets)  # the matched pcf's too
        rx_band = tx_band * h_span
        unbounded = band_reference(grid, np.zeros_like(tx_band))  # bounds no band
        [tx_width] = report_outcomes(*band_outcomes(unbounded, [tx_band]))
        responses = stage_responses(alpha, h_span, cfg.k_list)
        outputs = np.array([rx_band * response for response in responses])
        want = report_outcomes(*band_outcomes(unbounded, outputs)) / tx_width
        assert [e["broadening_factor"].hex() for e in table] == [w.hex() for w in want]
        # without a reference: the sent band, the received band and every K
        assert sum(coarse) <= 2 + len(table)
        if table[-1]["residual_max"] < 4e-3:
            assert sum(coarse) < 2 + len(table)

    @pytest.mark.parametrize("pcf_d", [2070.0, 2085.0])
    def test_pulse_stays_in_the_window(self, tmp_path, pcf_d):
        # a bulk delay applied circularly used to push the pulse over the edge
        config = write_config(tmp_path, readme_doc(pcf_d))
        assert main(["scenario", "--config", config, "--out", str(tmp_path / "o")]) == 0

    def test_opposite_sign_pcf_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, readme_doc(-100.0))
        rc = main(["scenario", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "same sign" in capsys.readouterr().err

    def test_missing_signal_exits_2(self, tmp_path, capsys):
        doc = readme_doc()
        del doc["signal"]
        config = write_config(tmp_path, doc)
        rc = main(["scenario", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "signal section is required" in err

    def test_span_guard_alone_rejects_at_k_max_0(self, tmp_path, capsys, monkeypatch):
        # The span's guard needs at most 0.7 of an 8-width window wherever the
        # cascade converges, so the point is let past the convergence checks
        # of the config and of the stage search: xi 25 spreads the sent pulse
        # past the window, while the received pulse, which is all that K = 0
        # checks, fits it
        monkeypatch.setattr("dispersim.config.stable", lambda *args: True)
        monkeypatch.setattr("dispersim.experiments.stable", lambda *args: True)
        beta2 = -21e-27
        z_m = span_length(25.0, beta2, 3e9)
        doc = scenario_doc(z_km=z_m / 1e3)
        doc["compensator"] = {"alphas": [1.0], "k_max": 0}
        doc["signal"]["window_factor"] = 8
        config = write_config(tmp_path, doc)
        rc = main(["scenario", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        spread = abs(beta2) * z_m * 2 * math.pi * 3e9  # 8 widths: the band is exact
        assert f"dispersive spread {spread:.3e} s" in err

    def test_unstable_point_exits_3(self, tmp_path, capsys):
        assert z_max(3e9, 1.0, -21e-27) < 2000e3
        config = write_config(tmp_path, scenario_doc(z_km=2000.0))
        rc = main(["scenario", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "convergence region" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep-k", "scenario"])
def test_runners_never_leave_the_band(tmp_path, monkeypatch, command):
    # One 2**20-sample complex array takes 16.8 MB; the sinc's band holds
    # 129 bins, and n_samples only sets the resolution of the width metric
    def full_grid(*args):
        raise AssertionError("an N-point pulse, spectrum or axis was built")

    for name in (
        "signal.make_sinc_pulse",
        "experiments.propagate",
        "experiments.compensate",
        "signal.fft",
    ):
        monkeypatch.setattr(f"dispersim.{name}", full_grid)
    monkeypatch.setattr(FrequencyGrid, "delta_omega", property(full_grid))
    if command == "scenario":
        doc = scenario_doc(n_samples=2**20)
        doc["compensator"] = {"alphas": [0.5], "k_max": 2}
    else:
        doc = sweep_doc([1.0], [0.5], k_max=2, n_samples=2**20)
    config = write_config(tmp_path, doc)
    tracemalloc.start()
    try:
        rc = main([command, "--config", config, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 8e6


# runs the command line it is given and prints the process's peak RSS in MB:
# Linux's VmHWM, which starts afresh at exec, where ru_maxrss would start at
# the peak of the process that spawned it (pytest's own)
_PEAK_RSS = """
import re, sys
from dispersim.cli import main
rc = main(sys.argv[1:])
status = open("/proc/self/status", encoding="ascii").read()
print(int(re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1)) / 1024)
sys.exit(rc)
"""


def _design_doc():
    """4 xi x 4 alpha x K 0..300 at 65536 samples and a window of 256 widths."""
    doc = sweep_doc([0.3, 0.5, 1.0, 2.0], [0.25, 0.5, 0.75, 1.0], 300, 65536)
    doc["signal"]["window_factor"] = 256
    return doc


@pytest.mark.parametrize(
    "command, doc, rows",
    [("scenario", scenario_doc(n_samples=2**22), None),
     ("sweep-k", _design_doc(), 4816)],
    ids=["scenario-2**22-samples", "design-sweep"],
)
def test_band_runs_peak_below_100_mb(tmp_path, command, doc, rows):
    # n_samples only sets the width metric's resolution: a 2**22-sample
    # scenario stays far below the 67 MB of one N-point complex array. A
    # design sweep reads the sent band, then each span's received band and
    # 1204 stage outputs, from a generator, and measures them a batch of a
    # fixed count of distinct bands at a time: 4816 rows within the same
    # bound. Each runs in a fresh interpreter, so that the peak is the run's own.
    config, out = write_config(tmp_path, doc), tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, command, "--config", config,
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert float(proc.stdout) < 100
    if rows is not None:
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + rows


@pytest.mark.parametrize("command", ["sweep-k", "scenario", "propagate"])
def test_sent_band_is_built_and_measured_once_per_run(tmp_path, monkeypatch, command):
    # sweep-k over 3 xi x 2 alpha, scenario and a sinc propagate each build
    # one grid and one sent band, which every span shares. The stage search
    # builds one band_reference; propagate builds none, as its guards measure
    # the envelopes it writes. Its input envelope is the band's transform, so
    # no make_sinc_pulse synthesizes the band again
    spies = {
        name: mock.Mock(wraps=getattr(experiments, name))
        for name in ("FrequencyGrid", "make_sinc_band", "band_reference")
    }
    for name, spy in spies.items():
        monkeypatch.setattr(experiments, name, spy)
    # the band make_sinc_pulse would build counts as a synthesis too
    monkeypatch.setattr(signal_module, "make_sinc_band", spies["make_sinc_band"])
    if command == "sweep-k":
        doc = sweep_doc([0.5, 1.0, 2.0], [0.5, 1.0], n_samples=16384)
    else:
        doc = scenario_doc(n_samples=16384)
    config = write_config(tmp_path, doc)
    assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 0
    counts = {name: spy.call_count for name, spy in spies.items()}
    assert counts == {**dict.fromkeys(spies, 1), "band_reference": int(command != "propagate")}


def test_sinc_propagate_builds_no_envelope(tmp_path, monkeypatch):
    # a sinc propagate dumps the sample arrays it builds from its bands, so
    # no Envelope copies and checks them again
    spy = mock.Mock(wraps=signal_module._as_complex_grid_array)
    monkeypatch.setattr(signal_module, "_as_complex_grid_array", spy)
    config = write_config(tmp_path, scenario_doc(n_samples=16384))
    out = tmp_path / "o"
    assert main(["propagate", "--config", config, "--out", str(out)]) == 0
    assert (out / "envelope_compensated.csv").exists()
    assert spy.call_count == 0
    Envelope(FrequencyGrid(16, 1e-12), np.zeros(16))  # the spy sees an Envelope
    assert spy.call_count == 1


def measured_stacks(monkeypatch) -> list:
    """The bands every band_outcomes call reads, counted at every name it is bound to."""
    stacks, original = [], signal_module.band_outcomes

    def counted(reference, bands):
        stacks.append(0)

        def read():
            for band in bands:
                stacks[-1] += 1
                yield band

        return original(reference, read())

    names = []
    for module_name, module in list(sys.modules.items()):
        if module_name == "dispersim" or module_name.startswith("dispersim."):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
                    names.append(f"{module_name}.{name}")
    bound = {"dispersim.signal.band_outcomes", "dispersim.experiments.band_outcomes"}
    assert bound <= set(names)
    return stacks


def edge_output(monkeypatch, call: int) -> None:
    """Move the last output of the ``call``-th stage_responses call onto the window edge.

    Turning band bin k by (-1)**k delays the pulse by half the window, so its
    lobe straddles the first sample: the width rule fails for that output.
    """
    original, calls = experiments.stage_responses, []

    def responses(alpha, h_pcf, k_list):
        calls.append(k_list)
        out = list(original(alpha, h_pcf, k_list))
        if len(calls) == call:
            h = h_pcf.size // 2
            out[-1] = out[-1] * (1.0 - 2.0 * (np.r_[0 : h + 1, -h:0] % 2))
        yield from out

    monkeypatch.setattr(experiments, "stage_responses", responses)


def run_recorded(argv):
    """``main(argv)``'s exit code, stderr and every warning it raises."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, err.getvalue(), [(w.category, str(w.message)) for w in caught]


class TestWidthStream:
    """Each stage search measures all its widths in one stream, reported in the old order.

    A sinc propagate measures the envelopes it writes instead
    (``TestPropagate.test_guards_measure_the_envelopes_they_guard``).
    """

    @staticmethod
    def scenario_k40():
        doc = scenario_doc(n_samples=16384)
        doc["compensator"] = {"alphas": [1.0], "k_max": 40}
        return doc

    @staticmethod
    def uncompensated():
        doc = scenario_doc(n_samples=16384)
        del doc["pcf"]
        return doc

    @pytest.mark.parametrize(
        "command, doc, stacks",
        [
            # the sent band; xi 0.5: its received band and 2 x 13 outputs;
            # xi 9.5: its received band and alpha 0.25's 13 (alpha 1 diverges)
            ("sweep-k", sweep_doc([0.5, 9.5], [0.25, 1.0], 12, 16384), [1 + 27 + 14]),
            ("scenario", scenario_k40(), [1 + 1 + 41]),
            # propagate measures the envelopes it writes, not their bands
            ("propagate", scenario_doc(n_samples=16384), []),
            ("propagate", uncompensated(), []),
            # every span diverges: no width is measured
            ("sweep-k", sweep_doc([20.0, 100.0], [0.25, 1.0], 12, 16384), []),
        ],
        ids=["sweep", "scenario", "propagate", "uncompensated", "all-diverged"],
    )
    def test_one_measuring_call_per_run(self, tmp_path, monkeypatch, command, doc, stacks):
        measured = measured_stacks(monkeypatch)
        config = write_config(tmp_path, doc)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 0
        assert measured == stacks

    @pytest.mark.parametrize(
        "command, xis, k_list, window, call",
        [
            ("sweep-k", [2.0], [*range(13)], 8, 1),
            ("scenario", [2.0], [*range(13)], 8, 1),
            # xi 0.5 passes both guards; xi 2's stage guard stops the run
            # before its own outputs, one of which fails the width rule
            ("sweep-k", [0.5, 2.0], [*range(13)], 8, 2),
            ("sweep-k", [0.5], [1000], 64, 1),
        ],
        ids=["sweep", "scenario", "second-span", "deep"],
    )
    def test_stage_guard_stops_the_run_before_its_outputs(
        self, tmp_path, monkeypatch, command, xis, k_list, window, call
    ):
        # A later output's lobe lies on the window edge, which the width rule
        # rejects; the received band's guard comes first and stops the run.
        # Every band was built and measured, and no warning was raised.
        edge_output(monkeypatch, call)
        measured = measured_stacks(monkeypatch)
        beta2 = -21e-27
        doc = sweep_doc(xis, [1.0], n_samples=4096)
        if command == "scenario":
            doc = scenario_doc(z_km=span_length(xis[0], beta2, 3e9) / 1e3, n_samples=4096)
        doc["compensator"] = {"alphas": [1.0], "k_list": k_list}
        doc["signal"]["window_factor"] = window
        config = write_config(tmp_path, doc)
        argv = [command, "--config", config, "--out", str(tmp_path / "o")]
        rc, err, caught = run_recorded(argv)
        assert (rc, err.count("error:"), caught) == (3, 1, [])
        z_m = span_length(xis[-1], beta2, 3e9)
        spread = k_list[-1] * abs(beta2) * z_m * 2 * math.pi * 3e9  # the stages'
        assert f"dispersive spread {spread:.3e} s" in err
        assert measured == [len(xis) * (1 + len(k_list)) + 1]
        # the same output fails the width rule once the window holds the spread
        edge_output(monkeypatch, call)
        doc["signal"]["window_factor"] = 16 * window
        config = write_config(tmp_path, doc)
        rc, err, _ = run_recorded(argv)
        assert (rc, err.count("error:")) == (3, 1)
        assert "window edge" in err

    def test_earlier_span_outputs_come_before_a_later_guard(self, tmp_path, monkeypatch):
        # xi 0.5's outputs are reported before xi 2's guard: the failing
        # output of the first span stops the run with the width error
        edge_output(monkeypatch, 1)
        doc = sweep_doc([0.5, 2.0], [1.0], k_max=12, n_samples=4096)
        doc["signal"]["window_factor"] = 8
        config = write_config(tmp_path, doc)
        rc, err, caught = run_recorded(
            ["sweep-k", "--config", config, "--out", str(tmp_path / "o")]
        )
        assert (rc, err.count("error:")) == (3, 1)
        assert "window edge" in err
        assert [category for category, _ in caught] == [UserWarning]  # its two lobes


def test_scenario_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the width metric's direct sums are matrix products, which OpenBLAS may
    # split across threads; each coarse interval is a product of its own, so
    # scenario.json keeps its bytes at one thread and at two
    config = write_config(tmp_path, scenario_doc(n_samples=2**20))
    run = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from dispersim.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", run, str(SRC), "scenario", "--config", config,
             "--out", str(out)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(hashlib.sha256((out / "scenario.json").read_bytes()).hexdigest())
    assert len(digests) == 1


class TestPropagate:
    def propagate_doc(self, z_km, window_factor=64.0, n_samples=4096):
        return {
            "scenario": "propagate-test",
            "fiber": {"beta2_ps2_km": -21.0, "z_km": z_km},
            "pcf": {"d_ps_nm_km": 2200.0},
            "compensator": {"alphas": [1.0], "k_max": 2},
            "signal": {
                "pulse": "gaussian",
                "width_s": 100e-12,
                "n_samples": n_samples,
                "window_factor": window_factor,
            },
            "output": {"dir": "out"},
        }

    def test_envelope_dumps(self, tmp_path):
        config = write_config(tmp_path, self.propagate_doc(z_km=100.0))
        out = tmp_path / "out"
        assert main(["propagate", "--config", config, "--out", str(out)]) == 0
        for name in (
            "envelope_input.csv",
            "envelope_dispersed.csv",
            "envelope_compensated.csv",
        ):
            lines = (out / name).read_text().strip().split("\n")
            assert lines[0] == "t_s,re,im"
            assert len(lines) == 4096 + 1
            t0, re, im = lines[1].split(",")
            float(t0), float(re), float(im)

    def test_wraparound_exits_3(self, tmp_path, capsys):
        doc = self.propagate_doc(z_km=2000.0, window_factor=16.0, n_samples=512)
        config = write_config(tmp_path, doc)
        rc = main(["propagate", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "window" in capsys.readouterr().err

    def test_failed_cascade_writes_no_envelope(self, tmp_path, capsys):
        doc = self.propagate_doc(z_km=100.0)
        doc["compensator"]["k_max"] = 40
        config = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["propagate", "--config", config, "--out", str(out)]) == 3
        assert "window" in capsys.readouterr().err
        assert list(out.glob("envelope_*.csv")) == []

    def test_diverged_operating_point_exits_3(self, tmp_path, capsys):
        # xi is about 10.4 here, past the alpha = 1 boundary near 8.4
        doc = readme_doc()
        doc["fiber"]["z_km"] = 1400.0
        doc["compensator"] = {"alphas": [1.0], "k_max": 2}
        doc["signal"]["n_samples"] = 4096
        assert z_max(3e9, 1.0, -21e-27) < 1400e3
        config = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["propagate", "--config", config, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "outside the convergence region" in err
        assert list(out.glob("envelope_*.csv")) == []

    @pytest.mark.parametrize("compensated", [True, False])
    @pytest.mark.parametrize("pulse", ["gaussian", "sinc"])
    def test_guards_measure_the_envelopes_they_guard(
        self, tmp_path, monkeypatch, pulse, compensated
    ):
        # the span's guard takes its width from the input envelope and the
        # stages' guard from the dispersed one, each as written, bit for bit;
        # a sinc propagate builds no band reference and measures no band
        doc = self.propagate_doc(z_km=100.0)
        if pulse == "sinc":
            doc = _doc(readme_doc(), signal=_SMALL_SINC)
        if not compensated:
            del doc["pcf"]
        widths, written = [], {}
        guard = signal_module.check_wraparound

        def recording(grid, offsets, spectrum, width, accumulated_gvd):
            widths.append(width)
            guard(grid, offsets, spectrum, width, accumulated_gvd)

        for module in (experiments, fiber_module, compensator_module):
            monkeypatch.setattr(module, "check_wraparound", recording)
        dump = experiments._envelope_csv
        monkeypatch.setattr(
            experiments, "_envelope_csv",
            lambda outdir, grid, envelopes: written.update(envelopes)
            or dump(outdir, grid, envelopes),
        )
        band_spies = {}
        for module in (experiments, signal_module):
            for name in ("band_reference", "band_outcomes"):
                spy = band_spies[module.__name__, name] = mock.Mock(
                    wraps=getattr(module, name)
                )
                monkeypatch.setattr(module, name, spy)
        config = write_config(tmp_path, doc)
        assert main(["propagate", "--config", config, "--out", str(tmp_path / "o")]) == 0
        grid = sent_pulse(parse_config(doc)).grid
        guarded = ["envelope_input.csv", "envelope_dispersed.csv"][: 1 + compensated]
        want = [intensity_fwhm(Envelope(grid, written[name])) for name in guarded]
        assert [w.hex() for w in widths] == [w.hex() for w in want]
        assert [spy.call_count for spy in band_spies.values()] == [0] * 4

    @pytest.mark.parametrize("pulse", ["gaussian", "sinc"])
    @pytest.mark.parametrize(
        "n_samples", [ENVELOPE_BLOCK // 4, ENVELOPE_BLOCK, 2 * ENVELOPE_BLOCK]
    )
    def test_envelope_bytes_match_per_sample_rule(self, tmp_path, pulse, n_samples):
        if pulse == "gaussian":
            doc = self.propagate_doc(z_km=100.0, n_samples=n_samples)
        else:
            doc = _doc(readme_doc(), signal=dict(_SMALL_SINC, n_samples=n_samples))
            doc["compensator"] = {"alphas": [1.0], "k_max": 2}
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["propagate", "--config", config, "--out", str(out)]) == 0
        cfg = parse_config(doc)
        tx = sent_pulse(cfg)
        fiber = FiberParams(cfg.fiber_beta2, cfg.z_m)
        spec = CompensatorSpec(match_pcf(fiber, cfg.pcf_beta2, alpha=1.0), 2)
        if pulse == "gaussian":
            assert not tx.samples.imag.any()
            rx = propagate(tx, fiber)
            out_e = compensate(rx, spec)
        else:  # a sinc is propagated on its band bins, then zero-padded
            grid = tx.grid
            tx_band = make_sinc_band(grid, cfg.pulse_width_s)
            offsets = band_offsets(grid, tx_band.size // 2)
            h_span = dispersion_response(fiber, offsets)  # the matched pcf's too
            rx_band = tx_band * h_span
            [response] = stage_responses(1.0, h_span, [2])
            rx = Envelope(grid, band_samples(grid, rx_band))
            out_e = Envelope(grid, band_samples(grid, rx_band * response))
        envelopes = {
            "envelope_input.csv": tx,
            "envelope_dispersed.csv": rx,
            "envelope_compensated.csv": out_e,
        }
        for name, e in envelopes.items():
            t, s = e.grid.time_axis, e.samples
            expected = "t_s,re,im\n" + "".join(
                f"{fmt(t[i])},{fmt(s[i].real)},{fmt(s[i].imag)}\n"
                for i in range(n_samples)
            )
            assert (out / name).read_bytes() == expected.encode("utf-8"), name


    def test_values_handed_to_fmt_anywhere_in_a_block(self, tmp_path, monkeypatch):
        # values the encoder hands to fmt (beyond 1e290 or below 1e-290, or
        # exactly on a 9-digit rounding tie, such as 2**-13 = 1.220703125e-4)
        # on the first, a middle and the last row of one block and on both
        # ends of others; zeros are encoded without fmt. The longest fields,
        # 16 characters from the encoder and from fmt, sit on the last row
        # of the second block and the first of the third
        n = 4 * ENVELOPE_BLOCK
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        planted = {
            0: complex(1.5e300, 5e-324),
            ENVELOPE_BLOCK // 2: complex(123456789.5, -1.220703125e-4),
            ENVELOPE_BLOCK - 1: complex(-1e-300, 6.103515625e-5),
            ENVELOPE_BLOCK: complex(999999999.5, 0.0),
            2 * ENVELOPE_BLOCK - 1: complex(-1.23456789e-100, -1.23456789e300),
            2 * ENVELOPE_BLOCK: complex(-4.94065646e-324, -9.87654321e289),
            n - 1: complex(-0.0, -5e290),
        }
        for row, value in planted.items():
            samples[row] = value
        grid = FrequencyGrid(n, 1e-12)
        envelopes = {
            "a.csv": Envelope(grid, samples),
            "b.csv": Envelope(grid, samples[::-1] * 1e-3),
        }
        sent = []
        monkeypatch.setattr(
            "dispersim.experiments.fmt", lambda x: sent.append(x) or format(x, ".9g")
        )
        _envelope_csv(tmp_path, grid, {n: e.samples for n, e in envelopes.items()})
        planted_values = {v for c in planted.values() for v in (c.real, c.imag)}
        assert {-1.23456789e300, -4.94065646e-324} <= set(sent)
        assert not {-1.23456789e-100, -9.87654321e289} & set(sent)
        assert planted_values - {0.0, -1.23456789e-100, -9.87654321e289} <= set(sent)
        for name, e in envelopes.items():
            t, s = e.grid.time_axis, e.samples
            expected = "t_s,re,im\n" + "".join(
                f"{t[i]:.9g},{s[i].real:.9g},{s[i].imag:.9g}\n" for i in range(n)
            )
            lines = (tmp_path / name).read_bytes().split(b"\n")
            for row in (2 * ENVELOPE_BLOCK - 1, 2 * ENVELOPE_BLOCK):
                # a separator overwritten by a field would merge or split columns
                _, *re_im = lines[1 + row].split(b",")
                assert re_im == [
                    format(v, ".9g").encode() for v in (s[row].real, s[row].imag)
                ], (name, row)
            assert (tmp_path / name).read_bytes() == expected.encode("utf-8"), name

    @pytest.mark.parametrize(
        "k_max, window_factor", [(50, 64), (60, 64), (60, 50.5)]
    )
    def test_deep_stage_count_gives_back_the_sent_pulse(
        self, tmp_path, k_max, window_factor
    ):
        # xi 2, alpha 1: in band |E_D|**(K+1) is below 1e-30, while outside
        # it the full grid's rounding noise grows like 2**(K+1); the same
        # cascade on the full grid leaves 5.5e-2 (K=50) and 54.8 (K=60) here.
        # The input is the sent band's transform, whose centre sample reads
        # 1, also at a window of 50.5 widths, where the half band (50 bins)
        # is not a power of two
        doc = deep_doc(k_max, window_factor=window_factor)
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["propagate", "--config", config, "--out", str(out)]) == 0
        sent, compensated = (
            np.loadtxt(out / f"envelope_{name}.csv", delimiter=",", skiprows=1)
            for name in ("input", "compensated")
        )
        assert np.abs(sent - compensated).max() <= 1e-8
        rows = (out / "envelope_input.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1 + len(sent) // 2].split(",")[1] == "1"


@pytest.mark.filterwarnings("ignore:multiple lobes")
@settings(max_examples=60, deadline=None)
@given(
    xi=st.floats(0.05, 8.0),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    log2_n=st.integers(9, 12),
    window_factor=st.floats(16.0, 128.0),
    k_max=st.integers(0, 12),
)
def test_sinc_band_envelopes_match_the_full_grid(
    xi, alpha, log2_n, window_factor, k_max
):
    # the full grid holds rounding noise outside the band, which the cascade
    # amplifies up to (1+sqrt(alpha))**(K+1) times; up to K=12 the two paths
    # stay within 1e-12 of the peak
    beta2 = -21e-27
    assume(stable(alpha, beta2, 3e9, span_length(xi, beta2, 3e9)))
    doc = {
        "scenario": "band-vs-grid",
        "fiber": {"beta2_ps2_km": -21.0, "z_km": span_length(xi, beta2, 3e9) / 1e3},
        "pcf": {"d_ps_nm_km": 2200.0},
        "compensator": {"alphas": [alpha], "k_max": k_max},
        "signal": {
            "pulse": "sinc",
            "bandwidth_hz": 3e9,
            "n_samples": 2**log2_n,
            "window_factor": window_factor,
        },
    }
    cfg = parse_config(doc)
    fiber = FiberParams(cfg.fiber_beta2, cfg.z_m)
    spec = CompensatorSpec(match_pcf(fiber, cfg.pcf_beta2, alpha=alpha), k_max)
    grid = FrequencyGrid(cfg.n_samples, cfg.dt_s)
    band = make_sinc_band(grid, cfg.pulse_width_s)
    tx = sent_pulse(cfg)
    try:
        rx = propagate(tx, fiber)
        full = {
            "envelope_input.csv": tx,
            "envelope_dispersed.csv": rx,
            "envelope_compensated.csv": compensate(rx, spec),
        }
    except WraparoundError:
        with pytest.raises(WraparoundError):
            _sinc_envelopes(grid, band, fiber, alpha, k_max)
        return
    envelopes = _sinc_envelopes(grid, band, fiber, alpha, k_max)
    assert envelopes.keys() == full.keys()
    for name, samples in envelopes.items():
        peak = np.abs(full[name].samples).max()
        assert np.abs(samples - full[name].samples).max() <= 1e-12 * peak, name


def _encoded(values) -> list:
    x = np.asarray(values, dtype=np.float64)
    fields = np.zeros(x.shape + (FIELD,), np.uint8)
    _encode_9g(x, fields)
    return [row.tobytes().translate(None, b"\0") for row in fields]


def _stepped(x: float, steps: int) -> float:
    """``x`` moved ``steps`` doubles up (or down, for negative steps)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _near(anchors):
    """Strategy: an anchor or one of its 3 nearest doubles either way."""
    return st.builds(_stepped, anchors, st.integers(-3, 3))


# 9-digit significands followed by a 5: the value nearest a rounding tie
_TIES = st.builds(
    lambda digits, p: float(f"{digits}5e{p}"),
    st.integers(10**8, 10**9 - 1),
    st.integers(-333, 298),
)
# the bandwidths and window factors of time axes drawn below
_AXIS_BANDWIDTHS = st.one_of(
    st.sampled_from([1e9, 1.25e9, 2.5e9, 3e9, 10e9, 40e9]), st.floats(1e8, 1e11)
)
_AXIS_WINDOWS = st.one_of(
    st.sampled_from([16.0, 50.5, 64.0, 100.25]), st.floats(8.0, 1024.0)
)


def _time_axis(bandwidth_hz, window_factor, n_samples):
    """A sinc grid's time axis, with the step as the configuration forms it."""
    dt_s = window_factor * (2.0 / bandwidth_hz) / n_samples
    return FrequencyGrid(n_samples, dt_s).time_axis


# sample k of a time axis k * dt
_TIME_SAMPLES = st.builds(
    lambda b, w, log2_n, u: float(_time_axis(b, w, 2**log2_n)[int(u * 2**log2_n)]),
    _AXIS_BANDWIDTHS,
    _AXIS_WINDOWS,
    st.integers(8, 16),
    st.floats(0.0, 1.0, exclude_max=True),
)
# short decimals n·10^p, n of 1 to 9 digits: integer parts ending in zeros,
# and significands whose lo group, or mid and lo groups, are zero
_SHORT_DECIMALS = st.builds(
    lambda n, p: float(f"{n}e{p}"),
    st.integers(1, 9).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
    st.integers(-12, 12),
)
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _near(_TIES),
    # the upward step of the decimal exponent near 10**p, and the
    # 999999999.5 carry
    _near(st.integers(-320, 308).map(lambda p: float(f"1e{p}"))),
    # the first double of each binade, where the exponent's estimate changes
    _near(st.integers(-1074, 1023).map(lambda p: 2.0**p)),
    # %g's switch from fixed notation at exponents -4 and 9
    _near(
        st.sampled_from(
            [9.999999995e-5, 9.99999999e-5, 1e-4, 1e-5, 99999999.95, 999999999.5, 1e9]
        )
    ),
    # 3-digit exponents, subnormals and zeros
    st.floats(min_value=1e100, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-100),
    st.integers(1, 2**52 - 1).map(lambda n: n * 5e-324),
    st.sampled_from([0.0, -0.0]),
    _TIME_SAMPLES,
    _SHORT_DECIMALS,
)


_SIGNED_DOUBLES = st.builds(math.copysign, _DOUBLES, st.sampled_from([1, -1]))


@settings(max_examples=1000, deadline=None)
@given(values=st.lists(_SIGNED_DOUBLES))
@example(values=[0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.5, 999999999.5])
@example(values=[100.0, 1500.0, 1e8, 120000000.0, 0.001])
def test_encoder_writes_format_9g_bytes(values):
    assert _encoded(values) == [format(v, ".9g").encode() for v in values]


def test_binade_exponent_table_is_exact():
    # floor(log10(2**p)) for every biased binary exponent, from exact integers
    # (2**p is never a power of ten for p != 0)
    table = experiments._encoder_tables()[2]
    want = [
        len(str(1 << p)) - 1 if p >= 0 else -len(str(1 << -p)) for p in range(-1023, 1025)
    ]
    assert table.tolist() == want


_SEPARATORS = np.frombuffer(b",,\n", np.uint8)
_TIME_FIELD = np.frombuffer(b"0123456789abcdef", np.uint8)  # no NUL to hide a write


def _strided_block(n_rows: int) -> np.ndarray:
    """A t,re,im block as _envelope_csv lays it out: each field, then its separator."""
    block = np.zeros((n_rows, 3, FIELD + 1), np.uint8)
    block[:, :, FIELD] = _SEPARATORS
    block[:, 0, :FIELD] = _TIME_FIELD
    return block


def _check_strided_block(block: np.ndarray, x: np.ndarray) -> None:
    """The re/im fields of ``block`` hold format(x, ".9g"), the rest is untouched."""
    assert (block[:, :, FIELD] == _SEPARATORS).all()
    assert (block[:, 0, :FIELD] == _TIME_FIELD).all()
    fields = block[:, 1:, :FIELD].reshape(-1, FIELD)
    encoded = [row.tobytes().translate(None, b"\0") for row in fields]
    assert encoded == [format(v, ".9g").encode() for v in x.ravel().tolist()]


@pytest.mark.parametrize("n_rows", [1, ENVELOPE_BLOCK])
def test_encoder_fills_a_strided_block(n_rows):
    # the re/im columns of a t,re,im block, encoded as _envelope_csv does:
    # through the block's view, with one work array reused from call to call
    rng = np.random.default_rng(n_rows)
    x = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-120, 120, (n_rows, 2))
    planted = [-1.23456789e-100, -1.23456789e300, -0.0, 1500.0, 1e8, -0.001, 2.5e-300,
               123456789.5, 0.0, -1e-100]
    x.flat[: len(planted)] = planted[: x.size]  # fmt's values and zeros among them
    # 16-character fields, from the encoder and from fmt, on the first row
    # (planted above) and the last: the separators after them must stay
    x[-1] = -9.87654321e289, -4.94065646e-324
    block = _strided_block(n_rows)
    work = np.empty((2, 2 * ENVELOPE_BLOCK, WORDS), np.uint64)
    _encode_9g(-x[::-1], block[:, 1:, :FIELD], work)  # fields and work left over
    _encode_9g(x, block[:, 1:, :FIELD], work)
    contiguous = np.zeros(x.shape + (FIELD,), np.uint8)
    _encode_9g(x, contiguous)
    assert (block[:, 1:, :FIELD] == contiguous).all()
    _check_strided_block(block, x)


_STRIDED_WORK = np.empty((2, 2 * ENVELOPE_BLOCK, WORDS), np.uint64)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.tuples(_SIGNED_DOUBLES, _SIGNED_DOUBLES), min_size=1, max_size=ENVELOPE_BLOCK
    )
)
def test_encoder_fills_a_strided_block_with_any_doubles(values):
    # the 17-byte rows leave every field unaligned; one work array serves
    # every example, holding the last example's words
    x = np.array(values)
    block = _strided_block(len(x))
    _encode_9g(x, block[:, 1:, :FIELD], _STRIDED_WORK)
    _check_strided_block(block, x)


def _is_exact_tie(v: float) -> bool:
    """True where |v| lies exactly halfway between two 9-digit decimals."""
    e = Decimal(v).adjusted()  # the exact value's decimal exponent
    return (Fraction(abs(v)) * Fraction(10) ** (8 - e)).denominator == 2


@settings(max_examples=40, deadline=None)
@given(
    bandwidth_hz=_AXIS_BANDWIDTHS,
    window_factor=_AXIS_WINDOWS,
    log2_n=st.integers(8, 16),
)
def test_time_axis_reaches_fmt_only_on_exact_ties(bandwidth_hz, window_factor, log2_n):
    t = _time_axis(bandwidth_hz, window_factor, 2**log2_n)
    sent = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            "dispersim.experiments.fmt", lambda x: sent.append(x) or format(x, ".9g")
        )
        assert _encoded(t) == [format(v, ".9g").encode() for v in t.tolist()]
    assert all(_is_exact_tie(v) for v in sent), sent


def test_propagate_dump_time_axis_needs_no_fmt(monkeypatch):
    # 65536 samples of 64 widths of a 3 GHz sinc; 6485 of them lie within
    # 1e-6 of a 9-digit tie, and none on one
    monkeypatch.setattr("dispersim.experiments.fmt", lambda x: pytest.fail(repr(x)))
    t = _time_axis(3e9, 64.0, 65536)
    assert _encoded(t) == [format(v, ".9g").encode() for v in t.tolist()]


def _doc(base, **sections):
    doc = dict(base)
    doc.update(sections)
    return doc


_HUGE_BAND = {"pulse": "sinc", "bandwidth_hz": 1e200, "n_samples": 256}
_TINY_FIBER = {"beta2_ps2_km": -1e-200, "lambda0_m": 1.55e-6}
_SMALL_SINC = {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 256}
# gaussian widths whose square, and whose squared half window of 32 widths at
# the default window factor, sit on the edges of the normal double range
_WIDTH_LO = math.sqrt(sys.float_info.min)
_WIDTH_HI = math.sqrt(sys.float_info.max) / 32


def _gaussian_doc(width_s):
    signal = {"pulse": "gaussian", "width_s": width_s, "n_samples": 256}
    return _doc(scenario_doc(z_km=1.0), signal=signal)


class TestRangeRules:
    """Inputs outside their keys' domains exit 2, not with a traceback."""

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("sweep-k", _doc(sweep_doc([0.5], [1.0]), signal=_HUGE_BAND)),
            ("scenario", _doc(scenario_doc(), signal=_HUGE_BAND)),
            ("propagate", _doc(scenario_doc(), signal=_HUGE_BAND)),
            ("region", _doc(scenario_doc(), region={"bandwidths_hz": [1e9, 1e200]})),
            (
                "region",
                _doc(
                    scenario_doc(),
                    fiber=_TINY_FIBER,
                    pcf={"beta2_ps2_km": -1.0},
                    region={"bandwidths_hz": [1e-60, 1e9]},
                ),
            ),
            (
                "sweep-k",
                _doc(
                    sweep_doc([0.5], [1.0]),
                    fiber=_TINY_FIBER,
                    pcf={"beta2_ps2_km": -1.0},
                    signal={"pulse": "sinc", "bandwidth_hz": 1e-60, "n_samples": 256},
                ),
            ),
        ],
        ids=[
            "sweep-huge-band",
            "scenario-huge-band",
            "propagate-huge-band",
            "region-huge-band",
            "region-tiny-strength",
            "sweep-tiny-strength",
        ],
    )
    def test_bandwidth_out_of_range_exits_2(self, tmp_path, capsys, command, doc):
        config = write_config(tmp_path, doc)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "outside its domain" in err

    @pytest.mark.parametrize(
        "command, sections, name",
        [
            ("sweep-k", {"sweep": {"xi": [1e305]}}, "sweep.xi[0]"),
            (
                "sweep-k",
                {"sweep": {"xi": [1e40]}, "pcf": {"beta2_ps2_km": -1e-270}},
                "pcf.beta2_ps2_km",
            ),
            (
                "scenario",
                {
                    "fiber": {"beta2_ps2_km": 1e308, "z_km": 1e10},
                    "pcf": {"beta2_ps2_km": 1e-270},
                    "signal": dict(_SMALL_SINC, bandwidth_hz=1e-150),
                },
                "fiber.beta2_ps2_km",
            ),
        ],
        ids=["span-overflows", "branch-overflows", "scenario-branch-overflows"],
    )
    def test_span_length_out_of_range_exits_2(
        self, tmp_path, capsys, command, sections, name
    ):
        doc = _doc(_doc(readme_doc(), signal=_SMALL_SINC), **sections)
        doc["compensator"] = {"alphas": [1.0], "k_max": 2}
        config = write_config(tmp_path, doc)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"{name} = " in err and "outside its domain" in err

    @pytest.mark.parametrize(
        "digits, message",
        [(400, f"fiber.z_km = 1{'0' * 400} is outside its domain"), (5000, "invalid JSON")],
        ids=["past-double-range", "past-int-digit-limit"],
    )
    def test_integer_past_double_range_exits_2(self, tmp_path, capsys, digits, message):
        # spliced into the text: json.dumps refuses integers past the digit limit
        text = json.dumps(scenario_doc(z_km="Z")).replace('"Z"', "1" + "0" * digits)
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        rc = main(["propagate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert message in err

    @pytest.mark.parametrize(
        "command, section, value, message",
        [
            *(
                (command, "signal", dict(_SMALL_SINC, n_samples=n),
                 f"error: signal.n_samples = {n} is outside its domain [2, 1073741824]")
                for n in (2**1024, 2**1100)
                for command in ("region", "sweep-k", "scenario", "propagate")
            ),
            # counts whose axis would not fit in memory
            *(
                (
                    "region",
                    "region",
                    {"bandwidths_hz": {"min": 1e9, "max": 1e10, "count": c, "spacing": s}},
                    f"error: region.bandwidths_hz.count = {c} is outside its domain "
                    "[2, 1000000]\n",
                )
                for c in (2**62, 2**63 - 1, 10**20)
                for s in ("linear", "log")
            ),
        ],
        ids=[
            *(f"n_samples-2**{p}-{command}" for p in (1024, 1100)
              for command in ("region", "sweep-k", "scenario", "propagate")),
            *(f"count-{c}-{spacing}" for c in ("2**62", "2**63-1", "10**20")
              for spacing in ("linear", "log")),
        ],
    )
    def test_integer_past_any_array_exits_2(
        self, tmp_path, capsys, command, section, value, message
    ):
        # n_samples past the double range, and a range axis too long for the
        # address space, lie outside their domains
        config = write_config(tmp_path, _doc(readme_doc(), **{section: value}))
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.startswith(message)

    @pytest.mark.parametrize(
        "width_s",
        [1e-300, 1e154, 1e300, 0.999 * _WIDTH_LO, 1.001 * _WIDTH_HI],
        ids=["underflows", "window-overflows", "overflows", "below-lo", "above-hi"],
    )
    def test_gaussian_width_out_of_range_exits_2(self, tmp_path, capsys, width_s):
        config = write_config(tmp_path, _gaussian_doc(width_s))
        rc = main(["propagate", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "signal.width_s = " in err and "outside its domain" in err

    @pytest.mark.parametrize(
        "width_s, code, message",
        [(1e-16, 3, "error: time window 6.400e-15 s cannot absorb"), (1e-3, 0, "")],
        ids=["above-lo", "below-hi"],
    )
    def test_gaussian_width_inside_range_runs(
        self, tmp_path, capsys, width_s, code, message
    ):
        # both widths lie on the bounds of their domain. At the lower one the
        # span's spread overruns the window (exit 3); at the upper one the
        # pulse propagates, and its responses' beta2 / 2 * dw**2 are tiny
        config = write_config(tmp_path, _gaussian_doc(width_s))
        rc = main(["propagate", "--config", config, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == code
        assert _exits_cleanly(rc, err) and "signal.width_s" not in err
        assert err.startswith(message)

    @pytest.mark.parametrize("window_factor", [1e6, 4096])
    @pytest.mark.parametrize("command", ["propagate", "sweep-k", "scenario"])
    def test_coarse_sinc_step_exits_2(self, tmp_path, capsys, command, window_factor):
        # the band spans window_factor bins on each side of zero, past the
        # 127 that 256 samples hold; 1e6, the domain's top, runs the cap
        # before int()
        doc = _doc(readme_doc(), signal=dict(_SMALL_SINC, window_factor=window_factor))
        config = write_config(tmp_path, doc)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "time step too coarse" in err

    @pytest.mark.parametrize("command", ["sweep-k", "scenario", "propagate"])
    def test_unallocatable_grid_exits_2(self, tmp_path, capsys, command):
        # at the top of the n_samples and window_factor domains, the width
        # metric refuses its 2000001x18 table of direct sums before any
        # command allocates anything
        signal = dict(_SMALL_SINC, n_samples=2**30, window_factor=1e6)
        doc = _doc(readme_doc(), signal=signal)
        config = write_config(tmp_path, doc)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "allocate" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--d", "17", "--lambda", "1e200"],
            ["--beta2", "-21", "--lambda", "1e-170"],
            ["--beta2", "-21", "--lambda", "1e-161"],
        ],
        ids=["square-overflows", "square-underflows", "result-overflows"],
    )
    def test_convert_out_of_range_exits_2(self, argv, capsys):
        assert main(["convert", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1


def _run_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(flag=st.sampled_from(["--d", "--beta2"]), value=_FINITE, lambda0=_POSITIVE)
def test_convert_exits_0_or_2_on_finite_input(flag, value, lambda0):
    rc, err = _run_captured(["convert", f"{flag}={value!r}", f"--lambda={lambda0!r}"])
    assert (rc, err) == (0, "") or (rc == 2 and err.count("error:") == 1)


@settings(max_examples=200, deadline=None)
@given(
    beta2=_FINITE.filter(bool),
    bandwidths=st.lists(_POSITIVE, min_size=1, max_size=4, unique=True).map(sorted),
)
def test_region_exits_0_or_2_on_finite_bands(beta2, bandwidths):
    doc = {
        "scenario": "region-property",
        "fiber": {"beta2_ps2_km": beta2},
        "compensator": {"alphas": [0.25, 1.0]},
        "region": {"bandwidths_hz": bandwidths},
    }
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), doc)
        rc, err = _run_captured(["region", "--config", config, "--out", tmp])
    assert (rc, err) == (0, "") or (rc == 2 and err.count("error:") == 1)


def _exits_cleanly(rc, err):
    return (rc, err) == (0, "") or (rc in (2, 3) and err.count("error:") == 1)


@pytest.mark.filterwarnings("ignore:multiple lobes")
@settings(max_examples=100, deadline=None)
@given(
    xi=st.lists(_POSITIVE, min_size=1, max_size=3, unique=True).map(sorted),
    pcf_beta2=st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    k_max=st.integers(min_value=0, max_value=2),
)
def test_sweep_exits_cleanly_on_finite_strengths(xi, pcf_beta2, k_max):
    doc = _doc(
        readme_doc(),
        pcf={"beta2_ps2_km": pcf_beta2},
        compensator={"alphas": [0.25, 1.0], "k_max": k_max},
        signal=_SMALL_SINC,
        sweep={"xi": xi},
    )
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), doc)
        rc, err = _run_captured(["sweep-k", "--config", config, "--out", tmp])
    assert _exits_cleanly(rc, err)


@pytest.mark.filterwarnings("ignore:multiple lobes")
@settings(max_examples=100, deadline=None)
@given(window_factor=_POSITIVE)
def test_propagate_exits_cleanly_on_finite_steps(window_factor):
    # the time step is window_factor * (2/B) / n_samples
    doc = _doc(readme_doc(), signal=dict(_SMALL_SINC, window_factor=window_factor))
    doc["compensator"] = {"alphas": [1.0], "k_max": 2}
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), doc)
        rc, err = _run_captured(["propagate", "--config", config, "--out", tmp])
    assert _exits_cleanly(rc, err)


@pytest.mark.filterwarnings("ignore:multiple lobes")
@settings(max_examples=100, deadline=None)
@given(log2_width=st.floats(-1074.0, 1024.0, exclude_max=True))
def test_propagate_exits_cleanly_on_gaussian_widths(log2_width):
    # width_s log-uniform over the positive finite doubles, 2**-1074 and up
    doc = _gaussian_doc(2.0**log2_width)
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), doc)
        rc, err = _run_captured(["propagate", "--config", config, "--out", tmp])
    assert _exits_cleanly(rc, err)


# the configs that once ended in a traceback or in invalid JSON, or that
# reached the overflow rules the domains replace, and the pair of same-sign
# dispersions whose product underflows (z in km, beta2 in ps^2/km): each has
# a value outside its key's domain
_GAUSSIAN_GRID = {
    "scenario": "g",
    "fiber": {"beta2_ps2_km": -1e-270, "z_km": 1},
    "signal": {"pulse": "gaussian", "width_s": 1.5e-154, "n_samples": 256},
}
_NYQUIST_GRID = {
    "scenario": "n",
    "fiber": {"beta2_ps2_km": -1e-270, "z_km": 1e-14},
    "pcf": {"beta2_ps2_km": -1e24},
    "signal": {"pulse": "sinc", "bandwidth_hz": 1e153, "n_samples": 4096},
}
_DCF_PATH = {
    "scenario": "d",
    "fiber": {"beta2_ps2_km": -1e300, "z_km": 1e5},
    "pcf": {"beta2_ps2_km": -1e301},
    "dcf": {"beta2_ps2_km": 1e-270},
    "compensator": {"alphas": [1.0], "k_max": 2},
    "signal": {"pulse": "sinc", "bandwidth_hz": 1e-145, "n_samples": 1024},
}
# a zero beta2 on a band whose edge dw**2 overflows: responses of 0 * inf = NaN
_ZERO_BETA2_SINC = {
    "scenario": "zero",
    "fiber": {"beta2_ps2_km": 0, "z_km": 1},
    "signal": {"pulse": "sinc", "bandwidth_hz": 1e156, "n_samples": 1024},
}
# the same zero beta2 on a band whose (2*pi*B)**2 overflows but whose full
# grid's (pi / dt_s)**2 does not
_ZERO_BETA2_WIDE = _doc(
    _ZERO_BETA2_SINC, signal={"pulse": "sinc", "bandwidth_hz": 2.2e153,
                              "n_samples": 1024, "window_factor": 300},
)
# the span's spread fits the window, but beta2 / 2 * (pi / dt_s)**2 overflows
_GRID_PHASE = {
    "scenario": "p",
    "fiber": {"beta2_ps2_km": -1e36, "z_km": 1e-308},
    "signal": {"pulse": "gaussian", "width_s": 1e-148, "n_samples": 4096},
}
# the stage search's K meets the target, and scenario reports K * L
_CASCADE_PATH = {
    "scenario": "c",
    "fiber": {"beta2_ps2_km": -21.0, "z_km": 9.6e33},
    "pcf": {"beta2_ps2_km": -1.7e-270},
    "compensator": {"alphas": [1.0], "k_list": [0, 2], "target_broadening": 1.0},
    "signal": {"pulse": "sinc", "bandwidth_hz": 1e-6, "n_samples": 4096},
}
_SMALL_SAME_SIGN = {
    "scenario": "s",
    "fiber": {"beta2_ps2_km": -1e-143},
    "pcf": {"beta2_ps2_km": -1e-133},
    "region": {"bandwidths_hz": [1e9, 3e9]},
}
# a fiber beta2 of -1e-317 s^2/m, a subnormal
_SUBNORMAL_BETA2 = _doc(readme_doc(), fiber={"beta2_ps2_km": -1e-290, "z_km": 130.0})
# the sinc's span z times beta2 / 2 * dw**2 overflows: responses of
# exp(-1j * inf) = NaN
_SPAN_PHASE = {
    "scenario": "any",
    "fiber": {"d_ps_nm_km": 16.5, "lambda0_m": 1.55e-06, "z_km": 1.5030672529752533e110},
    "compensator": {"alphas": [1.0], "k_max": 0, "target_broadening": 1.1},
    "signal": {"pulse": "sinc", "bandwidth_hz": 1.5030672529752533e110, "n_samples": 256,
               "window_factor": 64.0},
}
# the same sinc on a span so short that its phase underflows to zero
_SPAN_PHASE_UNDERFLOW = _doc(
    _SPAN_PHASE, fiber={"d_ps_nm_km": 16.5, "z_km": 1e-300},
    signal={"pulse": "sinc", "bandwidth_hz": 1e9, "n_samples": 256},
)


_BETA2_DOMAIN = "0 or ±[1e-06, 1e+07] ps^2/km"


def _outside(name, value, domain=_BETA2_DOMAIN):
    """The line that refuses ``name`` = ``value`` outside its domain."""
    return f"error: {name} = {value} is outside its domain {domain}\n"


_BAND = "signal.bandwidth_hz"
_BAND_DOMAIN = "[1000, 1e+15] Hz"
_Z_DOMAIN = "0 or [1e-06, 1e+06] km"
_TINY_BETA2 = _outside("fiber.beta2_ps2_km", "-1e-270")


@pytest.mark.parametrize(
    "command, doc, code, message",
    [
        ("propagate", _GAUSSIAN_GRID, 2, _TINY_BETA2),
        ("propagate", _NYQUIST_GRID, 2, _TINY_BETA2),
        ("propagate", _ZERO_BETA2_SINC, 2, _outside(_BAND, "1e+156", _BAND_DOMAIN)),
        ("propagate", _ZERO_BETA2_WIDE, 2, _outside(_BAND, "2.2e+153", _BAND_DOMAIN)),
        ("propagate", _GRID_PHASE, 2, _outside("fiber.beta2_ps2_km", "-1e+36")),
        ("scenario", _NYQUIST_GRID, 2, _TINY_BETA2),
        ("sweep-k", _doc(_NYQUIST_GRID, sweep={"xi": [0.5, 1.0]}), 2, _TINY_BETA2),
        ("scenario", _DCF_PATH, 2, _outside("fiber.beta2_ps2_km", "-1e+300")),
        ("scenario", _CASCADE_PATH, 2, _outside("fiber.z_km", "9.6e+33", _Z_DOMAIN)),
        ("region", _SMALL_SAME_SIGN, 2, _outside("fiber.beta2_ps2_km", "-1e-143")),
        *[
            (command, _SUBNORMAL_BETA2, 2, _outside("fiber.beta2_ps2_km", "-1e-290"))
            for command in ("region", "sweep-k", "scenario", "propagate")
        ],
        (
            "propagate",
            _SPAN_PHASE,
            2,
            _outside("fiber.z_km", "1.5030672529752533e+110", _Z_DOMAIN),
        ),
        ("propagate", _SPAN_PHASE_UNDERFLOW, 2, _outside("fiber.z_km", "1e-300", _Z_DOMAIN)),
    ],
    ids=["gaussian-grid", "nyquist-grid", "zero-beta2-sinc", "zero-beta2-wide-band",
         "grid-phase", "nyquist-scenario",
         "nyquist-sweep", "dcf-path", "cascade-path", "small-same-sign",
         "subnormal-region", "subnormal-sweep", "subnormal-scenario",
         "subnormal-propagate", "span-phase", "span-phase-underflow"],
)
def test_range_rule_cases(tmp_path, capsys, command, doc, code, message):
    config = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err == message
    for path in out.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


# a double log-uniform over [2**-1074, 2**1024)
_MAGNITUDE = st.floats(-1074.0, 1024.0, exclude_max=True).map(lambda e: 2.0**e)


@st.composite
def _any_config(draw):
    """A config over every float key, each the README's value or a log-uniform draw.

    One key in four is drawn: log-uniform over +-[2**-1074, 2**1024) with
    the README value's sign (one in eight), with the other sign or zero (one
    in sixteen each). The others keep their README value, so that most
    draws reach the runners. An optional section or key stays in three
    times in four, and the lists are sorted, as their rules ask.
    """

    def often():
        return draw(st.sampled_from([True, True, True, False]))

    def value(readme):
        if often():
            return readme
        sign = draw(st.sampled_from([1.0, 1.0, -1.0, 0.0]))
        return math.copysign(sign, readme) * draw(_MAGNITUDE)

    def values(readme, size):
        return sorted({value(readme) for _ in range(draw(st.integers(1, size)))})

    def maybe(section):
        return {k: v for k, v in section.items() if often()}

    def dispersion(beta2_ps2_km, d_ps_nm_km):  # the README's, in either unit
        if draw(st.booleans()):
            return {"beta2_ps2_km": value(beta2_ps2_km)}
        return {"d_ps_nm_km": value(d_ps_nm_km)}

    pulse = draw(st.sampled_from(["sinc", "gaussian"]))
    width = ("bandwidth_hz", 3e9) if pulse == "sinc" else ("width_s", 100e-12)
    # 256 samples and up hold the README pulses in their windows
    n_samples = 2 ** draw(st.integers(8, 12) if often() else st.integers(1, 7))
    if draw(st.booleans()):
        axis = values(3e9, 2)
    else:
        axis = {"min": value(1e9), "max": value(1e10), "count": draw(st.integers(2, 4)),
                "spacing": draw(st.sampled_from(["linear", "log"]))}
    fiber = dispersion(-21.0, 16.5)
    fiber.update(maybe({"lambda0_m": value(1.55e-6), "z_km": value(130.0)}))
    doc = {
        "scenario": "any",
        "fiber": fiber,
        "compensator": {
            "alphas": values(1.0, 2),
            "k_max": draw(st.integers(0, 64)),
            **maybe({"target_broadening": value(1.1)}),
        },
        "signal": {
            "pulse": pulse,
            width[0]: value(width[1]),
            "n_samples": n_samples,
            **maybe({"window_factor": value(64.0)}),
        },
        "sweep": {"xi": values(1.0, 3)},
    }
    dcf = dispersion(319.0, -250.0)
    dcf.update(maybe({"quoted_path_km": value(7.0)}))
    doc.update(maybe({
        "pcf": dispersion(-2806.0, 2200.0),
        "dcf": dcf,
        "region": {"bandwidths_hz": axis},
    }))
    return doc


def _outside_domains(doc):
    """The numbers of ``doc`` that lie outside their keys' domains."""
    outside = []
    for section in doc.values():
        for key, value in section.items() if isinstance(section, dict) else ():
            if isinstance(value, dict):  # a region range axis
                pairs = [("bandwidths_hz", value["min"]), ("bandwidths_hz", value["max"]),
                         ("count", value["count"])]
            else:
                pairs = [(key, v) for v in (value if isinstance(value, list) else [value])]
            outside += [v for k, v in pairs if k in DOMAINS and not DOMAINS[k].holds(v)]
    return outside


_DOMAIN_LINE = re.compile(r"error: \S+ = (\S+) is outside its domain .+\n")


@pytest.mark.filterwarnings("ignore:multiple lobes")
@settings(max_examples=400, deadline=None)
@given(doc=_any_config())
@example(doc=_GAUSSIAN_GRID)
@example(doc=_NYQUIST_GRID)
@example(doc=_DCF_PATH)
@example(doc=_GRID_PHASE)
@example(doc=_CASCADE_PATH)
@example(doc=_SMALL_SAME_SIGN)
@example(doc=_SUBNORMAL_BETA2)
@example(doc=_SPAN_PHASE)
def test_every_command_exits_cleanly_on_any_config(doc):
    # each run exits 0, 2 or 3 with at most one error: line, and on exit 0
    # every JSON it writes is valid JSON: no Infinity or NaN. A config with a
    # value outside its domain exits 2 with the line that names one such
    # value. A refused config or a span outside the convergence region is
    # refused before the output directory is made; only a guard of the run
    # itself (wraparound, the width metric) exits 3 after it
    outside = _outside_domains(doc)
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), doc)
        for command in ("region", "sweep-k", "scenario", "propagate"):
            out = Path(tmp) / command
            rc, err = _run_captured([command, "--config", config, "--out", str(out)])
            assert rc in (0, 2, 3) and err.count("error:") <= 1, (command, rc, err)
            if outside:
                line = _DOMAIN_LINE.fullmatch(err)
                assert rc == 2 and line and float(line[1]) in outside, (command, err)
            if rc == 2 or "outside the convergence region" in err:
                assert not out.exists(), (command, rc, err)
            for path in out.glob("*.json") if rc == 0 else ():
                text = path.read_text(encoding="utf-8")
                json.loads(text, parse_constant=_no_constant)
