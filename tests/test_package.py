"""The package's exported names, its import footprint and its entry points."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dispersim
from dispersim.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = Path(dispersim.__file__).resolve().parent.parent
#: what a start of the CLI runs: import it and parse a config
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import dispersim.cli; "
    "from dispersim.config import load_config; load_config(sys.argv[2]); "
)
#: modules a start must not load: the numeric ones, and ``dataclasses``, which
#: brings ``inspect``, ``ast``, ``dis`` and ``tokenize`` with it
NOT_AT_START_UP = {
    "dataclasses",
    "numpy",
    "dispersim.experiments",
    "dispersim.signal",
    "dispersim.fiber",
    "dispersim.compensator",
    "dispersim.iterative",
}
#: runs dispersim.cli.main(argv) where numpy cannot be imported
NUMPY_BLOCKED = (
    "import sys; sys.modules['numpy'] = None; sys.path.insert(0, sys.argv[1]); "
    "from dispersim.cli import main; sys.exit(main(sys.argv[2:]))"
)


def _probe(config, report: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE + report, str(SRC), str(config)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from dispersim import *", namespace)
    assert len(set(dispersim.__all__)) == len(dispersim.__all__)
    for name in dispersim.__all__:
        assert namespace[name] is getattr(dispersim, name)


def test_namespace_is_lazy_and_each_export_is_its_home_modules():
    assert set(dispersim.__all__) <= set(dir(dispersim))
    with pytest.raises(AttributeError, match="no_such_name"):
        dispersim.no_such_name
    for name, home in dispersim._HOMES.items():
        module = importlib.import_module(f"dispersim.{home}")
        assert getattr(dispersim, name) is getattr(module, name), name


def _unused_imports(path: Path) -> list:
    """The names ``path`` imports, by ``import`` or ``from ... import``, and never uses.

    A use is a name in the code, or a string equal to the name: a runner
    looked up by name, or a quoted annotation.
    """
    imported, used = [], set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):  # import a.b binds a
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return [name for name in imported if name not in used]


def test_each_module_imports_only_what_it_uses():
    # a name has one import path: its home; no module re-exports another's
    unused = {
        path.stem: names
        for path in sorted((SRC / "dispersim").glob("*.py"))
        if (names := _unused_imports(path))
    }
    assert unused == {}


def test_console_script_target_runs():
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    [scripts] = re.findall(r"^\[project\.scripts\]\n((?:[^\[\n].*\n|\n)*)", text, re.M)
    [(module, attr)] = re.findall(r'^dispersim = "([\w.]+):(\w+)"$', scripts, re.M)
    target = getattr(importlib.import_module(module), attr)
    assert target(["convert", "--d", "17"]) == 0


def test_cli_start_up_imports_no_scipy(tmp_path):
    [block] = re.findall(r"```json\n(.*?)```", README.read_text("utf-8"), re.S)
    config = tmp_path / "config.json"
    config.write_text(block, encoding="utf-8")
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _probe(config, report) == "[]\n"


SWEEP = {
    "scenario": "sweep",
    "fiber": {"beta2_ps2_km": -21.0},
    "pcf": {"d_ps_nm_km": 2200.0},
    "compensator": {"alphas": [0.5, 1.0], "k_max": 12},
    "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384},
    "sweep": {"xi": [0.5, 1.0, 2.0]},
}
SCENARIO = {
    "scenario": "scenario",
    "fiber": {"beta2_ps2_km": -21.0, "z_km": 130.0},
    "pcf": {"d_ps_nm_km": 2200.0},
    "dcf": {"d_ps_nm_km": -250.0, "quoted_path_km": 7.0},
    "compensator": {"alphas": [1.0], "k_max": 40},
    "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 65536},
}
PROPAGATE = {
    "scenario": "propagate",
    "fiber": {"d_ps_nm_km": 17.0, "z_km": 100.0},
    "pcf": {"d_ps_nm_km": 2200.0},
    "compensator": {"alphas": [1.0], "k_max": 12},
    "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 65536},
}


@pytest.mark.parametrize(
    "doc", [SWEEP, SCENARIO, PROPAGATE], ids=["sweep", "scenario", "propagate"]
)
def test_cli_start_up_imports_no_numeric_module(tmp_path, doc):
    # a config without a min/max/count range axis parses without numpy
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    report = f"print(sorted(sys.modules.keys() & {NOT_AT_START_UP!r}))"
    assert _probe(config, report) == "[]\n"


def _blocked(*argv, cwd):
    return subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED, str(SRC), *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def _lacking(z_km=None, pcf=True, signal="sinc"):
    """SWEEP with ``fiber.z_km`` if given, without its pcf unless ``pcf``, and
    with a sinc, a gaussian or no (None) signal section."""
    doc = {**SWEEP, "fiber": {"beta2_ps2_km": -21.0}}
    if z_km is not None:
        doc["fiber"]["z_km"] = z_km
    if not pcf:
        del doc["pcf"]
    if signal == "gaussian":
        doc["signal"] = {"pulse": "gaussian", "width_s": 1e-10, "n_samples": 1024}
    elif signal is None:
        del doc["signal"]
    return doc


#: (command, a config that lacks a part, the refusal), for every part of
#: every run command
LACKING = [
    ("region", _lacking(), "region.bandwidths_hz is required for the region command"),
    ("sweep-k", _lacking(pcf=False, signal=None),
     "pcf section is required for the sweep-k command"),
    ("sweep-k", _lacking(signal=None), "signal section is required"),
    ("sweep-k", _lacking(signal="gaussian"), "sweep-k runs on sinc pulses"),
    ("scenario", _lacking(pcf=False, signal=None),
     "fiber.z_km is required for the scenario command"),
    ("scenario", _lacking(130.0, pcf=False, signal=None),
     "pcf section is required for the scenario command"),
    ("scenario", _lacking(130.0, signal=None), "signal section is required"),
    ("scenario", _lacking(130.0, signal="gaussian"), "scenario runs on sinc pulses"),
    ("propagate", _lacking(signal=None),
     "fiber.z_km is required for the propagate command"),
    ("propagate", _lacking(100.0, signal=None), "signal section is required"),
]


def _windowed(pulse, width, n_samples, window_factor):
    """SWEEP with ``fiber.z_km``, a region axis and the given signal section."""
    width_key = "bandwidth_hz" if pulse == "sinc" else "width_s"
    signal = {"pulse": pulse, width_key: width, "n_samples": n_samples,
              "window_factor": window_factor}
    return {**SWEEP, "fiber": {"beta2_ps2_km": -21.0, "z_km": 100.0}, "signal": signal,
            "region": {"bandwidths_hz": [1e9, 3e9]}}


#: (command, a config whose pulse does not fit its window, the refusal), for
#: each window rule of base.check_window
WINDOW = [
    ("sweep-k", _windowed("sinc", 3e9, 1024, 4.0),
     "time window 2.667e-09 s is below the 8x guard margin for a 6.667e-10 s wide pulse"),
    ("scenario", _windowed("sinc", 3e9, 64, 64.0),
     "time step too coarse: pulse bandwidth exceeds the grid band"),
    ("propagate", _windowed("gaussian", 1e-10, 1024, 8.0),
     "time window 8.000e-10 s too small: need >= 16*t0"),
    ("propagate", _windowed("gaussian", 1e-10, 8, 64.0),
     "t0 = 1.000e-10 s under-resolved: need t0 >= 4*dt"),
]


_TABLE = ("time step too fine: cannot allocate the width metric's 129x524290 table of "
          "direct sums and 4096-point coarse transform (at most 67108864 values); "
          "use fewer samples")

#: (command, a config that passes the window rules but forms a grid quantity
#: out of range, the refusal): the width metric's table rule, for each
#: command that measures a sinc, and propagate's full-grid range rule
GRID = [
    ("sweep-k", _windowed("sinc", 3e9, 2**31, 64.0), _TABLE),
    ("scenario", _windowed("sinc", 3e9, 2**31, 64.0), _TABLE),
    ("propagate", _windowed("sinc", 3e9, 2**31, 64.0), _TABLE),
    ("propagate", _windowed("gaussian", 1e-153, 1024, 64.0),
     "(pi / dt_s)**2 is out of range: inf, not a normal double"),
]


def test_convert_region_help_and_refused_configs_run_without_numpy(tmp_path):
    proc = _blocked("convert", "--d", "17", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "-21.6826 ps^2/km" in proc.stdout
    proc = _blocked("--help", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "sweep-k" in proc.stdout

    doc = {**SWEEP, "region": {"bandwidths_hz": [1e9, 3e9, 10e9]}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    proc = _blocked("region", "--config", str(config), "--out", "blocked", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(["region", "--config", str(config), "--out", str(tmp_path / "ordinary")]) == 0
    for name in ("region.csv", "meta.json"):
        blocked, ordinary = (tmp_path / d / name for d in ("blocked", "ordinary"))
        assert blocked.read_bytes() == ordinary.read_bytes(), name

    # a refused config exits 2 before a numeric command loads numpy
    doc["compensator"] = {"alphas": [2.0]}
    config.write_text(json.dumps(doc), encoding="utf-8")
    proc = _blocked("sweep-k", "--config", str(config), "--out", "refused", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: compensator.alphas values must lie in (0, 1]\n"
    assert not (tmp_path / "refused").exists()

    # so does a config that lacks a part its command needs (cli.REQUIRED_PARTS);
    # where it can, each case also lacks the parts checked after the one it names
    for i, (command, doc, refusal) in enumerate(LACKING):
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = f"lacking-{i}"
        proc = _blocked(command, "--config", str(config), "--out", out, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, ""), (command, proc.stderr)
        assert proc.stderr == f"error: {refusal}\n"
        assert not (tmp_path / out).exists(), (command, refusal)

    # so does a pulse that does not fit its window, or whose grid forms a
    # table or a quantity out of range, which region does not build
    for i, (command, doc, refusal) in enumerate(WINDOW + GRID):
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = f"window-{i}"
        proc = _blocked(command, "--config", str(config), "--out", out, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, ""), (command, proc.stderr)
        assert proc.stderr == f"error: {refusal}\n"
        assert not (tmp_path / out).exists(), (command, refusal)
        proc = _blocked("region", "--config", str(config), "--out", out, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), refusal
