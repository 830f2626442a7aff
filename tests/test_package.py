"""The package's exported names, its import footprint and its entry points."""

import ast
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dispersim
from dispersim import config
from dispersim.cli import main
from dispersim.config import parse_config

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


#: a region axis of each spacing, with the README's log axis
AXES = [
    {"min": 1e9, "max": 1e10, "count": 40, "spacing": "log"},
    {"min": 1e9, "max": 7.5e9, "count": 33, "spacing": "linear"},
]


@pytest.mark.parametrize(
    "doc",
    [SWEEP, SCENARIO, PROPAGATE, {**SWEEP, "region": {"bandwidths_hz": AXES[0]}}],
    ids=["sweep", "scenario", "propagate", "range-axis"],
)
def test_cli_start_up_imports_no_numeric_module(tmp_path, doc):
    # every config parses without numpy, a min/max/count range axis included
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


_TABLE = ("time step too fine: cannot allocate the width metric's 2000001x18 table of "
          "direct sums and 67108864-point coarse transform (at most 67108864 values); "
          "use fewer samples")

#: (command, a config that passes the window rules but whose width metric
#: would build too large a table, the refusal), for each command that
#: measures a sinc: at the top of the n_samples and window_factor domains
GRID = [
    (command, _windowed("sinc", 3e9, 2**30, 1e6), _TABLE)
    for command in ("sweep-k", "scenario", "propagate")
]

_FAR = {**_windowed("sinc", 3e9, 1024, 64.0), "compensator": {"alphas": [1.0]},
        "fiber": {"beta2_ps2_km": -21.0, "z_km": 5000.0}}
#: (command, a config whose compensated span, xi 37, lies outside the
#: convergence region, the refusal), for each command that compensates a span
DIVERGING = [
    (command, _FAR,
     "(B=3e+09 Hz, z=5e+06 m, alpha=1) lies outside the convergence region")
    for command in ("scenario", "propagate")
]


def test_convert_region_help_and_refused_configs_run_without_numpy(tmp_path):
    proc = _blocked("convert", "--d", "17", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "-21.6826 ps^2/km" in proc.stdout
    proc = _blocked("--help", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "sweep-k" in proc.stdout

    # region runs on a list axis and on a range axis of either spacing
    config = tmp_path / "config.json"
    for i, axis in enumerate([[1e9, 3e9, 10e9], *AXES]):
        doc = {**SWEEP, "region": {"bandwidths_hz": axis}}
        config.write_text(json.dumps(doc), encoding="utf-8")
        proc = _blocked("region", "--config", str(config), "--out", f"blocked-{i}",
                        cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        ordinary = str(tmp_path / f"ordinary-{i}")
        assert main(["region", "--config", str(config), "--out", ordinary]) == 0
        for name in ("region.csv", "meta.json"):
            blocked, ordinary = (tmp_path / f"{d}-{i}" / name for d in ("blocked", "ordinary"))
            assert blocked.read_bytes() == ordinary.read_bytes(), name

    # a refused config exits 2 before a numeric command loads numpy
    doc["compensator"] = {"alphas": [2.0]}
    config.write_text(json.dumps(doc), encoding="utf-8")
    proc = _blocked("sweep-k", "--config", str(config), "--out", "refused", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: compensator.alphas[0] = 2.0 is outside its domain (0, 1]\n"
    assert not (tmp_path / "refused").exists()

    # so does a config that lacks a part its command needs (config.REQUIRED_PARTS);
    # where it can, each case also lacks the parts checked after the one it names
    for i, (command, doc, refusal) in enumerate(LACKING):
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = f"lacking-{i}"
        proc = _blocked(command, "--config", str(config), "--out", out, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, ""), (command, proc.stderr)
        assert proc.stderr == f"error: {refusal}\n"
        assert not (tmp_path / out).exists(), (command, refusal)

    # so does a pulse that does not fit its window, or whose width metric
    # would build too large a table, which region does not build; a span
    # outside the convergence region, whose boundary region reports, exits 3
    refused = [(2, *case) for case in WINDOW + GRID] + [(3, *case) for case in DIVERGING]
    for i, (code, command, doc, refusal) in enumerate(refused):
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = f"window-{i}"
        proc = _blocked(command, "--config", str(config), "--out", out, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (code, ""), (command, proc.stderr)
        assert proc.stderr == f"error: {refusal}\n"
        assert not (tmp_path / out).exists(), (command, refusal)
        proc = _blocked("region", "--config", str(config), "--out", out, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), refusal


#: a config inside every domain that region runs, with a dcf and no pcf, so
#: that any dispersion of the domains, of either sign or zero, parses
BOUNDS_DOC = {
    "scenario": "bounds",
    "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6, "z_km": 130.0},
    "dcf": {"d_ps_nm_km": -250.0, "quoted_path_km": 7.0},
    "compensator": {"alphas": [1.0], "k_max": 12, "target_broadening": 1.1},
    "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384,
               "window_factor": 64.0},
    "sweep": {"xi": [1.0]},
    "region": {"bandwidths_hz": [3e9]},
}
#: domain key -> (its section in BOUNDS_DOC, the name a refusal gives it)
SITES = {
    "beta2_ps2_km": ("fiber", "fiber.beta2_ps2_km"),
    "d_ps_nm_km": ("fiber", "fiber.d_ps_nm_km"),
    "lambda0_m": ("fiber", "fiber.lambda0_m"),
    "z_km": ("fiber", "fiber.z_km"),
    "quoted_path_km": ("dcf", "dcf.quoted_path_km"),
    "alphas": ("compensator", "compensator.alphas[0]"),
    "k_max": ("compensator", "compensator.k_max"),
    "k_list": ("compensator", "compensator.k_list[0]"),
    "target_broadening": ("compensator", "compensator.target_broadening"),
    "bandwidth_hz": ("signal", "signal.bandwidth_hz"),
    "width_s": ("signal", "signal.width_s"),
    "n_samples": ("signal", "signal.n_samples"),
    "window_factor": ("signal", "signal.window_factor"),
    "xi": ("sweep", "sweep.xi[0]"),
    "bandwidths_hz": ("region", "region.bandwidths_hz[0]"),
    "count": ("region", "region.bandwidths_hz.count"),
}
#: convert flag -> the key whose domain it takes
FLAGS = {"--d": "d_ps_nm_km", "--beta2": "beta2_ps2_km", "--lambda": "lambda0_m"}
#: runs ``main`` on each argv read from stdin where numpy cannot be imported,
#: and prints the exit codes and stderr
BOUNDS_DRIVER = (
    "import contextlib, io, json, sys; sys.modules['numpy'] = None; "
    "sys.path.insert(0, sys.argv[1]); from dispersim.cli import main\n"
    "results = []\n"
    "for argv in json.load(sys.stdin):\n"
    "    err = io.StringIO()\n"
    "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
    "        results.append([main(argv), err.getvalue()])\n"
    "print(json.dumps(results))\n"
)


def _with(key, value):
    """BOUNDS_DOC with ``key`` set to ``value``, and the refusal's name for it."""
    doc = json.loads(json.dumps(BOUNDS_DOC))
    section, name = SITES[key]
    body = doc[section]
    if key == "d_ps_nm_km":
        del body["beta2_ps2_km"]
    elif key == "width_s":
        body["pulse"] = "gaussian"
        del body["bandwidth_hz"]
    elif key == "k_list":
        del body["k_max"]
    if key == "count":
        body["bandwidths_hz"] = {"min": 1e9, "max": 1e10, "count": value}
    else:
        body[key] = [value] if name.endswith("[0]") else value
    return doc, name


def _bounds(domain):
    """(the values on the bounds of ``domain``, the next values outside it)."""
    if isinstance(domain.hi, int):
        inside, outside = [domain.lo, domain.hi], [domain.lo - 1, domain.hi + 1]
    else:
        inside = [domain.lo or math.ulp(0.0), domain.hi]
        below = math.nextafter(domain.lo, -math.inf) if domain.lo else 0.0
        outside = [below, math.nextafter(domain.hi, math.inf)]
    if domain.signed:
        inside, outside = inside + [-v for v in inside], outside + [-v for v in outside]
    return inside + [0] * domain.zero, outside


def test_every_domain_bound_runs_and_the_next_value_out_exits_2(tmp_path):
    # at each bound of each key's domain, region runs as on BOUNDS_DOC (and
    # convert as on its defaults); one double or integer past it, each exits
    # 2 with the line that names the key, the value and the domain, without
    # numpy and before the output directory exists. region's output of 10**6
    # rows is not written: that count's top is parsed instead
    assert set(SITES) == set(config.DOMAINS)
    top = parse_config(_with("count", config.DOMAINS["count"].hi)[0])
    assert len(top.region_bandwidths_hz) == config.DOMAINS["count"].hi
    cases = [(["convert", "--d", "17"], 0, ""), (["region", "--config", "mid.json"], 0, "")]
    (tmp_path / "mid.json").write_text(json.dumps(BOUNDS_DOC), encoding="utf-8")
    for key, domain in config.DOMAINS.items():
        inside, outside = _bounds(domain)
        for code, values in ((0, inside), (2, outside)):
            for value in values:
                if key == "count" and value == domain.hi:
                    continue
                doc, name = _with(key, value)
                path = f"{len(cases)}.json"
                (tmp_path / path).write_text(json.dumps(doc), encoding="utf-8")
                line = f"error: {name} = {value!r} is outside its domain {domain}\n"
                cases.append((["region", "--config", path], code, line * (code != 0)))
    for flag, key in FLAGS.items():
        inside, outside = _bounds(config.DOMAINS[key])
        given = ["--d=17"] if flag == "--lambda" else []
        for code, values in ((0, inside), (2, outside)):
            for value in values:
                line = f"error: {flag} = {float(value)!r} is outside its domain "
                line += f"{config.DOMAINS[key]}\n"
                argv = ["convert", *given, f"{flag}={value!r}"]
                cases.append((argv, code, line * (code != 0)))
    for i, (argv, _, _) in enumerate(cases):
        if argv[0] == "region":
            argv += ["--out", f"out-{i}"]
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDS_DRIVER, str(SRC)],
        input=json.dumps([argv for argv, _, _ in cases]),
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for i, ((argv, code, line), got) in enumerate(zip(cases, results, strict=True)):
        assert got == [code, line], argv
        if argv[0] == "region":
            written = sorted(p.name for p in (tmp_path / f"out-{i}").glob("*"))
            assert written == (["meta.json", "region.csv"] if code == 0 else []), argv
    assert (
        "error: fiber.z_km = 1000000.0000000001 is outside its domain "
        "0 or [1e-06, 1e+06] km\n"
    ) in [line for _, _, line in cases]
