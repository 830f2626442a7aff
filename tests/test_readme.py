"""The README's examples run, and what it names exists, against the current code."""

import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from dispersim import broadening_factor
from dispersim import config as config_module
from dispersim.cli import build_parser, main
from dispersim.experiments import SWEEP_CSV_HEADER, Stage

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_compensates(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()
    uncompensated = broadening_factor(namespace["tx"], namespace["rx"])
    compensated = broadening_factor(namespace["tx"], namespace["out"])
    assert [float(x) for x in printed] == [uncompensated, compensated]
    assert compensated < uncompensated


@pytest.mark.parametrize("command", ["region", "sweep-k", "scenario", "propagate"])
def test_config_example_runs(tmp_path, command):
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"```json\n(.*?)```", text, re.S)
    config = tmp_path / "config.json"
    config.write_text(block, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0


def test_every_config_key_and_exit_code_is_documented(monkeypatch):
    # parse_config checks each object's keys against the set it accepts;
    # a sinc and a gaussian config, with the region axis in object form,
    # visit every such check between them
    accepted, paths = set(), set()
    check_keys = config_module._check_keys

    def recording(section, allowed, path):
        accepted.update(allowed)
        paths.add(path)
        check_keys(section, allowed, path)

    monkeypatch.setattr(config_module, "_check_keys", recording)
    sinc = {
        "scenario": "every-key",
        "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6, "z_km": 130.0},
        "pcf": {"d_ps_nm_km": 2200.0},
        "dcf": {"d_ps_nm_km": -250.0, "quoted_path_km": 7.0},
        "compensator": {"alphas": [1.0], "k_max": 12, "target_broadening": 1.1},
        "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 16384},
        "sweep": {"xi": [0.5]},
        "region": {"bandwidths_hz": {"min": 1e9, "max": 1e10, "count": 4}},
        "output": {"dir": "out"},
    }
    gaussian = {
        "scenario": "every-key",
        "fiber": {"beta2_ps2_km": -21.0},
        "signal": {"pulse": "gaussian", "width_s": 1e-10},
    }
    for doc in (sinc, gaussian):
        config_module.parse_config(doc)
    sections = config_module._TOP_KEYS - {"scenario"}
    assert paths == sections | {"configuration", "region.bandwidths_hz"}
    text = README.read_text(encoding="utf-8")
    missing = [
        key for key in sorted(accepted)
        if not re.search(rf"[`\".]{re.escape(key)}[`\"]", text)
    ]
    assert not missing
    for code in (0, 2, 3):
        assert f"`{code}`" in text


def test_shell_commands_parse():
    text = README.read_text(encoding="utf-8")
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("dispersim ")
    ]
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line, comments=True)
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"the parser refuses {line!r}")


def _assigned_at_top_level(module) -> set:
    """The names a module's source binds by a top-level assignment."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return {
        name.id for target in targets for name in ast.walk(target)
        if isinstance(name, ast.Name)
    }


def test_named_objects_exist_and_are_public():
    # inline code spans only: the tests above check the fenced blocks. A
    # function or class must be defined in the module it is named by, and a
    # constant assigned at its top level, so no name is cited by an import path
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", text)
    names = [name for span in spans for name in re.findall(r"\bdispersim(?:\.\w+)+", span)]
    assert any(name.count(".") >= 2 for name in names)
    for name in names:
        _, module_name, *attributes = name.split(".")
        module = importlib.import_module(f"dispersim.{module_name}")
        obj = module
        for attribute in attributes:
            assert hasattr(obj, attribute), f"{name} does not exist"
            obj = getattr(obj, attribute)
        if attributes:
            home = getattr(module, attributes[0])
            if inspect.isfunction(home) or inspect.isclass(home):
                defined = home.__module__ == module.__name__
            else:
                defined = attributes[0] in _assigned_at_top_level(module)
            assert defined, f"{name} is not defined in {module.__name__}"
    private = [span for span in spans if re.search(r"(?<!\w)_\w", span)]
    assert not private, f"private names in the README: {private}"


def test_output_columns_are_the_stage_record():
    text = README.read_text(encoding="utf-8")
    [columns] = re.findall(r"^- `sweep\.csv`: `([^`]+)`", text, re.M)
    assert columns == SWEEP_CSV_HEADER
    [entry] = re.findall(r"^- `scenario\.json`:.*?(?=^- )", text, re.M | re.S)
    missing = [key for key in Stage._fields if f"`{key}`" not in entry]
    assert not missing, f"k_table keys the README does not name: {missing}"


def test_domain_table_is_the_config_table():
    # one row per numeric key, in the table's order, each domain as the
    # refusal line prints it
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|$", text, re.M)
    assert rows == [(key, str(domain)) for key, domain in config_module.DOMAINS.items()]
