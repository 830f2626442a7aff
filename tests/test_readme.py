"""The README's library example and configuration run against the current code."""

import re
from pathlib import Path

import pytest

from dispersim import broadening_factor
from dispersim.cli import main

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
