"""The CI workflow's shell steps parse, and so do the script and config in them.

The ``python -`` heredoc compiles, and the JSON config heredoc, on which
every run command of the runtime-only install must exit 0, is a
configuration that ``parse_config`` accepts and ``check_run`` passes for
each of those commands, on a grid where the width metric's evaluation grid
is coarser than its coarse grid.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from dispersim.base import check_window, width_grids
from dispersim.config import _unique_keys, check_run, parse_config

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def _run_steps() -> list:
    """(name, script) of every step of every job that has a ``run:`` script."""
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    return [
        (step.get("name", step["run"].splitlines()[0]), step["run"])
        for job in jobs.values()
        for step in job["steps"]
        if "run" in step
    ]


def _python_heredocs(script: str) -> list:
    """The bodies of the ``python - ... <<'EOF'`` heredocs of ``script``."""
    return re.findall(r"^\s*python -[^\n]*<<'EOF'\n(.*?)^EOF$", script, re.M | re.S)


def _json_heredocs(script: str) -> list:
    """The bodies of the ``cat > "$RUNNER_TEMP/*.json" <<'EOF'`` heredocs."""
    pattern = r"^\s*cat > \"\$RUNNER_TEMP/[^\"]*\.json\" <<'EOF'\n(.*?)^EOF$"
    return re.findall(pattern, script, re.M | re.S)


STEPS = _run_steps()


def test_workflow_has_run_steps_and_heredocs():
    # the smoke config of the runtime-only install and the oracle smoke's
    # verdict script; every other check is a tier-1 test
    assert len(STEPS) >= 5
    assert sum(len(_python_heredocs(script)) for _, script in STEPS) == 1
    assert sum(len(_json_heredocs(script)) for _, script in STEPS) == 1


@pytest.mark.parametrize("name, script", STEPS, ids=[name for name, _ in STEPS])
def test_run_script_parses(name, script):
    proc = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for body in _python_heredocs(script):
        compile(body, f"{WORKFLOW.name}: {name}", "exec")


def test_smoke_config_passes_the_range_rule(monkeypatch):
    # a mistyped or repeated key would fail every run command on it, and so
    # would any refusal the CLI makes before a run, which needs no numpy;
    # and its sinc's widths are measured on an evaluation grid coarser than
    # the coarse grid that bounds them, so the smoke runs the direct sums' rows
    [(script, body)] = [(s, body) for _, s in STEPS for body in _json_heredocs(s)]
    cfg = parse_config(json.loads(body, object_pairs_hook=_unique_keys))
    commands = re.search(r"for command in ([^;]+); do", script)[1].split()
    assert commands == ["region", "sweep-k", "scenario", "propagate"]
    monkeypatch.setitem(sys.modules, "numpy", None)
    for command in commands:
        check_run(cfg, command)
    h = check_window(cfg.pulse, cfg.pulse_width_s, cfg.n_samples, cfg.dt_s)
    m, m_e = width_grids(cfg.n_samples, h)
    assert m_e < m < cfg.n_samples
