"""The CI workflow's shell steps parse, and so do the scripts and configs in them.

Every ``python -`` heredoc compiles, and every JSON config heredoc is a
configuration that ``parse_config`` accepts or refuses by its range rule.
"""

import json
import re
import subprocess
from pathlib import Path

import pytest
import yaml

from dispersim.config import ConfigError, _unique_keys, parse_config

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
CONFIGS = [
    (f"{name}: config {i}", body)
    for name, script in STEPS
    for i, body in enumerate(_json_heredocs(script))
]


def test_workflow_has_run_steps_and_heredocs():
    assert len(STEPS) >= 5
    assert sum(len(_python_heredocs(script)) for _, script in STEPS) >= 5
    assert sum(len(_json_heredocs(script)) for _, script in STEPS) >= 5


@pytest.mark.parametrize("name, script", STEPS, ids=[name for name, _ in STEPS])
def test_run_script_parses(name, script):
    proc = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for body in _python_heredocs(script):
        compile(body, f"{WORKFLOW.name}: {name}", "exec")


@pytest.mark.parametrize("name, body", CONFIGS, ids=[name for name, _ in CONFIGS])
def test_config_heredoc_parses_or_fails_the_range_rule(name, body):
    # a step that expects exit 2 from the range rule would also read exit 2
    # and one error: line from a mistyped or repeated key
    try:
        parse_config(json.loads(body, object_pairs_hook=_unique_keys))
    except ConfigError as exc:
        assert "is out of range" in str(exc), f"{name}: {exc}"
