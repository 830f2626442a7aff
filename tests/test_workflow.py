"""The CI workflow's shell steps parse, and so do the scripts and configs in them.

Every ``python -`` heredoc compiles and every JSON config heredoc loads.
"""

import json
import re
import subprocess
from pathlib import Path

import pytest
import yaml

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
    assert len(STEPS) >= 5
    assert sum(len(_python_heredocs(script)) for _, script in STEPS) >= 5
    assert sum(len(_json_heredocs(script)) for _, script in STEPS) >= 5


@pytest.mark.parametrize("name, script", STEPS, ids=[name for name, _ in STEPS])
def test_run_script_parses(name, script):
    proc = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for body in _python_heredocs(script):
        compile(body, f"{WORKFLOW.name}: {name}", "exec")
    for body in _json_heredocs(script):
        json.loads(body)
