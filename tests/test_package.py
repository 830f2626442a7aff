"""The package's exported names and its import footprint."""

import re
import subprocess
import sys
from pathlib import Path

import dispersim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from dispersim import *", namespace)
    assert len(set(dispersim.__all__)) == len(dispersim.__all__)
    for name in dispersim.__all__:
        assert namespace[name] is getattr(dispersim, name)


def test_cli_start_up_imports_no_scipy(tmp_path):
    [block] = re.findall(r"```json\n(.*?)```", README.read_text("utf-8"), re.S)
    config = tmp_path / "config.json"
    config.write_text(block, encoding="utf-8")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dispersim.cli; "
        "from dispersim.config import load_config; load_config(sys.argv[2]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = Path(dispersim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(src), str(config)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
