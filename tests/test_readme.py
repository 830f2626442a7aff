"""The README's library example runs against the current API."""

import re
from pathlib import Path

from dispersim import broadening_factor

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
