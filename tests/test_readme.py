"""The README's "Library" code block runs as written, on a generated c1."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(fixture_dir, capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    assert code.count('"data/c1.csv"') == 1
    code = code.replace('"data/c1.csv"', repr(str(fixture_dir / "c1.csv")))
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4
