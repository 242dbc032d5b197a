"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under '## Library example'"
    exec(compile(match.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out
