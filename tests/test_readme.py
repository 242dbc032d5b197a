"""The README matches the package: its examples run and its API list is ``__all__``."""

import re
import typing
from pathlib import Path

import energymimo as em
from energymimo.config import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.S | re.M)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    match = re.search(r"^```python\n(.*?)^```", _section("Library example"), re.S | re.M)
    assert match, "README has no python block under '## Library example'"
    exec(compile(match.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_config_example_loads(tmp_path):
    match = re.search(r"^```ini\n(.*?)^```", _section("CLI"), re.S | re.M)
    assert match, "README has no ini block under '## CLI'"
    path = tmp_path / "exp.cfg"
    path.write_text(match.group(1), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.scenario.m_antennas == 32 and cfg.realizations == 200


def test_readme_public_api_lists_all():
    section = _section("Public API")
    # The names are the bare identifiers of the bulleted list; module paths hold dots.
    listed = re.findall(r"`(\w+)`", section[section.index("\n- "):])
    assert sorted(listed) == sorted(em.__all__)


def test_public_annotations_resolve():
    for name in em.__all__:
        obj = getattr(em, name)
        typing.get_type_hints(obj)
        if not isinstance(obj, type):
            continue
        for member in vars(obj).values():
            if isinstance(member, property):
                member = member.fget
            if callable(member):
                typing.get_type_hints(member)
