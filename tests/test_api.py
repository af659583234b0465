"""The public name list of the package."""

import re
import types
from pathlib import Path

import heatinv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_each_public_name_once():
    public = {name for name, value in vars(heatinv).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(heatinv.__all__) == len(set(heatinv.__all__))
    assert set(heatinv.__all__) == public


def test_readme_names_every_public_name():
    # in code: a fenced block or a `span`, so the word "Mode" in prose does not count
    text = README.read_text()
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    code = " ".join(re.findall(r"```.*?```", text, flags=re.S) + re.findall(r"`([^`\n]+)`", prose))
    assert [name for name in heatinv.__all__ if not re.search(rf"\b{name}\b", code)] == []


def test_readme_library_example_runs(capsys):
    # the fenced python blocks under "## Library example", in order and in one
    # namespace, so that a documented import path cannot go stale
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[-2:] == ["6001 1.0 16", "1"]
