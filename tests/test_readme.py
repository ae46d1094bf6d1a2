"""The README's Python examples run against the current API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, capsys):
    # each block runs on its own, in a fresh namespace, and prints
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out
