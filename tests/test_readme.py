"""The README's Python blocks run as written and print what their comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.DOTALL | re.MULTILINE)


def _expected(block: str) -> list[str]:
    """The comment of each print line, up to its first double space."""
    return [comment.split("  ")[0] for comment in re.findall(r"^print\(.*?\s# (.*)$", block, re.MULTILINE)]


def test_the_readme_has_a_python_quickstart():
    assert BLOCKS and all(_expected(block) for block in BLOCKS)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_prints_its_comments(tmp_path, block):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    printed = run.stdout.splitlines()
    expected = _expected(block)
    assert len(printed) == len(expected), printed
    for line, want in zip(printed, expected):
        if want.endswith("…"):
            assert line.startswith(want[:-1]), (line, want)
        else:
            assert line == want
