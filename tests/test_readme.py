"""The README's library quick start runs as written and gives the values
its comments state."""

import re
from pathlib import Path

from shufflesc import Tableau, s_projection

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_quick_start():
    (block,) = python_blocks()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert "# {(0,1), (2,0)}" in block
    assert namespace["t"] == Tableau(4, 3, {(0, 1), (2, 0)})
    assert "# 2: the diagonal needs 2 steps" in block
    assert namespace["reach"].depths[Tableau(2, 2, {(0, 0), (1, 1)})] == 2
    assert "# the antidiagonal tableau" in block
    assert s_projection(namespace["pair"]) == Tableau(2, 2, {(0, 1), (1, 0)})
