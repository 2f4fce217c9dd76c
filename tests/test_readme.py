"""The README's library quick start runs as written and gives the values
its comments state, and every dotted name the README cites resolves."""

import importlib
import re
from pathlib import Path

import pytest

import shufflesc
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


# spans that look like dotted names but are not: the CSV text of a cell
NOT_NAMES = {"i.j"}
MODULES = ("automata", "cli", "conjecture", "enumeration", "errors", "monster", "upair")


def cited_names():
    """The dotted names the README cites in backticks, less the files of
    the repo (`BENCH_29.json`) and `NOT_NAMES`."""
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    return sorted({s for s in spans if s not in NOT_NAMES and not (README.parent / s).exists()})


def resolve(dotted):
    """What a dotted name stands for: its first part is `shufflesc`, a name
    in the package or one of its modules, or a module of the standard
    library; each further part is an attribute, or a field of a record,
    which counts through the class's `__annotations__`."""
    first, *attrs = dotted.split(".")
    modules = [shufflesc] + [importlib.import_module(f"shufflesc.{m}") for m in MODULES]
    if first == "shufflesc":
        obj = shufflesc
    else:
        owner = next((m for m in modules if hasattr(m, first)), None)
        obj = getattr(owner, first) if owner else importlib.import_module(first)
    for attr in attrs:
        fields = vars(obj).get("__annotations__", {}) if isinstance(obj, type) else {}
        obj = fields[attr] if attr in fields else getattr(obj, attr)
    return obj


def test_cited_names_resolve():
    names = cited_names()
    assert {"monster.mask_lines", "ReachResult.level", "ReachResult.table"} <= set(names)
    unresolved = []
    for name in names:
        try:
            resolve(name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []


def test_resolve_refuses_what_is_not_there():
    assert resolve("ReachResult.table") == "bytearray"  # a field, by its annotation
    assert resolve("shufflesc.monster.mask_lines") is shufflesc.monster.mask_lines
    for name in ("ReachResult.tables", "monster.masklines", "nosuchmodule.name"):
        with pytest.raises((AttributeError, ImportError)):
            resolve(name)
