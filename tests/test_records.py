"""The frozen result records: construction, immutability, equality, hashing
and repr of the nine classes the package returns and compares.

The expectations were recorded when the records were standard-library
dataclasses, so they pin that behaviour: fields in annotation order, a
constructor by position or keyword that runs `__post_init__`, assignment and
deletion refused with AttributeError, `==` only within one class, the hash
of the tuple of the fields, and the `Name(field=value, ...)` repr unless the
class writes its own.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from shufflesc import (
    ConjectureReport,
    Dfa,
    Nfa,
    ReachResult,
    ScResult,
    SetVector,
    Tableau,
    Transformation,
    UPair,
    WitnessReport,
    reachable_tableaux,
)
from shufflesc.conjecture import WitnessCase

SRC = Path(__file__).resolve().parent.parent / "src"

F = frozenset
REPORT_VALUES = (2, 2, 1, 6, 6, (), (), {0: 1, 1: 2, 2: 3}, 2, "holds")
CASE_VALUES = ("full", "k=2", 2, 2, None, True)

# per class: the field names in order, and the values of an instance built
# by the generated constructor (the fields are exactly these arguments)
RECORDS = {
    Tableau: (("m", "n", "cells"), (2, 3, F({(0, 0), (1, 2)}))),
    ReachResult: (("m", "n", "table", "complete"), (1, 2, bytearray(b"\0\1\0\2"), True)),
    ScResult: (
        ("m", "n", "value", "maximizers", "reachable_count"),
        (2, 2, 6, ((F({1}), F({1})),), 6),
    ),
    ConjectureReport: (
        (
            "m",
            "n",
            "conjecture",
            "reachable_count",
            "valid_count",
            "missing",
            "dense_unreached",
            "depth_histogram",
            "saturation_depth",
            "status",
        ),
        REPORT_VALUES,
    ),
    WitnessCase: (
        ("kind", "detail", "grade", "expected_grade", "depth", "projection_ok"),
        CASE_VALUES,
    ),
    WitnessReport: (("m", "n", "cases"), (2, 2, (WitnessCase(*CASE_VALUES),))),
    UPair: (("left", "right"), (SetVector.base(2), SetVector.base(3))),
    Dfa: (
        ("state_count", "alphabet", "initial", "finals", "table"),
        (2, ("a", "b"), 0, F({1}), ((1, 0), (0, 1))),
    ),
    Nfa: (
        ("state_count", "alphabet", "initials", "finals", "table"),
        (2, ("a", "b"), F({0}), F({1}), ((3, 0), (0, 1))),
    ),
}
CLASSES = list(RECORDS)


def instance(cls):
    return cls(*RECORDS[cls][1])


def every_instance():
    return [instance(cls) for cls in CLASSES]


def field_names(obj):
    return RECORDS[type(obj)][0]


def field_values(obj):
    return tuple(getattr(obj, name) for name in field_names(obj))


class TestConstruction:
    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_positional_and_keyword(self, cls):
        names, values = RECORDS[cls]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
        assert field_values(by_position) == values
        assert by_keyword == by_position == mixed
        assert field_values(by_keyword) == field_values(mixed) == values

    def test_missing_argument_refused(self):
        with pytest.raises(TypeError, match="cells"):
            Tableau(1, 2)
        with pytest.raises(TypeError, match="right"):
            UPair(left=SetVector.base(2))

    def test_extra_argument_refused(self):
        with pytest.raises(TypeError):
            Tableau(1, 2, {(0, 0)}, 4)
        with pytest.raises(TypeError, match="'x'"):
            Tableau(1, 2, {(0, 0)}, x=3)
        with pytest.raises(TypeError, match="'m'"):
            Tableau(1, 2, {(0, 0)}, m=3)


class TestPostInit:
    def test_tableau_cell_out_of_range(self):
        with pytest.raises(ValueError, match="cell out of 2x2 range"):
            Tableau(2, 2, {(5, 5)})
        with pytest.raises(ValueError, match="cell out of 2x2 range"):
            Tableau(m=2, n=2, cells={(0, -1)})

    def test_tableau_cells_normalised(self):
        t = Tableau(2, 3, [[1, 2], (0, 0)])
        assert t.cells == F({(0, 0), (1, 2)})
        assert type(t.cells) is frozenset
        assert t == instance(Tableau)

    def test_upair_grades_differ(self):
        with pytest.raises(ValueError, match="grades differ"):
            UPair(SetVector([{2}, {1}]), SetVector([{1, 2, 3, 4}, set()]))

    def test_upair_side_not_valid(self):
        with pytest.raises(ValueError, match="not 1-Lvalid"):
            UPair(left=SetVector([{1}, {2}]), right=SetVector([{1}, {2}]))


class TestIntegerStates:
    """The constructors hold the JSON loaders' rule: a state number, cell
    index or element that is not an int is refused by name, not truncated
    or kept."""

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: Transformation([0.5, 1]), "0.5"),
            (lambda: Tableau(2, 3, {(0.9, 0)}), "0.9"),
            (lambda: Tableau(2.0, 3, set()), "2.0"),
            (lambda: SetVector([[1.5]]), "1.5"),
            (lambda: Dfa(2, ("a",), 0, [True], [[1], [0]]), "True"),
            (lambda: Dfa(2, ("a",), 0.0, [1], [[1], [0]]), "0.0"),
            (lambda: Dfa(2.0, ("a",), 0, [1], [[1], [0]]), "2.0"),
            (lambda: Nfa(2, ("a",), [False], [True], [[2], [1]]), "False"),
            (lambda: Nfa(2, ("a",), [0], ["1"], [[2], [1]]), "'1'"),
        ],
        ids=[
            "transformation-image", "tableau-cell", "tableau-side", "setvector-element",
            "dfa-final", "dfa-initial", "dfa-states", "nfa-initial", "nfa-final",
        ],
    )
    def test_non_integer_refused(self, build, bad):
        with pytest.raises(ValueError, match=rf"^{re.escape(bad)} is not an integer$"):
            build()

    @pytest.mark.parametrize("m, n", [(-1, 2), (0, 0), (2, 0), (0, 3)])
    def test_tableau_side_below_one(self, m, n):
        with pytest.raises(ValueError, match="^m and n must be at least 1$"):
            Tableau(m, n, set())
        with pytest.raises(ValueError, match="^m and n must be at least 1$"):
            Tableau.from_json({"m": m, "n": n, "cells": []})


class TestFrozen:
    @pytest.mark.parametrize("obj", every_instance(), ids=lambda o: type(o).__name__)
    def test_assignment_refused(self, obj):
        for name in field_names(obj):
            before = getattr(obj, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(obj, name, 0)
            assert getattr(obj, name) is before

    @pytest.mark.parametrize("obj", every_instance(), ids=lambda o: type(o).__name__)
    def test_deletion_refused(self, obj):
        for name in field_names(obj):
            before = getattr(obj, name)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(obj, name)
            assert getattr(obj, name) is before

    def test_new_attribute_refused(self):
        t = instance(Tableau)
        with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
            t.extra = 1
        assert not hasattr(t, "extra")


class TestEquality:
    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_equal_over_the_fields(self, cls):
        values = RECORDS[cls][1]
        a, b = cls(*values), cls(*values)
        assert a is not b
        assert a == b and not a != b

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_not_equal_to_a_tuple_of_the_fields(self, cls):
        a = instance(cls)
        values = field_values(a)
        assert a != values and not a == values
        assert values != a and not values == a

    def test_one_field_differs(self):
        assert Tableau(2, 3, {(0, 0)}) != instance(Tableau)
        assert ScResult(2, 2, 6, (), 6) != instance(ScResult)
        case = WitnessCase("full", "k=2", 2, 2, 2, True)
        assert case != instance(WitnessCase)

    def test_other_class_with_equal_field_values(self):
        # WitnessReport and Tableau both hold (m, n, a third value)
        t = Tableau(2, 2, F())
        report = WitnessReport(2, 2, F())
        assert field_values(t) == field_values(report)
        assert t != report and report != t

    def test_automata_equal_over_the_fields(self):
        # the alphabet, the state sets and the rows are frozen on the way in
        assert instance(Dfa) == Dfa(2, "ab", 0, [1], [[1, 0], [0, 1]])
        assert instance(Dfa) != Dfa(2, "ab", 0, {0}, ((1, 0), (0, 1)))
        assert instance(Nfa) == Nfa(2, "ab", [0], [1], [[3, 0], [0, 1]])
        assert instance(Nfa) != Nfa(2, "ab", {0, 1}, {1}, ((3, 0), (0, 1)))
        # the delta cached on first use is no field
        built = instance(Dfa)
        assert built.delta == {(0, "a"): 1, (1, "a"): 0, (0, "b"): 0, (1, "b"): 1}
        assert "delta" in vars(built) and built == instance(Dfa)


class TestHash:
    @pytest.mark.parametrize(
        "cls", [Tableau, ScResult, WitnessCase, WitnessReport, UPair], ids=lambda c: c.__name__
    )
    def test_hash_of_the_field_tuple(self, cls):
        obj = instance(cls)
        assert hash(obj) == hash(field_values(obj))
        assert hash(obj) == hash(instance(cls))

    def test_tableau_hash(self):
        t = Tableau(3, 3, {(0, 0), (2, 1)})
        assert hash(t) == hash((t.m, t.n, t.cells))
        assert hash(Tableau.from_mask(3, 3, t.mask)) == hash(t)

    @pytest.mark.parametrize("cls", [ConjectureReport], ids=lambda c: c.__name__)
    def test_dict_field_is_unhashable(self, cls):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(instance(cls))

    def test_table_field_is_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'bytearray'"):
            hash(instance(ReachResult))

    @pytest.mark.parametrize("cls", [Dfa, Nfa], ids=lambda c: c.__name__)
    def test_automata_unhashable(self, cls):
        assert cls.__hash__ is None
        obj = instance(cls)
        with pytest.raises(TypeError, match=f"unhashable type: '{cls.__name__}'"):
            hash(obj)

    def test_set_of_tableaux_iterates_as_the_field_tuples(self):
        # a set's order is fixed by the hashes, so a set of tableaux lists
        # them in the order of the set of their field tuples
        masks = [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27]
        tableaux = [Tableau.from_mask(3, 3, mask) for mask in masks]
        as_tuples = [(t.m, t.n, t.cells) for t in tableaux]
        assert [(t.m, t.n, t.cells) for t in set(tableaux)] == list(set(as_tuples))


class TestRepr:
    def test_sc_result(self):
        assert repr(instance(ScResult)) == (
            "ScResult(m=2, n=2, value=6, maximizers=((frozenset({1}), frozenset({1})),),"
            " reachable_count=6)"
        )

    def test_witness_case(self):
        assert repr(instance(WitnessCase)) == (
            "WitnessCase(kind='full', detail='k=2', grade=2, expected_grade=2, depth=None,"
            " projection_ok=True)"
        )

    def test_witness_report(self):
        assert repr(instance(WitnessReport)) == (
            "WitnessReport(m=2, n=2, cases=(WitnessCase(kind='full', detail='k=2', grade=2,"
            " expected_grade=2, depth=None, projection_ok=True),))"
        )

    def test_conjecture_report(self):
        assert repr(instance(ConjectureReport)) == (
            "ConjectureReport(m=2, n=2, conjecture=1, reachable_count=6, valid_count=6,"
            " missing=(), dense_unreached=(), depth_histogram={0: 1, 1: 2, 2: 3},"
            " saturation_depth=2, status='holds')"
        )

    def test_reach_result(self):
        # its own repr: the counts, not the 2^(mn) bytes of the table
        assert repr(instance(ReachResult)) == (
            "ReachResult(1, 2, count=2, depth_histogram={0: 1, 1: 1}, complete=True)"
        )
        assert repr(reachable_tableaux(3, 4)) == (
            "ReachResult(3, 4, count=3392,"
            " depth_histogram={0: 1, 1: 11, 2: 398, 3: 2684, 4: 298}, complete=True)"
        )

    def test_automata(self):
        assert repr(instance(Dfa)) == (
            "Dfa(state_count=2, alphabet=('a', 'b'), initial=0, finals=frozenset({1}),"
            " table=((1, 0), (0, 1)))"
        )
        assert repr(instance(Nfa)) == (
            "Nfa(state_count=2, alphabet=('a', 'b'), initials=frozenset({0}),"
            " finals=frozenset({1}), table=((3, 0), (0, 1)))"
        )

    def test_own_repr_wins(self):
        assert repr(instance(Tableau)) == "Tableau(2, 3, [(0, 0), (1, 2)])"
        assert repr(instance(UPair)) == "UPair([{1},{}], [{1},{},{}])"


class TestCachedProperty:
    def test_reach_depths(self):
        reach = reachable_tableaux(2, 2)
        depths = reach.depths
        assert reach.depths is depths
        assert depths[Tableau(2, 2, {(0, 0)})] == 0
        assert len(depths) == reach.count

    def test_automaton_delta_built_once(self):
        built = instance(Nfa)
        assert "delta" not in vars(built)
        assert built.delta is built.delta
        assert built.delta == {(0, "a"): F({0, 1}), (1, "b"): F({0})}


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps the host's site-packages .pth files out of the interpreter,
    # so only the package's own imports are seen
    code = (
        "import sys\n"
        "import shufflesc, shufflesc.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
