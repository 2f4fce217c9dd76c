import re
import sys
from itertools import permutations, product

import pytest

from shufflesc import (
    MonsterLetter,
    SizeGuardError,
    Tableau,
    Transformation,
    distinguishing_letters,
    f_bound,
    is_valid_tableau,
    reachable_tableaux,
    state_complexity_shuffle,
    tableau_step,
)
from shufflesc import automata, monster
from shufflesc.automata import moore_refine
from shufflesc import enumeration as en
from shufflesc.conjecture import (
    check_conjecture1,
    check_conjecture2,
    permutation_min_grade,
    verify_witnesses,
)
from shufflesc.enumeration import lower_bound_ie
from shufflesc.monster import (
    ReachResult,
    _expand_mask,
    _final_pair_classes,
    all_valid_tableaux,
    mask_lines,
    monster_dfa,
    reachable_table,
    valid_masks,
)
from shufflesc.upair import (
    Packing,
    SetVector,
    enumerate_dense,
    graded_level,
    is_lvalid,
    is_rvalid,
    mirror,
    mirror_part,
    p_of_path,
    pair_of_settableau,
    witness_full,
)


def T(m, n, cells):
    return Tableau(m, n, cells)


def all_letters(m, n):
    return [
        MonsterLetter(Transformation(f), Transformation(g))
        for f in product(range(m), repeat=m)
        for g in product(range(n), repeat=n)
    ]


def letter_rows(masks, m, n):
    """Each mask's successor masks under every letter, in `all_letters`
    order: the images of its row lines under f merged with the images of
    its column lines under g, both read through `mask_lines`."""
    lines = mask_lines(m, n)
    fs = [[lines.row_shifts[t] for t in f] for f in product(range(m), repeat=m)]
    gs = list(product(range(n), repeat=n))

    def images(occupied, placements):
        out = []
        for place in placements:
            acc = 0
            for k, s in occupied:
                acc |= s << place[k]
            out.append(acc)
        return out

    return [
        tuple(rv | cv for rv in images(lines.rows(mask), fs) for cv in images(lines.cols(mask), gs))
        for mask in masks
    ]


def reference_depths(m, n, depth_limit=None):
    """The mask BFS as it was before the search ran on orbits: every new
    tableau of a level is expanded, and each gets its depth when first
    found, in a dict.  Stops at f(m, n) tableaux, as the library does.
    Returns the dict {mask: depth} and whether the search is complete."""
    bound = f_bound(m, n)
    depths = {1: 0}
    frontier = [1]
    depth = 0
    complete = True
    while frontier and len(depths) < bound:
        if depth_limit is not None and depth >= depth_limit:
            complete = False
            break
        depth += 1
        nxt = []
        for mask in frontier:
            row_variants, col_variants = _expand_mask(mask, m, n)
            for rv in row_variants:
                for cv in col_variants:
                    s = rv | cv
                    if s not in depths:
                        depths[s] = depth
                        nxt.append(s)
            if len(depths) == bound:
                break
        frontier = sorted(nxt)
    return depths, complete


def reference_reach(m, n, depth_limit=None):
    """`reference_depths` as a `ReachResult`, its depth table written from
    the dict."""
    depths, complete = reference_depths(m, n, depth_limit)
    table = bytearray(1 << (m * n))
    for mask, d in depths.items():
        table[mask] = d + 1
    return ReachResult(m, n, table, complete)


def relabellings(m, n):
    """Every (s, t): permutations of the rows and of the columns fixing 0."""
    for s in permutations(range(1, m)):
        for t in permutations(range(1, n)):
            yield (0, *s), (0, *t)


def naive_final_pair_classes(m, n, letters=None):
    """Class counts straight from the definition: the tableaux reachable
    from {(0, 0)} under every whole-grid letter, by tableau_step, then plain
    Moore refinement (every state, every letter, every round) for each pair
    of nonempty final sets, in bitmask order.  Also returns the reachable
    count.  Given `letters`, the reach still takes every letter, but the
    refinement takes only those."""
    every = all_letters(m, n)
    states = [T(m, n, {(0, 0)})]
    index = {states[0]: 0}
    succ = []
    for t in states:  # the list grows while it is walked
        row = []
        for a in every:
            u = tableau_step(t, a)
            if u not in index:
                index[u] = len(states)
                states.append(u)
            row.append(index[u])
        succ.append(row)
    if letters is not None:
        columns = [every.index(a) for a in letters]
        succ = [[row[k] for k in columns] for row in succ]
    out = []
    for b1 in range(1, 1 << m):
        for b2 in range(1, 1 << n):
            f1 = frozenset(i for i in range(m) if b1 >> i & 1)
            f2 = frozenset(j for j in range(n) if b2 >> j & 1)
            cls = [any(i in f1 and j in f2 for i, j in t.cells) for t in states]
            while True:
                ids = {}
                new = [
                    ids.setdefault((c,) + tuple(map(cls.__getitem__, row)), len(ids))
                    for c, row in zip(cls, succ)
                ]
                if len(ids) == len(set(cls)):
                    break
                cls = new
            out.append(((f1, f2), len(set(cls))))
    return out, len(states)


class TestTableau:
    def test_mask_roundtrip(self):
        t = T(3, 4, {(0, 1), (2, 3)})
        assert Tableau.from_mask(3, 4, t.mask) == t

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            T(2, 2, {(2, 0)})

    def test_from_mask_matches_constructor(self):
        for mask in range(1 << 6):
            cells = {(p // 3, p % 3) for p in range(6) if mask >> p & 1}
            t = Tableau.from_mask(2, 3, mask)
            assert t == T(2, 3, cells) and hash(t) == hash(T(2, 3, cells))
            assert t.mask == mask
        for mask in (-1, 1 << 6):
            with pytest.raises(ValueError, match="out of 2x3 range"):
                Tableau.from_mask(2, 3, mask)

    @pytest.mark.parametrize("mask", [True, 1.0])
    def test_from_mask_non_integer_mask_refused(self, mask):
        # a bool mask was read as 1, a float one gave a TypeError from >>
        with pytest.raises(ValueError, match=f"^{mask!r} is not an integer$"):
            Tableau.from_mask(2, 2, mask)

    def test_render(self):
        t = T(2, 2, {(0, 0), (1, 1)})
        assert t.render() == "×.\n.×"

    def test_json(self):
        t = T(2, 3, {(0, 0), (1, 2)})
        assert Tableau.from_json(t.to_json()) == t

    @pytest.mark.parametrize(
        "obj",
        [
            {"m": 2, "n": 3, "cells": [[0.9, 0]]},
            {"m": 2, "n": 3, "cells": [[0, True]]},
            {"m": 2.0, "n": 3, "cells": [[0, 0]]},
            {"m": 2, "n": False, "cells": []},
        ],
    )
    def test_json_non_integer_refused(self, obj):
        # row 0.9 is not read as row 0, nor a bool as 0 or 1
        with pytest.raises(ValueError, match="is not an integer"):
            Tableau.from_json(obj)


class TestTableauStep:
    def test_first_step(self, fig1_letters):
        a, _, _ = fig1_letters
        assert tableau_step(T(4, 3, {(0, 0)}), a) == T(4, 3, {(0, 1), (2, 0)})

    def test_detailed_transition(self, fig1_letters):
        _, _, c = fig1_letters
        src = T(4, 3, {(0, 0), (0, 1), (2, 2), (3, 0)})
        dst = T(4, 3, {(0, 2), (2, 0), (2, 1), (3, 0), (3, 2)})
        assert tableau_step(src, c) == dst

    def test_identity_letter(self):
        letter = MonsterLetter(Transformation.identity(3), Transformation.identity(3))
        t = T(3, 3, {(0, 0), (1, 2), (2, 1)})
        assert tableau_step(t, letter) == t

    def test_size_mismatch(self):
        letter = MonsterLetter(Transformation.identity(2), Transformation.identity(2))
        with pytest.raises(ValueError):
            tableau_step(T(3, 3, {(0, 0)}), letter)


class TestValidity:
    def test_examples(self):
        assert is_valid_tableau(T(1, 1, {(0, 0)}))
        assert not is_valid_tableau(T(2, 2, {(1, 1)}))
        assert not is_valid_tableau(T(2, 2, set()))

    def test_all_reachable_are_valid(self):
        for m, n in ((2, 2), (2, 3), (3, 3), (4, 2)):
            reach = reachable_tableaux(m, n)
            assert all(is_valid_tableau(t) for t in reach.depths)

    def test_valid_enumeration_matches_bound(self):
        for m, n in ((1, 1), (2, 2), (2, 3), (3, 3), (2, 4)):
            assert sum(1 for _ in all_valid_tableaux(m, n)) == f_bound(m, n)

    def test_valid_enumeration_guard(self):
        with pytest.raises(SizeGuardError, match=r"guard of 2\^20"):
            next(all_valid_tableaux(5, 5))

    @pytest.mark.parametrize("m, n", [(0, 2), (2, 0), (-1, 2), (2, -1)])
    def test_valid_enumeration_refuses_nonpositive_sizes(self, m, n):
        # (0, 2) once gave no tableau and (-1, 2) a negative shift count
        with pytest.raises(ValueError, match="^m and n must be at least 1$"):
            list(all_valid_tableaux(m, n))


class TestFBound:
    def test_known_values(self):
        assert f_bound(1, 1) == 1
        assert f_bound(2, 2) == 10
        assert f_bound(2, 3) == 44
        assert f_bound(3, 3) == 400
        assert f_bound(3, 4) == 3392
        assert f_bound(2, 5) == 752

    def test_symmetry(self):
        for m in range(1, 6):
            for n in range(1, 6):
                assert f_bound(m, n) == f_bound(n, m)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            f_bound(0, 3)


class TestReachability:
    def test_trivial(self):
        reach = reachable_tableaux(1, 1)
        assert reach.count == 1
        assert reach.depths[T(1, 1, {(0, 0)})] == 0

    def test_2x2_exact_set(self):
        reach = reachable_tableaux(2, 2)
        expected = {
            T(2, 2, {(0, 0)}),
            T(2, 2, {(0, 0), (0, 1)}),
            T(2, 2, {(0, 0), (1, 0)}),
            T(2, 2, {(0, 1), (1, 0)}),
            T(2, 2, {(0, 0), (1, 1)}),
            T(2, 2, {(0, 0), (0, 1), (1, 0)}),
            T(2, 2, {(0, 0), (1, 0), (1, 1)}),
            T(2, 2, {(0, 0), (0, 1), (1, 1)}),
            T(2, 2, {(0, 1), (1, 0), (1, 1)}),
            T(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)}),
        }
        assert set(reach.depths) == expected

    def test_depth_anomaly(self):
        # the diagonal needs two steps, the antidiagonal only one
        reach = reachable_tableaux(2, 2)
        assert reach.depths[T(2, 2, {(0, 0), (1, 1)})] == 2
        assert reach.depths[T(2, 2, {(0, 1), (1, 0)})] == 1

    def test_3x3_count(self):
        assert reachable_tableaux(3, 3).count == 400

    def test_depth_monotone_under_step(self):
        reach = reachable_tableaux(2, 3)
        for t, d in reach.depths.items():
            rows, cols = t.occupied_rows(), t.occupied_cols()
            for f in product(range(2), repeat=len(rows)):
                for g in product(range(3), repeat=len(cols)):
                    letter = MonsterLetter(
                        Transformation.from_map(2, dict(zip(rows, f))),
                        Transformation.from_map(3, dict(zip(cols, g))),
                    )
                    assert reach.depths[tableau_step(t, letter)] <= d + 1

    def test_full_alphabet_agrees(self):
        # independent closure over every whole-grid letter, level by level,
        # with tableau_step: the same tableaux at the same depths
        for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
            depths = {T(m, n, {(0, 0)}): 0}
            level = list(depths)
            letters = all_letters(m, n)
            while level:
                nxt = []
                for t in level:
                    for letter in letters:
                        nt = tableau_step(t, letter)
                        if nt not in depths:
                            depths[nt] = depths[t] + 1
                            nxt.append(nt)
                level = nxt
            assert depths == reachable_tableaux(m, n).depths

    def test_depth_limit_incomplete(self):
        reach = reachable_tableaux(3, 3, depth_limit=1)
        assert not reach.complete
        assert reach.count < 400
        assert max(reach.depths.values()) == 1

    def test_negative_depth_limit_refused(self):
        for depth_limit in (-1, -3):
            with pytest.raises(ValueError, match="^depth_limit must be at least 0$"):
                reachable_tableaux(2, 2, depth_limit=depth_limit)

    @pytest.mark.parametrize("depth_limit", [0.5, 1.5, True])
    def test_non_integer_depth_limit_refused(self, depth_limit):
        # not cut at the next level up or down, nor True taken as 1
        with pytest.raises(ValueError, match=f"^{re.escape(repr(depth_limit))} is not an integer$"):
            reachable_tableaux(2, 2, depth_limit=depth_limit)

    def test_nonpositive_grid_refused(self):
        with pytest.raises(ValueError, match="^m and n must be at least 1$"):
            reachable_tableaux(0, 2)

    @pytest.mark.parametrize("m, n, kmax", [(2, 2, 2), (2, 3, 3), (3, 2, 3), (2, 4, 3), (3, 3, 3)])
    def test_depths_match_the_pair_calculus(self, m, n, kmax):
        # The paper's characterization, with no tableau_step: the tableaux
        # within k letters of {(0, 0)} are the projections of the grade-k
        # pairs, a mirrored right-valid left side against a right-valid
        # right side, cell (i, j) set iff left[i] meets right[j].
        reach = reachable_tableaux(m, n)
        for k in range(kmax + 1):
            lefts = [
                [mirror_part(part, k) for part in Packing(m, k).unpack(x)]
                for x in graded_level(m, k)
            ]
            rights = [Packing(n, k).unpack(x) for x in graded_level(n, k)]
            projections = {
                sum(1 << (i * n + j) for i, a in enumerate(left) for j, b in enumerate(right) if a & b)
                for left in lefts
                for right in rights
            }
            assert projections == {mask for d in range(k + 1) for mask in reach.level(d)}

    def test_depth_beyond_a_byte_is_an_internal_fault(self, monkeypatch):
        # a table byte holds depth + 1; a search going deeper than the byte
        # holds stops with an internal error instead of wrapping around
        monkeypatch.setattr(monster, "MAX_DEPTH", 1)
        with pytest.raises(RuntimeError, match="passed depth 1"):
            reachable_tableaux(2, 2)
        assert reachable_tableaux(2, 2, depth_limit=1).count == 4

    def test_depth_byte_check_spares_the_depth_free_closure(self, monkeypatch):
        # the closure for sc marks every orbit with byte 1, so no depth
        # check stops it; the breadth-first search is stopped at depth 1
        monkeypatch.setattr(monster, "MAX_DEPTH", 0)
        assert monster.reachable_table(3, 3)[1] == f_bound(3, 3)
        with pytest.raises(RuntimeError, match="passed depth 0"):
            reachable_tableaux(2, 2)

    def test_table_has_a_byte_per_mask(self):
        reach = reachable_tableaux(2, 3)
        assert type(reach.table) is bytearray and len(reach.table) == 1 << 6
        assert reach.table.count(0) == (1 << 6) - reach.count
        assert {t.mask: reach.table[t.mask] for t in reach.depths} == {
            t.mask: d + 1 for t, d in reach.depths.items()
        }
        with pytest.raises(ValueError, match="2x3 depth table has 2\\^6 bytes"):
            ReachResult(2, 3, bytearray(32), True)

    def test_depth_limit_complete_at_bound(self):
        # every valid tableau is reached, so no later level could add one
        reach = reachable_tableaux(2, 2, depth_limit=2)
        assert reach.complete and reach.count == f_bound(2, 2) == 10
        reach = reachable_tableaux(1, 1, depth_limit=0)
        assert reach.complete and reach.count == f_bound(1, 1) == 1

    @pytest.mark.parametrize(
        "m, n",
        [(m, n) for m in range(1, 10) for n in range(1, 10) if m * n <= 9] + [(3, 4)],
    )
    def test_bound_stop_matches_full_closure(self, monkeypatch, m, n):
        stopped = reachable_tableaux(m, n)
        # an unreachable bound: the closure runs until the frontier is empty
        monkeypatch.setattr(monster, "f_bound", lambda m, n: f_bound(m, n) + 1)
        full = reachable_tableaux(m, n)
        assert stopped.complete and full.complete
        assert stopped.depths == full.depths
        assert stopped.count == f_bound(m, n)

    def test_sorted_frontier_expansions(self, monkeypatch):
        # each level is expanded in increasing mask order, which reaches the
        # bound after these many expansions; discovery order takes 123, 68
        # and 1163, and several times as long at 4x4
        expanded = []
        expand = monster._expand_mask

        def spy(mask, m, n):
            expanded.append(mask)
            return expand(mask, m, n)

        monkeypatch.setattr(monster, "_expand_mask", spy)
        for (m, n), count in {(2, 6): 43, (3, 4): 79, (4, 4): 275}.items():
            expanded.clear()
            assert reachable_tableaux(m, n).count == f_bound(m, n)
            assert len(expanded) == count

    def test_level_sizes(self):
        assert list(reachable_tableaux(3, 4).depth_histogram().values()) == [
            1, 11, 398, 2684, 298
        ]
        assert reachable_tableaux(2, 6).depth_histogram() == {
            0: 1, 1: 11, 2: 350, 3: 2358, 4: 320
        }

    def test_4x4_reaches_every_valid_tableau(self):
        reach = reachable_tableaux(4, 4)
        assert reach.complete and reach.count == f_bound(4, 4) == 57856
        assert list(reach.depth_histogram().values()) == [1, 15, 1079, 30989, 25772]

    def test_listing_and_views(self):
        # `depths` lists the reached tableaux in increasing mask order, each
        # with the depth its table byte holds, and no other tableau
        reach = reachable_tableaux(2, 3)
        masks = [t.mask for t in reach.depths]
        assert masks == sorted(masks) and len(masks) == reach.count
        assert all((t.m, t.n) == (2, 3) for t in reach.depths)
        assert {t.mask: d for t, d in reach.depths.items()} == {
            mask: byte - 1 for mask, byte in enumerate(reach.table) if byte
        }

    def test_levels_in_mask_order(self):
        # each depth's masks come from one scan, increasing; together they
        # are the reached masks sorted by (depth, mask)
        reach = reachable_tableaux(3, 3, depth_limit=3)
        expected = sorted((d, t.mask) for t, d in reach.depths.items())
        assert [(d, mask) for d in reach.depth_histogram() for mask in reach.level(d)] == expected
        for d, size in reach.depth_histogram().items():
            assert reach.level(d) == [mask for e, mask in expected if e == d]
            assert len(reach.level(d)) == size
            assert reach.level(d) == [mask for mask, byte in enumerate(reach.table) if byte == d + 1]
        assert reach.level(4) == []

    def test_no_level_outside_the_depths_a_byte_holds(self):
        # a depth below 0 or past MAX_DEPTH has no masks: not the unreached
        # masks (byte 0), and no IndexError past the last byte value
        reach = reachable_tableaux(2, 2)
        for depth in (-1, -2, monster.MAX_DEPTH + 1, 255, 1000):
            assert reach.level(depth) == []
        assert reach.level(monster.MAX_DEPTH) == []
        assert sum(map(len, map(reach.level, range(-3, 300)))) == reach.count == 10

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            reachable_tableaux(5, 5)
        # override on a small case still works
        assert reachable_tableaux(2, 2, max_cells=4).count == 10

    def test_histogram_and_saturation(self):
        reach = reachable_tableaux(2, 2)
        hist = reach.depth_histogram()
        assert sum(hist.values()) == 10
        assert hist[0] == 1
        assert reach.saturation_depth() == 2


SMALL_GRIDS = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]


class TestOrbitSearch:
    """The search on orbits against `reference_reach`, which expands every
    tableau."""

    @pytest.mark.parametrize("m, n", SMALL_GRIDS)
    def test_matches_reference(self, m, n):
        full = reference_reach(m, n)
        for depth_limit in [*range(full.saturation_depth() + 1), None]:
            expected = reference_reach(m, n, depth_limit)
            reach = reachable_tableaux(m, n, depth_limit=depth_limit)
            assert reach.table == expected.table
            assert reach.complete == expected.complete

    def test_matches_reference_at_4x4(self):
        # depth_limit 4, the saturation depth, runs as the unlimited search:
        # the bound is reached in level 4
        for depth_limit in (0, 1, 2, 3, None):
            expected = reference_reach(4, 4, depth_limit)
            reach = reachable_tableaux(4, 4, depth_limit=depth_limit)
            assert reach.table == expected.table
            assert reach.complete == expected.complete

    @pytest.mark.parametrize("m, n", [(3, 3), (2, 4), (3, 4)])
    def test_depth_is_invariant_under_relabelling(self, m, n):
        for reach in (reference_reach(m, n), reachable_tableaux(m, n)):
            depths = reach.depths
            for t, d in depths.items():
                for s, u in relabellings(m, n):
                    assert depths[T(m, n, {(s[i], u[j]) for i, j in t.cells})] == d

    def test_orbit_is_every_relabelling(self):
        # the closure writes its mark at exactly the orbit's masks, into a
        # table holding nothing else, and counts them
        for m, n in ((2, 3), (3, 3), (3, 4), (4, 2)):
            for mask in valid_masks(m, n):
                t = Tableau.from_mask(m, n, mask)
                orbit = {
                    T(m, n, {(s[i], u[j]) for i, j in t.cells}).mask
                    for s, u in relabellings(m, n)
                }
                table = bytearray(1 << (m * n))
                assert monster._close_orbit(table, mask, 7, m, n) == len(orbit)
                assert {y for y, mark in enumerate(table) if mark} == orbit
                assert set(table) == {0, 7}

    def test_closure_keeps_other_marks(self):
        # masks already marked are left as they are: the search closes an
        # orbit only when none of its masks is marked yet
        table = bytearray(1 << 9)
        table[3] = 5
        assert monster._close_orbit(table, 1, 2, 3, 3) == 1
        assert table[3] == 5 and table[1] == 2 and table.count(0) == len(table) - 2

    @pytest.mark.parametrize("m, n", SMALL_GRIDS)
    def test_mask_depths_view(self, m, n):
        # the table holds depth + 1 at each mask of the reference dict and 0
        # elsewhere; `depths` is the reference dict keyed by `Tableau`,
        # listed in increasing mask order
        expected, _ = reference_depths(m, n)
        reach = reachable_tableaux(m, n)
        assert {mask: byte - 1 for mask, byte in enumerate(reach.table) if byte} == expected
        assert reach.table[0] == 0  # the empty tableau is never reached
        assert [(t.mask, d) for t, d in reach.depths.items()] == sorted(expected.items())
        assert reach.count == len(expected)


GRIDS_TO_16 = [(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]


class TestReachableTable:
    """The closure with no depths against the breadth-first search."""

    @pytest.mark.parametrize("m, n", GRIDS_TO_16)
    def test_matches_bfs_support(self, m, n):
        table, count = monster.reachable_table(m, n)
        reach = reachable_tableaux(m, n, max_cells=16)
        assert table == bytes(map(bool, reach.table))
        assert count == reach.count == len(table) - table.count(0)

    @pytest.mark.parametrize(
        "m, n",
        [(m, n) for m in range(1, 10) for n in range(1, 10) if m * n <= 9] + [(3, 4)],
    )
    def test_exhausts_the_heap_when_the_bound_is_not_met(self, monkeypatch, m, n):
        stopped = monster.reachable_table(m, n)
        # an unreachable bound: the closure runs until the heap is empty
        monkeypatch.setattr(monster, "f_bound", lambda m, n: f_bound(m, n) + 1)
        assert monster.reachable_table(m, n) == stopped
        assert stopped[1] == f_bound(m, n)

    def test_expansions_in_increasing_mask_order(self, monkeypatch):
        # the smallest waiting mask is expanded first, which reaches the
        # bound after these many expansions; the breadth-first search takes
        # 49, 79, 132 and 275
        expanded = []
        expand = monster._expand_mask

        def spy(mask, m, n):
            expanded.append(mask)
            return expand(mask, m, n)

        monkeypatch.setattr(monster, "_expand_mask", spy)
        for (m, n), count in {(3, 3): 22, (3, 4): 49, (3, 5): 115, (4, 4): 371}.items():
            expanded.clear()
            assert monster.reachable_table(m, n)[1] == f_bound(m, n)
            assert len(expanded) == count

    @pytest.mark.parametrize("m, n", SMALL_GRIDS)
    def test_sc_as_with_a_given_reach(self, m, n):
        assert state_complexity_shuffle(m, n) == state_complexity_shuffle(
            m, n, reach=reachable_tableaux(m, n)
        )


class TestDistinguishingLetters:
    def test_2x2_letters(self):
        a, b, c = distinguishing_letters(2, 2)
        assert a.left.images == (1, 0) and a.right.images == (0, 0)
        assert b.left.images == (0, 0) and b.right.images == (1, 0)
        assert c.left.images == (1, 0) and c.right.images == (1, 1)

    def test_kronecker_left_component(self):
        _, _, c = distinguishing_letters(4, 3)
        assert c.left.images == (1, 0, 0, 0)
        assert c.right.images == (2, 2, 2)

    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            distinguishing_letters(1, 3)

    def test_three_letters_distinguish_everything(self):
        # refining under the three letters alone, some pair of final sets
        # separates every reachable tableau
        for m, n in ((2, 2), (2, 3), (3, 2)):
            counts, reachable = naive_final_pair_classes(m, n, distinguishing_letters(m, n))
            assert max(classes for _, classes in counts) == reachable == f_bound(m, n)


class TestStateComplexity:
    def test_trivial(self):
        assert state_complexity_shuffle(1, 1).value == 1

    def test_2x2(self):
        res = state_complexity_shuffle(2, 2)
        assert res.value == 10
        assert res.reachable_count == 10
        f1, f2 = res.witness()
        assert f1 and f2
        assert all(fa and fb for fa, fb in res.maximizers)

    def test_2x3_and_symmetry(self):
        assert state_complexity_shuffle(2, 3).value == 44
        assert state_complexity_shuffle(3, 2).value == 44

    def test_never_exceeds_bound(self):
        for m, n in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)):
            res = state_complexity_shuffle(m, n)
            assert res.value <= f_bound(m, n)

    def test_bound_tight_with_two_plus_states(self):
        for m, n in ((2, 2), (2, 3), (3, 2), (2, 4)):
            assert state_complexity_shuffle(m, n).value == f_bound(m, n)

    def test_bound_not_tight_with_a_single_state_side(self):
        # with one state on the left the only usable final set is {0}: all
        # valid tableaux stay reachable but stop being pairwise
        # distinguishable, and the complexity drops to 2^(n-2) + 1
        for n in (3, 4, 5):
            res = state_complexity_shuffle(1, n)
            assert res.reachable_count == f_bound(1, n)
            assert res.value == (1 << (n - 2)) + 1 < f_bound(1, n)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            state_complexity_shuffle(4, 4)

    def test_given_reach(self):
        # a complete reach of the same grid is used as it is
        assert state_complexity_shuffle(3, 3, reach=reachable_tableaux(3, 3)).value == 400

    def test_reach_of_another_grid_refused(self):
        with pytest.raises(ValueError, match="2x2 grid, not 3x3"):
            state_complexity_shuffle(3, 3, reach=reachable_tableaux(2, 2))

    def test_incomplete_reach_refused(self):
        reach = reachable_tableaux(3, 3, depth_limit=2)
        assert not reach.complete
        with pytest.raises(ValueError, match="incomplete"):
            state_complexity_shuffle(3, 3, reach=reach)

    @pytest.mark.parametrize("m, n", [(1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4)])
    def test_matches_naive_refinement(self, m, n):
        # the support quotient (a side of F whole) and the two-letter
        # separation (every proper pair counts the reachable tableaux)
        # change nothing: the same class count for every final pair, hence
        # the same value and the same maximizers in the same order
        naive, reachable = naive_final_pair_classes(m, n)
        best = max(classes for _, classes in naive)
        res = state_complexity_shuffle(m, n)
        assert res.value == best and res.reachable_count == reachable
        assert res.maximizers == tuple(pair for pair, classes in naive if classes == best)
        reach = reachable_tableaux(m, n)
        assert list(_final_pair_classes(m, n, reach.table, reach.count)) == naive
        assert list(_final_pair_classes(m, n, *monster.reachable_table(m, n))) == naive

    def test_3x4(self):
        # every pair with both final sets proper and nonempty is a maximizer
        res = state_complexity_shuffle(3, 4)
        assert res.value == res.reachable_count == f_bound(3, 4) == 3392
        assert res.maximizers == tuple(
            (frozenset(i for i in range(3) if b1 >> i & 1), frozenset(j for j in range(4) if b2 >> j & 1))
            for b1 in range(1, 7)
            for b2 in range(1, 15)
        )
        assert len(res.maximizers) == (2**3 - 2) * (2**4 - 2) == 84

    def test_4x4(self):
        # by the two-letter separation each of the 196 proper pairs counts
        # every reachable tableau, with no refinement, and each is a maximizer
        res = state_complexity_shuffle(4, 4, max_cells=16)
        assert res.value == res.reachable_count == f_bound(4, 4) == 57856
        assert res.maximizers == tuple(
            (frozenset(i for i in range(4) if b1 >> i & 1), frozenset(j for j in range(4) if b2 >> j & 1))
            for b1 in range(1, 15)
            for b2 in range(1, 15)
        )
        assert len(res.maximizers) == (2**4 - 2) ** 2 == 196

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
    def test_two_letter_separation(self, m, n):
        # the lemma of `_final_pair_classes`, replayed cell by cell with
        # tableau_step on every nonempty mask: for a proper pair (F1, F2)
        # and a cell (p, q), a accepts exactly the tableaux meeting
        # F1 x {q}, and ba exactly those holding (p, q)
        tableaux = [Tableau.from_mask(m, n, mask) for mask in range(1, 1 << (m * n))]
        rows, cols = set(range(m)), set(range(n))
        finals = dict.fromkeys(
            (frozenset(f1), frozenset(f2))
            for f1 in ({0}, {m - 1}, rows - {0}, rows - {m - 1})
            for f2 in ({0}, {n - 1}, cols - {0}, cols - {n - 1})
        )
        assert len(finals) >= 4
        for f1, f2 in finals:
            out1, in2, out2 = min(rows - f1), min(f2), min(cols - f2)

            def accepts(t):
                return any(i in f1 and j in f2 for i, j in t.cells)

            for p in range(m):
                for q in range(n):
                    # f constant outside F1, g^-1(F2) = {q}
                    a = MonsterLetter(
                        Transformation.constant(m, out1),
                        Transformation([in2 if j == q else out2 for j in range(n)]),
                    )
                    # f'^-1(F1) = {p}, g' constant at a column other than q
                    b = MonsterLetter(
                        Transformation([min(f1) if i == p else out1 for i in range(m)]),
                        Transformation.constant(n, (q + 1) % n),
                    )
                    for t in tableaux:
                        after_a = accepts(tableau_step(t, a))
                        assert after_a == any(i in f1 and j == q for i, j in t.cells)
                        after_ba = accepts(tableau_step(tableau_step(t, b), a))
                        assert after_ba == ((p, q) in t.cells), (f1, f2, p, q, t)

    @pytest.mark.parametrize("closed", [False, True], ids=["reached", "all-masks"])
    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
    def test_proper_pairs_share_one_partition(self, m, n, closed):
        # the two-letter separation lemma checked by refinement over the full
        # alphabet, as partitions and not only as counts: every pair of
        # nonempty proper final sets refines the reached masks (or all
        # 2^(mn) masks, also closed under every letter) into the same
        # classes, one mask per class; a pair with a whole side gives
        # another partition
        if closed:
            masks = list(range(1 << (m * n)))
        else:
            masks = sorted(t.mask for t in reachable_tableaux(m, n).depths)
        index = {mask: i for i, mask in enumerate(masks)}
        succ = [tuple(map(index.__getitem__, row)) for row in letter_rows(masks, m, n)]

        def partition(b1, b2):
            cells = [(i, j) for i in range(m) if b1 >> i & 1 for j in range(n) if b2 >> j & 1]
            fmask = sum(1 << (i * n + j) for i, j in cells)
            first: dict = {}
            codes = moore_refine(succ, [int(bool(mask & fmask)) for mask in masks])
            return [first.setdefault(c, len(first)) for c in codes]

        q1, q2 = (1 << m) - 1, (1 << n) - 1
        shared = partition(1, 1)
        assert shared == list(range(len(masks)))
        for b1 in range(1, 1 << m):
            for b2 in range(1, 1 << n):
                if b1 == q1 or b2 == q2:
                    assert partition(b1, b2) != shared
                else:
                    assert partition(b1, b2) == shared

    def test_no_refinement_per_grid(self, monkeypatch):
        # every binding of moore_refine in the package is spied on, so a
        # refinement called from any module, under any name, is seen
        refined = []
        refine = automata.moore_refine

        def refine_spy(rows, codes):
            refined.append(len(codes))
            return refine(rows, codes)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "shufflesc" or name.startswith("shufflesc.")):
                for attr, value in list(vars(module).items()):
                    if value is refine:
                        monkeypatch.setattr(module, attr, refine_spy)
        # a proper pair takes the reachable count, any other the supports
        assert state_complexity_shuffle(3, 3).value == 400
        for m, n in ((1, 1), (1, 3), (1, 4), (3, 1), (4, 1)):
            state_complexity_shuffle(m, n)
        assert refined == []
        # the spy does see a refinement: minimize runs one
        automata.minimize(monster_dfa(2, {1}, all_letters(2, 2), "left"))
        assert refined == [2]

    @pytest.mark.parametrize("m, n", [(1, 5), (2, 3), (2, 4), (3, 3)])
    def test_support_quotient_is_its_moore_count(self, m, n):
        # the closed count of the support automaton against its Moore
        # refinement over every map g, for F1 = Q1 and each F2
        reach = reachable_tableaux(m, n)
        supports = sorted({sum(1 << j for j in t.occupied_cols()) for t in reach.depths})
        index = {c: i for i, c in enumerate(supports)}
        maps = list(product(range(n), repeat=n))
        succ = [
            tuple(index[c | sum(1 << t for t in {g[j] for j in range(n) if c >> j & 1})] for g in maps)
            for c in supports
        ]
        for final in range(1, 1 << n):
            codes = moore_refine(succ, [int(bool(c & final)) for c in supports])
            assert monster._support_classes(supports, n)[final] == len(set(codes))

    @pytest.mark.parametrize(
        "supports, width",
        [({1}, 1), ({1, 2}, 3), ({1, 3, 5, 7}, 3), ({1, 6, 9, 12, 15}, 4), ({2, 3, 20, 31}, 5)],
    )
    def test_support_table_is_the_per_final_count(self, supports, width):
        # the table counts inside every mask at once, and needs no symmetry
        # of the supports: some sets above are closed under no relabelling,
        # and at ({1, 2}, 3) the final mask 4 meets no support
        table = monster._support_classes(supports, width)
        assert len(table) == 1 << width
        for final in range(1, 1 << width):
            missing = sum(1 for s in supports if not s & final)
            assert table[final] == missing + (missing < len(supports))


KERNEL_SIZES = [(1, 3), (2, 2), (2, 3), (3, 2)]


class TestMaskKernel:
    """The mask-line kernel against the cell-level `tableau_step`."""

    @pytest.mark.parametrize("m, n", KERNEL_SIZES)
    def test_lines_are_supports(self, m, n):
        lines = mask_lines(m, n)
        for mask in range(1 << (m * n)):
            t = Tableau.from_mask(m, n, mask)
            assert lines.rows(mask) == [
                (i, sum(1 << j for j in t.row_support(i))) for i in t.occupied_rows()
            ]
            assert lines.cols(mask) == [
                (j, sum(1 << (i * n) for i in t.col_support(j))) for j in t.occupied_cols()
            ]
        assert lines.col0 == sum(1 << (i * n) for i in range(m))

    @pytest.mark.parametrize("m, n", KERNEL_SIZES)
    def test_expand_mask_is_the_full_alphabet_image(self, m, n):
        letters = all_letters(m, n)
        for mask in valid_masks(m, n):
            t = Tableau.from_mask(m, n, mask)
            row_variants, col_variants = _expand_mask(mask, m, n)
            assert {rv | cv for rv in row_variants for cv in col_variants} == {
                tableau_step(t, letter).mask for letter in letters
            }

    @pytest.mark.parametrize("m, n", KERNEL_SIZES)
    def test_transition_rows_follow_each_letter(self, m, n):
        letters = all_letters(m, n)
        masks = sorted(valid_masks(m, n))
        expected = [
            tuple(tableau_step(Tableau.from_mask(m, n, mask), letter).mask for letter in letters)
            for mask in masks
        ]
        assert letter_rows(masks, m, n) == expected


class TestMonsterDfa:
    def test_sides_act_independently(self, fig1_letters):
        letters = list(fig1_letters)
        k = monster_dfa(4, {3}, letters, "left")
        l = monster_dfa(3, {2}, letters, "right")
        a = letters[0]
        assert k.delta[(0, a)] == a.left(0)
        assert l.delta[(0, a)] == a.right(0)

    def test_size_mismatch(self, fig1_letters):
        with pytest.raises(ValueError):
            monster_dfa(5, {0}, list(fig1_letters), "left")

    def test_unknown_side_refused(self, fig1_letters):
        with pytest.raises(ValueError, match="^side must be 'left' or 'right'$"):
            monster_dfa(4, {3}, list(fig1_letters), side="up")

    def test_table_and_delta_agree(self, fig1_letters):
        letters = list(fig1_letters)
        k = monster_dfa(4, {3}, letters, "left")
        assert k.table == tuple(tuple(a.left(q) for a in letters) for q in range(4))
        assert k.delta == {(q, a): a.left(q) for q in range(4) for a in letters}
        empty = monster_dfa(3, {0}, [], "right")
        assert (empty.table, empty.delta) == (((),) * 3, {})

    def test_minimized_shuffle_matches_tableau_count(self):
        # classical pipeline (shuffle NFA, subset construction, minimization)
        # against the tableau machinery, over the full letter set and the
        # maximizing final sets
        from shufflesc import determinize, minimize, shuffle_nfa

        for m, n in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
            res = state_complexity_shuffle(m, n)
            f1, f2 = res.witness()
            letters = all_letters(m, n)
            k = monster_dfa(m, f1, letters, "left")
            l = monster_dfa(n, f2, letters, "right")
            minimal = minimize(determinize(shuffle_nfa(k, l)))
            assert minimal.state_count == res.value == f_bound(m, n)


GRID_ENTRY_POINTS = {
    "Tableau": lambda m, n: Tableau(m, n, set()),
    "Tableau.from_mask": lambda m, n: Tableau.from_mask(m, n, 0),
    "f_bound": f_bound,
    "scan_guard": lambda m, n: monster.scan_guard(m, n, 20),
    "all_valid_tableaux": lambda m, n: list(all_valid_tableaux(m, n)),
    "enumerate_dense": enumerate_dense,
    "reachable_tableaux": reachable_tableaux,
    "reachable_table": reachable_table,
    "state_complexity_shuffle": state_complexity_shuffle,
    "check_conjecture1": check_conjecture1,
    "check_conjecture2": check_conjecture2,
    "distinguishing_letters": distinguishing_letters,
    "lower_bound_ie": lower_bound_ie,
    "witness_full": witness_full,
    "verify_witnesses": verify_witnesses,
    "pair_of_settableau": lambda m, n: pair_of_settableau({(0, 0): [1]}, m, n),
}


@pytest.mark.parametrize("name", sorted(GRID_ENTRY_POINTS))
@pytest.mark.parametrize(
    "m, n, message",
    [
        (0, 2, "m and n must be at least 1"),
        (2, 0, "m and n must be at least 1"),
        (-1, 3, "m and n must be at least 1"),
        (-4, -4, "m and n must be at least 1"),
        (True, 2, "True is not an integer"),
        (2, 2.0, "2.0 is not an integer"),
    ],
    ids=["0x2", "2x0", "-1x3", "-4x-4", "Truex2", "2x2.0"],
)
def test_grid_rule(name, m, n, message):
    """Every library function that takes the sides of a grid refuses a side
    below 1 or not an int with the one rule's message, before any size
    guard: (-1, 3) once gave a negative shift count, (-4, -4) a guard
    refusal (a SizeGuardError, itself a ValueError) and (True, 2) a run
    on a 1 x 2 grid."""
    with pytest.raises(ValueError) as info:
        GRID_ENTRY_POINTS[name](m, n)
    assert type(info.value) is ValueError and str(info.value) == message


# name -> (a call taking one count, the count's name, its least value)
COUNT_ENTRY_POINTS = {
    "Transformation.identity": (Transformation.identity, "size", 0),
    "Transformation.constant": (lambda x: Transformation.constant(x, 0), "size", 0),
    "Transformation.cycle": (lambda x: Transformation.cycle(x, []), "size", 0),
    "Transformation.from_map": (lambda x: Transformation.from_map(x, {}), "size", 0),
    "stirling2.a": (lambda x: en.stirling2(x, 1), "a", 0),
    "stirling2.b": (lambda x: en.stirling2(3, x), "b", 0),
    "r_stirling2.np": (lambda x: en.r_stirling2(x, 1, 1), "np", 0),
    "r_stirling2.kp": (lambda x: en.r_stirling2(3, x, 1), "kp", 0),
    "r_stirling2.r": (lambda x: en.r_stirling2(3, 1, x), "r", 0),
    "succ_count.d": (lambda x: en.succ_count(4, 2, x), "d", 0),
    "succ_count_oracle.d": (lambda x: en.succ_count_oracle(4, 2, x), "d", 0),
    "canonical_vector.l": (lambda x: en.canonical_vector(x, 3), "l", 1),
    "canonical_vector.n": (lambda x: en.canonical_vector(2, x), "n", 2),
    "matrix_power.k": (lambda x: en.matrix_power(((1,),), x), "k", 0),
    "matrix_S.n": (en.matrix_S, "n", 1),
    "matrix_A.n": (en.matrix_A, "n", 1),
    "matrix_A.size": (lambda x: en.matrix_A(2, x), "size", 1),
    "matrix_B.rows": (en.matrix_B, "rows", 1),
    "matrix_B.cols": (lambda x: en.matrix_B(2, x), "cols", 1),
    "graded_rows.kmax": (lambda x: list(en.graded_rows(3, x)), "kmax", 0),
    "closed_form_coeffs.n": (en.closed_form_coeffs, "n", 1),
    "series_direct.d": (en.series_direct, "d", 1),
    "series_closed.d": (en.series_closed, "d", 1),
    "series_direct_rows.d": (en.series_direct_rows, "d", 1),
    "series_closed_rows.d": (en.series_closed_rows, "d", 1),
    "reachable_tableaux.depth_limit": (
        lambda x: reachable_tableaux(2, 2, depth_limit=x), "depth_limit", 0
    ),
    "SetVector.base": (SetVector.base, "length", 1),
    "p_of_path.m": (lambda x: p_of_path(x, 1, []), "length", 1),
    "p_of_path.n": (lambda x: p_of_path(1, x, []), "length", 1),
    "graded_level.n": (lambda x: graded_level(x, 1), "n", 1),
    "graded_level.k": (lambda x: graded_level(2, x), "k", 0),
    "mirror.k": (lambda x: mirror(SetVector.base(1), x), "k", 0),
    "is_rvalid.k": (lambda x: is_rvalid(SetVector.base(1), x), "k", 0),
    "is_lvalid.k": (lambda x: is_lvalid(SetVector.base(1), x), "k", 0),
}


@pytest.mark.parametrize("name", sorted(COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("kind", ["float", "bool", "below"])
def test_count_rule(name, kind):
    """Every count argument is refused unless an int at least its least
    value, with the one rule's message (`automata._int_at_least`):
    matrix_A(2, True) once gave ((1,),), matrix_B(2, 0) two empty rows,
    is_lvalid(v, -1) a negative shift count, closed_form_coeffs(2.0) a
    TypeError and canonical_vector(True, 2) a vector of one part."""
    call, count, low = COUNT_ENTRY_POINTS[name]
    value, message = {
        "float": (float(low + 1), f"{float(low + 1)} is not an integer"),
        "bool": (True, "True is not an integer"),
        "below": (low - 1, f"{count} must be at least {low}"),
    }[kind]
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize(
    "call, outside",
    [
        (lambda x: reachable_tableaux(2, 2).level(x), []),
        (lambda x: permutation_min_grade(Transformation([1, 0]), x), None),
    ],
    ids=["ReachResult.level", "permutation_min_grade"],
)
def test_depth_and_grade_bound_are_ints(call, outside):
    """A depth or a grade bound is an int: a float or a bool is refused by
    name, and one below 0 still finds nothing."""
    for value in (1.0, True):
        with pytest.raises(ValueError) as info:
            call(value)
        assert type(info.value) is ValueError and str(info.value) == f"{value} is not an integer"
    assert call(-1) == outside
