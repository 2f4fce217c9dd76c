import hashlib
from itertools import permutations, product

import pytest

from shufflesc import (
    SetVector,
    SizeGuardError,
    Tableau,
    Transformation,
    enumerate_dense,
    erase_cell_letter,
    is_dense,
    is_lvalid,
    is_rvalid,
    reachable_tableaux,
    s_projection,
    tableau_step,
    witness_full,
    witness_permutation,
)
from shufflesc.upair import is_dense_mask


def perm_tableau(images):
    n = len(images)
    return Tableau(n, n, {(i, images[i]) for i in range(n)})


def full_tableau(m, n):
    return Tableau(m, n, set(product(range(m), range(n))))


class TestPermutationWitness:
    def test_identity_n5(self):
        pair = witness_permutation(Transformation.identity(5))
        assert pair.left == SetVector.parse("[{1,8},{2,7},{3,6},{4},{5}]")
        assert pair.right == pair.left
        assert pair.grade == 3
        assert s_projection(pair) == perm_tableau((0, 1, 2, 3, 4))

    def test_swap_n2(self):
        pair = witness_permutation(Transformation([1, 0]))
        assert pair.left == SetVector.parse("[{2},{1}]")
        assert pair.right == SetVector.parse("[{1},{2}]")
        assert pair.grade == 1

    def test_moved_zero_n5(self):
        # images (2,0,1,4,3): the worked two-cycle/three-cycle example
        sigma = Transformation([2, 0, 1, 4, 3])
        pair = witness_permutation(sigma)
        assert pair.grade == 3
        assert s_projection(pair) == perm_tableau((2, 0, 1, 4, 3))
        # the slot-filling is deterministic
        assert pair == witness_permutation(sigma)

    def test_all_small_sizes(self):
        for n in range(1, 6):
            for images in permutations(range(n)):
                sigma = Transformation(images)
                pair = witness_permutation(sigma)
                assert s_projection(pair) == perm_tableau(images)
                if n == 1:
                    assert pair.grade == 0
                elif images[0] == 0:
                    assert pair.grade == n.bit_length()
                else:
                    assert pair.grade == (n - 1).bit_length()

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            witness_permutation(Transformation([0, 0]))

    def test_self_check_is_not_an_assert(self, monkeypatch):
        # The check must hold under `python -O` and must not read as bad input.
        from shufflesc import upair
        from shufflesc.cli import main

        monkeypatch.setattr(upair, "s_projection", lambda pair: perm_tableau((0, 1)))
        with pytest.raises(RuntimeError):
            witness_permutation(Transformation([1, 0]))
        with pytest.raises(RuntimeError):
            main(["witness", "perm", "2", "1,0"])

    def test_grade_matches_bfs_depth(self):
        for n in (2, 3):
            reach = reachable_tableaux(n, n)
            for images in permutations(range(n)):
                pair = witness_permutation(Transformation(images))
                assert reach.depths[perm_tableau(images)] == pair.grade


class TestFullWitness:
    def test_base_case(self):
        pair = witness_full(1, 1)
        assert pair.left == SetVector.base(1)
        assert pair.right == SetVector.base(1)

    def test_3x5_projection_and_grade(self):
        pair = witness_full(3, 5)
        assert pair.grade == 6  # 2 for the 3-row column, then 4 doublings
        assert s_projection(pair) == full_tableau(3, 5)
        assert pair.right == SetVector(
            [range(1, 5), range(5, 9), range(9, 17), range(17, 33), range(33, 65)]
        )

    def test_all_small_sizes_valid(self):
        for m in range(1, 6):
            for n in range(1, 6):
                pair = witness_full(m, n)
                k = (m - 1).bit_length()
                assert pair.grade == k + n - 1
                assert is_lvalid(pair.left, pair.grade)
                assert is_rvalid(pair.right, pair.grade)
                assert s_projection(pair) == full_tableau(m, n)

    def test_grade_matches_bfs_depth_small(self):
        reach = reachable_tableaux(2, 2)
        assert reach.depths[full_tableau(2, 2)] <= witness_full(2, 2).grade

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 0)])
    def test_nonpositive_sizes_refused(self, m, n):
        with pytest.raises(ValueError, match="^m and n must be at least 1$"):
            witness_full(m, n)

    def test_guard(self):
        # grade 1 + 2 = 3 stamps 8 elements on each side
        assert witness_full(2, 3, max_count=8).grade == 3
        with pytest.raises(SizeGuardError, match="the full 2x3 witness has grade 3"):
            witness_full(2, 3, max_count=7)


class TestEraseCell:
    def test_full_minus_center(self):
        full = full_tableau(3, 3)
        letter = erase_cell_letter(full, 1, 1, 0, 0)
        assert tableau_step(full, letter) == Tableau(
            3, 3, full.cells - {(1, 1)}
        )

    def test_precondition_violated(self):
        t = Tableau(2, 2, {(0, 0), (1, 1)})  # row supports incomparable
        with pytest.raises(ValueError):
            erase_cell_letter(t, 0, 0, 1, 1)
        with pytest.raises(ValueError):
            erase_cell_letter(full_tableau(2, 2), 0, 0, 0, 1)  # i1 == i2
        t = Tableau(2, 2, {(0, 0), (0, 1), (1, 0)})  # column 0 not inside column 1
        with pytest.raises(ValueError, match="^column 0 support not contained in column 1 support$"):
            erase_cell_letter(t, 1, 0, 0, 1)

    @pytest.mark.parametrize(
        "cells, message",
        [((2, 0, 0, 1), "row 2 out of range"), ((0, 0, 1, -1), "column -1 out of range")],
    )
    def test_index_out_of_range(self, cells, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            erase_cell_letter(full_tableau(2, 2), *cells)

    def test_exhaustive_3x3(self):
        # every qualifying (tableau, i1, j1, i2, j2) removes exactly (i1, j1)
        checked = 0
        for mask in range(1, 1 << 9):
            t = Tableau.from_mask(3, 3, mask)
            for i1, i2 in product(range(3), repeat=2):
                if i1 == i2 or not t.row_support(i1) <= t.row_support(i2):
                    continue
                for j1, j2 in product(range(3), repeat=2):
                    if j1 == j2 or not t.col_support(j1) <= t.col_support(j2):
                        continue
                    letter = erase_cell_letter(t, i1, j1, i2, j2)
                    assert tableau_step(t, letter) == Tableau(
                        3, 3, t.cells - {(i1, j1)}
                    )
                    checked += 1
        assert checked > 1000

    def test_reduction_chain_from_full(self):
        # every tableau containing a full row j and a full column i is
        # reached from the full tableau by erasing its complement cell by
        # cell, and each intermediate stays reachable
        m = n = 3
        reach = reachable_tableaux(m, n)
        for i in range(n):
            for j in range(m):
                cross = {(r, i) for r in range(m)} | {(j, c) for c in range(n)}
                free = [cell for cell in product(range(m), range(n)) if cell not in cross]
                for bits in range(1 << len(free)):
                    target_cells = set(cross) | {
                        cell for b, cell in enumerate(free) if bits >> b & 1
                    }
                    target = Tableau(m, n, target_cells)
                    current = full_tableau(m, n)
                    for cell in sorted(current.cells - target_cells):
                        letter = erase_cell_letter(current, cell[0], cell[1], j, i)
                        current = tableau_step(current, letter)
                        assert current in reach.depths
                    assert current == target


class TestDense:
    def test_permutation_tableaux_are_dense(self):
        for images in permutations(range(4)):
            assert is_dense(perm_tableau(images))

    def test_full_not_dense(self):
        assert not is_dense(full_tableau(2, 2))
        assert not is_dense(full_tableau(3, 3))
        assert is_dense(full_tableau(1, 1))  # single cell

    def test_empty_excluded(self):
        assert not is_dense(Tableau(2, 2, set()))

    def test_dense_2x2(self):
        assert set(enumerate_dense(2, 2)) == {
            Tableau(2, 2, {(0, 0), (1, 1)}),
            Tableau(2, 2, {(0, 1), (1, 0)}),
        }

    def test_dense_3x3_structure(self):
        dense = enumerate_dense(3, 3)
        assert len(dense) == 12
        singles = [t for t in dense if len(t.cells) == 3]
        doubles = [t for t in dense if len(t.cells) == 6]
        assert len(singles) == 6 and len(doubles) == 6
        for t in doubles:
            assert all(len(t.row_support(i)) == 2 for i in range(3))
            assert all(len(t.col_support(j)) == 2 for j in range(3))

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (3, 3)])
    def test_mask_density_matches_definition(self, m, n):
        def dense_by_definition(t):
            rows = [t.row_support(i) for i in range(m)]
            cols = [t.col_support(j) for j in range(n)]
            return bool(t.cells) and all(
                not a <= b for sup in (rows, cols) for a, b in permutations(sup, 2)
            )

        for mask in range(1 << (m * n)):
            t = Tableau.from_mask(m, n, mask)
            assert is_dense_mask(m, n, mask) == is_dense(t) == dense_by_definition(t)

    def test_enumerate_dense_pinned(self):
        # Sperner: four columns cannot be pairwise incomparable subsets of 3 rows
        assert enumerate_dense(3, 4) == [] == enumerate_dense(4, 3)
        dense = [t.mask for t in enumerate_dense(4, 4)]
        assert len(dense) == 312 and dense == sorted(dense)
        digest = hashlib.sha256(",".join(map(str, dense)).encode()).hexdigest()
        assert digest == "f5e5832153764ddc8202a02d3bbd4dffc1e31f3f78402df2b07d26e50dabd8e9"

    def test_scan_guard(self):
        with pytest.raises(SizeGuardError, match=r"guard of 2\^20"):
            enumerate_dense(5, 5)
        assert enumerate_dense(3, 3, max_cells=9) == enumerate_dense(3, 3)

    @pytest.mark.parametrize("m, n", [(0, 2), (2, 0), (-1, 2), (2, -1)])
    def test_nonpositive_sizes_refused(self, m, n):
        # (0, 2) once gave an empty list and (-1, 2) a negative shift count
        with pytest.raises(ValueError, match="^m and n must be at least 1$"):
            enumerate_dense(m, n)
