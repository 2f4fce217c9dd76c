"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is exact arithmetic and finishes in a few minutes.
"""

import random
from fractions import Fraction
from itertools import permutations, product

from shufflesc import (
    MonsterLetter,
    SetVector,
    Tableau,
    Transformation,
    check_conjecture1,
    check_conjecture2,
    closed_form_coeffs,
    enumerate_dense,
    erase_cell_letter,
    f_bound,
    generate_graded,
    hadamard,
    is_dense,
    lower_bound_ie,
    matrix_A,
    matrix_B,
    matrix_power,
    matrix_S,
    p_of_path,
    pair_of_settableau,
    r_total,
    reachable_tableaux,
    s_projection,
    series_closed,
    series_direct,
    state_complexity_shuffle,
    succ_count,
    succ_count_oracle,
    tableau_step,
    witness_full,
    witness_permutation,
)
from shufflesc.conjecture import expected_permutation_grade, permutation_min_grade
from shufflesc.enumeration import successor_vectors

from test_enumeration import CLOSED_FORMS, S_DISPLAYS


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_01_valid_tableau_count_and_reachability():
    assert f_bound(2, 2) == 10
    reach = reachable_tableaux(2, 2)
    expected = {
        frozenset({(0, 0)}),
        frozenset({(0, 0), (0, 1)}),
        frozenset({(0, 0), (1, 0)}),
        frozenset({(0, 1), (1, 0)}),
        frozenset({(0, 0), (1, 1)}),
        frozenset({(0, 0), (0, 1), (1, 0)}),
        frozenset({(0, 0), (1, 0), (1, 1)}),
        frozenset({(0, 0), (0, 1), (1, 1)}),
        frozenset({(0, 1), (1, 0), (1, 1)}),
        frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
    }
    assert {t.cells for t in reach.depths} == expected
    report(1, "f(2,2) = 10 and the ten 2x2 tableaux are reached exactly")


# The 37 successors of [{1},{2},{3,4},{},{}] whose fresh block lands in the
# first empty slot, as enumerated by hand in the worked example.  The full
# successor count doubles them over the choice of empty slot: s(5;3->4) = 74.
WORKED_37 = [
    "[{1},{2},{3,4},{5,6,7,8},{}]",
    "[{1,7,8},{2},{3,4},{5,6},{}]",
    "[{1},{2,7,8},{3,4},{5,6},{}]",
    "[{1},{2},{3,4,7,8},{5,6},{}]",
    "[{1,6},{2},{3,4},{5,7,8},{}]",
    "[{1},{2,6},{3,4},{5,7,8},{}]",
    "[{1},{2},{3,4,6},{5,7,8},{}]",
    "[{1,5},{2},{3,4},{6,7,8},{}]",
    "[{1},{2,5},{3,4},{6,7,8},{}]",
    "[{1},{2},{3,4,5},{6,7,8},{}]",
    "[{1,6,7,8},{2},{3,4},{5},{}]",
    "[{1,6},{2,7,8},{3,4},{5},{}]",
    "[{1,6},{2},{3,4,7,8},{5},{}]",
    "[{1,7,8},{2,6},{3,4},{5},{}]",
    "[{1},{2,6,7,8},{3,4},{5},{}]",
    "[{1},{2,6},{3,4,7,8},{5},{}]",
    "[{1,7,8},{2},{3,4,6},{5},{}]",
    "[{1},{2,7,8},{3,4,6},{5},{}]",
    "[{1},{2},{3,4,6,7,8},{5},{}]",
    "[{1,5,7,8},{2},{3,4},{6},{}]",
    "[{1,5},{2,7,8},{3,4},{6},{}]",
    "[{1,5},{2},{3,4,7,8},{6},{}]",
    "[{1,7,8},{2,5},{3,4},{6},{}]",
    "[{1},{2,5,7,8},{3,4},{6},{}]",
    "[{1},{2,5},{3,4,7,8},{6},{}]",
    "[{1,7,8},{2},{3,4,5},{6},{}]",
    "[{1},{2,7,8},{3,4,5},{6},{}]",
    "[{1},{2},{3,4,5,7,8},{6},{}]",
    "[{1,5,6},{2},{3,4},{7,8},{}]",
    "[{1,5},{2,6},{3,4},{7,8},{}]",
    "[{1,5},{2},{3,4,6},{7,8},{}]",
    "[{1,6},{2,5},{3,4},{7,8},{}]",
    "[{1},{2,5,6},{3,4},{7,8},{}]",
    "[{1},{2,5},{3,4,6},{7,8},{}]",
    "[{1,6},{2},{3,4,5},{7,8},{}]",
    "[{1},{2,6},{3,4,5},{7,8},{}]",
    "[{1},{2},{3,4,5,6},{7,8},{}]",
]


def test_02_successor_formula_vs_oracle():
    for n in range(1, 6):
        for l in range(1, n + 1):
            for d in range(0, n - l + 1):
                assert succ_count(n, l, d) == succ_count_oracle(n, l, d)
    four_part = successor_vectors(5, 3)[4]
    assert len(four_part) == succ_count(5, 3, 1) == 74
    listed = {SetVector.parse(text) for text in WORKED_37}
    assert len(listed) == 37
    produced = {v for v in four_part if v[3]}  # fresh block in the first empty slot
    assert produced == listed
    assert matrix_B(3, 4)[2][3] == 37  # the by-hand count is the slot-fixed factor
    report(
        2,
        "formula = oracle for all n <= 5; the 37 slot-fixed successors at "
        "(5,3,1) are produced verbatim (full count 74 = 2 x 37)",
    )


def test_03_matrices_match_displays_and_factor():
    for n, rows in S_DISPLAYS.items():
        assert list(map(list, matrix_S(n))) == rows
        assert hadamard(matrix_B(n), matrix_A(n)) == matrix_S(n)
    assert matrix_S(7)[3] == (0, 0, 0, 256, 1107, 906, 132)
    report(3, "S_2..S_7 match the displayed matrices and S_n = B (x) A_n")


TWO_PART_R32 = [
    "[{1,2},{3,4},{}]",
    "[{1,2},{},{3,4}]",
    "[{1,3,4},{2},{}]",
    "[{1,3},{2,4},{}]",
    "[{1,4},{2,3},{}]",
    "[{1},{2,3,4},{}]",
    "[{1,3,4},{},{2}]",
    "[{1,3},{},{2,4}]",
    "[{1,4},{},{2,3}]",
    "[{1},{},{2,3,4}]",
]
# Computed by the generator and cross-checked against the validity-predicate
# filter; the printed source listing of this family is partly corrupted.
THREE_PART_R32 = [
    "[{1},{2},{3,4}]",
    "[{1},{2,3},{4}]",
    "[{1},{2,4},{3}]",
    "[{1},{3},{2,4}]",
    "[{1},{3,4},{2}]",
    "[{1},{4},{2,3}]",
    "[{1,3},{2},{4}]",
    "[{1,3},{4},{2}]",
    "[{1,4},{2},{3}]",
    "[{1,4},{3},{2}]",
]


def test_04_grade2_length3_split():
    assert list(matrix_power(matrix_S(3), 2)[0]) == [1, 10, 10]
    vectors = generate_graded(3, 2)
    by_parts = {}
    for v in vectors:
        by_parts.setdefault(v.nonempty_count(), set()).add(v)
    assert {l: len(vs) for l, vs in by_parts.items()} == {1: 1, 2: 10, 3: 10}
    assert by_parts[1] == {SetVector.parse("[{1,2,3,4},{},{}]")}
    assert by_parts[2] == {SetVector.parse(t) for t in TWO_PART_R32}
    assert by_parts[3] == {SetVector.parse(t) for t in THREE_PART_R32}
    report(4, "(S_3)^2 first row = (1,10,10) and the explicit 1/10/10 split matches")


def test_05_length2_totals():
    expected = [1, 2, 6, 22, 86, 342, 1366, 5462, 21846, 87382, 349526]
    assert [r_total(2, k) for k in range(11)] == expected
    for k in range(11):
        assert Fraction(2, 3) + Fraction(1, 3) * 4 ** k == expected[k]
    report(5, "r_total(2, k) = 1,2,6,...,349526 = 2/3 + 4^k/3 for k = 0..10")


def test_06_closed_form_coefficients():
    for n in range(2, 8):
        coeffs = closed_form_coeffs(n)
        assert coeffs == [Fraction(s) for s in CLOSED_FORMS[n]]
        for k in range(2 * n + 1):
            assert sum(c * (i ** i) ** k for i, c in enumerate(coeffs, 1)) == r_total(n, k)
    report(6, "closed-form rationals for n = 2..7 match and reconstruct the totals")


def test_07_series_constructions_agree():
    direct = series_direct(6)
    closed = series_closed(6)
    assert direct == closed
    expected_y4 = [Fraction(c, 24) for c in (256, 369, 151, 22, 1)]
    assert direct[4][4:9] == expected_y4
    assert all(c == 0 for c in direct[4][:4])
    report(7, "series_direct(6) = series_closed(6); y^4 block = x^4(256+369x+...)/24")


def test_08_conjecture1_and_state_complexity():
    for m, n in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5)):
        rep = check_conjecture1(m, n)
        assert rep.status == "holds"
        assert rep.reachable_count == f_bound(m, n)
    witnesses = {}
    for m, n in ((2, 2), (2, 3), (3, 3)):
        res = state_complexity_shuffle(m, n)
        assert res.value == f_bound(m, n)
        witnesses[(m, n)] = tuple(sorted(s) for s in res.witness())
    report(
        8,
        "reachable = f(m,n) for the six grids; sc = f with finals e.g. "
        + "; ".join(f"{mn}: F1={w[0]} F2={w[1]}" for mn, w in witnesses.items()),
    )


# The six two-crosses-per-line dense 3x3 tableaux with their displayed
# grade-3 stamp assignments.
DENSE_33_SET_TABLEAUX = [
    {(0, 0): {5, 8}, (0, 1): {3}, (1, 1): {7}, (1, 2): {2}, (2, 0): {1, 4}, (2, 2): {6}},
    {(0, 0): {5, 8}, (0, 1): {3}, (1, 0): {1, 4}, (1, 2): {6}, (2, 1): {7}, (2, 2): {2}},
    {(0, 0): {5, 8}, (0, 2): {3}, (1, 0): {1, 4}, (1, 1): {6}, (2, 1): {2}, (2, 2): {7}},
    {(0, 0): {5, 8}, (0, 2): {3}, (1, 1): {2}, (1, 2): {7}, (2, 0): {1, 4}, (2, 1): {6}},
    {(0, 1): {6, 8}, (0, 2): {3}, (1, 0): {1}, (1, 2): {7}, (2, 0): {5}, (2, 1): {2, 4}},
    {(0, 1): {3}, (0, 2): {6, 8}, (1, 0): {1}, (1, 1): {7}, (2, 0): {5}, (2, 2): {2, 4}},
]


def test_09_conjecture2_and_dense_witnesses():
    for m in range(1, 4):
        for n in range(1, 4):
            assert check_conjecture2(m, n).status == "holds"
    reach = reachable_tableaux(3, 3)
    two_cross = set()
    for cells in DENSE_33_SET_TABLEAUX:
        pair = pair_of_settableau(cells, 3, 3)  # validates both sides
        tableau = s_projection(pair)
        assert tableau.cells == frozenset(cells)
        assert is_dense(tableau)
        assert tableau in reach.depths
        two_cross.add(tableau)
    assert len(two_cross) == 6
    dense = set(enumerate_dense(3, 3))
    assert two_cross == {t for t in dense if len(t.cells) == 6}
    report(9, "dense reachability holds for m,n <= 3; the six displayed pairs check out")


def test_10_witness_suite():
    bfs = {n: reachable_tableaux(n, n) for n in (2, 3)}
    for n in range(1, 6):
        for images in permutations(range(n)):
            sigma = Transformation(images)
            pair = witness_permutation(sigma)
            target = Tableau(n, n, {(i, sigma(i)) for i in range(n)})
            assert s_projection(pair) == target
            expected = expected_permutation_grade(sigma)
            assert pair.grade == expected
            # depth exactness: the minimal pair grade equals the minimal
            # path length; cross-checked against literal breadth-first
            # search where that search is feasible
            assert permutation_min_grade(sigma, k_max=expected) == expected
            if n in bfs:
                assert bfs[n].depths[target] == expected
    for m in range(1, 6):
        for n in range(1, 6):
            pair = witness_full(m, n)
            assert s_projection(pair) == Tableau(
                m, n, {(i, j) for i in range(m) for j in range(n)}
            )
    report(
        10,
        "all permutation witnesses for n <= 5 hit their tableau at the exact "
        "minimal depth; all full witnesses for m,n <= 5 project onto the full grid",
    )


def _random_letter(rng, m, n):
    return MonsterLetter(
        Transformation([rng.randrange(m) for _ in range(m)]),
        Transformation([rng.randrange(n) for _ in range(n)]),
    )


def test_11_property_suites():
    rng = random.Random(2024)

    # stamp partition, disjointness, useful-restriction invariance: 1000 paths
    for _ in range(1000):
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        path = [_random_letter(rng, m, n) for _ in range(rng.randint(0, 5))]
        pair = p_of_path(m, n, path)  # constructor enforces validity
        ground = frozenset(range(1, (1 << len(path)) + 1))
        assert pair.left.support == ground == pair.right.support

    # projection commutes with stepping: 500 random extensions
    for _ in range(500):
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        path = [_random_letter(rng, m, n) for _ in range(rng.randint(0, 4))]
        step = _random_letter(rng, m, n)
        assert s_projection(p_of_path(m, n, path + [step])) == tableau_step(
            s_projection(p_of_path(m, n, path)), step
        )

    # useful-path injectivity at (2, 2): counts 1, 4, 36, 484
    counts = []
    frontier = [([], Tableau(2, 2, {(0, 0)}))]
    for _ in range(4):
        counts.append(len({p_of_path(2, 2, path) for path, _ in frontier}))
        assert counts[-1] == len(frontier)
        nxt = []
        for path, t in frontier:
            rows, cols = t.occupied_rows(), t.occupied_cols()
            for f in product(range(2), repeat=len(rows)):
                for g in product(range(2), repeat=len(cols)):
                    letter = MonsterLetter(
                        Transformation.from_map(2, dict(zip(rows, f))),
                        Transformation.from_map(2, dict(zip(cols, g))),
                    )
                    nxt.append((path + [letter], tableau_step(t, letter)))
        frontier = nxt
    assert counts == [1, 4, 36, 484]
    assert counts[2] == 36  # the grade-2 pair family

    # erase-cell identity, exhaustively over qualifying 3x3 configurations
    for mask in range(1, 1 << 9):
        t = Tableau.from_mask(3, 3, mask)
        for i1, i2, j1, j2 in product(range(3), repeat=4):
            if i1 == i2 or j1 == j2:
                continue
            if not (t.row_support(i1) <= t.row_support(i2)):
                continue
            if not (t.col_support(j1) <= t.col_support(j2)):
                continue
            letter = erase_cell_letter(t, i1, j1, i2, j2)
            assert tableau_step(t, letter) == Tableau(3, 3, t.cells - {(i1, j1)})

    # divisibility of the totals
    for n in range(2, 8):
        for k in range(1, 11):
            assert r_total(n, k) % n == 0

    report(
        11,
        "1000 path invariants, 500 commutation checks, exhaustive injectivity "
        "(1/4/36/484) and erase-cell identities, totals divisible by n",
    )


def test_12_lower_bound_sandwich():
    for m in range(2, 7):
        for n in range(2, 7):
            value = lower_bound_ie(m, n)
            assert value > 1 << ((m - 1) * (n - 1))
            assert value <= f_bound(m, n)
    report(12, "inclusion-exclusion bound sits strictly between 2^((m-1)(n-1)) and f")
