import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflesc import (
    MonsterLetter,
    SetVector,
    SizeGuardError,
    Tableau,
    Transformation,
    UPair,
    act,
    generate_graded,
    is_lvalid,
    is_rvalid,
    mirror,
    p_of_path,
    pair_of_settableau,
    s_projection,
    settableau_of_pair,
    shift_up,
    succ_elem,
    succ_left,
    succ_right,
    tableau_step,
    union_vec,
)
from shufflesc.automata import bits
from shufflesc import upair
from shufflesc.upair import _elements, graded_level, sort_canonically, successors


def sv(*parts):
    return SetVector(parts)


def random_letter(rng, m, n):
    return MonsterLetter(
        Transformation([rng.randrange(m) for _ in range(m)]),
        Transformation([rng.randrange(n) for _ in range(n)]),
    )


class TestSetVector:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            sv({1, 2}, {2, 3})
        with pytest.raises(ValueError, match=r"not pairwise disjoint: \[\{1,2\},\{2\}\]"):
            SetVector.of_masks([0b11, 0b10])

    def test_positive_elements(self):
        with pytest.raises(ValueError):
            sv({0, 1})
        with pytest.raises(ValueError, match="positive"):
            SetVector.of_masks([-1])

    def test_parts_are_masks(self):
        v = sv({1, 4}, set(), {2, 3})
        assert v.parts == (0b1001, 0, 0b0110)
        assert list(v) == [0b1001, 0, 0b0110] and v[2] == 0b0110
        assert SetVector.of_masks([0b1001, 0, 0b0110]) == v
        assert v.support == frozenset({1, 2, 3, 4})
        assert v.key() == ((1, 4), (), (2, 3))
        assert v.to_lists() == [[1, 4], [], [2, 3]]

    def test_text_form_and_parse(self):
        v = sv({1, 4}, {2, 7}, {3, 5, 6, 8})
        assert str(v) == "[{1,4},{2,7},{3,5,6,8}]"
        assert SetVector.parse(str(v)) == v
        assert SetVector.parse("[{1},{}]") == sv({1}, set())
        with pytest.raises(ValueError):
            SetVector.parse("{1},{2}")

    def test_grade(self):
        assert sv({1, 4}, {2, 7}, {3, 5, 6, 8}).grade() == 3
        assert SetVector.base(4).grade() == 0
        with pytest.raises(ValueError):
            sv({1, 3}).grade()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_text_roundtrip_random(self, data):
        length = data.draw(st.integers(1, 4))
        elements = data.draw(st.sets(st.integers(1, 20), max_size=10))
        assignment = {x: data.draw(st.integers(0, length - 1)) for x in elements}
        parts = [
            {x for x, slot in assignment.items() if slot == i} for i in range(length)
        ]
        v = SetVector(parts)
        assert SetVector.parse(str(v)) == v


def decoded(mask):
    """The elements of a part mask, straight from its set bits."""
    return tuple(b + 1 for b in bits(mask))


def disjoint_masks(rng, length, width):
    """`length` pairwise-disjoint random masks within the low `width` bits."""
    parts = [0] * length
    for b in range(width):
        slot = rng.randrange(length + 1)  # slot == length: element left out
        if slot < length:
            parts[slot] |= 1 << b
    return parts


class TestPartDecoding:
    """`_elements` is the one decode path of `key`, `to_lists`, `str` and the
    rank order of `sort_canonically`; each must agree with the set bits."""

    def check(self, v):
        expected = tuple(map(decoded, v.parts))
        assert v.key() == expected
        assert v.to_lists() == [list(p) for p in expected]
        assert str(v) == "[" + ",".join(
            "{" + ",".join(map(str, p)) + "}" for p in expected) + "]"

    def test_random_masks(self):
        rng = random.Random(11)
        for _ in range(300):
            v = SetVector.of_masks(disjoint_masks(rng, rng.randrange(1, 6), rng.randrange(70)))
            assert all(_elements(p) == decoded(p) for p in v.parts)
            self.check(v)

    def test_element_near_ten_thousand(self):
        v = SetVector.of_masks([1 << 9999, 0, 1 | 1 << 9996])
        assert _elements(v[0]) == (10000,)
        assert v.key() == ((10000,), (), (1, 9997))
        assert str(v) == "[{10000},{},{1,9997}]"
        self.check(v)

    def test_more_masks_than_the_cache_holds(self):
        size = _elements.cache_info().maxsize
        masks = range(3, 3 + 2 * size)
        for _ in range(2):  # the second pass finds the early masks evicted
            for mask in masks:
                assert _elements(mask) == decoded(mask)
        assert _elements.cache_info().currsize <= size
        self.check(SetVector.of_masks([masks[0], masks[-1] << 14]))

    def test_rank_order_on_mask_tuples(self):
        # one order for vectors and for their tuples of part masks
        rng = random.Random(13)
        vectors = [SetVector.of_masks(disjoint_masks(rng, 3, 12)) for _ in range(400)]
        assert sort_canonically([v.parts for v in vectors]) == [
            v.parts for v in sort_canonically(vectors)
        ]

    def test_rank_order_on_random_vectors(self):
        rng = random.Random(12)
        vectors = [SetVector.of_masks(disjoint_masks(rng, 3, 12)) for _ in range(400)]
        assert sort_canonically(vectors) == sorted(vectors, key=SetVector.key)
        assert sorted(vectors, key=SetVector.key) == sorted(
            vectors, key=lambda v: tuple(map(decoded, v.parts)))


class TestOperations:
    def test_act_worked_example(self):
        f_c = Transformation.from_map(4, {0: 2, 2: 3, 3: 3})
        assert act(sv({2, 4}, set(), {3}, {1}), f_c) == sv(set(), set(), {2, 4}, {1, 3})

    def test_act_identity_and_constant(self):
        v = sv({1}, {2})
        assert act(v, Transformation.identity(2)) == v
        assert act(v, Transformation.constant(2, 0)) == sv({1, 2}, set())

    def test_act_size_mismatch(self):
        with pytest.raises(ValueError):
            act(sv({1}, {2}), Transformation.identity(3))

    def test_shift_up(self):
        assert shift_up(sv({1}, set())) == sv({2}, set())
        assert shift_up(sv({2}, set(), {1})) == sv({4}, set(), {3})
        with pytest.raises(ValueError):
            shift_up(sv(set(), set()))

    def test_shift_up_after_act(self):
        g = Transformation([2, 2, 1])
        v = sv({1, 4}, {2}, {3})
        assert shift_up(act(v, g)) == sv(set(), {7}, {5, 6, 8})

    def test_union_vec(self):
        empty = sv(set(), set(), set(), set())
        v = sv({2, 4}, set(), {3}, {1})
        assert union_vec(v, empty) == v
        assert union_vec(sv(set(), set(), {2, 4}, {1, 3}), sv({6, 8}, set(), {7}, {5})) == sv(
            {6, 8}, set(), {2, 4, 7}, {1, 3, 5}
        )
        assert union_vec(sv({1, 4}, {2}, {3}), sv(set(), {7}, {5, 6, 8})) == sv(
            {1, 4}, {2, 7}, {3, 5, 6, 8}
        )
        with pytest.raises(ValueError):
            union_vec(sv({1}), sv({2}, set()))
        # operands sharing an element, across parts
        with pytest.raises(ValueError, match="not pairwise disjoint"):
            union_vec(sv({1}, set()), sv(set(), {1}))
        with pytest.raises(ValueError, match="not pairwise disjoint"):
            union_vec(sv({1, 2}, {3}), sv({4}, {2}))

    def test_succ_examples(self):
        assert succ_right(sv({1}, set(), set()), Transformation.from_map(3, {0: 1})) == sv(
            {1}, {2}, set()
        )
        assert succ_right(
            sv({1, 4}, {2}, {3}), Transformation([2, 2, 1])
        ) == sv({1, 4}, {2, 7}, {3, 5, 6, 8})
        assert succ_left(sv({1}, set(), set(), set()), Transformation.from_map(4, {0: 2})) == sv(
            {2}, set(), {1}, set()
        )

    def test_succ_elem_dispatch(self):
        v = sv({1}, set())
        g = Transformation([1, 1])
        assert succ_elem(v, g) == succ_right(v, g)
        assert succ_elem(v, g, side="left") == succ_left(v, g)
        with pytest.raises(ValueError):
            succ_elem(v, g, side="middle")


class TestValidity:
    def test_rvalid_examples(self):
        assert is_rvalid(sv({1, 4}, {2, 7}, {3, 5, 6, 8}), 3)
        assert is_rvalid(sv({1}, {2}), 1)
        assert not is_rvalid(sv({2}, {1}), 1)
        assert not is_rvalid(sv({1, 2}, {3}, {4}), 2)

    def test_mirror(self):
        assert mirror(sv({1, 2, 3, 4}, set()), 2) == sv({1, 2, 3, 4}, set())
        assert mirror(sv({1}, {2, 3, 4}), 2) == sv({4}, {1, 2, 3})

    def test_mirror_involution_on_generated(self):
        for v in generate_graded(3, 2):
            assert mirror(mirror(v, 2), 2) == v
            assert is_lvalid(mirror(v, 2), 2)

    def test_lvalid_is_mirrored_rvalid(self):
        lam = sv({6, 8}, set(), {2, 4, 7}, {1, 3, 5})
        assert is_lvalid(lam, 3)
        assert is_rvalid(mirror(lam, 3), 3)
        assert not is_lvalid(sv({3, 4}, {2}, {1}), 2)  # top pair forces 1, 2 together


# A frozenset reference for the mask calculus, written from the docstrings.


def ref_act(parts, h):
    out = [set() for _ in parts]
    for q, part in enumerate(parts):
        out[h(q)] |= part
    return [frozenset(p) for p in out]


def ref_shift_up(parts):
    r = max(frozenset().union(*parts))
    return [frozenset(x + r for x in p) for p in parts]


def ref_union(parts1, parts2):
    return [a | b for a, b in zip(parts1, parts2)]


def ref_mirror(parts, k):
    return [frozenset((1 << k) + 1 - x for x in p) for p in parts]


def ref_rvalid(parts, k):
    if frozenset().union(*parts) != frozenset(range(1, (1 << k) + 1)) or 1 not in parts[0]:
        return False
    part_of = {x: i for i, p in enumerate(parts) for x in p}
    for kp in range(k):
        h = 1 << kp
        for p in parts:
            if len({part_of[x + h] for x in p if x <= h}) > 1:
                return False
    return True


def ref_lvalid(parts, k):
    if frozenset().union(*parts) != frozenset(range(1, (1 << k) + 1)):
        return False
    return ref_rvalid(ref_mirror(parts, k), k)


def all_assignments(max_n=3, max_k=3):
    """Every assignment of {1..2^k} to n slots, n <= max_n and k <= max_k."""
    for n in range(1, max_n + 1):
        for k in range(max_k + 1):
            ground = range(1, (1 << k) + 1)
            for slots in product(range(n), repeat=1 << k):
                parts = [
                    frozenset(x for x, i in zip(ground, slots) if i == j) for j in range(n)
                ]
                yield n, k, parts


class TestMaskCalculus:
    """The mask calculus against the frozenset reference above, exhaustively
    on every assignment of {1..2^k} to n <= 3 slots with k <= 3."""

    def test_validity_verdicts(self):
        for n, k, parts in all_assignments():
            v = SetVector(parts)
            assert v.key() == tuple(tuple(sorted(p)) for p in parts)
            for kk in range(max(k - 1, 0), k + 2):
                assert is_rvalid(v, kk) == ref_rvalid(parts, kk), (parts, kk)
                assert is_lvalid(v, kk) == ref_lvalid(parts, kk), (parts, kk)

    def test_mirror_shift_and_union(self):
        for n, k, parts in all_assignments():
            v = SetVector(parts)
            assert mirror(v, k) == SetVector(ref_mirror(parts, k))
            assert mirror(v) == mirror(v, k)
            if k:
                with pytest.raises(ValueError):
                    mirror(v, k - 1)
            assert shift_up(v) == SetVector(ref_shift_up(parts))
            odd = [frozenset(x for x in p if x % 2) for p in parts]
            even = [frozenset(x for x in p if not x % 2) for p in parts]
            assert union_vec(SetVector(odd), SetVector(even)) == v
            assert union_vec(v, shift_up(v)) == SetVector(ref_union(parts, ref_shift_up(parts)))

    def test_act_every_map(self):
        for n, k, parts in all_assignments():
            v = SetVector(parts)
            for images in product(range(n), repeat=n):
                h = Transformation(images)
                assert act(v, h) == SetVector(ref_act(parts, h))


GRADE2_RIGHT_FAMILY = [
    "[{1,2,3,4},{}]",
    "[{1,2},{3,4}]",
    "[{1,3,4},{2}]",
    "[{1,4},{2,3}]",
    "[{1,3},{2,4}]",
    "[{1},{2,3,4}]",
]
GRADE2_LEFT_FAMILY = [
    "[{1,2,3,4},{}]",
    "[{3,4},{1,2}]",
    "[{1,2,4},{3}]",
    "[{1,4},{2,3}]",
    "[{2,4},{1,3}]",
    "[{4},{1,2,3}]",
]


class TestGenerateGraded:
    def test_base_case(self):
        assert generate_graded(4, 0) == [SetVector.base(4)]

    def test_grade2_length2_explicit(self):
        assert set(generate_graded(2, 2)) == {SetVector.parse(t) for t in GRADE2_RIGHT_FAMILY}
        assert set(generate_graded(2, 2, side="left")) == {
            SetVector.parse(t) for t in GRADE2_LEFT_FAMILY
        }

    def test_counts_length2(self):
        assert [len(generate_graded(2, k)) for k in range(5)] == [1, 2, 6, 22, 86]

    def test_left_is_mirror_of_right(self):
        right = generate_graded(3, 2)
        left = generate_graded(3, 2, side="left")
        assert {mirror(v, 2) for v in right} == set(left)

    def test_closure_matches_predicate_filter(self):
        # independent enumeration: assign each element of {1..2^k} to a part
        for n in (2, 3):
            for k in range(4):
                generated = set(generate_graded(n, k))
                ground = range(1, (1 << k) + 1)
                filtered = set()
                for assign in product(range(n), repeat=1 << k):
                    parts = [set() for _ in range(n)]
                    for x, i in zip(ground, assign):
                        parts[i].add(x)
                    v = SetVector(parts)
                    if is_rvalid(v, k):
                        filtered.add(v)
                assert generated == filtered

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            generate_graded(3, 3, max_count=100)

    def test_guard_bounds_the_maps_tried(self):
        # grade k tries n^(occupied parts) maps per vector of grade k - 1:
        # 3, 21 and 363 maps at n = 3, counted here from the vectors
        tries = [sum(3 ** v.nonempty_count() for v in generate_graded(3, k)) for k in range(3)]
        assert tries == [3, 21, 363]
        assert len(generate_graded(3, 3, max_count=363)) == 363
        with pytest.raises(SizeGuardError, match="grade 3 of length-3 vectors tries 363 maps"):
            generate_graded(3, 3, max_count=362)

    def test_guard_bounds_the_elements(self):
        # at n = 1 each grade tries one map, but a grade-k vector holds 2^k
        # elements; the guard refuses 2^k > max_count before building any
        assert graded_level(1, 3, max_count=8) == {(255,)}
        with pytest.raises(SizeGuardError, match="has grade 3, so 2\\^3 elements"):
            graded_level(1, 3, max_count=7)
        with pytest.raises(SizeGuardError, match="grade 0"):
            graded_level(2, 0, max_count=0)

    def test_level_is_the_family(self):
        for n in range(1, 5):
            for k in range(4):
                assert graded_level(n, k) == {v.parts for v in generate_graded(n, k)}

    @pytest.mark.parametrize("bad", [(1, 4), (1, 1, 1)])
    def test_construction_check(self, monkeypatch, bad):
        # a grade-1 tuple must partition {1, 2}: (1, 4) has two elements but
        # misses 2; the masks of (1, 1, 1) sum to that of {1, 2}, but they
        # repeat 1
        monkeypatch.setattr(upair, "successors", lambda p: iter([bad]))
        with pytest.raises(RuntimeError, match="does not partition"):
            graded_level(len(bad), 1)


class TestSuccessors:
    def test_masks_match_succ_right(self):
        # every map on the occupied parts, in product order, others fixed
        for n in range(1, 5):
            for k in range(3):
                for v in generate_graded(n, k):
                    occupied = [i for i, part in enumerate(v) if part]
                    expected = []
                    for images in product(range(n), repeat=len(occupied)):
                        g = list(range(n))
                        for i, t in zip(occupied, images):
                            g[i] = t
                        expected.append(succ_right(v, Transformation(g)).parts)
                    assert list(successors(v)) == expected
                    assert list(successors(v.parts)) == expected

    def test_sort_canonically_matches_key_order(self):
        rng = random.Random(3)
        vectors = generate_graded(4, 2) + generate_graded(3, 2) + generate_graded(2, 3, side="left")
        rng.shuffle(vectors)
        assert sort_canonically(vectors) == sorted(vectors, key=SetVector.key)
        assert sort_canonically([]) == []


class TestPOfPath:
    def test_empty_path(self):
        pair = p_of_path(4, 3, [])
        assert pair.left == SetVector.base(4)
        assert pair.right == SetVector.base(3)
        assert pair.grade == 0

    def test_worked_path(self, fig1_letters):
        pair = p_of_path(4, 3, list(fig1_letters))
        assert pair.left == sv({6, 8}, set(), {2, 4, 7}, {1, 3, 5})
        assert pair.right == sv({1, 4}, {2, 7}, {3, 5, 6, 8})

    def test_intermediate_pairs(self, fig1_letters):
        a, b, _ = fig1_letters
        assert p_of_path(4, 3, [a]).left == sv({2}, set(), {1}, set())
        assert p_of_path(4, 3, [a]).right == sv({1}, {2}, set())
        assert p_of_path(4, 3, [a, b]).left == sv({2, 4}, set(), {3}, {1})
        assert p_of_path(4, 3, [a, b]).right == sv({1, 4}, {2}, {3})

    def test_useful_restriction_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n = 3, 3
            path = [random_letter(rng, m, n) for _ in range(4)]
            pair = p_of_path(m, n, path)
            # replay, restricting each letter to the occupied rows/columns
            t = Tableau(m, n, {(0, 0)})
            restricted = []
            for letter in path:
                f = Transformation.from_map(
                    m, {i: letter.left(i) for i in t.occupied_rows()}
                )
                g = Transformation.from_map(
                    n, {j: letter.right(j) for j in t.occupied_cols()}
                )
                restricted.append(MonsterLetter(f, g))
                t = tableau_step(t, letter)
            assert p_of_path(m, n, restricted) == pair


class TestUPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            UPair(sv({1}, {2}), sv({1}, {2}))  # left side is not Lvalid
        with pytest.raises(ValueError):
            UPair(sv({2}, {1}), sv({1, 2, 3, 4}, set()))  # grades differ

    def test_json_roundtrip(self, fig1_letters):
        pair = p_of_path(4, 3, list(fig1_letters))
        obj = pair.to_json()
        assert obj["k"] == 3
        assert UPair.from_json(obj) == pair

    def test_json_grade_must_match_k(self):
        with pytest.raises(ValueError, match="grade 0"):
            UPair.from_json({"k": 7, "left": [[1]], "right": [[1]]})
        assert UPair.from_json({"left": [[1]], "right": [[1]]}).grade == 0

    def test_json_large_element_refused_before_masks(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="left side lists 1 elements, none can exceed 1"):
                UPair.from_json({"left": [[10**8]], "right": [[1]]})
            with pytest.raises(ValueError, match="right side lists 4 elements"):
                UPair.from_json({"left": [[1, 2], [3, 4]], "right": [[1, 2, 3], [10**12]]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestProjection:
    def test_worked_example(self):
        pair = UPair(
            sv({6, 8}, set(), {2, 4, 7}, {1, 3, 5}), sv({1, 4}, {2, 7}, {3, 5, 6, 8})
        )
        assert s_projection(pair) == Tableau(
            4, 3, {(0, 2), (2, 0), (2, 1), (3, 0), (3, 2)}
        )

    def test_base(self):
        assert s_projection(UPair(SetVector.base(2), SetVector.base(3))) == Tableau(
            2, 3, {(0, 0)}
        )

    def test_matches_tableau_replay(self):
        rng = random.Random(11)
        for _ in range(60):
            path = [random_letter(rng, 3, 3) for _ in range(rng.randrange(4))]
            t = Tableau(3, 3, {(0, 0)})
            for letter in path:
                t = tableau_step(t, letter)
            assert s_projection(p_of_path(3, 3, path)) == t

    def test_commutes_with_step(self):
        rng = random.Random(13)
        for _ in range(60):
            path = [random_letter(rng, 3, 2) for _ in range(rng.randrange(3))]
            step = random_letter(rng, 3, 2)
            lhs = s_projection(p_of_path(3, 2, path + [step]))
            rhs = tableau_step(s_projection(p_of_path(3, 2, path)), step)
            assert lhs == rhs


class TestSetTableau:
    def test_worked_example(self):
        cells = {
            (0, 2): {6, 8},
            (2, 0): {4},
            (2, 1): {2, 7},
            (3, 0): {1},
            (3, 2): {3, 5},
        }
        pair = pair_of_settableau(cells, 4, 3)
        assert pair.left == sv({6, 8}, set(), {2, 4, 7}, {1, 3, 5})
        assert pair.right == sv({1, 4}, {2, 7}, {3, 5, 6, 8})
        back = settableau_of_pair(pair)
        assert back == {k: frozenset(v) for k, v in cells.items()}

    def test_single_cell(self):
        pair = pair_of_settableau({(0, 0): {1}}, 3, 2)
        assert pair.left == SetVector.base(3)
        assert pair.right == SetVector.base(2)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            pair_of_settableau({(0, 0): {1, 2}, (0, 1): {2}}, 1, 2)

    def test_roundtrip_random_pairs(self):
        rng = random.Random(17)
        done = 0
        while done < 100:
            path = [random_letter(rng, 3, 3) for _ in range(rng.randrange(1, 4))]
            pair = p_of_path(3, 3, path)
            assert pair_of_settableau(settableau_of_pair(pair), 3, 3) == pair
            done += 1


class TestBasicFacts:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_stamp_partition_and_disjointness(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 3))
        length = data.draw(st.integers(0, 5))
        path = [
            MonsterLetter(
                Transformation(data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))),
                Transformation(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))),
            )
            for _ in range(length)
        ]
        pair = p_of_path(m, n, path)  # construction already validates both sides
        ground = frozenset(range(1, (1 << length) + 1))
        assert pair.left.support == ground
        assert pair.right.support == ground
        assert pair.grade == length


class TestInjectivity:
    def enumerate_useful_paths(self, m, n, k):
        """All useful paths of the given length: at each step, one map per
        occupied-row assignment and occupied-column assignment."""
        paths = [([], Tableau(m, n, {(0, 0)}))]
        for _ in range(k):
            nxt = []
            for path, t in paths:
                rows, cols = t.occupied_rows(), t.occupied_cols()
                for f in product(range(m), repeat=len(rows)):
                    for g in product(range(n), repeat=len(cols)):
                        letter = MonsterLetter(
                            Transformation.from_map(m, dict(zip(rows, f))),
                            Transformation.from_map(n, dict(zip(cols, g))),
                        )
                        nxt.append((path + [letter], tableau_step(t, letter)))
            paths = nxt
        return paths

    def test_useful_paths_biject_with_pairs(self):
        for k, expected in ((0, 1), (1, 4), (2, 36), (3, 484)):
            paths = self.enumerate_useful_paths(2, 2, k)
            images = {p_of_path(2, 2, path) for path, _ in paths}
            assert len(paths) == len(images) == expected

    def test_cartesian_factorization(self):
        for m, n in ((2, 2), (3, 2)):
            for k in range(3):
                images = {
                    (pair.left, pair.right)
                    for pair in (
                        p_of_path(m, n, path)
                        for path, _ in self.enumerate_useful_paths(m, n, k)
                    )
                }
                lefts = set(generate_graded(m, k, side="left"))
                rights = set(generate_graded(n, k))
                assert images == {(l, r) for l in lefts for r in rights}
