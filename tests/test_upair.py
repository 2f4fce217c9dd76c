import hashlib
import random
import re
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
    succ_left,
    succ_right,
    tableau_step,
    union_vec,
)
from shufflesc.automata import bits
from shufflesc import upair
from shufflesc.upair import Packing, _elements, graded_level, witness_full


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

    @pytest.mark.parametrize("mask", [1.5, True], ids=["float", "bool"])
    def test_of_masks_non_integer_refused(self, mask):
        # a float has no bit count, and True is not the part {1}
        with pytest.raises(ValueError, match=f"^{re.escape(str(mask))} is not an integer$"):
            SetVector.of_masks([0, mask])

    def test_base_needs_a_part(self):
        with pytest.raises(ValueError, match="^length must be at least 1$"):
            SetVector.base(0)

    @pytest.mark.parametrize("text", ["[{1},2]", "[{1}{2}]", "[{1},{2]"])
    def test_parse_refuses_a_bracketed_non_literal(self, text):
        with pytest.raises(ValueError, match="^not a set-vector literal"):
            SetVector.parse(text)

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


def rank_order(packing, vectors):
    """`vectors`, tuples of part masks, packed and sorted by their rank
    tuples from `Packing.ranks`, then decoded back to part masks."""
    ranks, parts = packing.ranks(list(map(packing.pack, vectors)))
    return [tuple(map(parts.__getitem__, r)) for r in sorted(ranks)]


def successor_parts(v):
    """`Packing.successors` of v, unpacked, in the least grade k that holds
    them (2r <= 2^k, r the largest element of v)."""
    r = max(v.parts).bit_length()
    packing = Packing(len(v), (2 * r - 1).bit_length())
    return list(map(packing.unpack, packing.successors(packing.pack(v.parts), r)))


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
    rank order of `Packing.ranks`; each must agree with the set bits."""

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
        # the rank tuples decode back to the level in its own order, and the
        # parts they index are distinct, in the order of their elements
        rng = random.Random(13)
        vectors = [tuple(disjoint_masks(rng, 3, 12)) for _ in range(400)]
        packing = Packing(3, 4)  # elements up to 12 <= 2^4
        ranks, parts = packing.ranks(list(map(packing.pack, vectors)))
        assert [tuple(map(parts.__getitem__, r)) for r in ranks] == vectors
        assert len(set(parts)) == len(parts)
        assert list(map(_elements, parts)) == sorted(map(_elements, parts))
        assert rank_order(packing, vectors) == [
            v.parts for v in sorted(map(SetVector.of_masks, vectors), key=SetVector.key)
        ]

    def test_rank_order_on_random_vectors(self):
        rng = random.Random(12)
        vectors = [SetVector.of_masks(disjoint_masks(rng, 3, 12)) for _ in range(400)]
        assert rank_order(Packing(3, 4), [v.parts for v in vectors]) == [
            v.parts for v in sorted(vectors, key=SetVector.key)
        ]
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
        assert {mirror(v, 2) for v in generate_graded(2, 2)} == {
            SetVector.parse(t) for t in GRADE2_LEFT_FAMILY
        }

    def test_counts_length2(self):
        assert [len(generate_graded(2, k)) for k in range(5)] == [1, 2, 6, 22, 86]

    def test_left_is_mirror_of_right(self):
        # the mirrored right family is the left-valid family, enumerated
        # independently by assigning each element of {1..2^k} to a part
        for n in (2, 3):
            for k in range(4):
                left = {mirror(v, k) for v in generate_graded(n, k)}
                ground = range(1, (1 << k) + 1)
                filtered = set()
                for assign in product(range(n), repeat=1 << k):
                    parts = [set() for _ in range(n)]
                    for x, i in zip(ground, assign):
                        parts[i].add(x)
                    if is_lvalid(v := SetVector(parts), k):
                        filtered.add(v)
                assert left == filtered

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

    @pytest.mark.parametrize(
        "n, k, message",
        [(0, 1, "n must be at least 1"), (2, -1, "k must be at least 0"), (-2, 1, "n must be at least 1")],
        ids=["0-1", "2--1", "-2-1"],
    )
    def test_bad_sizes_refused(self, n, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_graded(n, k)

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
        assert graded_level(1, 3, max_count=8) == [255]
        with pytest.raises(SizeGuardError, match="has grade 3, so 2\\^3 elements"):
            graded_level(1, 3, max_count=7)
        with pytest.raises(SizeGuardError, match="grade 0"):
            graded_level(2, 0, max_count=0)

    def test_level_is_the_family(self):
        # the packed level, unpacked, is the family, with no vector twice
        for n in range(1, 5):
            for k in range(4):
                level = list(map(Packing(n, k).unpack, graded_level(n, k)))
                assert len(set(level)) == len(level)
                assert set(level) == {v.parts for v in generate_graded(n, k)}

    @pytest.mark.parametrize("bad", [(1, 4), (1, 1, 1), (1, 0), (1, 1), (3, 1)])
    def test_construction_check(self, monkeypatch, bad):
        # a grade-1 vector must partition {1, 2}: (1, 4) has two elements but
        # misses 2, its 3 in the headroom of field 1; the masks of (1, 1, 1)
        # sum to that of {1, 2}, but they repeat 1; (1, 0) misses 2; (1, 1)
        # holds two elements but repeats 1; in (3, 1) the sum carries
        packed = Packing(len(bad), 1).pack(bad)
        monkeypatch.setattr(upair.Packing, "successors", lambda self, x, r: iter([packed]))
        with pytest.raises(RuntimeError, match=f"successor {re.escape(str(bad))} does not partition"):
            graded_level(len(bad), 1)

    # sha256 of repr(sorted level as tuples of part masks), recorded before
    # the levels were packed
    LEVEL_DIGESTS = {
        (1, 0): "2f89a856b49d78145fad2bef112e0a7279679104ddb8b55e95b949266fe943ac",
        (1, 1): "9d1803cfcfb10fed88d8efdc2b0320705e0f329726a6587849f3fa141c265500",
        (1, 2): "a8ffcdd48813623ca31cefbb64bff801a9ac180a51fe89c263cb60f9e4d0198f",
        (1, 3): "0e106d18633f9cd2826a5a2edf48f3ea4dc21428ef56d236b98ed107c52117dc",
        (2, 0): "fcbd8f2ee97e86ea25ede7fbf892fa8f8d0846fb35e5e9c91a20c7996fe7f963",
        (2, 1): "9424ad6f913d0810df1f7c0aa8947452bbf5925d2560d52819a1a56677353e5a",
        (2, 2): "528560466b9efe982c15cae206a23a0dbc226d451c0a3f46e6d85be96878d77f",
        (2, 3): "ee411fd2dda5c28cff4391c923bd1fd2527854a91c3b5606ec270d55c5940a47",
        (3, 0): "21c7e30459d5023955ac3a41c8088d363c412830991c1a320cec4894e1fea4e4",
        (3, 1): "42d6cedc36e77ad8a94fbd622a1c90be492142f9c7399b11be2fd1006822dc64",
        (3, 2): "3e6c3d7ea4195cf35662b5d5b05248841d7af233514b28e32df5812a6a00ea38",
        (3, 3): "1eec9509eae56ec1eb343e8703ebe63469771de3537799ba447649a74d488e6d",
        (4, 0): "622ccf915757e314e643599111b8974d269e6315f487b7134e21253472609fd1",
        (4, 1): "1fcccc5b63cbae0eb5023db5cba13ee852482e58c46b84887c295b513c8884cf",
        (4, 2): "fbafdb12ec655e18346aaaa6bce0c65794b9354a95e1e32b81036fff3193a75f",
        (4, 3): "f190943ceee72e22e070c1f037ded276e6febf2649790041770ceda32bb6cb0c",
        (5, 0): "6af224e6f8d6d8eb782436b3e3d96689dda1ba843b3271d35807e8355c44e9d7",
        (5, 1): "1c10f3b4083f7ce749972df42f85623d9d0fb90f88d0b290e005b5d927582bbf",
        (5, 2): "d156c409a52a750595b33ebf299a2a4d5783e714ee5f91f04b409b6857ec4461",
        (5, 3): "f8ca81e211688c9f0c910f3de86d11bc895b2d5b76b96c111c5fe8b0b21fdce3",
        (6, 0): "34a97d88a2724c57adba36fe9043363d0a4239b95715cb3ab77ed3574ac65333",
        (6, 1): "5e5bf73aeccb06e6429f940a29eb464327fd047756b3498c20fc3a4accb62719",
        (6, 2): "f6238948d7aee814c72e670300f594e61f408c6c683c0791dc74afe8e764907b",
        (6, 3): "0b35ca4fb0517cbeee6e41ebadc773e8722080431950937832c942f2004be521",
        (3, 4): "300b9bc79e7f97e0c9f475527b32e2fecccebb27e07afa4298c6d1dbebb3260f",
        (2, 5): "2ad1c19dfa5254cc394d1339f8781bfe2cc79916918a7b506a5d29d3b0260d41",
        (1, 6): "34185ec183022599da95ec7d6d8efd4d02df83dfb39d3f73a76f6c52d38047f6",
    }

    @pytest.mark.parametrize("n, k", sorted(LEVEL_DIGESTS))
    def test_level_digest(self, n, k):
        level = sorted(map(Packing(n, k).unpack, graded_level(n, k)))
        assert hashlib.sha256(repr(level).encode()).hexdigest() == self.LEVEL_DIGESTS[n, k]

    # sha256 of repr([v.parts for v in vectors]), the right family in the
    # order `generate_graded` returns and the left family in the same
    # canonical order, recorded before the listing was sorted by the ranks
    # of `Packing.ranks`
    ORDER_DIGESTS = {
        ("right", 1, 0): "2f89a856b49d78145fad2bef112e0a7279679104ddb8b55e95b949266fe943ac",
        ("right", 1, 1): "9d1803cfcfb10fed88d8efdc2b0320705e0f329726a6587849f3fa141c265500",
        ("right", 1, 2): "a8ffcdd48813623ca31cefbb64bff801a9ac180a51fe89c263cb60f9e4d0198f",
        ("right", 1, 3): "0e106d18633f9cd2826a5a2edf48f3ea4dc21428ef56d236b98ed107c52117dc",
        ("right", 2, 0): "fcbd8f2ee97e86ea25ede7fbf892fa8f8d0846fb35e5e9c91a20c7996fe7f963",
        ("right", 2, 1): "9424ad6f913d0810df1f7c0aa8947452bbf5925d2560d52819a1a56677353e5a",
        ("right", 2, 2): "8a39169250beacf4ae12468eaaf000753ef1e839dec5f73676ebb22b4e79bd6b",
        ("right", 2, 3): "a2547b309ec71d2e5773e15b987d4695c732ce91b0c0233d29cc10f4507792cc",
        ("right", 3, 0): "21c7e30459d5023955ac3a41c8088d363c412830991c1a320cec4894e1fea4e4",
        ("right", 3, 1): "42d6cedc36e77ad8a94fbd622a1c90be492142f9c7399b11be2fd1006822dc64",
        ("right", 3, 2): "c09b5e4e0885946ad68ef16c38b8c39931c15bfe16aa8b22483772aa0e86a2e9",
        ("right", 3, 3): "2a8044405e01819f1983b4249c5289a77626c8fb264c6ce3ee1133653fcc7cd9",
        ("right", 4, 0): "622ccf915757e314e643599111b8974d269e6315f487b7134e21253472609fd1",
        ("right", 4, 1): "1fcccc5b63cbae0eb5023db5cba13ee852482e58c46b84887c295b513c8884cf",
        ("right", 4, 2): "7600a0789310014a6c6667bb9b639bba68c5b69cbe8f6d63eb146bedebb4d976",
        ("right", 4, 3): "c79f82778ec53d5698c4e2b44d673948e5307ab61b52535ecdee0e5269a8c350",
        ("right", 5, 0): "6af224e6f8d6d8eb782436b3e3d96689dda1ba843b3271d35807e8355c44e9d7",
        ("right", 5, 1): "1c10f3b4083f7ce749972df42f85623d9d0fb90f88d0b290e005b5d927582bbf",
        ("right", 5, 2): "e729137f10c637a5937c26aae2e166ca76bbea67f452a9e06d53a8c397ef6ed7",
        ("right", 5, 3): "a63590b20fdda98f73e3d60efdf0e21966b69d07d1d9a79a52b6f964b7ba4924",
        ("right", 6, 0): "34a97d88a2724c57adba36fe9043363d0a4239b95715cb3ab77ed3574ac65333",
        ("right", 6, 1): "5e5bf73aeccb06e6429f940a29eb464327fd047756b3498c20fc3a4accb62719",
        ("right", 6, 2): "89fde59ac79ce0128b701016b34908c825004dea926b9e7adf3cbe2d7363aadb",
        ("right", 6, 3): "ffa2a478741afb42b3a3f525704ce9dfe5ebf825dd73622d04ec17fd8c70aa0a",
        ("right", 3, 4): "4092aef362ce1d4dd78bfd1f05c44917aa669452be2b5dac6d2ad7d1360ab88a",
        ("right", 2, 5): "2572a170bdbe02dbea68c3483f07b48a2448a578cbb552b913659061a51bd867",
        ("right", 1, 6): "34185ec183022599da95ec7d6d8efd4d02df83dfb39d3f73a76f6c52d38047f6",
        ("left", 1, 0): "2f89a856b49d78145fad2bef112e0a7279679104ddb8b55e95b949266fe943ac",
        ("left", 1, 1): "9d1803cfcfb10fed88d8efdc2b0320705e0f329726a6587849f3fa141c265500",
        ("left", 1, 2): "a8ffcdd48813623ca31cefbb64bff801a9ac180a51fe89c263cb60f9e4d0198f",
        ("left", 1, 3): "0e106d18633f9cd2826a5a2edf48f3ea4dc21428ef56d236b98ed107c52117dc",
        ("left", 2, 0): "fcbd8f2ee97e86ea25ede7fbf892fa8f8d0846fb35e5e9c91a20c7996fe7f963",
        ("left", 2, 1): "444854e181566b1d313976391a1fdfdfdf0078a54000f0fc6a3b2817d58cc5e5",
        ("left", 2, 2): "0c74093faa2d5dac4dffd94ecdeeb92e8c2f3bb057ab1db7e4e0a82d1d80841a",
        ("left", 2, 3): "b3478df3ab700292dbc3d1cd846d2376cdd88144e948638dc0463af57b878b70",
        ("left", 3, 0): "21c7e30459d5023955ac3a41c8088d363c412830991c1a320cec4894e1fea4e4",
        ("left", 3, 1): "54b7c72a6f3a7aec02a47d1a210646d323e71b72f132026815571e7a8953cf47",
        ("left", 3, 2): "d299581bc7a5e2fbe2aebcdb29d396bfee8ded8f6b9d129f65ed062a12666314",
        ("left", 3, 3): "110e4175b403501b892e4432b1fbd44b4ed131c4548cb7b5d7a5e7d6730c0bfa",
        ("left", 4, 0): "622ccf915757e314e643599111b8974d269e6315f487b7134e21253472609fd1",
        ("left", 4, 1): "51f7d5b7cb0f18928fd6397085c58321bb65f5be00d92e5a1d32a7aa278d75df",
        ("left", 4, 2): "0f6ebd03eacc209b3708c050a84ce8b18a40d96296aaab06bd04ad9307ded06d",
        ("left", 4, 3): "2070959f1cd485673df5f67ed65b98a3b5fcdda2ae3cf9391ae9c770786ed327",
        ("left", 5, 0): "6af224e6f8d6d8eb782436b3e3d96689dda1ba843b3271d35807e8355c44e9d7",
        ("left", 5, 1): "23349fbdaf908d3d04f96f54f859ec0e2bc38d4939a43814da838585387081ab",
        ("left", 5, 2): "80d3eaa00297347472cdb2eb8e76e41c19654ecfcef451f8fc7b9f14921842b2",
        ("left", 5, 3): "4584b8c23d9dd860e40f53dd156e107588cf5d4e3c5e9abd36bc05afe07b87cf",
        ("left", 6, 0): "34a97d88a2724c57adba36fe9043363d0a4239b95715cb3ab77ed3574ac65333",
        ("left", 6, 1): "a659c259ebdb05904c9805c8b5ded32d3b0455f4aab8f954223c5797b5e62479",
        ("left", 6, 2): "b444c3a3f3b5c2e16093c35a719d5e29b3fc7376852b8919c7ef903b3ee32594",
        ("left", 6, 3): "cf16e407c72d590897d6998f03cdd021eda3590791c1e674bfd0e20cd3dc55a3",
        ("left", 3, 4): "3140463baa3a7479c6dc50cdbf4084257575b6fd9ed58203aa7961da95b79167",
        ("left", 2, 5): "cddbe9d77b7b621526d4ed2777dc99ad9ca4e0f008dc4c047ec316cc9b7ab53f",
        ("left", 1, 6): "34185ec183022599da95ec7d6d8efd4d02df83dfb39d3f73a76f6c52d38047f6",
    }

    @pytest.mark.parametrize("side, n, k", sorted(ORDER_DIGESTS))
    def test_order_digest(self, side, n, k):
        vectors = generate_graded(n, k)
        if side == "left":
            # the left family is the mirror of the right one
            vectors = sorted((mirror(v, k) for v in vectors), key=SetVector.key)
        assert vectors == sorted(set(vectors), key=SetVector.key)
        digest = hashlib.sha256(repr([v.parts for v in vectors]).encode()).hexdigest()
        assert digest == self.ORDER_DIGESTS[side, n, k]


class TestPacking:
    """The packed layout: part t in field t of `width` = 2^k + n.bit_length()
    bits, and the whole-vector operations on it."""

    def random_parts(self, rng, n, k):
        # fields from empty to full (2^W - 1, W = 2^k), mostly at the ends
        w = 1 << k
        return tuple(
            rng.choice([0, (1 << w) - 1, rng.randrange(1 << w)]) for _ in range(n)
        )

    def test_pack_round_trip(self):
        rng = random.Random(21)
        for n in range(1, 7):
            for k in range(5):
                packing = Packing(n, k)
                for _ in range(20):
                    parts = self.random_parts(rng, n, k)
                    x = packing.pack(parts)
                    assert packing.unpack(x) == parts
                    assert x == sum(p << (t * packing.width) for t, p in enumerate(parts))

    def test_nonempty_counts(self):
        rng = random.Random(22)
        for n in range(1, 7):
            for k in range(5):
                packing = Packing(n, k)
                vectors = [self.random_parts(rng, n, k) for _ in range(40)]
                full = (1 << (1 << k)) - 1
                vectors += [(full,) * n, (0,) * n, (full,) + (0,) * (n - 1)]
                counts = list(packing.nonempty_counts(list(map(packing.pack, vectors))))
                assert counts == [len(s) - s.count(0) for s in vectors]

    def test_top_field(self):
        # element 2^k in every field position, the rest of {1..2^k} spread
        rng = random.Random(23)
        for n in range(1, 7):
            for k in range(5):
                packing = Packing(n, k)
                top = 1 << ((1 << k) - 1)
                for t in range(n):
                    parts = disjoint_masks(rng, n, (1 << k) - 1)
                    parts[t] |= top
                    assert packing.top_field(packing.pack(parts)) == t

    def test_misfits(self):
        # width 4 + 2 = 6, so each field holds a part of {1..4} and 2 bits of
        # headroom; the comments say which of the three checks fails
        packing = Packing(3, 2)
        good = [packing.pack(p) for p in [(0b1111, 0, 0), (0b0101, 0b1010, 0), (1, 2, 12)]]
        bad = [
            packing.pack((0b0111, 0, 0)),  # 4 missing: the count and the sum
            packing.pack((0b0011, 0b0001, 0b1000)),  # 1 repeated, 4 elements: the sum
            packing.pack((0b0001, 0b0001, 0b1101)),  # 1 repeated, sum {1..4}: the count
            packing.pack((0b1100, 0b0100, 0b0001)),  # 3 repeated, the sum carries
            # into the headroom, 4 elements: the sum
            packing.pack((0b0111, 0b10000, 0)),  # element 5, in the headroom: the sum
            packing.pack((0b0111, 0, 0)) | 1 << (3 * packing.width + 3),  # element 4 past
            # the last field, both congruences hold: only the bound
            0,
        ]
        assert list(packing.misfits(good)) == []
        assert list(packing.misfits(good + bad + good)) == bad
        assert list(packing.misfits(bad)) == bad


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
                    assert successor_parts(v) == expected

    def test_masks_match_succ_right_off_the_grades(self):
        # vectors whose largest element is no power of two, so the packed
        # fields of the successors are sized from it, not from a grade
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randrange(1, 5)
            v = SetVector.of_masks(disjoint_masks(rng, n, rng.randrange(1, 12)))
            occupied = [i for i, part in enumerate(v) if part]
            if not occupied:
                assert successor_parts(v) == [v.parts]
                continue
            expected = []
            for images in product(range(n), repeat=len(occupied)):
                g = list(range(n))
                for i, t in zip(occupied, images):
                    g[i] = t
                expected.append(succ_right(v, Transformation(g)).parts)
            assert successor_parts(v) == expected

    def test_rank_order_matches_key_order(self):
        rng = random.Random(3)
        for n, k, side in [(4, 2, "right"), (3, 2, "right"), (2, 3, "left")]:
            vectors = generate_graded(n, k)
            if side == "left":
                vectors = [mirror(v, k) for v in vectors]
            rng.shuffle(vectors)
            assert rank_order(Packing(n, k), [v.parts for v in vectors]) == [
                v.parts for v in sorted(vectors, key=SetVector.key)
            ]
        assert Packing(2, 1).ranks([]) == ([], [])


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
        with pytest.raises(ValueError, match=r"^right vector is not 1-Rvalid: \[\{2\},\{1\}\]$"):
            UPair(sv({2}, {1}), sv({2}, {1}))  # 1 is not in the right side's first part

    def test_json_roundtrip(self, fig1_letters):
        pair = p_of_path(4, 3, list(fig1_letters))
        obj = pair.to_json()
        assert obj["k"] == 3
        assert UPair.from_json(obj) == pair

    def test_json_grade_must_match_k(self):
        with pytest.raises(ValueError, match="grade 0"):
            UPair.from_json({"k": 7, "left": [[1]], "right": [[1]]})
        assert UPair.from_json({"left": [[1]], "right": [[1]]}).grade == 0

    @pytest.mark.parametrize("left", [[[1.9]], [[1.0]], [[True]], [["1"]]])
    def test_json_non_integer_element_refused(self, left):
        # 1.9 is not read as element 1, nor true as 1
        with pytest.raises(ValueError, match="is not an integer"):
            UPair.from_json({"left": left, "right": [[1]]})

    def test_json_non_integer_grade_refused(self):
        with pytest.raises(ValueError, match="^True is not an integer$"):
            UPair.from_json({"k": True, "left": [[1, 2]], "right": [[1], [2]]})

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

    @pytest.mark.parametrize(
        "cells, message",
        [
            ({(0, 0): {1}, (0, 2): {2}}, "cell out of 2x2 range: [(0, 0), (0, 2)]"),
            ({(0, 0): {1}, (2, 1): {2}}, "cell out of 2x2 range: [(0, 0), (2, 1)]"),
            ({(0, 0): {1}, (-1, 0): {2}}, "cell out of 2x2 range: [(-1, 0), (0, 0)]"),
            ({(0, 0): {1}, (1.0, 0): {2}}, "1.0 is not an integer"),
            ({(0, 0): {1}, (0, True): {2}}, "True is not an integer"),
            # checked before the contents: these overlap as well
            ({(0, 0): {1}, (5, 0): {1}}, "cell out of 2x2 range: [(0, 0), (5, 0)]"),
        ],
        ids=["column-2", "row-2", "row--1", "float-row", "bool-column", "before-contents"],
    )
    def test_cell_outside_the_grid_refused(self, cells, message):
        # an index of m or n once raised IndexError, a float TypeError, and
        # -1 read the last row or column
        with pytest.raises(ValueError) as info:
            pair_of_settableau(cells, 2, 2)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_negative_cells_are_not_read_from_the_end(self):
        cells = settableau_of_pair(witness_full(2, 2))
        wrapped = {(-i, -j): c for (i, j), c in cells.items()}  # -1 for row and column 1
        assert pair_of_settableau(cells, 2, 2) == witness_full(2, 2)
        with pytest.raises(ValueError, match=r"^cell out of 2x2 range: "):
            pair_of_settableau(wrapped, 2, 2)

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
                lefts = {mirror(v, k) for v in generate_graded(m, k)}
                rights = set(generate_graded(n, k))
                assert images == {(l, r) for l in lefts for r in rights}
