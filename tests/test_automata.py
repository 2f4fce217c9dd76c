import hashlib
import json
import random
import re
from collections import deque
from functools import reduce
from itertools import product
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflesc import (
    Dfa,
    MonsterLetter,
    Nfa,
    Transformation,
    determinize,
    dfa_from_json,
    dfa_to_json,
    minimize,
    nfa_from_json,
    nfa_to_json,
    shuffle_nfa,
)
from shufflesc.automata import bits, moore_refine
from shufflesc.monster import f_bound, monster_dfa


def dfa_of(state_count, alphabet, initial, finals, delta):
    """The DFA whose successor of state q under letter a is delta[(q, a)]."""
    table = [[delta[(q, a)] for a in alphabet] for q in range(state_count)]
    return Dfa(state_count, alphabet, initial, finals, table)


def nfa_of(state_count, alphabet, initials, finals, delta):
    """The NFA whose successors of state q under letter a are the set
    delta[(q, a)], none where the key is missing."""
    table = [
        [sum(1 << d for d in set(delta.get((q, a), ()))) for a in alphabet]
        for q in range(state_count)
    ]
    return Nfa(state_count, alphabet, initials, finals, table)


def dfa_json(states, alphabet, triples):
    """The JSON form of an automaton with initial state 0 and final state 1."""
    return {"states": states, "alphabet": alphabet, "initial": 0, "finals": [1], "delta": triples}


def single_word_dfa(word, alphabet):
    """Complete DFA accepting exactly `word`, with a sink."""
    n = len(word)
    sink = n + 1
    delta = {}
    for q in range(n + 2):
        for a in alphabet:
            delta[(q, a)] = sink
    for i, a in enumerate(word):
        delta[(i, a)] = i + 1
    return dfa_of(n + 2, alphabet, 0, {n}, delta)


def eps_dfa(alphabet):
    delta = {(q, a): 1 for q in range(2) for a in alphabet}
    return dfa_of(2, alphabet, 0, {0}, delta)


def language(d, max_len):
    out = set()
    words = [()]
    for _ in range(max_len + 1):
        out |= {w for w in words if d.accepts(w)}
        words = [w + (a,) for w in words for a in d.alphabet]
    return out


class TestTransformation:
    def test_cycle(self):
        c = Transformation.cycle(4, [0, 1, 2, 3])
        assert c.images == (1, 2, 3, 0)
        swap = Transformation.cycle(2, [0, 1])
        assert swap.images == (1, 0)

    def test_cycle_points_checked(self):
        # a point outside 0..n-1 is not a list index, and a repeated point
        # is refused, as from_map refuses its keys
        for points, message in [
            ([2, -1], "point -1 not within range\\(3\\)"),
            ([0, 3], "point 3 not within range\\(3\\)"),
            ([-1, 1], "point -1 not within range\\(3\\)"),
            ([1, 1], "point 1 given twice"),
            ([0, 2, 1, 2], "point 2 given twice"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                Transformation.cycle(3, points)
        assert Transformation.cycle(3, []) == Transformation.cycle(3, [1]) == Transformation.identity(3)

    def test_constructors(self):
        assert Transformation.identity(3).images == (0, 1, 2)
        assert Transformation.constant(3, 2).images == (2, 2, 2)
        assert Transformation.from_map(4, {0: 2}).images == (2, 1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Transformation([0, 3])

    def test_from_map_keys_out_of_range(self):
        # a negative key is not an index from the end, and a key of n or
        # more is bad input, not an IndexError
        for key in (-1, -3, 3, 7):
            with pytest.raises(ValueError, match=f"^key {key} not within range\\(3\\)$"):
                Transformation.from_map(3, {key: 0})
        assert Transformation.from_map(3, {2: 0, 0: 1}).images == (1, 1, 0)

    @pytest.mark.parametrize(
        "make, value",
        [
            (lambda: Transformation.from_map(3, {0.5: 1}), "0.5"),
            (lambda: Transformation.from_map(3, {True: 1}), "True"),
            (lambda: Transformation.cycle(3, [0.0, 1]), "0.0"),
            (lambda: Transformation.cycle(3, [1, True]), "True"),
            (lambda: Transformation.cycle(1, [True]), "True"),
        ],
        ids=["float-key", "bool-key", "float-point", "bool-point-twice", "bool-point-range"],
    )
    def test_non_integer_key_or_point_refused(self, make, value):
        # a key or point is checked as an integer before its range: a float
        # is no list index, and True is not the key or point 1
        with pytest.raises(ValueError, match=f"^{re.escape(value)} is not an integer$"):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Transformation.identity(-1), "size -1 is negative"),
            (lambda: Transformation.constant(-2, 0), "size -2 is negative"),
            (lambda: Transformation.cycle(-1, []), "size -1 is negative"),
            (lambda: Transformation.from_map(-1, {}), "size -1 is negative"),
            (lambda: Transformation.identity(1.5), "1.5 is not an integer"),
            (lambda: Transformation.identity(True), "True is not an integer"),
            (lambda: Transformation.constant(2.0, 0), "2.0 is not an integer"),
        ],
        ids=["identity", "constant", "cycle", "from_map", "float", "bool", "float-constant"],
    )
    def test_bad_size_refused(self, make, message):
        # a size that is not an int >= 0 is named, never read as an empty
        # or one-point map
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
        assert Transformation.identity(0) == Transformation([])

    def test_inverse(self):
        p = Transformation([2, 0, 1])
        assert p.inverse().images == (1, 2, 0)
        with pytest.raises(ValueError):
            Transformation([0, 0]).inverse()

    def test_hash_is_that_of_the_images(self):
        t = Transformation([2, 0, 1])
        assert hash(t) == hash(t.images) == hash(Transformation((2, 0, 1)))
        assert t == Transformation.cycle(3, [0, 2, 1]) and repr(t) == "Transformation([2, 0, 1])"
        assert hash(t) == hash(Transformation.cycle(3, [0, 2, 1]))
        assert len({t, Transformation([2, 0, 1]), Transformation.identity(3)}) == 2


def reference_bits(mask):
    """The set bits of a mask read off its binary text."""
    return [i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1"]


class TestBits:
    @given(st.integers(min_value=0, max_value=(1 << 200) - 1))
    @example(0)
    @example(1)
    @example(255)
    @example(256)
    @example(1 << 64)
    def test_narrow(self, mask):
        assert list(bits(mask)) == reference_bits(mask)

    def test_wide(self):
        # 2^18 bits: every byte value, runs of zero bytes and the top bit set
        mask = sum(v << (8 * k) for k, v in enumerate(range(256)))
        mask |= ((1 << 4096) - 1) << 100_000 | 0x5A5A << 150_000 | 1 << ((1 << 18) - 1)
        assert mask.bit_length() == 1 << 18
        assert list(bits(mask)) == reference_bits(mask)


class TestShuffleNfa:
    def test_eps_shuffle_eps(self):
        k = eps_dfa(("a",))
        nfa = shuffle_nfa(k, eps_dfa(("a",)))
        assert nfa.state_count == 4
        d = determinize(nfa)
        assert language(d, 3) == {()}

    def test_single_letters(self):
        k = single_word_dfa("a", ("a", "b"))
        l = single_word_dfa("b", ("a", "b"))
        d = determinize(shuffle_nfa(k, l))
        assert language(d, 3) == {("a", "b"), ("b", "a")}

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            shuffle_nfa(eps_dfa(("a",)), eps_dfa(("b",)))

    def test_state_count_and_finals(self):
        k = single_word_dfa("a", ("a",))
        l = single_word_dfa("aa", ("a",))
        nfa = shuffle_nfa(k, l)
        assert nfa.state_count == k.state_count * l.state_count
        assert nfa.initials == {k.initial * l.state_count + l.initial}
        assert nfa.finals == {1 * l.state_count + 2}

    def test_two_successors_per_letter(self, fig1_letters):
        a, b, c = fig1_letters
        letters = (a, b, c)
        k = dfa_of(4, letters, 0, {3}, {(q, x): x.left(q) for q in range(4) for x in letters})
        l = dfa_of(3, letters, 0, {2}, {(q, x): x.right(q) for q in range(3) for x in letters})
        nfa = shuffle_nfa(k, l)
        for (src, letter), dsts in nfa.delta.items():
            p, q = divmod(src, 3)
            assert dsts == {letter.left(p) * 3 + q, p * 3 + letter.right(q)}

    def test_worked_example_path(self, fig1_letters):
        # product state (p, q) is numbered p * 3 + q; the path a, b, c must
        # visit the worked example's tableaux.
        a, b, c = fig1_letters
        letters = (a, b, c)
        k = dfa_of(4, letters, 0, {3}, {(q, x): x.left(q) for q in range(4) for x in letters})
        l = dfa_of(3, letters, 0, {2}, {(q, x): x.right(q) for q in range(3) for x in letters})
        nfa = shuffle_nfa(k, l)
        expected = [
            {(0, 1), (2, 0)},
            {(0, 0), (0, 1), (2, 2), (3, 0)},
            {(0, 2), (2, 0), (2, 1), (3, 0), (3, 2)},
        ]
        subset = nfa.initials
        for letter, cells in zip((a, b, c), expected):
            subset = nfa.step_set(subset, letter)
            assert subset == {p * 3 + q for p, q in cells}


class TestDeterminize:
    def test_no_transitions(self):
        nfa = nfa_of(1, ("a",), {0}, {0}, {})
        d = determinize(nfa)
        assert d.state_count == 2  # initial subset plus the empty sink
        assert language(d, 3) == {()}

    def test_initial_is_state_zero(self):
        nfa = nfa_of(2, ("a",), {1}, {0}, {(1, "a"): {0}})
        d = determinize(nfa)
        assert d.initial == 0

    def test_idempotent_on_deterministic(self):
        k = single_word_dfa("ab", ("a", "b"))
        nfa = nfa_of(
            k.state_count,
            k.alphabet,
            {k.initial},
            k.finals,
            {key: {dst} for key, dst in k.delta.items()},
        )
        d = determinize(nfa)
        assert d.state_count == k.state_count  # all of k is reachable
        assert language(d, 4) == language(k, 4)


def random_dfa(draw, max_states=4, letters=("a", "b", "c")):
    n = draw(st.integers(1, max_states))
    alphabet = letters[: draw(st.integers(1, len(letters)))]
    delta = {}
    for q in range(n):
        for a in alphabet:
            delta[(q, a)] = draw(st.integers(0, n - 1))
    finals = {q for q in range(n) if draw(st.booleans())}
    return dfa_of(n, alphabet, draw(st.integers(0, n - 1)), finals, delta)


@st.composite
def small_dfas(draw):
    return random_dfa(draw)


def nerode_class_count(d, max_len=6):
    """Independent minimization oracle: states split by acceptance of every
    word up to max_len, restricted to the reachable part."""
    reachable = set()
    frontier = [d.initial]
    while frontier:
        q = frontier.pop()
        if q in reachable:
            continue
        reachable.add(q)
        frontier.extend(d.delta[(q, a)] for a in d.alphabet)
    all_words = [()]
    for length in range(1, max_len + 1):
        all_words += list(product(d.alphabet, repeat=length))

    def signature(q):
        out = []
        for w in all_words:
            state = q
            for a in w:
                state = d.delta[(state, a)]
            out.append(state in d.finals)
        return tuple(out)

    return len({signature(q) for q in reachable})


def reference_determinize(n):
    """Subset construction on frozensets and (state, letter) keys, the
    reference the mask route of `determinize` must agree with."""
    start = frozenset(n.initials)
    index = {start: 0}
    order = [start]
    delta = {}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        src = index[subset]
        for a in n.alphabet:
            dst = n.step_set(subset, a)
            if dst not in index:
                index[dst] = len(order)
                order.append(dst)
                queue.append(dst)
            delta[(src, a)] = index[dst]
    finals = {index[s] for s in order if s & n.finals}
    return dfa_of(len(order), n.alphabet, 0, finals, delta)


def first_occurrence(codes):
    """The partition given by `codes`, its classes numbered in order of
    first occurrence."""
    ids = {}
    return [ids.setdefault(c, len(ids)) for c in codes]


def plain_refine(succ, codes):
    """Moore refinement straight from the definition: every round gives
    every state the tuple of its class and the classes of its successors
    `succ[s]`, one per letter, until a round splits nothing.  Returns the
    partition numbered by first occurrence."""
    codes = first_occurrence(codes)
    while True:
        new = first_occurrence(
            [(c,) + tuple(codes[t] for t in row) for c, row in zip(codes, succ)]
        )
        if new == codes:
            return codes
        codes = new


def reference_minimize(d):
    """Plain Moore refinement read through `d.delta`, classes renumbered in
    breadth-first order from the initial class by a queue of
    representatives: the reference of `minimize`."""
    seen = {d.initial}
    order = [d.initial]
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for a in d.alphabet:
            dst = d.delta[(q, a)]
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
                queue.append(dst)
    pos = {q: i for i, q in enumerate(order)}
    succ = [tuple(pos[d.delta[(q, a)]] for a in d.alphabet) for q in order]
    codes = plain_refine(succ, [int(q in d.finals) for q in order])
    renum = {codes[0]: 0}
    reps = [0]
    queue = deque([0])
    while queue:
        for i in succ[queue.popleft()]:
            if codes[i] not in renum:
                renum[codes[i]] = len(renum)
                reps.append(i)
                queue.append(i)
    delta = {}
    for c, rep in enumerate(reps):
        for a, i in zip(d.alphabet, succ[rep]):
            delta[(c, a)] = renum[codes[i]]
    finals = {renum[codes[pos[q]]] for q in order if q in d.finals}
    return dfa_of(len(renum), d.alphabet, 0, finals, delta)


def assert_same_dfa(got, want):
    assert (got.state_count, got.alphabet, got.initial, got.finals) == (
        want.state_count,
        want.alphabet,
        want.initial,
        want.finals,
    )
    assert got.delta == want.delta
    assert got == want


# alphabets may be empty or repeat a letter
alphabets = st.lists(st.sampled_from("abc"), max_size=4).map(tuple)


@st.composite
def drawn_nfas(draw):
    """NFAs with possibly empty initial sets and successor sets, missing
    (state, letter) entries and unreachable states."""
    n = draw(st.integers(1, 5))
    alphabet = draw(alphabets)
    states = st.frozensets(st.integers(0, n - 1), max_size=n)
    delta = {}
    for q in range(n):
        for a in dict.fromkeys(alphabet):
            if draw(st.booleans()):
                delta[(q, a)] = draw(states)
    return nfa_of(n, alphabet, draw(states), draw(states), delta)


@st.composite
def drawn_dfas(draw):
    n = draw(st.integers(1, 6))
    alphabet = draw(alphabets)
    delta = {(q, a): draw(st.integers(0, n - 1)) for q in range(n) for a in dict.fromkeys(alphabet)}
    finals = draw(st.frozensets(st.integers(0, n - 1)))
    return dfa_of(n, alphabet, draw(st.integers(0, n - 1)), finals, delta)


def nfa_examples(test):
    """The drawn NFAs plus an empty alphabet, states with no successors, a
    repeated letter and unreachable states."""
    for n in (
        nfa_of(2, (), {0}, {0}, {}),
        nfa_of(3, ("a", "b"), {0}, {2}, {(0, "a"): {1}}),
        nfa_of(2, ("a", "a", "b"), {0}, {1}, {(0, "a"): {0, 1}, (1, "b"): {0}}),
        nfa_of(4, ("a",), {1}, {3}, {(1, "a"): {1}, (3, "a"): {0}}),  # 0, 2, 3 unreachable
    ):
        test = example(n)(test)
    return given(drawn_nfas())(settings(max_examples=150, deadline=None)(test))


class TestAgainstReference:
    @nfa_examples
    def test_determinize(self, n):
        det = determinize(n)
        assert_same_dfa(det, reference_determinize(n))
        assert_same_dfa(minimize(det), reference_minimize(det))

    @nfa_examples
    def test_nfa_table_route(self, n):
        t = Nfa(n.state_count, n.alphabet, n.initials, n.finals, n.table)
        assert t == n and t.table == n.table and t.delta == n.delta
        for q, a in product(range(n.state_count), n.alphabet):
            dsts = t.delta.get((q, a), frozenset())
            assert n.table[q][n.alphabet.index(a)] == sum(1 << d for d in dsts)
        # the view holds the nonempty sets only, and reads back as the table
        assert all(t.delta.values())
        assert nfa_of(t.state_count, t.alphabet, t.initials, t.finals, t.delta) == n
        assert nfa_to_json(t) == nfa_to_json(n)
        assert nfa_from_json(json.loads(json.dumps(nfa_to_json(t)))) == n

    @settings(max_examples=150, deadline=None)
    @given(drawn_dfas())
    @example(dfa_of(3, (), 2, {0, 2}, {}))
    @example(dfa_of(2, ("a", "a"), 0, {1}, {(0, "a"): 1, (1, "a"): 1}))
    @example(dfa_of(4, ("a", "b"), 0, {3}, {(q, a): 0 for q in range(4) for a in "ab"}))
    def test_minimize(self, d):
        assert_same_dfa(minimize(d), reference_minimize(d))


def hub_nfa(size, seed):
    """A seeded random NFA whose successor sets are drawn from a few hub
    states, so at most 2^len(hubs) + 1 subsets are reachable.  The hubs
    include the states on each side of every 64-state boundary below
    `size`, and the last state."""
    rng = random.Random(seed)
    alphabet = ("a", "b", "c")
    edges = {q for q in (0, 63, 64, 127, 128, size - 1) if q < size}
    hubs = sorted(edges | set(rng.sample(range(size), min(size, 4))))
    delta = {
        (q, a): rng.sample(hubs, rng.randint(0, min(3, len(hubs))))
        for q in range(size)
        for a in alphabet
    }
    initials = rng.sample(range(size), min(size, 5))
    return nfa_of(size, alphabet, initials, rng.sample(range(size), size // 2), delta)


class TestDeterminizeWidths:
    """The packed rows of `determinize` hold 64 states per plane: NFAs of
    one, two and three planes against the frozenset reference."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("size", [1, 63, 64, 65, 129])
    def test_against_reference(self, size, seed):
        n = hub_nfa(size, seed)
        masks = [m for row in n.table for m in row]
        if size > 64:
            # some letter's successors span two planes, and the top state
            # is a successor
            assert any(m >> 64 and m & (1 << 64) - 1 for m in masks)
            assert reduce(or_, masks) >> (size - 1)
        assert_same_dfa(determinize(n), reference_determinize(n))

    @pytest.mark.parametrize("size", [1, 65, 129])
    def test_empty_alphabet(self, size):
        n = nfa_of(size, (), {0, size - 1}, {size - 1}, {})
        d = determinize(n)
        assert (d.state_count, d.table, d.finals) == (1, ((),), frozenset({0}))
        assert_same_dfa(d, reference_determinize(n))

    @pytest.mark.parametrize("size", [1, 65, 129])
    def test_no_initial_states(self, size):
        n = hub_nfa(size, 0)
        n = Nfa(size, n.alphabet, (), n.finals, n.table)
        d = determinize(n)
        assert (d.state_count, d.table, d.finals) == (1, ((0, 0, 0),), frozenset())
        assert_same_dfa(d, reference_determinize(n))


class TestTable:
    def test_rows_in_alphabet_order(self):
        triples = [[0, "a", 1], [0, "b", 0], [1, "a", 1], [1, "b", 1]]
        d = dfa_from_json(dfa_json(2, ["b", "a"], triples))
        assert d.table == ((0, 1), (1, 1))
        # an alphabet, finals and rows given as lists are frozen
        assert Dfa(2, ["b", "a"], 0, [1], [[0, 1], [1, 1]]) == d

    def test_stray_dfa_keys_rejected(self):
        triples = [[0, "a", 1], [1, "a", 0]]
        with pytest.raises(ValueError, match=r"delta key \(5, 'a'\) outside range\(2\)"):
            dfa_from_json(dfa_json(2, ["a"], triples + [[5, "a", 0]]))
        with pytest.raises(ValueError, match=r"delta key \(0, 'b'\) outside range\(2\)"):
            dfa_from_json(dfa_json(2, ["a"], triples + [[0, "b", 1]]))
        assert dfa_from_json(dfa_json(2, ["a"], triples)).step(1, "a") == 0

    def test_stray_nfa_letters_rejected(self):
        obj = {**dfa_json(2, ["a"], [[0, "a", 1], [1, "b", 0]]), "initial": [0]}
        with pytest.raises(ValueError, match="letter 'b' not in the alphabet"):
            nfa_from_json(obj)

    def test_of_table_checks_range_and_shape(self):
        with pytest.raises(ValueError, match=r"delta\(1, 'b'\) = 2 out of range"):
            Dfa(2, ("a", "b"), 0, {0}, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"delta\(0, 'a'\) = -1 out of range"):
            Dfa(2, ("a",), 0, {0}, [(-1,), (0,)])
        with pytest.raises(ValueError, match="table is not 2 rows of 1 successors"):
            Dfa(2, ("a",), 0, {0}, [(0,), (0, 1)])
        with pytest.raises(ValueError, match="table is not 2 rows"):
            Dfa(2, ("a",), 0, {0}, [(0,)])
        with pytest.raises(ValueError, match="final state out of range"):
            Dfa(1, ("a",), 0, {1}, [(0,)])

    def test_of_table_checks_repeated_letters(self):
        with pytest.raises(ValueError, match="letter 'a' is repeated in the alphabet with diff"):
            Dfa(2, ("a", "a"), 0, {1}, [(1, 0), (1, 1)])
        with pytest.raises(ValueError, match="letter 'a' is repeated"):
            Nfa(2, ("a", "b", "a"), {0}, {1}, [(1, 2, 2), (0, 0, 0)])
        d = Dfa(2, ("a", "b", "a"), 0, {1}, [(1, 0, 1), (1, 1, 1)])
        assert d.delta == {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1} and d.run("ab") == 1
        n = Nfa(2, ("a", "b", "a"), {0}, {1}, [(3, 0, 3), (0, 1, 0)])
        assert n.delta == {(0, "a"): {0, 1}, (1, "b"): {0}}

    def test_of_table_hashes_each_letter_once(self):
        class Letter:
            hashes = 0

            def __init__(self, name):
                self.name = name

            def __eq__(self, other):
                return isinstance(other, Letter) and self.name == other.name

            def __hash__(self):
                Letter.hashes += 1
                return hash(self.name)

        # once per letter position, a repeated letter included
        letters = [Letter(c) for c in "abca"]
        Dfa(5, letters, 0, {1}, [(1, 2, 3, 1)] * 5)
        assert Letter.hashes == 4
        Nfa(5, letters, {0}, {1}, [(1, 2, 3, 1)] * 5)
        assert Letter.hashes == 8

    def test_nfa_of_table_checks_range_and_shape(self):
        with pytest.raises(ValueError, match="table is not 2 rows of 1 successors"):
            Nfa(2, ("a",), {0}, {1}, [(1,), (1, 2)])
        with pytest.raises(ValueError, match="table is not 2 rows"):
            Nfa(2, ("a",), {0}, {1}, [(1,)])
        with pytest.raises(ValueError, match=r"mask of delta\(1, 'b'\) = -1 out of range"):
            Nfa(2, ("a", "b"), {0}, {1}, [(1, 2), (0, -1)])
        with pytest.raises(ValueError, match=r"mask of delta\(0, 'a'\) = 4 out of range"):
            Nfa(2, ("a",), {0}, {1}, [(4,), (3,)])
        with pytest.raises(ValueError, match="state 2 out of range"):
            Nfa(2, ("a",), {2}, {1}, [(1,), (0,)])
        with pytest.raises(ValueError, match="state -1 out of range"):
            Nfa(2, ("a",), {0}, {-1}, [(1,), (0,)])
        n = Nfa(2, ("a",), {0}, {1}, [(3,), (0,)])
        assert n.delta == {(0, "a"): {0, 1}} and n.step_set({0, 1}, "a") == {0, 1}
        assert Nfa(0, ("a",), (), (), ()).table == ()

    def test_nfa_json_unchanged(self):
        n = nfa_of(2, ("a", "a", "b"), {0}, {1}, {(0, "a"): {0, 1}, (1, "b"): {0}, (1, "a"): ()})
        assert nfa_to_json(n) == {
            "states": 2,
            "alphabet": ["a", "a", "b"],
            "initial": [0],
            "finals": [1],
            "delta": [[0, "a", 0], [0, "a", 1], [0, "a", 0], [0, "a", 1], [1, "b", 0]],
        }
        # the view is built from the table, so it holds no empty set
        assert (1, "a") not in n.delta and nfa_from_json(nfa_to_json(n)) == n

    def test_delta_view_built_from_table(self):
        d = Dfa(2, ("a", "b"), 0, {1}, [(1, 0), (1, 1)])
        assert d.delta == {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1}
        assert d.run("ba") == 1 and d.accepts("ba") and not d.accepts("bb")


def _digest(d):
    return hashlib.sha256(json.dumps(dfa_to_json(d), sort_keys=True).encode()).hexdigest()


class TestPinnedClassical:
    """sha256 of the JSON form of the subset construction and its
    minimization on the full letter set, recorded from the frozenset and
    dict-keyed implementation."""

    PINS = {
        (2, 3, (1,), (1,)): (
            "701de20a154289c840ca86cc1d3898c4258343be89ecf65dd8c638f1abd3552a",
            "701de20a154289c840ca86cc1d3898c4258343be89ecf65dd8c638f1abd3552a",
        ),
        (3, 2, (1,), (1,)): (
            "a01769d14b479c897f963b7f686179c80bb25072996a29240b444423ac9fea40",
            "a01769d14b479c897f963b7f686179c80bb25072996a29240b444423ac9fea40",
        ),
        # minimization merges 44 subsets into 3 classes here
        (2, 3, (0, 1), (1,)): (
            "41b514d4b6c780d96858642f7820e3614742ea425d66ffa92f69896f2f3e1802",
            "a03bd23529444b62def1944c68e4f12a4afb5e39ebf0b5c5d954dbda70309f48",
        ),
    }

    # the benchmark's two classical jobs (finals {1} on both sides): sha256
    # of the body that `perfbench/worker.py` hashes, rows read from `table`
    BENCHMARK = {
        (2, 4): "38cae84a99c59d7b6507944d28248352be199d7ce4d5a8763dcb138a16f4dd21",
        (3, 3): "419ea24cab60ed543ef9bd8157cc754d3bac00bd7d1ea4e30e4881f4fe8a42cb",
    }

    @staticmethod
    def sides(m, n, f1, f2):
        letters = [
            MonsterLetter(Transformation(f), Transformation(g))
            for f in product(range(m), repeat=m)
            for g in product(range(n), repeat=n)
        ]
        return monster_dfa(m, f1, letters, "left"), monster_dfa(n, f2, letters, "right")

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_digests(self, case):
        det = determinize(shuffle_nfa(*self.sides(*case)))
        assert (_digest(det), _digest(minimize(det))) == self.PINS[case]

    @pytest.mark.parametrize("case", [(2, 3, (1,), (1,)), (3, 2, (1,), (1,))])
    def test_pipeline_reads_tables_only(self, case, monkeypatch):
        k, l = self.sides(*case)
        hashes = 0
        hash_images = Transformation.__hash__

        def forbidden(self):
            raise AssertionError("the pipeline read a delta view")

        def counted(self):
            nonlocal hashes
            hashes += 1
            return hash_images(self)

        monkeypatch.setattr(Dfa, "delta", property(forbidden))
        monkeypatch.setattr(Nfa, "delta", property(forbidden))
        monkeypatch.setattr(Transformation, "__hash__", counted)
        det = determinize(shuffle_nfa(k, l))
        assert (_digest(det), _digest(minimize(det))) == self.PINS[case]
        # each letter, a pair of transformations, is hashed once per table
        # built (the NFA and the subset DFA; the subset DFA is minimal and
        # numbered breadth-first, so `minimize` returns it), never per state
        assert hashes == 2 * 2 * len(k.alphabet)

    def test_minimal_input_returned_as_is(self):
        det = determinize(shuffle_nfa(*self.sides(2, 3, (1,), (1,))))
        assert minimize(det) is det
        # a merged result is minimal and numbered breadth-first in turn
        m = minimize(determinize(shuffle_nfa(*self.sides(2, 3, (0, 1), (1,)))))
        assert minimize(m) is m

    def test_minimal_input_with_an_unreachable_state(self):
        case = (2, 3, (1,), (1,))
        det = determinize(shuffle_nfa(*self.sides(*case)))
        extra = Dfa(
            det.state_count + 1,
            det.alphabet,
            0,
            det.finals | {det.state_count},
            det.table + ((0,) * len(det.alphabet),),
        )
        m = minimize(extra)
        assert m is not extra and m.state_count == det.state_count
        assert _digest(m) == self.PINS[case][1]

    def test_minimal_input_not_numbered_breadth_first(self):
        case = (2, 3, (1,), (1,))
        det = determinize(shuffle_nfa(*self.sides(*case)))
        last = det.state_count - 1
        reversed_ = Dfa(
            det.state_count,
            det.alphabet,
            last,
            {last - q for q in det.finals},
            [tuple(last - dst for dst in row) for row in reversed(det.table)],
        )
        m = minimize(reversed_)
        assert m is not reversed_ and _digest(m) == self.PINS[case][1]

    def test_shuffle_nfa_digest(self):
        nfa = shuffle_nfa(*self.sides(2, 3, (1,), (1,)))
        body = json.dumps(nfa_to_json(nfa), sort_keys=True).encode()
        assert hashlib.sha256(body).hexdigest() == (
            "c5d52a374fc4f28a79535bcd26b52eb42b093527602f4df81fafcf9cc42d1275"
        )

    @pytest.mark.parametrize("size", sorted(BENCHMARK))
    def test_benchmark_digests(self, size):
        m, n = size
        d = minimize(determinize(shuffle_nfa(*self.sides(m, n, {1}, {1}))))
        body = json.dumps(
            [
                d.state_count,
                d.initial,
                sorted(d.finals),
                [[list(a.left.images), list(a.right.images)] for a in d.alphabet],
                [list(row) for row in d.table],
            ],
            separators=(",", ":"),
        )
        assert d.state_count == f_bound(m, n)
        assert hashlib.sha256(body.encode()).hexdigest() == self.BENCHMARK[size]


class TestMooreRefine:
    def test_splits_until_stable(self):
        # a path 0 -> 1 -> 2 -> 3 -> 3 with only 3 final: every state is
        # its own class, found one split per round
        codes = moore_refine([(1,), (2,), (3,), (3,)], [0, 0, 0, 1])
        assert len(set(codes)) == 4

    def test_keeps_equivalent_states_together(self):
        # 0 and 1 swap into each other, 2 and 3 are final sinks
        codes = moore_refine([(1, 2), (0, 3), (2, 2), (3, 3)], [0, 0, 1, 1])
        assert codes[0] == codes[1] != codes[2] == codes[3]

    def test_lone_class_and_no_letters(self):
        assert len(set(moore_refine([(1,), (0,)], [5, 5]))) == 1
        assert len(set(moore_refine([(), (), ()], [0, 1, 1]))) == 2
        assert moore_refine([], []) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_plain_refinement(self, seed):
        # seeded successor tables of 1-40 states and 0-4 letters, some with
        # successors drawn from a few states only, so classes stay merged;
        # the initial partitions include one class and all singletons
        rng = random.Random(seed)
        for _ in range(50):
            n = rng.randint(1, 40)
            targets = rng.randint(1, n)
            letters = rng.randint(0, 4)
            succ = [tuple(rng.randrange(targets) for _ in range(letters)) for _ in range(n)]
            start = rng.choice(
                [
                    [7] * n,
                    list(range(n, 0, -1)),
                    [rng.choice((3, 11)) for _ in range(n)],
                    [rng.randrange(n) for _ in range(n)],
                ]
            )
            got = moore_refine(succ, start)
            assert first_occurrence(got) == plain_refine(succ, start)

    def test_no_round_when_nothing_can_split(self):
        # one class, or every state alone: the result comes back with no
        # successor read, though each successor n lies outside the codes
        for n in (1, 2, 5):
            succ = [(n,)] * n
            assert first_occurrence(moore_refine(succ, [4] * n)) == [0] * n
            assert first_occurrence(moore_refine(succ, range(n, 0, -1))) == list(range(n))
        # two classes of five states must read them, and cannot
        with pytest.raises(IndexError):
            moore_refine([(5,)] * 5, [0, 0, 0, 1, 1])


class TestMinimize:
    def test_parity_language(self):
        # two different 3-state machines for "even number of a's"
        d1 = dfa_of(3, ("a",), 0, {0, 2}, {(0, "a"): 1, (1, "a"): 2, (2, "a"): 1})
        d2 = dfa_of(3, ("a",), 0, {0}, {(0, "a"): 1, (1, "a"): 0, (2, "a"): 2})
        m1, m2 = minimize(d1), minimize(d2)
        assert m1.state_count == m2.state_count == 2
        assert (m1.initial, m1.finals, m1.delta) == (m2.initial, m2.finals, m2.delta)

    def test_minimal_stays_isomorphic(self):
        d = single_word_dfa("ab", ("a", "b"))
        m = minimize(d)
        assert m.state_count == d.state_count  # already minimal
        assert language(m, 4) == language(d, 4)

    def test_empty_alphabet(self):
        # no letters: only the initial state is accessible
        d = dfa_of(3, (), 1, {1, 2}, {})
        m = minimize(d)
        assert (m.state_count, m.alphabet, m.finals) == (1, (), frozenset({0}))

    @settings(max_examples=60, deadline=None)
    @given(small_dfas())
    def test_language_preserved_and_idempotent(self, d):
        nfa = nfa_of(
            d.state_count,
            d.alphabet,
            {d.initial},
            d.finals,
            {key: {dst} for key, dst in d.delta.items()},
        )
        det = determinize(nfa)
        m = minimize(det)
        assert language(m, 6) == language(d, 6) == language(det, 6)
        assert minimize(m).state_count == m.state_count
        assert m.state_count == nerode_class_count(d)

    @settings(max_examples=20, deadline=None)
    @given(small_dfas(), small_dfas())
    def test_shuffle_symmetric(self, k, l):
        alphabet = ("a", "b")
        k = _force_alphabet(k, alphabet)
        l = _force_alphabet(l, alphabet)
        size_kl = minimize(determinize(shuffle_nfa(k, l))).state_count
        size_lk = minimize(determinize(shuffle_nfa(l, k))).state_count
        assert size_kl == size_lk


def _force_alphabet(d, alphabet):
    delta = {}
    for q in range(d.state_count):
        for a in alphabet:
            delta[(q, a)] = d.delta.get((q, a), d.delta[(q, d.alphabet[0])])
    return dfa_of(d.state_count, alphabet, d.initial, d.finals, delta)


class TestJson:
    def test_dfa_roundtrip(self):
        d = single_word_dfa("ab", ("a", "b"))
        obj = json.loads(json.dumps(dfa_to_json(d)))
        back = dfa_from_json(obj)
        assert back == d

    def test_nfa_roundtrip_with_structured_letters(self):
        x = ((1, 0), (0, 1))  # a pair of image tuples as one letter
        nfa = nfa_of(2, (x,), {0}, {1}, {(0, x): {0, 1}})
        obj = json.loads(json.dumps(nfa_to_json(nfa)))
        back = nfa_from_json(obj)
        assert back == nfa

    def test_schema_shape(self):
        d = eps_dfa(("a",))
        obj = dfa_to_json(d)
        assert set(obj) == {"states", "alphabet", "initial", "finals", "delta"}
        assert obj["states"] == 2 and obj["initial"] == 0
        assert all(len(triple) == 3 for triple in obj["delta"])

    def test_dfa_pair_given_twice_refused(self):
        # a second, different successor of (0, 'a') is refused, not kept
        triples = [[0, "a", 1], [1, "a", 1], [0, "a", 0]]
        with pytest.raises(ValueError, match=r"\(0, 'a'\) .* 1 and 0"):
            dfa_from_json(dfa_json(2, ["a"], triples))
        # the same triple twice is one transition
        d = dfa_from_json(dfa_json(2, ["a"], triples[:2] + triples[:1]))
        assert d.table == ((1,), (1,))

    def test_dfa_undefined_pair_refused(self):
        with pytest.raises(ValueError, match=r"delta undefined at \(1, 'b'\)"):
            dfa_from_json(dfa_json(2, ["a", "b"], [[0, "a", 1], [0, "b", 1], [1, "a", 0]]))

    def test_nfa_refusals(self):
        obj = {**dfa_json(2, ["a"], [[0, "a", 1], [0, "a", 2]]), "initial": [0]}
        with pytest.raises(ValueError, match=r"successor set \{1, 2\} out of range"):
            nfa_from_json(obj)
        obj = {**dfa_json(2, ["a"], [[0, "a", 1], [2, "a", 0]]), "initial": [0]}
        with pytest.raises(ValueError, match="state 2 out of range"):
            nfa_from_json(obj)

    # each JSON field that holds states, with a float or bool in its place;
    # an integral float is refused too, as a bool is, not read as its int
    NON_INTEGERS = [
        ("states", 2.0),
        ("initial", 0.0),
        ("finals", [True]),
        ("delta", [[0, "a", 0.5], [1, "a", 0]]),
        ("delta", [[0, "a", 1], [1.0, "a", 0]]),
        ("delta", [[0, "a", 1], [1, "a", False]]),
    ]

    @pytest.mark.parametrize("field, value", NON_INTEGERS)
    def test_dfa_non_integers_refused(self, field, value):
        obj = {**dfa_json(2, ["a"], [[0, "a", 1], [1, "a", 0]]), field: value}
        with pytest.raises(ValueError, match="is not an integer"):
            dfa_from_json(obj)

    @pytest.mark.parametrize("field, value", NON_INTEGERS)
    def test_nfa_non_integers_refused(self, field, value):
        obj = {**dfa_json(2, ["a"], [[0, "a", 1], [1, "a", 0]]), "initial": [0], field: value}
        if field == "initial":
            obj["initial"] = [value]
        with pytest.raises(ValueError, match="is not an integer"):
            nfa_from_json(obj)

    def test_non_integer_named(self):
        with pytest.raises(ValueError, match=r"^0\.5 is not an integer$"):
            dfa_from_json(dfa_json(2, ["a"], [[0, "a", 0.5], [1, "a", 0]]))
        with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
            nfa_from_json({**dfa_json(2, ["a"], [[0, "a", 1.5]]), "initial": [0]})
