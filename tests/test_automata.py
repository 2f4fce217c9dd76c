import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflesc import (
    Dfa,
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
from shufflesc.automata import moore_refine, successor_rows


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
    return Dfa(n + 2, alphabet, 0, {n}, delta)


def eps_dfa(alphabet):
    delta = {(q, a): 1 for q in range(2) for a in alphabet}
    return Dfa(2, alphabet, 0, {0}, delta)


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

    def test_constructors(self):
        assert Transformation.identity(3).images == (0, 1, 2)
        assert Transformation.constant(3, 2).images == (2, 2, 2)
        assert Transformation.from_map(4, {0: 2}).images == (2, 1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Transformation([0, 3])

    def test_inverse(self):
        p = Transformation([2, 0, 1])
        assert p.inverse().images == (1, 2, 0)
        with pytest.raises(ValueError):
            Transformation([0, 0]).inverse()


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
        k = Dfa(4, letters, 0, {3}, {(q, x): x.left(q) for q in range(4) for x in letters})
        l = Dfa(3, letters, 0, {2}, {(q, x): x.right(q) for q in range(3) for x in letters})
        nfa = shuffle_nfa(k, l)
        for (src, letter), dsts in nfa.delta.items():
            p, q = divmod(src, 3)
            assert dsts == {letter.left(p) * 3 + q, p * 3 + letter.right(q)}

    def test_worked_example_path(self, fig1_letters):
        # product state (p, q) is numbered p * 3 + q; the path a, b, c must
        # visit the worked example's tableaux.
        a, b, c = fig1_letters
        letters = (a, b, c)
        k = Dfa(4, letters, 0, {3}, {(q, x): x.left(q) for q in range(4) for x in letters})
        l = Dfa(3, letters, 0, {2}, {(q, x): x.right(q) for q in range(3) for x in letters})
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
        nfa = Nfa(1, ("a",), {0}, {0}, {})
        d = determinize(nfa)
        assert d.state_count == 2  # initial subset plus the empty sink
        assert language(d, 3) == {()}

    def test_initial_is_state_zero(self):
        nfa = Nfa(2, ("a",), {1}, {0}, {(1, "a"): {0}})
        d = determinize(nfa)
        assert d.initial == 0

    def test_idempotent_on_deterministic(self):
        k = single_word_dfa("ab", ("a", "b"))
        nfa = Nfa(
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
    return Dfa(n, alphabet, draw(st.integers(0, n - 1)), finals, delta)


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


class TestMooreRefine:
    def test_splits_until_stable(self):
        # a path 0 -> 1 -> 2 -> 3 -> 3 with only 3 final: every state is
        # its own class, found one split per round
        rows = successor_rows([(1,), (2,), (3,), (3,)])
        codes = moore_refine(rows, [0, 0, 0, 1])
        assert len(set(codes)) == 4

    def test_keeps_equivalent_states_together(self):
        # 0 and 1 swap into each other, 2 and 3 are final sinks
        rows = successor_rows([(1, 2), (0, 3), (2, 2), (3, 3)])
        codes = moore_refine(rows, [0, 0, 1, 1])
        assert codes[0] == codes[1] != codes[2] == codes[3]

    def test_lone_class_and_no_letters(self):
        assert len(set(moore_refine(successor_rows([(1,), (0,)]), [5, 5]))) == 1
        rows = successor_rows([(), (), ()])
        assert len(set(moore_refine(rows, [0, 1, 1]))) == 2
        assert moore_refine([], []) == []


class TestMinimize:
    def test_parity_language(self):
        # two different 3-state machines for "even number of a's"
        d1 = Dfa(3, ("a",), 0, {0, 2}, {(0, "a"): 1, (1, "a"): 2, (2, "a"): 1})
        d2 = Dfa(3, ("a",), 0, {0}, {(0, "a"): 1, (1, "a"): 0, (2, "a"): 2})
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
        d = Dfa(3, (), 1, {1, 2}, {})
        m = minimize(d)
        assert (m.state_count, m.alphabet, m.finals) == (1, (), frozenset({0}))

    @settings(max_examples=60, deadline=None)
    @given(small_dfas())
    def test_language_preserved_and_idempotent(self, d):
        nfa = Nfa(
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
    return Dfa(d.state_count, alphabet, d.initial, d.finals, delta)


class TestJson:
    def test_dfa_roundtrip(self):
        d = single_word_dfa("ab", ("a", "b"))
        obj = json.loads(json.dumps(dfa_to_json(d)))
        back = dfa_from_json(obj)
        assert back == d

    def test_nfa_roundtrip_with_structured_letters(self):
        x = ((1, 0), (0, 1))  # a pair of image tuples as one letter
        nfa = Nfa(2, (x,), {0}, {1}, {(0, x): {0, 1}})
        obj = json.loads(json.dumps(nfa_to_json(nfa)))
        back = nfa_from_json(obj)
        assert back == nfa

    def test_schema_shape(self):
        d = eps_dfa(("a",))
        obj = dfa_to_json(d)
        assert set(obj) == {"states", "alphabet", "initial", "finals", "delta"}
        assert obj["states"] == 2 and obj["initial"] == 0
        assert all(len(triple) == 3 for triple in obj["delta"])
