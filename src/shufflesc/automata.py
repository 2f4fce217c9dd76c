"""Finite automata with total transitions, plus transformations of {0..n-1}.

States are dense integer indices.  Letters are opaque hashable values: strings,
ints, or pairs of transformations all work unchanged.  Every operation returns
a fresh value; nothing is mutated after construction, so automata are safe to
share across threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, or_
from typing import Hashable, Iterable, Iterator, Mapping

Letter = Hashable


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative mask, increasing."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Transformation:
    """A total map of {0..n-1} into itself, stored as its tuple of images.

    The hash of the images is computed once, at construction: letters are
    dict keys in the automata over the full letter set, so a key would
    otherwise rehash its images on every lookup."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(int(i) for i in images)
        n = len(images)
        if any(not 0 <= i < n for i in images):
            raise ValueError(f"images {images} not within range({n})")
        self.images = images
        self._hash = hash(images)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(range(n))

    @classmethod
    def constant(cls, n: int, value: int) -> "Transformation":
        return cls([value] * n)

    @classmethod
    def cycle(cls, n: int, points: Iterable[int]) -> "Transformation":
        """The cycle (i0,...,il-1): each listed point maps to the next, the
        last wraps to the first, everything else is fixed."""
        points = list(points)
        images = list(range(n))
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
        return cls(images)

    @classmethod
    def from_map(cls, n: int, mapping: Mapping[int, int]) -> "Transformation":
        """Total map equal to `mapping` where defined and the identity elsewhere."""
        images = list(range(n))
        for k, v in mapping.items():
            images[k] = v
        return cls(images)

    def is_permutation(self) -> bool:
        return len(set(self.images)) == self.size

    def inverse(self) -> "Transformation":
        if not self.is_permutation():
            raise ValueError(f"{self!r} is not a permutation")
        inv = [0] * self.size
        for i, j in enumerate(self.images):
            inv[j] = i
        return Transformation(inv)

    def __eq__(self, other):
        return isinstance(other, Transformation) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Transformation({list(self.images)})"


@dataclass(frozen=True, eq=True, init=False)
class Dfa:
    """Complete deterministic automaton: delta is total on states x alphabet.

    `table[q][i]` is the successor of state q under `alphabet[i]`, one tuple
    per state in alphabet order; the constructions of this module read and
    build tables.  `delta` is the same function keyed by (state, letter),
    kept as given to the constructor or built on first use; `step`, `run`
    and `accepts` read it.
    """

    state_count: int
    alphabet: tuple
    initial: int
    finals: frozenset
    table: tuple

    def __init__(
        self, state_count, alphabet, initial, finals, delta: Mapping[tuple[int, Letter], int]
    ):
        """Check that `delta` is defined exactly on range(state_count) x
        alphabet and within range, and read it into the table."""
        alphabet = tuple(alphabet)
        delta = dict(delta)
        table = []
        for q in range(state_count):
            row = tuple(delta.get((q, a)) for a in alphabet)
            if None in row:
                raise ValueError(f"delta undefined at ({q}, {alphabet[row.index(None)]!r})")
            table.append(row)
        # every key of range(state_count) x alphabet is present, so any
        # further key lies outside it
        if len(delta) > state_count * len(set(alphabet)):
            keys = {(q, a) for q in range(state_count) for a in alphabet}
            stray = next(key for key in delta if key not in keys)
            raise ValueError(f"delta key {stray!r} outside range({state_count}) x alphabet")
        self._init(state_count, alphabet, initial, finals, tuple(table))
        self.__dict__["delta"] = delta

    @classmethod
    def of_table(cls, state_count, alphabet, initial, finals, table) -> "Dfa":
        """The DFA whose successor of state q under alphabet[i] is table[q][i];
        a letter repeated in the alphabet must have equal columns."""
        d = object.__new__(cls)
        d._init(state_count, tuple(alphabet), initial, finals, tuple(map(tuple, table)))
        return d

    def _init(self, state_count, alphabet, initial, finals, table):
        self.__dict__.update(
            state_count=state_count,
            alphabet=alphabet,
            initial=initial,
            finals=frozenset(finals),
            table=table,
        )
        if not 0 <= initial < state_count:
            raise ValueError(f"initial state {initial} out of range")
        if any(not 0 <= q < state_count for q in self.finals):
            raise ValueError("final state out of range")
        if len(table) != state_count or any(len(row) != len(alphabet) for row in table):
            raise ValueError(f"table is not {state_count} rows of {len(alphabet)} successors")
        if alphabet and table and not 0 <= min(map(min, table)) <= max(map(max, table)) < state_count:
            q, i = next(
                (q, i)
                for q, row in enumerate(table)
                for i, dst in enumerate(row)
                if not 0 <= dst < state_count
            )
            raise ValueError(f"delta({q}, {alphabet[i]!r}) = {table[q][i]} out of range")

    @cached_property
    def delta(self) -> Mapping[tuple[int, Letter], int]:
        return {
            (q, a): dst for q, row in enumerate(self.table) for a, dst in zip(self.alphabet, row)
        }

    def step(self, state: int, letter: Letter) -> int:
        return self.delta[(state, letter)]

    def run(self, word: Iterable[Letter]) -> int:
        delta = self.delta
        state = self.initial
        for a in word:
            state = delta[(state, a)]
        return state

    def accepts(self, word: Iterable[Letter]) -> bool:
        return self.run(word) in self.finals

    __hash__ = None


@dataclass(frozen=True, eq=True)
class Nfa:
    """Nondeterministic automaton; delta maps (state, letter) to a state set.

    Missing (state, letter) entries mean the empty successor set.  There are
    no epsilon transitions.
    """

    state_count: int
    alphabet: tuple
    initials: frozenset
    finals: frozenset
    delta: Mapping[tuple[int, Letter], frozenset]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "initials", frozenset(self.initials))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(
            self, "delta", {k: frozenset(v) for k, v in dict(self.delta).items()}
        )
        for q in self.initials | self.finals:
            if not 0 <= q < self.state_count:
                raise ValueError(f"state {q} out of range")
        letters = set(self.alphabet)
        for (q, a), dsts in self.delta.items():
            if not 0 <= q < self.state_count:
                raise ValueError(f"state {q} out of range")
            if a not in letters:
                raise ValueError(f"delta key {(q, a)!r}: letter {a!r} not in the alphabet")
            if any(not 0 <= d < self.state_count for d in dsts):
                raise ValueError(f"successor set {set(dsts)} out of range")

    def step_set(self, states: frozenset, letter: Letter) -> frozenset:
        out = set()
        for q in states:
            out |= self.delta.get((q, letter), frozenset())
        return frozenset(out)

    def run_subset(self, word: Iterable[Letter]) -> frozenset:
        states = self.initials
        for a in word:
            states = self.step_set(states, a)
        return states

    def accepts(self, word: Iterable[Letter]) -> bool:
        return bool(self.run_subset(word) & self.finals)

    __hash__ = None


def shuffle_nfa(k: Dfa, l: Dfa) -> Nfa:
    """Product-state recognizer of the shuffle of the two input languages.

    State (p, q) is numbered p * l.state_count + q.  Each letter either
    advances the first component or the second, so a run interleaves one
    word from each language.
    """
    if tuple(k.alphabet) != tuple(l.alphabet):
        raise ValueError("shuffle requires a common alphabet")
    width = l.state_count
    delta = {}
    for p, krow in enumerate(k.table):
        for q, lrow in enumerate(l.table):
            src = p * width + q
            for a, kp, lq in zip(k.alphabet, krow, lrow):
                delta[(src, a)] = frozenset({kp * width + q, p * width + lq})
    return Nfa(
        state_count=k.state_count * width,
        alphabet=k.alphabet,
        initials={k.initial * width + l.initial},
        finals={p * width + q for p in k.finals for q in l.finals},
        delta=delta,
    )


def _mask(states: Iterable[int]) -> int:
    return sum(1 << q for q in states)


def determinize(n: Nfa) -> Dfa:
    """Subset construction restricted to reachable subsets.

    Subsets are masks, bit d for state d.  The successors of a subset under
    every letter are the element-wise OR of its states' successor masks.
    Subsets are numbered in breadth-first discovery order (letters taken in
    alphabet order), so the result is reproducible; state 0 is the initial
    subset.
    """
    # succ[q][i]: the successor mask of state q under alphabet[i]
    succ = [
        tuple(_mask(n.delta.get((q, a), ())) for a in n.alphabet) for q in range(n.state_count)
    ]
    index = {_mask(n.initials): 0}
    order = list(index)
    table = []
    for subset in order:
        row = (0,) * len(n.alphabet)
        for q in bits(subset):
            row = map(or_, row, succ[q])
        row = tuple(row)
        for dst in dict.fromkeys(row):
            if dst not in index:
                index[dst] = len(order)
                order.append(dst)
        table.append(tuple(map(index.__getitem__, row)))
    finals = _mask(n.finals)
    return Dfa.of_table(
        len(order), n.alphabet, 0, [i for i, s in enumerate(order) if s & finals], table
    )


def _accessible(d: Dfa) -> list[int]:
    """Accessible states in breadth-first order from the initial state."""
    seen = {d.initial}
    order = [d.initial]
    for q in order:
        for dst in dict.fromkeys(d.table[q]):
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
    return order


def _no_successors(codes):
    return ()


def successor_rows(successors) -> list:
    """Rows for `moore_refine`, one per state.

    `successors` yields, for each state in turn, the tuple of its successor
    indices, one per letter.  Row s is an `itemgetter` over that tuple, so
    the codes of all successors come from one C-level call; in CPython the
    getter holds the tuple itself rather than a copy.  With no letters every
    row returns ().
    """
    return [itemgetter(*succ) if succ else _no_successors for succ in successors]


def moore_refine(rows, codes) -> list:
    """Moore refinement: split classes by successor classes until stable.

    `codes[s]` is the initial class code of state s and `rows[s](codes)` the
    codes of its successors (see `successor_rows`).  A round gives a
    signature only to the states of classes with more than one member, since
    a singleton class can never split; it stops once a round splits nothing,
    every state has a class of its own, or there is only one class.  Returns
    a class code per state: equal codes mean equivalent states, the values
    themselves carry nothing.
    """
    codes = list(codes)
    fresh = max(codes, default=0) + 1
    sizes = Counter(codes)
    # a lone class is stable too: all successors of its states share it
    active = [s for s, c in enumerate(codes) if sizes[c] > 1] if len(sizes) > 1 else []
    groups = sum(1 for k in sizes.values() if k > 1)
    while active:
        sigs: dict = {}
        new = codes[:]
        for s in active:
            new[s] = sigs.setdefault((codes[s], rows[s](codes)), fresh + len(sigs))
        if len(sigs) == groups:
            break
        fresh += len(sigs)
        codes = new
        sizes = Counter(map(new.__getitem__, active))
        active = [s for s in active if sizes[new[s]] > 1]
        groups = sum(1 for k in sizes.values() if k > 1)
    return codes


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA of the same language.

    Moore partition refinement (`moore_refine`) on the accessible part:
    states start split by finality and are repeatedly split by the classes
    of their successors.  The classes of the result are renumbered in
    breadth-first order from the initial class, so equal inputs give
    identical outputs.
    """
    order = _accessible(d)
    pos = dict(zip(order, range(len(order))))
    succ = [tuple(map(pos.__getitem__, d.table[q])) for q in order]
    codes = moore_refine(successor_rows(succ), [int(q in d.finals) for q in order])

    # the partition is stable, so any member stands for its class; position
    # 0 is the initial state
    rep = dict(zip(codes, range(len(codes))))
    renum = {codes[0]: 0}
    classes = [codes[0]]
    for c in classes:
        for dst in dict.fromkeys(map(codes.__getitem__, succ[rep[c]])):
            if dst not in renum:
                renum[dst] = len(classes)
                classes.append(dst)
    new = [renum[c] for c in codes]
    table = [tuple(map(new.__getitem__, succ[rep[c]])) for c in classes]
    finals = [new[i] for i, q in enumerate(order) if q in d.finals]
    return Dfa.of_table(len(classes), d.alphabet, 0, finals, table)


# --- JSON forms -------------------------------------------------------------
#
# {"states": n, "alphabet": [...], "initial": i or [i, ...],
#  "finals": [...], "delta": [[src, letter, dst], ...]}
#
# Letters are stored as JSON values; on load, lists are frozen to tuples so
# structured letters (such as pairs of transformation image lists) stay
# hashable.


def _thaw(letter):
    if isinstance(letter, Transformation):
        return list(letter.images)
    if isinstance(letter, tuple):
        return [_thaw(x) for x in letter]
    return letter


def _freeze(letter):
    if isinstance(letter, list):
        return tuple(_freeze(x) for x in letter)
    return letter


def dfa_to_json(d: Dfa) -> dict:
    return {
        "states": d.state_count,
        "alphabet": [_thaw(a) for a in d.alphabet],
        "initial": d.initial,
        "finals": sorted(d.finals),
        "delta": [
            [q, _thaw(a), dst]
            for q, row in enumerate(d.table)
            for a, dst in zip(d.alphabet, row)
        ],
    }


def dfa_from_json(obj: Mapping) -> Dfa:
    delta = {(src, _freeze(a)): dst for src, a, dst in obj["delta"]}
    return Dfa(
        state_count=obj["states"],
        alphabet=tuple(_freeze(a) for a in obj["alphabet"]),
        initial=obj["initial"],
        finals=obj["finals"],
        delta=delta,
    )


def nfa_to_json(n: Nfa) -> dict:
    triples = []
    for q in range(n.state_count):
        for a in n.alphabet:
            for dst in sorted(n.delta.get((q, a), ())):
                triples.append([q, _thaw(a), dst])
    return {
        "states": n.state_count,
        "alphabet": [_thaw(a) for a in n.alphabet],
        "initial": sorted(n.initials),
        "finals": sorted(n.finals),
        "delta": triples,
    }


def nfa_from_json(obj: Mapping) -> Nfa:
    delta: dict = {}
    for src, a, dst in obj["delta"]:
        delta.setdefault((src, _freeze(a)), set()).add(dst)
    return Nfa(
        state_count=obj["states"],
        alphabet=tuple(_freeze(a) for a in obj["alphabet"]),
        initials=obj["initial"],
        finals=obj["finals"],
        delta=delta,
    )
