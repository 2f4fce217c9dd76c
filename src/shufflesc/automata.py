"""Finite automata with total transitions, plus transformations of {0..n-1}.

States are dense integer indices.  Letters are opaque hashable values: strings,
ints, or pairs of transformations all work unchanged.  Every operation returns
a fresh value; nothing is mutated after construction, so automata are safe to
share across threads.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

Letter = Hashable


class Transformation:
    """A total map of {0..n-1} into itself, stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(int(i) for i in images)
        n = len(images)
        if any(not 0 <= i < n for i in images):
            raise ValueError(f"images {images} not within range({n})")
        self.images = images

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
        return hash(self.images)

    def __repr__(self):
        return f"Transformation({list(self.images)})"


@dataclass(frozen=True, eq=True)
class Dfa:
    """Complete deterministic automaton: delta is total on states x alphabet."""

    state_count: int
    alphabet: tuple
    initial: int
    finals: frozenset
    delta: Mapping[tuple[int, Letter], int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "delta", dict(self.delta))
        if not 0 <= self.initial < self.state_count:
            raise ValueError(f"initial state {self.initial} out of range")
        if any(not 0 <= q < self.state_count for q in self.finals):
            raise ValueError("final state out of range")
        for q in range(self.state_count):
            for a in self.alphabet:
                dst = self.delta.get((q, a))
                if dst is None:
                    raise ValueError(f"delta undefined at ({q}, {a!r})")
                if not 0 <= dst < self.state_count:
                    raise ValueError(f"delta({q}, {a!r}) = {dst} out of range")

    def step(self, state: int, letter: Letter) -> int:
        return self.delta[(state, letter)]

    def run(self, word: Iterable[Letter]) -> int:
        state = self.initial
        for a in word:
            state = self.delta[(state, a)]
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
        for (q, _), dsts in self.delta.items():
            if not 0 <= q < self.state_count:
                raise ValueError(f"state {q} out of range")
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
    for p in range(k.state_count):
        for q in range(l.state_count):
            src = p * width + q
            for a in k.alphabet:
                delta[(src, a)] = frozenset(
                    {k.delta[(p, a)] * width + q, p * width + l.delta[(q, a)]}
                )
    return Nfa(
        state_count=k.state_count * width,
        alphabet=k.alphabet,
        initials={k.initial * width + l.initial},
        finals={p * width + q for p in k.finals for q in l.finals},
        delta=delta,
    )


def determinize(n: Nfa) -> Dfa:
    """Subset construction restricted to reachable subsets.

    Subsets are numbered in breadth-first discovery order (letters taken in
    alphabet order), so the result is reproducible; state 0 is the initial
    subset.
    """
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
    return Dfa(len(order), n.alphabet, 0, finals, delta)


def _accessible(d: Dfa) -> list[int]:
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
    pos = {q: i for i, q in enumerate(order)}
    succ = [tuple(pos[d.delta[(q, a)]] for a in d.alphabet) for q in order]
    codes = moore_refine(successor_rows(succ), [int(q in d.finals) for q in order])

    # position 0 is the initial state
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
    return Dfa(len(renum), d.alphabet, 0, finals, delta)


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
            [q, _thaw(a), d.delta[(q, a)]]
            for q in range(d.state_count)
            for a in d.alphabet
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
