"""Finite automata with total transitions, plus transformations of {0..n-1}.

States are dense integer indices.  Letters are opaque hashable values: strings,
ints, or pairs of transformations all work unchanged.  Every operation returns
a fresh value, except that `minimize` returns an input that is already
minimal and numbered breadth-first as it is; nothing is mutated after
construction, so automata are safe to share across threads.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from functools import cached_property, reduce
from operator import attrgetter, itemgetter, or_
from typing import Hashable, Iterable, Iterator, Mapping

Letter = Hashable


def record(cls):
    """Make `cls` a frozen record over its annotated fields, in order, as
    `dataclass(frozen=True)` does but with closures, not `exec`, for methods.
    A method the class writes itself, `__hash__ = None` included, is kept."""
    names = tuple(cls.__annotations__)
    values = attrgetter(*names)  # the tuple of the fields: a record has two or more
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        rest = names[len(args) :]  # the fields not given by position
        if len(args) > len(names) or kwargs.keys() != set(rest):
            raise TypeError(
                f"{cls.__name__}() takes {', '.join(names)}, got {len(args)} by position"
                f" and {sorted(kwargs)} by keyword"
            )
        self.__dict__.update(zip(names, (*args, *map(kwargs.get, rest))))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, values(self)))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls


# the set bits of each byte value, increasing
_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative mask, increasing.  The mask is
    read byte by byte from one `to_bytes` copy, so a wide mask is decoded in
    time linear in its width."""
    for k, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) >> 3, "little")):
        if byte:
            k <<= 3
            for b in _BYTE_BITS[byte]:
                yield k + b


class Transformation:
    """A total map of {0..n-1} into itself, stored as its tuple of images.

    The hash of the images is computed once, at construction.  The table
    constructions hash a letter only once per table, to check repeated
    letters, but the `delta` views of `Dfa` and `Nfa` (read by `step`, `run`
    and `step_set`) hold one key per (state, letter), so a key would
    otherwise rehash its images on every lookup."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(map(_json_int, images))
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
        return cls(range(_size(n)))

    @classmethod
    def constant(cls, n: int, value: int) -> "Transformation":
        return cls([value] * _size(n))

    @classmethod
    def cycle(cls, n: int, points: Iterable[int]) -> "Transformation":
        """The cycle (i0,...,il-1): each listed point maps to the next, the
        last wraps to the first, everything else is fixed."""
        n, points = _size(n), list(map(_json_int, points))
        seen = set()
        for a in points:
            if not 0 <= a < n:
                raise ValueError(f"point {a} not within range({n})")
            if a in seen:
                raise ValueError(f"point {a} given twice")
            seen.add(a)
        images = list(range(n))
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
        return cls(images)

    @classmethod
    def from_map(cls, n: int, mapping: Mapping[int, int]) -> "Transformation":
        """Total map equal to `mapping` where defined and the identity elsewhere."""
        images = list(range(_size(n)))
        for k, v in mapping.items():
            if not 0 <= _json_int(k) < n:
                raise ValueError(f"key {k} not within range({n})")
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


def _size(n):
    """`n`, the size of a transformation, refused unless an int >= 0."""
    if _json_int(n) < 0:
        raise ValueError(f"size {n} is negative")
    return n


def _check_table(table, state_count, alphabet, bound, name):
    """Check that `table` is state_count rows of one entry in range(bound) per
    letter position, and that the columns of a repeated letter are equal.
    Each letter is hashed once, never once per (state, letter), and the
    range is checked on the distinct entries alone."""
    if len(table) != state_count or any(len(row) != len(alphabet) for row in table):
        raise ValueError(f"table is not {state_count} rows of {len(alphabet)} successors")
    entries = set().union(*table)
    if entries and not (min(entries) >= 0 and max(entries) < bound):
        q, i = next(
            (q, i)
            for q, row in enumerate(table)
            for i, dst in enumerate(row)
            if not 0 <= dst < bound
        )
        raise ValueError(f"{name}({q}, {alphabet[i]!r}) = {table[q][i]} out of range")
    first: dict = {}
    for i, a in enumerate(alphabet):
        j = first.setdefault(a, i)
        if j != i and any(row[i] != row[j] for row in table):
            raise ValueError(f"letter {a!r} is repeated in the alphabet with different columns")


@record
class Dfa:
    """Complete deterministic automaton: delta is total on states x alphabet.

    `table[q][i]` is the successor of state q under `alphabet[i]`, one tuple
    per state in alphabet order; the constructions of this module read and
    build tables.  The constructor freezes the alphabet, the finals and the
    rows, and checks the states and the table (`_check_table`).  `delta` is
    the same function keyed by (state, letter), built on first use; `step`,
    `run` and `accepts` read it.
    """

    state_count: int
    alphabet: tuple
    initial: int
    finals: frozenset
    table: tuple

    def __post_init__(self):
        alphabet, table = tuple(self.alphabet), tuple(map(tuple, self.table))
        finals = frozenset(map(_json_int, self.finals))
        self.__dict__.update(alphabet=alphabet, finals=finals, table=table)
        if not 0 <= _json_int(self.initial) < _json_int(self.state_count):
            raise ValueError(f"initial state {self.initial} out of range")
        if any(not 0 <= q < self.state_count for q in finals):
            raise ValueError("final state out of range")
        _check_table(table, self.state_count, alphabet, self.state_count, "delta")

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


def _mask(states: Iterable[int]) -> int:
    return sum(1 << q for q in states)


@record
class Nfa:
    """Nondeterministic automaton without epsilon transitions.

    `table[q][i]` is the successor mask of state q under `alphabet[i]`, bit d
    for successor d and 0 for none, one tuple per state in alphabet order;
    the constructions of this module read and build tables.  The
    constructor freezes the alphabet, the state sets and the rows, and
    checks the states and the table (`_check_table`).  `delta` is the same
    relation keyed by (state, letter), with frozenset values for the
    nonempty sets only, built on first use; `step_set`, `run_subset` and
    `accepts` read it.
    """

    state_count: int
    alphabet: tuple
    initials: frozenset
    finals: frozenset
    table: tuple

    def __post_init__(self):
        alphabet, table = tuple(self.alphabet), tuple(map(tuple, self.table))
        initials = frozenset(map(_json_int, self.initials))
        finals = frozenset(map(_json_int, self.finals))
        self.__dict__.update(alphabet=alphabet, initials=initials, finals=finals, table=table)
        for q in initials | finals:
            if not 0 <= q < self.state_count:
                raise ValueError(f"state {q} out of range")
        _check_table(table, self.state_count, alphabet, 1 << self.state_count, "mask of delta")

    @cached_property
    def delta(self) -> Mapping[tuple[int, Letter], frozenset]:
        return {
            (q, a): frozenset(bits(mask))
            for q, row in enumerate(self.table)
            for a, mask in zip(self.alphabet, row)
            if mask
        }

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
    word from each language: the successor mask of (p, q) under a letter
    has the bits of (k's successor of p, q) and (p, l's successor of q).
    """
    if tuple(k.alphabet) != tuple(l.alphabet):
        raise ValueError("shuffle requires a common alphabet")
    width = l.state_count
    table = [
        tuple((1 << (kp * width + q)) | (1 << (p * width + lq)) for kp, lq in zip(krow, lrow))
        for p, krow in enumerate(k.table)
        for q, lrow in enumerate(l.table)
    ]
    return Nfa(
        k.state_count * width,
        k.alphabet,
        {k.initial * width + l.initial},
        {p * width + q for p in k.finals for q in l.finals},
        table,
    )


# one 64-bit field of a packed row (see `determinize`)
_FIELD = (1 << 64) - 1


class _Numbering(dict):
    """Numbers keys in order of first lookup: reading a missing key gives it
    the next number and appends it to `order`."""

    __slots__ = ("order",)

    def __init__(self):
        self.order = []

    def __missing__(self, key):
        i = self[key] = len(self.order)
        self.order.append(key)
        return i


def determinize(n: Nfa) -> Dfa:
    """Subset construction restricted to reachable subsets.

    Subsets are masks, bit d for state d.  Each state's row of `n.table` is
    packed once into one int per plane of 64 states: plane p holds bits
    64p..64p+63 of every letter's successor mask, in a 64-bit field at the
    letter's position, in native byte order.  The successors of a subset
    under every letter are then the OR of its states' packed ints, one
    C-level `|` per state and plane, split back into one int per letter by
    a `memoryview` cast (the planes past the first shifted into place), and
    numbered as they are read, so each subset builds one tuple, its row of
    the result.  Subsets are numbered in breadth-first discovery order
    (letters taken in alphabet order), so the result is reproducible; state
    0 is the initial subset.
    """
    width = 8 * len(n.alphabet)
    shifts = range(0, max(64, n.state_count), 64)
    packed = [
        [
            int.from_bytes(array("Q", [m >> s & _FIELD for m in row]).tobytes(), sys.byteorder)
            for row in n.table
        ]
        for s in shifts
    ]

    def fields(plane, members):
        acc = reduce(or_, map(plane.__getitem__, members), 0)
        return memoryview(acc.to_bytes(width, sys.byteorder)).cast("Q")

    index = _Numbering()
    index[_mask(n.initials)]  # the initial subset is number 0
    order = index.order
    table = []
    for subset in order:
        members = list(bits(subset))
        row = fields(packed[0], members)
        for s, plane in zip(shifts[1:], packed[1:]):
            row = map(or_, row, [w << s for w in fields(plane, members)])
        table.append(tuple(map(index.__getitem__, row)))
    finals = _mask(n.finals)
    return Dfa(
        len(order), n.alphabet, 0, [i for i, s in enumerate(order) if s & finals], table
    )


def _accessible(d: Dfa) -> _Numbering:
    """Accessible states numbered in breadth-first order from the initial
    state: the position of each state, and the states in `order`."""
    pos = _Numbering()
    pos[d.initial]
    for q in pos.order:
        # reading the positions of q's successors numbers the new ones
        deque(map(pos.__getitem__, d.table[q]), 0)
    return pos


def _no_successors(codes):
    return ()


def moore_refine(successors, codes) -> list:
    """Moore refinement: split classes by successor classes until stable.

    `codes[s]` is the initial class code of state s and `successors[s]` the
    tuple of its successor indices, one per letter.  Each round numbers
    every state by its code and the codes of its successors, read by one
    C-level `itemgetter` call over that tuple; it stops once a round splits
    nothing.  When there is only one class or every state has a class of
    its own, neither can split: no round runs and no successor is read.
    Returns a class code per state: equal codes mean equivalent states, the
    values themselves carry nothing.
    """
    codes = list(codes)
    count = len(set(codes))
    if not 1 < count < len(codes):
        return codes
    rows = [itemgetter(*succ) if succ else _no_successors for succ in successors]
    while True:
        sigs: dict = {}
        codes = [sigs.setdefault((c, row(codes)), len(sigs)) for c, row in zip(codes, rows)]
        if len(sigs) in (count, len(codes)):
            return codes
        count = len(sigs)


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA of the same language.

    Moore partition refinement (`moore_refine`) on the accessible part:
    states start split by finality and are repeatedly split by the classes
    of their successors.  The classes of the result are renumbered in
    breadth-first order from the initial class, so equal inputs give
    identical outputs.  If every state is accessible, already numbered
    breadth-first (as `determinize` numbers subsets) and in a class of its
    own, that renumbering is the identity and the result is `d` itself: the
    subset construction of a shuffle that meets the bound f(m, n) is such a
    case.
    """
    pos = _accessible(d)
    order = pos.order
    identity = order == list(range(len(order)))
    if identity:
        # the table itself gives the successor positions
        succ = d.table[: len(order)]
    else:
        succ = [tuple(map(pos.__getitem__, d.table[q])) for q in order]
    codes = moore_refine(succ, [int(q in d.finals) for q in order])
    if identity and len(order) == d.state_count and len(set(codes)) == len(codes):
        # initial state 0, the same finals and `succ` is `d.table`
        return d

    # the partition is stable, so any member stands for its class; position
    # 0 is the initial state
    rep = dict(zip(codes, range(len(codes))))
    renum = _Numbering()
    renum[codes[0]]  # the initial class is number 0
    table = []
    for c in renum.order:
        table.append(tuple(map(renum.__getitem__, map(codes.__getitem__, succ[rep[c]]))))
    finals = [renum[c] for c, q in zip(codes, order) if q in d.finals]
    return Dfa(len(table), d.alphabet, 0, finals, table)


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


def _json_int(value):
    """`value`, an int given to a record or read from a JSON form; a float,
    a bool or anything else is refused by name, never rounded or taken as 0
    or 1."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


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
    """The DFA of a JSON form, which gives every (state, letter) of
    range(states) x alphabet exactly once."""
    state_count = _json_int(obj["states"])
    alphabet = tuple(_freeze(a) for a in obj["alphabet"])
    delta: dict = {}
    for src, a, dst in obj["delta"]:
        key = (_json_int(src), _freeze(a))
        if delta.setdefault(key, _json_int(dst)) != dst:
            raise ValueError(f"delta gives {key!r} two successors, {delta[key]} and {dst}")
    table = []
    for q in range(state_count):
        row = tuple(delta.get((q, a)) for a in alphabet)
        if None in row:
            raise ValueError(f"delta undefined at ({q}, {alphabet[row.index(None)]!r})")
        table.append(row)
    # every key of range(state_count) x alphabet is present, so any further
    # key lies outside it
    if len(delta) > state_count * len(set(alphabet)):
        keys = {(q, a) for q in range(state_count) for a in alphabet}
        stray = next(key for key in delta if key not in keys)
        raise ValueError(f"delta key {stray!r} outside range({state_count}) x alphabet")
    return Dfa(state_count, alphabet, obj["initial"], obj["finals"], table)


def nfa_to_json(n: Nfa) -> dict:
    return {
        "states": n.state_count,
        "alphabet": [_thaw(a) for a in n.alphabet],
        "initial": sorted(n.initials),
        "finals": sorted(n.finals),
        "delta": [
            [q, _thaw(a), dst]
            for q, row in enumerate(n.table)
            for a, mask in zip(n.alphabet, row)
            for dst in bits(mask)
        ],
    }


def nfa_from_json(obj: Mapping) -> Nfa:
    """The NFA of a JSON form, whose triples lie in range(states) x
    alphabet x range(states)."""
    state_count = _json_int(obj["states"])
    alphabet = tuple(_freeze(a) for a in obj["alphabet"])
    delta: dict = {}
    for src, a, dst in obj["delta"]:
        delta.setdefault((_json_int(src), _freeze(a)), set()).add(_json_int(dst))
    letters = set(alphabet)
    for (q, a), dsts in delta.items():
        if not 0 <= q < state_count:
            raise ValueError(f"state {q} out of range")
        if a not in letters:
            raise ValueError(f"delta key {(q, a)!r}: letter {a!r} not in the alphabet")
        if any(not 0 <= d < state_count for d in dsts):
            raise ValueError(f"successor set {dsts} out of range")
    table = [[_mask(delta.get((q, a), ())) for a in alphabet] for q in range(state_count)]
    return Nfa(state_count, alphabet, obj["initial"], obj["finals"], table)
