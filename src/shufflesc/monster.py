"""Tableau dynamics of the shuffle of two full-transition automata.

The determinized shuffle of two automata with m and n states has states that
are subsets of {0..m-1} x {0..n-1}; we call such a subset an m x n tableau.
When every pair of transformations is available as a letter, a letter
(f, g) sends a tableau E to {(f(i), j)} | {(i, g(j))} over the cells (i, j)
of E.  This module explores that state space: reachability from {(0, 0)}
with minimal depths, the reachable set alone, the count of valid tableaux,
and the exact number of pairwise-distinguishable reachable states over all
choices of final sets.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import cache, cached_property
from heapq import heappop, heappush
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional

from .automata import Dfa, Transformation, _grid, _guard, _int_at_least, _json_int, bits, record


class MonsterLetter(NamedTuple):
    """One letter of the common alphabet: a transformation for each side."""

    left: Transformation
    right: Transformation


@record
class Tableau:
    """A subset of {0..m-1} x {0..n-1}; cell (i, j) means row i, column j."""

    m: int
    n: int
    cells: frozenset

    def __post_init__(self):
        _grid(self.m, self.n)
        cells = frozenset((_json_int(i), _json_int(j)) for i, j in self.cells)
        object.__setattr__(self, "cells", cells)
        if any(not (0 <= i < self.m and 0 <= j < self.n) for i, j in cells):
            raise ValueError(f"cell out of {self.m}x{self.n} range: {sorted(cells)}")

    @property
    def mask(self) -> int:
        """Row-major bitmask; the canonical integer key of a tableau."""
        acc = 0
        for i, j in self.cells:
            acc |= 1 << (i * self.n + j)
        return acc

    @classmethod
    def from_mask(cls, m: int, n: int, mask: int) -> "Tableau":
        """Inverse of `mask`.  Only the grid and the mask are checked: the
        cells of a mask in range are valid, so `__post_init__` is skipped;
        this is how every tableau the search finds is built for output."""
        _grid(m, n)
        if _json_int(mask) < 0 or mask >> (m * n):
            raise ValueError(f"mask {mask} out of {m}x{n} range")
        t = object.__new__(cls)
        t.__dict__.update(m=m, n=n, cells=frozenset(divmod(b, n) for b in bits(mask)))
        return t

    def occupied_rows(self) -> tuple:
        return tuple(sorted({i for i, _ in self.cells}))

    def occupied_cols(self) -> tuple:
        return tuple(sorted({j for _, j in self.cells}))

    def row_support(self, i: int) -> frozenset:
        return frozenset(j for r, j in self.cells if r == i)

    def col_support(self, j: int) -> frozenset:
        return frozenset(i for i, c in self.cells if c == j)

    def render(self) -> str:
        """m lines of n characters, '×' for a marked cell and '.' otherwise."""
        return "\n".join(
            "".join("×" if (i, j) in self.cells else "." for j in range(self.n))
            for i in range(self.m)
        )

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "cells": sorted(map(list, self.cells))}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Tableau":
        return cls(obj["m"], obj["n"], obj["cells"])

    def __repr__(self):
        return f"Tableau({self.m}, {self.n}, {sorted(self.cells)})"


def tableau_step(t: Tableau, letter: MonsterLetter) -> Tableau:
    """Image of a tableau under one letter: rows moved by f plus columns
    moved by g, merged."""
    f, g = letter
    if f.size != t.m or g.size != t.n:
        raise ValueError(
            f"letter sizes ({f.size}, {g.size}) do not match tableau ({t.m}, {t.n})"
        )
    cells = {(f(i), j) for i, j in t.cells} | {(i, g(j)) for i, j in t.cells}
    return Tableau(t.m, t.n, cells)


def is_valid_tableau(t: Tableau) -> bool:
    """True when some cell lies in row 0 and some cell lies in column 0."""
    return any(i == 0 for i, _ in t.cells) and any(j == 0 for _, j in t.cells)


def f_bound(m: int, n: int) -> int:
    """Number of valid m x n tableaux, an upper bound for the shuffle state
    complexity: 2^(mn-1) + 2^((m-1)(n-1)) (2^(m-1)-1) (2^(n-1)-1)."""
    _grid(m, n)
    return (1 << (m * n - 1)) + (
        (1 << ((m - 1) * (n - 1))) * ((1 << (m - 1)) - 1) * ((1 << (n - 1)) - 1)
    )


def scan_guard(m: int, n: int, max_cells: int) -> None:
    """Refuse sides that `_grid` refuses, and a scan over all 2^(mn) masks
    of an m x n grid beyond max_cells."""
    _grid(m, n)
    refusal = f"enumerating 2^{m * n} tableaux exceeds the guard of 2^{max_cells}"
    _guard(m * n, max_cells, "max_cells", refusal)


MaskLines = namedtuple("MaskLines", "row_shifts col0 rows cols")


@cache
def mask_lines(m: int, n: int) -> MaskLines:
    """The layout of m x n masks (`Tableau.mask`) as lines, built once per grid.

    Row i starts at bit `row_shifts[i]`; column 0 is `col0`.  A row (column)
    line is its cells shifted to row (column) 0, its support as a mask, and
    `rows(mask)` (`cols(mask)`) lists the (index, line) pairs of the occupied
    rows (columns) in index order.  A letter (f, g) moves row line i to row
    f(i) and column line j to column g(j).
    """
    width = (1 << n) - 1
    row_shifts = tuple(i * n for i in range(m))
    col0 = sum(1 << t for t in row_shifts)
    numbered_rows = tuple(enumerate(row_shifts))

    def rows(mask):
        return [(i, s) for i, t in numbered_rows if (s := mask >> t & width)]

    def cols(mask):
        return [(j, s) for j in range(n) if (s := mask >> j & col0)]

    return MaskLines(row_shifts, col0, rows, cols)


def valid_masks(m: int, n: int) -> Iterator[int]:
    """Masks of the valid m x n tableaux, increasing.  Scans 2^(mn) masks
    with no guard; `all_valid_tableaux` is the guarded Tableau view."""
    row0 = (1 << n) - 1
    col0 = mask_lines(m, n).col0
    return (mask for mask in range(1, 1 << (m * n)) if mask & row0 and mask & col0)


def all_valid_tableaux(m: int, n: int, max_cells: int = 20) -> Iterator[Tableau]:
    """All valid tableaux, in increasing mask order.  Enumerates 2^(mn) masks."""
    scan_guard(m, n, max_cells)
    for mask in valid_masks(m, n):
        yield Tableau.from_mask(m, n, mask)


# the deepest depth a table byte holds, as depth + 1
MAX_DEPTH = 254


@record
class ReachResult:
    """Reachable tableaux of the m x n shuffle state space with the minimal
    number of steps needed to reach each of them from {(0, 0)}.

    `table` has one byte per mask of the grid (`Tableau.mask`): depth + 1
    for a reached mask, 0 for the others, so it costs 2^(mn) bytes.
    `depths` maps each reached tableau to its depth, in increasing mask
    order, built on first use, and `level(d)` lists the masks of one depth.
    A breadth-first search leaves no depth empty below its deepest, and the
    depth histogram stops at the first empty depth.
    """

    m: int
    n: int
    table: bytearray
    complete: bool

    def __post_init__(self):
        if len(self.table) != 1 << (self.m * self.n):
            raise ValueError(f"a {self.m}x{self.n} depth table has 2^{self.m * self.n} bytes")

    @cached_property
    def depths(self) -> Mapping[Tableau, int]:
        m, n, table = self.m, self.n, self.table
        return {
            Tableau.from_mask(m, n, mask): table[mask] - 1
            for mask in compress(range(len(table)), table)
        }

    @cached_property
    def count(self) -> int:
        return len(self.table) - self.table.count(0)

    def level(self, depth: int) -> list[int]:
        """The masks at `depth`, an int, increasing: one scan of the table.
        No mask has a depth outside 0..MAX_DEPTH, so there the list is empty."""
        if not 0 <= _json_int(depth) <= MAX_DEPTH:
            return []
        select = bytearray(256)  # a translation to 1 at depth + 1 and 0 elsewhere
        select[depth + 1] = 1
        return list(compress(range(len(self.table)), self.table.translate(select)))

    def depth_histogram(self) -> dict[int, int]:
        hist = {}
        for d in range(MAX_DEPTH + 1):
            if not (size := self.table.count(d + 1)):
                break
            hist[d] = size
        return hist

    def saturation_depth(self) -> int:
        return len(self.depth_histogram()) - 1

    def __repr__(self):
        return (
            f"ReachResult({self.m}, {self.n}, count={self.count}, "
            f"depth_histogram={self.depth_histogram()}, complete={self.complete})"
        )


def _expand_mask(mask: int, m: int, n: int) -> list[list[int]]:
    """Distinct images of one tableau's rows under every f and of its columns
    under every g, sorted.  Each axis folds one line at a time, deduplicating
    as maps placing the lines alike coincide, in the order of the lines'
    first cells in the mask (columns by top cell), the fastest measured."""
    lines = mask_lines(m, n)
    cols = sorted(lines.cols(mask), key=lambda line: line[1] & -line[1])
    images = []
    for occupied, shifts in ((lines.rows(mask), lines.row_shifts), (cols, range(n))):
        acc = {0}
        for _, s in occupied:
            placements = {s << t for t in shifts}
            acc = {a | p for a in acc for p in placements}
        images.append(sorted(acc))
    return images


@cache
def _orbit_swaps(m: int, n: int) -> list[tuple[int, int, int]]:
    """Swaps of adjacent rows i, i+1 and adjacent columns j, j+1 with i, j
    at least 1, each as (kept bits, bits of the first line, distance to the
    second); they generate the relabellings that fix row 0 and column 0."""
    lines = mask_lines(m, n)
    full = (1 << (m * n)) - 1
    firsts = [((1 << n) - 1) << lines.row_shifts[i] for i in range(1, m - 1)]
    firsts += [lines.col0 << j for j in range(1, n - 1)]
    dists = [n] * (m - 2) + [1] * (n - 2)
    return [(full ^ (a | a << d), a, d) for a, d in zip(firsts, dists)]


def _close_orbit(table: bytearray, mask: int, mark: int, m: int, n: int) -> int:
    """Write `mark` into `table` at the masks of (s x t)(E) for every
    relabelling (s, t) that fixes row 0 and column 0, E the tableau of
    `mask`, and return how many there are: the closure of `mask` under the
    swaps of `_orbit_swaps`, in time proportional to the orbit's size.  The
    orbit must be unmarked: a mask already marked is taken as a member."""
    swaps = _orbit_swaps(m, n)
    table[mask] = mark
    todo = [mask]
    for x in todo:  # the list grows while it is walked
        for keep, a, d in swaps:
            y = x & keep | (x & a) << d | x >> d & a
            if not table[y]:
                table[y] = mark
                todo.append(y)
    return len(todo)


def _closure(m: int, n: int, step: int, depth_limit: Optional[int]) -> tuple[bytearray, int, bool]:
    """The closure of {(0, 0)} under every letter, one tableau expanded per
    orbit of G (see `reachable_tableaux`): a table of one byte per mask
    (`Tableau.mask`), 0 for the unreached masks, the number reached, and
    whether the closure is complete.

    The orbit representatives wait on a heap as `byte * 2^(mn) + mask`, byte
    the table's at mask, and the smallest is expanded first.  Each image not
    yet in the table opens a new orbit (`_close_orbit`), marked `step` above
    the byte of the tableau expanded.  With step 1 the byte is depth + 1 and
    the heap hands out one level after another, each in increasing mask
    order: the breadth-first search.  With step 0 every byte is 1, and the
    order is by mask alone.  Every letter keeps a tableau valid, so the
    closure stops as soon as it holds f(m, n) masks (`f_bound`), or else
    when the heap is empty.  It stops, incomplete, before it would mark a
    depth past `depth_limit`, and raises RuntimeError before it would mark
    one past MAX_DEPTH.
    """
    span = 1 << (m * n)  # the number of masks
    bound = f_bound(m, n)
    table = bytearray(span)
    table[1] = 1  # {(0, 0)}, mask 1, at depth 0
    count = 1
    heap = [span | 1]
    while heap and count < bound:
        byte, mask = divmod(heappop(heap), span)
        mark = byte + step
        if depth_limit is not None and mark > depth_limit + 1:
            return table, count, False
        if mark > MAX_DEPTH + 1:
            raise RuntimeError(
                f"the search passed depth {MAX_DEPTH}, the deepest a table byte holds"
            )
        row_variants, col_variants = _expand_mask(mask, m, n)
        for rv in row_variants:
            for cv in col_variants:
                s = rv | cv
                if not table[s]:
                    count += _close_orbit(table, s, mark, m, n)
                    heappush(heap, mark * span | s)
    return table, count, True


def reachable_table(m: int, n: int) -> tuple[bytearray, int]:
    """The reachable m x n tableaux with no depths: a table of one byte per
    mask (`Tableau.mask`), 1 for a reachable mask and 0 for the others, and
    the number of reachable masks.  There is no size guard; the table costs
    2^(mn) bytes.

    The closure of {(0, 0)} under the full alphabet is the same set in any
    order, so no level is kept: `_closure` with step 0 expands the smallest
    waiting mask first.  Where `reachable_tableaux` expands all of a level
    to prove it holds nothing more, this order reaches the bound f(m, n)
    after 22 expansions against 49 at 3 x 3, 200 against 1042 at 3 x 6 and
    1042 against 2537 at 4 x 5; at 4 x 4 it takes 371 against 275.
    """
    _grid(m, n)
    return _closure(m, n, 0, None)[:2]


def reachable_tableaux(
    m: int,
    n: int,
    depth_limit: Optional[int] = None,
    max_cells: int = 16,
) -> ReachResult:
    """Breadth-first closure of {(0, 0)} under all letters, one tableau
    expanded per orbit: `_closure` with step 1.  Each level is expanded in
    increasing mask order, which reaches the bound f(m, n) after far fewer
    expansions than discovery order at 2 x 6 and 4 x 4 (43 against 123, 275
    against 1163; 79 against 68 at 3 x 4).

    Each tableau gets its depth when first found, which BFS makes minimal,
    so stopping at f(m, n) changes no depth.  `complete` is True when every
    valid tableau was reached or the closure ran out of new tableaux; it is
    False only when `depth_limit` levels were expanded with tableaux left
    to expand and fewer than f(m, n) found.  A `depth_limit` that is
    negative or not an int raises ValueError.

    The depths are written into a table of one byte per mask (see
    `ReachResult`), which costs 2^(mn) bytes, so `max_cells` also bounds a
    table of 2^max_cells bytes: the default guard refuses grids beyond 16
    cells, a 64 KiB table (the 6 x 6 case alone would take 64 GiB).  The
    result lists the masks in increasing order, not in the order found.

    The search runs on orbits of G, the relabellings (s, t) of the rows and
    the columns that fix row 0 and column 0: permutations s of {0..m-1}
    and t of {0..n-1} with s(0) = 0 and t(0) = 0.  The map E -> (s x t)(E)
    on tableaux fixes {(0, 0)}.  It sends the image of E under a letter
    (f, g) to the image of (s x t)(E) under the conjugate letter
    (s f s^-1, t g t^-1): a cell (i, j) of E gives (f(i), j) and (i, g(j)),
    which (s x t) moves to (s f s^-1 (s(i)), t(j)) and (s(i), t g t^-1
    (t(j))), the images of the cell (s(i), t(j)) of (s x t)(E).
    Conjugation permutes the full alphabet, so by induction on the depth,
    depth((s x t)(E)) = depth(E).  Every level of the search is thus a
    union of orbits: when a tableau is first found, its whole orbit is
    written into the table at the same depth (`_close_orbit`), and only
    that tableau is expanded at the next level.  The images of one tableau
    per orbit, closed under G, are the images of the whole level.  The
    same argument, with no depths, lets any other order mark whole orbits.
    """
    _grid(m, n)
    if depth_limit is not None:
        _int_at_least(depth_limit, 0, "depth_limit")
    _guard(m * n, max_cells, "max_cells", f"{m}x{n} grid exceeds the {max_cells}-cell guard")
    table, _, complete = _closure(m, n, 1, depth_limit)
    return ReachResult(m, n, table, complete)


def distinguishing_letters(m: int, n: int) -> list[MonsterLetter]:
    """The classical three-letter distinguishing alphabet.

    a cycles the rows and sends every column to 0; b sends every row to 0 and
    cycles the columns; c maps row 0 to 1 and all other rows to 0 (a Kronecker
    delta) and sends every column to n-1.  The bare components are read as
    constant maps named by their value ("C-const" reading); under that reading
    some choice of final sets separates every pair of reachable tableaux
    (checked exhaustively at small sizes in the test suite).
    """
    _grid(m, n)
    if m < 2 or n < 2:
        raise ValueError("distinguishing letters need m, n >= 2")
    a = MonsterLetter(
        Transformation.cycle(m, range(m)), Transformation.constant(n, 0)
    )
    b = MonsterLetter(
        Transformation.constant(m, 0), Transformation.cycle(n, range(n))
    )
    c = MonsterLetter(
        Transformation([1] + [0] * (m - 1)), Transformation.constant(n, n - 1)
    )
    return [a, b, c]


@record
class ScResult:
    """Exact shuffle state complexity at (m, n) with every maximizing pair of
    final sets and the size of the reachable tableau space."""

    m: int
    n: int
    value: int
    maximizers: tuple
    reachable_count: int

    def witness(self) -> tuple[frozenset, frozenset]:
        return self.maximizers[0]


def state_complexity_shuffle(
    m: int, n: int, reach: Optional[ReachResult] = None, max_cells: int = 12
) -> ScResult:
    """Exact state complexity of the shuffle at (m, n).

    Finds the reachable tableaux once (finality plays no role there), by
    the closure `reachable_table`, which keeps no depths, then for every
    pair of final sets (F1, F2) counts the classes of the Nerode
    equivalence over the full alphabet, where a tableau is accepting iff it
    meets F1 x F2.  The value is the maximum class count; all maximizing
    pairs are reported, ordered by the bitmasks of F1 then F2 (bit i set
    when state i is final).  Pairs with an empty side make every state
    equivalent and are skipped.  Nothing is refined, and no transition is
    built; each step is proved in `_final_pair_classes`.  A pair with
    F1 = Q1 or F2 = Q2 is counted on the supports of the reached tableaux
    (every pair at 1 x n and n x 1).  Every other pair separates all
    reached tableaux, by words of length 2, so its count is the reachable
    count.  A given `reach` (`reachable_tableaux`) is used instead of the
    closure; it must be a complete search of the m x n grid, or ValueError
    is raised.
    """
    _grid(m, n)
    refusal = f"state-complexity search on a {m}x{n} grid exceeds the {max_cells}-cell guard"
    _guard(m * n, max_cells, "max_cells", refusal)
    if reach is None:
        table, count = reachable_table(m, n)
    elif (reach.m, reach.n) != (m, n):
        raise ValueError(f"reach is of a {reach.m}x{reach.n} grid, not {m}x{n}")
    elif not reach.complete:
        raise ValueError("reach is incomplete, so reachable tableaux may be missing from it")
    else:
        table, count = reach.table, reach.count
    best = 0
    arg: list[tuple[frozenset, frozenset]] = []
    for pair, classes in _final_pair_classes(m, n, table, count):
        if classes > best:
            best, arg = classes, [pair]
        elif classes == best:
            arg.append(pair)
    return ScResult(m, n, best, tuple(arg), count)


def _support_classes(supports, width):
    """Class count of the support quotient (see `_final_pair_classes`) for
    every final set of `width` states, indexed by its mask: each support
    that misses the final set is a class of its own, and the supports that
    meet it make one more class, if there are any.  The supports inside
    each mask are counted for all masks at once, one state at a time, in
    width 2^width steps rather than one pass over the supports per final
    set (2^15 supports and 2^16 final sets at 1 x 16)."""
    full = (1 << width) - 1
    inside = [0] * (full + 1)
    for s in supports:
        inside[s] = 1
    for b in range(width):
        h = 1 << b
        for x in range(full + 1):
            if x & h:
                inside[x] += inside[x ^ h]
    return [
        missing + (missing < len(supports))
        for missing in (inside[full ^ final] for final in range(full + 1))
    ]


def _final_pair_classes(m, n, table, count):
    """Yield ((F1, F2), class count) for every pair of nonempty final sets,
    ordered by the bitmask of F1 then of F2, given the reached masks as the
    nonzero bytes of a mask-indexed `table` and their `count`.

    The count is that of the Nerode equivalence over the full alphabet, and
    nothing is refined: every count follows from the reached masks and
    their supports.  Q1 and Q2 are the whole state sets, and a pair is
    proper when neither side is empty or whole:

    - Quotient, when F1 = Q1.  Then E meets F1 x F2 iff its column support
      C meets F2, and a letter (f, g) sends C to C | g(C), whatever f is.
      So two tableaux are equivalent iff their column supports are
      equivalent in this support automaton, whose states are the column
      supports of the reached tableaux (closed under every letter, as the
      reached tableaux are).  Supports only grow, so every support meeting
      F2 accepts every word: they form one class.  Two distinct supports C
      and C' that miss F2 are separated by one letter: take j in C but not
      in C' (or swap them), and let g send j into F2 and every other column
      to a column of C'; then C | g(C) meets F2 and C' | g(C') = C' does
      not.  The count is thus the number of supports missing F2, plus one
      if some support meets F2 (`_support_classes`).  F2 = Q2 is the same
      on row supports, with f acting.
    - Separated, for every proper pair: any two distinct tableaux are
      separated by a word of length 2, so the count is the reachable
      count.  A letter acts cell by cell, so a word w accepts from E iff E
      meets S_w = {c : {c}·w meets F1 x F2}, and reading a letter (f, g)
      first gives S_(f,g)w = (f x id)^-1(S_w) | (id x g)^-1(S_w).  Take a
      cell (p, q).  Let a = (f, g) with f constant at a state outside F1
      and g^-1(F2) = {q} (both exist, as F1 != Q1 and F2 is proper); then
      S_a = F1 x {q}.  Let b = (f', g') with f'^-1(F1) = {p} and g'
      constant at a column other than q (both exist, as F1 is proper and
      F2 proper forces n >= 2); then S_ba = {(p, q)}.  So ba accepts
      exactly the tableaux that hold (p, q), and a cell in one tableau but
      not the other separates them.
    """
    q1, q2 = (1 << m) - 1, (1 << n) - 1  # the bits of Q1 and Q2
    row_supports, col_supports = set(), set()
    numbered_shifts = tuple(enumerate(mask_lines(m, n).row_shifts))
    for mask in compress(range(len(table)), table):
        row_bits = col_bits = 0
        for i, t in numbered_shifts:
            if line := mask >> t & q2:
                row_bits |= 1 << i
                col_bits |= line
        row_supports.add(row_bits)
        col_supports.add(col_bits)
    row_classes = _support_classes(row_supports, m)
    col_classes = _support_classes(col_supports, n)
    for f1_bits in range(1, q1 + 1):
        for f2_bits in range(1, q2 + 1):
            classes = (
                col_classes[f2_bits] if f1_bits == q1
                else row_classes[f1_bits] if f2_bits == q2
                else count
            )
            yield (frozenset(bits(f1_bits)), frozenset(bits(f2_bits))), classes


def monster_dfa(
    size: int, finals: Iterable[int], letters: Iterable[MonsterLetter], side: str
) -> Dfa:
    """One side of a pair of full-transition automata, restricted to the
    given letters.  `side` selects which component of each letter acts."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    letters = tuple(letters)
    maps = [getattr(letter, side) for letter in letters]
    for letter, t in zip(letters, maps):
        if t.size != size:
            raise ValueError(f"letter {letter} does not act on {size} states")
    table = list(zip(*(t.images for t in maps))) if maps else [()] * size
    return Dfa(size, letters, 0, finals, table)
