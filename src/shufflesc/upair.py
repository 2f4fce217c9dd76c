"""Set-vector calculus for paths in the shuffle state space.

A path from {(0, 0)} in the tableau automaton can be encoded by a pair of
vectors of disjoint sets: walk the path and let each step stamp fresh
integers recording where every cell came from.  After k steps the stamps
partition {1..2^k}; the left vector reads the partition off the rows and the
right vector off the columns.  The projection back to a tableau keeps the
pairs (i, j) whose row set meets whose column set.

The vectors that arise this way are exactly the graded families generated
from [{1}, {}, ...] by the one-step successor operations below, and they are
characterized by a hereditary half-block condition (`is_rvalid` /
`is_lvalid`).  This module implements the calculus, the graded generation,
the tableau projection, and explicit constructions hitting notable target
tableaux (permutation tableaux, the full tableau, single-cell erasure).
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import chain, compress, count, permutations, product, repeat
from operator import add, and_, lshift, mod, ne, or_, rshift
from typing import Iterable, Iterator, Mapping, Sequence

from .automata import Transformation, _grid, _guard, _int_at_least, _json_int, bits, record
from .errors import SizeGuardError
from .monster import MonsterLetter, Tableau, mask_lines, scan_guard


@lru_cache(maxsize=1 << 12)
def _elements(mask: int) -> tuple[int, ...]:
    """The elements of a part mask, increasing: bit x - 1 is element x.
    Listings decode the same few parts many times over, hence the cache."""
    return tuple(b + 1 for b in bits(mask))


class SetVector:
    """An ordered vector of pairwise-disjoint finite sets of positive integers,
    each part held as a mask with bit x - 1 for element x: `v[i]` and
    iteration yield masks, `support`, `key`, `to_lists` and `str` elements.
    A vector's memory therefore grows with its largest element, not with
    its number of elements."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Iterable[int]]):
        masks = []
        for p in parts:
            elements = set(map(_json_int, p))
            if any(x < 1 for x in elements):
                raise ValueError("set-vector elements must be positive integers")
            masks.append(sum(1 << (x - 1) for x in elements))
        self.parts = SetVector.of_masks(masks).parts

    @classmethod
    def of_masks(cls, masks: Iterable[int]) -> "SetVector":
        """The vector whose part i is masks[i]."""
        v = object.__new__(cls)
        v.parts = tuple(map(_json_int, masks))
        if v.parts and min(v.parts) < 0:
            raise ValueError("set-vector elements must be positive integers")
        if sum(map(int.bit_count, v.parts)) != v._union().bit_count():
            raise ValueError(f"parts are not pairwise disjoint: {v}")
        return v

    def _union(self) -> int:
        return reduce(or_, self.parts, 0)

    @classmethod
    def base(cls, length: int) -> "SetVector":
        """[{1}, {}, ..., {}], the grade-0 vector every path starts from."""
        return cls.of_masks([1] + [0] * (_int_at_least(length, 1, "length") - 1))

    @property
    def support(self) -> frozenset:
        return frozenset(b + 1 for b in bits(self._union()))

    def nonempty_count(self) -> int:
        return sum(1 for p in self.parts if p)

    def grade(self) -> int:
        """k such that the union of the parts is exactly {1..2^k}."""
        sup = self._union()
        k = max(sup.bit_count().bit_length() - 1, 0)
        if sup != (1 << (1 << k)) - 1:
            raise ValueError(f"support {sorted(self.support)} is not of the form {{1..2^k}}")
        return k

    def key(self) -> tuple:
        """Canonical hashable form: elements sorted inside each part."""
        return tuple(map(_elements, self.parts))

    @classmethod
    def parse(cls, text: str) -> "SetVector":
        """Inverse of str(): e.g. '[{1,4},{2,7},{3,5,6,8}]'."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"not a set-vector literal: {text!r}")
        body = text[1:-1]
        if body and re.fullmatch(r"\s*\{[^{}]*\}(\s*,\s*\{[^{}]*\})*\s*", body) is None:
            raise ValueError(f"not a set-vector literal: {text!r}")
        parts = re.findall(r"\{([^{}]*)\}", body)
        return cls([[int(x) for x in p.split(",") if x.strip()] for p in parts])

    def to_lists(self) -> list[list[int]]:
        return [list(p) for p in self.key()]

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, SetVector) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "[" + ",".join(part_texts(self.parts, "{}")) + "]"


def act(v: SetVector, h: Transformation) -> SetVector:
    """Move the parts along h: entry j of the result is the union of the
    parts whose index maps to j."""
    if h.size != len(v):
        raise ValueError(f"transformation size {h.size} != vector length {len(v)}")
    out = [0] * len(v)
    for part, target in zip(v.parts, h.images):
        out[target] |= part
    return SetVector.of_masks(out)


def shift_up(v: SetVector) -> SetVector:
    """Add r = max element to every element."""
    r = v._union().bit_length()
    if r == 0:
        raise ValueError("cannot shift an all-empty vector")
    return SetVector.of_masks(p << r for p in v.parts)


def union_vec(v1: SetVector, v2: SetVector) -> SetVector:
    """Entrywise union; the operands must not share elements across parts."""
    if len(v1) != len(v2):
        raise ValueError(f"length mismatch: {len(v1)} != {len(v2)}")
    return SetVector.of_masks(a | b for a, b in zip(v1.parts, v2.parts))


def succ_right(p: SetVector, g: Transformation) -> SetVector:
    """One right-side step: P | (P.g)^up, raising the grade by one."""
    return union_vec(p, shift_up(act(p, g)))


def succ_left(lam: SetVector, f: Transformation) -> SetVector:
    """One left-side step: (L.f) | L^up.  The left side moves the existing
    low block and shifts the unmoved vector into the fresh high block; the
    right side does the opposite."""
    return union_vec(act(lam, f), shift_up(lam))


class Packing:
    """Length-n set vectors of grade at most k, each held as one int: part t
    sits in field t, the `width` = 2^k + n.bit_length() bits from bit
    t * width, with element x at bit x - 1 of its field.  The 2^k low bits
    of a field hold a part; the n.bit_length() bits of headroom above them
    keep a sum of n parts, or a part plus 2^(width-1) - 1, inside one
    field.  So the successor maps, the partition check and the counts of
    nonempty parts act on whole vectors at once, in C."""

    __slots__ = ("n", "k", "width", "shifts", "field", "full", "fill", "high", "tops")

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.width = width = (1 << k) + n.bit_length()
        self.shifts = range(0, n * width, width)
        self.field = (1 << width) - 1
        self.full = (1 << (1 << k)) - 1  # {1..2^k}
        ones = ((1 << (n * width)) - 1) // self.field  # bit 0 of every field
        self.fill = ones * ((1 << (width - 1)) - 1)
        self.high = ones << (width - 1)
        self.tops = ones << ((1 << k) - 1)  # element 2^k of every field

    def pack(self, parts: Iterable[int]) -> int:
        return sum(map(lshift, parts, self.shifts))

    def unpack(self, x: int) -> tuple:
        """The part masks of a packed vector."""
        return tuple(map(and_, map(rshift, repeat(x), self.shifts), repeat(self.field)))

    def ranks(self, level: Sequence[int]) -> tuple[list[tuple], list[int]]:
        """Each packed vector of `level` as the tuple of its parts' ranks in
        `canonical_parts`, in the level's order, and those parts by rank.
        Sorting the rank tuples sorts the vectors canonically.  Each field is
        read from the level once, into a list of its parts."""
        fields = [list(map(and_, map(rshift, level, repeat(s)), repeat(self.field)))
                  for s in self.shifts]
        parts = canonical_parts(fields)
        rank = dict(zip(parts, count())).__getitem__
        return list(zip(*(map(rank, f) for f in fields))), parts

    def nonempty_counts(self, level: Iterable[int]) -> Iterator[int]:
        """The count of nonempty parts of each packed vector: adding
        2^(width-1) - 1 to a field sets its top bit exactly when the field
        is nonzero, and carries no further, since a part is below 2^(2^k)
        <= 2^(width-1)."""
        return map(int.bit_count, map(and_, map(add, level, repeat(self.fill)), repeat(self.high)))

    def top_field(self, x: int) -> int:
        """The field holding element 2^k."""
        return ((x & self.tops).bit_length() - 1) // self.width

    def misfits(self, level: Sequence[int]) -> Iterator[int]:
        """The packed vectors of `level` whose parts do not partition
        {1..2^k}, read in three passes of C: the sum of the fields, taken
        modulo 2^width - 1 since 2^width is 1 there, must be {1..2^k}, the
        vector must hold 2^k elements, and nothing may lie past field n - 1.

        The three together are exact.  popcount(a + b) <= popcount(a) +
        popcount(b), with equality only when a & b == 0.  Reducing x modulo
        2^width - 1 adds up its width-bit chunks, its fields, then the
        chunks of that sum, and so on, down to {1..2^k} when the first check
        holds, since that is the one value below 2^width congruent to it.
        No step raises the popcount, so 2^k = popcount(x) >= popcount(sum of
        the fields) >= popcount({1..2^k}) = 2^k.  So the fields are pairwise
        disjoint, their sum is their union, below 2^width, and that sum is
        {1..2^k} itself."""
        elements = 1 << self.k
        return compress(level, map(
            or_,
            map(or_, map(ne, map(mod, level, repeat(self.field)), repeat(self.full)),
                map(ne, map(int.bit_count, level), repeat(elements))),
            map(rshift, level, repeat(self.n * self.width)),
        ))

    def successors(self, x: int, r: int) -> Iterator[int]:
        """The packed succ_right(x, g) for every map g on the occupied parts
        of the packed vector x, whose elements lie in {1..r}, the others
        fixed; the successors must fit in grade k (2r <= 2^k).  Each is x
        plus one placement per occupied part, that part shifted up by r into
        some field; maps run in `product` order over the occupied parts.
        Distinct maps give distinct successors."""
        placements = [
            list(map(lshift, repeat(part << r), self.shifts)) for part in self.unpack(x) if part
        ]
        return map(sum, product(*placements), repeat(x))


def mirror_part(part: int, k: int) -> int:
    """Replace every element x of a part mask by 2^k + 1 - x, that is,
    reverse its low 2^k bits; the part must lie inside {1..2^k}."""
    width = 1 << k
    return int(f"{part:0{width}b}"[::-1], 2)


def mirror(v: SetVector, k: int) -> SetVector:
    """`mirror_part` of every part of a grade-k vector.

    An involution exchanging the left-valid and right-valid families.
    """
    if v._union() >> (1 << _int_at_least(k, 0, "k")):
        raise ValueError(f"vector is not of grade {k}")
    return SetVector.of_masks(mirror_part(p, k) for p in v.parts)


def half_blocks_closed(parts: Sequence[int], k: int) -> bool:
    """The half-block condition of right validity on part masks: for every
    k' < k, each part's low 2^k' bits, shifted up by 2^k', lie inside one
    part.  It reads the parts as a set, so their order does not matter."""
    for kp in range(k):
        h = 1 << kp
        low = (1 << h) - 1
        for p in parts:
            moved = (p & low) << h
            if moved and not any(moved & q == moved for q in parts):
                return False
    return True


def is_rvalid(v: SetVector, k: int) -> bool:
    """Right validity at grade k.

    The parts must partition {1..2^k}, 1 must lie in the first part, and
    the parts must be closed under half blocks (`half_blocks_closed`): for
    every k' < k, elements of {1..2^k'} sharing a part must still share a
    part after adding 2^k'.  The condition is hereditary because each step
    appends a shifted copy of the moved previous vector on the right.
    """
    return (
        v._union() == (1 << (1 << _int_at_least(k, 0, "k"))) - 1
        and bool(v.parts[0] & 1)
        and half_blocks_closed(v.parts, k)
    )


def is_lvalid(v: SetVector, k: int) -> bool:
    """Left validity at grade k: the mirror image must be right-valid."""
    return not v._union() >> (1 << _int_at_least(k, 0, "k")) and is_rvalid(mirror(v, k), k)


def canonical_parts(vectors: Iterable[Sequence[int]]) -> list[int]:
    """The distinct parts of `vectors`, in the order of their element
    tuples, which is the order `SetVector.key` compares them in."""
    return sorted(set(chain.from_iterable(vectors)), key=_elements)


def part_texts(parts: Iterable[int], brackets: str) -> list[str]:
    """The text of each part, decoded once: brackets "{}" give the `str`
    form {1,4}, "[]" the JSON list [1,4]."""
    return [brackets[0] + ",".join(map(str, _elements(p))) + brackets[1] for p in parts]


def stamp_guard(grade: int, what: str, max_count: int) -> None:
    """Refuse a vector of `grade`, whose 2^grade stamped elements exceed
    `max_count`, before anything is built; 2^grade itself is never formed."""
    if grade >= _int_at_least(max_count, 0, "max_count").bit_length():
        raise SizeGuardError(
            f"{what} has grade {grade}, so 2^{grade} elements, "
            f"beyond the guard of {max_count}",
            "max_count",
        )


def graded_level(n: int, k: int, max_count: int = 2_000_000) -> list[int]:
    """The grade-k family of right-valid vectors of length n, each packed
    as by `Packing(n, k)`, in no order.

    Generated by iterating `Packing.successors` from the base vector.
    `max_count` bounds the 2^k elements of one vector and the maps tried
    in each grade, the sum of n^(occupied parts) over the vectors of the
    grade before.  Both are checked before anything is built, the maps from
    the exact totals (`enumeration.r_totals`).  Every vector of the result
    is checked to partition {1..2^k} (`Packing.misfits`); a failure is an
    internal fault and raises `RuntimeError`.
    """
    from .enumeration import r_totals  # enumeration imports this module

    _int_at_least(n, 1, "n")
    _int_at_least(k, 0, "k")
    stamp_guard(k, f"a graded vector of length {n}", max_count)
    # The maps tried into a grade are exactly its vectors, r_total(n, grade):
    # distinct maps on a parent's occupied parts give distinct successors,
    # and a successor's low half is its parent, so no two tries coincide
    # and the level needs no set.
    for grade, tries in enumerate(r_totals(n, k)[1:], 1):
        refusal = (
            f"grade {grade} of length-{n} vectors tries {tries} maps, "
            f"beyond the guard of {max_count}"
        )
        _guard(tries, max_count, "max_count", refusal)
    packing = Packing(n, k)
    level = [1]
    for grade in range(k):
        level = list(chain.from_iterable(map(packing.successors, level, repeat(1 << grade))))
    for bad in packing.misfits(level):
        raise RuntimeError(
            f"grade-{k} successor {packing.unpack(bad)} does not partition 1..{1 << k}"
        )
    return level


def generate_graded(n: int, k: int, max_count: int = 2_000_000) -> list[SetVector]:
    """The full grade-k family of right-valid vectors of length n, sorted
    canonically: the rank tuples of `graded_level` (`Packing.ranks`),
    sorted, and only then made into `SetVector`s.  The left-valid family
    is its `mirror`.  `max_count` is the guard of `graded_level`."""
    level = graded_level(n, k, max_count)  # first: Packing(n, k) does not check n and k
    vectors, parts = Packing(n, k).ranks(level)
    vectors.sort()
    return [SetVector.of_masks(map(parts.__getitem__, v)) for v in vectors]


@record
class UPair:
    """A pair (left, right) of valid vectors of equal grade.

    Such pairs are in bijection with the useful paths out of {(0, 0)} in the
    tableau automaton; the projection `s_projection` recovers the endpoint.
    Construction validates both sides, so a UPair is valid by construction.
    """

    left: SetVector
    right: SetVector

    def __post_init__(self):
        k = self.left.grade()
        if self.right.grade() != k:
            raise ValueError("left and right grades differ")
        if not is_lvalid(self.left, k):
            raise ValueError(f"left vector is not {k}-Lvalid: {self.left}")
        if not is_rvalid(self.right, k):
            raise ValueError(f"right vector is not {k}-Rvalid: {self.right}")

    @property
    def grade(self) -> int:
        return self.left.grade()

    def to_json(self) -> dict:
        return {
            "k": self.grade,
            "left": self.left.to_lists(),
            "right": self.right.to_lists(),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "UPair":
        """Inverse of `to_json`; a "k" field, when present, must be the grade.

        A side's support is {1..2^k}, so none of its elements exceeds the
        count of elements it lists; a larger one is refused before any mask
        is built, which keeps the memory of a refusal small.
        """
        sides = []
        for name in ("left", "right"):
            parts = [list(map(_json_int, p)) for p in obj[name]]
            listed = sum(map(len, parts))
            if any(x > listed for p in parts for x in p):
                raise ValueError(f"{name} side lists {listed} elements, none can exceed {listed}")
            sides.append(SetVector(parts))
        pair = cls(*sides)
        if "k" in obj and _json_int(obj["k"]) != pair.grade:
            raise ValueError(f"\"k\" is {obj['k']!r} but the pair has grade {pair.grade}")
        return pair

    def __repr__(self):
        return f"UPair({self.left}, {self.right})"


def p_of_path(
    m: int, n: int, path: Sequence[MonsterLetter | tuple[Transformation, Transformation]]
) -> UPair:
    """Fold a path of letters into its pair of vectors.

    The empty path gives the base pair; each letter (f, g) updates the pair
    to ((L.f) | L^up, P | (P.g)^up).  Only the restriction of a letter to
    the occupied parts matters, so a path and its useful restriction give
    the same pair.
    """
    _grid(m, n)
    lam, rho = SetVector.base(m), SetVector.base(n)
    for f, g in path:
        lam = succ_left(lam, f)
        rho = succ_right(rho, g)
    return UPair(lam, rho)


def s_projection(u: UPair) -> Tableau:
    """Tableau of the nonempty intersections: cell (i, j) iff left[i] meets
    right[j]."""
    cells = {
        (i, j)
        for i, li in enumerate(u.left)
        for j, rj in enumerate(u.right)
        if li & rj
    }
    return Tableau(len(u.left), len(u.right), cells)


def pair_of_settableau(
    cells: Mapping[tuple[int, int], Iterable[int]], m: int, n: int
) -> UPair:
    """Pair of vectors of a tableau whose cells carry disjoint sets covering
    {1..2^k}: row i unions to left[i], column j unions to right[j].  The
    cell contents, read as one vector, must be pairwise disjoint, and the
    cells those of a `Tableau` of the grid, which checks them first."""
    Tableau(m, n, cells)
    lam, rho = [0] * m, [0] * n
    for (i, j), content in zip(cells, SetVector(cells.values())):
        lam[i] |= content
        rho[j] |= content
    return UPair(SetVector.of_masks(lam), SetVector.of_masks(rho))


def settableau_of_pair(u: UPair) -> dict[tuple[int, int], frozenset]:
    """Inverse of pair_of_settableau: cell (i, j) holds left[i] & right[j]."""
    out = {}
    for i, li in enumerate(u.left):
        for j, rj in enumerate(u.right):
            common = li & rj
            if common:
                out[(i, j)] = frozenset(b + 1 for b in bits(common))
    return out


# --- explicit witnesses -----------------------------------------------------


def _permutation_family(n: int, k: int) -> tuple[list[frozenset], frozenset, frozenset]:
    """Partition of {1..2^k} into n parts for permutation tableaux with a
    moved first row (2^(k-1) < n <= 2^k), together with the parts anchoring
    the left and right first entries.

    Every part is either a singleton or a pair at distance 2^(k-1), so the
    half-block closure is vacuous and any arrangement anchored correctly is
    valid.
    """
    h = 1 << (k - 1)
    top = 1 << k
    q, odd = h - n // 2, n % 2
    family = [frozenset({i, h + i}) for i in range(1, q + 1)]
    family += [frozenset({h - j, top - j}) for j in range(q - odd)]
    family += [frozenset({x}) for x in range(q + 1, h - q + odd + 1)]
    family += [frozenset({x}) for x in range(h + q + 1, top - q + odd + 1)]
    left = frozenset({h, top} if q > odd else {top})
    return family, left, frozenset({1, h + 1} if q else {1})


def witness_permutation(sigma: Transformation) -> UPair:
    """A pair projecting onto the permutation tableau {(i, sigma(i))}.

    The grade is the least possible: ceil(log2(n+1)) when sigma fixes 0 (at
    that grade the first entries of both sides must share an element, which
    all-singleton partitions cannot achieve), and ceil(log2(n)) otherwise.
    Free slots are filled deterministically in increasing index order;
    correctness is checked through the projection, not the fill.
    """
    if not sigma.is_permutation():
        raise ValueError(f"{sigma!r} is not a permutation")
    n = sigma.size
    if n == 1:
        return UPair(SetVector.base(1), SetVector.base(1))

    if sigma(0) == 0:
        k = n.bit_length()  # 2^(k-1) <= n < 2^k
        top = 1 << k
        pairs = [frozenset({i, top + 1 - i}) for i in range(1, top - n + 1)]
        singles = [frozenset({j}) for j in range(top - n + 1, n + 1)]
        family = pairs + singles
        lam = SetVector([family[sigma(i)] for i in range(n)])
        rho = SetVector(family)
    else:
        k = (n - 1).bit_length()  # 2^(k-1) < n <= 2^k
        family, lam0, rho0 = _permutation_family(n, k)
        inv = sigma.inverse()
        left: list = [None] * n
        left[0] = lam0
        left[inv(0)] = rho0
        remaining = iter(p for p in family if p not in (lam0, rho0))
        for i in range(n):
            if left[i] is None:
                left[i] = next(remaining)
        right: list = [None] * n
        for i in range(n):
            right[sigma(i)] = left[i]
        lam, rho = SetVector(left), SetVector(right)

    pair = UPair(lam, rho)
    target = Tableau(n, n, {(i, sigma(i)) for i in range(n)})
    if s_projection(pair) != target:
        raise RuntimeError(f"witness for {sigma!r} projects off its permutation tableau")
    return pair


def witness_full(m: int, n: int, max_count: int = 2_000_000) -> UPair:
    """A pair projecting onto the full m x n tableau.

    Right side: consecutive dyadic blocks [1..2^k], (2^k..2^(k+1)], ... with
    2^(k-1) < m <= 2^k.  Left side: a full-column pair at grade k, then the
    same doubling steps as the right side (identity on the rows), which
    replicates each left part with period 2^k.  Grade k + n - 1, so each
    side stamps 2^(k+n-1) elements; more than `max_count` are refused
    before any is built.
    """
    _grid(m, n)
    k = (m - 1).bit_length()  # 2^(k-1) < m <= 2^k
    stamp_guard(k + n - 1, f"the full {m}x{n} witness", max_count)
    top = 1 << k
    # left: the parts {top}, {top-1}, ..., {top-m+2} and {1..top-m+1}, each
    # repeated every top elements 2^(n-1) times by one product with a repunit
    base_left = [1 << (top - 1 - i) for i in range(m - 1)] + [(1 << (top - m + 1)) - 1]
    repunit = ((1 << (top << (n - 1))) - 1) // ((1 << top) - 1)
    lam = SetVector.of_masks([part * repunit for part in base_left])
    # right: [1..top], then the run (top 2^(j-1) .. top 2^j] for j = 1..n-1
    rho = SetVector.of_masks(
        [(1 << top) - 1]
        + [((1 << (top << (j - 1))) - 1) << (top << (j - 1)) for j in range(1, n)]
    )
    return UPair(lam, rho)


def erase_cell_letter(e: Tableau, i1: int, j1: int, i2: int, j2: int) -> MonsterLetter:
    """Letter removing exactly the cell (i1, j1) from e.

    Requires the support of row i1 to sit inside that of row i2 and likewise
    column j1 inside column j2, with i1 != i2 and j1 != j2.  The letter sends
    i1 to i2 and j1 to j2, fixing everything else: row i1 collapses into row
    i2 (already present there) while the column copy preserves every other
    cell, so only (i1, j1) disappears.
    """
    if i1 == i2 or j1 == j2:
        raise ValueError("need i1 != i2 and j1 != j2")
    for idx in (i1, i2):
        if not 0 <= idx < e.m:
            raise ValueError(f"row {idx} out of range")
    for idx in (j1, j2):
        if not 0 <= idx < e.n:
            raise ValueError(f"column {idx} out of range")
    if not e.row_support(i1) <= e.row_support(i2):
        raise ValueError(f"row {i1} support not contained in row {i2} support")
    if not e.col_support(j1) <= e.col_support(j2):
        raise ValueError(f"column {j1} support not contained in column {j2} support")
    return MonsterLetter(
        Transformation.from_map(e.m, {i1: i2}),
        Transformation.from_map(e.n, {j1: j2}),
    )


def is_dense_mask(m: int, n: int, mask: int) -> bool:
    """Dense tableaux: row-support containment forces row equality and
    column-support containment forces column equality.

    The row and column lines of the mask (`mask_lines`) are the supports,
    so support a lies in support b iff a & ~b == 0.  An empty line lies in
    every other one, so a dense tableau, the empty one excluded, occupies
    every row and every column.
    """
    lines = mask_lines(m, n)
    rows = lines.rows(mask)
    if len(rows) < m or not all(a & ~b for (_, a), (_, b) in permutations(rows, 2)):
        return False
    cols = lines.cols(mask)
    return len(cols) == n and all(a & ~b for (_, a), (_, b) in permutations(cols, 2))


def is_dense(e: Tableau) -> bool:
    """`is_dense_mask` of a Tableau."""
    return is_dense_mask(e.m, e.n, e.mask)


def enumerate_dense(m: int, n: int, max_cells: int = 20) -> list[Tableau]:
    """All dense m x n tableaux in increasing mask order (2^(mn) scan)."""
    scan_guard(m, n, max_cells)
    masks = range(1, 1 << (m * n))
    return [Tableau.from_mask(m, n, mask) for mask in masks if is_dense_mask(m, n, mask)]
