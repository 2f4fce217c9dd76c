"""Automated small-size checks of the two reachability conjectures.

Conjecture 1: every valid tableau (mark in row 0 and in column 0) is the
projection of some valid pair, equivalently is reachable from {(0, 0)} in
the tableau automaton; combined with the distinguishability of the
reachable tableaux (which holds whenever both sides have at least two
states), its truth at (m, n) makes the shuffle state complexity equal the
valid-tableau count f(m, n).  Conjecture 2 restricts the claim to dense
tableaux, and the general conjecture reduces to it.  Both are checked by
exhausting the reachable set with the breadth-first closure and diffing
against the exhaustive enumerations.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import compress, permutations, repeat
from operator import eq
from typing import Optional

from .automata import Transformation, record
from .errors import SizeGuardError
from .monster import (
    ReachResult,
    Tableau,
    f_bound,
    reachable_tableaux,
    scan_guard,
    valid_masks,
)
from .upair import (
    Packing,
    graded_level,
    half_blocks_closed,
    is_dense_mask,
    mirror_part,
    s_projection,
    witness_full,
    witness_permutation,
)


@record
class ConjectureReport:
    """Outcome of one reachability check at (m, n).

    `missing` lists valid-but-unreached tableaux and `dense_unreached` the
    dense ones among the unreached; `status` is that of the check performed
    ('holds', 'fails', or 'incomplete' when a depth limit cut the search).
    A failing report carries the explicit counterexamples.
    """

    m: int
    n: int
    conjecture: int
    reachable_count: int
    valid_count: int
    missing: tuple
    dense_unreached: tuple
    depth_histogram: dict
    saturation_depth: int
    status: str

    def holds(self) -> bool:
        return self.status == "holds"

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "conjecture": self.conjecture,
            "reachable_count": self.reachable_count,
            "valid_count": self.valid_count,
            "missing": [t.to_json() for t in self.missing],
            "dense_unreached": [t.to_json() for t in self.dense_unreached],
            "depth_histogram": {str(k): v for k, v in sorted(self.depth_histogram.items())},
            "saturation_depth": self.saturation_depth,
            "status": self.status,
        }

    def json_dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _survey(m, n, conjecture, max_cells, depth_limit, reach) -> ConjectureReport:
    """Diff the reached tableaux against the 2^(mn) scan of the valid
    masks; dense tableaux are valid, so the dense unreached are the dense
    ones among the missing.  When the search reached f(m, n) tableaux, the
    scan is skipped: every letter keeps a tableau valid, so reached is a
    subset of valid, and with f(m, n) members it is all of valid.  A given
    `reach` of the same grid stands in for the search, and then
    `depth_limit` must be None."""
    if reach is None:
        reach = reachable_tableaux(m, n, depth_limit=depth_limit, max_cells=max_cells)
    elif (reach.m, reach.n) != (m, n):
        raise ValueError(f"reach is of a {reach.m}x{reach.n} grid, not {m}x{n}")
    elif depth_limit is not None:
        raise ValueError("depth_limit applies to a new search; pass it or reach, not both")
    else:
        scan_guard(m, n, max_cells)
    table = reach.table
    missing = dense_unreached = ()
    if reach.count < f_bound(m, n):
        masks = [mask for mask in valid_masks(m, n) if not table[mask]]
        missing = tuple(Tableau.from_mask(m, n, mask) for mask in masks)
        dense = (is_dense_mask(m, n, mask) for mask in masks)
        dense_unreached = tuple(compress(missing, dense))
    relevant = missing if conjecture == 1 else dense_unreached
    if not reach.complete:
        status = "holds" if not relevant else "incomplete"
    else:
        status = "holds" if not relevant else "fails"
    return ConjectureReport(
        m=m,
        n=n,
        conjecture=conjecture,
        reachable_count=reach.count,
        valid_count=f_bound(m, n),
        missing=missing,
        dense_unreached=dense_unreached,
        depth_histogram=reach.depth_histogram(),
        saturation_depth=reach.saturation_depth(),
        status=status,
    )


def check_conjecture1(
    m: int,
    n: int,
    max_cells: int = 12,
    depth_limit: Optional[int] = None,
    reach: Optional[ReachResult] = None,
) -> ConjectureReport:
    """Reachable set versus all valid tableaux; holds iff nothing is missing.
    A precomputed `reach` of the same grid saves the search."""
    return _survey(m, n, 1, max_cells, depth_limit, reach)


def check_conjecture2(
    m: int,
    n: int,
    max_cells: int = 12,
    depth_limit: Optional[int] = None,
    reach: Optional[ReachResult] = None,
) -> ConjectureReport:
    """Reachable set versus the dense tableaux only.  A precomputed `reach`
    of the same grid saves the search."""
    return _survey(m, n, 2, max_cells, depth_limit, reach)


# --- witness verification ----------------------------------------------------


@lru_cache(maxsize=None)
def _left_first_parts(n: int, k: int) -> frozenset:
    """Indices j such that some grade-k right-valid rho of length n with all
    parts nonempty is left-valid at grade k once reordered with part j
    first.

    One scan of the packed `graded_level(n, k)`, with no sorting and no
    `SetVector`.  A vector with an empty part is skipped, by the counts of
    nonempty fields (`Packing.nonempty_counts`).  The parts of rho
    partition {1..2^k}, so exactly one part j holds element 2^k
    (`Packing.top_field`).  Left validity of a reordering is right validity
    of its mirror, and the mirror's element 1 is element 2^k of the part
    placed first, so only part j can come first.  The mirror's union is
    {1..2^k} whatever the order, and the half-block test
    (`half_blocks_closed`) reads the mirrored parts as a set (see
    `permutation_min_grade`).  So each rho is tested once, on its mirrored
    parts, and adds at most j to the set; a rho whose j is already in it
    is neither unpacked nor tested.  Each distinct part is mirrored once
    for the whole scan.
    """
    packing = Packing(n, k)
    level = graded_level(n, k)
    mirrored = lru_cache(maxsize=None)(lambda part: mirror_part(part, k))
    found = set()
    for rho in compress(level, map(eq, packing.nonempty_counts(level), repeat(n))):
        j = packing.top_field(rho)
        if j not in found and half_blocks_closed(tuple(map(mirrored, packing.unpack(rho))), k):
            found.add(j)
            if len(found) == n:
                break
    return frozenset(found)


def permutation_min_grade(sigma: Transformation, k_max: int) -> Optional[int]:
    """Least grade of a valid pair projecting onto {(i, sigma(i))}.

    For a permutation tableau the left vector is forced part-by-part by the
    right one (left[i] = right[sigma(i)]), so it suffices to scan the grade-k
    right-valid vectors rho with all parts nonempty and test left validity
    of [rho[sigma(0)], ..., rho[sigma(n-1)]].  By the path correspondence
    this grade equals the least number of steps needed to reach the tableau
    from {(0, 0)}.

    That test depends on sigma only through sigma(0).  `is_lvalid` bounds
    the union, which reordering keeps, and tests `is_rvalid` of the mirror.
    `mirror` acts part by part, so it commutes with reordering the parts.
    `is_rvalid` reads the order of the parts in one place only, "element 1
    lies in part 0"; its union test and its half-block test quantify over
    the set of parts.  Mirrored, element 1 is element 2^k of the part placed
    first, rho[sigma(0)].  So the reordering is left-valid exactly when rho
    reordered with part sigma(0) first is, whatever the order of the rest,
    and the grade is the least k at which sigma(0) is in
    `_left_first_parts(n, k)`, which is decided once per (n, k).
    """
    n = sigma.size
    if not sigma.is_permutation():
        raise ValueError(f"{sigma!r} is not a permutation")
    for k in range(k_max + 1):
        if (1 << k) < n:
            continue  # fewer stamps than nonempty parts needed
        if sigma(0) in _left_first_parts(n, k):
            return k
    return None


def expected_permutation_grade(sigma: Transformation) -> int:
    """ceil(log2(n+1)) when sigma fixes 0, else ceil(log2(n)); 0 for n = 1."""
    n = sigma.size
    if n == 1:
        return 0
    return n.bit_length() if sigma(0) == 0 else (n - 1).bit_length()


@record
class WitnessCase:
    kind: str
    detail: str
    grade: int
    expected_grade: int
    depth: Optional[int]
    projection_ok: bool

    def ok(self) -> bool:
        return (
            self.projection_ok
            and self.grade == self.expected_grade
            and (self.depth is None or self.depth == self.grade)
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "grade": self.grade,
            "expected_grade": self.expected_grade,
            "depth": self.depth,
            "projection_ok": self.projection_ok,
            "ok": self.ok(),
        }


@record
class WitnessReport:
    m: int
    n: int
    cases: tuple

    def ok(self) -> bool:
        return all(c.ok() for c in self.cases)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "ok": self.ok(),
            "cases": [c.to_json() for c in self.cases],
        }


def verify_witnesses(
    m: int,
    n: int,
    max_permutation_size: int = 6,
    reach: Optional[ReachResult] = None,
) -> WitnessReport:
    """Check the explicit witness constructions at (m, n).

    Every permutation tableau of size n must be hit by its constructed pair
    at the predicted grade, and that grade must be minimal (the minimal
    grade equals the breadth-first depth; when a precomputed reach result is
    supplied the depth is read from it as a cross-check instead, so it must
    be a complete reach of the n x n grid).  The full m x n tableau must be
    hit by its pair as well.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    if n > max_permutation_size:
        raise SizeGuardError(
            f"verifying {n}! permutations exceeds the guard of {max_permutation_size}!",
            "max_permutation_size",
        )
    if reach is not None:
        if (reach.m, reach.n) != (n, n):
            raise ValueError(f"reach is of a {reach.m}x{reach.n} grid, not {n}x{n}")
        if not reach.complete:
            raise ValueError("reach is incomplete, so a depth may be missing from it")
    cases = []
    for images in permutations(range(n)):
        sigma = Transformation(images)
        pair = witness_permutation(sigma)
        target = Tableau(n, n, {(i, sigma(i)) for i in range(n)})
        expected = expected_permutation_grade(sigma)
        if reach is not None:
            depth = reach.mask_depths[target.mask]
        else:
            depth = permutation_min_grade(sigma, expected + 1)
        cases.append(
            WitnessCase(
                kind="permutation",
                detail=",".join(map(str, images)),
                grade=pair.grade,
                expected_grade=expected,
                depth=depth,
                projection_ok=s_projection(pair) == target,
            )
        )
    full_pair = witness_full(m, n)
    full_target = Tableau(m, n, {(i, j) for i in range(m) for j in range(n)})
    k = (m - 1).bit_length()
    cases.append(
        WitnessCase(
            kind="full",
            detail=f"{m}x{n}",
            grade=full_pair.grade,
            expected_grade=k + n - 1,
            depth=None,  # only the projection is claimed for the full witness
            projection_ok=s_projection(full_pair) == full_target,
        )
    )
    return WitnessReport(m, n, tuple(cases))
