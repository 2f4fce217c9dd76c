import hashlib
import json
import random
import re
from functools import cache
from itertools import permutations

import pytest

from shufflesc import (
    SizeGuardError,
    Tableau,
    Transformation,
    check_conjecture1,
    check_conjecture2,
    f_bound,
    reachable_tableaux,
    verify_witnesses,
)
from shufflesc import conjecture
from shufflesc.conjecture import expected_permutation_grade, permutation_min_grade
from shufflesc.monster import all_valid_tableaux
from shufflesc.upair import (
    Packing,
    SetVector,
    enumerate_dense,
    generate_graded,
    graded_level,
    is_lvalid,
)


@cache
def all_parts_nonempty(n, k):
    return [v for v in generate_graded(n, k) if v.nonempty_count() == n]


def reference_min_grade(sigma, k_max):
    """`permutation_min_grade` as one scan per permutation: the least grade
    with a right vector rho whose reordering [rho[sigma(i)]] is left-valid."""
    n = sigma.size
    for k in range(k_max + 1):
        if (1 << k) < n:
            continue
        for rho in all_parts_nonempty(n, k):
            if is_lvalid(SetVector.of_masks([rho[j] for j in sigma.images]), k):
                return k
    return None


def reference_left_first_parts(vectors, n, k):
    """`_left_first_parts` by brute force: every reordering of every vector
    with all parts nonempty, tested with `is_lvalid` on `SetVector`s; an
    index already found is not tried first again."""
    found = set()
    for rho in vectors:
        if 0 in rho:
            continue
        for order in permutations(range(n)):
            if order[0] not in found and is_lvalid(
                SetVector.of_masks([rho[i] for i in order]), k
            ):
                found.add(order[0])
    return frozenset(found)


class TestConjecture1:
    def test_2x2(self):
        rep = check_conjecture1(2, 2)
        assert rep.status == "holds"
        assert rep.reachable_count == rep.valid_count == 10
        assert rep.missing == ()
        assert rep.depth_histogram == {0: 1, 1: 3, 2: 6}
        assert rep.saturation_depth == 2

    def test_2x3(self):
        rep = check_conjecture1(2, 3)
        assert rep.status == "holds"
        assert rep.reachable_count == 44 == f_bound(2, 3)

    def test_1x1(self):
        rep = check_conjecture1(1, 1)
        assert rep.status == "holds"
        assert rep.reachable_count == rep.valid_count == 1

    def test_depth_limited_is_incomplete(self):
        rep = check_conjecture1(3, 3, depth_limit=1)
        assert rep.status == "incomplete"
        assert rep.missing  # plenty unreached after one step
        assert not rep.holds()

    def test_scans_skipped_at_the_bound(self, monkeypatch):
        # f(m, n) tableaux reached leaves nothing valid or dense unreached
        def refuse(*args):
            raise AssertionError("2^(mn) scan run")

        monkeypatch.setattr(conjecture, "valid_masks", refuse)
        monkeypatch.setattr(conjecture, "is_dense_mask", refuse)
        for check in (check_conjecture1, check_conjecture2):
            rep = check(3, 3)
            assert rep.status == "holds"
            assert rep.missing == rep.dense_unreached == ()
            assert rep.reachable_count == rep.valid_count == 400

    def test_negative_depth_limit_refused(self):
        # not an "incomplete" report holding only the root
        for check in (check_conjecture1, check_conjecture2):
            with pytest.raises(ValueError, match="^depth_limit must be at least 0$"):
                check(2, 2, depth_limit=-3)

    @pytest.mark.parametrize("check", [check_conjecture1, check_conjecture2])
    @pytest.mark.parametrize("depth_limit", [0.5, 1.5, True])
    def test_non_integer_depth_limit_refused(self, check, depth_limit):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(depth_limit))} is not an integer$"):
            check(2, 2, depth_limit=depth_limit)

    def test_depth_limited_lists_the_missing(self):
        reach = reachable_tableaux(3, 3, depth_limit=2)
        rep = check_conjecture1(3, 3, depth_limit=2)
        valid = [t for t in all_valid_tableaux(3, 3) if t not in reach.depths]
        dense = [t for t in enumerate_dense(3, 3) if t not in reach.depths]
        assert rep.status == "incomplete" and reach.count < 400
        assert list(rep.missing) == valid and len(valid) == 400 - reach.count
        assert list(rep.dense_unreached) == dense and dense

    def test_json_deterministic(self):
        a = json.dumps(check_conjecture1(2, 2).to_json(), sort_keys=True, separators=(",", ":"))
        b = json.dumps(check_conjecture1(2, 2).to_json(), sort_keys=True, separators=(",", ":"))
        assert a == b
        assert '"status":"holds"' in a

    def test_report_schema_and_invariants(self):
        for m, n in ((1, 2), (2, 2), (2, 3)):
            rep = check_conjecture1(m, n)
            obj = rep.to_json()
            assert set(obj) == {
                "m",
                "n",
                "conjecture",
                "reachable_count",
                "valid_count",
                "missing",
                "dense_unreached",
                "depth_histogram",
                "saturation_depth",
                "status",
            }
            assert rep.reachable_count <= rep.valid_count
            assert sum(rep.depth_histogram.values()) == rep.reachable_count
            assert (rep.status == "holds") == (not rep.missing)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            check_conjecture1(4, 4)
        with pytest.raises(SizeGuardError):
            check_conjecture1(2, 3, max_cells=4, reach=reachable_tableaux(2, 3))

    def test_given_reach(self):
        for check in (check_conjecture1, check_conjecture2):
            for reach in (reachable_tableaux(3, 3), reachable_tableaux(3, 3, depth_limit=1)):
                got = check(3, 3, reach=reach).to_json()
                assert got == check(3, 3, depth_limit=None if reach.complete else 1).to_json()
            with pytest.raises(ValueError, match="reach is of a 2x3 grid, not 3x2"):
                check(3, 2, reach=reachable_tableaux(2, 3))
            with pytest.raises(ValueError, match="pass it or reach, not both"):
                check(2, 2, depth_limit=1, reach=reachable_tableaux(2, 2))


class TestConjecture2:
    def test_2x2(self):
        rep = check_conjecture2(2, 2)
        assert rep.status == "holds"
        assert rep.dense_unreached == ()

    def test_3x3(self):
        rep = check_conjecture2(3, 3)
        assert rep.status == "holds"
        # all 12 dense tableaux are reached
        reach = reachable_tableaux(3, 3)
        from shufflesc import enumerate_dense

        assert all(t in reach.depths for t in enumerate_dense(3, 3))

    def test_1xn_trivial(self):
        for n in (1, 2, 3):
            assert check_conjecture2(1, n).status == "holds"

    def test_dense_failure_would_be_reported(self):
        rep = check_conjecture2(3, 3, depth_limit=1)
        assert rep.status == "incomplete"
        assert rep.dense_unreached  # the two-per-line states need more steps


class TestWitnessVerification:
    def test_small_sizes_pass(self):
        for n in (1, 2, 3):
            rep = verify_witnesses(n, n)
            assert rep.ok()

    @pytest.mark.parametrize(
        "n, digest",
        [
            (5, "76990b6aad17cae6446473dc16adc18106f31cfaf70ccdcc420118f1cf94fe96"),
            (6, "8a34bded783eabb66dc2a2dc15346282603a2095fa54e939ad23af25c29cc875"),
        ],
    )
    def test_report_digest(self, n, digest):
        # recorded when every permutation was scanned on its own
        body = json.dumps(verify_witnesses(n, n).to_json(), sort_keys=True)
        assert hashlib.sha256(body.encode("utf-8")).hexdigest() == digest

    def test_size_four_exercises_grade_search(self):
        # n = 4 has fixed-zero permutations whose minimal depth exceeds
        # log2(n); the depth check must scan and reject the lower grade
        rep = verify_witnesses(4, 4)
        assert rep.ok()
        depths = {c.detail: c.depth for c in rep.cases if c.kind == "permutation"}
        assert depths["0,1,2,3"] == 3  # fixes 0: all-singleton grade 2 cannot work
        assert depths["0,2,1,3"] == 3
        assert depths["1,0,2,3"] == 2  # moves 0: log2(4) steps suffice
        assert depths["1,2,3,0"] == 2

    def test_benchmark_digest(self):
        # sha256 of the body `perfbench/worker.py` hashes for its witness job
        body = json.dumps(verify_witnesses(5, 5).to_json(), sort_keys=True, separators=(",", ":"))
        assert (
            hashlib.sha256(body.encode("utf-8")).hexdigest()
            == "ac1a1e39e8f268a4087846a4b9c75fa493b9dfda0338ac07fb3206abe02c19da"
        )

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            verify_witnesses(7, 7)

    @pytest.mark.parametrize("m, n", [(2, 0), (0, 2), (-1, 2)])
    def test_sizes_below_one_refused(self, m, n):
        # refused before any permutation case is built
        with pytest.raises(ValueError, match="m and n must be at least 1"):
            verify_witnesses(m, n)

    def test_report_json(self):
        rep = verify_witnesses(2, 2)
        obj = rep.to_json()
        assert obj["ok"] is True
        assert {c["kind"] for c in obj["cases"]} == {"permutation", "full"}


class TestMinGrade:
    def test_expected_grades(self):
        assert expected_permutation_grade(Transformation([0])) == 0
        assert expected_permutation_grade(Transformation([0, 1])) == 2
        assert expected_permutation_grade(Transformation([1, 0])) == 1
        assert expected_permutation_grade(Transformation([0, 1, 2, 3])) == 3
        assert expected_permutation_grade(Transformation([1, 2, 3, 0])) == 2

    def test_non_permutation_refused(self):
        with pytest.raises(ValueError, match="is not a permutation$"):
            permutation_min_grade(Transformation([0, 0]), 3)

    def test_min_grade_matches_per_permutation_scan(self):
        for n in range(1, 5):
            for images in permutations(range(n)):
                sigma = Transformation(images)
                for k_max in range(expected_permutation_grade(sigma) + 2):
                    assert permutation_min_grade(sigma, k_max) == reference_min_grade(sigma, k_max)

    def test_min_grade_matches_per_permutation_scan_n5(self):
        rng = random.Random(5)
        sample = rng.sample(list(permutations(range(5))), 20)
        assert {images[0] for images in sample} == set(range(5))
        for images in sample:
            sigma = Transformation(images)
            k_max = expected_permutation_grade(sigma) + 1
            assert permutation_min_grade(sigma, k_max) == reference_min_grade(sigma, k_max)

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(1, 6) for k in range(4) if (1 << k) >= n]
    )
    def test_left_first_parts_matches_brute_force(self, n, k):
        level = [v.parts for v in generate_graded(n, k)]
        assert conjecture._left_first_parts(n, k) == reference_left_first_parts(level, n, k)

    @pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_left_first_parts_per_vector(self, n, k, monkeypatch):
        # on a level of one vector the scan must add exactly the first parts
        # of its left-valid reorderings: none when the mirror fails the
        # half-block test, which most of these vectors do
        scan = conjecture._left_first_parts.__wrapped__
        packing = Packing(n, k)
        for x in graded_level(n, k):
            rho = packing.unpack(x)
            if 0 not in rho:
                monkeypatch.setattr(conjecture, "graded_level", lambda *_, level=[x]: level)
                assert scan(n, k) == reference_left_first_parts([rho], n, k), rho

    def test_min_grade_matches_bfs(self):
        for n in (2, 3):
            reach = reachable_tableaux(n, n)
            for images in permutations(range(n)):
                sigma = Transformation(images)
                target = Tableau(n, n, {(i, sigma(i)) for i in range(n)})
                assert (
                    permutation_min_grade(sigma, k_max=4) == reach.depths[target]
                )
