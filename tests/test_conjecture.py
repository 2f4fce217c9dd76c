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
from shufflesc.upair import enumerate_dense


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
        def refuse(m, n):
            raise AssertionError("2^(mn) scan run")

        monkeypatch.setattr(conjecture, "valid_masks", refuse)
        monkeypatch.setattr(conjecture, "dense_masks", refuse)
        for check in (check_conjecture1, check_conjecture2):
            rep = check(3, 3)
            assert rep.status == "holds"
            assert rep.missing == rep.dense_unreached == ()
            assert rep.reachable_count == rep.valid_count == 400

    def test_depth_limited_lists_the_missing(self):
        reach = reachable_tableaux(3, 3, depth_limit=2)
        rep = check_conjecture1(3, 3, depth_limit=2)
        valid = [t for t in all_valid_tableaux(3, 3) if t not in reach]
        dense = [t for t in enumerate_dense(3, 3) if t not in reach]
        assert rep.status == "incomplete" and reach.count < 400
        assert list(rep.missing) == valid and len(valid) == 400 - reach.count
        assert list(rep.dense_unreached) == dense and dense

    def test_json_deterministic(self):
        a = check_conjecture1(2, 2).json_dumps()
        b = check_conjecture1(2, 2).json_dumps()
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

    def test_depths_match_bfs_for_small_sizes(self):
        for n in (2, 3):
            reach = reachable_tableaux(n, n)
            rep_bfs = verify_witnesses(n, n, reach=reach)
            rep_grade = verify_witnesses(n, n)
            assert rep_bfs.ok() and rep_grade.ok()
            depths_bfs = {c.detail: c.depth for c in rep_bfs.cases if c.kind == "permutation"}
            depths_grade = {c.detail: c.depth for c in rep_grade.cases if c.kind == "permutation"}
            assert depths_bfs == depths_grade

    def test_reach_of_another_grid_gives_no_depth(self):
        # a 3x2 reach holds masks of the 2x2 permutation tableaux' cells,
        # but those are other tableaux, so no depth may be read from it
        rep = verify_witnesses(3, 2, reach=reachable_tableaux(3, 2))
        perms = [c for c in rep.cases if c.kind == "permutation"]
        assert len(perms) == 2 and all(c.depth is None for c in perms)
        assert rep.ok()

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

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            verify_witnesses(7, 7)

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

    def test_min_grade_matches_bfs(self):
        from itertools import permutations

        for n in (2, 3):
            reach = reachable_tableaux(n, n)
            for images in permutations(range(n)):
                sigma = Transformation(images)
                target = Tableau(n, n, {(i, sigma(i)) for i in range(n)})
                assert (
                    permutation_min_grade(sigma, k_max=4) == reach.depths[target]
                )
