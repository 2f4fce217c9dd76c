import hashlib
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from shufflesc import (
    SetVector,
    SizeGuardError,
    closed_form_coeffs,
    f_bound,
    generate_graded,
    graded_count,
    hadamard,
    lower_bound_ie,
    matrix_A,
    matrix_B,
    matrix_power,
    matrix_S,
    r_stirling2,
    r_total,
    r_totals,
    stirling2,
    succ_count,
    succ_count_oracle,
    u_total,
)
from shufflesc import enumeration
from shufflesc.enumeration import (
    canonical_vector,
    graded_rows,
    series_closed,
    series_closed_rows,
    series_direct,
    series_direct_rows,
    successor_vectors,
)

S_DISPLAYS = {
    2: [[1, 1], [0, 4]],
    3: [[1, 2, 0], [0, 4, 5], [0, 0, 27]],
    4: [[1, 3, 0, 0], [0, 4, 10, 2], [0, 0, 27, 37], [0, 0, 0, 256]],
    5: [
        [1, 4, 0, 0, 0],
        [0, 4, 15, 6, 0],
        [0, 0, 27, 74, 24],
        [0, 0, 0, 256, 369],
        [0, 0, 0, 0, 3125],
    ],
    6: [
        [1, 5, 0, 0, 0, 0],
        [0, 4, 20, 12, 0, 0],
        [0, 0, 27, 111, 72, 6],
        [0, 0, 0, 256, 738, 302],
        [0, 0, 0, 0, 3125, 4651],
        [0, 0, 0, 0, 0, 46656],
    ],
    7: [
        [1, 6, 0, 0, 0, 0, 0],
        [0, 4, 25, 20, 0, 0, 0],
        [0, 0, 27, 148, 144, 24, 0],
        [0, 0, 0, 256, 1107, 906, 132],
        [0, 0, 0, 0, 3125, 9302, 4380],
        [0, 0, 0, 0, 0, 46656, 70993],
        [0, 0, 0, 0, 0, 0, 823543],
    ],
}

CLOSED_FORMS = {
    2: ["2/3", "1/3"],
    3: ["6/13", "12/23", "5/299"],
    4: ["372/1105", "100/161", "2880/68471", "23/136255"],
    5: [
        "135040/517803",
        "1006400/1507443",
        "7530000/106061579",
        "46000/78183119",
        "4150701/10832451881581",
    ],
    6: [
        "344810430/1610539931",
        "4008890625/5860435903",
        "18418610000/183168346933",
        "5833053/4534620902",
        "806896274400/471547462857102511",
        "114196541/474523188718486138",
    ],
    7: [
        "5818082250876/31579697044181",
        "157292430099924/229823691577177",
        "4868336034090900/37710516098219107",
        "200723945058/88887962822497",
        "888824849603838210/193433013191149163934799",
        "34547422762566/26332206893852752878029",
        "32920001103738912355/678426042037319159866567474314373",
    ],
}


def set_partitions(elements, blocks):
    """All partitions of `elements` into exactly `blocks` nonempty sets."""
    elements = list(elements)
    if not elements:
        if blocks == 0:
            yield []
        return
    head, rest = elements[0], elements[1:]
    for sub in set_partitions(rest, blocks):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | {head}] + sub[i + 1 :]
    for sub in set_partitions(rest, blocks - 1):
        yield sub + [{head}]


class TestStirling:
    def test_known_values(self):
        assert stirling2(5, 3) == 25
        assert stirling2(4, 2) == 7
        assert stirling2(0, 0) == 1
        for a in range(1, 6):
            assert stirling2(a, a) == 1
            assert stirling2(a, 0) == 0

    def test_against_partition_enumeration(self):
        for a in range(1, 6):
            for b in range(0, a + 1):
                assert stirling2(a, b) == sum(1 for _ in set_partitions(range(a), b))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)

    def test_large_arguments_against_a_triangle(self):
        # the recurrence, filled row by row, beyond a = 500, where a
        # recursive stirling2 exceeds the interpreter's recursion limit
        checks = {600: (1, 2, 300, 598, 599, 600), 601: (600, 601, 602)}
        row = [1]  # S2(0, .)
        for a in range(1, max(checks) + 1):
            row = [0] + [b * x + y for b, (x, y) in enumerate(zip(row[1:] + [0], row), 1)]
            for b in checks.get(a, ()):
                assert stirling2(a, b) == (row[b] if b <= a else 0)


class TestRStirling:
    def test_known_values(self):
        assert r_stirling2(4, 2, 2) == 4
        assert r_stirling2(4, 3, 2) == 5
        assert r_stirling2(4, 4, 2) == 1

    def test_r0_and_r1_reduce_to_stirling(self):
        # r_stirling2, read from the recurrence's rows, is the reference
        # for stirling2's explicit sum
        for a in range(0, 41):
            for b in range(0, 41):
                assert r_stirling2(a, b, 0) == stirling2(a, b)
                if a >= 1 and b >= 1:
                    assert r_stirling2(a, b, 1) == stirling2(a, b)

    def test_against_partition_enumeration(self):
        for a in range(1, 7):
            for r in range(0, min(a, 3) + 1):
                marked = set(range(1, r + 1))
                for b in range(0, a + 1):
                    count = sum(
                        1
                        for part in set_partitions(range(1, a + 1), b)
                        if all(len(p & marked) <= 1 for p in part)
                    )
                    assert r_stirling2(a, b, r) == count

    def test_no_deep_recursion(self):
        # one row of 1100 entries, where a recursion per element overflowed
        assert r_stirling2(1100, 2, 1) == stirling2(1100, 2)

    def test_out_of_range(self):
        assert r_stirling2(2, 3, 3) == 0  # np < r
        assert r_stirling2(4, 5, 1) == 0  # kp > np
        with pytest.raises(ValueError):
            r_stirling2(3, -1, 1)


class TestSuccCount:
    def test_worked_example_value(self):
        # the by-hand enumeration fixes the fresh block at the first empty
        # slot and counts 1 + 9 + 27 = 37 maps; either of the two empty
        # slots can host the block, giving 74 distinct successors
        assert succ_count(5, 3, 1) == 74 == 2 * (1 + 9 + 27)

    def test_diagonal(self):
        for n in range(1, 8):
            for i in range(1, n + 1):
                assert succ_count(n, i, 0) == i ** i
        assert succ_count(7, 5, 0) == 3125

    def test_one_step_up(self):
        for n in range(2, 7):
            for i in range(1, n):
                assert succ_count(n, i, 1) == (n - i) * ((i + 1) ** i - i ** i)

    def test_max_jump(self):
        for n in range(1, 4):
            assert succ_count(2 * n, n, n) == _factorial(n)

    def test_small_matrix_entry(self):
        assert succ_count(4, 2, 2) == 2

    def test_first_form_at_scale(self):
        # the docstring's Stirling form against the computed one, up to
        # d = 500, beyond the Stirling recurrence's recursion limit
        for n, l, d in [(700, 520, 500), (60, 40, 20), (9, 4, 5)]:
            first = factorial(d) * comb(n - l, d) * sum(
                comb(l, a) * l ** (l - a) * stirling2(a, d) for a in range(d, l + 1)
            )
            assert succ_count(n, l, d) == first

    def test_validation(self):
        with pytest.raises(ValueError):
            succ_count(3, 0, 1)
        with pytest.raises(ValueError):
            succ_count(3, 4, 0)

    def test_matches_oracle_small(self):
        for n in range(1, 5):
            for l in range(1, n + 1):
                for d in range(0, n - l + 1):
                    assert succ_count(n, l, d) == succ_count_oracle(n, l, d)

    def test_oracle_counts_the_successor_buckets(self):
        # the oracle counts mask tuples; successor_vectors buckets SetVectors
        for n in range(1, 7):
            for l in range(1, n + 1):
                buckets = successor_vectors(n, l)
                for d in range(0, n - l + 2):
                    oracle = succ_count_oracle(n, l, d)
                    assert oracle == len(buckets.get(l + d, ()))
                    assert oracle == (succ_count(n, l, d) if l + d <= n else 0)

    def test_oracle_refuses_negative_d(self, monkeypatch):
        # refused before any map is enumerated, as succ_count refuses it
        monkeypatch.setattr(enumeration, "_canonical_successors", None)
        for d in (-1, -5):
            with pytest.raises(ValueError, match="^d must be at least 0$"):
                succ_count_oracle(4, 2, d)
            with pytest.raises(ValueError, match="^d must be at least 0$"):
                succ_count(4, 2, d)

    def test_oracle_guard(self):
        with pytest.raises(SizeGuardError):
            succ_count_oracle(5, 5, 0, max_maps=100)

    def test_canonical_vector_is_valid(self):
        from shufflesc import is_rvalid

        for l in range(1, 6):
            v = canonical_vector(l, 6)
            assert v.nonempty_count() == l
            assert is_rvalid(v, max(l - 1, 0))


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestMatrices:
    def test_displays(self):
        for n, rows in S_DISPLAYS.items():
            assert list(map(list, matrix_S(n))) == rows

    def test_diagonal(self):
        for n in range(1, 8):
            mat = matrix_S(n)
            assert [mat[i][i] for i in range(n)] == [(i + 1) ** (i + 1) for i in range(n)]

    def test_hadamard_factorization(self):
        for n in range(1, 8):
            assert hadamard(matrix_B(n), matrix_A(n)) == matrix_S(n)

    def test_b_row_two(self):
        b = matrix_B(2, 6)
        assert list(b[1]) == [0, 4, 5, 1, 0, 0]

    def test_b_is_r_stirling(self):
        b = matrix_B(8, 8)
        for i in range(1, 9):
            for j in range(1, 9):
                assert b[i - 1][j - 1] == r_stirling2(2 * i, j, i)

    def test_padded_product_display(self):
        # the 6x7 product block: S_5 extended by zero rows and columns
        prod = hadamard(matrix_B(6, 7), _a_block(5, 6, 7))
        expected = [
            [1, 4, 0, 0, 0, 0, 0],
            [0, 4, 15, 6, 0, 0, 0],
            [0, 0, 27, 74, 24, 0, 0],
            [0, 0, 0, 256, 369, 0, 0],
            [0, 0, 0, 0, 3125, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ]
        assert list(map(list, prod)) == expected

    def test_a_entries(self):
        a5 = matrix_A(5, 7)
        assert list(a5[0]) == [1, 4, 12, 24, 24, 0, 0]
        assert list(a5[5]) == [0] * 7  # beyond n, zero by convention

    def test_matrix_power(self):
        s3 = matrix_S(3)
        assert matrix_power(s3, 0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert matrix_power(s3, 2) == ((1, 10, 10), (0, 16, 155), (0, 0, 729))

    def test_power_matches_repeated_products(self):
        m = ((1, 2, Fraction(1, 3)), (0, -1, 4), (5, 0, 2))
        want = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for k in range(10):
            assert matrix_power(m, k) == want
            want = tuple(
                tuple(sum(row[t] * m[t][j] for t in range(3)) for j in range(3)) for row in want
            )

    @pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
    def test_power_product_count(self, k, products, monkeypatch):
        calls = 0
        matmul = enumeration._matmul

        def counted(a, b):
            nonlocal calls
            calls += 1
            return matmul(a, b)

        monkeypatch.setattr(enumeration, "_matmul", counted)
        matrix_power(matrix_S(4), k)
        assert calls == products

    def test_power_negative(self):
        with pytest.raises(ValueError):
            matrix_power(matrix_S(2), -1)

    @pytest.mark.parametrize("k", [True, 2.0], ids=["bool", "float"])
    def test_power_non_integer_refused(self, k):
        # True is not the power 1, nor 2.0 a TypeError from the bit test
        with pytest.raises(ValueError, match=f"^{re.escape(repr(k))} is not an integer$"):
            matrix_power(matrix_S(2), k)

    @pytest.mark.parametrize(
        "m", [((1, 2),), ((1, 2), (3,)), ((1,), (2, 3))], ids=["wide", "ragged", "short-first"]
    )
    def test_power_refuses_a_matrix_not_square(self, m):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            matrix_power(m, 2)

    @pytest.mark.parametrize("other", [((1, 2),), ((1, 2), (3, 4), (5, 6)), ((1, 2), (3,))])
    def test_hadamard_refuses_shapes_that_differ(self, other):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            hadamard(((1, 2), (3, 4)), other)

    @pytest.mark.parametrize(
        "call, bad",
        [
            (lambda: r_totals(3, True), True),
            (lambda: r_totals(3, 2.0), 2.0),
            (lambda: r_totals(2.0, 1), 2.0),
            (lambda: list(graded_rows(3, True)), True),
            (lambda: graded_count(3, 2, True), True),
            (lambda: graded_count(3, 2, 1.0), 1.0),
            (lambda: matrix_S(True), True),
            (lambda: matrix_S(2.0), 2.0),
            (lambda: matrix_S(3, True), True),
            (lambda: (matrix_S(3, 1), matrix_S(3, True)), True),
        ],
        ids=[
            "totals-kmax-bool", "totals-kmax-float", "totals-n-float", "rows-kmax-bool",
            "count-l-bool", "count-l-float", "S-n-bool", "S-n-float", "S-size-bool",
            "S-size-bool-after-S-3-1",
        ],
    )
    def test_count_non_integer_refused(self, call, bad):
        # kmax True walked one step, l True read as l = 1 and matrix_S(True)
        # was S_1; the floats gave a TypeError or AttributeError; a cached matrix_S(3, 1) would
        # answer matrix_S(3, True) unless the cache keys on the type
        with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not an integer$"):
            call()

    @pytest.mark.parametrize("size", [-1, 0, 4, 5])
    def test_block_size_outside_one_to_n(self, size):
        with pytest.raises(ValueError, match=rf"^need 1 <= size <= n, got size={size}, n=3$"):
            matrix_S(3, size)


def _a_block(n, rows, cols):
    from math import comb, factorial

    def entry(i, j):
        if j < i or j > n or i > n:
            return 0
        return factorial(j - i) * comb(n - i, j - i)

    return tuple(tuple(entry(i, j) for j in range(1, cols + 1)) for i in range(1, rows + 1))


class TestTotals:
    def test_length2_sequence(self):
        assert [r_total(2, k) for k in range(7)] == [1, 2, 6, 22, 86, 342, 1366]

    def test_closed_form_length2(self):
        for k in range(20):
            assert Fraction(2, 3) + Fraction(1, 3) * 4 ** k == r_total(2, k)

    def test_graded_counts_match_generation(self):
        cases = [(n, k) for n in (2, 3) for k in range(4)] + [(4, k) for k in range(3)]
        for n, k in cases:
            vectors = generate_graded(n, k)
            by_parts = {}
            for v in vectors:
                by_parts[v.nonempty_count()] = by_parts.get(v.nonempty_count(), 0) + 1
            for l in range(1, n + 1):
                assert graded_count(n, k, l) == by_parts.get(l, 0)
            assert r_total(n, k) == len(vectors)

    def test_totals_walk_matches_matrix_powers(self):
        for n in range(1, 9):
            assert r_totals(n, 30) == [r_total(n, k) for k in range(31)]
            for k, row in enumerate(graded_rows(n, 30)):
                assert row == tuple(graded_count(n, k, l) for l in range(1, n + 1))
        assert r_totals(3, 0) == [1]
        with pytest.raises(ValueError):
            r_totals(3, -1)
        with pytest.raises(ValueError):
            r_totals(0, 3)

    def test_walk_reads_only_the_reached_block(self, monkeypatch):
        seen = set()
        count = enumeration.succ_count

        def spy(n, l, d):
            seen.add(l)
            return count(n, l, d)

        monkeypatch.setattr(enumeration, "succ_count", spy)
        enumeration.matrix_S.cache_clear()
        assert r_totals(600, 1) == [1, 600]
        assert seen == {1, 2}

    def test_u_total(self):
        assert u_total(2, 2, 2) == 36
        assert u_total(2, 3, 2) == 6 * 21
        for k in range(4):
            assert u_total(2, 2, k) == r_total(2, k) ** 2

    def test_divisibility(self):
        for n in range(2, 8):
            for k in range(1, 11):
                assert r_total(n, k) % n == 0


class TestClosedFormCoeffs:
    def test_known_closed_forms(self):
        for n, expected in CLOSED_FORMS.items():
            assert closed_form_coeffs(n) == [Fraction(s) for s in expected]

    def test_reconstruction(self):
        for n in range(1, 8):
            coeffs = closed_form_coeffs(n)
            for k in range(2 * n + 1):
                assert sum(c * (i ** i) ** k for i, c in enumerate(coeffs, 1)) == r_total(n, k)

    def test_sum_to_one_and_positive(self):
        for n in range(1, 8):
            coeffs = closed_form_coeffs(n)
            assert sum(coeffs) == 1
            assert all(c > 0 for c in coeffs)


class TestLowerBound:
    def test_trivial(self):
        assert lower_bound_ie(1, 1) == 1

    def test_2x2(self):
        # the five 2x2 tableaux containing a full row and a full column
        assert lower_bound_ie(2, 2) == 5

    def test_counts_cross_containing_tableaux(self):
        for m, n in ((2, 2), (2, 3), (3, 3)):
            count = 0
            for bits in range(1 << (m * n)):
                cells = {(i, j) for i in range(m) for j in range(n) if bits >> (i * n + j) & 1}
                has_cross = any(
                    all((r, i) in cells for r in range(m))
                    and all((j, c) in cells for c in range(n))
                    for i in range(n)
                    for j in range(m)
                )
                count += has_cross
            assert lower_bound_ie(m, n) == count

    def test_double_sum(self):
        # the inclusion-exclusion over k full rows and l full columns, term by term
        for m in range(1, 9):
            for n in range(1, 9):
                assert lower_bound_ie(m, n) == sum(
                    (-1) ** (k + l) * comb(m, k) * comb(n, l) * (1 << ((m - k) * (n - l)))
                    for k in range(1, m + 1)
                    for l in range(1, n + 1)
                )

    def test_sandwich(self):
        for m in range(2, 7):
            for n in range(2, 7):
                value = lower_bound_ie(m, n)
                assert value > 1 << ((m - 1) * (n - 1))
                assert value <= f_bound(m, n)


class TestSuccessorVectors:
    def test_buckets_sum(self):
        buckets = successor_vectors(4, 2)
        assert sum(len(v) for v in buckets.values()) == len(
            {tuple(v.key()) for vs in buckets.values() for v in vs}
        )
        assert set(buckets) == {2, 3, 4}
        assert [len(buckets[l]) for l in (2, 3, 4)] == [
            succ_count(4, 2, 0),
            succ_count(4, 2, 1),
            succ_count(4, 2, 2),
        ]

    # sha256 of repr([(count, [v.parts for v in bucket]) ...]) over the
    # buckets of successor_vectors(n, l) in the order returned, recorded
    # before the buckets were sorted by the ranks of `Packing.ranks`
    ORDER_DIGESTS = {
        (1, 1): "1ee925e3572eb7230ac5be30ccb5052b2a1eac8d5c6e06222d0917651a9505d2",
        (2, 1): "2d4e6daa3208a4c197055908da6438319ed83c7752b81650aaa4f318cc53665d",
        (2, 2): "1693e66595fa6b4c5da869a2888e06a21808130df84f7d7abf981bccc53c424b",
        (3, 1): "a4cac31b45bbd5f5fa1883e233f9e54a3d0ff63f9891220f407bc36d65c48950",
        (3, 2): "9334d1bd82c64d78b88c5a75fcff58d9c652389964474a19024bf068ff6cfdbf",
        (3, 3): "b7beff708972e945c9e3896cf2c108a1568e134eea77d1e8aa5be59f40b51f8f",
        (4, 1): "afcc2812fb44ef25903606d196df43e822b671d8bba58bc59ce46d6f567d6c94",
        (4, 2): "6de0486dfa57bfbb564a2761a6aaab33eb2e6fde7a9534f8706852d06fc03728",
        (4, 3): "708e72e988f6836d2e7961957aab32ca32d2c37762a6f44f8ce775899b3f96f8",
        (4, 4): "b73ee606de5c41a84a5a8e00ecd54446b687693706b473e2da14d57edb1ab844",
        (5, 1): "a46607c20ee391c675473efd5fd481625755f2b42c8358ad224aed7a7e724560",
        (5, 2): "25830102a993d4d2e1033fd41a49db5bfb9399a094cd9eae00e661087c4cbd70",
        (5, 3): "8d6fc5dc918c493f229468d0d2e18ebc2f928c28a6187b2101f021c2a8632341",
        (5, 4): "08c28a7712c7c2879613fa275bfc2dc05dc63d6bb23fe17291e07f52f84fc074",
        (5, 5): "71a0375f2f1efc534487478f1d93527d2e41f3309bbe6b465221b775af817842",
        (6, 1): "33e2a9a043897f7b44391dc207785d4b358baee8a204b4a09fc3e602d0281966",
        (6, 2): "af758d3d18530ca162362da52045b8968394fac6c7040c143d6f8551b07a8dd2",
        (6, 3): "92eea63045ae0b6259467f85bed069189f36e2ce9e57e8286c22b46caea307f7",
        (6, 4): "c6b43049c5b4bd1c399c0831a049352eb3cc61ede50b62d75c3d4334a2103f62",
        (6, 5): "78fccd7040346b1c8b29865e57f839d5e673b10f2ec2ea3403e21a06ede4cff7",
        (6, 6): "c5af22ca628b3369cd820a3eaeffd6c526c0ad2a5b1ed306dcd4030c9a2b7b54",
    }

    @pytest.mark.parametrize("n, l", sorted(ORDER_DIGESTS))
    def test_order_digest(self, n, l):
        buckets = successor_vectors(n, l)
        for bucket in buckets.values():
            assert bucket == sorted(set(bucket), key=SetVector.key)
        listing = [(count, [v.parts for v in bucket]) for count, bucket in buckets.items()]
        digest = hashlib.sha256(repr(listing).encode()).hexdigest()
        assert digest == self.ORDER_DIGESTS[n, l]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: canonical_vector(0, 3), "l must be at least 1"),
        (lambda: canonical_vector(3, 2), "n must be at least 3"),
        (lambda: graded_count(3, 2, 0), "need 1 <= l <= n, got l=0"),
        (lambda: graded_count(3, 2, 4), "need 1 <= l <= n, got l=4"),
        (lambda: closed_form_coeffs(0), "n must be at least 1"),
        (lambda: lower_bound_ie(0, 2), "m and n must be at least 1"),
    ],
    ids=["l-below-1", "n-below-l", "graded-l-0", "graded-l-past-n", "coeffs-0", "ie-0"],
)
def test_argument_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: stirling2(3.0, 2), 3.0),
        (lambda: (stirling2(3, 2), stirling2(3.0, 2)), 3.0),
        (lambda: stirling2(True, True), True),
        (lambda: stirling2(2, 1.0), 1.0),
        (lambda: r_stirling2(True, 1, 1), True),
        (lambda: r_stirling2(4, 2.0, 1), 2.0),
        (lambda: r_stirling2(4, 2, 1.0), 1.0),
        (lambda: succ_count(True, 1, 0), True),
        (lambda: succ_count(2.0, 0, 0), 2.0),
        (lambda: succ_count(3, True, 0), True),
        (lambda: succ_count(3, 1, 1.0), 1.0),
        (lambda: series_direct(True), True),
        (lambda: series_closed(True), True),
        (lambda: series_direct(2.0), 2.0),
        (lambda: series_closed(2.0), 2.0),
        (lambda: series_direct_rows(True), True),
        (lambda: series_closed_rows(2.0), 2.0),
        (lambda: successor_vectors(3.0, 2), 3.0),
        (lambda: successor_vectors(3, True), True),
        (lambda: succ_count_oracle(3, 2, True), True),
        (lambda: succ_count_oracle(3.0, 2, 1), 3.0),
    ],
    ids=[
        "S2-a-float", "S2-a-float-after-S2-3-2", "S2-bools", "S2-b-float", "rS2-np-bool",
        "rS2-kp-float", "rS2-r-float", "succ-n-bool", "succ-n-float-l-0", "succ-l-bool",
        "succ-d-float", "direct-bool", "closed-bool", "direct-float", "closed-float",
        "direct-rows-bool", "closed-rows-float", "vectors-n-float", "vectors-l-bool",
        "oracle-d-bool", "oracle-n-float",
    ],
)
def test_series_and_successor_non_integer_refused(call, bad):
    # before: stirling2(3.0, 2) returned 3.0, or a cached 3; the bools ran
    # as 1 (series as d = 1); the floats raised TypeError or AttributeError
    # or passed; succ_count(2.0, 0, 0) named l before n was checked
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == f"{bad!r} is not an integer"
