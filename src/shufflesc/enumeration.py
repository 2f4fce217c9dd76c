"""Exact enumeration of the graded vector families.

Counting vectors by grade reduces to powers of an integer matrix: entry
(i, j) of S_n counts, for any valid length-n vector with i nonempty parts,
the distinct one-step successors with j nonempty parts.  The first row of
(S_n)^k therefore grades the whole family reachable from the base vector.
S_n factors entrywise into a Stirling-type part (independent of n) and a
falling-factorial part, the grand totals follow a closed form in the powers
1^1, 2^2, ..., n^n, and the Stirling part has a bivariate generating
function expressible through the Lambert W series.  Everything here is exact:
arbitrary-precision integers and rationals, no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, prod
from operator import eq, mul
from typing import Iterable, Iterator, Optional

from .errors import SizeGuardError
from .upair import Packing, SetVector


@lru_cache(maxsize=None)
def stirling2(a: int, b: int) -> int:
    """Stirling number of the second kind: partitions of an a-set into b
    nonempty blocks.

    By the explicit sum b! S2(a, b) = sum over j of (-1)^j C(b, j) (b-j)^a,
    not the recurrence: on a cold cache that goes up to a calls deep, past
    the interpreter's recursion limit near a = 500."""
    if a < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")
    if a == b:
        return 1
    if b == 0 or b > a:
        return 0
    return sum((-1) ** j * comb(b, j) * (b - j) ** a for j in range(b)) // factorial(b)


def r_stirling2(np: int, kp: int, r: int) -> int:
    """r-Stirling number: partitions of {1..np} into kp nonempty blocks with
    the first r elements in pairwise distinct blocks.  Read from the row
    `_r_stirling_row(np, r)`, built by a loop and not by a recursion as
    deep as np."""
    if np < 0 or kp < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    if np < r or kp > np:
        return 0
    return _r_stirling_row(np, r)[kp]


def _r_stirling_row(np: int, r: int) -> list[int]:
    """[r_stirling2(np, kp, r) for kp in 0..np], for np >= r: filled row by
    row from np = r (1 at kp = r) with the recurrence
    {np+1, kp}_r = kp {np, kp}_r + {np, kp-1}_r."""
    row = [0] * r + [1]
    for _ in range(r, np):
        row = [kp * a + b for kp, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return row


def succ_count(n: int, l: int, d: int) -> int:
    """Number of distinct one-step successors with l + d nonempty parts of a
    valid length-n vector with l nonempty parts:

        d! C(n-l, d) * sum over a of C(l, a) l^(l-a) S2(a, d).

    Choosing which d empty slots open up gives the binomial prefactor; the
    inner sum counts maps on the occupied slots by how many of them leave.
    With the explicit sum of `stirling2` and the binomial theorem this is

        C(n-l, d) * sum over j of (-1)^j C(d, j) (l+d-j)^l,

    the maps of the l occupied slots into themselves and d chosen empty
    slots that hit every chosen one, by inclusion-exclusion over the missed
    ones.  That form is computed, d + 1 terms and no Stirling numbers; the
    first stays in `matrix_B`, so the factorization S_n = B o A_n checks one
    against the other.
    """
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d > min(l, n - l):  # l slots map onto at most l of the n - l empty ones
        return 0
    return comb(n - l, d) * sum(
        (-1) ** j * comb(d, j) * (l + d - j) ** l for j in range(d + 1)
    )


def canonical_vector(l: int, n: int) -> SetVector:
    """A specific valid vector with l nonempty parts (grade max(l-1, 0)):
    [{1}, {2}, ..., {l-1}, {l..2^(l-1)}], padded with empty parts to length n."""
    if l < 1:
        raise ValueError("l must be at least 1")
    if n < l:
        raise ValueError("n must be at least l")
    singles = (1 << (l - 1)) - 1  # {1..l-1}
    rest = ((1 << (1 << (l - 1))) - 1) & ~singles
    return SetVector.of_masks([1 << i for i in range(l - 1)] + [rest] + [0] * (n - l))


def _maps_guard(n: int, l: int, max_maps: int) -> None:
    if n ** l > max_maps:
        raise SizeGuardError(f"{n}^{l} maps exceed the guard of {max_maps}", "max_maps")


def _canonical_successors(n: int, l: int, max_maps: int) -> tuple[Packing, set[int]]:
    """The packing of grade l and the distinct packed successors of the
    canonical l-part vector (grade l - 1), over every map on its l occupied
    slots (n^l of them)."""
    _maps_guard(n, l, max_maps)
    packing = Packing(n, l)
    parent = packing.pack(canonical_vector(l, n))
    return packing, set(packing.successors(parent, 1 << (l - 1)))


def successor_vectors(
    n: int, l: int, max_maps: int = 2_000_000
) -> dict[int, list[SetVector]]:
    """All distinct one-step successors of the canonical l-part vector,
    bucketed by their count of nonempty parts, each bucket sorted
    canonically: the rank tuples of `Packing.ranks` are sorted once, so
    every bucket fills in order."""
    packing, distinct = _canonical_successors(n, l, max_maps)
    vectors, parts = packing.ranks(list(distinct))
    vectors.sort()
    buckets: dict[int, list[SetVector]] = {}
    for ranks in vectors:
        v = SetVector.of_masks(map(parts.__getitem__, ranks))
        buckets.setdefault(v.nonempty_count(), []).append(v)
    return dict(sorted(buckets.items()))


def succ_count_oracle(n: int, l: int, d: int, max_maps: int = 2_000_000) -> int:
    """Brute-force value of succ_count, the ground truth it is checked
    against: count the distinct successors of the canonical l-part vector
    with l + d nonempty parts, over all n^l maps."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    packing, distinct = _canonical_successors(n, l, max_maps)
    return sum(map(eq, packing.nonempty_counts(distinct), repeat(l + d)))


# --- exact matrices ---------------------------------------------------------


class ExactMatrix:
    """Dense matrix over exact scalars (int or Fraction)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def row_sum(self, i: int):
        return sum(self.rows[i])

    def to_lists(self) -> list[list]:
        return [list(r) for r in self.rows]

    def __repr__(self):
        return f"ExactMatrix({self.to_lists()})"


def matrix_power(m: ExactMatrix, k: int) -> ExactMatrix:
    """m^k by repeated squaring; k = 0 gives the identity.  The result
    starts as the power of k's lowest set bit and no square is taken past
    its highest, so m^1 is m itself and m^3 takes two products."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if m.nrows != m.ncols:
        raise ValueError("matrix must be square")
    if not k:
        return ExactMatrix.identity(m.nrows)
    base = m
    while not k & 1:
        base = base @ base
        k >>= 1
    result = base
    while k := k >> 1:
        base = base @ base
        if k & 1:
            result = result @ base
    return result


def hadamard(m: ExactMatrix, n: ExactMatrix) -> ExactMatrix:
    """Entrywise product."""
    if (m.nrows, m.ncols) != (n.nrows, n.ncols):
        raise ValueError("dimension mismatch")
    return ExactMatrix(
        [[a * b for a, b in zip(ra, rb)] for ra, rb in zip(m.rows, n.rows)]
    )


@lru_cache(maxsize=None)
def matrix_S(n: int, size: Optional[int] = None) -> ExactMatrix:
    """The n x n successor-count matrix: entry (i, j), 1-indexed, is
    succ_count(n, i, j - i).  Upper triangular with diagonal 1^1 ... n^n.
    With `size`, only its top-left size x size block."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if size is None:
        size = n
    return ExactMatrix(
        [
            [succ_count(n, i, j - i) if j >= i else 0 for j in range(1, size + 1)]
            for i in range(1, size + 1)
        ]
    )


def _b_entry(i: int, j: int) -> int:
    if i < 1 or j < i or j > 2 * i:
        return 0
    return sum(comb(i, t) * i ** (i - t) * stirling2(t, j - i) for t in range(j - i, i + 1))


def matrix_B(rows: int, cols: Optional[int] = None) -> ExactMatrix:
    """Top-left block of the n-independent factor: entry (i, j), 1-indexed,
    is sum over t of C(i, t) i^(i-t) S2(t, j-i), equal to the r-Stirling
    number {2i over j} with the first i elements separated."""
    if cols is None:
        cols = rows
    return ExactMatrix(
        [[_b_entry(i, j) for j in range(1, cols + 1)] for i in range(1, rows + 1)]
    )


def matrix_A(n: int, size: Optional[int] = None) -> ExactMatrix:
    """Arrangement-count factor: entry (i, j), 1-indexed, is
    (j-i)! C(n-i, j-i), i.e. ordered (j-i)-subsets of an (n-i)-set; zero by
    convention outside 1 <= i <= j <= n."""
    if size is None:
        size = n

    def entry(i, j):
        if j < i or j > n or i > n:
            return 0
        return factorial(j - i) * comb(n - i, j - i)

    return ExactMatrix(
        [[entry(i, j) for j in range(1, size + 1)] for i in range(1, size + 1)]
    )


def graded_count(n: int, k: int, l: int) -> int:
    """Number of grade-k vectors of length n with exactly l nonempty parts:
    entry (1, l) of (S_n)^k."""
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}")
    return matrix_power(matrix_S(n), k)[0][l - 1]


def r_total(n: int, k: int) -> int:
    """Total number of grade-k vectors of length n: first row sum of (S_n)^k."""
    return matrix_power(matrix_S(n), k).row_sum(0)


def graded_rows(n: int, kmax: int) -> Iterator[tuple]:
    """The first rows of (S_n)^k for k = 0..kmax, each one vector-matrix
    product from the last: entry l - 1 of row k is graded_count(n, k, l).

    A grade-k vector has at most 2^k nonempty parts (succ_count(n, l, d) is
    0 for d > l), so these rows are 0 beyond column 2^kmax and the walk
    reads only that block of S_n, padding each row with zeros to length n."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    size = min(n, 1 << min(kmax, n.bit_length()))  # 2^kmax is not formed
    cols = list(zip(*matrix_S(n, size).rows))
    pad = (0,) * (n - size)
    row = (1,) + (0,) * (size - 1)
    yield row + pad
    for _ in range(kmax):
        row = tuple(sum(map(mul, row, col)) for col in cols)
        yield row + pad


def r_totals(n: int, kmax: int) -> list[int]:
    """[r_total(n, k) for k = 0..kmax], walking the first row of (S_n)^k
    once instead of raising S_n to every power."""
    return [sum(row) for row in graded_rows(n, kmax)]


def u_total(m: int, n: int, k: int) -> int:
    """Number of grade-k pairs: the two sides are independent, so the count
    is the product of the side totals."""
    return r_total(m, k) * r_total(n, k)


# --- closed forms -----------------------------------------------------------


def closed_form_coeffs(n: int) -> list[Fraction]:
    """Rationals a_1..a_n with r_total(n, k) = sum of a_i (i^i)^k for all k.

    The totals satisfy a linear recurrence with the distinct characteristic
    roots x_i = i^i (the diagonal of S_n), so the coefficients solve the
    Vandermonde system sum of a_i x_i^k = r_total(n, k) for k = 0..n-1; the
    result reproduces all higher k exactly.  The inverse of the system is
    the Lagrange basis: with L_i(t) = product over j != i of (t - x_j),
    a_i = (sum over k of [t^k] L_i * r_total(n, k)) / L_i(x_i).  Everything
    stays in integers up to that one division per coefficient.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    roots = [i**i for i in range(1, n + 1)]
    totals = r_totals(n, n - 1)
    coeffs = []
    for x in roots:
        basis = [1]  # coefficients of L_i, lowest degree first
        for y in roots:
            if y != x:
                basis = [a - y * b for a, b in zip([0] + basis, basis + [0])]
        at_x = prod(x - y for y in roots if y != x)
        coeffs.append(Fraction(sum(map(mul, basis, totals)), at_x))
    return coeffs


def lower_bound_ie(m: int, n: int) -> int:
    """Inclusion-exclusion count of the tableaux containing a full row and a
    full column, all of which are reachable: a lower bound for the shuffle
    state complexity, strictly above 2^((m-1)(n-1)) for m, n >= 2.

    The double sum over k full rows and l full columns, of
    (-1)^(k+l) C(m,k) C(n,l) 2^((m-k)(n-l)), is summed over l in closed
    form: with x = 2^(m-k) the l-sum is (x-1)^n - x^n.  The count is
    symmetric in m and n, so k runs over the shorter side."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    m, n = sorted((m, n))
    return sum(
        (-1) ** k * comb(m, k) * (((1 << (m - k)) - 1) ** n - (1 << ((m - k) * n)))
        for k in range(1, m + 1)
    )


# --- bivariate series -------------------------------------------------------


def _blocks_guard(d: int, max_blocks_guard: int) -> None:
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > max_blocks_guard:
        raise SizeGuardError(f"d = {d} exceeds the guard of {max_blocks_guard}", "max_blocks_guard")


def series_direct(d: int, max_blocks_guard: int = 64) -> list[list[Fraction]]:
    """The double generating function of the Stirling-type factor, assembled
    termwise: sum over i, j of {2i over j}_i x^j y^i / i!, complete through
    the y^d block.  Both routes return its d + 1 y-blocks: block i is the
    dense list of the coefficients of x^0..x^(2d) y^i, nonzero only at
    x-degrees i..2i.  Block i is the row `_r_stirling_row(2i, i)` over i!,
    padded with zeros; `series_closed` uses no r-Stirling number."""
    _blocks_guard(d, max_blocks_guard)
    return [
        [Fraction(c, factorial(i)) for c in _r_stirling_row(2 * i, i)]
        + [Fraction(0)] * (2 * (d - i))
        for i in range(d + 1)
    ]


def _add_product(acc: dict, scale: int, p: dict, q: dict, max_x: int) -> None:
    """acc += scale * p * q over x-degrees up to max_x."""
    for e1, c1 in p.items():
        c1 *= scale
        for e2, c2 in q.items():
            if e1 + e2 <= max_x:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2


def _recurrence_blocks(a: list[dict], coef, max_x: int) -> list[dict]:
    """out_0 = 1 and out_n = sum over k = 1..n of coef(n, k) a_k out_(n-k),
    for a with a_0 = 0.  With a_k = k! A_k and out_n = n! times block n:

    - exp(A): the y-derivative gives n E_n = sum of k A_k E_(n-k), which
      scaled by (n-1)! has coef(n, k) = C(n-1, k-1);
    - 1 / (1 + A): (1 + A) H = 1 gives coef(n, k) = -C(n, k).
    """
    out = [{0: 1}]
    for n in range(1, len(a)):
        acc: dict[int, int] = {}
        for k in range(1, n + 1):
            _add_product(acc, coef(n, k), a[k], out[n - k], max_x)
        out.append(acc)
    return out


def _product_blocks(p: list[dict], q: list[dict], max_x: int) -> list[dict]:
    """n! (P Q)_n = sum of C(n, k) (k! P_k) ((n-k)! Q_(n-k))."""
    out = []
    for n in range(len(p)):
        acc: dict[int, int] = {}
        for k in range(n + 1):
            _add_product(acc, comb(n, k), p[k], q[n - k], max_x)
        out.append(acc)
    return out


def series_closed(d: int, max_blocks_guard: int = 64) -> list[list[Fraction]]:
    """The same y-blocks from the closed form

        exp(-(W(-x y)/y + x)) / (1 + W(-x y)).

    By the Lambert W series W(z) = sum (-k)^(k-1) z^k / k!, block k of
    W(-x y), times k!, is the single integer term -k^(k-1) x^k.  W(-x y)/y
    has the one y-degree-0 term -x, cancelled exactly by the +x, so block k
    of the exponent, times k!, is (k+1)^(k-1) x^(k+1), and the truncated
    algebra is exact blockwise.  Each block k is carried as integers scaled
    by k!, through the generic exp, reciprocal and product recurrences; the
    result divides block n by n! once per coefficient.
    """
    _blocks_guard(d, max_blocks_guard)
    max_x = 2 * d
    w = [{}] + [{k: -(k ** (k - 1))} for k in range(1, d + 1)]
    exponent = [{}] + [{k + 1: (k + 1) ** (k - 1)} for k in range(1, d + 1)]
    numerator = _recurrence_blocks(exponent, lambda n, k: comb(n - 1, k - 1), max_x)
    inverse = _recurrence_blocks(w, lambda n, k: -comb(n, k), max_x)
    blocks = []
    for n, block in enumerate(_product_blocks(numerator, inverse, max_x)):
        scale = factorial(n)
        blocks.append([Fraction(block.get(ex, 0), scale) for ex in range(max_x + 1)])
    return blocks
