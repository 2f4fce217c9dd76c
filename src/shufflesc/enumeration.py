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
from math import comb, factorial, prod
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional

from .errors import SizeGuardError
from .upair import SetVector, sort_canonically, successors


@lru_cache(maxsize=None)
def stirling2(a: int, b: int) -> int:
    """Stirling number of the second kind: partitions of an a-set into b
    nonempty blocks."""
    if a < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")
    if a == b:
        return 1
    if b == 0 or b > a:
        return 0
    return b * stirling2(a - 1, b) + stirling2(a - 1, b - 1)


@lru_cache(maxsize=None)
def r_stirling2(np: int, kp: int, r: int) -> int:
    """r-Stirling number: partitions of {1..np} into kp nonempty blocks with
    the first r elements in pairwise distinct blocks."""
    if np < 0 or kp < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    if np < r:
        return 0
    if np == r:
        return 1 if kp == r else 0
    if kp == 0:
        return 0
    return kp * r_stirling2(np - 1, kp, r) + r_stirling2(np - 1, kp - 1, r)


def succ_count(n: int, l: int, d: int) -> int:
    """Number of distinct one-step successors with l + d nonempty parts of a
    valid length-n vector with l nonempty parts:

        d! C(n-l, d) * sum over a of C(l, a) l^(l-a) S2(a, d).

    Choosing which d empty slots open up gives the binomial prefactor; the
    inner sum counts maps on the occupied slots by how many of them leave.
    """
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if d < 0:
        raise ValueError("d must be nonnegative")
    return (
        factorial(d)
        * comb(n - l, d)
        * sum(comb(l, a) * l ** (l - a) * stirling2(a, d) for a in range(d, l + 1))
    )


def canonical_vector(l: int, n: Optional[int] = None) -> SetVector:
    """A specific valid vector with l nonempty parts (grade max(l-1, 0)):
    [{1}, {2}, ..., {l-1}, {l..2^(l-1)}], padded with empty parts to length n."""
    if l < 1:
        raise ValueError("l must be at least 1")
    if n is None:
        n = l
    if n < l:
        raise ValueError("n must be at least l")
    singles = (1 << (l - 1)) - 1  # {1..l-1}
    rest = ((1 << (1 << (l - 1))) - 1) & ~singles
    return SetVector.of_masks([1 << i for i in range(l - 1)] + [rest] + [0] * (n - l))


def successor_vectors(
    n: int, l: int, max_maps: int = 2_000_000
) -> dict[int, list[SetVector]]:
    """All distinct one-step successors of the canonical l-part vector,
    bucketed by their count of nonempty parts.

    Enumerates every map on the l occupied slots (n^l of them), the
    brute-force ground truth against which succ_count is checked.
    """
    if n ** l > max_maps:
        raise SizeGuardError(
            f"{n}^{l} maps exceed the guard of {max_maps}; raise max_maps to override"
        )
    buckets: dict[int, list[SetVector]] = {}
    for parts in set(successors(canonical_vector(l, n))):
        v = SetVector.of_masks(parts)
        buckets.setdefault(v.nonempty_count(), []).append(v)
    return {key: sort_canonically(vs) for key, vs in sorted(buckets.items())}


def succ_count_oracle(n: int, l: int, d: int, max_maps: int = 2_000_000) -> int:
    """Brute-force value of succ_count by explicit successor enumeration."""
    return len(successor_vectors(n, l, max_maps).get(l + d, ()))


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
    """m^k by repeated squaring; k = 0 gives the identity."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if m.nrows != m.ncols:
        raise ValueError("matrix must be square")
    result = ExactMatrix.identity(m.nrows)
    base = m
    while k:
        if k & 1:
            result = result @ base
        base = base @ base
        k >>= 1
    return result


def hadamard(m: ExactMatrix, n: ExactMatrix) -> ExactMatrix:
    """Entrywise product."""
    if (m.nrows, m.ncols) != (n.nrows, n.ncols):
        raise ValueError("dimension mismatch")
    return ExactMatrix(
        [[a * b for a, b in zip(ra, rb)] for ra, rb in zip(m.rows, n.rows)]
    )


@lru_cache(maxsize=None)
def matrix_S(n: int) -> ExactMatrix:
    """The n x n successor-count matrix: entry (i, j), 1-indexed, is
    succ_count(n, i, j - i).  Upper triangular with diagonal 1^1 ... n^n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return ExactMatrix(
        [
            [succ_count(n, i, j - i) if j >= i else 0 for j in range(1, n + 1)]
            for i in range(1, n + 1)
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
    product from the last: entry l - 1 of row k is graded_count(n, k, l)."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    cols = list(zip(*matrix_S(n).rows))
    row = (1,) + (0,) * (n - 1)
    yield row
    for _ in range(kmax):
        row = tuple(sum(map(mul, row, col)) for col in cols)
        yield row


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
    state complexity, strictly above 2^((m-1)(n-1)) for m, n >= 2."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    return sum(
        (-1) ** (k + l) * comb(m, k) * comb(n, l) * (1 << ((m - k) * (n - l)))
        for k in range(1, m + 1)
        for l in range(1, n + 1)
    )


# --- truncated bivariate series ---------------------------------------------


def _exact(c) -> Fraction:
    """c as a Fraction; a float is refused rather than stored as its binary
    fraction."""
    if isinstance(c, float):
        raise TypeError(f"series coefficients must be exact, not the float {c!r}")
    return Fraction(c)


class TruncatedSeries:
    """Bivariate power series over exact rationals, truncated to the
    rectangle x-degree <= max_x, y-degree <= max_y.

    The grading variable is y: the block of y-degree i is a polynomial in x
    of degree between i and 2i, so a rectangle with max_x = 2 max_y holds
    complete blocks.
    """

    __slots__ = ("max_x", "max_y", "coeffs")

    def __init__(self, max_x: int, max_y: int, coeffs: Optional[Mapping] = None):
        self.max_x = max_x
        self.max_y = max_y
        self.coeffs: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for (ex, ey), c in coeffs.items():
                c = _exact(c)
                if c and ex <= max_x and ey <= max_y:
                    self.coeffs[(ex, ey)] = c

    def coefficient(self, ex: int, ey: int) -> Fraction:
        return self.coeffs.get((ex, ey), Fraction(0))

    def y_block(self, ey: int) -> list[Fraction]:
        """Coefficients of y^ey as a dense list indexed by x-degree."""
        return [self.coefficient(ex, ey) for ex in range(self.max_x + 1)]

    def _same_box(self, other: "TruncatedSeries"):
        if (self.max_x, self.max_y) != (other.max_x, other.max_y):
            raise ValueError("truncation rectangles differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_box(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return TruncatedSeries(self.max_x, self.max_y, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.max_x, self.max_y, {k: -c for k, c in self.coeffs.items()}
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(
                self.max_x,
                self.max_y,
                {k: c * _exact(other) for k, c in self.coeffs.items()},
            )
        self._same_box(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (x1, y1), c1 in self.coeffs.items():
            for (x2, y2), c2 in other.coeffs.items():
                ex, ey = x1 + x2, y1 + y2
                if ex <= self.max_x and ey <= self.max_y:
                    key = (ex, ey)
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
        return TruncatedSeries(self.max_x, self.max_y, out)

    __rmul__ = __mul__

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term and no y-degree-0 part
        (so the power sum terminates within the truncation box)."""
        if any(ey == 0 for (_, ey) in self.coeffs):
            raise ValueError("exp needs every term to carry a positive y-degree")
        result = TruncatedSeries(self.max_x, self.max_y, {(0, 0): Fraction(1)})
        power = TruncatedSeries(self.max_x, self.max_y, {(0, 0): Fraction(1)})
        for t in range(1, self.max_y + 1):
            power = power * self
            result = result + power * Fraction(1, factorial(t))
        return result

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and (self.max_x, self.max_y) == (other.max_x, other.max_y)
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        body = " + ".join(f"{c}*x^{ex}*y^{ey}" for (ex, ey), c in terms[:12])
        more = " + ..." if len(terms) > 12 else ""
        return f"TruncatedSeries({body}{more})"


def series_direct(d: int, max_blocks_guard: int = 64) -> TruncatedSeries:
    """The double generating function of the Stirling-type factor, assembled
    termwise: sum over i, j of {2i over j}_i x^j y^i / i!, complete through
    the y^d block (x-degree up to 2d).  Each block i reads its r-Stirling
    numbers from one table (`_r_stirling_row`); `series_closed` uses none."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > max_blocks_guard:
        raise SizeGuardError(f"d = {d} exceeds the guard of {max_blocks_guard}")
    coeffs = {(0, 0): Fraction(1)}
    for i in range(1, d + 1):
        row = _r_stirling_row(2 * i, i)
        for j in range(i, 2 * i + 1):
            coeffs[(j, i)] = Fraction(row[j], factorial(i))
    return TruncatedSeries(2 * d, d, coeffs)


def _r_stirling_row(np: int, r: int) -> list[int]:
    """[r_stirling2(np, kp, r) for kp in 0..np], for np >= r: one table
    filled row by row from np = r with the recurrence of `r_stirling2`."""
    row = [0] * r + [1]
    for _ in range(r, np):
        row = [kp * a + b for kp, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return row


def _lambert_w_xy(d: int) -> dict[int, Fraction]:
    """Diagonal coefficients of W(-x y): term i is c_i (x y)^i with
    c_i = (-i)^(i-1) (-1)^i / i!, from the Lambert W series
    W(z) = sum (-i)^(i-1) z^i / i!."""
    return {
        i: Fraction((-i) ** (i - 1) * (-1) ** i, factorial(i)) for i in range(1, d + 1)
    }


def _scaled_blocks(blocks: list[dict[int, Fraction]]) -> list[dict[int, int]]:
    """Block k (x-degree -> coefficient of x^e y^k) times k!, as integers.

    The recurrences of `series_closed` stay in integers only if every such
    product is one; a coefficient for which it is not is an internal fault,
    not bad input, hence RuntimeError."""
    scaled = []
    for k, block in enumerate(blocks):
        out = {}
        for ex, c in block.items():
            n = Fraction(c) * factorial(k)
            if n.denominator != 1:
                raise RuntimeError(
                    f"the x^{ex} y^{k} coefficient {c} is not integral at {k}!"
                )
            out[ex] = n.numerator
        scaled.append(out)
    return scaled


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


def series_closed(d: int, max_blocks_guard: int = 64) -> TruncatedSeries:
    """The same generating function from its closed form

        exp(-(W(-x y)/y + x)) / (1 + W(-x y)).

    W(-x y)/y has the single y-degree-0 term -x, cancelled exactly by the +x,
    so the exponent argument and W both live in positive y-degrees and the
    truncated algebra is exact blockwise.  Each y-block k is carried as
    integers scaled by k!, through the generic exp, reciprocal and product
    recurrences on the W coefficients alone; the result divides block n by
    n! once per coefficient.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > max_blocks_guard:
        raise SizeGuardError(f"d = {d} exceeds the guard of {max_blocks_guard}")
    max_x, max_y = 2 * d, d
    w_diag = _lambert_w_xy(d + 1)

    # -(W(-xy)/y + x): the i-th W term contributes at (x^i, y^(i-1)), i >= 2.
    exponent = [{}] + [{k + 1: -w_diag[k + 1]} for k in range(1, max_y + 1)]
    w = [{}] + [{k: w_diag[k]} for k in range(1, max_y + 1)]
    numerator = _recurrence_blocks(
        _scaled_blocks(exponent), lambda n, k: comb(n - 1, k - 1), max_x
    )
    inverse = _recurrence_blocks(_scaled_blocks(w), lambda n, k: -comb(n, k), max_x)
    blocks = _product_blocks(numerator, inverse, max_x)
    return TruncatedSeries(
        max_x,
        max_y,
        {
            (ex, n): Fraction(c, factorial(n))
            for n, block in enumerate(blocks)
            for ex, c in block.items()
        },
    )
