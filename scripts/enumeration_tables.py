#!/usr/bin/env python3
"""Print the enumeration data for the graded vector families.

For each n up to --max-n: the successor-count matrix S_n, the factorization
check S_n = B (x) A_n, the totals r_total(n, k), and the closed-form rational
coefficients with the observed decay of the leading one.

Example:
    python scripts/enumeration_tables.py --max-n 7 --kmax 10
"""

import argparse
import sys

from shufflesc import (
    closed_form_coeffs,
    hadamard,
    matrix_A,
    matrix_B,
    matrix_S,
    r_totals,
)


def fmt_matrix(mat):
    width = max(len(str(x)) for row in mat for x in row)
    return "\n".join("  ".join(f"{x:>{width}}" for x in row) for row in mat)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--kmax", type=int, default=10)
    args = parser.parse_args()

    for n in range(2, args.max_n + 1):
        s = matrix_S(n)
        if hadamard(matrix_B(n), matrix_A(n)) != s:
            sys.exit(f"factorization check failed: S_{n} != B (x) A_{n} entrywise")
        print(f"S_{n} (= B (x) A_{n} entrywise):")
        print(fmt_matrix(s))
        totals = r_totals(n, args.kmax)
        print(f"totals k=0..{args.kmax}: {', '.join(map(str, totals))}")
        coeffs = closed_form_coeffs(n)
        terms = " + ".join(
            f"({c.numerator}/{c.denominator})*{i ** i}^k" for i, c in enumerate(coeffs, 1)
        )
        print(f"closed form: {terms}")
        leading = coeffs[-1]
        print(f"leading coefficient ~ {float(leading):.3e} (exact {leading})")
        print()


if __name__ == "__main__":
    main()
