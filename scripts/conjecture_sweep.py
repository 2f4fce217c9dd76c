#!/usr/bin/env python3
"""Sweep the reachability checks over a range of grid sizes.

Prints one table row per (m, n): reachable count, the valid-tableau count
f(m, n), whether every valid tableau was reached, the saturation depth, and
(for grids small enough) the exact state complexity with one maximizing pair
of final sets.

Example:
    python scripts/conjecture_sweep.py --max-cells 12 --sc-cells 12
"""

import argparse
import sys
import time

from shufflesc import check_conjecture1, f_bound, reachable_tableaux, state_complexity_shuffle


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-cells", type=int, default=12,
                        help="largest m*n to survey (default 12)")
    parser.add_argument("--sc-cells", type=int, default=12,
                        help="largest m*n for the exact state-complexity search (default 12)")
    args = parser.parse_args()

    header = f"{'m':>2} {'n':>2} {'reachable':>10} {'f(m,n)':>10} {'status':>8} {'depth':>6} {'sc':>10}  finals"
    print(header)
    print("-" * len(header))
    exit_code = 0
    for m in range(1, args.max_cells + 1):
        for n in range(m, args.max_cells + 1):
            if m * n > args.max_cells:
                continue
            t0 = time.time()
            reach = reachable_tableaux(m, n, max_cells=args.max_cells)
            rep = check_conjecture1(m, n, max_cells=args.max_cells, reach=reach)
            if rep.status != "holds":
                exit_code = 3
            if m * n <= args.sc_cells:
                sc = state_complexity_shuffle(m, n, reach=reach, max_cells=args.sc_cells)
                f1, f2 = sc.witness()
                sc_text, finals = str(sc.value), f"F1={sorted(f1)} F2={sorted(f2)}"
            else:
                sc_text, finals = "-", ""
            print(
                f"{m:>2} {n:>2} {rep.reachable_count:>10} {f_bound(m, n):>10} "
                f"{rep.status:>8} {rep.saturation_depth:>6} {sc_text:>10}  {finals}"
                f"   ({time.time() - t0:.1f}s)"
            )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
