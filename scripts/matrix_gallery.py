#!/usr/bin/env python3
"""Print the ballot and odd order count matrices side by side.

The two sequences of matrices share their off-diagonal structure pairwise:
b(i,j) + b(j,i) = 2 p(i,j) cell by cell, and both families are constant along
diagonals for every fixed statistic.
"""

import argparse

from permlab.enumeration import BUDGETS, build_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--d", type=int, default=None,
                        help="fix the statistic instead of summing over it")
    args = parser.parse_args()
    if args.n_max > BUDGETS["ballot"]:
        parser.error(f"--n-max is budgeted up to {BUDGETS['ballot']}, got {args.n_max}")
    if args.d is not None and args.d < 0:
        parser.error(f"--d must be at least 0, got {args.d}")

    # the statistic d ranges over 0 <= d <= (n-1)//2, so it first occurs at n = 2d+1
    n_min = 3 if args.d is None else max(3, 2 * args.d + 1)
    for n in range(n_min, args.n_max + 1):
        left = build_matrix("ballot", n, args.d)
        right = build_matrix("odd", n, args.d)
        lrows = left.to_text().splitlines()
        rrows = right.to_text().splitlines()
        width = max(len(row) for row in lrows)
        label = f"d={args.d}" if args.d is not None else "all d"
        print(f"n={n} ({label}): ballot | odd")
        for lrow, rrow in zip(lrows, rrows):
            print(f"  {lrow:<{width}}   | {rrow}")
        print()


if __name__ == "__main__":
    main()
