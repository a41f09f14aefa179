#!/usr/bin/env python3
"""The sizes of a plain and a holed balancing route over the spiral family.

The paper's lower bound says some N×N family needs Ω(g·N/log³N) symbols in
any plain grammar of depth O(log N), while a grammar with holes balances it
at O(g).  This script prints two upper-bound routes, not that bound.  For
each N the table gives the input size g, the size of ``rebalance_plain_2d``'s
output (plain, logarithmic depth) over g, the growth term N/log2³N and the
ratio of the two, the size of ``balance_to_tslp``'s output (holed) over g,
both output depths, and the rebalance's wall time.  The plain column is the
size that pipeline builds, so its growth is the pipeline's overhead on this
family; a smaller shallow plain grammar may exist, and the column is no
evidence for the lower bound.  The holed column stays near 2.3·g.

The plain route folds the spiral's N row strings as the roots of one
1D plan and stacks the balanced rows, so every output symbol is reachable
from its start.  Its size and depth are 1,370 / 26 at N = 256, 5,089 / 30
at 1024 and 18,195 / 34 at 4096.

Usage: python3 scripts/separation.py [--exps 8 9 10 11 12 13 14]
"""

import argparse
import math
import time

from gridslp import (
    balance_to_tslp,
    build_spiral,
    compute_geometry,
    rebalance_plain_2d,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--exps", type=int, nargs="+", default=list(range(8, 15)))
    args = ap.parse_args()

    print(
        f"{'N':>6} {'g':>6} {'plain':>7} {'plain/g':>8} {'N/log3N':>8} "
        f"{'ratio':>6} {'tslp':>6} {'tslp/g':>7} {'depths':>7} {'rebal_s':>8}"
    )
    for exp in args.exps:
        n = 1 << exp
        g = build_spiral(n)
        geo = compute_geometry(g)
        t0 = time.perf_counter()
        _, plain = rebalance_plain_2d(g, geo)
        secs = time.perf_counter() - t0
        _, tslp = balance_to_tslp(g, geo)
        growth = n / exp ** 3
        per_g = plain.output_size / g.size
        print(
            f"{n:>6} {g.size:>6} {plain.output_size:>7} {per_g:>8.2f} "
            f"{growth:>8.2f} {per_g / growth:>6.2f} {tslp.output_size:>6} "
            f"{tslp.output_size / g.size:>7.2f} "
            f"{plain.output_depth:>3}/{tslp.output_depth:<3} {secs:>8.3f}"
        )


if __name__ == "__main__":
    main()
