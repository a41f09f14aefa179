#!/usr/bin/env python3
"""Time the two access paths on one grammar and plot visits vs epsilon.

Builds the spiral at the requested size, balances it, and runs the shared
benchmark over the same sampled positions for the derivation descent and
the unwound-index path.  A second table sweeps epsilon to show how the index's
level count trades memory (indexed symbols, table cells, bytes) and build time
against visits per query.

Usage: python3 scripts/access_bench.py [--exp 12] [--queries 10000]
"""

import argparse
import time

from gridslp import balance_to_tslp, bench_access, build_fast, build_spiral


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--exp", type=int, default=12, help="spiral size exponent")
    ap.add_argument("--queries", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epsilons", type=float, nargs="+", default=[1.0, 2.0, 3.0, 6.0])
    args = ap.parse_args()

    n = 1 << args.exp
    g = build_spiral(n)
    t, stats = balance_to_tslp(g)
    print(f"spiral N={n}: plain size {stats.input_size} depth {stats.input_depth}, "
          f"balanced size {stats.output_size} depth {stats.output_depth}")

    idx = build_fast(t, 3.0)
    report = bench_access(t, idx, args.queries, args.seed)
    print(f"\n{'path':>6} {'mean_visits':>12} {'max_visits':>11} {'ns/query':>10}")
    for p in report["paths"]:
        print(f"{p['path']:>6} {p['meanVisits']:>12.2f} {p['maxVisits']:>11} "
              f"{p['nanosPerQuery']:>10.0f}")

    print(f"\n{'eps':>5} {'levels':>7} {'grids':>7} {'cells':>9} {'bytes':>10} {'build_s':>8} {'mean_visits':>12}")
    for eps in args.epsilons:
        t0 = time.perf_counter()
        idx = build_fast(t, eps)
        build_s = time.perf_counter() - t0
        report = bench_access(t, idx, args.queries, args.seed)
        fast = next(p for p in report["paths"] if p["path"] == "fast")
        print(f"{eps:>5.1f} {idx.params.levels:>7} {len(idx.grids):>7} {idx.total_cells:>9} "
              f"{idx.nbytes:>10} {build_s:>8.3f} {fast['meanVisits']:>12.2f}")


if __name__ == "__main__":
    main()
