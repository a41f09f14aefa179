#!/usr/bin/env python3
"""Tabulate balancing quality across the spiral family.

For each N the table reports input/output size and depth, the normalized
depth (output depth / log2 of the expansion area), the number of input
symbols the balancer kept verbatim, the mean visits of a balanced-grammar
query over the spot-check samples, and wall-clock build + balance time.  The two ratio columns are the quantities whose max/min spread
the acceptance suite bounds by 1.5.

Usage: python3 scripts/flatness_report.py [--exps 8 10 12 14] [--samples 2000]
"""

import argparse
import math
import random
import time

from gridslp import (
    access_plain,
    access_tslp,
    balance_to_tslp,
    build_spiral,
    compute_geometry,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--exps", type=int, nargs="+", default=[8, 10, 12, 14])
    ap.add_argument("--samples", type=int, default=2000, help="spot-check accesses per size (0 to skip)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    header = (
        f"{'N':>7} {'in_size':>8} {'out_size':>9} {'in_d':>6} {'out_d':>6} "
        f"{'out_d/log2':>10} {'size_ratio':>10} {'kept':>6} {'visits':>7} {'secs':>6}"
    )
    print(header)
    print("-" * len(header))
    norm_depths = []
    size_ratios = []
    for exp in args.exps:
        n = 1 << exp
        t0 = time.perf_counter()
        g = build_spiral(n)
        t, stats = balance_to_tslp(g)
        elapsed = time.perf_counter() - t0
        visits = "-"
        if args.samples:
            geo_g, geo_t = compute_geometry(g), compute_geometry(t)
            rng = random.Random(args.seed)
            total = 0
            for _ in range(args.samples):
                x, y = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
                a = access_plain(g, x, y, geo=geo_g)[0]
                b, steps = access_tslp(t, x, y, geo=geo_t)
                if a != b:
                    raise SystemExit(f"mismatch at N={n} ({x},{y}): {a!r} vs {b!r}")
                total += steps
            visits = f"{total / args.samples:.1f}"
        norm = stats.output_depth / math.log2(n * n)
        ratio = stats.output_size / stats.input_size
        norm_depths.append(norm)
        size_ratios.append(ratio)
        print(
            f"{n:>7} {stats.input_size:>8} {stats.output_size:>9} "
            f"{stats.input_depth:>6} {stats.output_depth:>6} {norm:>10.3f} {ratio:>10.3f} "
            f"{stats.kept_count:>6} {visits:>7} {elapsed:>6.2f}"
        )
    print("-" * len(header))
    print(
        f"flatness: depth {max(norm_depths) / min(norm_depths):.3f}, "
        f"size {max(size_ratios) / min(size_ratios):.3f} (budget 1.5 each)"
    )


if __name__ == "__main__":
    main()
