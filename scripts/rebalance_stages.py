#!/usr/bin/env python3
"""Time each stage of the 2D rebalance on the spiral family.

The stages are those ``rebalance_plain_2d`` runs on an input that fails the
keep test:

- linearize: ``transforms._linearize``, the rows as a flat DAG;
- post-order: ``grammar._post_order`` from the N row symbols;
- plan: ``balance._plan``, which runs that post-order itself first, then
  the marks, splits, canon and requests;
- fold: ``balance._fold`` with the flank-pair algebra;
- stack + finish: the balanced vertical join of the rows and
  ``GrammarBuilder.finish``.

Each figure is the median of ``--reps`` runs in ms, with the cyclic
collector off.  The last line times the whole rebalance of
``random_grammar(1, 200, max_dim=64)`` chained 40 times: a small input whose
linearization takes 47 numpy rounds of a few keys each, so a fixed cost per
round shows there and not on the spirals.

Usage: python3 scripts/rebalance_stages.py [--exps 10 11 12] [--reps 7]
"""

import argparse
import gc
import statistics
from time import perf_counter

from gridslp import (
    GrammarBuilder, build_spiral, compute_geometry, random_grammar,
    rebalance_plain_2d)
from gridslp.balance import _flanks, _fold, _plan
from gridslp.grammar import _post_order
from gridslp.transforms import _linearize

STAGES = ("linearize", "post-order", "plan", "fold", "stack+finish")


def stages(g, geo) -> list[float]:
    t = [perf_counter()]
    dag, rows = _linearize(g, geo)
    t.append(perf_counter())
    _post_order(dag.left, dag.right, rows)
    t.append(perf_counter())
    plan = _plan(dag, rows)
    t.append(perf_counter())
    b = GrammarBuilder(dedup=True)
    bal, copy, _ = _fold(b, dag, plan, *_flanks(b))
    t.append(perf_counter())
    b.finish(b.balanced("V", [copy[s] if bal[s] is None else bal[s] for s in rows]))
    t.append(perf_counter())
    return [b - a for a, b in zip(t, t[1:])]


def median_ms(runs) -> list[float]:
    return [statistics.median(col) * 1e3 for col in zip(*runs)]


def timed(f, reps: int) -> list[list[float]]:
    runs = []
    for _ in range(reps):
        gc.collect()
        gc.disable()
        try:
            runs.append(f())
        finally:
            gc.enable()
    return runs


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--exps", type=int, nargs="+", default=[10, 11, 12])
    ap.add_argument("--reps", type=int, default=7)
    args = ap.parse_args()

    print(f"{'N':>6} {'row DAG':>8} " + " ".join(f"{s:>12}" for s in STAGES)
          + f" {'total':>8}  (ms; plan includes its post-order)")
    for exp in args.exps:
        g = build_spiral(1 << exp)
        geo = compute_geometry(g)
        ms = median_ms(timed(lambda: stages(g, geo), args.reps))
        nodes = len(_linearize(g, geo)[0].left)
        total = sum(ms) - ms[1]
        print(f"{1 << exp:>6} {nodes:>8} " + " ".join(f"{x:>12.1f}" for x in ms)
              + f" {total:>8.1f}")

    seed = random_grammar(1, 200, max_dim=64)
    b = GrammarBuilder.seeded(seed)
    g = b.finish(b.chain("H", [seed.start] * 40))
    geo = compute_geometry(g)

    def whole():
        t = perf_counter()
        rebalance_plain_2d(g, geo)
        return [perf_counter() - t]

    (ms,) = median_ms(timed(whole, 4 * args.reps))
    print(f"random_grammar(1, 200, max_dim=64) x40: rebalance {ms:.2f} ms")


if __name__ == "__main__":
    main()
