#!/usr/bin/env python3
"""Time ``expand`` in-process on fixed inputs, one JSON line per input.

Each line holds the median of ``--calls`` timed calls (each after
``gc.collect(); gc.freeze()``), in ms, and the tracemalloc peak of one more
call, in MiB.  The grammar's geometry table, ``columns`` included, is built
before any call, as it is in a pipeline that has already loaded the grammar.

The inputs: the 4096^2 spiral, the quadtree-build grammars of seeds 1-3
(from ``perfbench/inputs.py``), the spiral's balanced TSLP, a caterpillar of
20,000 links and V(C, C) of it, and two random plain grammars.  ``--quick``
runs small sizes instead and checks that every expansion equals the walk
alone (batching switched off); ``tests/test_examples.py`` runs it so.

Usage, from the repository root:

    python3 scripts/expand_bench.py [--quick] [--calls 9] [--only NAME ...]
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gridslp import (  # noqa: E402
    GrammarBuilder,
    balance_to_tslp,
    build_spiral,
    compute_geometry,
    expand,
    random_grammar,
)
from gridslp import matrix  # noqa: E402


def perfbench_inputs():
    """``perfbench/inputs.py``, imported by path."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def caterpillar(links: int, both: bool):
    """A left-leaning chain of ``links`` h-concats of one terminal, or V(C, C)
    of it."""
    b = GrammarBuilder(dedup=False)
    a = b.terminal("a")
    s = a
    for _ in range(links):
        s = b.h(s, a)
    return b.finish(b.v(s, s) if both else s)


def inputs(quick: bool):
    """(name, grammar-maker) pairs; the makers run only for selected names."""
    side = 256 if quick else 4096
    links = 2000 if quick else 20000
    quad = perfbench_inputs()

    def quadtree(seed: int):
        m = quad.quadtree_matrix(seed)
        return quad.quadtree_grammar(m[:256, :256] if quick else m)

    yield f"spiral-{side}", lambda: build_spiral(side)
    for seed in (1, 2, 3):
        yield f"quadtree-s{seed}", lambda seed=seed: quadtree(seed)
    yield f"spiral-{side}-balanced", lambda: balance_to_tslp(build_spiral(side))[0]
    yield f"caterpillar-{links}", lambda: caterpillar(links, False)
    yield f"caterpillar-{links}-VCC", lambda: caterpillar(links, True)
    if quick:
        yield "random-1-2000-256", lambda: random_grammar(1, 2000, max_dim=256)
        yield "random-1-500-64", lambda: random_grammar(1, 500, max_dim=64)
    else:
        yield "random-1-20000-256", lambda: random_grammar(1, 20000, max_dim=256)
        yield "random-1-2000-64", lambda: random_grammar(1, 2000, max_dim=64)


def walk_only(g, geo) -> np.ndarray:
    """``expand`` with batching switched off (where this version batches)."""
    if not hasattr(matrix, "_CELLS_PER_SYMBOL"):
        return expand(g, geo=geo)
    kept = matrix._CELLS_PER_SYMBOL
    matrix._CELLS_PER_SYMBOL = float("inf")
    try:
        return expand(g, geo=geo)
    finally:
        matrix._CELLS_PER_SYMBOL = kept


def measure(g, calls: int) -> tuple[float, float, np.ndarray]:
    geo = compute_geometry(g)
    geo.columns
    times = []
    for _ in range(calls):
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        m = expand(g, geo=geo)
        times.append(time.perf_counter() - start)
        gc.unfreeze()
        del m
    gc.collect()
    tracemalloc.start()
    m = expand(g, geo=geo)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return statistics.median(times), peak, m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="small inputs, each checked against the walk alone")
    ap.add_argument("--calls", type=int, default=9, help="timed calls per input")
    ap.add_argument("--only", nargs="+", metavar="NAME", help="inputs to run")
    args = ap.parse_args()
    ok = True
    for name, make in inputs(args.quick):
        if args.only and name not in args.only:
            continue
        g = make()
        secs, peak, m = measure(g, max(args.calls, 1))
        row = {"input": name, "shape": list(m.shape), "expand_ms": round(secs * 1e3, 3),
               "peak_mib": round(peak / 2**20, 2)}
        if args.quick:
            want = walk_only(g, compute_geometry(g))
            row["equal"] = bool(m.shape == want.shape and (m == want).all())
            ok &= row["equal"]
        print(json.dumps(row), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
