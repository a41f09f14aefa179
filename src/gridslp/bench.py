"""Timing harness for the access paths: one report over sampled positions.

The descent through the derivation (:func:`~gridslp.access.access_tslp`,
which also serves plain grammars) and the K-level index
(:func:`~gridslp.fastaccess.access_fast`) answer the same seeded positions,
and each path reports its mean and worst visit count and its time per query.
"""

from __future__ import annotations

import random
import time
from functools import partial

from .access import access_tslp
from .fastaccess import FastAccessIndex, access_fast
from .grammar import Grammar2D, ParameterError, Tslp2D


def _run_path(fn, positions) -> dict:
    t0 = time.perf_counter_ns()
    total, worst = 0, 0
    for x, y in positions:
        v = fn(x, y)[1]
        total += v
        if v > worst:
            worst = v
    dt = time.perf_counter_ns() - t0
    return {"meanVisits": total / len(positions), "maxVisits": worst,
            "nanosPerQuery": dt / len(positions)}


def bench_access(
    g: Grammar2D | Tslp2D,
    idx: FastAccessIndex,
    queries: int,
    seed: int,
) -> dict:
    """Time tslp/fast access over the same sampled positions, as the JSON
    report ``gridslp bench`` prints: ``queries``, ``seed``, ``height``,
    ``width`` and ``paths``, one dict per path (``path``, ``meanVisits``,
    ``maxVisits``, ``nanosPerQuery``).

    ``idx`` must index ``g``: its geometry table serves both paths.
    """
    if queries < 1:
        raise ParameterError(f"queries must be at least 1, got {queries}")
    geo = idx.geo
    h, w = geo.dims(g.start)
    rng = random.Random(seed)
    positions = [
        (rng.randrange(1, h + 1), rng.randrange(1, w + 1)) for _ in range(queries)
    ]
    paths = [
        {"path": name, **_run_path(fn, positions)}
        for name, fn in (
            ("tslp", partial(access_tslp, g, geo=geo)),
            ("fast", partial(access_fast, idx)),
        )
    ]
    return {"queries": queries, "seed": seed, "height": h, "width": w,
            "paths": paths}
