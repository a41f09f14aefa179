"""Timing harness for the access paths: one report over sampled positions.

The descent through the derivation (:func:`~gridslp.access.access_tslp`,
which also serves plain grammars) and the K-level index
(:func:`~gridslp.fastaccess.access_fast`) answer the same seeded positions,
and each path reports its mean and worst visit count and its time per query.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import partial

from .access import access_tslp
from .fastaccess import FastAccessIndex, access_fast
from .grammar import Grammar2D, Tslp2D


@dataclass(frozen=True)
class PathStats:
    """Visit counts and timing for one access path."""

    path: str
    mean_visits: float
    max_visits: int
    nanos_per_query: float

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "meanVisits": self.mean_visits,
            "maxVisits": self.max_visits,
            "nanosPerQuery": self.nanos_per_query,
        }


@dataclass(frozen=True)
class BenchReport:
    """Per-path aggregates over one batch of sampled positions."""

    queries: int
    seed: int
    height: int
    width: int
    paths: tuple[PathStats, ...]

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "seed": self.seed,
            "height": self.height,
            "width": self.width,
            "paths": [p.to_dict() for p in self.paths],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _run_path(fn, positions) -> tuple[float, int, float]:
    if not positions:
        return 0.0, 0, 0.0
    t0 = time.perf_counter_ns()
    total, worst = 0, 0
    for x, y in positions:
        v = fn(x, y)[1]
        total += v
        if v > worst:
            worst = v
    dt = time.perf_counter_ns() - t0
    return total / len(positions), worst, dt / len(positions)


def bench_access(
    g: Grammar2D | Tslp2D,
    idx: FastAccessIndex,
    queries: int,
    seed: int,
) -> BenchReport:
    """Time tslp/fast access over the same sampled positions.

    ``idx`` must index ``g``: its geometry table serves both paths.
    """
    geo = idx.geo
    h, w = geo.dims(g.start)
    rng = random.Random(seed)
    positions = [
        (rng.randrange(1, h + 1), rng.randrange(1, w + 1)) for _ in range(queries)
    ]
    paths = []
    for name, fn in (
        ("tslp", partial(access_tslp, g, geo=geo)),
        ("fast", partial(access_fast, idx)),
    ):
        mean, worst, nanos = _run_path(fn, positions)
        paths.append(PathStats(name, mean, worst, nanos))
    return BenchReport(
        queries=queries, seed=seed, height=h, width=w, paths=tuple(paths)
    )
