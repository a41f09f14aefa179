#!/usr/bin/env python3
"""gridslp benchmark: one workload per run, end-to-end or traced per-layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload spiral-random --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

The library is imported from ``src/`` next to this directory.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  A traced run also writes its spans as JSON lines under
``.bench_out/``.  ``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("spiral-random", "spiral-window", "quadtree-build")

# glibc mallopt parameters.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def steady_malloc() -> None:
    """Set glibc malloc's mmap and trim thresholds where it leaves them in a
    long-running process (32 MB, and twice that).

    glibc starts them at 128 KiB and raises them each time the process frees
    a large mapped block, so whether a block of a few MB is mapped afresh
    (and page-faulted) or reused from the heap depends on what the process
    did before: the quadtree's expand (a 4 MB result) read 29 or 38 ms by
    that alone, run by run.  Not glibc: the allocator is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def end_to_end(run) -> dict:
    from workload import PATHS, percentiles

    st = run.stats
    metrics = {}
    for name in ("setup_s", "load_s", "balance_s", "index_build_s", "expand_s",
                 "rebalance_s", "cold_access_s"):
        metrics[name] = (st.median(name), "s")
    for path in PATHS:
        p50, p99 = percentiles(st.latencies[path])
        metrics[f"{path}_query_us_p50"] = (p50 / 1e3, "us")
        metrics[f"{path}_query_us_p99"] = (p99 / 1e3, "us")
    metrics["index_cells"] = (run.index.total_cells if run.index else 0, "count")
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    metrics["success_rate"] = (1 - run.failed / max(1, run.attempted), "ratio")
    return metrics


def per_layer(run) -> dict:
    st, bal, reb, idx = run.stats, run.balance_stats, run.rebalance_stats, run.index
    metrics = {
        "host.ref_loop_s": (run.pacer.median("py"), "s"),
        "bench.trace_overhead_frac": (run.trace_overhead or 0.0, "ratio"),
        "setup.input_gen_s": (st.median("setup.input_gen_s"), "s"),
        "textio.parse_s": (st.median("textio.parse_s"), "s"),
        "textio.emit_s": (st.median("textio.emit_s"), "s"),
        "textio.bytes": (len(run.text.encode()), "B"),
        "grammar.validate_s": (st.median("grammar.validate_s"), "s"),
        "grammar.symbols": (run.grammar.symbols, "count"),
        "geometry.compute_s": (st.median("geometry.compute_s"), "s"),
        "geometry.depth": (run.geo.depths[run.grammar.start], "count"),
        "balance.balance_s": (st.median("balance_s"), "s"),
        "balance.output_size": (bal.output_size if bal else 0, "count"),
        "balance.output_depth": (bal.output_depth if bal else 0, "count"),
        "fastaccess.build_s": (st.median("index_build_s"), "s"),
        "fastaccess.levels": (idx.params.levels if idx else 0, "count"),
        "fastaccess.cells": (idx.total_cells if idx else 0, "count"),
        "fastaccess.bytes": (run.fastaccess_bytes or 0, "B"),
    }
    for path, prefix in (("plain", "access.plain"), ("tslp", "access.tslp"),
                         ("fast", "fastaccess.query")):
        visits = st.visits[path]
        queries = sum(visits.values())
        total = sum(v * n for v, n in visits.items())
        busy = st.busy_ns[path]
        metrics[f"{prefix}_busy_s"] = (busy / 1e9, "s")
        metrics[f"{prefix}_visits_mean"] = (total / queries if queries else 0.0, "count")
        metrics[f"{prefix}_visits_max"] = (max(visits, default=0), "count")
        metrics[f"{prefix}_ns_per_visit"] = (busy / total if total else 0.0, "ns")
        metrics[f"{prefix}_queries"] = (queries, "count")
        metrics[f"{prefix}_failed"] = (st.query_failed[path], "count")
    metrics.update({
        "matrix.expand_s": (st.median("expand_s"), "s"),
        "matrix.cells": (run.matrix_cells, "count"),
        "transforms.linearize_s": (st.median("transforms.linearize_s"), "s"),
        "balance.balance_1d_s": (st.median("balance.balance_1d_s"), "s"),
        "transforms.rebalance_output_size": (reb.output_size if reb else 0, "count"),
        "transforms.rebalance_output_depth": (reb.output_depth if reb else 0, "count"),
        "cli.access_self_s": (st.median("cli.access_self_s"), "s"),
        "error_rate": (run.failed / max(1, run.attempted), "ratio"),
    })
    return metrics


def run_one(args) -> int:
    if not (ROOT / "src" / "gridslp").is_dir():
        print(f"error: no gridslp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # No BLAS worker threads: nothing here uses BLAS, and the run's process
    # must have a single thread for the forked checks in workload.py.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    steady_malloc()
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer
    from workload import WorkloadRun

    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(run_id=tag, enabled=bool(args.trace))
    run = WorkloadRun(args.workload, args.seed, args.seconds, tracer, workdir)
    try:
        run.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    if args.trace:
        trace_path = OUT / f"trace-{tag}.jsonl"
        tracer.write(trace_path)
        print(f"# spans: {tracer.span_count()} written to {trace_path}")
    print(f"# {args.workload} seed={args.seed} rounds={run.rounds} "
          f"query batches={run.batches} ({len(run.query_set)} distinct) "
          f"x {len(run.query_set[0][0])} cells "
          f"host.ref_loop_s={run.pacer.median('py'):.5f} closed loop, 1 thread")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for what in run.failures:
        print(f"# FAILED: {what}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a child process, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
