"""One workload run: set-up, timed pipeline rounds, query batches, checks.

Load is a closed loop from one thread: every library call is issued only
after the previous one returned, as a library caller would.  A run repeats
rounds of the pipeline (see ``pipeline_round``) until its time is up.
Every time is scaled to the host's nominal speed (``pace``) and reported as
the median of its samples over the run, or for queries as percentiles over
the positions queried (``percentiles``).
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from gridslp import (
    access_fast,
    access_plain,
    access_tslp,
    balance_1d,
    balance_to_tslp,
    build_fast,
    cli,
    compute_geometry,
    emit_grammar,
    expand,
    linearize_rows,
    parse_grammar,
    rebalance_plain_2d,
    validate,
)

import inputs
from pace import BOTH, PY, PY_CHASE, QUERY_SCALE_POWER, Pacer

EPSILON = 3.0
#: Distinct query batches of a run, drawn from the seed and cycled through,
#: so each is queried several times over the run.
QUERY_BATCHES = 16
#: Query batches of each light step of a round (about a fifth of a run's time).
STEP_BATCHES = 10
#: Each call of a round is repeated until this long has passed since it
#: began (light calls, heavy calls), so that the cheap ones get several
#: samples a round: on the quadtree, expand (30 ms) read from 21 to 38 ms
#: within one run.  A traced run makes each call once, so its work is fixed.
REPEAT_S = {"light": 0.1, "heavy": 0.4}
CLI_SPLIT_REPS = 3
#: Cells compared at a time when checking an expansion against the oracle,
#: so the check adds little to the process's peak RSS.
CHECK_CELLS = 1 << 20

PATHS = ("plain", "tslp", "fast")

#: name -> (input kind, window queries, probes that scale query times).
#: The spiral's grammars and index (under 2k symbols, 51k cells) stay in
#: the cache, so a query slows with the host like the py probe.  The
#: quadtree's (9k-14k symbols, 300k cells) do not: a query's time there
#: follows the chase probe as much as the py one (on the tuning host, over
#: 150 s of batches interleaved with probes, the spread of single batches'
#: access_plain p50 fell from 0.12 scaled by py alone to 0.06 by both).
WORKLOADS = {
    "spiral-random": ("spiral", False, PY),
    "spiral-window": ("spiral", True, PY),
    "quadtree-build": ("quadtree", False, PY_CHASE),
}


def percentiles(batches: dict[int, list[np.ndarray]]) -> tuple[float, float]:
    """p50 and p99 over the query positions of a path's latencies.

    ``batches`` maps each batch of positions to the per-call latencies of
    every time it was queried.  A position's latency is its median over
    those repetitions, so a call that a burst of host noise hit does not
    reach the tail.  The first repetition warms the caches and is left out
    when there are others: it reads 5-10% slower than the rest."""
    if not batches:
        return 0.0, 0.0
    per_position = [np.median(np.stack(reps[1:] or reps), axis=0)
                    for reps in batches.values()]
    p50, p99 = np.percentile(np.concatenate(per_position), [50, 99])
    return float(p50), float(p99)


def fresh_heap() -> None:
    """Collect, then freeze what survives, before a timed call.

    The collector then works only on what the call itself allocates, as in
    a fresh process, instead of on the structures this run keeps; without
    this, whether a call pays for a full collection of those structures
    depends on how close the collector's counters happen to be to their
    thresholds, which moved single timings by up to 2x.
    """
    gc.collect()
    gc.freeze()


def same_grammar(a, b) -> bool:
    return a.start == b.start and a.rules == b.rules


def same_cells(m: np.ndarray, want: np.ndarray) -> bool:
    """Whether a '<U1' expansion holds the codes ``want``, compared in chunks."""
    if m.shape != want.shape:
        return False
    a, b = m.reshape(-1), want.reshape(-1)
    return all(np.array_equal(inputs.char_codes(a[i:i + CHECK_CELLS]), b[i:i + CHECK_CELLS])
               for i in range(0, a.size, CHECK_CELLS))


def expands_to(g, want: np.ndarray) -> bool:
    """Whether ``g`` expands to the codes ``want``, checked in a forked child.

    ``expand`` keeps every small block of a grammar, which for the
    rebalanced spiral takes over 200 MB, far more than any call the run
    times; in a child that memory does not count in this process's
    ``ru_maxrss`` (``peak_rss_mb``).  ``run.py`` keeps the process to a
    single thread (no BLAS workers), so the fork copies no lock that
    another thread holds.
    """
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = same_cells(expand(g), want)
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status) == 0


class Stats:
    """The samples and counts of one measured stretch of a run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        # Per path and batch, the scaled per-call latencies (ns) of each repetition.
        self.latencies = {p: {} for p in PATHS}
        self.visits = {p: Counter() for p in PATHS}
        self.busy_ns = {p: 0.0 for p in PATHS}
        self.query_failed = {p: 0 for p in PATHS}

    def sample(self, metric: str, seconds: float) -> None:
        self.samples.setdefault(metric, []).append(seconds)

    def median(self, metric: str) -> float:
        values = self.samples.get(metric)
        return statistics.median(values) if values else 0.0


class WorkloadRun:
    def __init__(self, name: str, seed: int, seconds: int, tracer, workdir: Path):
        self.kind, self.window, self.query_probes = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.pacer = Pacer(chase="chase" in self.query_probes)
        self.repeat_s = REPEAT_S
        self.input_path = workdir / "input.slp"
        self.balanced_path = workdir / "balanced.tslp"
        self.cli_out = workdir / "cli.out"
        self.stats = Stats()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.batches = 0
        self.cold_rng = np.random.default_rng([seed, 3])
        # Products of the first round: queries and later rounds check against them.
        self.balanced = self.balance_stats = self.index = self.rebalanced = None
        self.rebalance_stats = None
        self.matrix_cells = 0
        self.functions = None
        self.trace_overhead = None
        self.fastaccess_bytes = None

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def attempt(self, what: str, fn):
        """Run one checked operation; an exception counts as a failure."""
        try:
            return fn()
        except Exception as e:  # a failing call is counted, not fatal to the run
            self.attempted += 1
            self.fail(f"{what}: {e!r}")
            return None

    def timed(self, kinds: tuple[str, ...], name: str, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), seconds)``, the seconds scaled to the
        host's nominal speed by the probes ``kinds`` around the call."""
        with self.pacer.watch(kinds) as w:
            result, secs = self.tracer.timed(name, fn, *args, **kwargs)
        return result, w.scale(secs)

    def call(self, fn) -> None:
        """One timed pipeline call on a fresh heap."""
        fresh_heap()
        self.attempt(fn.__name__, fn)

    @contextmanager
    def measuring(self, stats: Stats):
        """Send the samples and counts taken inside to ``stats``."""
        kept, self.stats = self.stats, stats
        try:
            yield stats
        finally:
            self.stats = kept

    # -- set-up ------------------------------------------------------------

    def prepare(self) -> bool:
        """Generate the input, write its file and build the oracle."""
        timed = self.tracer.timed
        with self.pacer.watch(BOTH) as w:
            start = perf_counter()
            if self.kind == "spiral":
                g, gen_s = timed("gadgets.build_spiral", inputs.spiral_grammar)
            else:
                m, mat_s = timed("bench.quadtree_matrix", inputs.quadtree_matrix, self.seed)
                g, gram_s = timed("bench.quadtree_grammar", inputs.quadtree_grammar, m)
                gen_s = mat_s + gram_s
            text, emit_s = timed("textio.emit_grammar", emit_grammar, g)
            timed("bench.write_input", self.input_path.write_text, text, encoding="utf-8")
            if self.kind == "spiral":
                oracle, _ = timed("bench.oracle", inputs.spiral_oracle, g)
            else:
                oracle, _ = timed("bench.oracle", inputs.quadtree_oracle, m)
            setup_s = perf_counter() - start
        self.stats.sample("setup_s", w.scale(setup_s))
        self.stats.sample("setup.input_gen_s", w.factor * gen_s)
        self.stats.sample("textio.emit_s", w.factor * emit_s)
        self.grammar, self.text, self.oracle = g, text, oracle
        return True

    def setup(self) -> None:
        fresh_heap()
        with self.tracer.scope("setup"):
            self.prepare()
        self.check(validate(self.grammar).ok, "generated grammar validates")
        self.geo = compute_geometry(self.grammar)
        self.check(self.geo.dims(self.grammar.start) == self.oracle.shape,
                   "grammar and oracle dimensions agree")

    # -- pipeline ----------------------------------------------------------

    def load(self):
        timed = self.tracer.timed
        with self.pacer.watch(PY) as w, self.tracer.scope("load"):
            text, read_s = timed("bench.read_input", self.input_path.read_text,
                                 encoding="utf-8")
            g, parse_s = timed("textio.parse_grammar", parse_grammar, text)
            report, validate_s = timed("grammar.validate", validate, g)
            geo, geo_s = timed("geometry.compute_geometry", compute_geometry, g)
        self.stats.sample("load_s", w.scale(read_s + parse_s + validate_s + geo_s))
        self.stats.sample("textio.parse_s", w.factor * parse_s)
        self.stats.sample("grammar.validate_s", w.factor * validate_s)
        self.stats.sample("geometry.compute_s", w.factor * geo_s)
        self.check(report.ok and same_grammar(g, self.grammar), "load round-trips the input")
        return g

    def balance(self):
        (t, stats), secs = self.timed(
            PY, "balance.balance_to_tslp", balance_to_tslp, self.grammar, self.geo)
        self.stats.sample("balance_s", secs)
        if self.balanced is None:
            self.check(expands_to(t, self.oracle), "balanced grammar matches the input")
            self.balanced, self.balance_stats = t, stats
            text, _ = self.tracer.timed("textio.emit_grammar", emit_grammar, t)
            self.balanced_path.write_text(text, encoding="utf-8")
        else:
            self.check(same_grammar(t, self.balanced) or expands_to(t, self.oracle),
                       "balanced grammar matches the input")
        return t

    def build_index(self):
        idx, secs = self.timed(PY, "fastaccess.build_fast", build_fast,
                               self.balanced, EPSILON)
        self.stats.sample("index_build_s", secs)
        if self.index is None:
            self.index = idx
        self.check(idx.total_cells == self.index.total_cells, "index size is stable")
        return idx

    def expand_input(self):
        m, secs = self.timed(BOTH, "matrix.expand", expand, self.grammar, geo=self.geo)
        self.stats.sample("expand_s", secs)
        self.matrix_cells = m.size
        self.check(same_cells(m, self.oracle), "expansion matches")
        return True

    def rebalance(self):
        (rb, stats), secs = self.timed(
            PY, "transforms.rebalance_plain_2d", rebalance_plain_2d, self.grammar, self.geo)
        self.stats.sample("rebalance_s", secs)
        if self.rebalanced is None:
            self.check(expands_to(rb, self.oracle), "rebalanced grammar matches the input")
            self.rebalanced, self.rebalance_stats = rb, stats
        else:
            self.check(same_grammar(rb, self.rebalanced) or expands_to(rb, self.oracle),
                       "rebalanced grammar matches the input")
        return rb

    def cold_access(self):
        """The one-shot CLI user: parse, validate, index and query one cell."""
        h, w = self.oracle.shape
        x, y = (int(v) for v in self.cold_rng.integers(1, (h + 1, w + 1)))
        argv = ["access", str(self.balanced_path), str(x), str(y), "--fast",
                "-o", str(self.cli_out)]
        self.cli_out.unlink(missing_ok=True)
        code, secs = self.timed(PY, "cli.main", cli.main, argv)
        self.stats.sample("cold_access_s", secs)
        out = self.cli_out.read_text(encoding="utf-8").split() if code == 0 else []
        self.check(out[:1] == [chr(self.oracle[x - 1, y - 1])],
                   f"cli access ({x},{y}) exited {code}, answered {out}")
        return x, y, secs

    def pipeline_round(self) -> None:
        """A light step before each heavy call.

        The light step is set-up, load, balance and expand, then
        STEP_BATCHES query batches (once the index exists); the heavy calls
        are the index build, rebalance and the CLI access.  Each call is
        repeated as ``repeat_s`` says.  The host's speed
        changes every few seconds, so spreading the cheap calls and the
        queries between the heavy ones gives them samples at many moments of
        the run, not at one per round.  Set-up is repeated for the same
        reason; it makes the same input, file and oracle every time.
        """
        with self.tracer.scope("round"):
            for heavy in (self.build_index, self.rebalance, self.cold_access):
                if not self.light_step():
                    return
                self.repeat(heavy, self.repeat_s["heavy"])
        self.rounds += 1

    def light_step(self) -> bool:
        """The light step; False if there is no balanced grammar to go on with."""
        for light in (self.prepare, self.load, self.balance, self.expand_input):
            self.repeat(light, self.repeat_s["light"])
        if self.balanced is None:
            return False
        if self.index is not None:
            self.functions = self.functions or self.query_functions()
            for _ in range(STEP_BATCHES):
                self.query_batch(self.functions)
        return True

    def repeat(self, fn, seconds: float) -> None:
        """``call(fn)``, again until ``seconds`` have passed since the first."""
        start = perf_counter()
        self.call(fn)
        while perf_counter() - start < seconds:
            self.call(fn)

    # -- queries -----------------------------------------------------------

    def query_functions(self) -> dict:
        return {
            "plain": ("access.access_plain",
                      partial(access_plain, self.grammar, geo=self.geo)),
            "tslp": ("access.access_tslp",
                     partial(access_tslp, self.balanced, geo=compute_geometry(self.balanced))),
            "fast": ("fastaccess.access_fast", partial(access_fast, self.index)),
        }

    def run_path(self, path: str, name: str, fn, batch: int, xs, ys) -> None:
        """Query every (x, y) in order, then check and count the answers.

        The probes go only before and after the batch (no timer), so none
        lands inside a query's time."""
        ns = perf_counter_ns
        starts, ends, chars, visits = array("q"), array("q"), [], array("q")
        probes = [self.pacer.probe(self.query_probes)]
        for x, y in zip(xs, ys):
            t0 = ns()
            try:
                c, v = fn(x, y)
            except Exception:  # counted below as a wrong answer
                c, v = "", 0
            t1 = ns()
            starts.append(t0)
            ends.append(t1)
            chars.append(c)
            visits.append(v)
        probes.append(self.pacer.probe(self.query_probes))
        k = self.pacer.factor(self.query_probes, probes, QUERY_SCALE_POWER)
        self.tracer.add_calls(name, starts, ends)
        lat = k * (np.frombuffer(ends, dtype=np.int64) - np.frombuffer(starts, dtype=np.int64))
        st = self.stats
        st.latencies[path].setdefault(batch, []).append(lat)
        st.busy_ns[path] += float(lat.sum())
        st.visits[path].update(visits)
        got = np.array([ord(c) if len(c) == 1 else -1 for c in chars])
        want = self.oracle[np.asarray(xs) - 1, np.asarray(ys) - 1]
        wrong = int(np.count_nonzero(got != want))
        self.attempted += len(xs)
        st.query_failed[path] += wrong
        if wrong:
            self.fail(f"{path}: {wrong} of {len(xs)} answers wrong")

    def query_batch(self, functions: dict) -> None:
        """The next batch of the cycle through all three paths, in an order
        that rotates from batch to batch."""
        batch = self.batches % QUERY_BATCHES
        xs, ys = self.query_set[batch]
        fresh_heap()
        with self.tracer.scope("queries"):
            for i in range(len(PATHS)):
                path = PATHS[(self.batches + i) % len(PATHS)]
                self.run_path(path, *functions[path], batch, xs, ys)
        self.batches += 1

    # -- traced-only measurements -------------------------------------------

    def traced_extras(self) -> None:
        timed = partial(self.timed, PY)
        flat = self.oracle.reshape(1, -1)

        def rebalance_parts():
            with self.tracer.scope("rebalance_parts"):
                lin, lin_s = timed("transforms.linearize_rows", linearize_rows,
                                   self.grammar, self.geo)
                b1, b1_s = timed("balance.balance_1d", balance_1d, lin)
            self.stats.sample("transforms.linearize_s", lin_s)
            self.stats.sample("balance.balance_1d_s", b1_s)
            for what, g in (("linearized", lin), ("1d-balanced", b1)):
                self.check(expands_to(g, flat),
                           f"{what} grammar matches the row-major input")
            return True

        def index_bytes():
            tracemalloc.start()
            try:
                idx = build_fast(self.balanced, EPSILON)
                self.fastaccess_bytes = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            self.check(idx.total_cells == self.index.total_cells, "index size is stable")
            return True

        fresh_heap()
        self.attempt("rebalance parts", rebalance_parts)
        fresh_heap()
        self.attempt("index bytes", index_bytes)
        for _ in range(CLI_SPLIT_REPS):
            self.cli_split()

    def cli_split(self) -> None:
        """One CLI call, then the calls it makes, each timed on its own."""
        timed = self.tracer.timed

        def parts():
            with self.pacer.watch(PY) as w, self.tracer.scope("cli_parts"):
                text, read_s = timed("bench.read_balanced", self.balanced_path.read_text,
                                     encoding="utf-8")
                t, parse_s = timed("textio.parse_grammar", parse_grammar, text)
                report, validate_s = timed("grammar.validate", validate, t)
                geo, geo_s = timed("geometry.compute_geometry", compute_geometry, t)
                idx, build_s = timed("fastaccess.build_fast", build_fast, t, EPSILON, geo)
                (c, _), query_s = timed("fastaccess.access_fast", access_fast, idx, x, y)
            self.check(report.ok and c == chr(self.oracle[x - 1, y - 1]), "cli parts agree")
            return w.scale(read_s + parse_s + validate_s + geo_s + build_s + query_s)

        fresh_heap()
        cold = self.attempt("cli.main", self.cold_access)
        if cold is None:
            return
        x, y, cold_s = cold
        fresh_heap()
        parts_s = self.attempt("cli parts", parts)
        if parts_s is not None:
            self.stats.sample("cli.access_self_s", cold_s - parts_s)

    # -- whole run ---------------------------------------------------------

    def run(self) -> None:
        self.setup()
        h, w = self.oracle.shape
        positions = inputs.Positions(self.seed, h, w, self.window)
        self.query_set = [positions.next() for _ in range(QUERY_BATCHES)]
        if self.tracer.enabled:
            self.run_traced()
        else:
            self.run_timed()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def run_timed(self) -> None:
        """Rounds while another fits, then light steps until the time is up.

        A round takes 8-14 s, so without the light steps at the end a run
        would leave up to a third of its time unused, and a run that fit one
        round fewer would give each query batch 2 repetitions instead of 4:
        too few for the per-position medians of ``percentiles``, whose p99
        then read up to 1.5x higher.
        """
        deadline = perf_counter() + self.seconds
        while True:
            start = perf_counter()
            self.pipeline_round()
            if self.index is None:
                return
            if perf_counter() + (perf_counter() - start) > deadline:
                break
        step = 0.0
        while perf_counter() + step < deadline:
            start = perf_counter()
            self.light_step()
            step = perf_counter() - start

    def run_traced(self) -> None:
        """A priming round, then one round untraced and one traced.

        The priming round makes the reference products (and pays for their
        checks), so the two passes do the same work; which pass goes first
        alternates with the seed.  The per-layer numbers are the traced
        pass's, so its counts repeat exactly for a seed; the overhead is its
        wall time over the untraced pass's, each scaled by the mean of the
        py probes taken during it.
        """
        self.tracer.enabled = False
        self.repeat_s = {"light": 0.0, "heavy": 0.0}
        with self.measuring(Stats()):
            self.pipeline_round()
        if self.index is None:
            return
        wall = {}
        for traced in (False, True) if self.seed % 2 == 0 else (True, False):
            self.tracer.enabled = traced
            self.batches = 0
            with self.measuring(self.stats if traced else Stats()):
                first = len(self.pacer.seen["py"])
                start = perf_counter()
                with self.tracer.scope("pass"):
                    self.pipeline_round()
                wall[traced] = perf_counter() - start
                # Every py probe of the pass, spread through it by its calls.
                wall[traced] *= self.pacer.factor(PY, self.pacer.seen["py"][first:])
        self.trace_overhead = wall[True] / wall[False] - 1
        self.traced_extras()
        for path in PATHS:
            self.tracer.note("visits_histogram", path=path,
                             counts=dict(sorted(self.stats.visits[path].items())))
