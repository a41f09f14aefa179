"""The host's speed, read from short fixed loops around each timed call.

On a shared host the same call can take up to twice as long in one stretch
of seconds or minutes as in the next, with CPU time equal to wall time, so
the process cannot see the slowdown in its own times.  A fixed probe run
just before, during and just after a call slows down with it.  Every time
the benchmark reports is therefore the measured time scaled by the probes'
nominal time over their mean measured time, to a power fit on the tuning
host: about the time the call would take on a host where the probes take
their nominal time.  The probes do not use the library, so a change to
gridslp moves the reported times exactly as it moves the measured ones.

Three probes, because the host's phases do not slow all work alike:

* ``py`` — Python calls, attribute reads, dict lookups and small tuple
  allocations, the work of everything in gridslp but ``expand``;
* ``mem`` — copies of a buffer larger than the cache, the work of
  ``expand``'s block copies;
* ``chase`` — a Python loop that follows a random cycle through an array
  larger than the cache, so each step misses it, as a query does that
  descends a grammar or index of tens of MB.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Iterations of the Python probe (1-2 ms).
PY_PROBE_STEPS = 6000
#: Bytes copied by the memory probe, twice (about 2 ms).
MEM_PROBE_BYTES = 8 << 20
#: Entries (4 bytes each) of the chase probe's cycle, more than the cache
#: holds, and the steps it takes along the cycle (about 1.5 ms).
CHASE_ENTRIES = 1 << 22
CHASE_STEPS = 12000

#: The probes' times on the host the benchmark was tuned on (2 vCPUs of an
#: Intel Xeon, shared) in its fast phase, which reported times refer to.
NOMINAL_S = {"py": 0.0011, "mem": 0.0016, "chase": 0.0008}
#: The library's calls slow down less than the probes do: on the tuning
#: host, over 120 s of calls interleaved with probes, the time of a batch of
#: queries went as the probe's to the power 0.8, that of the index build,
#: balance and rebalance to the power 0.9-1.0.  A time is scaled by this
#: power of the probe's slowdown.
SCALE_POWER = 0.9
QUERY_SCALE_POWER = 0.8
#: While a block runs longer than this, the probe also runs every this many
#: seconds, from a timer signal, so that the scaling of a call of seconds
#: follows the host through the call and not only at its ends.
PROBE_EVERY_S = 0.25

PY = ("py",)
#: For calls that do both Python and bulk memory work (set-up, ``expand``).
BOTH = ("py", "mem")
#: For queries into structures larger than the cache.
PY_CHASE = ("py", "chase")


class _Node:
    __slots__ = ("a", "b", "w")

    def __init__(self, a: int, b: int, w: int):
        self.a, self.b, self.w = a, b, w


def _step(table: dict, node: _Node, i: int) -> int:
    return table.get(i & 255, node).w + (node.a if i & 1 else node.b)


def py_probe() -> float:
    """The Python probe, with the cyclic collector off: its allocations must
    not set off a collection of the garbage the call before it left."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {k: _Node(k, k + 1, 2 * k) for k in range(256)}
        node, acc, out = _Node(1, 2, 3), 0, []
        for i in range(PY_PROBE_STEPS):
            acc += _step(table, node, i)
            out.append((i, acc))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Watch:
    """The probes before, during and after one timed block."""

    def __init__(self, pacer: "Pacer", kinds: tuple[str, ...]):
        self.pacer, self.kinds = pacer, kinds
        self.probes: list[float] = []
        #: Seconds the probes run inside the block took.
        self.spent = 0.0
        #: Set when the block ends: what its measured times are scaled by.
        self.factor = 1.0

    def on_timer(self, signum, frame) -> None:
        start = perf_counter()
        self.probes.append(self.pacer.probe(self.kinds))
        self.spent += perf_counter() - start

    def scale(self, seconds: float) -> float:
        """A time measured across the whole block, less the probes run
        inside it, scaled."""
        return (seconds - self.spent) * self.factor


class Pacer:
    """Runs the probes and turns measured times into reported ones."""

    def __init__(self, chase: bool = False):
        """``chase``: whether the chase probe will be used; its cycle is
        made here, before the run, so that making it adds nothing to the
        run's peak memory beyond the cycle itself."""
        self.src = np.ones(MEM_PROBE_BYTES, dtype=np.uint8)
        self.dst = np.empty_like(self.src)
        self.chain = None
        if chase:
            order = np.random.default_rng(0).permutation(CHASE_ENTRIES).astype(np.int32)
            self.cycle = np.empty_like(order)
            self.cycle[order] = np.roll(order, -1)
            self.chain = memoryview(self.cycle)
        self.seen: dict[str, list[float]] = {"py": [], "mem": [], "chase": []}

    def mem_probe(self) -> float:
        start = perf_counter()
        np.copyto(self.dst, self.src)
        np.copyto(self.src, self.dst)
        return perf_counter() - start

    def chase_probe(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            i, chain = 0, self.chain
            for _ in range(CHASE_STEPS):
                i = chain[i]
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def probe(self, kinds: tuple[str, ...]) -> float:
        """The summed time of the probes ``kinds``, each recorded."""
        total = 0.0
        for kind in kinds:
            if kind == "py":
                t = py_probe()
            elif kind == "mem":
                t = self.mem_probe()
            else:
                t = self.chase_probe()
            self.seen[kind].append(t)
            total += t
        return total

    def factor(self, kinds: tuple[str, ...], probes: list[float],
               power: float = SCALE_POWER) -> float:
        """Nominal over mean measured probe time, to the power ``power``."""
        nominal = sum(NOMINAL_S[kind] for kind in kinds)
        return (nominal / statistics.fmean(probes)) ** power

    @contextmanager
    def watch(self, kinds: tuple[str, ...]):
        """Probe before the block, every PROBE_EVERY_S inside it and after
        it; yields the ``Watch``, whose ``factor`` is set at the end.
        Blocks watched must not nest: the inner one would stop the outer
        one's timer."""
        w = Watch(self, kinds)
        w.probes.append(self.probe(kinds))
        previous = signal.signal(signal.SIGALRM, w.on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield w
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        w.probes.append(self.probe(kinds))
        w.factor = self.factor(kinds, w.probes)

    def median(self, kind: str) -> float:
        seen = self.seen[kind]
        return statistics.median(seen) if seen else 0.0
