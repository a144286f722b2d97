"""Host-speed calibration for the timed loops.

The shared host this benchmark was tuned on changes speed by up to 50%
over seconds to minutes with nothing else running in the container,
and a 30 s window does not average that away.  So each timed loop also
times two fixed pure-Python kernels, about once a second between its
measured runs, and reports every gated host time scaled by
``REFERENCE_S / kernel time``: in seconds of a host on which the
kernels take ``REFERENCE_S``.  perfbench/README.md gives the measured
effect.

The kernels share no code with the simulator, so a change to the
simulator cannot move them.  One is call-heavy (an event loop driving
a small cache model through methods), one memory-bound (dependent
probes into a table larger than the L2 cache); the host slows the two
differently, and the simulator's run time follows the geometric mean
of the two more closely than either alone.  Both run with the garbage
collector off, and the table holds no object the collector tracks, so
neither ever scans or is scanned with the simulator's heap.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from array import array
from typing import List

# Near the geometric mean of the two kernel times on the host the
# benchmark was tuned on (2-vCPU Intel Xeon VM, 2.0 GHz nominal, CPython
# 3.11), whose 30 s window means ranged 0.021-0.042 s over 80 runs.  The
# constant only fixes the unit of the scaled times.
REFERENCE_S = 0.030
INTERVAL_S = 1.0
EVENT_STEPS = 8000
PROBE_STEPS = 40000
TABLE_BITS = 15


class _Line:
    __slots__ = ("stamp", "dirty")

    def __init__(self, stamp: int) -> None:
        self.stamp = stamp
        self.dirty = False


class _Cache:
    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [{} for _ in range(sets)]
        self.ways = ways
        self.mask = sets - 1

    def access(self, addr: int, now: int, write: bool) -> _Line:
        lines = self.sets[addr & self.mask]
        line = lines.get(addr >> 6)
        if line is None:
            if len(lines) >= self.ways:
                del lines[min(lines, key=lambda tag: lines[tag].stamp)]
            line = lines[addr >> 6] = _Line(now)
        line.stamp = now
        if write:
            line.dirty = True
        return line


class _Engine:
    def __init__(self) -> None:
        self.queue: list = []
        self.seq = 0
        self.now = 0

    def schedule(self, delay: int, fn) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, self.seq, fn))

    def run(self, steps: int) -> int:
        for _ in range(steps):
            self.now, _, fn = heapq.heappop(self.queue)
            fn()
        return self.seq


class _Core:
    def __init__(self, engine: _Engine, cache: _Cache, cid: int) -> None:
        self.engine = engine
        self.cache = cache
        self.x = cid * 7919 + 1

    def step(self) -> None:
        self.x = x = (self.x * 1103515245 + 12345) & 0x7FFFFFFF
        line = self.cache.access((x >> 3) & 0x3FFFF, self.engine.now,
                                 x & 3 == 0)
        self.engine.schedule(1 + (x & 15) + (0 if line.dirty else 2),
                             self.step)


def event_kernel(steps: int = EVENT_STEPS) -> int:
    """Four cores stepping through a shared set-associative cache."""
    engine = _Engine()
    cache = _Cache(256, 8)
    for cid in range(4):
        engine.schedule(cid, _Core(engine, cache, cid).step)
    return engine.run(steps)


class HostClock:
    """Kernel timings taken through one timed loop."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = float("-inf")
        size = 1 << TABLE_BITS
        # int -> int: a dict the garbage collector does not track.
        self._table = {(i * 2654435761) & 0xFFFFFFF: i for i in range(size)}
        self._keys = array("q", self._table)
        self._values = array("q", range(size))
        self._kernels()  # warm the interpreter's caches

    def probe_kernel(self, steps: int = PROBE_STEPS) -> int:
        """Dependent random reads through the table."""
        table, keys, values = self._table, self._keys, self._values
        n = len(keys)
        x = 7
        total = 0
        for _ in range(steps):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += values[table[keys[x % n]]]
        return total

    def _kernels(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            event_kernel()
            t1 = time.perf_counter()
            self.probe_kernel()
            t2 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        return ((t1 - t0) * (t2 - t1)) ** 0.5

    def sample(self) -> None:
        self.samples.append(self._kernels())
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample if a second has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def scale(self) -> float:
        """Host seconds x scale = seconds on the reference host."""
        return REFERENCE_S / statistics.fmean(self.samples)
