"""Host-speed calibration: a fixed kernel timed between operations.

The shared host the benchmark was tuned on runs every operation up to 2.5
times slower for periods lasting from seconds to many minutes, longer than
a run.  Process CPU time moves with wall time there, so the only way to
see the host's speed is to time a fixed piece of work beside the program.
The kernel is plain Python over the benchmark's own data, never the
engine's code: it builds a down-adjacency from the bounded-by pairs of a
40 x 40-face grid, keyed by frozen dataclasses as the engine's elements
are, and sorts the names in a few closures.  Such dict-, set- and
object-heavy work slows down with the host by about as much as the
engine's operations do, which a tight arithmetic loop does not.

Time metrics are scaled by ``NOMINAL_MS / median kernel time`` over the
stretch of the run they were measured in: they read as milliseconds on a
host where the kernel takes ``NOMINAL_MS``.  The
garbage collector is off while the kernel runs, so the size of the
engine's heap does not change the kernel's time.
"""
from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass

import corpus

NOMINAL_MS = 10.0
EVERY_S = 0.2  # time the kernel between operations once this long has passed


@dataclass(frozen=True, order=True)
class _Key:
    id: str
    lod: int = 0


class Calibration:
    def __init__(self):
        grid = corpus.grid(40, random.Random(0))
        self.pairs = [(_Key(*a), _Key(*b)) for a, b in grid.pairs]
        self.starts = sorted({a for a, _ in self.pairs})[::700]
        self.times = []
        self.last = float("-inf")

    def _kernel(self) -> int:
        down = {}
        for a, b in self.pairs:
            down.setdefault(a, set()).add(b)
        total = 0
        for start in self.starts:
            seen, stack = {start}, [start]
            while stack:
                for k in down.get(stack.pop(), ()):
                    if k not in seen:
                        seen.add(k)
                        stack.append(k)
            total += len(sorted(str(k) for k in seen))
        return total

    def tick(self, force: bool = False) -> None:
        """Time the kernel if ``EVERY_S`` has passed since it last ran, or ``force``."""
        if not force and time.perf_counter() - self.last < EVERY_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._kernel()
        self.times.append((time.perf_counter() - t0) * 1e3)
        if enabled:
            gc.enable()
        self.last = time.perf_counter()

    def scale(self, since: int = 0) -> float:
        """Factor from wall time to time on the nominal host, from the kernel
        times since the ``since``-th."""
        return NOMINAL_MS / statistics.median(self.times[since:])
