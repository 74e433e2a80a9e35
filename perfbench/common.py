"""Helpers shared by the workloads: statistics, memory, and the result
record every workload returns."""

from __future__ import annotations

import heapq
import math
import random
import resource
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def rescale(values: List[float], start: int, scale: float) -> None:
    """Multiply ``values[start:]`` by ``scale`` in place."""
    for index in range(start, len(values)):
        values[index] *= scale


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or of its largest waited-for
    child), in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload invocation measured and checked.

    ``metrics`` holds every metric the workload computed, by name, in
    the units ``BENCHMARK.json`` declares.  ``problems`` lists every
    failed output check; an empty list means the outputs are correct.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Human-readable lines printed above the result.
    notes: List[str] = field(default_factory=list)


def guard_identical(name: str, counts: Sequence[Dict[str, object]]) -> List[str]:
    """The determinism guard: every repeat of one seed must reproduce the
    exact counts of the first, or the run fails."""
    problems = []
    first = counts[0]
    for index, other in enumerate(counts[1:], start=1):
        for key in sorted(set(first) | set(other)):
            if first.get(key) != other.get(key):
                problems.append(
                    f"{name}: exact count {key} differs between repeat 0 "
                    f"({first.get(key)!r}) and repeat {index} ({other.get(key)!r})"
                )
    return problems


# ----------------------------------------------------------------------
# Reference seconds
# ----------------------------------------------------------------------

#: Seconds the reference loop takes at the reference speed.
REFERENCE_S = 0.020
_REFERENCE_EVENTS = 25000


class _Node:
    __slots__ = ("recent", "count", "peer")

    def __init__(self) -> None:
        self.recent: deque = deque()
        self.count = 0
        self.peer = None

    def on_event(self, loop: "_Loop", now: float, value: int) -> None:
        self.count += 1
        self.recent.append(value)
        if len(self.recent) > 8:
            self.recent.popleft()
        loop.post(now + 1e-6 * ((value * 7919) % 13 + 1), self.peer.on_event, value + 1)


class _Loop:
    def __init__(self) -> None:
        self.heap: List[tuple] = []
        self.seq = 0

    def post(self, at: float, fn, *args) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (at, self.seq, fn, args))

    def run(self, events: int) -> None:
        heap, pop = self.heap, heapq.heappop
        for _ in range(events):
            at, _seq, fn, args = pop(heap)
            fn(self, at, *args)


def reference_loop_s() -> float:
    """Wall seconds of one run of a fixed reference loop.

    The loop is a small event loop of the same kind as the simulator
    (heap, method calls, slotted objects, deques) and is part of this
    benchmark, so no change to the repository alters it.  Only the
    machine's speed at that moment does.
    """
    loop = _Loop()
    nodes = [_Node() for _ in range(8)]
    for index, node in enumerate(nodes):
        node.peer = nodes[(index + 1) % len(nodes)]
        loop.post(index * 1e-7, node.on_event, index)
    start = time.perf_counter()
    loop.run(_REFERENCE_EVENTS)
    return time.perf_counter() - start


#: Seconds the table loop takes at the reference speed.
TABLE_REFERENCE_S = 0.015
_TABLE_SIZE = 50000
_TABLE_UPDATES = 60000
_table: Optional[Tuple[Dict[int, int], List[int]]] = None


def table_loop_s() -> float:
    """CPU seconds of this process for one run of a fixed table loop:
    updates at seeded random keys of a 50,000-entry dict (a few MiB,
    built once per process).

    The fleet's reference.  The heap loop of :func:`reference_loop_s`
    touches a few cache lines; when the machine slowed, it slowed 2.1x
    where the fleet's daemons slowed 1.5x, so fleet rounds scaled by it
    disagreed in throughput about as much as unscaled ones (coefficient
    of variation 0.15 against 0.14 and 0.17 in two sets of rounds).
    This loop, like the daemons, works across megabytes of Python
    objects, and tracked them best of the loops tried (0.05 over 16
    rounds, where a loopback-UDP send/receive loop gave 0.09).
    """
    global _table
    if _table is None:
        rng = random.Random(_TABLE_SIZE)
        _table = ({key: key for key in range(_TABLE_SIZE)},
                  [rng.randrange(_TABLE_SIZE) for _ in range(_TABLE_UPDATES)])
    table, keys = _table
    start = time.process_time()
    for key in keys:
        table[key] = table[key] + 1
    return time.process_time() - start


class ReferenceClock:
    """Converts measured time (wall time; on the fleet, the daemon
    process's busy clock) into reference seconds.

    A shared machine's speed drifts by tens of percent within seconds as other
    tenants come and go, while the ratio of a workload's time to the time
    of the reference loop, run right around it, holds much steadier.
    Measure in slices and pass each slice's wall time to :meth:`convert`
    right after it: the slice is scaled by ``nominal`` (by default
    ``REFERENCE_S``) over the mean of the reference-loop times just
    before and just after it, so it reads as it would at the reference
    speed.
    """

    def __init__(self, first: Optional[float] = None, nominal: float = REFERENCE_S) -> None:
        self._last = reference_loop_s() if first is None else first
        self._nominal = nominal
        self.scales: List[float] = []

    def convert(self, elapsed: float, seconds: Optional[float] = None) -> float:
        """Reference seconds for the ``elapsed`` wall seconds just measured.

        Times the reference loop here, or takes ``seconds``, a time
        another process measured for it.
        """
        now = reference_loop_s() if seconds is None else seconds
        scale = self._nominal / ((self._last + now) / 2.0)
        self._last = now
        self.scales.append(scale)
        return elapsed * scale
