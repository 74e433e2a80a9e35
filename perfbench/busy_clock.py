"""The clocks the fleet workload is timed on: the daemon process's busy
clock, and the progress clock built on it.

The daemon process sets the pace of the fleet: it spins the token and
does nearly all of the work.  On a shared virtual machine its vCPU is
taken away for milliseconds at a time, and wall time counts those gaps,
which moved the fleet's 99th-percentile latency by 2x between runs
minutes apart.  The busy clock is the daemon process's CPU time plus the
wall time its event loop has spent blocked in the selector.  The kernel
stops the CPU clock while the vCPU is taken away, so those gaps drop
out; time the loop waits on purpose (a timer, an idle ring) still
counts, so on an undisturbed core the busy clock reads as wall time.

The daemon process runs its event loop on a :class:`BusyClockSelector`,
which publishes the busy clock in a small file shared with the benchmark
process, once per loop iteration (every ``select``): two doubles, the
busy clock's reading, and the ``time.perf_counter`` (``CLOCK_MONOTONIC``,
the same in every process) at which a blocking ``select`` began, or 0.
:class:`DaemonBusyClock` reads them in the benchmark process: the last
published reading, plus the time since the blocking ``select`` began if
one is under way.  Between two ``select`` calls the published reading
stands still.  The clock thus advances in steps of one loop
iteration (about 0.1 ms).  (The kernel's CPU clock of another process
is no substitute: it advances only at scheduler ticks.)

The clients' process matters too: an echo that has arrived waits while
that process's vCPU is away, and the daemons' busy clock runs on
meanwhile (timed on it, pausing the client process 3 ms in every 60
raised the 99th percentile by about half; pausing the daemon process the
same way, by about 7%).  So the benchmark process runs its event loop on a
:class:`SpinningSelector`, which polls instead of blocking: its vCPU is
never idle, and its own CPU clock then runs with wall time except while
the vCPU is away.  A :class:`ProgressClock` interval is the shorter of
the two clocks' intervals: it leaves out whichever process lost more
time in it.  (Subtracting both losses would count a pause of both
processes at once twice.)
"""

from __future__ import annotations

import asyncio
import mmap
import os
import selectors
import struct
import time
from typing import Awaitable, Tuple, TypeVar

T = TypeVar("T")

_LAYOUT = struct.Struct("dd")


def create(path: str) -> None:
    """Create the shared file, zeroed."""
    with open(path, "wb") as out:
        out.write(bytes(_LAYOUT.size))


def _map(path: str) -> mmap.mmap:
    fd = os.open(path, os.O_RDWR)
    try:
        return mmap.mmap(fd, _LAYOUT.size)
    finally:
        os.close(fd)


class BusyClockSelector(selectors.DefaultSelector):
    """The daemon process's selector: publishes the busy clock before
    each ``select`` and after each blocking one, whose wait, less the
    CPU time it uses, it adds to the clock."""

    def __init__(self, path: str) -> None:
        super().__init__()
        self._shared = _map(path)
        self._blocked = 0.0

    def select(self, timeout=None):
        cpu = time.process_time()
        if timeout is not None and timeout <= 0:
            _LAYOUT.pack_into(self._shared, 0, cpu + self._blocked, 0.0)
            return super().select(timeout)
        wall = time.perf_counter()
        _LAYOUT.pack_into(self._shared, 0, cpu + self._blocked, wall)
        try:
            return super().select(timeout)
        finally:
            now = time.process_time()
            self._blocked += max(0.0, (time.perf_counter() - wall) - (now - cpu))
            _LAYOUT.pack_into(self._shared, 0, now + self._blocked, 0.0)

    def close(self) -> None:
        super().close()
        self._shared.close()


class DaemonBusyClock:
    """Reads the daemon process's busy clock (seconds, from an arbitrary
    origin) from the shared file ``path``."""

    def __init__(self, path: str) -> None:
        self._shared = _map(path)

    def __call__(self) -> float:
        busy, since = _LAYOUT.unpack_from(self._shared)
        if since:
            busy += time.perf_counter() - since
        return busy

    def close(self) -> None:
        self._shared.close()


class SpinningSelector(selectors.DefaultSelector):
    """The benchmark process's selector: polls until an event is ready or
    the timeout passes, instead of blocking."""

    def select(self, timeout=None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            events = super().select(0)
            if events or (deadline is not None and time.monotonic() >= deadline):
                return events


class ProgressClock:
    """Readings of the daemon process's busy clock and of this process's
    CPU clock; see the module docstring."""

    def __init__(self, path: str) -> None:
        self._daemon = DaemonBusyClock(path)

    def read(self) -> Tuple[float, float]:
        return self._daemon(), time.process_time()

    def since(self, start: Tuple[float, float]) -> float:
        """Seconds from the reading ``start`` to now."""
        daemon, here = self.read()
        return min(daemon - start[0], here - start[1])

    def close(self) -> None:
        self._daemon.close()


def run(main: Awaitable[T], selector: selectors.BaseSelector) -> T:
    """``asyncio.run(main)`` on an event loop over ``selector``."""
    loop = asyncio.SelectorEventLoop(selector)
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(main)
    finally:
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        loop.run_until_complete(loop.shutdown_asyncgens())
        asyncio.set_event_loop(None)
        loop.close()
