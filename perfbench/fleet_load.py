"""``fleet-closed-loop``: the only workload on real sockets.

Three ``SpreadDaemon``s run in one child process (``fleet_daemons.py``)
and exchange UDP datagrams over loopback only.  The load comes from this
process over two ``SpreadClient`` connections (unix sockets, one to
daemon 0 and one to daemon 1), both members of one group.  It is a
closed loop: each client keeps ``IN_FLIGHT`` multicasts outstanding and
sends the next one when the ordered echo of one of its own returns.  The
seed sets the payload sizes.

Rates and latencies are timed on a ``busy_clock.ProgressClock``: over
an interval, the shorter of the daemon process's busy clock (its CPU
time plus the time its event loop waits on purpose) and this process's
CPU clock (its event loop polls, so it never idles), so that the
moments a shared machine takes either process's vCPU away do not
count.  See ``busy_clock.py``.

A run is a few rounds; each round starts a fresh fleet (its set-up is
timed), has each client send ``OPS_PER_CLIENT`` multicasts, and stops the
fleet.  A fixed amount of work per round keeps the daemons' memory use
comparable from run to run.  The load of a round runs in slices of
``SLICE_OPS`` multicasts per client; after each slice the clients wait
for their echoes and the daemon process runs the table loop
(``common.table_loop_s``, see ``common.ReferenceClock``), so every
slice's rate and latencies are scaled to reference seconds.  Throughput
is the median over all slices of the run.  Each latency percentile is
taken per round, over all of its echoes (12,000), and the median over
rounds is reported: the 99th percentile of a single slice (1000 echoes)
moved by up to 2x between neighbouring slices.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import shutil
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.runtime.ipc import UnixEndpoint
from repro.spread.client_api import GroupMessage, SpreadClient

import busy_clock
from checks import common_prefix_check
from common import TABLE_REFERENCE_S, ReferenceClock

CLIENTS = 2
IN_FLIGHT = 4
OPS_PER_CLIENT = 6000
#: Short slices, so that the reference loop runs often enough to follow
#: the machine's speed.
SLICE_OPS = 500
GROUP = "bench"
PAYLOAD_MIN, PAYLOAD_MAX = 64, 1024
#: Payload header: (client index, sequence number).
HEADER = struct.Struct("!BI")
READY_TIMEOUT = 90.0
#: The longest a slice may take.
SLICE_TIMEOUT = 15.0
#: Where the daemons' unix sockets live, relative to the repository root
#: (relative paths keep them under the unix socket path limit).
RUN_DIR = Path(".perfbench_run")
HERE = Path(__file__).resolve().parent


@dataclass
class _Client:
    index: int
    client: SpreadClient
    sizes: random.Random
    sent: int = 0
    sent_at: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    stream: List[Tuple[int, int]] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)
    multicast_s: List[float] = field(default_factory=list)


@dataclass
class Round:
    """One round's results; every duration except ``setup_s``,
    ``load_s`` and ``busy_s`` is in reference seconds."""

    setup_s: float
    #: Wall seconds of load (the slices, without the pauses between them).
    load_s: float = 0.0
    #: The same on the progress clock.
    busy_s: float = 0.0
    ops_rates: List[float] = field(default_factory=list)
    delivery_rates: List[float] = field(default_factory=list)
    #: Every echo's latency.
    latencies: List[float] = field(default_factory=list)
    sent: int = 0
    unechoed: int = 0
    mismatches: int = 0
    problems: List[str] = field(default_factory=list)
    daemon: dict = field(default_factory=dict)
    client_trace: Optional[dict] = None
    multicast_s: List[float] = field(default_factory=list)
    #: Progress-clock-to-reference scale of each slice.
    scales: List[float] = field(default_factory=list)


async def _readline(proc, timeout: float) -> dict:
    line = await asyncio.wait_for(proc.stdout.readline(), timeout)
    if not line:
        raise RuntimeError("fleet process exited early")
    return json.loads(line)


async def _daemon_reference(proc) -> float:
    proc.stdin.write(b"reference\n")
    await proc.stdin.drain()
    return (await _readline(proc, READY_TIMEOUT))["reference_s"]


async def _pump(state: _Client, quota: int, clock, tracer) -> None:
    """Closed loop until ``quota`` multicasts are sent and echoed, timed
    on the progress clock ``clock``.  A traced run also times each
    ``multicast`` call (on this process's wall clock)."""
    client = state.client
    wall = time.perf_counter
    span = tracer.span if tracer is not None else None

    def fire() -> None:
        size = state.sizes.randint(PAYLOAD_MIN, PAYLOAD_MAX)
        payload = HEADER.pack(state.index, state.sent) + bytes(size - HEADER.size)
        sent_at = clock.read()
        if tracer is not None:
            called = wall()
            client.multicast([GROUP], payload)
            state.multicast_s.append(wall() - called)
        else:
            client.multicast([GROUP], payload)
        state.sent_at[state.sent] = sent_at
        state.sent += 1

    def on_message(event: GroupMessage) -> None:
        sender, seq = HEADER.unpack_from(event.payload)
        state.stream.append((sender, seq))
        if sender == state.index:
            state.latency.append(clock.since(state.sent_at.pop(seq)))
            if state.sent < quota:
                fire()

    while state.sent < quota and len(state.sent_at) < IN_FLIGHT:
        fire()
    while state.sent_at:
        event = await client.receive()
        if isinstance(event, GroupMessage):
            if span is not None:
                with span("workload"):
                    on_message(event)
            else:
                on_message(event)


def setup_only() -> float:
    """Start a fleet and its clients, then stop it; returns the set-up
    time."""
    return run_round(0, load=False).setup_s


def run_round(seed: int, tracer=None, spans_path: str = "", load: bool = True) -> Round:
    """Start a fleet, drive one round of closed-loop load (unless
    ``load`` is false), stop it.  Runs on an event loop of its own, over
    a ``busy_clock.SpinningSelector``."""
    return busy_clock.run(_round(seed, tracer, spans_path, load), busy_clock.SpinningSelector())


async def _round(seed: int, tracer, spans_path: str, load: bool) -> Round:
    """The body of :func:`run_round`.

    The slices are timed on the progress clock and scaled by table-loop
    times measured on the daemon process's CPU clock.  The set-up is left
    in wall seconds: it is mostly message exchanges between the daemons,
    and scaling it by the reference loop made it noisier, not steadier.
    """
    rng = random.Random(f"fleet-closed-loop:{seed}")
    workdir = RUN_DIR / f"fleet-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock_path = str(workdir / "busy-clock")
    busy_clock.create(clock_path)
    command = [sys.executable, str(HERE / "fleet_daemons.py"), "--workdir", str(workdir),
               "--clock", clock_path]
    if tracer is not None:
        command += ["--trace", "1", "--spans", spans_path]
    proc = await asyncio.create_subprocess_exec(
        *command, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE
    )
    states: List[_Client] = []
    clock = None
    try:
        await _readline(proc, READY_TIMEOUT)
        # The set-up is timed from here: the interpreter has started and
        # imported the stack, and the daemons start now.
        begin = time.perf_counter()
        proc.stdin.write(b"start\n")
        await proc.stdin.drain()
        ready = (await _readline(proc, READY_TIMEOUT))["ready"]
        for index in range(CLIENTS):
            client = SpreadClient(endpoint=UnixEndpoint(path=ready[str(index)]), name=f"c{index}")
            await client.connect()
            states.append(_Client(index, client, random.Random(rng.getrandbits(64))))
        for state in states:
            await state.client.join(GROUP)
        for state in states:
            await state.client.wait_for_view(GROUP, CLIENTS, timeout=READY_TIMEOUT)
        setup_s = time.perf_counter() - begin
        if not load:
            return Round(setup_s)
        clock = busy_clock.ProgressClock(clock_path)
        reference = ReferenceClock(await _daemon_reference(proc), TABLE_REFERENCE_S)

        proc.stdin.write(b"mark\n")
        await proc.stdin.drain()
        if tracer is not None:
            tracer.active = True
        load_s = busy_s = 0.0
        ops_rates: List[float] = []
        delivery_rates: List[float] = []
        latencies: List[float] = []
        multicast_s: List[float] = []
        problems: List[str] = []
        for quota in range(SLICE_OPS, OPS_PER_CLIENT + 1, SLICE_OPS):
            marks = [(len(s.latency), len(s.stream), len(s.multicast_s)) for s in states]
            start, busy_start = time.perf_counter(), clock.read()
            results = await asyncio.gather(
                *(asyncio.wait_for(_pump(state, quota, clock, tracer), SLICE_TIMEOUT)
                  for state in states),
                return_exceptions=True,
            )
            busy = clock.since(busy_start)
            load_s += time.perf_counter() - start
            busy_s += busy
            problems += [f"client {i}: {r!r}" for i, r in enumerate(results) if r is not None]
            if problems:
                break
            factor = reference.convert(busy, await _daemon_reference(proc)) / busy
            ops_rates.append(CLIENTS * SLICE_OPS / (busy * factor))
            delivery_rates.append(
                sum(len(s.stream) - mark[1] for s, mark in zip(states, marks)) / (busy * factor)
            )
            latencies += [lat * factor for s, mark in zip(states, marks)
                          for lat in s.latency[mark[0]:]]
            for state, mark in zip(states, marks):
                multicast_s += [d * factor for d in state.multicast_s[mark[2]:]]
        if tracer is not None:
            tracer.active = False
        proc.stdin.write(b"stop\n")
        await proc.stdin.drain()
        daemon = await _readline(proc, READY_TIMEOUT)

        unechoed = sum(len(state.sent_at) for state in states)
        if unechoed:
            problems.append(f"{unechoed} multicast(s) were never echoed")
        mismatches, disagreements = common_prefix_check(states[0].stream, states[1].stream)
        problems += disagreements
        counters = daemon["counters"]
        if counters["decode_errors"] or counters["clients_dropped_slow"]:
            problems.append(f"daemon health counters are not zero: {counters}")
        return Round(
            setup_s=setup_s,
            load_s=load_s,
            busy_s=busy_s,
            ops_rates=ops_rates,
            delivery_rates=delivery_rates,
            latencies=latencies,
            sent=sum(state.sent for state in states),
            unechoed=unechoed,
            mismatches=mismatches,
            problems=problems,
            daemon=daemon,
            client_trace=tracer.summary(load_s) if tracer is not None else None,
            multicast_s=multicast_s,
            scales=reference.scales,
        )
    finally:
        for state in states:
            await state.client.close()
        if clock is not None:
            clock.close()
        if proc.returncode is None:
            with contextlib.suppress(BrokenPipeError, ConnectionError):
                proc.stdin.close()
            try:
                await asyncio.wait_for(proc.wait(), 30.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


