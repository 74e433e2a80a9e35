"""Daemon side of ``fleet-closed-loop``: three ``SpreadDaemon``s, started
through ``Fleet``, in this one process.

The benchmark process starts this script, connects its clients to the
printed unix sockets, and drives it over stdin:

* ``start`` (after the script printed that it has loaded) starts the
  daemons and prints their sockets once they formed one ring;
* ``mark`` starts the measured window (counters are snapshot, and with
  ``--trace 1`` spans start to be recorded);
* ``reference`` runs the table loop of ``common.py`` here, with the
  daemons' event loop blocked, and prints its time on this process's CPU
  clock (the daemons set the pace of the load, so their process is where
  machine speed matters, and the load is timed on this process's busy
  clock, see ``busy_clock.py``);
* ``stop`` ends it: one JSON line with the counter deltas (and the
  per-layer trace summary) is printed, then the fleet drains and the
  process exits.  End of input does the same without printing.

The event loop runs on a ``busy_clock.BusyClockSelector`` that
publishes this process's busy clock in the file given by ``--clock``.

Usage: ``python3 perfbench/fleet_daemons.py --workdir DIR --clock FILE
[--trace 1] [--spans FILE]``, run from the root of the repository.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import errno
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import ProtocolConfig  # noqa: E402
from repro.membership.params import MembershipTimeouts  # noqa: E402
from repro.runtime.fleet import Fleet  # noqa: E402

import busy_clock  # noqa: E402
from common import table_loop_s  # noqa: E402
from tracing import DAEMON_ENTRY_POINTS, Tracer  # noqa: E402

DAEMONS = 3
START_ATTEMPTS = 3
#: Pinned here (the runtime defaults and loopback-fleet timeouts at the
#: time the benchmark was written) so that a change to a repo default
#: cannot change what this workload measures.
CONFIG = ProtocolConfig(
    personal_window=30,
    accelerated_window=15,
    global_window=150,
    messages_per_datagram=1,
)
TIMEOUTS = MembershipTimeouts(
    token_loss=0.25,
    join_interval=0.05,
    consensus_timeout=0.2,
    commit_timeout=0.5,
    recovery_status_interval=0.05,
    recovery_timeout=2.0,
    beacon_interval=0.2,
)


def counters(fleet: Fleet) -> dict:
    totals = dict(fleet.counters())
    totals["token_rounds"] = totals["retransmissions"] = totals["originated"] = 0
    for daemon in fleet.daemons.values():
        engine = daemon.node.controller.ordering
        if engine is not None:
            totals["token_rounds"] += engine.rounds_completed
            totals["retransmissions"] += engine.retransmissions_sent
            totals["originated"] += engine.messages_originated
    return totals


async def start_fleet(workdir: str) -> Fleet:
    """Start the fleet and wait for its ring.

    ``Fleet`` takes kernel-assigned ports and releases them before the
    daemons bind them, so now and then (once in about a hundred starts
    on one machine) a port is taken in between; the start is then
    retried on fresh ports.
    """
    for attempt in range(1, START_ATTEMPTS + 1):
        fleet = Fleet(
            num_daemons=DAEMONS, workdir=workdir, timeouts=TIMEOUTS, protocol_config=CONFIG
        )
        try:
            await fleet.start(form_timeout=60.0)
            return fleet
        except OSError as error:
            with contextlib.suppress(Exception):
                await fleet.drain_and_stop()
            if error.errno != errno.EADDRINUSE or attempt == START_ATTEMPTS:
                raise
            print(f"fleet start {attempt}: {error}; retrying", file=sys.stderr)
    raise AssertionError("unreachable")


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


async def serve(args: argparse.Namespace, tracer) -> None:
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    fleet = None
    try:
        emit({"loaded": True})
        if (await stdin.readline()).strip() != b"start":
            return
        fleet = await start_fleet(args.workdir)
        emit({"ready": {str(pid): fleet.socket_path(pid) for pid in sorted(fleet.daemons)}})
        while True:
            command = (await stdin.readline()).strip()
            if command == b"reference":
                # Spanned as the benchmark's own work, so that a traced
                # run does not count it as the event loop's.
                with tracer.span("workload") if tracer else contextlib.nullcontext():
                    seconds = table_loop_s()
                emit({"reference_s": seconds})
            elif command == b"mark":
                before = counters(fleet)
                start = time.perf_counter()
                if tracer is not None:
                    tracer.active = True
            elif command == b"stop":
                break
            else:
                return
        end = time.perf_counter()
        after = counters(fleet)
        record = {
            "window_s": end - start,
            "counters": {key: after[key] - before[key] for key in after},
        }
        if tracer is not None:
            tracer.active = False
            tracer.close_open_spans(end)
            record["trace"] = tracer.summary(end - start)
            if args.spans:
                tracer.dump(Path(args.spans))
        emit(record)
    finally:
        if fleet is not None:
            await fleet.drain_and_stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--clock", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    tracer = Tracer() if args.trace else None
    patches = tracer.install(DAEMON_ENTRY_POINTS) if tracer else contextlib.nullcontext()
    with patches:
        busy_clock.run(serve(args, tracer), busy_clock.BusyClockSelector(args.clock))
    return 0


if __name__ == "__main__":
    sys.exit(main())
