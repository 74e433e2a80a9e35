"""``sim-membership-churn``: the code path of chaos, soak and the
conformance explorer.

Eight hosts on a 1G star run the full membership and EVS stack (the
``ClusterBuilder``'s membership defaults: ``DAEMON`` profile), built through
``ClusterBuilder`` and booted to one ring.  The load is an open loop:
seeded Poisson arrivals at 10 Mbps of 200 B messages, 25% of them Safe,
each due at a seeded sender and handed over with
``MembershipHost.submit``.  An arrival due at a crashed or paused host is
refused.  A seeded ``FaultPlan`` drops tokens, crashes and recovers one
host, and splits the ring 4/4 and heals it; ``FaultInjector`` applies it.
The run ends with a quiesce (heal, drain, wait for one operational ring)
and the EVS check, all inside the timed loop.

Arrivals are generated here rather than with ``FixedRateWorkload``, whose
``attach`` fails on a single-ring ``MembershipCluster``.
"""

from __future__ import annotations

import gc
import random
import struct
import time
from typing import Dict, List, Set, Tuple

from repro.core.messages import DeliveryService
from repro.faults.injector import FaultInjector
from repro.faults.plan import PlanBuilder
from repro.membership.params import MembershipTimeouts
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.membership_driver import DeliveryTap

from checks import churn_check
from common import rescale

HOSTS = 8
#: Pinned here (the simulator-scale defaults at the time the benchmark
#: was written) so that a change to the defaults cannot change what this
#: workload measures.
TIMEOUTS = MembershipTimeouts(
    token_loss=5e-3,
    join_interval=1e-3,
    consensus_timeout=4e-3,
    consensus_settle=1.5e-3,
    commit_timeout=10e-3,
    recovery_status_interval=1e-3,
    recovery_timeout=30e-3,
    beacon_interval=5e-3,
    recovery_retries=3,
    recovery_backoff=2.0,
    recovery_jitter=0.2,
    recovery_suspect_after=2,
)
RATE_BPS = 10e6
PAYLOAD = 200
SAFE_SHARE = 0.25
#: Simulated seconds of load after boot; the fault plan fits inside it.
LOAD = 0.30
#: The load runs in this many slices (see ``Repeat.run``).
SLICES = 8
DRAIN = 0.02
BOOT_SLICE = 0.005
CONVERGE_SLICE = 0.05
CONVERGE_SLICES = 12
_ID = struct.Struct("!I")


def fault_plan(rng: random.Random):
    """Token drops, one crash and recover, one 4/4 partition and heal."""
    victim = rng.randrange(HOSTS)
    pids = list(range(HOSTS))
    rng.shuffle(pids)
    crash_at = rng.uniform(0.045, 0.055)
    split_at = rng.uniform(0.165, 0.175)
    return (
        PlanBuilder()
        .token_drop(at=rng.uniform(0.015, 0.025), count=1)
        .crash(victim, at=crash_at)
        .recover(victim, at=crash_at + rng.uniform(0.055, 0.065))
        .partition(set(pids[:4]), set(pids[4:]), at=split_at)
        .heal(at=split_at + rng.uniform(0.055, 0.065))
        .token_drop(at=rng.uniform(0.265, 0.275), count=2)
        .build(num_hosts=HOSTS)
    )


def arrivals(rng: random.Random) -> List[tuple]:
    """(due time after boot, pid, service) of every arrival.

    A Poisson process conditioned on its count: ``RATE_BPS`` worth of
    arrivals at sorted uniform times over the load window.  Exactly
    ``SAFE_SHARE`` of them, at seeded positions, are Safe.  Fixing the
    count and the Safe share keeps the work of different seeds alike;
    the latency median in particular sits near the boundary between
    Agreed and Safe latencies and moves with the Safe share.
    """
    count = round(RATE_BPS / (PAYLOAD * 8) * LOAD)
    times = sorted(rng.uniform(0.0, LOAD) for _ in range(count))
    safe = set(rng.sample(range(count), round(count * SAFE_SHARE)))
    return [
        (due, rng.randrange(HOSTS),
         DeliveryService.SAFE if index in safe else DeliveryService.AGREED)
        for index, due in enumerate(times)
    ]


def _converged(cluster) -> bool:
    live = tuple(cluster.live_pids())
    return (
        set(cluster.rings().values()) == {live}
        and set(cluster.states().values()) == {"operational"}
    )


class _Probe(DeliveryTap):
    """Delivery tap: wall latency of each arrival at its own host, the
    longest service gap of hosts never crashed, installs, and every
    ordering engine the hosts ever ran (for the engine counters)."""

    def __init__(self, repeat: "Repeat") -> None:
        self.repeat = repeat
        self.deliveries = 0
        self.installs = 0
        self.engines: Dict[int, object] = {}
        self.last_at: Dict[int, float] = {}
        self.max_gap = 0.0

    def on_deliver(self, pid, message, config_id, origin_ring) -> None:
        self.on_deliver_batch(pid, (message,), config_id, origin_ring)

    def on_deliver_batch(self, pid, messages, config_id, origin_ring) -> None:
        repeat = self.repeat
        self.deliveries += len(messages)
        now = repeat.sim.now
        if repeat.window_start <= now <= repeat.window_end and pid not in repeat.crashed:
            gap = now - self.last_at.get(pid, repeat.window_start)
            if gap > self.max_gap:
                self.max_gap = gap
            self.last_at[pid] = now
        wall = repeat.timed_clock()
        for message in messages:
            if message.pid == pid and len(message.payload) == _ID.size:
                arrival = _ID.unpack(message.payload)[0]
                stamp = repeat.submitted.pop(arrival, None)
                if stamp is not None:
                    repeat.latency.append(wall - stamp)
                    repeat.echoed.add(arrival)

    def on_config(self, pid, configuration) -> None:
        if not configuration.transitional:
            self.installs += 1
        engine = self.repeat.cluster.hosts[pid].controller.ordering
        if engine is not None:
            self.engines[id(engine)] = engine


class Repeat:
    """Build and boot one cluster (the set-up), then run the churn."""

    def __init__(self, seed: int, tracer=None) -> None:
        rng = random.Random(f"sim-membership-churn:{seed}")
        self.plan = fault_plan(rng)
        self.arrivals = arrivals(rng)
        self.injector_seed = rng.getrandbits(32)
        self.crashed: Set[int] = self.plan.crashed_pids()
        self.tracer = tracer
        #: Echo latencies: wall seconds, or reference seconds once ``run``
        #: has converted them.
        self.latency: List[float] = []
        #: Wall time spent between slices, kept out of the latencies.
        self.paused = 0.0
        self.submitted: Dict[int, float] = {}
        self.echoed: Set[int] = set()
        self.accepted_by: Dict[int, int] = {}
        self.refused = 0
        self.window_start = self.window_end = 0.0
        self.probe = _Probe(self)
        self.cluster = cluster = (
            ClusterBuilder()
            .hosts(HOSTS)
            .membership()
            .accelerated()
            .network(GIGABIT)
            .timeouts(TIMEOUTS)
            .tap(self.probe)
            .build_membership()
        )
        self.sim = cluster.sim
        cluster.start()
        while not _converged(cluster):
            cluster.run(BOOT_SLICE)

    def timed_clock(self) -> float:
        """Wall clock without the time spent between slices."""
        return time.perf_counter() - self.paused

    def _arrive(self, index: int, pid: int, service) -> None:
        host = self.cluster.hosts[pid]
        if host.host.crashed or host.host.cpu.stalled:
            self.refused += 1
            return
        self.accepted_by[index] = pid
        self.submitted[index] = self.timed_clock()
        host.submit(payload=_ID.pack(index), service=service, payload_size=PAYLOAD)

    def run(self, convert=None) -> Tuple[float, float]:
        """Run the churn.

        Returns the wall seconds of the timed loop and, when ``convert``
        (``ReferenceClock.convert``) is given, its reference seconds.
        The loop is measured in segments: each load slice, the quiesce,
        and the EVS check; the conversion after each is not timed, and the
        latencies of the arrivals echoed in a segment are scaled like it.
        """
        cluster = self.cluster
        wrap = self.tracer.wrap if self.tracer is not None else (lambda fn, layer: fn)
        arrive = wrap(self._arrive, "workload")
        gc.collect()
        wall = reference = 0.0
        start = time.perf_counter()

        mark = 0

        def segment_done() -> float:
            nonlocal wall, reference, start, mark
            end = time.perf_counter()
            wall += end - start
            if convert is not None:
                converted = convert(end - start)
                reference += converted
                rescale(self.latency, mark, converted / (end - start))
                self.paused += time.perf_counter() - end
            mark = len(self.latency)
            start = time.perf_counter()
            return end

        injector = FaultInjector(cluster, self.plan, seed=self.injector_seed)
        injector.arm()
        base = cluster.sim.now
        self.window_start, self.window_end = base, base + LOAD
        for index, (due, pid, service) in enumerate(self.arrivals):
            cluster.sim.schedule_at(base + due, arrive, index, pid, service)
        for index in range(1, SLICES + 1):
            cluster.sim.run(until=base + LOAD * index / SLICES)
            segment_done()
        cluster.heal()
        cluster.run(DRAIN)
        for _ in range(CONVERGE_SLICES):
            if _converged(cluster):
                break
            cluster.run(CONVERGE_SLICE)
        segment_done()
        check_start = start
        self.problems = churn_check(
            cluster.checker, self.crashed, cluster.rings(), cluster.states(),
            cluster.live_pids(),
        )
        self.check_s = segment_done() - check_start
        self.faults_applied = len(injector.applied)
        return wall, reference

    def results(self, wall_s: float) -> Dict[str, object]:
        cluster = self.cluster
        for host in cluster.hosts.values():
            engine = host.controller.ordering
            if engine is not None:
                self.probe.engines[id(engine)] = engine
        engines = list(self.probe.engines.values())
        # A message accepted by a host that stays up to the end must reach
        # it; one accepted by a host that later crashed may be lost (EVS).
        lost = sum(
            1 for index, pid in self.accepted_by.items()
            if pid not in self.crashed and index not in self.echoed
        )
        topology = cluster.topology
        hosts = [topology.host(pid) for pid in range(HOSTS)]
        exact = {
            "events": self.sim.events_processed,
            "deliveries": self.probe.deliveries,
            "frames": sum(host.nic.frames_sent for host in hosts)
            + sum(topology.switch.port(pid).frames_forwarded for pid in range(HOSTS)),
            "cpu_tasks": sum(host.cpu.tasks_executed for host in hosts),
            "ops": len(self.echoed),
            "arrivals": len(self.arrivals),
            "refused": self.refused,
            "lost": lost,
            "membership.installs": self.probe.installs,
            "faults.applied": self.faults_applied,
            "token_rounds": sum(engine.rounds_completed for engine in engines),
            "retransmissions": sum(engine.retransmissions_sent for engine in engines),
            "originated": sum(engine.messages_originated for engine in engines),
            "model.service_gap_max_ms": self.probe.max_gap * 1e3,
        }
        problems = list(self.problems)
        if lost:
            problems.append(f"{lost} accepted arrival(s) never reached their own host")
        return {
            "wall_s": wall_s,
            "attempted": len(self.arrivals),
            "failed": lost + len(self.problems),
            "problems": problems,
            "latency": self.latency,
            "exact": exact,
            "check_s": self.check_s,
        }



def short_run_cluster():
    """A booted cluster after 20 ms of Safe traffic, for the self-test."""
    cluster = (
        ClusterBuilder().hosts(4).membership().network(GIGABIT).timeouts(TIMEOUTS)
        .build_membership()
    )
    cluster.start()
    while not _converged(cluster):
        cluster.run(BOOT_SLICE)
    for step in range(40):
        for pid in cluster.live_pids():
            cluster.hosts[pid].submit(service=DeliveryService.SAFE, payload_size=PAYLOAD)
        cluster.run(0.0005)
    cluster.run(DRAIN)
    return cluster
