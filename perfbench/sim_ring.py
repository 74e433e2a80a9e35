"""``sim-ring-saturated``: the paper's maximum-throughput regime.

A bare Accelerated Ring of 8 hosts on a 10G star with the ``LIBRARY``
profile and Agreed delivery, built through ``ClusterBuilder``.  The load
is a closed loop: every 20 us of simulated time each sender's queue is
refilled to twice its personal window, so every token visit finds a full
window to send.  The seed sets each message's payload size (1300-1400 B,
below the 1500 B MTU with the 34 B header) and each sender's start phase.

One repeat simulates ``WINDOW`` seconds; the timed loop is
``Simulator.run`` over that window, in slices.  Deliveries are counted at every
receiver.  The simulator is deterministic, so every repeat of one seed
must reproduce the same exact counts (``exact`` below).
"""

from __future__ import annotations

import gc
import random
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.messages import DeliveryService
from repro.net.params import TEN_GIGABIT
from repro.obs.observer import ProtocolObserver
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import LIBRARY

from checks import prefix_check
from common import percentile, rescale

HOSTS = 8
#: Pinned here, not taken from a repo default, so that a change to the
#: defaults cannot change what this workload measures.
CONFIG = ProtocolConfig(
    personal_window=30,
    accelerated_window=30,
    global_window=240,
    messages_per_datagram=1,
)
REFILL_INTERVAL = 20e-6
DEPTH_FACTOR = 2
PAYLOAD_MIN, PAYLOAD_MAX = 1300, 1400
#: Simulated seconds per repeat, and the warm-up excluded from model.*.
WINDOW = 0.02
WARMUP = 0.005
#: The window runs in this many slices (see ``run``).
SLICES = 8


class StageObserver(ProtocolObserver):
    """Per-message stage times from the public observer hooks (traced
    run only): token wait is submit -> multicast, order wait is
    multicast -> each delivery, both in simulated seconds."""

    def __init__(self) -> None:
        self.multicast_at: Dict[tuple, float] = {}
        self.token_wait: List[float] = []
        self.order_wait: List[float] = []

    def on_multicast(self, pid, message, retransmission=False, now=None):
        if retransmission or message.timestamp < WARMUP:
            return
        self.multicast_at[(message.pid, message.seq)] = now
        self.token_wait.append(now - message.timestamp)

    def on_deliver(self, pid, message, now=None):
        self.on_deliver_batch(pid, (message,), now=now)

    def on_deliver_batch(self, pid, messages, now=None):
        multicast_at = self.multicast_at
        for message in messages:
            sent = multicast_at.get((message.pid, message.seq))
            if sent is not None:
                self.order_wait.append(now - sent)


class Repeat:
    """One built cluster plus the load generator and probes around it."""

    def __init__(self, seed: int, tracer=None, observer: Optional[StageObserver] = None):
        rng = random.Random(f"sim-ring-saturated:{seed}")
        phases = [rng.uniform(0.0, REFILL_INTERVAL) for _ in range(HOSTS)]
        sizes = random.Random(rng.getrandbits(64))
        builder = (
            ClusterBuilder()
            .hosts(HOSTS)
            .accelerated()
            .profile(LIBRARY)
            .network(TEN_GIGABIT)
            .config(CONFIG)
        )
        if observer is not None:
            builder.observe(observer)
        self.cluster = cluster = builder.build_ring()
        self.sim = sim = cluster.sim
        #: Echo latencies: wall seconds, or reference seconds once ``run``
        #: has converted them.
        self.latency: List[float] = []
        #: Wall time spent between slices, kept out of the latencies.
        self.paused = 0.0
        self.model_latency: List[float] = []
        self.model_payload_bytes = 0
        wrap = tracer.wrap if tracer is not None else (lambda fn, layer: fn)
        target = CONFIG.personal_window * DEPTH_FACTOR

        def refill(driver, stamps) -> None:
            participant = driver.participant
            submit = driver.client_submit
            clock = self.timed_clock
            for _ in range(target - participant.pending_count):
                submit(sizes.randint(PAYLOAD_MIN, PAYLOAD_MAX), DeliveryService.AGREED)
                stamps.append(clock())
            sim.schedule(REFILL_INTERVAL, refill_traced, driver, stamps)

        refill_traced = wrap(refill, "workload")

        for pid in cluster.ring:
            driver = cluster.driver(pid)
            driver.keep_delivered_log = True
            stamps: deque = deque()
            driver.on_deliver_batch = wrap(self._echo_hook(pid, stamps), "workload")
            driver.on_deliver = wrap(
                lambda message, hook=driver.on_deliver_batch: hook((message,)), "workload"
            )
            sim.schedule_at(phases[pid], refill_traced, driver, stamps)
        cluster.start()

    def _echo_hook(self, pid: int, stamps: deque):
        """Delivery probe: wall latency of the sender's own messages (its
        echo, FIFO per sender) and the modelled latency at every receiver."""
        sim = self.sim
        latency = self.latency
        model_latency = self.model_latency
        clock = self.timed_clock

        def on_batch(messages) -> None:
            now = sim.now
            wall = clock()
            payload = 0
            for message in messages:
                stamp = message.timestamp
                if stamp >= WARMUP:
                    model_latency.append(now - stamp)
                    payload += message.payload_size
                if message.pid == pid:
                    latency.append(wall - stamps.popleft())
            self.model_payload_bytes += payload

        return on_batch

    def timed_clock(self) -> float:
        """Wall clock without the time spent between slices."""
        return time.perf_counter() - self.paused

    def run(self, convert=None) -> Tuple[float, float]:
        """Simulate ``WINDOW`` in ``SLICES`` slices.

        Returns the wall seconds of the slices and, when ``convert``
        (``ReferenceClock.convert``) is given, their reference seconds;
        the conversion after each slice is not timed, and the latencies
        of the messages echoed in a slice are scaled like the slice.
        """
        gc.collect()
        wall = reference = 0.0
        latency = self.latency
        for index in range(1, SLICES + 1):
            mark = len(latency)
            start = time.perf_counter()
            self.sim.run(until=WINDOW * index / SLICES)
            end = time.perf_counter()
            wall += end - start
            if convert is not None:
                converted = convert(end - start)
                reference += converted
                rescale(latency, mark, converted / (end - start))
                self.paused += time.perf_counter() - end
        return wall, reference

    def results(self, wall_s: float) -> Dict[str, object]:
        cluster = self.cluster
        streams = {
            pid: [(m.pid, m.seq) for m in cluster.driver(pid).delivered_log]
            for pid in cluster.ring
        }
        mismatches, problems = prefix_check(streams)
        deliveries = sum(len(stream) for stream in streams.values())
        ops = len(self.latency)
        hosts = [cluster.topology.host(pid) for pid in cluster.ring]
        frames = sum(host.nic.frames_sent for host in hosts) + sum(
            cluster.topology.switch.port(pid).frames_forwarded for pid in cluster.ring
        )
        exact = {
            "events": self.sim.events_processed,
            "deliveries": deliveries,
            "ops": ops,
            "ordered": max(len(stream) for stream in streams.values()),
            "frames": frames,
            "cpu_tasks": sum(host.cpu.tasks_executed for host in hosts),
            "token_rounds": sum(cluster.driver(pid).participant.rounds_completed
                                for pid in cluster.ring),
            "retransmissions": sum(cluster.driver(pid).participant.retransmissions_sent
                                   for pid in cluster.ring),
            "originated": sum(cluster.driver(pid).participant.messages_originated
                              for pid in cluster.ring),
            "model.goodput_mbps": self.model_payload_bytes * 8.0 / HOSTS
            / (WINDOW - WARMUP) / 1e6,
            "model.latency_p50_us": percentile(self.model_latency, 0.50) * 1e6,
            "model.latency_p99_us": percentile(self.model_latency, 0.99) * 1e6,
        }
        return {
            "wall_s": wall_s,
            "attempted": exact["ordered"],
            "failed": mismatches,
            "problems": problems,
            "latency": self.latency,
            "exact": exact,
        }



def short_run_streams() -> Dict[int, List[tuple]]:
    """Delivery streams of a 2 ms run, for the checks' self-test."""
    repeat = Repeat(seed=0)
    repeat.sim.run(until=0.002)
    return {
        pid: [(m.pid, m.seq) for m in repeat.cluster.driver(pid).delivered_log]
        for pid in repeat.cluster.ring
    }
