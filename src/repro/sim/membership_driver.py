"""Sim driver for membership-enabled hosts.

Where :class:`~repro.sim.driver.ProtocolHost` runs a bare ordering engine
(the paper's normal-case benchmarks), :class:`MembershipHost` runs a full
:class:`~repro.membership.controller.MembershipController`: it executes
control sends and timers, feeds every delivery into an
:class:`~repro.evs.checker.EvsChecker` trace, and survives crashes,
partitions, and merges.  Used by the integration tests and the fault
examples.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.events import Effect
from repro.core.messages import DataMessage, DeliveryService
from repro.core.token import RegularToken
from repro.core.transport_core import EffectInterpreter, EffectPort, batch_wire_size
from repro.evs.checker import EvsChecker
from repro.evs.events import ConfigDelivery, MessageDelivery
from repro.membership.controller import MembershipController
from repro.membership.params import MembershipTimeouts
from repro.net.fragment import CoalescedDatagram
from repro.net.host import SimHost
from repro.net.loss import LossModel
from repro.net.packet import Frame, PortKind
from repro.net.params import NetworkParams, GIGABIT
from repro.net.simulator import Simulator
from repro.net.topology import StarTopology, build_star
from repro.sim.profiles import ImplementationProfile, DAEMON
from repro.util.errors import FaultError

if TYPE_CHECKING:
    from repro.obs.observer import ProtocolObserver

#: CPU cost charged for handling one membership control message.
_CONTROL_CPU = 3e-6


class DeliveryTap:
    """Optional per-delivery callback surface for a membership host.

    Where the :class:`~repro.evs.checker.EvsChecker` records abstract
    ``(seq, sender)`` trace events, a tap sees the *whole* delivered
    message — payload included — interleaved with configuration changes,
    in exact delivery order.  The conformance oracle
    (:mod:`repro.conformance`) uses this to recover application-level
    payloads (which may be packed or fragmented by the Spread toolkit
    layers) without touching checker semantics.  Every hook is a no-op;
    subclass and override.
    """

    def on_deliver(self, pid, message, config_id, origin_ring) -> None:
        """``pid`` delivered ``message`` (a ``DataMessage``)."""

    def on_deliver_batch(self, pid, messages, config_id, origin_ring) -> None:
        """``pid`` delivered an in-order run of messages under one
        configuration.  Default fans out to :meth:`on_deliver` per
        message, so scalar taps keep working unchanged."""
        on_deliver = self.on_deliver
        for message in messages:
            on_deliver(pid, message, config_id, origin_ring)

    def on_config(self, pid, configuration) -> None:
        """``pid`` installed ``configuration``."""

    def on_restart(self, pid) -> None:
        """``pid``'s crashed process was restarted with empty state."""


class MembershipHost(EffectPort):
    """One server running the full membership + ordering stack.

    As the controller's :class:`~repro.core.transport_core.EffectPort` it
    puts frames on the NIC at once (sends are not priced in CPU time) and
    records deliveries in the EVS checker and the tap.
    """

    def __init__(
        self,
        host: SimHost,
        controller: MembershipController,
        profile: ImplementationProfile,
        checker: Optional[EvsChecker] = None,
        tap: Optional[DeliveryTap] = None,
    ) -> None:
        self.host = host
        self.controller = controller
        self.profile = profile
        self.checker = checker
        self.tap = tap
        self.delivered: List[object] = []
        self.configurations: List[object] = []
        self._header_bytes = profile.data_header_bytes
        #: The shared interpreter (repro.core.transport_core): it owns the
        #: named-timer table and the coalescing run boundaries.
        self._effects = EffectInterpreter(
            self, controller.protocol_config.messages_per_datagram
        )
        self._paused = False
        #: Latched on crash and never cleared: the *incarnation* is dead.
        #: The SimHost may be recovered and reused by a fresh
        #: MembershipHost, so ``host.crashed`` alone cannot fence off this
        #: object's callbacks (a stale timer or in-flight CPU task would
        #: otherwise revive the old controller as a zombie sharing the
        #: pid and NIC of the restarted one).
        self._dead = False
        #: Timers that fired while paused; they run, late, at resume —
        #: exactly how a GC-stalled process experiences its own timers.
        self._deferred_timers: List[str] = []
        host.cpu.idle_hook = self._select_work

    # ------------------------------------------------------------------

    @property
    def pid(self) -> int:
        return self.controller.pid

    def start(self) -> None:
        self._execute(self.controller.start())
        self.host.cpu.kick()

    def submit(
        self,
        payload: bytes = b"",
        service: DeliveryService = DeliveryService.AGREED,
        payload_size: Optional[int] = None,
    ) -> None:
        if self._dead:
            return
        self.controller.submit(
            payload=payload,
            service=service,
            timestamp=self.host.sim.now,
            payload_size=payload_size,
        )
        if self.checker is not None:
            self.checker.record_submission(self.pid)
        self.host.cpu.kick()

    def crash(self) -> None:
        """Fail-stop: drop all timers and stop processing, permanently."""
        self._dead = True
        self.host.crash()
        self._effects.cancel_timers()
        self._paused = False
        self._deferred_timers.clear()

    def pause(self) -> None:
        """Stall the process (GC-stall-style): no frame processing, no
        timer handling, but frames keep arriving in the kernel buffers."""
        if self._paused or self.host.crashed:
            return
        self._paused = True
        self.host.pause()

    def resume(self) -> None:
        """End a stall; deferred timers fire now, late."""
        if self._dead or not self._paused:
            return
        self._paused = False
        self.host.unpause()
        deferred, self._deferred_timers = self._deferred_timers, []
        for name in deferred:
            self._execute(self.controller.on_timer(name))
        self.host.cpu.kick()

    # ------------------------------------------------------------------

    def _select_work(self) -> Optional[Tuple[float, object, tuple]]:
        if self._dead or self.host.crashed:
            return None
        token_avail = len(self.host.token_socket) > 0
        data_avail = len(self.host.data_socket) > 0
        if token_avail and (self.controller.token_has_priority or not data_avail):
            frame = self.host.token_socket.pop()
            return (_CONTROL_CPU, self._process, (frame,))
        if data_avail:
            frame = self.host.data_socket.pop()
            cost = self.profile.recv_cost(frame.size)
            return (cost, self._process, (frame,))
        return None

    def _process(self, frame: Frame) -> None:
        # A CPU task in flight when the process crashed still completes
        # its simulator event; the dead latch turns it into a no-op.
        if self._dead:
            return
        payload = frame.payload
        if payload.__class__ is CoalescedDatagram:
            self._execute(self.controller.on_data_batch(payload.messages))
        else:
            self._execute(self.controller.on_message(payload))

    def _fire_timer(self, name: str) -> None:
        if self._dead or self.host.crashed:
            return
        self._effects.timer_fired(name)
        if self._paused:
            self._deferred_timers.append(name)
            return
        self._execute(self.controller.on_timer(name))
        self.host.cpu.kick()

    # ------------------------------------------------------------------

    def _execute(self, effects: List[Effect]) -> None:
        self._effects.execute(effects)

    # -- EffectPort ------------------------------------------------------

    def _send(self, kind: PortKind, destination: Optional[int], size: int, payload) -> None:
        self.host.nic.send(
            Frame(src=self.pid, dst=destination, kind=kind, size=size, payload=payload)
        )

    def send_data(self, message: DataMessage, retransmission: bool) -> None:
        self._send(PortKind.DATA, None, message.wire_size(self._header_bytes), message)

    def send_run(self, messages: List[DataMessage]) -> None:
        size = batch_wire_size(messages, self._header_bytes)
        datagram = CoalescedDatagram(tuple(messages), size - self._header_bytes)
        self._send(PortKind.DATA, None, size, datagram)

    def send_token(self, token: RegularToken, destination: int) -> None:
        self._send(PortKind.TOKEN, destination, token.wire_size(), token)

    def send_control(self, message, destination: Optional[int]) -> None:
        self._send(PortKind.TOKEN, destination, message.wire_size(self._header_bytes), message)

    def schedule_timer(self, name: str, delay: float):
        return self.host.sim.schedule(delay, self._fire_timer, name)

    def deliver(self, messages, config_id, origin_ring) -> None:
        # Per-message checker events in delivery order (one extend), but a
        # single tap hook for the whole run.
        self.delivered.extend(messages)
        if self.checker is not None:
            self.checker.record_batch(
                self.pid,
                [
                    MessageDelivery(
                        seq=message.seq,
                        sender=message.pid,
                        service=message.service,
                        config_id=config_id,
                        origin_ring=origin_ring,
                    )
                    for message in messages
                ],
            )
        if self.tap is not None:
            self.tap.on_deliver_batch(self.pid, messages, config_id, origin_ring)

    def deliver_configuration(self, configuration) -> None:
        self.configurations.append(configuration)
        if self.checker is not None:
            self.checker.record(self.pid, ConfigDelivery(configuration))
        if self.tap is not None:
            self.tap.on_config(self.pid, configuration)


class MembershipCluster:
    """A set of membership hosts on one switch, plus fault injection."""

    def __init__(
        self,
        num_hosts: int,
        accelerated: bool = True,
        profile: ImplementationProfile = DAEMON,
        params: NetworkParams = GIGABIT,
        config: Optional[ProtocolConfig] = None,
        timeouts: Optional[MembershipTimeouts] = None,
        loss_model: Optional[LossModel] = None,
        observer: Optional["ProtocolObserver"] = None,
        delivery_tap: Optional[DeliveryTap] = None,
        sim: Optional[Simulator] = None,
        topology: Optional[StarTopology] = None,
        _from_builder: bool = False,
    ) -> None:
        if not _from_builder:
            warnings.warn(
                "constructing MembershipCluster directly is deprecated; "
                "build through the topology API: "
                "ClusterBuilder().hosts(n).membership().build() "
                "(repro.sim.build)",
                DeprecationWarning,
                stacklevel=2,
            )
        #: ``sim`` lets several clusters (e.g. the rings of a
        #: MultiRingCluster) share one simulated fabric; each still gets
        #: its own switch.
        self.sim = sim if sim is not None else Simulator()
        #: ``topology`` lets the builder substitute a prebuilt network
        #: (leaf–spine fabric, per-host loss/impairment models); any
        #: star-compatible topology works.  The default star path below
        #: is the historical wiring, untouched for trace stability.
        if topology is not None:
            self.topology = topology
        else:
            self.topology = build_star(
                self.sim, num_hosts, params, loss_model=loss_model
            )
        self.checker = EvsChecker()
        self.observer = observer
        #: Shared by every host (and re-attached across restarts): sees
        #: every delivery with its payload, for conformance extraction.
        self.delivery_tap = delivery_tap
        self.hosts: Dict[int, MembershipHost] = {}
        for pid in self.topology.host_ids:
            controller = MembershipController(
                pid=pid,
                accelerated=accelerated,
                protocol_config=config or ProtocolConfig(),
                timeouts=timeouts or MembershipTimeouts(),
                observer=observer,
                clock=lambda: self.sim.now,
            )
            self.hosts[pid] = MembershipHost(
                host=self.topology.host(pid),
                controller=controller,
                profile=profile,
                checker=self.checker,
                tap=delivery_tap,
            )

    def start(self) -> None:
        for host in self.hosts.values():
            host.start()

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def _host(self, pid: int) -> MembershipHost:
        try:
            return self.hosts[pid]
        except KeyError:
            raise FaultError(
                f"unknown pid {pid}: cluster hosts are {sorted(self.hosts)}"
            ) from None

    def crash(self, pid: int) -> None:
        """Fail-stop ``pid``.  Idempotent: crashing a crashed process is
        a no-op, so scripted fault plans can overlap hand-driven faults."""
        host = self._host(pid)
        was_crashed = host.host.crashed
        host.crash()
        if not was_crashed:
            # Close the incarnation in the checker: submissions made
            # before this point no longer count against self-delivery of
            # whatever incarnation recovers later.
            self.checker.record_crash(pid)

    def restart(self, pid: int) -> None:
        """Recover a crashed process (paper §II: "process crashes and
        recoveries").

        The process restarts with empty state — a fresh controller on the
        same host — and rejoins through the normal gather/merge path, as a
        restarted daemon would.  Its pre-crash delivery trace stays in the
        checker; EVS guarantees for the crashed incarnation are waived by
        passing the pid in ``crashed`` when checking.

        Idempotent: restarting a live process is a no-op.
        """
        host = self._host(pid)
        if not host.host.crashed:
            return
        sim_host = host.host
        # The crash cleared the kernel buffers and queued CPU work, and
        # nothing accumulates while crashed, so the recovered host starts
        # from genuinely empty volatile state.
        sim_host.recover()
        controller = MembershipController(
            pid=pid,
            accelerated=host.controller.accelerated,
            protocol_config=host.controller.protocol_config,
            timeouts=host.controller.timeouts,
            # Totem keeps the ring sequence number on stable storage so a
            # recovered process can never reuse one of its old ring ids.
            initial_ring_seq=host.controller.highest_ring_seq,
            observer=self.observer,
            clock=lambda: self.sim.now,
        )
        fresh = MembershipHost(
            host=sim_host,
            controller=controller,
            profile=host.profile,
            checker=self.checker,
            tap=self.delivery_tap,
        )
        self.hosts[pid] = fresh
        self.checker.record_recovery(pid)
        if self.delivery_tap is not None:
            self.delivery_tap.on_restart(pid)
        fresh.start()

    def pause(self, pid: int) -> None:
        """GC-stall ``pid``: the process stops executing but keeps
        receiving frames into its kernel buffers."""
        self._host(pid).pause()

    def resume(self, pid: int) -> None:
        self._host(pid).resume()

    def partition(self, *groups) -> None:
        self.topology.switch.set_partition(*groups)

    def heal(self) -> None:
        self.topology.switch.heal()

    def live_pids(self) -> List[int]:
        return sorted(
            pid for pid, host in self.hosts.items() if not host.host.crashed
        )

    def states(self) -> Dict[int, str]:
        return {
            pid: host.controller.state.value
            for pid, host in self.hosts.items()
            if not host.host.crashed
        }

    def rings(self) -> Dict[int, tuple]:
        return {
            pid: host.controller.members
            for pid, host in self.hosts.items()
            if not host.host.crashed
        }
