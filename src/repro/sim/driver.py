"""Binds one protocol participant to one simulated host.

The driver is the "implementation": it owns the single-threaded CPU loop,
reads frames from the token and data sockets according to the protocol's
current priority (paper §III-D), charges the profile's CPU costs, executes
the engine's effects in order, fragments large datagrams, and records
latency/throughput statistics.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.events import Effect
from repro.core.messages import DataMessage, DeliveryService
from repro.core.participant import AcceleratedRingParticipant
from repro.core.token import RegularToken
from repro.core.transport_core import EffectInterpreter, EffectPort, batch_wire_size
from repro.net.fragment import CoalescedDatagram, Reassembler, fragment_datagram
from repro.net.host import SimHost
from repro.net.packet import Frame, PortKind
from repro.obs.observer import ProtocolObserver, effective_observer
from repro.sim.profiles import ImplementationProfile
from repro.util.stats import RunStats

#: Age bound (simulated seconds) on partial reassembly state — the IP
#: reassembly timer.  Checked lazily on fragment arrival (no scheduled
#: events), so it leaves the event sequence of every run untouched.
_REASSEMBLY_MAX_AGE = 0.5


class ProtocolHost(EffectPort):
    """One server: a protocol engine + its host machine + its clients.

    As the engine's :class:`~repro.core.transport_core.EffectPort`, every
    effect becomes one CPU task, priced with the profile's costs and
    queued in effect order; the task's callback does the I/O.

    ``observer`` defaults to the participant's observer; either way the
    participant's clock is bound to simulated time, so every hook the
    engine fires carries a simulated-seconds ``now`` and the driver can
    report application deliveries (``on_deliver``) at the moment the
    delivery CPU work actually completes.
    """

    def __init__(
        self,
        host: SimHost,
        participant: AcceleratedRingParticipant,
        profile: ImplementationProfile,
        stats: Optional[RunStats] = None,
        measure_from: float = 0.0,
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        self.host = host
        self.participant = participant
        self.profile = profile
        self.stats = stats if stats is not None else RunStats()
        # A bare NullObserver collapses to None so hot-path hook guards
        # (`observer is not None`) skip no-op calls entirely.
        observer = effective_observer(observer)
        self.observer = observer if observer is not None else participant.observer
        if participant.observer is None:
            participant.observer = observer
        # Hot-path caches: the profile is a frozen dataclass, so its cost
        # model is hoisted into locals once.  The inlined cost expressions
        # below must keep the exact arithmetic shape of
        # ImplementationProfile.recv_cost/send_cost and
        # DataMessage.wire_size or seeded traces change.
        self._recv_cpu = profile.recv_cpu
        self._per_byte_recv = profile.per_byte_recv
        self._send_cpu = profile.send_cpu
        self._per_byte_send = profile.per_byte_send
        self._header_bytes = profile.data_header_bytes
        self._token_cpu = profile.token_cpu
        self._token_send_cpu = profile.token_send_cpu
        self._deliver_cpu = profile.deliver_cpu
        self._ingest_cpu = profile.ingest_cpu
        # Non-final fragments all cost the same and carry no arguments, so
        # a single shared task tuple serves every one of them.
        self._fragment_task = (profile.fragment_cpu, _noop, ())
        # Port methods append tasks straight onto the CPU queue (the deque
        # object lives as long as the host); _execute starts the CPU once
        # at the end of the effect list.
        self._cpu = host.cpu
        self._append_task = host.cpu._queue.append
        #: The shared interpreter (repro.core.transport_core): effect
        #: dispatch and the coalescing run boundaries are the same code
        #: the membership sim and the runtime node run.
        self._effects = EffectInterpreter(
            self, participant.config.messages_per_datagram
        )
        self.coalesced_datagrams = 0
        self.coalesced_messages = 0
        if participant.clock is None:
            participant.clock = lambda: host.sim.now
        #: Deliveries of messages submitted before this time are excluded
        #: from latency statistics (warm-up window).
        self.measure_from = measure_from
        # The socket FrameRing objects are stable for the host's lifetime
        # (crash/clear mutate them in place, never replace them), so the
        # idle hook can hold them directly instead of walking
        # host -> socket -> ring on every call.
        self._token_socket = host.token_socket
        self._data_socket = host.data_socket
        self._token_ring = host.token_socket._ring
        self._data_ring = host.data_socket._ring
        self.reassembler = Reassembler(
            max_age=_REASSEMBLY_MAX_AGE, clock=lambda: host.sim.now
        )
        self.delivered_log: List[DataMessage] = []
        #: Optional hooks for tracing (see :mod:`repro.sim.trace`).
        self.on_transmit: Optional[Callable[[Frame], None]] = None
        self.on_deliver: Optional[Callable[[DataMessage], None]] = None
        #: Batch form of ``on_deliver``: called once per delivered run
        #: with the message tuple.  When unset, batches fan out to
        #: ``on_deliver`` per message, so scalar tracers keep working.
        self.on_deliver_batch: Optional[Callable[[Tuple[DataMessage, ...]], None]] = None
        #: Bound by the cluster: stop delivering application payloads
        #: (used when an experiment caps message counts).
        self.keep_delivered_log = False

        host.cpu.idle_hook = self._select_work

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def client_submit(
        self,
        payload_size: int,
        service: DeliveryService = DeliveryService.AGREED,
    ) -> None:
        """A local sending client hands the daemon one message.

        The message is timestamped now (latency is measured from client
        injection to client delivery, like the paper's benchmarks).  For
        daemon architectures the IPC read costs CPU.
        """
        now = self.host.sim.now
        self.participant.submit(
            payload=b"",
            service=service,
            timestamp=now,
            payload_size=payload_size,
        )
        self.stats.messages_sent += 1
        if self._ingest_cpu > 0.0:
            self.host.cpu.submit(self._ingest_cpu, _noop)
        else:
            self.host.cpu.kick()

    def inject_token(self, token: RegularToken) -> None:
        """Deliver the initial token directly to this host's token socket."""
        frame = Frame(
            src=self.participant.predecessor,
            dst=self.participant.pid,
            kind=PortKind.TOKEN,
            size=token.wire_size(),
            payload=token,
        )
        self.host.receive(frame)

    # ------------------------------------------------------------------
    # CPU loop
    # ------------------------------------------------------------------

    def _select_work(self) -> Optional[Tuple[float, Callable[..., None], tuple]]:
        """Pick the next frame to process, honoring token/data priority.

        Called by the CPU whenever its explicit queue drains.  After a
        token is processed data has high priority; the engine raises
        ``token_has_priority`` per the configured §III-D method.

        Returns ``(cost, fn, args)`` tasks — arguments ride in the tuple
        so no closure is allocated per frame.
        """
        if self.host.crashed:
            return None
        # Emptiness tests and pops go straight to the rings (index
        # arithmetic inlined, mirroring FrameRing.pop): this hook runs
        # once per frame processed and method calls dominate its cost.
        data_ring = self._data_ring
        data_avail = data_ring._tail != data_ring._head
        token_ring = self._token_ring
        if token_ring._tail != token_ring._head and (
            self.participant.token_has_priority or not data_avail
        ):
            head = token_ring._head
            slots = token_ring._slots
            index = head & token_ring._mask
            frame = slots[index]
            slots[index] = None
            token_ring._head = head + 1
            self._token_socket._queued_bytes -= frame.size
            token = frame.payload
            frame.recycle()
            return (self._token_cpu, self._process_token, (token,))
        if data_avail:
            head = data_ring._head
            slots = data_ring._slots
            index = head & data_ring._mask
            frame = slots[index]
            slots[index] = None
            data_ring._head = head + 1
            self._data_socket._queued_bytes -= frame.size
            # Reassembler.accept inlined for the unfragmented common case
            # (same counter updates); fragments take the slow path.  The
            # per-destination clone is consumed either way: return it to
            # the frame pool (the MTU-fragmentation hot path allocates one
            # clone per fragment per receiver).
            if frame.fragment is None:
                self.reassembler.datagrams_completed += 1
                datagram = frame.payload
                frame.recycle()
            else:
                datagram = self.reassembler.accept(frame)
                frame.recycle()
                if datagram is None:
                    # A non-final fragment: cheap kernel work, no protocol
                    # event.
                    return self._fragment_task
            # profile.recv_cost(datagram.wire_size(header)) inlined —
            # identical arithmetic shape, two method calls saved per
            # data message.  CoalescedDatagram.payload_size is defined so
            # the same expression prices the whole multi-message frame.
            cost = self._recv_cpu + self._per_byte_recv * (
                self._header_bytes + int(datagram.payload_size)
            )
            if datagram.__class__ is CoalescedDatagram:
                return (cost, self._process_data_batch, (datagram,))
            return (cost, self._process_data, (datagram,))
        return None

    def _process_token(self, token: RegularToken) -> None:
        effects = self.participant.on_token(token)
        if effects:
            self.stats.token_rounds += 1
        self._execute(effects)

    def _process_data(self, message: DataMessage) -> None:
        effects = self.participant.on_data(message)
        if effects:
            self._execute(effects)

    def _process_data_batch(self, datagram: CoalescedDatagram) -> None:
        effects = self.participant.on_data_batch(datagram.messages)
        if effects:
            self._execute(effects)

    # ------------------------------------------------------------------
    # Effects
    # ------------------------------------------------------------------

    def _execute(self, effects: List[Effect]) -> None:
        # Cpu.submit is bypassed: the port methods append tasks straight
        # onto the CPU queue and the CPU is started once at the end.
        # Inside a CPU task (the normal case) the CPU is busy and this is
        # a no-op; when it is idle, starting after the whole list gives
        # the first task the same event sequence number a per-task kick
        # would, so seeded traces do not depend on the batching.
        self._effects.execute(effects)
        cpu = self._cpu
        if not cpu._busy and cpu._queue:
            cpu._start_next()

    # -- EffectPort: one priced CPU task per effect ---------------------

    def send_data(self, message: DataMessage, retransmission: bool) -> None:
        # profile.send_cost(message.wire_size(header)) inlined —
        # identical arithmetic shape.
        self._append_task(
            (
                self._send_cpu
                + self._per_byte_send * (self._header_bytes + int(message.payload_size)),
                self._run_multicast,
                (message, retransmission),
            )
        )

    def send_run(self, messages: List[DataMessage]) -> None:
        size = batch_wire_size(messages, self._header_bytes)
        datagram = CoalescedDatagram(tuple(messages), size - self._header_bytes)
        # One send_cpu for the whole datagram — the coalescing win — but
        # every wire byte (batch framing included) still costs
        # per_byte_send, mirroring encode_data_batch's real format.
        self._append_task(
            (
                self._send_cpu + self._per_byte_send * size,
                self._run_multicast_coalesced,
                (datagram,),
            )
        )

    def send_token(self, token: RegularToken, destination: int) -> None:
        self._append_task((self._token_send_cpu, self._run_token_send, (token, destination)))

    def deliver(self, messages: Tuple[DataMessage, ...], config_id, origin_ring) -> None:
        # One CPU task for the whole run, priced per message: the CPU's
        # busy time, and so every later task's start time, does not
        # depend on how the engine chunked the run.
        self._append_task(
            (self._deliver_cpu * len(messages), self._run_delivery, (messages,))
        )

    # -- CPU task callbacks ---------------------------------------------

    def _run_multicast(self, message, retransmission: bool) -> None:
        # ``message`` is a DataMessage or a CoalescedDatagram: both put
        # header + payload_size bytes on the wire.
        frames = fragment_datagram(
            src=self.participant.pid,
            dst=None,
            kind=PortKind.DATA,
            size=self._header_bytes + int(message.payload_size),
            payload=message,
            mtu=self.host.params.mtu,
        )
        on_transmit = self.on_transmit
        send = self.host.nic.send
        for frame in frames:
            if on_transmit is not None:
                on_transmit(frame)
            send(frame)
        if retransmission:
            self.stats.retransmissions += 1

    def _run_multicast_coalesced(self, datagram: CoalescedDatagram) -> None:
        self._run_multicast(datagram, False)
        self.coalesced_datagrams += 1
        self.coalesced_messages += len(datagram.messages)

    def _run_token_send(self, token: RegularToken, destination: int) -> None:
        frame = Frame.acquire(
            self.participant.pid,
            destination,
            PortKind.TOKEN,
            token.wire_size(),
            token,
        )
        if self.on_transmit is not None:
            self.on_transmit(frame)
        self.host.nic.send(frame)

    def _run_delivery(self, messages: Tuple[DataMessage, ...]) -> None:
        # One hook call, one tracer callback and one stats loop for the
        # whole in-order run.
        now = self.host.sim.now
        observer = self.observer
        if observer is not None:
            observer.on_deliver_batch(self.participant.pid, messages, now=now)
        on_batch = self.on_deliver_batch
        if on_batch is not None:
            on_batch(messages)
        else:
            on_deliver = self.on_deliver
            if on_deliver is not None:
                for message in messages:
                    on_deliver(message)
        if self.keep_delivered_log:
            self.delivered_log.extend(messages)
        self.stats.record_delivery_batch(now, messages, self.measure_from)

    #: Alias resolved by name by the traced benchmark run
    #: (perfbench/tracing.py).
    _run_delivery_batch = _run_delivery


def _noop() -> None:
    return None
