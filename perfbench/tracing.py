"""In-memory layer spans for the traced benchmark run.

A :class:`Tracer` wraps the entry points of each layer (see the
``*_ENTRY_POINTS`` tables) in spans.  A span records its layer, its
start and end (``time.perf_counter``) and its parent, which is the span
enclosing it on the call stack.  A call into the layer that is already
on top of the stack opens no new span, so spans mark layer boundaries
rather than every function call.

Spans are kept in flat ``array`` columns while the run executes and
written once, at the end, by :meth:`Tracer.dump`.  A layer's self time
is the summed duration of its spans minus the part of each that its
child spans cover.

The wrappers are installed on the classes and modules of ``repro``
before the system under test is built, so bound methods captured at
construction time (simulator callbacks, CPU idle hooks, transport
callbacks) go through them too.  :meth:`Tracer.install` undoes the
patching on exit.  Coroutine functions are never wrapped: a span must
not stay open across an ``await``, because other tasks run there.  The
code of a coroutine between two awaits therefore counts toward the
asyncio ``loop`` layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Layer names, in report order.  ``idle`` is the time the asyncio loop
#: spends blocked in its selector; it is reported as ``loop.idle_s``.
LAYERS = (
    "kernel",
    "netmodel",
    "engine",
    "driver",
    "membership",
    "evs",
    "faults",
    "runtime",
    "spread",
    "loop",
    "idle",
    "client",
    "workload",
)
LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}

#: An entry point: (module name, attribute path, layer).  The attribute
#: path is ``"Class.method"`` or ``"function"``.
EntryPoint = Tuple[str, str, str]


def _methods(module: str, cls: str, layer: str, names: Sequence[str]) -> List[EntryPoint]:
    return [(module, f"{cls}.{name}", layer) for name in names]


#: The simulator: event loop, network model, drivers, protocol engine,
#: membership, EVS checker and fault injector.
SIM_ENTRY_POINTS: List[EntryPoint] = [
    ("repro.net.simulator", "Simulator.run", "kernel"),
    *_methods("repro.net.host", "Cpu", "netmodel", ("submit", "kick", "_start_next", "_finish")),
    ("repro.net.host", "SimHost.receive", "netmodel"),
    *_methods("repro.net.nic", "Nic", "netmodel", ("send", "_start_next", "_finish")),
    *_methods("repro.net.switch", "OutputPort", "netmodel", ("enqueue", "_start_next", "_finish")),
    *_methods("repro.net.switch", "Switch", "netmodel", ("ingress", "_forward")),
    ("repro.net.fragment", "fragment_datagram", "netmodel"),
    ("repro.net.fragment", "Reassembler.accept", "netmodel"),
    *_methods(
        "repro.sim.driver",
        "ProtocolHost",
        "driver",
        (
            "client_submit",
            "inject_token",
            "_select_work",
            "_process_token",
            "_process_data",
            "_process_data_batch",
            "_execute",
            "_run_multicast",
            "_run_multicast_coalesced",
            "_run_token_send",
            "_run_delivery",
            "_run_delivery_batch",
        ),
    ),
    *_methods(
        "repro.sim.membership_driver",
        "MembershipHost",
        "driver",
        ("start", "submit", "crash", "pause", "resume", "_select_work", "_process",
         "_fire_timer", "_execute"),
    ),
    *_methods(
        "repro.sim.membership_driver",
        "MembershipCluster",
        "driver",
        ("crash", "restart", "pause", "resume", "partition", "heal"),
    ),
    *_methods(
        "repro.core.participant",
        "AcceleratedRingParticipant",
        "engine",
        ("submit", "on_token", "on_data", "on_data_batch"),
    ),
    *_methods(
        "repro.membership.controller",
        "MembershipController",
        "membership",
        ("start", "submit", "on_message", "on_timer", "on_data_batch"),
    ),
    *_methods(
        "repro.evs.checker",
        "EvsChecker",
        "evs",
        ("record", "record_batch", "record_submission", "record_crash",
         "record_recovery", "check"),
    ),
    *_methods("repro.faults.injector", "FaultInjector", "faults", ("arm", "_apply")),
]

#: One daemon process of the loopback fleet: the asyncio loop, the
#: runtime (node, UDP transport, client IPC, backpressure), the Spread
#: layer, and the membership and ordering code they drive.
DAEMON_ENTRY_POINTS: List[EntryPoint] = [
    ("asyncio.base_events", "BaseEventLoop._run_once", "loop"),
    ("selectors", "EpollSelector.select", "idle"),
    *_methods(
        "repro.runtime.node",
        "RingNode",
        "runtime",
        ("submit", "_enqueue_data", "_enqueue_token", "_handle_data", "_handle_token",
         "_fire_timer", "_send_run", "_execute"),
    ),
    ("repro.runtime.transport", "_Receiver.datagram_received", "runtime"),
    *_methods(
        "repro.runtime.transport",
        "UdpTransport",
        "runtime",
        ("multicast_data", "send_token", "send_control"),
    ),
    *_methods("repro.runtime.backpressure", "ClientSendQueue", "runtime", ("send",)),
    *[
        ("repro.runtime.ipc", name, "runtime")
        for name in ("pack_groupcast", "unpack_groupcast", "pack_group_view",
                     "unpack_group_op", "pack_welcome", "unpack_hello")
    ],
    *_methods(
        "repro.spread.daemon",
        "SpreadDaemon",
        "spread",
        ("_handle_client_frame", "_submit_envelope", "_ordered_delivery",
         "_config_changed"),
    ),
    *_methods(
        "repro.core.participant",
        "AcceleratedRingParticipant",
        "engine",
        ("submit", "on_token", "on_data", "on_data_batch"),
    ),
    ("repro.core.transport_core", "encode_run", "engine"),
    ("repro.core.transport_core", "decode_data_port", "engine"),
    *[
        ("repro.core.codec", name, "engine")
        for name in ("encode_data", "encode_token", "encode_data_batch",
                     "decode_data_batch", "encode", "decode")
    ],
    *_methods(
        "repro.membership.controller",
        "MembershipController",
        "membership",
        ("start", "submit", "on_message", "on_timer", "on_data_batch"),
    ),
    ("repro.membership.codec", "encode_any", "membership"),
    ("repro.membership.codec", "decode_any", "membership"),
]

#: The benchmark process of the fleet workload: the client library.
CLIENT_ENTRY_POINTS: List[EntryPoint] = [
    ("repro.spread.client_api", "SpreadClient.multicast", "client"),
    ("repro.runtime.ipc", "pack_groupcast", "client"),
    ("repro.runtime.ipc", "unpack_groupcast", "client"),
]


class Tracer:
    """Records layer spans in memory; see the module docstring."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.layers = array("b")
        self.parents = array("l")
        #: Per layer: wrapped calls made from inside the same layer, which
        #: open no span but still pay for the wrapper.
        self.passes = [0] * len(LAYERS)
        #: (layer, span index) of the open spans; the sentinel is the root.
        self._stack: List[Tuple[int, int]] = [(-1, -1)]
        #: Spans are recorded only while this is true.
        self.active = False

    # -- recording -----------------------------------------------------

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        layer_id = LAYER_INDEX[layer]
        stack = self._stack
        starts, ends, layers, parents = self.starts, self.ends, self.layers, self.parents
        passes = self.passes
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            top = stack[-1]
            if top[0] == layer_id:
                passes[layer_id] += 1
                return fn(*args, **kwargs)
            index = len(ends)
            parents.append(top[1])
            layers.append(layer_id)
            ends.append(0.0)
            stack.append((layer_id, index))
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """An explicit span around a block of the benchmark's own code."""
        layer_id = LAYER_INDEX[layer]
        stack = self._stack
        top = stack[-1]
        if top[0] == layer_id or not self.active:
            yield
            return
        index = len(self.ends)
        self.parents.append(top[1])
        self.layers.append(layer_id)
        self.ends.append(0.0)
        stack.append((layer_id, index))
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            stack.pop()

    @contextmanager
    def install(self, entry_points: Sequence[EntryPoint]) -> Iterator["Tracer"]:
        """Patch every entry point for the duration of the block."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for module_name, path, layer in entry_points:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    # An inherited method is shadowed on ``owner`` and the
                    # shadow deleted again on exit (``_MISSING``).
                    original = owner.__dict__.get(attr, _MISSING)
                    undo.append((owner, attr, original))
                    target = getattr(owner, attr) if original is _MISSING else original
                    setattr(owner, attr, self.wrap(target, layer))
                else:
                    original = getattr(module, attr)
                    wrapped = self.wrap(original, layer)
                    # ``from module import fn`` copies the binding into
                    # the importer's namespace: patch every copy.
                    for other in list(sys.modules.values()):
                        name = getattr(other, "__name__", "") or ""
                        if other is module or name.startswith("repro."):
                            if getattr(other, attr, None) is original:
                                undo.append((other, attr, original))
                                setattr(other, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def close_open_spans(self, at: float) -> None:
        """End every span still open (the run stopped inside it)."""
        ends = self.ends
        for index in range(len(ends)):
            if ends[index] == 0.0:
                ends[index] = at

    def summary(self, window_s: float, cost: Optional[Tuple[float, float, float]] = None
                ) -> Dict[str, float]:
        """Per-layer self time, plus the share of ``window_s`` that no
        root span covers.

        ``cost`` is the time the wrapper itself adds (measured now by
        :func:`span_cost` when not given): per span, the part inside it,
        charged to the span's own layer, and the part outside it, charged
        to its parent's layer; and per same-layer call, which opens no
        span.  All three are subtracted, so that the self times
        approximate those of an untraced run.
        """
        inside, outside, passthrough = span_cost() if cost is None else cost
        starts, ends, layers, parents = self.starts, self.ends, self.layers, self.parents
        count = len(ends)
        child = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        self_s = [0.0] * len(LAYERS)
        covered = 0.0
        for index in range(count):
            duration = ends[index] - starts[index]
            self_s[layers[index]] += duration - child[index] - inside
            parent = parents[index]
            if parent < 0:
                covered += duration
            else:
                self_s[layers[parent]] -= outside
        for index, calls in enumerate(self.passes):
            self_s[index] -= calls * passthrough
        out = {f"{name}.self_s": max(0.0, self_s[i]) for i, name in enumerate(LAYERS)}
        out["spans"] = float(count)
        out["uncovered_share"] = max(0.0, window_s - covered) / window_s if window_s > 0 else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write every span: one JSON header line, then the raw columns
        (starts, ends as float64; layers as int8; parents as int64)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "layers": list(LAYERS),
            "spans": len(self.ends),
            "columns": [
                ["start", self.starts.typecode, self.starts.itemsize],
                ["end", self.ends.typecode, self.ends.itemsize],
                ["layer", self.layers.typecode, self.layers.itemsize],
                ["parent", self.parents.typecode, self.parents.itemsize],
            ],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.starts, self.ends, self.layers, self.parents):
                column.tofile(out)


_MISSING = object()


def _noop() -> None:
    return None


def span_cost(calls: int = 20000, trials: int = 5) -> Tuple[float, float, float]:
    """Seconds the wrapper adds: per span inside it, per span outside it
    (in the parent), and per same-layer call.

    Times ``calls`` wrapped no-op calls under one parent span, first of
    another layer and then of the same one, less the cost of the bare
    calls; takes the least of ``trials`` attempts.
    """
    inside = outside = passthrough = float("inf")
    for _ in range(trials):
        def repeat(fn) -> None:
            for _ in range(calls):
                fn()

        start = time.perf_counter()
        repeat(_noop)
        bare = (time.perf_counter() - start) / calls
        tracer = Tracer()
        tracer.active = True
        tracer.wrap(repeat, "workload")(tracer.wrap(_noop, "client"))
        times = tracer.summary(0.0, cost=(0.0, 0.0, 0.0))
        inside = min(inside, times["client.self_s"] / calls)
        outside = min(outside, times["workload.self_s"] / calls - bare)
        tracer = Tracer()
        tracer.active = True
        tracer.wrap(repeat, "workload")(tracer.wrap(_noop, "workload"))
        times = tracer.summary(0.0, cost=(0.0, 0.0, 0.0))
        passthrough = min(passthrough, times["workload.self_s"] / calls - bare)
    return max(0.0, inside), max(0.0, outside), max(0.0, passthrough)
