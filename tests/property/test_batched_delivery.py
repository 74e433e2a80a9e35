"""Property: batched data handling ≡ per-message data handling.

The coalescing layer feeds the engine whole datagrams through
``on_data_batch``; the uncoalesced path feeds the same messages one at a
time through ``on_data``.  The two must be observationally equivalent no
matter how the arrival stream interleaves in-order runs, gaps, reordered
stragglers, foreign-ring noise, and SAFE blockers, and no matter how the
stream is chunked into datagrams:

* the flattened delivery stream — ``(pid, seq, payload, service)`` in
  order — is identical;
* every engine-visible counter (messages delivered, delivery frontier,
  buffer aru, token priority) is identical;
* an observer wired through the ``on_deliver_batch`` compat shim sees
  the identical per-message hook sequence.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import ProtocolConfig
from repro.core.events import Deliver
from repro.core.messages import DataMessage, DeliveryService
from repro.core.participant import AcceleratedRingParticipant
from repro.obs.observer import ProtocolObserver

RECEIVER = 1
SENDER = 0
RING = (SENDER, RECEIVER)
RING_ID = 1
FOREIGN_RING_ID = 99


class RecordingObserver(ProtocolObserver):
    """Records per-message deliveries; relies on the base class to fan
    ``on_deliver_batch`` out, so the shim itself is under test."""

    def __init__(self):
        self.seen = []

    def on_deliver(self, pid, message, now=None):
        self.seen.append((pid, message.seq, message.payload))


def _message(seq: int, service: DeliveryService, ring_id: int) -> DataMessage:
    return DataMessage(
        seq=seq,
        pid=SENDER,
        round=1,
        service=service,
        payload=b"payload-%d" % seq,
        ring_id=ring_id,
    )


def _flatten(effects, observer, pid):
    """Deliveries from an effect list, firing the observer the way the
    hosting layers do (one batch hook per delivery run)."""
    out = []
    for effect in effects:
        if isinstance(effect, Deliver):
            observer.on_deliver_batch(pid, effect.messages)
            out.extend(effect.messages)
    return out


def _counters(participant: AcceleratedRingParticipant):
    return (
        participant.messages_delivered,
        participant._last_delivered,
        participant.buffer.local_aru,
        participant.token_has_priority,
    )


arrival_plans = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=30),  # seq
        st.sampled_from(
            [DeliveryService.AGREED, DeliveryService.FIFO, DeliveryService.SAFE]
        ),
        st.booleans(),  # foreign-ring noise message
    ),
    min_size=0,
    max_size=60,
)


@given(plan=arrival_plans, chunk_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_batched_equals_per_message(plan, chunk_seed):
    arrivals = [
        _message(seq, service, FOREIGN_RING_ID if foreign else RING_ID)
        for seq, service, foreign in plan
    ]

    config = ProtocolConfig()
    scalar = AcceleratedRingParticipant(RECEIVER, RING, config, ring_id=RING_ID)
    batched = AcceleratedRingParticipant(RECEIVER, RING, config, ring_id=RING_ID)
    scalar_obs = RecordingObserver()
    batched_obs = RecordingObserver()

    scalar_stream = []
    for message in arrivals:
        scalar_stream.extend(
            _flatten(scalar.on_data(message), scalar_obs, RECEIVER)
        )

    rng = random.Random(chunk_seed)
    batched_stream = []
    index = 0
    while index < len(arrivals):
        size = rng.randint(1, 8)
        chunk = arrivals[index : index + size]
        index += size
        batched_stream.extend(
            _flatten(batched.on_data_batch(chunk), batched_obs, RECEIVER)
        )

    scalar_view = [(m.pid, m.seq, m.payload, m.service) for m in scalar_stream]
    batched_view = [(m.pid, m.seq, m.payload, m.service) for m in batched_stream]
    assert batched_view == scalar_view
    assert _counters(batched) == _counters(scalar)
    assert batched_obs.seen == scalar_obs.seen
