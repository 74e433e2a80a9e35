"""Effects emitted by the sans-io protocol engines.

Handling one input (a token or a data message) produces an ordered list of
effects.  Order is semantically meaningful: effects before a
:class:`SendToken` constitute the pre-token multicast phase, effects after
it the post-token phase, and the host executes them sequentially.  Every
host executes them through one interpreter,
:class:`repro.core.transport_core.EffectInterpreter`.

The ordering effects are allocated on the benchmark hot path (one per
multicast / delivery run / token send), so they are hand-written
``__slots__`` classes rather than dataclasses (Python 3.9 lacks
``dataclass(slots=True)``).  The membership effects, rare by comparison,
are plain dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.core.messages import DataMessage
from repro.core.token import RegularToken

if TYPE_CHECKING:
    from repro.evs.configuration import Configuration


class Effect:
    """Marker base class for protocol effects."""

    __slots__ = ()


class MulticastData(Effect):
    """Multicast a data message to the ring (IP-multicast on the LAN)."""

    __slots__ = ("message", "retransmission")

    def __init__(self, message: DataMessage, retransmission: bool = False) -> None:
        self.message = message
        self.retransmission = retransmission

    def __repr__(self) -> str:
        return (
            f"MulticastData(message={self.message!r}, "
            f"retransmission={self.retransmission!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MulticastData:
            return NotImplemented
        return (
            self.message == other.message
            and self.retransmission == other.retransmission
        )

    __hash__ = None


class SendToken(Effect):
    """Unicast the updated token to the next participant in the ring."""

    __slots__ = ("token", "destination")

    def __init__(self, token: RegularToken, destination: int) -> None:
        self.token = token
        self.destination = destination

    def __repr__(self) -> str:
        return f"SendToken(token={self.token!r}, destination={self.destination!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SendToken:
            return NotImplemented
        return self.token == other.token and self.destination == other.destination

    __hash__ = None


class Deliver(Effect):
    """Deliver an in-order run of messages to the local application.

    ``messages`` is always a tuple in delivery (sequence) order, one
    message or many: the engines emit one effect per run the delivery
    frontier advanced by, so the hosting layer performs one observer
    hook call, one checker append and one callback round per run.

    A bare ordering engine leaves ``config_id`` and ``origin_ring`` as
    ``None``; the membership controller stamps both with the
    configuration the run is delivered in (the attribution the EVS
    checker needs).  A run never spans a view change.
    """

    __slots__ = ("messages", "config_id", "origin_ring")

    def __init__(
        self,
        messages: Tuple[DataMessage, ...],
        config_id: Optional[int] = None,
        origin_ring: Optional[int] = None,
    ) -> None:
        self.messages = messages
        self.config_id = config_id
        self.origin_ring = origin_ring

    def __repr__(self) -> str:
        return (
            f"Deliver(messages={self.messages!r}, config_id={self.config_id!r}, "
            f"origin_ring={self.origin_ring!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Deliver:
            return NotImplemented
        return (
            self.messages == other.messages
            and self.config_id == other.config_id
            and self.origin_ring == other.origin_ring
        )

    __hash__ = None


# ----------------------------------------------------------------------
# Membership effects: emitted by the membership controller on top of the
# ordering effects above (control sends, timers, view changes).
# ----------------------------------------------------------------------


@dataclass
class SendControl(Effect):
    """Send a membership control message.

    ``destination`` of ``None`` means multicast to all attached hosts.
    Control messages travel on the token port class.
    """

    message: Any
    destination: Optional[int] = None


@dataclass
class SetTimer(Effect):
    """(Re)arm a named timer to fire ``delay`` seconds from now."""

    name: str
    delay: float


@dataclass
class CancelTimer(Effect):
    """Cancel a named timer if armed."""

    name: str


@dataclass
class DeliverConfiguration(Effect):
    """Deliver a configuration change (regular or transitional)."""

    configuration: "Configuration"
