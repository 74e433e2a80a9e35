"""Membership control messages.

All control messages travel on the token port class, so the normal-case
data path never has to inspect them.  Each one sizes itself with
``wire_size(header_bytes)``, where ``header_bytes`` is the
implementation's data-message header; only :class:`RecoveredMessage`,
which wraps a data message, uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from repro.core.messages import DataMessage


@dataclass(frozen=True)
class JoinMessage:
    """Multicast while gathering: the sender's current view of who is
    reachable (``proc_set``) and who has been declared failed
    (``fail_set``), plus the highest ring sequence number it has seen."""

    sender: int
    proc_set: FrozenSet[int]
    fail_set: FrozenSet[int]
    ring_seq: int

    def wire_size(self, header_bytes: int) -> int:
        return 24 + 4 * (len(self.proc_set) + len(self.fail_set))

    def candidates(self) -> FrozenSet[int]:
        return self.proc_set - self.fail_set


@dataclass(frozen=True)
class MemberInfo:
    """One member's state from its previous ring, carried on the commit
    token so every member can compute the recovery exchange.

    ``last_delivered`` is the member's application-visible delivery
    frontier in its old ring.  Survivors take the maximum over their old
    ring's members: every sequence number at or below it was delivered by
    *someone* in the old regular configuration (so its stability was
    already proven there), and therefore must be delivered by every
    survivor in the old regular configuration too — even Safe messages —
    or the survivors would disagree on the delivered set of the closed
    ring (an Extended Virtual Synchrony violation)."""

    old_ring_id: int
    old_aru: int
    high_seq: int
    last_delivered: int = 0


@dataclass
class CommitToken:
    """Circulates (twice) around the proposed new ring.

    The first rotation collects each member's :class:`MemberInfo`; on the
    second rotation each member sees the complete picture and moves to
    Recovery.  ``rotation`` counts completed passes at the representative.
    """

    ring_id: int
    members: Tuple[int, ...]
    infos: Dict[int, MemberInfo] = field(default_factory=dict)
    rotation: int = 0

    def wire_size(self, header_bytes: int) -> int:
        return 32 + 8 * len(self.members) + 32 * len(self.infos)

    def copy(self) -> "CommitToken":
        return CommitToken(
            ring_id=self.ring_id,
            members=self.members,
            infos=dict(self.infos),
            rotation=self.rotation,
        )

    def successor_of(self, pid: int) -> int:
        index = self.members.index(pid)
        return self.members[(index + 1) % len(self.members)]

    @property
    def complete(self) -> bool:
        return len(self.infos) == len(self.members)


@dataclass(frozen=True)
class RecoveredMessage:
    """A data message from an old ring re-multicast during Recovery."""

    old_ring_id: int
    message: DataMessage

    def wire_size(self, header_bytes: int) -> int:
        return 16 + self.message.wire_size(header_bytes)


@dataclass(frozen=True)
class BeaconMessage:
    """Low-rate presence beacon multicast by operational members.

    Rings merge when one ring observes traffic from another (a "foreign
    message", as in Totem).  Data traffic triggers this naturally; beacons
    guarantee discovery even when rings are idle after a partition heals.
    """

    sender: int
    ring_id: int

    def wire_size(self, header_bytes: int) -> int:
        return 16


@dataclass(frozen=True)
class RecoveryStatus:
    """Recovery gossip: which old-ring sequence numbers the sender holds.

    ``have`` lists held seqs in the exchange window ``(low, high]`` of the
    sender's old ring; ``complete`` means the sender has every seq that is
    collectively available.  The union of everyone's ``have`` defines what
    is recoverable — seqs nobody holds are permanent gaps, skipped after
    the transitional configuration (EVS permits this).
    """

    sender: int
    new_ring_id: int
    old_ring_id: int
    have: Tuple[int, ...]
    complete: bool

    def wire_size(self, header_bytes: int) -> int:
        return 32 + 4 * len(self.have)
