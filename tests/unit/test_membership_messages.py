"""Unit tests for membership message types."""

from repro.membership.messages import (
    BeaconMessage,
    CommitToken,
    JoinMessage,
    MemberInfo,
    RecoveredMessage,
    RecoveryStatus,
)
from tests.conftest import data_message


class TestJoinMessage:
    def test_candidates_excludes_failed(self):
        join = JoinMessage(
            sender=1,
            proc_set=frozenset({1, 2, 3}),
            fail_set=frozenset({3}),
            ring_seq=0,
        )
        assert join.candidates() == frozenset({1, 2})

    def test_wire_size_scales_with_sets(self):
        small = JoinMessage(1, frozenset({1}), frozenset(), 0)
        large = JoinMessage(1, frozenset(range(10)), frozenset({99}), 0)
        assert large.wire_size(0) > small.wire_size(0)


class TestCommitToken:
    def make(self):
        return CommitToken(ring_id=9, members=(1, 3, 5))

    def test_successor_wraps(self):
        token = self.make()
        assert token.successor_of(1) == 3
        assert token.successor_of(5) == 1

    def test_complete_when_all_infos_present(self):
        token = self.make()
        assert not token.complete
        for pid in token.members:
            token.infos[pid] = MemberInfo(old_ring_id=1, old_aru=0, high_seq=0)
        assert token.complete

    def test_copy_is_independent(self):
        token = self.make()
        clone = token.copy()
        clone.infos[1] = MemberInfo(old_ring_id=1, old_aru=0, high_seq=0)
        assert 1 not in token.infos

    def test_wire_size_grows_with_infos(self):
        token = self.make()
        before = token.wire_size(0)
        token.infos[1] = MemberInfo(old_ring_id=1, old_aru=0, high_seq=0)
        assert token.wire_size(0) > before


class TestRecoveryMessages:
    def test_recovered_wire_size_includes_inner(self):
        message = RecoveredMessage(old_ring_id=1, message=data_message(1, payload=b"xyz"))
        assert message.wire_size(34) >= 3 + 34

    def test_status_wire_size_scales_with_have(self):
        small = RecoveryStatus(1, 2, 1, (), True)
        big = RecoveryStatus(1, 2, 1, tuple(range(50)), False)
        assert big.wire_size(0) > small.wire_size(0)

    def test_beacon_size_fixed(self):
        assert BeaconMessage(1, 2).wire_size(0) == BeaconMessage(9, 10**12).wire_size(0)
