"""Boundary tests over *real* loopback UDP.

The sim-layer fences live in tests/property/test_spread_boundaries.py;
these re-pin the same edges end to end through actual sockets: payloads
at the fragmentation chunk fence (MTU−1 / MTU / MTU+1) must survive the
full daemon pipeline, a ring configured for maximum datagram packing
must coalesce while delivering the identical total order, and a
malformed datagram must be counted, not crash the receive loop.
"""

import asyncio
import os
import socket
import tempfile

from repro.core.codec import MAGIC
from repro.core.config import ProtocolConfig
from repro.membership.codec import TYPE_COMMIT, TYPE_JOIN, TYPE_STATUS
from repro.runtime.node import RingNode
from repro.runtime.ports import ephemeral_ring_addresses
from repro.spread.client_api import SpreadClient
from repro.spread.daemon import SpreadDaemon
from tests.integration.test_runtime import (
    FAST_TIMEOUTS,
    start_ring,
    stop_all,
    wait_until,
)

#: The spread pipeline's default pack budget / fragmentation chunk size.
MTU = 1350


def test_payloads_at_chunk_fence_roundtrip_over_udp():
    """MTU−1 and MTU ride one envelope; MTU+1 fragments — all intact."""

    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers = ephemeral_ring_addresses(range(2))
            daemons = [
                SpreadDaemon(
                    pid,
                    peers,
                    os.path.join(tmp, f"d{pid}.sock"),
                    timeouts=FAST_TIMEOUTS,
                    pack_budget=MTU,
                )
                for pid in range(2)
            ]
            for daemon in daemons:
                await daemon.start()
            try:
                assert await wait_until(
                    lambda: all(len(d.node.members) == 2 for d in daemons)
                )
                sender = SpreadClient(
                    daemons[0].socket_path, name="snd"
                )
                receiver = SpreadClient(
                    daemons[1].socket_path, name="rcv"
                )
                await sender.connect()
                await receiver.connect()
                await receiver.join("fence")
                await receiver.wait_for_view("fence", 1)
                sizes = (MTU - 1, MTU, MTU + 1)
                for index, size in enumerate(sizes):
                    # Distinct fill bytes so a mis-reassembled payload
                    # cannot masquerade as its neighbour.
                    sender.multicast(
                        ["fence"], bytes([index + 1]) * size
                    )
                got = await asyncio.wait_for(
                    receiver.receive_messages(len(sizes)), 15
                )
                payloads = [bytes(m.payload) for m in got]
                assert [len(p) for p in payloads] == list(sizes)
                for index, payload in enumerate(payloads):
                    assert payload == bytes([index + 1]) * len(payload)
                await sender.close()
                await receiver.close()
            finally:
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())


def test_max_packing_coalesces_and_preserves_order():
    """messages_per_datagram > 1 actually batches over real sockets,
    and both nodes still deliver the identical total order."""

    async def scenario():
        mpd = 8
        config = ProtocolConfig(messages_per_datagram=mpd)
        peers = ephemeral_ring_addresses(range(2))
        nodes = [
            RingNode(
                pid, peers, timeouts=FAST_TIMEOUTS, protocol_config=config
            )
            for pid in range(2)
        ]
        for node in nodes:
            await node.start()
        try:
            assert await wait_until(
                lambda: all(len(n.members) == 2 for n in nodes)
            )
            total = 4 * mpd
            for index in range(total):
                nodes[0].submit(payload=b"pack:%d" % index)
            done = await wait_until(
                lambda: all(len(n.delivered) >= total for n in nodes)
            )
            assert done, [len(n.delivered) for n in nodes]
            # Batching really happened on the wire: the sender emitted
            # multi-message datagrams, and at least one was full-size.
            assert nodes[0].batches_sent > 0
            assert nodes[0].batched_messages > nodes[0].batches_sent
            assert nodes[0].batched_messages <= total
            orders = [
                [(m.ring_id, m.seq) for m in n.delivered] for n in nodes
            ]
            assert orders[0] == orders[1]
            payloads = {bytes(m.payload) for m in nodes[1].delivered}
            assert payloads == {b"pack:%d" % i for i in range(total)}
        finally:
            for node in nodes:
                await node.stop()

    asyncio.run(scenario())


def test_single_message_never_batched():
    """mpd=1 (the paper's prototype default) keeps one message per
    datagram — the batch path must not engage."""

    async def scenario():
        peers = ephemeral_ring_addresses(range(2))
        nodes = [
            RingNode(pid, peers, timeouts=FAST_TIMEOUTS) for pid in range(2)
        ]
        for node in nodes:
            await node.start()
        try:
            assert await wait_until(
                lambda: all(len(n.members) == 2 for n in nodes)
            )
            for index in range(10):
                nodes[0].submit(payload=b"solo:%d" % index)
            assert await wait_until(
                lambda: all(len(n.delivered) >= 10 for n in nodes)
            )
            assert nodes[0].batches_sent == 0
            assert nodes[0].batched_messages == 0
        finally:
            for node in nodes:
                await node.stop()

    asyncio.run(scenario())


def test_short_control_datagram_on_token_port_is_counted_not_fatal():
    """Magic, a JOIN/COMMIT/STATUS type byte, then 17 zero bytes: each
    is a decode error on a live node's token port, and the ring keeps
    ordering traffic afterwards."""

    async def scenario():
        nodes = await start_ring(3)
        try:
            target = nodes[1]
            address = target.transport.peers[target.pid]
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                for msg_type in (TYPE_JOIN, TYPE_COMMIT, TYPE_STATUS):
                    sock.sendto(
                        bytes([MAGIC, msg_type]) + bytes(17),
                        (address.host, address.token_port),
                    )
            finally:
                sock.close()
            assert await wait_until(lambda: target.decode_errors >= 3)
            for index in range(10):
                nodes[0].submit(payload=b"after-%d" % index)
            assert await wait_until(
                lambda: all(len(node.delivered) >= 10 for node in nodes)
            ), [len(node.delivered) for node in nodes]
            assert target.decode_errors == 3
            assert not target._loop_task.done()
        finally:
            await stop_all(nodes)

    asyncio.run(scenario())
