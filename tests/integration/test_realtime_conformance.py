"""The sim↔real differential oracle.

The simulator and the asyncio/UDP runtime share one sans-io protocol
core; this oracle replays one serialized workload through both and
requires the delivered streams to be *identical* (fault-free) or
calm-prefix-equal (crash/restart).  The serialized schedule — one
sender per burst, barrier until every live node delivered the burst —
is what makes exact stream equality sound: with no contention the
total order is schedule-independent, so any difference is a real
implementation divergence, not scheduling noise.
"""

import dataclasses

from repro.conformance.realtime import (
    RealtimeReport,
    RealtimeWorkload,
    run_realtime_differential,
    run_sim_serialized,
)
from repro.core.config import ProtocolConfig
from repro.runtime.node import RingNode
from repro.sim.membership_driver import MembershipHost

#: Small workload so each oracle run stays in CI-smoke territory.
WORKLOAD = RealtimeWorkload(
    num_hosts=3, bursts=4, burst_size=4, probe_bursts=2, probe_burst_size=3
)


def test_fault_free_streams_identical():
    report = run_realtime_differential(workload=WORKLOAD, crash=False)
    assert report.ok, [d.describe() for d in report.divergences]
    assert report.deliveries["sim"] == report.deliveries["real"] > 0
    assert report.converged == {"sim": True, "real": True}


def test_coalesced_streams_identical(monkeypatch):
    """messages_per_datagram=4 on both sides: each burst coalesces in the
    membership sim and on the wire, and the streams stay identical."""
    runs = {"sim": [], "real": []}
    for cls, side in ((MembershipHost, "sim"), (RingNode, "real")):
        def counting(self, messages, _send=cls.send_run, _runs=runs[side]):
            _runs.append(len(messages))
            _send(self, messages)

        monkeypatch.setattr(cls, "send_run", counting)
    report = run_realtime_differential(
        workload=WORKLOAD,
        crash=False,
        protocol_config=ProtocolConfig(messages_per_datagram=4),
    )
    assert report.ok, [d.describe() for d in report.divergences]
    assert report.deliveries["sim"] == report.deliveries["real"] > 0
    assert runs["sim"] and runs["real"]
    assert max(runs["sim"] + runs["real"]) <= 4


def test_crash_restart_calm_prefixes_agree():
    workload = dataclasses.replace(WORKLOAD, crash_burst=1, restart_burst=2)
    report = run_realtime_differential(workload=workload, crash=True)
    assert report.ok, [d.describe() for d in report.divergences]
    assert report.deliveries["sim"] == report.deliveries["real"] > 0


def test_injected_divergence_is_detected():
    """The oracle actually *detects* — two sim runs with different
    workloads stand in for a buggy real runtime."""

    baseline = run_sim_serialized(WORKLOAD, crash=False)
    mutated = run_sim_serialized(
        dataclasses.replace(WORKLOAD, burst_size=WORKLOAD.burst_size + 1),
        crash=False,
    )
    report = run_realtime_differential(
        workload=WORKLOAD, crash=False, sim_run=baseline, real_run=mutated
    )
    assert not report.ok
    assert report.divergences


def test_report_json_roundtrip():
    report = run_realtime_differential(workload=WORKLOAD, crash=False)
    rebuilt = RealtimeReport.from_json(report.to_json())
    assert rebuilt.ok == report.ok
    assert rebuilt.workload == report.workload
    assert rebuilt.deliveries == report.deliveries
