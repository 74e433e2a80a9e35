"""Output checks for the three workloads, and a self-test proving that
each check catches a corrupted stream.

Run the self-test with ``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

Key = Hashable


def prefix_check(streams: Dict[int, Sequence[Key]]) -> Tuple[int, List[str]]:
    """Every receiver's stream must be a prefix of one common stream.

    Returns ``(mismatches, problems)``: the number of stream positions
    that disagree with the common stream (or repeat a message), and one
    line per offending receiver.
    """
    longest = max(streams.values(), key=len, default=())
    mismatches = len(longest) - len(set(longest))
    problems = []
    if mismatches:
        problems.append(f"the longest delivery stream repeats {mismatches} message(s)")
    for pid, stream in sorted(streams.items()):
        bad = sum(1 for mine, common in zip(stream, longest) if mine != common)
        if bad:
            mismatches += bad
            first = next(
                index for index, (mine, common) in enumerate(zip(stream, longest))
                if mine != common
            )
            problems.append(
                f"receiver {pid}: {bad} position(s) differ from the common stream, "
                f"first at index {first} ({stream[first]!r} != {longest[first]!r})"
            )
    return mismatches, problems


def common_prefix_check(a: Sequence[Key], b: Sequence[Key]) -> Tuple[int, List[str]]:
    """Two receivers' streams must agree on their common prefix."""
    bad = [index for index, (x, y) in enumerate(zip(a, b)) if x != y]
    if not bad:
        return 0, []
    first = bad[0]
    return len(bad), [
        f"client streams disagree at {len(bad)} position(s) of their common prefix, "
        f"first at index {first} ({a[first]!r} != {b[first]!r})"
    ]


def churn_check(checker, crashed: Iterable[int], rings: Dict[int, tuple],
                states: Dict[int, str], live: Sequence[int]) -> List[str]:
    """The EVS checker passes and the live hosts form one operational ring."""
    from repro.evs.checker import EvsViolation

    problems = []
    try:
        checker.check(crashed=crashed)
    except EvsViolation as violation:
        problems.append(f"EVS violation: {violation}")
    if set(rings.values()) != {tuple(live)} or set(states.values()) != {"operational"}:
        problems.append(f"live hosts did not reconverge: rings={rings} states={states}")
    return problems


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------


def _expect(results: List[str], name: str, caught: bool) -> None:
    results.append(f"{'ok  ' if caught else 'FAIL'} {name}")


def self_test() -> List[str]:
    """Run every check on real output and on corrupted copies of it.

    Returns one line per case; a line starting with ``FAIL`` means a
    check passed a corrupted stream or rejected a clean one.
    """
    results: List[str] = []

    # sim-ring-saturated: real streams from a short run.
    import sim_ring

    streams = sim_ring.short_run_streams()
    _expect(results, "ring: clean streams pass", prefix_check(streams)[0] == 0)
    victim = max(streams, key=lambda pid: len(streams[pid]))
    for label, corrupt in (
        ("two deliveries swapped", lambda s: s[:10] + [s[11], s[10]] + s[12:]),
        ("one delivery dropped", lambda s: s[:10] + s[11:]),
        ("one delivery repeated", lambda s: s[:11] + [s[10]] + s[11:]),
    ):
        bad = dict(streams)
        bad[victim] = corrupt(list(streams[victim]))
        _expect(results, f"ring: {label} is caught", prefix_check(bad)[0] > 0)

    # fleet-closed-loop: two clients' received streams.
    stream = [(client, seq) for seq in range(50) for client in (0, 1)]
    _expect(results, "fleet: agreeing prefixes pass",
            common_prefix_check(stream, stream[:70])[0] == 0)
    swapped = stream[:20] + [stream[21], stream[20]] + stream[22:]
    _expect(results, "fleet: swapped delivery is caught",
            common_prefix_check(stream, swapped)[0] > 0)
    _expect(results, "fleet: dropped delivery is caught",
            common_prefix_check(stream, stream[:5] + stream[6:])[0] > 0)

    # sim-membership-churn: a real membership trace, then a corrupted one.
    import sim_churn

    cluster = sim_churn.short_run_cluster()
    live = cluster.live_pids()
    _expect(results, "churn: clean trace passes",
            not churn_check(cluster.checker, (), cluster.rings(), cluster.states(), live))
    trace = cluster.checker.traces[live[0]]
    positions = [i for i, event in enumerate(trace) if hasattr(event, "seq")]
    i, j = positions[3], positions[4]
    trace[i], trace[j] = trace[j], trace[i]
    _expect(results, "churn: reordered delivery is caught",
            bool(churn_check(cluster.checker, (), cluster.rings(), cluster.states(), live)))
    trace[i], trace[j] = trace[j], trace[i]
    del trace[positions[5]]
    _expect(results, "churn: dropped delivery is caught",
            bool(churn_check(cluster.checker, (), cluster.rings(), cluster.states(), live)))
    split = dict(cluster.rings())
    split[live[0]] = (live[0],)
    _expect(results, "churn: split ring is caught",
            bool(churn_check(cluster.checker, (), split, cluster.states(), live)))
    return results
