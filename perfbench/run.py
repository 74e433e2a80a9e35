"""One benchmark for the simulator and the real runtime.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``sim-ring-saturated`` -- bare ring, 8 hosts, 10G, closed loop;
* ``sim-membership-churn`` -- membership stack under faults, open loop;
* ``fleet-closed-loop`` -- three daemons on loopback UDP, two clients.

A run repeats its workload for ``--seconds`` of measured time and prints
every metric by name and unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced repeat follows the untraced ones and the metrics are the
per-layer ones.  The process exits nonzero when any output check or the
determinism guard fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from common import Outcome, ReferenceClock, guard_identical, peak_rss_mb, percentile
from tracing import CLIENT_ENTRY_POINTS, SIM_ENTRY_POINTS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Span dumps of traced runs, relative to the repository root.
OUT_DIR = Path(".perfbench_out")

MIN_REPEATS = 3
MIN_SETUPS = 15
MIN_FLEET_SETUPS = 9

#: ROADMAP cProfile split of the closed-loop 10G smoke case, by layer
#: (self-time shares), for comparison with the traced saturated run.
CPROFILE_REFERENCE = {
    "kernel+netmodel": "~55%",
    "engine": "~17-20%",
    "driver": "~16%",
}


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------


def run_sim(name: str, seed: int, seconds: float, trace: bool):
    import sim_churn
    import sim_ring

    module = sim_ring if name == "sim-ring-saturated" else sim_churn
    out = Outcome()
    clock = ReferenceClock()
    setups: List[float] = []
    repeats: List[dict] = []
    measured = 0.0
    while measured < seconds or len(repeats) < MIN_REPEATS:
        start = time.perf_counter()
        repeat = module.Repeat(seed)
        setups.append(clock.convert(time.perf_counter() - start))
        wall, reference = repeat.run(convert=clock.convert)
        result = repeat.results(wall)
        del repeat
        result["ref_s"] = reference
        result["factor"] = reference / wall
        repeats.append(result)
        measured += wall
    while len(setups) < MIN_SETUPS:
        start = time.perf_counter()
        module.Repeat(seed)
        setups.append(clock.convert(time.perf_counter() - start))

    walls = [r["wall_s"] for r in repeats]
    exact = repeats[0]["exact"]
    samples = sum(len(r["latency"]) for r in repeats)
    metrics = out.metrics
    metrics["deliveries_per_s"] = median([r["exact"]["deliveries"] / r["ref_s"] for r in repeats])
    metrics["ops_per_s"] = median([r["exact"]["ops"] / r["ref_s"] for r in repeats])
    metrics["latency_p50_ms"] = median(
        [percentile(r["latency"], 0.50) * 1e3 for r in repeats]
    )
    metrics["latency_p99_ms"] = median(
        [percentile(r["latency"], 0.99) * 1e3 for r in repeats]
    )
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    out.notes.append(
        f"{len(repeats)} repeats, {measured:.2f} s measured (wall per repeat "
        f"{min(walls):.3f}-{max(walls):.3f} s); {len(setups)} set-ups; "
        f"{samples} latency samples"
    )
    out.notes.append(_speed_note(clock.scales))

    counts = [r["exact"] for r in repeats]
    if trace:
        tracer = Tracer()
        with tracer.install(SIM_ENTRY_POINTS):
            repeat = module.Repeat(seed, tracer=tracer)
            tracer.active = True
            traced_wall, traced_reference = repeat.run(convert=clock.convert)
            tracer.active = False
            traced = repeat.results(traced_wall)
            del repeat
        factor = traced_reference / traced_wall
        repeats.append(traced)
        counts.append(traced["exact"])
        summary = tracer.summary(traced_wall)
        tracer.dump(OUT_DIR / f"spans-{name}.bin")
        _layer_metrics(metrics, summary, factor)
        metrics["trace.overhead"] = traced_reference / median(
            [r["ref_s"] for r in repeats[:-1]]
        )
        metrics["trace.uncovered_share"] = summary["uncovered_share"]
        if module is sim_ring:
            # The stage times are simulated, so they come from one more,
            # untimed repeat with the observer attached.
            observer = sim_ring.StageObserver()
            repeat = module.Repeat(seed, observer=observer)
            staged = repeat.results(repeat.run()[0])
            del repeat
            repeats.append(staged)
            counts.append(staged["exact"])
            metrics["stage.token_wait_p50_us"] = percentile(observer.token_wait, 0.5) * 1e6
            metrics["stage.order_wait_p50_us"] = percentile(observer.order_wait, 0.5) * 1e6
        out.notes.append(
            f"traced repeat: {traced_wall:.3f} s wall, {int(summary['spans'])} spans "
            f"written to {OUT_DIR / f'spans-{name}.bin'}"
        )
        if module is sim_ring:
            out.notes.extend(_share_notes(summary, traced_wall))

    deliveries = exact["deliveries"]
    metrics["kernel.events_per_delivery"] = exact["events"] / deliveries
    metrics["netmodel.frames_per_delivery"] = exact["frames"] / deliveries
    metrics["netmodel.cpu_tasks_per_delivery"] = exact["cpu_tasks"] / deliveries
    metrics["engine.tokens_per_delivery"] = exact["token_rounds"] / deliveries
    metrics["engine.retransmit_ratio"] = exact["retransmissions"] / exact["originated"]
    metrics["workload.latency_samples"] = samples
    metrics["workload.refused"] = exact.get("refused", 0)
    for key in ("membership.installs", "faults.applied", "model.goodput_mbps",
                "model.latency_p50_us", "model.latency_p99_us",
                "model.service_gap_max_ms"):
        if key in exact:
            metrics[key] = exact[key]
    if module is sim_churn:
        metrics["evs.check_s"] = median([r["check_s"] * r["factor"] for r in repeats
                                          if "factor" in r])

    out.problems += guard_identical(name, counts)
    for index, result in enumerate(repeats):
        out.problems += [f"repeat {index}: {p}" for p in result["problems"]]
    out.attempted = sum(r["attempted"] for r in repeats)
    out.failed = sum(r["failed"] for r in repeats)
    refused = sum(r["exact"].get("refused", 0) for r in repeats)
    out.notes.append(
        f"error_rate = {(out.failed + refused) / out.attempted:.6f} "
        f"({refused} refused, {out.failed} lost or out of order, of {out.attempted} attempted)"
    )
    return out


def _speed_note(scales: List[float], clock: str = "wall") -> str:
    return (
        f"times in reference seconds: {clock} x {min(scales):.3f}-{max(scales):.3f} "
        f"(median {median(scales):.3f})"
    )


def _layer_metrics(metrics: Dict[str, float], summary: Dict[str, float], factor: float) -> None:
    """Self times of the traced run, in reference seconds."""
    for key, value in summary.items():
        if key.endswith(".self_s"):
            metrics[key] = value * factor
    metrics["loop.idle_s"] = summary["idle.self_s"] * factor


def _share_notes(summary: Dict[str, float], wall: float) -> List[str]:
    self_s = {key[: -len(".self_s")]: value for key, value in summary.items()
              if key.endswith(".self_s")}
    total = sum(self_s.values())
    share = {layer: value / total for layer, value in self_s.items()}
    ours = {
        "kernel+netmodel": share["kernel"] + share["netmodel"],
        "engine": share["engine"],
        "driver": share["driver"],
    }
    lines = [
        f"layer shares of the {total:.3f} s of self time left after removing the tracer's "
        f"own cost ({wall:.3f} s traced wall), beside the ROADMAP cProfile split "
        f"(closed-loop-10g):"
    ]
    for layer, value in ours.items():
        lines.append(f"  {layer:<16} {value:6.1%}   cProfile {CPROFILE_REFERENCE[layer]}")
    lines.append(
        f"  {'workload':<16} {share['workload']:6.1%}   (load generator and probes; "
        f"not in the cProfile split)"
    )
    return lines


# ----------------------------------------------------------------------
# Real runtime
# ----------------------------------------------------------------------


def run_fleet(seed: int, seconds: float, trace: bool):
    import fleet_load

    out = Outcome()
    rounds = []
    while sum(r.load_s for r in rounds) < seconds or len(rounds) < MIN_REPEATS:
        rounds.append(fleet_load.run_round(seed))
    metrics = out.metrics
    ops_rates = [rate for r in rounds for rate in r.ops_rates]
    metrics["ops_per_s"] = median(ops_rates)
    metrics["deliveries_per_s"] = median([rate for r in rounds for rate in r.delivery_rates])
    # Each round's percentiles over all of its echoes; the median over
    # rounds keeps a round the machine disturbed from moving the tail.
    metrics["latency_p50_ms"] = median([percentile(r.latencies, 0.50) for r in rounds]) * 1e3
    metrics["latency_p99_ms"] = median([percentile(r.latencies, 0.99) for r in rounds]) * 1e3
    setups = [r.setup_s for r in rounds]
    while len(setups) < MIN_FLEET_SETUPS:
        setups.append(fleet_load.setup_only())
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    samples = sum(len(r.latencies) for r in rounds)
    load_s = sum(r.load_s for r in rounds)
    out.notes.append(
        f"{len(rounds)} rounds of {fleet_load.CLIENTS * fleet_load.OPS_PER_CLIENT} multicasts "
        f"({load_s:.2f} s of load), {len(ops_rates)} slices; "
        f"{len(setups)} set-ups; "
        f"{samples} latency samples; peak RSS is the daemon process's"
    )
    out.notes.append(
        f"the progress clock ran {sum(r.busy_s for r in rounds) / load_s:.3f} "
        f"of wall time during the load"
    )
    out.notes.append(_speed_note([f for r in rounds for f in r.scales], "progress clock"))

    ops = sum(r.sent for r in rounds)
    totals: Dict[str, int] = {}
    for r in rounds:
        for key, value in r.daemon["counters"].items():
            totals[key] = totals.get(key, 0) + value
    client_deliveries = totals["messages_delivered_to_clients"]
    metrics["engine.tokens_per_delivery"] = totals["token_rounds"] / client_deliveries
    metrics["engine.retransmit_ratio"] = totals["retransmissions"] / totals["originated"]
    metrics["runtime.datagrams_per_op"] = totals["datagrams_sent"] / ops
    metrics["runtime.decode_errors"] = totals["decode_errors"]
    metrics["spread.client_deliveries_per_op"] = client_deliveries / ops
    metrics["spread.clients_dropped_slow"] = totals["clients_dropped_slow"]
    metrics["workload.latency_samples"] = samples

    if trace:
        tracer = Tracer()
        spans = str(OUT_DIR / "spans-fleet-closed-loop-daemons.bin")
        with tracer.install(CLIENT_ENTRY_POINTS):
            traced = fleet_load.run_round(seed, tracer, spans)
        rounds.append(traced)
        # The daemon's spans are on its wall clock: scale them to the
        # progress clock, then to reference seconds.
        factor = median(traced.scales) * traced.busy_s / traced.load_s
        daemon_trace = traced.daemon["trace"]
        _layer_metrics(metrics, daemon_trace, factor)
        for key in ("client.self_s", "workload.self_s"):
            metrics[key] = traced.client_trace[key] * factor
        metrics["client.multicast_us_p50"] = percentile(traced.multicast_s, 0.5) * 1e6
        metrics["trace.overhead"] = median(ops_rates) / median(traced.ops_rates)
        metrics["trace.uncovered_share"] = daemon_trace["uncovered_share"]
        tracer.dump(OUT_DIR / "spans-fleet-closed-loop-client.bin")
        out.notes.append(
            f"traced round: {median(traced.ops_rates):.1f} ops/s, "
            f"{int(daemon_trace['spans'])} daemon spans in {spans}"
        )

    with contextlib.suppress(OSError):
        fleet_load.RUN_DIR.rmdir()
    for index, r in enumerate(rounds):
        out.problems += [f"round {index}: {p}" for p in r.problems]
    out.attempted = sum(r.sent for r in rounds)
    out.failed = sum(r.unechoed + r.mismatches for r in rounds)
    out.notes.append(
        f"error_rate = {out.failed / out.attempted:.6f} "
        f"({out.failed} lost or out of order, of {out.attempted} attempted)"
    )
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def report(workload: str, seed: int, trace: bool, outcome, spec: dict) -> dict:
    """Print every metric by name and unit; return the result object."""
    kind = "per_layer" if trace else "end_to_end"
    declared = spec[kind]
    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'untraced'} run")
    for note in outcome.notes:
        print(f"  {note}")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = float(outcome.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        shown = f"{value:.6g}" if name in outcome.metrics else "0 (layer not exercised)"
        print(f"  {name:<34} {shown} {unit}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: " + __doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check catches a corrupted stream")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    if args.self_test:
        import checks

        lines = checks.self_test()
        print("\n".join(lines))
        return 0 if all(line.startswith("ok") for line in lines) else 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        print(f"error: --workload must be one of {names}", file=sys.stderr)
        return 2
    if args.workload == "fleet-closed-loop":
        outcome = run_fleet(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_sim(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(args.workload, args.seed, bool(args.trace), outcome, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
