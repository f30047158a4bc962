"""Pure functions that turn child run records into benchmark metrics.

A *record* is the JSON object a `perfbench` child prints after `RECORD`,
plus the fields `run.py` adds: `cpu_s` and `peak_rss_mb` from the child's
rusage, and `slowdown` from the calibration kernel run around it. Nothing here runs a process, so the self-tests in
`test_metrics.py` can feed it hand-made records.
"""

import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it.

    Returns `(p, value)`, or `None` when there are fewer than eleven
    samples. Uses the nearest-rank definition on the sorted samples.
    """
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * n))
    return p, ordered[rank - 1]


def at_reference_speed(record, key):
    """A host time of `record` divided by its `slowdown`: the time the
    repetition would have taken at the calibration's reference speed."""
    return record[key] / record["slowdown"]


def delivered_per_s(record):
    return record["completed"] / at_reference_speed(record, "wall_s")


def ns_per_event(engine_s, events):
    return engine_s / events * 1e9 if events else 0.0


def shard_imbalance(shard_events):
    """max ÷ mean of per-shard event counts; 0 when no shard was probed."""
    if not shard_events:
        return 0.0
    mean = sum(shard_events) / len(shard_events)
    return max(shard_events) / mean if mean else 0.0


def failed_frac(attempted, failed):
    return failed / attempted


def end_to_end(records):
    """Per-repetition samples of every end-to-end metric, host times at
    the reference speed."""
    return {
        "wall_s": [at_reference_speed(r, "wall_s") for r in records],
        "setup_s": [at_reference_speed(r, "setup_s") for r in records],
        "delivered_per_s": [delivered_per_s(r) for r in records],
        "cpu_s": [at_reference_speed(r, "cpu_s") for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }


def per_layer(traced, untraced_wall_s):
    """Every per-layer metric from one traced record.

    `untraced_wall_s` is the median wall time of the untraced
    repetitions of the same run, as measured (not at reference speed,
    since the traced child's times are not scaled either). A layer the workload does not exercise
    reads 0.
    """
    sweep = "cells" in traced
    if sweep:
        # Sweep cells report only their simulate time: run and engine
        # time coincide, and the bounds are the whole per-cell setup.
        run_s = engine_s = traced["cell_sim_s"]
        rates_s, bounds_s = 0.0, traced["setup_s"]
    else:
        run_s, engine_s = traced["sim_run_s"], traced["sim_engine_s"]
        rates_s, bounds_s = traced["rates_s"], traced["bounds_s"]
    shards = traced.get("shard_events", [])
    calendar_s = traced.get("calendar_run_s")
    return {
        "sim.run_s": run_s,
        "sim.engine_s": engine_s,
        "sim.ns_per_event": ns_per_event(engine_s, traced["events"]),
        "sim.events": traced["events"],
        "sim.events.hold_ns.calendar": traced["hold_ns_calendar"],
        "sim.events.hold_ns.heap": traced["hold_ns_heap"],
        "routing.table_build_s": traced["table_build_s"],
        "sim.shard.imbalance": shard_imbalance(shards),
        "sim.shard.events.max": max(shards, default=0),
        "sim.shard.handoffs": sum(traced.get("shard_cut", [])),
        "sim.shard.speedup_vs_calendar": calendar_s / run_s if calendar_s else 0.0,
        "topology.partition_s": traced["partition_s"],
        "topology.build_s": traced["topology_build_s"],
        "routing.rates_s": rates_s,
        "core.report.bounds_s": bounds_s,
        "sim.dispatch_s": run_s - engine_s,
        "sim.scenario.parse_s": traced["parse_s"],
        "sim.scenario.validate_s": traced["validate_s"],
        "core.report.text_s": traced["text_s"],
        "core.report.json_s": traced["json_s"],
        "core.sweep.speedup": traced["speedup"] if sweep else 0.0,
        "core.sweep.cell_setup_s": traced["setup_s"] if sweep else 0.0,
        "core.sweep.cell_sim_s": traced["cell_sim_s"] if sweep else 0.0,
        "core.sweep.cells": traced["cells"] if sweep else 0,
        "sim.completed": traced["completed"],
        "sim.generated": traced["generated"],
        "sim.dropped": traced["dropped"],
        "trace_overhead_s": traced["wall_s"] - untraced_wall_s,
    }


def check_run(workload, records, use_pinned):
    """The correctness gate over every record of one run.

    Returns `(problems, attempted, failed)`; the run is correct when
    `problems` is empty. With the default seed every fingerprint must equal
    the workload's pinned one, and the failing sweep cells must be its
    `known_failures`; with any other seed the fingerprints must all agree.
    A `None` record is a repetition that produced no record.

    Each repetition attempts the workload's `ops` operations. A repetition
    without a record, or with a wrong fingerprint, fails all of them;
    otherwise its own failed operations (unfaulted sweep cells outside
    their bounds) count.
    """
    fps = [r["fingerprint"] for r in records if r is not None]
    reference = workload["fingerprint"] if use_pinned else (fps[0] if fps else None)
    problems, attempted, failed = [], 0, 0
    for i, r in enumerate(records):
        attempted += workload["ops"]
        if r is None:
            problems.append(f"repetition {i} produced no record")
        elif r["fingerprint"] != reference:
            problems.append(f"repetition {i}: fingerprint {r['fingerprint']}, expected {reference}")
        else:
            failed += r["failed_ops"]
            names = r.get("failed_names", [])
            if use_pinned and names != workload["known_failures"]:
                problems.append(f"failing cells {names}, expected {workload['known_failures']}")
            continue
        failed += workload["ops"]
    return problems, attempted, failed


def check_names(benchmark):
    """Problems with metric names, units and counts in BENCHMARK.json."""
    problems = []
    e2e, layers = benchmark["end_to_end"], benchmark["per_layer"]
    if not 1 <= len(e2e) <= MAX_END_TO_END:
        problems.append(f"{len(e2e)} end-to-end metrics (1..{MAX_END_TO_END})")
    if not 1 <= len(layers) <= MAX_PER_LAYER:
        problems.append(f"{len(layers)} per-layer metrics (1..{MAX_PER_LAYER})")
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in benchmark["workloads"]]
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for m in e2e + layers:
        if not UNIT_RE.match(m["unit"]):
            problems.append(f"bad unit {m['unit']!r} on {m['name']}")
    return problems
