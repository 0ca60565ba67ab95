#!/usr/bin/env python3
"""CI gate over fui-bench run manifests (BENCH_<id>.json).

Subcommands, all reading the JSON manifests the `experiments` driver
writes with `--manifest`:

  check    Diff a fresh manifest against a committed baseline.
           Fails if any tier-1-tracked counter drifts (these are
           deterministic: same seed + scale must reproduce them
           exactly, whatever FUI_THREADS says) or if a tracked span's
           wall time regresses by more than --time-tolerance percent.

  equal    Assert two fresh manifests (e.g. FUI_THREADS=1 vs
           FUI_THREADS=4 runs) agree on every tracked counter — the
           pipeline proof that the parallel runtime is deterministic.

  speedup  Assert the parallel run beats the serial run on a span's
           wall time by at least --min-speedup (default 1.5x for
           table5.preprocess at 4 threads).

  serve    Gate the serve_micro serving cell: its request/shed/cache/
           rotation counters must equal the committed baseline exactly
           (admission control and cache behaviour are deterministic by
           construction, whatever FUI_THREADS says), no accepted
           request may vanish (answered + shed == submitted), the
           drive span stays within --time-tolerance percent of the
           baseline, and the service.request_latency p99 stays under
           --p99-max-ms.

  micro    Gate the propagate_micro cell: its tracked work counters
           must equal the committed baseline exactly, its spans
           (propagate_micro.single / .batch) stay within
           --time-tolerance percent of the baseline, and
           propagate_micro.batch_allocs must not exceed the fresh
           run's exec_threads param (one workspace per pool worker,
           zero per-query allocation).

  trace    Gate tracing invisibility on the serving cell: a fully
           sampled FUI_OBS=full serve_micro run (--traced) must agree
           exactly with a FUI_OBS=counters run (--plain) on every
           thread-invariant serving counter, the traced run must have
           committed ring records (trace.committed > 0) while the
           plain one committed none, and every slowest-trace entry in
           the traced manifest's trace block must decompose: queue +
           assembly + compute + cache within 1% of its total_ns.

  large    Gate the table5_large paper-scale cell: its tracked
           counters (graph size, batched queries, propagation work,
           and the bit-exact score checksum) must equal the committed
           baseline exactly, the graph must reach --min-nodes, the
           memory-footprint gauges must be present with
           graph.bytes_per_node / graph.bytes_per_edge and
           propagate.workspace.peak_bytes per node under their
           ceilings, and the datagen/preprocess/query spans must stay
           within --time-tolerance percent of the baseline. Appends a
           one-line footprint summary to $GITHUB_STEP_SUMMARY when
           that variable is set.

  warmstart
           Gate the warmstart durable-restart cell: every cold/warm
           counter pair (answered, bit-exact answer checksum, epoch,
           generation, applied_seq) must be exactly equal — the
           restored service answers bit-identically to the one that
           built the index — the graph must reach --min-nodes, and the
           warmstart.warm_restore span must beat warmstart.cold_build
           by at least --min-speedup (default 5x: a warm restart that
           rebuilds from scratch is not a warm restart).

  shard    Gate the shard_micro sharded-serving cell: every
           single/fleet counter pair (answered, bit-exact answer
           checksum, epoch) must be exactly equal — partitioning the
           recommender may never change an answer — the tracked
           routing counters (scatter fan-out, per-shard queries,
           merges, cut edges) must equal the committed baseline
           exactly, the graph must reach --min-nodes, and the
           shard_micro.drive_single span must be at least
           --min-speedup times the shard_micro.drive_fleet span
           (default 1.5x: a fleet that does not beat one shard is
           not a fleet).

  load     Gate the load_micro open-loop serving cell: the schedule-
           derived counters (submitted and the query/change/rotate/
           refresh split) must equal the committed baseline exactly —
           they are a pure function of the workload seed — zero
           requests may be lost or rejected (answered + shed ==
           submitted, with every shed attributed to a 429 or a 503),
           the fui-net frontend must have parsed exactly as many
           requests as the client sent with zero parse errors, and the
           timing-dependent outcomes are toleranced: shed rate under
           --max-shed-rate, flash-crowd goodput over
           --min-overload-goodput, client-observed p99/p999 under
           --max-p99-ms / --max-p999-ms.

  selftest Run the gate's own pure-python test suite (no manifests on
           disk needed). CI's lint job runs this so a broken gate
           fails loudly instead of waving regressions through.

In every comparing mode a tracked counter missing from either manifest
is a hard failure, never a skip.

Exit codes: 0 pass, 1 gate failure, 2 usage/IO error.
"""

import argparse
import json
import os
import sys

# Deterministic work counters the gate pins exactly. exec.* queue and
# steal counters are intentionally absent: they describe scheduling,
# which legitimately varies with thread count.
TRACKED_COUNTERS = [
    "propagate.calls",
    "propagate.edges_relaxed",
    "propagate.levels",
    "landmark.pruned_at",
    "landmark.composed_pairs",
    "landmark.query.landmarks_met",
    "query.candidates",
]

# Spans whose total wall time the regression check watches.
TRACKED_SPANS = [
    "table5.preprocess",
    "table5.query",
    "table5.exact",
]

# Deterministic counters of the propagate_micro cell. The
# propagate.workspace.* and propagate.sparse_cleared counters are
# deliberately absent: they describe buffer reuse, which legitimately
# varies with how work lands on pool workers.
MICRO_TRACKED_COUNTERS = [
    "propagate.calls",
    "propagate.edges_relaxed",
    "propagate.levels",
    "propagate_micro.single.calls",
    "propagate_micro.single.edges_relaxed",
    "landmark.pruned_at",
    "landmark.composed_pairs",
    "landmark.query.landmarks_met",
    "query.candidates",
]

# propagate_micro spans under the wall-time regression check.
MICRO_TRACKED_SPANS = [
    "propagate_micro.single",
    "propagate_micro.batch",
]

# Deterministic counters of the serve_micro serving cell. Admission
# control sheds on queue depth (the load generator overfills the queue
# then pumps it dry, so shed counts are load-driven), the cache is
# seeded-LRU over deterministic batches, and rotations/refreshes fire
# on fixed cadences — all exact across runs and FUI_THREADS widths.
SERVE_TRACKED_COUNTERS = [
    "serve_micro.queries",
    "serve_micro.answered",
    "serve_micro.updates",
    "serve_micro.rounds",
    "service.requests",
    "service.shed",
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.evictions",
    "service.snapshot.rotations",
    "landmarks.dynamic.records",
    "landmarks.dynamic.refreshes",
]

# serve_micro spans under the wall-time regression check.
SERVE_TRACKED_SPANS = [
    "serve_micro.drive",
]

# Deterministic counters of the table5_large paper-scale cell. The
# checksum_bits counter folds every returned recommendation score into
# one u64, so a single flipped bit anywhere in the 1M-node pipeline
# fails the gate.
LARGE_TRACKED_COUNTERS = [
    "table5_large.nodes",
    "table5_large.edges",
    "table5_large.batch_queries",
    "table5_large.checksum_bits",
    "propagate.calls",
    "propagate.edges_relaxed",
    "propagate.levels",
    "landmark.pruned_at",
    "landmark.composed_pairs",
    "landmark.query.landmarks_met",
    "query.candidates",
]

# table5_large spans under the wall-time regression check.
LARGE_TRACKED_SPANS = [
    "table5_large.datagen",
    "table5_large.preprocess",
    "table5_large.query",
]

# Cold/warm counter pairs the warmstart gate pins to exact equality:
# the restarted service must be the same service, bit for bit.
WARMSTART_COUNTER_PAIRS = [
    ("warmstart.cold_answered", "warmstart.warm_answered"),
    ("warmstart.cold_checksum_bits", "warmstart.warm_checksum_bits"),
    ("warmstart.cold_epoch", "warmstart.warm_epoch"),
    ("warmstart.cold_gen", "warmstart.warm_gen"),
    ("warmstart.cold_seq", "warmstart.warm_seq"),
]

# Single/fleet counter pairs the shard gate pins to exact equality:
# the partitioned fleet must answer bit-identically to one shard.
SHARD_COUNTER_PAIRS = [
    ("shard_micro.single.answered", "shard_micro.fleet.answered"),
    ("shard_micro.single.checksum_bits", "shard_micro.fleet.checksum_bits"),
    ("shard_micro.single.epoch", "shard_micro.fleet.epoch"),
]

# Deterministic counters of the shard_micro cell pinned against the
# committed baseline. The routing counters (fan-out, per-shard query
# placement, merges, cut edges) are a function of the partition and
# the scatter plan only, so any drift means the router changed
# behaviour.
SHARD_TRACKED_COUNTERS = [
    "shard_micro.nodes",
    "shard_micro.edges",
    "shard_micro.cut_edges",
    "shard_micro.rounds",
    "shard_micro.rotations",
    "shard_micro.single.answered",
    "shard_micro.single.checksum_bits",
    "shard_micro.fleet.answered",
    "shard_micro.fleet.checksum_bits",
    "shard_micro.single.shard_queries",
    "shard_micro.single.explorations",
    "shard_micro.single.fanout",
    "shard_micro.single.merges",
    "shard_micro.fleet.shard_queries",
    "shard_micro.fleet.explorations",
    "shard_micro.fleet.fanout",
    "shard_micro.fleet.merges",
]

# shard_micro spans under the wall-time regression check.
SHARD_TRACKED_SPANS = [
    "shard_micro.drive_single",
    "shard_micro.drive_fleet",
]

# Deterministic counters of the load_micro open-loop cell pinned
# against the committed baseline. All of these are derived from the
# seeded schedule (or are hard zero-loss invariants), so they are
# exact across runs, platforms and FUI_THREADS widths. Timing-
# dependent outcomes — how many of the submitted requests were
# answered vs shed — are deliberately NOT pinned; they are gated by
# the shed-rate ceiling and goodput floor instead.
LOAD_TRACKED_COUNTERS = [
    "load_micro.submitted",
    "load_micro.queries",
    "load_micro.changes",
    "load_micro.rotates",
    "load_micro.refreshes",
    "load_micro.rejected",
    "load_micro.lost",
]

# Server-side counters that must be zero after a clean load_micro run:
# the workload only sends well-formed requests, so any parse error or
# listener-backlog overflow is a frontend bug, not load.
LOAD_ZERO_COUNTERS = [
    "net.parse_errors",
    "net.accept_overflow",
    "net.http.bad_request",
    "net.http.not_found",
    "load_micro.rejected",
    "load_micro.lost",
]

# Client-side latency gauges (exact nearest-rank percentiles over raw
# nanosecond samples) under absolute ceilings.
LOAD_LATENCY_GAUGES = [
    ("load_micro.latency.p99_ns", "max_p99_ms"),
    ("load_micro.latency.p999_ns", "max_p999_ms"),
]

# Ceiling on a propagation workspace's high-water mark, per graph node.
MAX_WORKSPACE_BYTES_PER_NODE = 16.0

# Memory-story gauges the large gate requires in the fresh manifest.
LARGE_REQUIRED_GAUGES = [
    "graph.bytes_per_node",
    "graph.bytes_per_edge",
    "datagen.stream.scratch_bytes",
    "propagate.workspace.peak_bytes",
]


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot read manifest {path}: {e}", file=sys.stderr)
        sys.exit(2)


def span_total_ms(manifest, path):
    for span in manifest.get("spans", []):
        if span.get("path") == path:
            return float(span.get("total_ms", 0.0))
    return None


def counter(manifest, name):
    return manifest.get("counters", {}).get(name)


def gauge(manifest, name):
    return manifest.get("gauges", {}).get(name)


def diff_counters(a, b, label_a, label_b, names=TRACKED_COUNTERS):
    """Returns a list of human-readable drift messages. A tracked
    counter absent from either manifest is a failure, never a skip."""
    failures = []
    for name in names:
        va, vb = counter(a, name), counter(b, name)
        if va is None and vb is None:
            failures.append(f"counter {name}: missing from both manifests")
        elif va is None or vb is None:
            missing = label_a if va is None else label_b
            failures.append(f"counter {name}: missing from {missing} manifest")
        elif va != vb:
            failures.append(f"counter {name}: {label_a}={va} {label_b}={vb}")
    return failures


def cmd_check(args):
    fresh = load(args.fresh)
    baseline = load(args.baseline)
    failures = diff_counters(baseline, fresh, "baseline", "fresh")
    if not args.no_time:
        # A span missing from the baseline is informational (older
        # baselines predate it); missing from the fresh run is drift.
        failures += span_drift(baseline, fresh, TRACKED_SPANS, args.time_tolerance)
    report("check", failures, f"{args.fresh} vs {args.baseline}")


def cmd_equal(args):
    a, b = load(args.a), load(args.b)
    failures = diff_counters(a, b, "A", "B")
    report("equal", failures, f"{args.a} (A) vs {args.b} (B)")


def span_drift(baseline, fresh, paths, tolerance_pct):
    """Wall-time regression messages for the given span paths."""
    failures = []
    tolerance = 1.0 + tolerance_pct / 100.0
    for path in paths:
        base_ms = span_total_ms(baseline, path)
        fresh_ms = span_total_ms(fresh, path)
        if base_ms is None or fresh_ms is None:
            if base_ms is not None and fresh_ms is None:
                failures.append(f"span {path}: missing from fresh manifest")
            continue
        if base_ms > 0 and fresh_ms > base_ms * tolerance:
            failures.append(
                f"span {path}: {fresh_ms:.3f} ms vs baseline "
                f"{base_ms:.3f} ms (+{(fresh_ms / base_ms - 1) * 100:.1f}% "
                f"> {tolerance_pct:.0f}% tolerance)"
            )
    return failures


def cmd_micro(args):
    fresh = load(args.fresh)
    baseline = load(args.baseline)
    failures = diff_counters(
        baseline, fresh, "baseline", "fresh", names=MICRO_TRACKED_COUNTERS
    )
    if not args.no_time:
        failures += span_drift(
            baseline, fresh, MICRO_TRACKED_SPANS, args.time_tolerance
        )
    # The zero-allocation invariant: the pooled batch may allocate at
    # most one workspace per worker, never one per query.
    allocs = counter(fresh, "propagate_micro.batch_allocs")
    threads = fresh.get("params", {}).get("exec_threads")
    if allocs is None:
        failures.append("counter propagate_micro.batch_allocs: missing from fresh manifest")
    elif not isinstance(threads, int):
        failures.append("param exec_threads: missing from fresh manifest")
    elif allocs > max(threads, 1):
        failures.append(
            f"propagate_micro.batch_allocs = {allocs} exceeds "
            f"exec_threads = {threads}: the batched path is allocating "
            f"per query, not per worker"
        )
    else:
        print(
            f"bench_gate micro: batch_allocs {allocs} <= "
            f"exec_threads {max(threads, 1)}"
        )
    report("micro", failures, f"{args.fresh} vs {args.baseline}")


def cmd_serve(args):
    fresh = load(args.fresh)
    baseline = load(args.baseline)
    failures = diff_counters(
        baseline, fresh, "baseline", "fresh", names=SERVE_TRACKED_COUNTERS
    )
    if not args.no_time:
        failures += span_drift(
            baseline, fresh, SERVE_TRACKED_SPANS, args.time_tolerance
        )
    # Zero-requests-lost: everything submitted is either answered or
    # an explicit shed.
    queries = counter(fresh, "serve_micro.queries")
    answered = counter(fresh, "serve_micro.answered")
    shed = counter(fresh, "service.shed")
    if None in (queries, answered, shed):
        failures.append("serve accounting counters missing from fresh manifest")
    elif answered + shed != queries:
        failures.append(
            f"request accounting broken: answered {answered} + shed {shed} "
            f"!= submitted {queries} — requests were lost"
        )
    # Tail-latency bound on the batched request path.
    hist = fresh.get("histograms", {}).get("service.request_latency")
    if not isinstance(hist, dict) or "p99_ns" not in hist:
        failures.append(
            "histogram service.request_latency: missing from fresh manifest"
        )
    else:
        p99_ms = float(hist["p99_ns"]) / 1e6
        if p99_ms > args.p99_max_ms:
            failures.append(
                f"service.request_latency p99 {p99_ms:.3f} ms exceeds "
                f"bound {args.p99_max_ms:.1f} ms"
            )
        else:
            print(
                f"bench_gate serve: request p99 {p99_ms:.3f} ms <= "
                f"{args.p99_max_ms:.1f} ms"
            )
    report("serve", failures, f"{args.fresh} vs {args.baseline}")


def cmd_trace(args):
    traced = load(args.traced)
    plain = load(args.plain)
    # Tracing must be invisible to the deterministic serving counters:
    # full recording with every request sampled may not move a single
    # tracked value relative to the counters-only run.
    failures = diff_counters(
        plain, traced, "plain", "traced", names=SERVE_TRACKED_COUNTERS
    )
    committed = counter(traced, "trace.committed")
    if not committed:
        failures.append(
            "counter trace.committed: fully-sampled run committed no traces"
        )
    leaked = counter(plain, "trace.committed")
    if leaked:
        failures.append(
            f"counter trace.committed: counters-only run wrote {leaked} "
            f"ring records (tracing must be inert below FUI_OBS=full)"
        )
    # Decomposition sanity over the manifest's trace summary: the five
    # latency parts of each slowest-trace entry must sum to its
    # end-to-end total within 1% (scatter_ns is 0 on the unsharded
    # backend; the scatter/gather router fills it in).
    slowest = traced.get("trace", {}).get("slowest", [])
    if not slowest:
        failures.append(
            "trace block: fully-sampled manifest carries no slowest traces"
        )
    for i, entry in enumerate(slowest):
        total = int(entry.get("total_ns", 0))
        parts = sum(
            int(entry.get(k, 0))
            for k in ("queue_ns", "assembly_ns", "compute_ns", "cache_ns", "scatter_ns")
        )
        if abs(parts - total) > max(total // 100, 1):
            failures.append(
                f"trace {entry.get('id', i)}: parts sum {parts} ns vs "
                f"total {total} ns drifts past the 1% decomposition bound"
            )
    report("trace", failures, f"{args.traced} (traced) vs {args.plain} (plain)")


def large_failures(
    fresh,
    baseline,
    *,
    time_tolerance=50.0,
    no_time=False,
    min_nodes=1_000_000,
    max_bytes_per_node=16.0,
    max_bytes_per_edge=12.5,
):
    """Gate messages for the table5_large cell (pure, testable)."""
    failures = diff_counters(
        baseline, fresh, "baseline", "fresh", names=LARGE_TRACKED_COUNTERS
    )
    if not no_time:
        failures += span_drift(baseline, fresh, LARGE_TRACKED_SPANS, time_tolerance)
    nodes = counter(fresh, "table5_large.nodes")
    if nodes is not None and nodes < min_nodes:
        failures.append(
            f"table5_large.nodes = {nodes} below the paper-scale floor "
            f"of {min_nodes} — the cell is no longer testing 1M+-node scale"
        )
    for name in LARGE_REQUIRED_GAUGES:
        if gauge(fresh, name) is None:
            failures.append(f"gauge {name}: missing from fresh manifest")
    per_node = gauge(fresh, "graph.bytes_per_node")
    per_edge = gauge(fresh, "graph.bytes_per_edge")
    peak = gauge(fresh, "propagate.workspace.peak_bytes")
    for name, value, ceiling, what in (
        ("graph.bytes_per_node", per_node, max_bytes_per_node, "compact-CSR"),
        ("graph.bytes_per_edge", per_edge, max_bytes_per_edge, "compact-CSR"),
        # One 8-byte stamp word per node plus the reached set's compact
        # state; the node-dense layout this guards against was 488.
        (
            "propagate.workspace.peak_bytes per node",
            float(peak) / nodes if peak is not None and nodes else None,
            MAX_WORKSPACE_BYTES_PER_NODE,
            "reach-sparse workspace",
        ),
    ):
        if value is not None and float(value) > ceiling:
            failures.append(
                f"gauge {name} = {float(value):.3f} B exceeds the "
                f"{what} ceiling of {ceiling:.1f} B"
            )
    return failures


def warmstart_failures(fresh, *, min_speedup=5.0, min_nodes=1_000_000):
    """Gate messages for the warmstart cell (pure, testable). Reads a
    single manifest: the cell runs cold build and warm restore in one
    process and reports them as paired counters + two spans."""
    failures = []
    for cold, warm in WARMSTART_COUNTER_PAIRS:
        vc, vw = counter(fresh, cold), counter(fresh, warm)
        if vc is None or vw is None:
            missing = cold if vc is None else warm
            failures.append(f"counter {missing}: missing from manifest")
        elif vc != vw:
            failures.append(
                f"warm restart diverged: {cold}={vc} {warm}={vw} "
                "(the restarted service must answer bit-identically)"
            )
    answered = counter(fresh, "warmstart.cold_answered")
    if answered is not None and answered <= 0:
        failures.append("warmstart.cold_answered = 0: the cell answered nothing")
    nodes = counter(fresh, "warmstart.nodes")
    if nodes is None:
        failures.append("counter warmstart.nodes: missing from manifest")
    elif nodes < min_nodes:
        failures.append(
            f"warmstart.nodes = {nodes} below the paper-scale floor of "
            f"{min_nodes} — the cell is no longer testing the table5 graph"
        )
    cold_ms = span_total_ms(fresh, "warmstart.cold_build")
    warm_ms = span_total_ms(fresh, "warmstart.warm_restore")
    if cold_ms is None or warm_ms is None:
        missing = "warmstart.cold_build" if cold_ms is None else "warmstart.warm_restore"
        failures.append(f"span {missing}: missing from manifest")
    elif warm_ms <= 0:
        failures.append(f"span warmstart.warm_restore: total is {warm_ms} ms")
    else:
        ratio = cold_ms / warm_ms
        if ratio < min_speedup:
            failures.append(
                f"warm restart only {ratio:.2f}x faster than cold build "
                f"({cold_ms:.1f} ms vs {warm_ms:.1f} ms) "
                f"< required {min_speedup:.1f}x"
            )
    return failures


def shard_failures(
    fresh,
    baseline,
    *,
    time_tolerance=50.0,
    no_time=False,
    min_speedup=1.5,
    min_nodes=1_000_000,
):
    """Gate messages for the shard_micro cell (pure, testable). The
    cell drives a single-shard fleet and a partitioned fleet in one
    process and reports them as paired counters + two drive spans."""
    failures = diff_counters(
        baseline, fresh, "baseline", "fresh", names=SHARD_TRACKED_COUNTERS
    )
    if not no_time:
        failures += span_drift(baseline, fresh, SHARD_TRACKED_SPANS, time_tolerance)
    for single, fleet in SHARD_COUNTER_PAIRS:
        vs, vf = counter(fresh, single), counter(fresh, fleet)
        if vs is None or vf is None:
            missing = single if vs is None else fleet
            failures.append(f"counter {missing}: missing from manifest")
        elif vs != vf:
            failures.append(
                f"fleet diverged: {single}={vs} {fleet}={vf} "
                "(the partitioned fleet must answer bit-identically)"
            )
    answered = counter(fresh, "shard_micro.single.answered")
    if answered is not None and answered <= 0:
        failures.append("shard_micro.single.answered = 0: the cell answered nothing")
    nodes = counter(fresh, "shard_micro.nodes")
    if nodes is None:
        failures.append("counter shard_micro.nodes: missing from manifest")
    elif nodes < min_nodes:
        failures.append(
            f"shard_micro.nodes = {nodes} below the paper-scale floor of "
            f"{min_nodes} — the cell is no longer testing the table5 graph"
        )
    single_ms = span_total_ms(fresh, "shard_micro.drive_single")
    fleet_ms = span_total_ms(fresh, "shard_micro.drive_fleet")
    if single_ms is None or fleet_ms is None:
        missing = (
            "shard_micro.drive_single" if single_ms is None else "shard_micro.drive_fleet"
        )
        failures.append(f"span {missing}: missing from manifest")
    elif fleet_ms <= 0:
        failures.append(f"span shard_micro.drive_fleet: total is {fleet_ms} ms")
    else:
        ratio = single_ms / fleet_ms
        if ratio < min_speedup:
            failures.append(
                f"fleet only {ratio:.2f}x faster than one shard "
                f"({single_ms:.1f} ms vs {fleet_ms:.1f} ms) "
                f"< required {min_speedup:.1f}x"
            )
    return failures


def cmd_shard(args):
    fresh = load(args.fresh)
    baseline = load(args.baseline)
    failures = shard_failures(
        fresh,
        baseline,
        time_tolerance=args.time_tolerance,
        no_time=args.no_time,
        min_speedup=args.min_speedup,
        min_nodes=args.min_nodes,
    )
    single_ms = span_total_ms(fresh, "shard_micro.drive_single")
    fleet_ms = span_total_ms(fresh, "shard_micro.drive_fleet")
    if single_ms is not None and fleet_ms:
        print(
            f"bench_gate shard: single {single_ms:.1f} ms / "
            f"fleet {fleet_ms:.1f} ms = {single_ms / fleet_ms:.2f}x"
        )
    report("shard", failures, f"{args.fresh} vs {args.baseline}")


def cmd_warmstart(args):
    fresh = load(args.fresh)
    failures = warmstart_failures(
        fresh, min_speedup=args.min_speedup, min_nodes=args.min_nodes
    )
    cold_ms = span_total_ms(fresh, "warmstart.cold_build")
    warm_ms = span_total_ms(fresh, "warmstart.warm_restore")
    if cold_ms is not None and warm_ms:
        print(
            f"bench_gate warmstart: cold {cold_ms:.1f} ms / "
            f"warm {warm_ms:.1f} ms = {cold_ms / warm_ms:.2f}x"
        )
    report("warmstart", failures, args.fresh)


def load_failures(
    fresh,
    baseline,
    *,
    max_shed_rate=0.60,
    min_overload_goodput=2_000.0,
    max_p99_ms=1_500.0,
    max_p999_ms=3_000.0,
    min_submitted=100_000,
):
    """Gate messages for the load_micro open-loop cell (pure,
    testable). Schedule-derived counters are pinned exactly against
    the baseline; loss/parse/overflow counters must be zero; the
    answered/shed split is toleranced via a shed-rate ceiling, an
    overload-goodput floor and latency-percentile ceilings."""
    failures = diff_counters(
        baseline, fresh, "baseline", "fresh", names=LOAD_TRACKED_COUNTERS
    )
    for name in LOAD_ZERO_COUNTERS:
        value = counter(fresh, name)
        if value is None:
            failures.append(f"counter {name}: missing from manifest")
        elif value != 0:
            failures.append(f"counter {name} = {value}, must be 0")
    submitted = counter(fresh, "load_micro.submitted")
    answered = counter(fresh, "load_micro.answered")
    shed = counter(fresh, "load_micro.shed")
    rejected = counter(fresh, "load_micro.rejected")
    if submitted is None or answered is None or shed is None or rejected is None:
        failures.append(
            "load_micro outcome counters (submitted/answered/shed/rejected) "
            "missing from manifest"
        )
    else:
        if submitted < min_submitted:
            failures.append(
                f"load_micro.submitted = {submitted} below the open-loop "
                f"floor of {min_submitted} — the cell is no longer "
                "driving million-request-class traffic"
            )
        if answered + shed + rejected != submitted:
            failures.append(
                f"outcome imbalance: answered {answered} + shed {shed} + "
                f"rejected {rejected} != submitted {submitted} "
                "(the zero-lost contract is broken)"
            )
        if answered <= 0:
            failures.append("load_micro.answered = 0: the cell answered nothing")
    shed_429 = counter(fresh, "load_micro.shed_429")
    shed_503 = counter(fresh, "load_micro.shed_503")
    if shed is not None and shed_429 is not None and shed_503 is not None:
        if shed_429 + shed_503 != shed:
            failures.append(
                f"shed attribution imbalance: 429 {shed_429} + 503 "
                f"{shed_503} != shed {shed}"
            )
    requests = counter(fresh, "net.http.requests")
    if requests is None:
        failures.append("counter net.http.requests: missing from manifest")
    elif submitted is not None and requests != submitted:
        failures.append(
            f"net.http.requests = {requests} != submitted {submitted} "
            "(the frontend parsed a different number of requests than "
            "the client sent)"
        )
    rate = gauge(fresh, "load_micro.shed_rate")
    if rate is None:
        failures.append("gauge load_micro.shed_rate: missing from manifest")
    elif rate > max_shed_rate:
        failures.append(
            f"shed rate {rate:.4f} over the {max_shed_rate:.2f} ceiling — "
            "admission control is rejecting too much of the schedule"
        )
    goodput = gauge(fresh, "load_micro.overload_goodput_rps")
    if goodput is None:
        failures.append("gauge load_micro.overload_goodput_rps: missing from manifest")
    elif goodput < min_overload_goodput:
        failures.append(
            f"overload goodput {goodput:.0f} rps under the "
            f"{min_overload_goodput:.0f} floor — the frontend collapsed "
            "instead of shedding under the flash crowd"
        )
    ceilings = {"max_p99_ms": max_p99_ms, "max_p999_ms": max_p999_ms}
    for name, knob in LOAD_LATENCY_GAUGES:
        value = gauge(fresh, name)
        ceiling_ms = ceilings[knob]
        if value is None:
            failures.append(f"gauge {name}: missing from manifest")
        elif value > ceiling_ms * 1e6:
            failures.append(
                f"{name} = {value / 1e6:.1f} ms over the "
                f"{ceiling_ms:.0f} ms ceiling"
            )
    return failures


def cmd_load(args):
    fresh = load(args.fresh)
    baseline = load(args.baseline)
    failures = load_failures(
        fresh,
        baseline,
        max_shed_rate=args.max_shed_rate,
        min_overload_goodput=args.min_overload_goodput,
        max_p99_ms=args.max_p99_ms,
        max_p999_ms=args.max_p999_ms,
        min_submitted=args.min_submitted,
    )
    submitted = counter(fresh, "load_micro.submitted")
    rate = gauge(fresh, "load_micro.shed_rate")
    p99 = gauge(fresh, "load_micro.latency.p99_ns")
    if submitted is not None and rate is not None and p99 is not None:
        print(
            f"bench_gate load: {submitted} submitted, shed rate "
            f"{rate:.4f}, p99 {p99 / 1e6:.2f} ms"
        )
    report("load", failures, f"{args.fresh} vs {args.baseline}")


def large_summary(fresh):
    """One-line markdown footprint table for $GITHUB_STEP_SUMMARY."""

    def fmt(value, pattern="{:.2f}"):
        return pattern.format(float(value)) if value is not None else "?"

    def span_s(path):
        ms = span_total_ms(fresh, path)
        return f"{ms / 1000.0:.2f}" if ms is not None else "?"

    nodes = counter(fresh, "table5_large.nodes")
    edges = counter(fresh, "table5_large.edges")
    peak = gauge(fresh, "propagate.workspace.peak_bytes")
    peak_mib = fmt(peak / (1024.0 * 1024.0) if peak is not None else None)
    return (
        "| cell | nodes | edges | B/node | B/edge | ws peak MiB "
        "| datagen s | preprocess s | query s |\n"
        "|---|---|---|---|---|---|---|---|---|\n"
        f"| table5_large | {nodes if nodes is not None else '?'} "
        f"| {edges if edges is not None else '?'} "
        f"| {fmt(gauge(fresh, 'graph.bytes_per_node'))} "
        f"| {fmt(gauge(fresh, 'graph.bytes_per_edge'))} "
        f"| {peak_mib} "
        f"| {span_s('table5_large.datagen')} "
        f"| {span_s('table5_large.preprocess')} "
        f"| {span_s('table5_large.query')} |\n"
    )


def cmd_large(args):
    fresh = load(args.fresh)
    baseline = load(args.baseline)
    failures = large_failures(
        fresh,
        baseline,
        time_tolerance=args.time_tolerance,
        no_time=args.no_time,
        min_nodes=args.min_nodes,
        max_bytes_per_node=args.max_bytes_per_node,
        max_bytes_per_edge=args.max_bytes_per_edge,
    )
    summary = large_summary(fresh)
    print(summary, end="")
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        try:
            with open(step_summary, "a", encoding="utf-8") as f:
                f.write("### table5_large footprint\n\n" + summary + "\n")
        except OSError as e:
            print(f"bench_gate: cannot append step summary: {e}", file=sys.stderr)
    report("large", failures, f"{args.fresh} vs {args.baseline}")


def _selftest_manifest(**overrides):
    """A synthetic but structurally complete table5_large manifest."""
    manifest = {
        "params": {"exec_threads": 4},
        "counters": {
            "table5_large.nodes": 1_000_000,
            "table5_large.edges": 8_000_000,
            "table5_large.batch_queries": 2048,
            "table5_large.checksum_bits": 4598824417830220797,
            "propagate.calls": 2072,
            "propagate.edges_relaxed": 145455,
            "propagate.levels": 4172,
            "landmark.pruned_at": 195,
            "landmark.composed_pairs": 17481,
            "landmark.query.landmarks_met": 5544,
            "query.candidates": 44636,
        },
        "gauges": {
            "graph.bytes_per_node": 12.0,
            "graph.bytes_per_edge": 12.0,
            "datagen.stream.scratch_bytes": 8_000_000.0,
            "propagate.workspace.peak_bytes": 8_200_000.0,
        },
        "spans": [
            {"path": "table5_large.datagen", "count": 1, "total_ms": 1000.0},
            {"path": "table5_large.preprocess", "count": 1, "total_ms": 10000.0},
            {"path": "table5_large.query", "count": 1, "total_ms": 200.0},
        ],
    }
    for key, value in overrides.items():
        section, name = key.split("/", 1)
        if value is None:
            manifest[section].pop(name, None)
        elif section == "spans":
            for span in manifest["spans"]:
                if span["path"] == name:
                    span["total_ms"] = value
        else:
            manifest[section][name] = value
    return manifest


def _warmstart_manifest(**overrides):
    """A synthetic but structurally complete warmstart manifest."""
    manifest = {
        "params": {"exec_threads": 4},
        "counters": {
            "warmstart.nodes": 1_000_000,
            "warmstart.edges": 8_000_000,
            "warmstart.cold_answered": 1024,
            "warmstart.warm_answered": 1024,
            "warmstart.cold_checksum_bits": 4612248968393252864,
            "warmstart.warm_checksum_bits": 4612248968393252864,
            "warmstart.cold_epoch": 3,
            "warmstart.warm_epoch": 3,
            "warmstart.cold_gen": 1,
            "warmstart.warm_gen": 1,
            "warmstart.cold_seq": 65,
            "warmstart.warm_seq": 65,
        },
        "gauges": {},
        "spans": [
            {"path": "warmstart.datagen", "count": 1, "total_ms": 900.0},
            {"path": "warmstart.cold_build", "count": 1, "total_ms": 30000.0},
            {"path": "warmstart.warm_restore", "count": 1, "total_ms": 2000.0},
        ],
    }
    for key, value in overrides.items():
        section, name = key.split("/", 1)
        if section == "spans":
            if value is None:
                manifest["spans"] = [s for s in manifest["spans"] if s["path"] != name]
            else:
                for span in manifest["spans"]:
                    if span["path"] == name:
                        span["total_ms"] = value
        elif value is None:
            manifest[section].pop(name, None)
        else:
            manifest[section][name] = value
    return manifest


def _shard_manifest(**overrides):
    """A synthetic but structurally complete shard_micro manifest."""
    manifest = {
        "params": {"exec_threads": 4},
        "counters": {
            "shard_micro.nodes": 1_000_000,
            "shard_micro.edges": 8_000_000,
            "shard_micro.cut_edges": 6_000_000,
            "shard_micro.rounds": 3,
            "shard_micro.rotations": 4,
            "shard_micro.single.answered": 6144,
            "shard_micro.single.checksum_bits": 4612248968393252864,
            "shard_micro.single.epoch": 2,
            "shard_micro.fleet.answered": 6144,
            "shard_micro.fleet.checksum_bits": 4612248968393252864,
            "shard_micro.fleet.epoch": 2,
            "shard_micro.single.shard_queries": 5471,
            "shard_micro.single.explorations": 5471,
            "shard_micro.single.fanout": 6144,
            "shard_micro.single.merges": 0,
            "shard_micro.fleet.shard_queries": 24576,
            "shard_micro.fleet.explorations": 6144,
            "shard_micro.fleet.fanout": 24576,
            "shard_micro.fleet.merges": 6144,
        },
        "gauges": {},
        "spans": [
            {"path": "shard_micro.datagen", "count": 1, "total_ms": 900.0},
            {"path": "shard_micro.drive_single", "count": 3, "total_ms": 3000.0},
            {"path": "shard_micro.drive_fleet", "count": 3, "total_ms": 1200.0},
        ],
    }
    for key, value in overrides.items():
        section, name = key.split("/", 1)
        if section == "spans":
            if value is None:
                manifest["spans"] = [s for s in manifest["spans"] if s["path"] != name]
            else:
                for span in manifest["spans"]:
                    if span["path"] == name:
                        span["total_ms"] = value
        elif value is None:
            manifest[section].pop(name, None)
        else:
            manifest[section][name] = value
    return manifest


def _load_manifest(**overrides):
    """A synthetic but structurally complete load_micro manifest."""
    manifest = {
        "params": {"exec_threads": 4},
        "counters": {
            "load_micro.submitted": 114_000,
            "load_micro.queries": 111_534,
            "load_micro.changes": 2_455,
            "load_micro.rotates": 4,
            "load_micro.refreshes": 7,
            "load_micro.answered": 101_368,
            "load_micro.shed": 12_632,
            "load_micro.shed_429": 12_401,
            "load_micro.shed_503": 231,
            "load_micro.rejected": 0,
            "load_micro.lost": 0,
            "net.http.requests": 114_000,
            "net.parse_errors": 0,
            "net.accept_overflow": 0,
            "net.http.bad_request": 0,
            "net.http.not_found": 0,
        },
        "gauges": {
            "load_micro.latency.p50_ns": 310_000.0,
            "load_micro.latency.p99_ns": 18_500_000.0,
            "load_micro.latency.p999_ns": 41_000_000.0,
            "load_micro.latency.max_ns": 96_000_000.0,
            "load_micro.send_lag.p99_ns": 120_000.0,
            "load_micro.goodput_rps": 15_800.0,
            "load_micro.overload_goodput_rps": 21_400.0,
            "load_micro.shed_rate": 0.1108,
            "load_micro.wall_s": 6.4,
        },
        "spans": [],
    }
    for key, value in overrides.items():
        section, name = key.split("/", 1)
        if value is None:
            manifest[section].pop(name, None)
        else:
            manifest[section][name] = value
    return manifest


def cmd_selftest(_args):
    """Pure-python checks of the gate's own comparison logic."""
    checks = 0

    def expect(condition, what):
        nonlocal checks
        checks += 1
        if not condition:
            print(f"bench_gate selftest FAILED: {what}", file=sys.stderr)
            sys.exit(1)

    base = _selftest_manifest()

    # Identical manifests pass every large check.
    expect(large_failures(_selftest_manifest(), base) == [], "clean run must pass")

    # Any tracked-counter drift is caught, bit-exact checksum included.
    drifted = _selftest_manifest(**{"counters/table5_large.checksum_bits": 1})
    expect(
        any("checksum_bits" in f for f in large_failures(drifted, base)),
        "checksum drift must fail",
    )

    # A tracked counter missing from either side is a failure, and a
    # counter missing from both is still a failure, never a skip.
    gone = _selftest_manifest(**{"counters/propagate.calls": None})
    expect(
        any("propagate.calls" in f and "missing" in f for f in large_failures(gone, base)),
        "missing fresh counter must fail",
    )
    expect(
        any("missing" in f for f in diff_counters(gone, base, "A", "B", names=["propagate.calls"])),
        "missing counter must fail in check/equal mode",
    )
    both_gone = diff_counters(gone, gone, "A", "B", names=["propagate.calls"])
    expect(
        any("both" in f for f in both_gone),
        "counter missing from both manifests must fail",
    )

    # Wall-time regression past tolerance fails; within tolerance passes.
    slow = _selftest_manifest(**{"spans/table5_large.preprocess": 20000.0})
    expect(
        any("table5_large.preprocess" in f for f in large_failures(slow, base)),
        "2x preprocess wall must fail the 50% tolerance",
    )
    near = _selftest_manifest(**{"spans/table5_large.preprocess": 11000.0})
    expect(large_failures(near, base) == [], "+10% wall must pass the 50% tolerance")
    expect(
        span_drift(base, _selftest_manifest(), ["not.a.span"], 25.0) == [],
        "span absent from both manifests is not drift",
    )

    # Footprint gauges: missing is a failure, ceilings are enforced.
    no_gauge = _selftest_manifest(**{"gauges/graph.bytes_per_edge": None})
    expect(
        any("graph.bytes_per_edge" in f and "missing" in f for f in large_failures(no_gauge, base)),
        "missing footprint gauge must fail",
    )
    fat = _selftest_manifest(**{"gauges/graph.bytes_per_edge": 24.0})
    expect(
        any("ceiling" in f for f in large_failures(fat, base)),
        "bytes/edge over ceiling must fail",
    )
    dense = _selftest_manifest(**{"gauges/propagate.workspace.peak_bytes": 488_000_000.0})
    expect(
        any("workspace" in f and "ceiling" in f for f in large_failures(dense, base)),
        "a node-dense workspace (488 B/node) over the 16 B/node ceiling must fail",
    )

    # The paper-scale floor: a shrunken graph cannot pass.
    small = _selftest_manifest(
        **{
            "counters/table5_large.nodes": 10_000,
        }
    )
    small_base = _selftest_manifest(**{"counters/table5_large.nodes": 10_000})
    expect(
        any("paper-scale floor" in f for f in large_failures(small, small_base)),
        "sub-1M graph must fail the floor",
    )

    # The step-summary line renders every column from a real manifest
    # and degrades to placeholders instead of crashing on a sparse one.
    summary = large_summary(base)
    expect("1000000" in summary and "12.00" in summary, "summary renders values")
    expect("?" in large_summary({}), "summary degrades on empty manifest")

    # Warmstart: identical cold/warm pairs at a 15x ratio pass cleanly.
    ws = _warmstart_manifest()
    expect(warmstart_failures(ws) == [], "clean warmstart run must pass")

    # Any cold/warm pair divergence fails — the restarted service must
    # answer bit-identically, checksum included.
    ws_drift = _warmstart_manifest(**{"counters/warmstart.warm_checksum_bits": 1})
    expect(
        any("diverged" in f and "checksum_bits" in f for f in warmstart_failures(ws_drift)),
        "warm checksum drift must fail",
    )
    ws_seq = _warmstart_manifest(**{"counters/warmstart.warm_seq": 64})
    expect(
        any("diverged" in f and "warm_seq" in f for f in warmstart_failures(ws_seq)),
        "warm applied_seq drift must fail",
    )

    # A missing counter on either side is a failure, never a skip.
    ws_gone = _warmstart_manifest(**{"counters/warmstart.warm_epoch": None})
    expect(
        any("warmstart.warm_epoch" in f and "missing" in f for f in warmstart_failures(ws_gone)),
        "missing warm counter must fail",
    )

    # The 5x speedup floor: a slow restore or a missing span fails.
    ws_slow = _warmstart_manifest(**{"spans/warmstart.warm_restore": 8000.0})
    expect(
        any("faster than cold build" in f for f in warmstart_failures(ws_slow)),
        "sub-5x warm restore must fail",
    )
    ws_no_span = _warmstart_manifest(**{"spans/warmstart.warm_restore": None})
    expect(
        any("span warmstart.warm_restore" in f and "missing" in f
            for f in warmstart_failures(ws_no_span)),
        "missing warm_restore span must fail",
    )

    # The paper-scale floor applies to warmstart too.
    ws_small = _warmstart_manifest(**{"counters/warmstart.nodes": 10_000})
    expect(
        any("paper-scale floor" in f for f in warmstart_failures(ws_small)),
        "sub-1M warmstart graph must fail the floor",
    )

    # Shard: identical single/fleet pairs at a 2.5x ratio pass cleanly.
    sh_base = _shard_manifest()
    expect(
        shard_failures(_shard_manifest(), sh_base) == [],
        "clean shard run must pass",
    )

    # Any single/fleet pair divergence fails — partitioning may never
    # change an answer, checksum included.
    sh_drift = _shard_manifest(**{"counters/shard_micro.fleet.checksum_bits": 1})
    expect(
        any("diverged" in f and "checksum_bits" in f for f in shard_failures(sh_drift, sh_drift)),
        "fleet checksum drift must fail",
    )
    sh_epoch = _shard_manifest(**{"counters/shard_micro.fleet.epoch": 3})
    expect(
        any("diverged" in f and "epoch" in f for f in shard_failures(sh_epoch, sh_epoch)),
        "fleet epoch drift must fail",
    )

    # Routing-counter drift against the baseline is caught.
    sh_route = _shard_manifest(**{"counters/shard_micro.fleet.fanout": 9999})
    expect(
        any("fanout" in f for f in shard_failures(sh_route, sh_base)),
        "fan-out drift vs baseline must fail",
    )
    sh_gone = _shard_manifest(**{"counters/shard_micro.fleet.merges": None})
    expect(
        any("merges" in f and "missing" in f for f in shard_failures(sh_gone, sh_base)),
        "missing routing counter must fail",
    )

    # The speedup floor: a slow fleet drive or a missing span fails.
    sh_slow = _shard_manifest(**{"spans/shard_micro.drive_fleet": 2500.0})
    expect(
        any("faster than one shard" in f for f in shard_failures(sh_slow, sh_slow)),
        "sub-1.5x fleet drive must fail",
    )
    sh_no_span = _shard_manifest(**{"spans/shard_micro.drive_fleet": None})
    expect(
        any("span shard_micro.drive_fleet" in f and "missing" in f
            for f in shard_failures(sh_no_span, sh_no_span)),
        "missing drive_fleet span must fail",
    )

    # The paper-scale floor applies to shard_micro too.
    sh_small = _shard_manifest(**{"counters/shard_micro.nodes": 10_000})
    sh_small_base = _shard_manifest(**{"counters/shard_micro.nodes": 10_000})
    expect(
        any("paper-scale floor" in f for f in shard_failures(sh_small, sh_small_base)),
        "sub-1M shard graph must fail the floor",
    )

    # Load: a clean open-loop manifest passes every check.
    ld_base = _load_manifest()
    expect(load_failures(_load_manifest(), ld_base) == [], "clean load run must pass")

    # Schedule-derived counters are exact: any drift vs baseline fails.
    ld_drift = _load_manifest(**{"counters/load_micro.submitted": 113_999})
    expect(
        any("load_micro.submitted" in f for f in load_failures(ld_drift, ld_base)),
        "submitted drift vs baseline must fail",
    )
    ld_gone = _load_manifest(**{"counters/load_micro.rotates": None})
    expect(
        any("load_micro.rotates" in f and "missing" in f
            for f in load_failures(ld_gone, ld_base)),
        "missing schedule counter must fail",
    )

    # The zero-loss contract: a single lost or rejected request fails,
    # as does any server-side parse error or backlog overflow.
    ld_lost = _load_manifest(
        **{"counters/load_micro.lost": 1, "counters/load_micro.answered": 101_367}
    )
    expect(
        any("load_micro.lost" in f and "must be 0" in f
            for f in load_failures(ld_lost, ld_lost)),
        "a lost request must fail",
    )
    ld_parse = _load_manifest(**{"counters/net.parse_errors": 3})
    expect(
        any("net.parse_errors" in f for f in load_failures(ld_parse, ld_base)),
        "server parse errors must fail",
    )

    # Outcome conservation: answered + shed + rejected == submitted,
    # and the 429/503 attribution must account for every shed.
    ld_leak = _load_manifest(**{"counters/load_micro.answered": 101_000})
    expect(
        any("imbalance" in f for f in load_failures(ld_leak, ld_leak)),
        "outcome imbalance must fail",
    )
    ld_attr = _load_manifest(**{"counters/load_micro.shed_429": 12_400})
    expect(
        any("attribution" in f for f in load_failures(ld_attr, ld_attr)),
        "shed attribution imbalance must fail",
    )
    ld_req = _load_manifest(**{"counters/net.http.requests": 113_000})
    expect(
        any("net.http.requests" in f for f in load_failures(ld_req, ld_base)),
        "frontend request-count mismatch must fail",
    )

    # The open-loop floor: a shrunken schedule cannot pass.
    ld_small = _load_manifest(
        **{
            "counters/load_micro.submitted": 10_000,
            "counters/load_micro.answered": 9_000,
            "counters/load_micro.shed": 1_000,
            "counters/load_micro.shed_429": 1_000,
            "counters/load_micro.shed_503": 0,
            "counters/net.http.requests": 10_000,
        }
    )
    expect(
        any("open-loop" in f and "floor" in f for f in load_failures(ld_small, ld_small)),
        "sub-100k schedule must fail the floor",
    )

    # Toleranced outcomes: shed-rate ceiling, overload-goodput floor,
    # latency-percentile ceilings, and missing gauges all fail.
    ld_shed = _load_manifest(**{"gauges/load_micro.shed_rate": 0.75})
    expect(
        any("shed rate" in f and "ceiling" in f for f in load_failures(ld_shed, ld_base)),
        "shed rate over ceiling must fail",
    )
    ld_collapse = _load_manifest(**{"gauges/load_micro.overload_goodput_rps": 500.0})
    expect(
        any("overload goodput" in f for f in load_failures(ld_collapse, ld_base)),
        "overload goodput under floor must fail",
    )
    ld_slow = _load_manifest(**{"gauges/load_micro.latency.p99_ns": 1.6e9})
    expect(
        any("latency.p99_ns" in f and "ceiling" in f
            for f in load_failures(ld_slow, ld_base)),
        "p99 over ceiling must fail",
    )
    ld_nogauge = _load_manifest(**{"gauges/load_micro.latency.p999_ns": None})
    expect(
        any("latency.p999_ns" in f and "missing" in f
            for f in load_failures(ld_nogauge, ld_base)),
        "missing latency gauge must fail",
    )
    ld_tight = load_failures(ld_base, ld_base, max_p99_ms=10.0)
    expect(
        any("latency.p99_ns" in f for f in ld_tight),
        "a tightened p99 knob must bite",
    )

    # Trace decomposition counts scatter_ns: a scatter-heavy entry
    # whose other four parts alone fall 1% short must still pass.
    parts_entry = {
        "id": "t1",
        "total_ns": 1_000_000,
        "queue_ns": 100_000,
        "assembly_ns": 100_000,
        "compute_ns": 500_000,
        "cache_ns": 100_000,
        "scatter_ns": 200_000,
    }
    total = int(parts_entry["total_ns"])
    five = sum(
        int(parts_entry.get(k, 0))
        for k in ("queue_ns", "assembly_ns", "compute_ns", "cache_ns", "scatter_ns")
    )
    expect(abs(five - total) <= max(total // 100, 1), "five-part trace sum must balance")
    four = sum(
        int(parts_entry.get(k, 0))
        for k in ("queue_ns", "assembly_ns", "compute_ns", "cache_ns")
    )
    expect(abs(four - total) > max(total // 100, 1), "four-part sum alone drifts")

    print(f"bench_gate selftest OK ({checks} checks)")


def cmd_speedup(args):
    serial = load(args.serial)
    parallel = load(args.parallel)
    serial_ms = span_total_ms(serial, args.span)
    parallel_ms = span_total_ms(parallel, args.span)
    failures = []
    if serial_ms is None or parallel_ms is None:
        missing = args.serial if serial_ms is None else args.parallel
        failures.append(f"span {args.span}: missing from {missing}")
    elif parallel_ms <= 0:
        failures.append(f"span {args.span}: parallel total is {parallel_ms} ms")
    else:
        ratio = serial_ms / parallel_ms
        detail = (
            f"span {args.span}: serial {serial_ms:.3f} ms / "
            f"parallel {parallel_ms:.3f} ms = {ratio:.2f}x"
        )
        if ratio < args.min_speedup:
            failures.append(f"{detail} < required {args.min_speedup:.2f}x")
        else:
            print(f"bench_gate speedup OK: {detail}")
    report("speedup", failures, f"{args.serial} vs {args.parallel}")


def report(mode, failures, context):
    if failures:
        print(f"bench_gate {mode} FAILED ({context}):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_gate {mode} OK ({context})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    check = sub.add_parser("check", help="fresh manifest vs committed baseline")
    check.add_argument("--fresh", required=True)
    check.add_argument("--baseline", required=True)
    check.add_argument(
        "--time-tolerance",
        type=float,
        default=25.0,
        help="max allowed span wall-time regression, percent (default 25)",
    )
    check.add_argument(
        "--no-time",
        action="store_true",
        help="skip the wall-time check (counters only)",
    )
    check.set_defaults(func=cmd_check)

    equal = sub.add_parser("equal", help="two manifests agree on tracked counters")
    equal.add_argument("a")
    equal.add_argument("b")
    equal.set_defaults(func=cmd_equal)

    micro = sub.add_parser(
        "micro", help="gate the propagate_micro manifest cell"
    )
    micro.add_argument("--fresh", required=True)
    micro.add_argument("--baseline", required=True)
    micro.add_argument(
        "--time-tolerance",
        type=float,
        default=25.0,
        help="max allowed span wall-time regression, percent (default 25)",
    )
    micro.add_argument(
        "--no-time",
        action="store_true",
        help="skip the wall-time check (counters + allocs only)",
    )
    micro.set_defaults(func=cmd_micro)

    serve = sub.add_parser(
        "serve", help="gate the serve_micro serving-cell manifest"
    )
    serve.add_argument("--fresh", required=True)
    serve.add_argument("--baseline", required=True)
    serve.add_argument(
        "--time-tolerance",
        type=float,
        default=25.0,
        help="max allowed span wall-time regression, percent (default 25)",
    )
    serve.add_argument(
        "--p99-max-ms",
        type=float,
        default=250.0,
        help="upper bound on service.request_latency p99, ms (default 250)",
    )
    serve.add_argument(
        "--no-time",
        action="store_true",
        help="skip the wall-time check (counters + accounting + p99 only)",
    )
    serve.set_defaults(func=cmd_serve)

    trace = sub.add_parser(
        "trace", help="fully-sampled tracing leaves the serving counters alone"
    )
    trace.add_argument("--traced", required=True)
    trace.add_argument("--plain", required=True)
    trace.set_defaults(func=cmd_trace)

    large = sub.add_parser(
        "large", help="gate the table5_large paper-scale manifest cell"
    )
    large.add_argument("--fresh", required=True)
    large.add_argument("--baseline", required=True)
    large.add_argument(
        "--time-tolerance",
        type=float,
        default=50.0,
        help="max allowed span wall-time regression, percent (default 50 "
        "— the 1M-node spans run tens of seconds on shared CI runners)",
    )
    large.add_argument(
        "--min-nodes",
        type=int,
        default=1_000_000,
        help="minimum graph size the cell must build (default 1000000)",
    )
    large.add_argument(
        "--max-bytes-per-node",
        type=float,
        default=16.0,
        help="ceiling on graph.bytes_per_node (default 16)",
    )
    large.add_argument(
        "--max-bytes-per-edge",
        type=float,
        default=12.5,
        help="ceiling on graph.bytes_per_edge (default 12.5 — the "
        "compact CSR stores 12 B per edge)",
    )
    large.add_argument(
        "--no-time",
        action="store_true",
        help="skip the wall-time check (counters + footprint only)",
    )
    large.set_defaults(func=cmd_large)

    warmstart = sub.add_parser(
        "warmstart",
        help="gate the durable warm-restart cell: warm restore beats a "
        "cold rebuild and answers bit-identically",
    )
    warmstart.add_argument("--fresh", required=True, help="BENCH_warmstart.json")
    warmstart.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="warm restore must be at least this many times faster than "
        "the cold index build (default 5)",
    )
    warmstart.add_argument(
        "--min-nodes",
        type=int,
        default=1_000_000,
        help="minimum graph size the cell must build (default 1000000)",
    )
    warmstart.set_defaults(func=cmd_warmstart)

    shard = sub.add_parser(
        "shard",
        help="gate the sharded-serving cell: the 4-shard fleet answers "
        "bit-identically and its critical path beats one shard",
    )
    shard.add_argument("--fresh", required=True, help="BENCH_shard_micro.json")
    shard.add_argument(
        "--baseline", required=True, help="committed BENCH_shard_micro.json"
    )
    shard.add_argument(
        "--time-tolerance",
        type=float,
        default=50.0,
        help="allowed drive-span drift vs the baseline, percent (default 50)",
    )
    shard.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="the single-shard drive span must be at least this many "
        "times the fleet drive span (default 1.5)",
    )
    shard.add_argument(
        "--min-nodes",
        type=int,
        default=1_000_000,
        help="minimum graph size the cell must build (default 1000000)",
    )
    shard.add_argument(
        "--no-time",
        action="store_true",
        help="skip the drive-span drift check (counters and the speedup "
        "floor still apply)",
    )
    shard.set_defaults(func=cmd_shard)

    load_p = sub.add_parser(
        "load",
        help="gate the open-loop serving cell: fui-load drives 100k+ "
        "scheduled HTTP requests through the fui-net event loop with "
        "zero lost, bounded shed and bounded tail latency",
    )
    load_p.add_argument("--fresh", required=True, help="BENCH_load_micro.json")
    load_p.add_argument(
        "--baseline", required=True, help="committed BENCH_load_micro.json"
    )
    load_p.add_argument(
        "--max-shed-rate",
        type=float,
        default=0.60,
        help="ceiling on the shed fraction of submitted requests "
        "(default 0.60)",
    )
    load_p.add_argument(
        "--min-overload-goodput",
        type=float,
        default=2_000.0,
        help="floor on answered rps during the flash-crowd overload "
        "phase (default 2000)",
    )
    load_p.add_argument(
        "--max-p99-ms",
        type=float,
        default=1_500.0,
        help="ceiling on client-observed p99 latency in ms (default 1500)",
    )
    load_p.add_argument(
        "--max-p999-ms",
        type=float,
        default=3_000.0,
        help="ceiling on client-observed p999 latency in ms (default 3000)",
    )
    load_p.add_argument(
        "--min-submitted",
        type=int,
        default=100_000,
        help="minimum open-loop requests the schedule must carry "
        "(default 100000)",
    )
    load_p.set_defaults(func=cmd_load)

    selftest = sub.add_parser(
        "selftest", help="run the gate's own pure-python test suite"
    )
    selftest.set_defaults(func=cmd_selftest)

    speedup = sub.add_parser("speedup", help="parallel beats serial on a span")
    speedup.add_argument("--serial", required=True)
    speedup.add_argument("--parallel", required=True)
    speedup.add_argument("--span", default="table5.preprocess")
    speedup.add_argument("--min-speedup", type=float, default=1.5)
    speedup.set_defaults(func=cmd_speedup)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
