#!/usr/bin/env python3
"""CI gate over fui-bench run manifests (BENCH_<id>.json).

One rule table (`CELLS`, keyed by the manifest's own "id" field) and one
engine (`failures`). The gate reads counters, gauges and params and
never a clock: no span, no histogram, no latency. How fast the system
runs is measured parent against change, side by side on one machine, by
benchmark/compare.py; a wall time held to a baseline recorded on another
host is red at every commit and so gates nothing. What is pinned here is
what must not move at all: deterministic work counters, bit-exact score
checksums, request accounting and memory-footprint ceilings.

  gate FRESH [BASELINE]  Every rule of FRESH's cell holds. BASELINE is
                         the committed manifest the cell's `exact`
                         counters must equal, read only if it pins any.
  equal A B              Two manifests of one cell (FUI_THREADS=1 vs 4)
                         agree on every `exact` counter.
  trace TRACED PLAIN     `equal`, plus: the fully sampled run committed
                         ring records, the counters-only run none, and the
                         five parts of each slowest trace sum within 1 %.
  selftest               Generates a passing manifest and every must-fail
                         mutation from each cell's rules, and holds the
                         committed baselines to their own rules (lint job).

A name missing from a manifest is a failure, never a skip; so is gating
a cell that pins `exact` counters without a baseline, and so is an
unknown "id". Exit codes: 0 pass, 1 gate failure, 2 usage or IO error.
"""

import copy
import glob
import json
import os
import sys

# The paper-scale floor: the streamed-graph cells may not quietly shrink.
MILLION = 1_000_000

# Deterministic work counters of the propagation and landmark layers.
# exec.* queue/steal and propagate.workspace.* reuse counters are absent
# on purpose: they describe scheduling, which varies with the pool width.
WORK = [
    "propagate.calls", "propagate.edges_relaxed", "propagate.levels",
    "landmark.pruned_at", "landmark.composed_pairs", "landmark.query.landmarks_met",
    "query.candidates",
]


def cell(exact=(), pairs=(), sums=(), bounds=()):
    """One cell's rules. `exact`: the counter equals the baseline's.
    `pairs` (a, b): two values of the fresh manifest are equal. `sums`
    ([terms], total): the terms add up. `bounds` (operand, lo, hi, why):
    lo <= operand <= hi, None for open. An operand is a counter or gauge
    name, "params.<name>", a number, or a (numerator, denominator) pair."""
    return {"exact": list(exact), "pairs": list(pairs), "sums": list(sums), "bounds": list(bounds)}


CELLS = {
    "table5": cell(exact=WORK),
    "propagate_micro": cell(
        exact=WORK + ["propagate_micro.single.calls", "propagate_micro.single.edges_relaxed"],
        bounds=[
            ("propagate_micro.batch_allocs", None, "params.exec_threads",
             "the pooled batch allocates one workspace per worker, never one per query"),
        ],
    ),
    # Admission control sheds on queue depth (the generator overfills the
    # queue, then pumps it dry), the cache is seeded LRU and rotations
    # fire on fixed cadences: all exact across runs and pool widths.
    "serve_micro": cell(
        exact=[
            "serve_micro.queries", "serve_micro.answered", "serve_micro.updates", "serve_micro.rounds",
            "service.requests", "service.shed", "service.snapshot.rotations",
            "service.cache.hits", "service.cache.misses", "service.cache.evictions",
            "landmarks.dynamic.records", "landmarks.dynamic.refreshes",
        ],
        sums=[(["serve_micro.answered", "service.shed"], "serve_micro.queries")],
    ),
    # checksum_bits folds every returned score into one u64: a single
    # flipped bit anywhere in the 1M-node pipeline fails the gate.
    "table5_large": cell(
        exact=WORK + [
            "table5_large.nodes", "table5_large.edges",
            "table5_large.batch_queries", "table5_large.checksum_bits",
        ],
        bounds=[
            ("table5_large.nodes", MILLION, None, "the cell tests paper scale"),
            ("graph.bytes_per_node", None, 16.0, "compact-CSR ceiling"),
            ("graph.bytes_per_edge", None, 3.5, "packed out-rows; 6 B/edge before"),
            (("propagate.workspace.peak_bytes", "table5_large.nodes"), None, 16.0,
             "reach-sparse workspace: one stamp word per node; the node-dense layout was 488"),
            (("authority.index.bytes", "table5_large.nodes"), None, 32.0,
             "sparse authority rows: non-zero (node, topic) pairs only; the dense rows were 216"),
            ("datagen.stream.scratch_bytes", 0, None, "the streaming generator reports its scratch"),
            ("mem.unaccounted_mb", None, 12.0,
             "VmRSS minus the live engine's accounted bytes: page-mapped arrays leave when dropped "
             "(reads 4.4 MB at 1M x 8); freed memory the heap keeps would show here"),
        ],
    ),
    # Cold build and warm restore run in one process: the restarted
    # service must be the same service, bit for bit, restored from a file
    # that holds nothing the restore can recompute. No baseline.
    "warmstart": cell(
        pairs=[
            ("warmstart.cold_answered", "warmstart.warm_answered"),
            ("warmstart.cold_checksum_bits", "warmstart.warm_checksum_bits"),
            ("warmstart.cold_epoch", "warmstart.warm_epoch"),
            ("warmstart.cold_gen", "warmstart.warm_gen"),
            ("warmstart.cold_seq", "warmstart.warm_seq"),
        ],
        bounds=[
            ("warmstart.nodes", MILLION, None, "the cell tests the table5 graph"),
            ("warmstart.cold_answered", 1, None, "the cell answered something"),
            (("warmstart.snapshot_bytes", "warmstart.edges"), None, 4.4,
             "nothing derivable in the file, rows packed: v3 is 8n + the row stream + the index, "
             "4.01; v2 (6 B/edge rows) read 6.96, with the in-side 13.4"),
        ],
    ),
    # The exact counters are a pure function of the seeded schedule. How
    # many requests were answered and how many shed depends on timing and
    # is not pinned; conservation and the shed ceiling hold it instead.
    # The workload is well-formed, so any parse error is a frontend bug.
    "load_micro": cell(
        exact=[
            "load_micro.submitted", "load_micro.queries", "load_micro.changes",
            "load_micro.rotates", "load_micro.refreshes", "load_micro.rejected", "load_micro.lost",
        ],
        sums=[
            (["load_micro.answered", "load_micro.shed", "load_micro.rejected"], "load_micro.submitted"),
            (["load_micro.shed_429", "load_micro.shed_503"], "load_micro.shed"),
            (["net.http.requests"], "load_micro.submitted"),
        ],
        bounds=[
            (name, 0, 0, "a clean run loses nothing and sends nothing malformed")
            for name in (
                "net.parse_errors", "net.accept_overflow", "net.http.bad_request", "net.http.not_found",
                "load_micro.rejected", "load_micro.lost",
            )
        ] + [
            ("load_micro.submitted", 100_000, None, "the schedule drives 100k+ requests"),
            ("load_micro.answered", 1, None, "the cell answered something"),
            (("load_micro.shed", "load_micro.submitted"), None, 0.60,
             "admission control sheds under the flash crowd, it does not collapse"),
            (("net.loop.passes", "net.http.requests"), None, 3.0,
             "the loop runs when something happened: at most a read edge and a resolve wake per request"),
        ],
    ),
}

TRACE_PARTS = ("queue_ns", "assembly_ns", "compute_ns", "cache_ns", "scatter_ns")


def slot(manifest, name):
    """The section of the manifest that holds `name`, and its key there."""
    if name.startswith("params."):
        return manifest.get("params", {}), name[len("params."):]
    gauges = manifest.get("gauges", {})
    return (gauges if name in gauges else manifest.get("counters", {})), name


def value(manifest, operand):
    """Resolves a rule operand against a manifest; None when absent."""
    if operand is None or isinstance(operand, (int, float)):
        return operand
    if isinstance(operand, tuple):
        num, den = value(manifest, operand[0]), value(manifest, operand[1])
        return None if num is None or not den else num / den
    section, key = slot(manifest, operand)
    return section.get(key)


def show(x):
    """An operand or a value the way the failure lines print it."""
    if isinstance(x, tuple):
        return " / ".join(x)
    return "missing" if x is None else f"{x:.6g}" if isinstance(x, float) else str(x)


def equal_failures(a, b, label_a="A", label_b="B"):
    """Two manifests of one cell agree on every counter the cell pins."""
    rules = CELLS.get(a.get("id"))
    if rules is None or b.get("id") != a.get("id"):
        return [f"{label_a} is a {a.get('id')!r} manifest, {label_b} a {b.get('id')!r}: not one known cell"]
    if not rules["exact"]:
        return [f"cell {a['id']} pins no exact counters: nothing to compare"]
    read = [(name, value(a, name), value(b, name)) for name in rules["exact"]]
    return [f"exact {n}: {label_a}={show(va)} {label_b}={show(vb)}" for n, va, vb in read if va is None or va != vb]


def failures(fresh, baseline=None):
    """Every rule of the fresh manifest's cell that does not hold."""
    cell_id = fresh.get("id")
    rules = CELLS.get(cell_id)
    if rules is None:
        return [f"manifest id {cell_id!r}: no such cell (known: {', '.join(CELLS)})"]
    out = []
    if rules["exact"] and baseline is None:
        out.append(f"cell {cell_id} pins exact counters: a baseline manifest is required")
    elif rules["exact"]:
        out += equal_failures(baseline, fresh, "baseline", "fresh")
    for a, b in rules["pairs"]:
        va, vb = value(fresh, a), value(fresh, b)
        if va is None or va != vb:
            out.append(f"pair {a} == {b}: {show(va)} vs {show(vb)}")
    for terms, total in rules["sums"]:
        parts, whole = [value(fresh, name) for name in terms], value(fresh, total)
        if None in parts or sum(parts) != whole:
            out.append(f"sum {' + '.join(terms)} == {total}: {' + '.join(map(show, parts))} vs {show(whole)}")
    for operand, lo, hi, why in rules["bounds"]:
        got = value(fresh, operand)
        limits = [(op, value(fresh, bound)) for op, bound in ((">=", lo), ("<=", hi)) if bound is not None]
        if got is None or not all(v is not None and (got >= v if op == ">=" else got <= v) for op, v in limits):
            want = " and ".join(f"{op} {show(v)}" for op, v in limits)
            out.append(f"bound {show(operand)}: {show(got)}, must be {want} ({why})")
    return out


def trace_failures(traced, plain):
    """Tracing is invisible to the pinned counters, inert below
    FUI_OBS=full, and its latency decomposition is an exact sum."""
    out = equal_failures(plain, traced, "plain", "traced")
    for name, run, want in (("traced", traced, "> 0"), ("plain", plain, "== 0")):
        commits = value(run, "trace.committed")
        if commits is None or (commits > 0) != (run is traced):
            out.append(f"trace.committed: {name} run reads {show(commits)}, must be {want}")
    slowest = traced.get("trace", {}).get("slowest", [])
    if not slowest:
        out.append("trace block: fully sampled manifest carries no slowest traces")
    for i, entry in enumerate(slowest):
        total = int(entry.get("total_ns", 0))
        parts = sum(int(entry.get(k, 0)) for k in TRACE_PARTS)
        if abs(parts - total) > max(total // 100, 1):
            out.append(f"trace {entry.get('id', i)}: parts sum {parts} ns vs total {total} ns, past 1 %")
    return out


def large_summary(fresh):
    """One-row markdown footprint table for $GITHUB_STEP_SUMMARY."""
    columns = {
        "nodes": "table5_large.nodes",
        "edges": "table5_large.edges",
        "graph B/node": "graph.bytes_per_node",
        "graph B/edge": "graph.bytes_per_edge",
        "workspace peak B": "propagate.workspace.peak_bytes",
        "workspace B/node": ("propagate.workspace.peak_bytes", "table5_large.nodes"),
    }
    row = [show(value(fresh, operand)).replace("missing", "?") for operand in columns.values()]
    return f"| cell | {' | '.join(columns)} |\n|{'---|' * (len(columns) + 1)}\n| table5_large | {' | '.join(row)} |\n"


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot read manifest {path}: {e}", file=sys.stderr)
        sys.exit(2)


def report(mode, out, context):
    if out:
        print(f"bench_gate {mode} FAILED ({context}):", file=sys.stderr)
        for line in out:
            print(f"  - {line}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_gate {mode} OK ({context})")


def cmd_gate(fresh_path, baseline_path=None):
    fresh = load(fresh_path)
    rules = CELLS.get(fresh.get("id"), {})
    baseline = load(baseline_path) if baseline_path and rules.get("exact") else None
    if fresh.get("id") == "table5_large":
        summary = large_summary(fresh)
        print(summary, end="")
        with open(os.environ.get("GITHUB_STEP_SUMMARY") or os.devnull, "a", encoding="utf-8") as f:
            f.write("### table5_large footprint\n\n" + summary + "\n")
    counts = ", ".join(f"{len(v)} {kind}" for kind, v in rules.items())
    against = f" vs {baseline_path}" if baseline is not None else ""
    report("gate", failures(fresh, baseline), f"{fresh.get('id')}: {counts}; {fresh_path}{against}")


def names_in(*operands):
    """The counter, gauge and param names the operands read."""
    flat = [x for operand in operands for x in (operand if isinstance(operand, tuple) else [operand])]
    return [x for x in flat if isinstance(x, str)]


def synthesize(cell_id):
    """A manifest that passes every rule of the cell, built from the
    rules alone: every name a million (every param 4), then clamped
    into its bounds, then each sum carried by its first term."""
    rules = CELLS[cell_id]
    manifest = {"id": cell_id, "params": {}, "counters": {}, "gauges": {}}
    operands = rules["exact"] + [name for pair in rules["pairs"] for name in pair]
    operands += [name for terms, total in rules["sums"] for name in terms + [total]]
    operands += [x for operand, lo, hi, _ in rules["bounds"] for x in (operand, lo, hi)]
    for name in names_in(*operands):
        section, key = slot(manifest, name)
        section[key] = 4 if section is manifest["params"] else MILLION
    counters = manifest["counters"]
    for operand, lo, hi, _ in rules["bounds"]:
        if isinstance(operand, str):
            floor, ceiling = value(manifest, lo), value(manifest, hi)
            raised = counters[operand] if floor is None else max(counters[operand], floor)
            counters[operand] = raised if ceiling is None else min(raised, ceiling)
    for terms, total in rules["sums"]:
        counters.update({name: 0 for name in terms[1:]})
        counters[terms[0]] = counters[total]
    return manifest


def edited(manifest, operand, new):
    """A deep copy where `operand` reads `new` (a ratio moves by its
    numerator), or where the name is deleted when `new` is None."""
    out = copy.deepcopy(manifest)
    if isinstance(operand, tuple):
        operand, new = operand[0], new * value(out, operand[1])
    section, key = slot(out, operand)
    if new is None:
        del section[key]
    else:
        section[key] = new
    return out


def mutations(cell_id):
    """(rule, fresh, baseline) for every way one name or one step breaks
    one rule of the cell, generated from the rules themselves."""
    rules, good = CELLS[cell_id], synthesize(cell_id)

    def drop(name):
        return edited(good, name, None)

    def past(operand, bound, step):
        """`operand` moved `step` past `bound`; past its own value, a bump."""
        return edited(good, operand, value(good, bound) + step)

    for name in rules["exact"]:
        for fresh, baseline in ((past(name, name, 1), good), (drop(name), good), (drop(name), drop(name))):
            yield f"exact {name}:", fresh, baseline
    for a, b in rules["pairs"]:
        for fresh in (past(b, b, 1), drop(a), drop(b)):
            yield f"pair {a} == {b}:", fresh, good
    for terms, total in rules["sums"]:
        for fresh in [past(total, total, 1)] + [drop(name) for name in terms + [total]]:
            yield f"sum {' + '.join(terms)} == {total}:", fresh, good
    for operand, lo, hi, _ in rules["bounds"]:
        broken = [drop(name) for name in names_in(operand, lo, hi)]
        broken += [past(operand, bound, step) for bound, step in ((lo, -1), (hi, +1)) if bound is not None]
        for fresh in broken:
            yield f"bound {show(operand)}:", fresh, good


def cmd_selftest():
    checks = 0

    def expect(condition, what):
        nonlocal checks
        checks += 1
        if not condition:
            print(f"bench_gate selftest FAILED: {what}", file=sys.stderr)
            sys.exit(1)

    def must_fail(out, prefix):
        expect(any(line.startswith(prefix) for line in out), f"want a failure starting {prefix!r}, got {out}")

    for cell_id, rules in CELLS.items():
        good = synthesize(cell_id)
        out = failures(good, good)
        expect(out == [], f"{cell_id}: the synthesized manifest must pass, got {out}")
        for rule, fresh, baseline in mutations(cell_id):
            must_fail(failures(fresh, baseline), rule)

    # The "never a skip" rules that are not a mutation of one name.
    table5, serve = synthesize("table5"), synthesize("serve_micro")
    must_fail(failures({"id": "table9"}), "manifest id 'table9': no such cell")
    must_fail(failures(table5), "cell table5 pins exact counters: a baseline manifest is required")
    must_fail(failures(table5, serve), "baseline is a 'serve_micro' manifest, fresh a 'table5'")
    expect(equal_failures(table5, table5) == [], "a manifest equals itself")
    must_fail(equal_failures(table5, edited(table5, "propagate.calls", 1)), "exact propagate.calls: A=1000000 B=1")
    must_fail(equal_failures(table5, serve), "A is a 'table5' manifest, B a 'serve_micro'")
    must_fail(equal_failures(synthesize("warmstart"), synthesize("warmstart")), "cell warmstart pins no exact")

    # trace: scatter_ns belongs to the exact sum, and a run below
    # FUI_OBS=full may not touch the ring.
    entry = dict({part: 200_000 for part in TRACE_PARTS}, id="t1", total_ns=1_000_000)
    traced = dict(edited(serve, "trace.committed", 5), trace={"slowest": [entry]})
    plain = edited(serve, "trace.committed", 0)
    out = trace_failures(traced, plain)
    expect(out == [], f"a clean traced/plain pair must pass, got {out}")
    unscattered = dict(traced, trace={"slowest": [dict(entry, scatter_ns=0)]})
    must_fail(trace_failures(unscattered, plain), "trace t1: parts sum 800000 ns vs total 1000000 ns")
    must_fail(trace_failures(traced, edited(plain, "trace.committed", 3)), "trace.committed: plain run reads 3")
    must_fail(trace_failures(edited(traced, "trace.committed", 0), plain), "trace.committed: traced run reads 0")
    must_fail(trace_failures(traced, serve), "trace.committed: plain run reads missing")
    must_fail(trace_failures(dict(traced, trace={}), plain), "trace block:")
    must_fail(trace_failures(traced, edited(plain, "service.shed", 1)), "exact service.shed: plain=1 traced=0")

    # The step-summary row renders from counters and gauges and degrades
    # to placeholders instead of crashing on a sparse manifest.
    summary = large_summary(synthesize("table5_large"))
    expect("| table5_large | 1000000 | 1000000 | 16 | 3.5 | 1000000 | 1 |" in summary, f"summary renders: {summary}")
    expect(large_summary({}).count("?") == 6, "summary degrades on an empty manifest")

    # The committed baselines pass their own gate, and every cell that
    # pins exact counters has one.
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "results", "baseline")
    committed = [load(path) for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json")))]
    for manifest in committed:
        out = failures(manifest, manifest)
        expect(out == [], f"results/baseline/BENCH_{manifest.get('id')}.json fails its own gate: {out}")
    lacking = {cell_id for cell_id, rules in CELLS.items() if rules["exact"]} - {m.get("id") for m in committed}
    expect(not lacking, f"cells that pin exact counters but have no committed baseline: {lacking}")

    print(f"bench_gate selftest OK ({checks} checks, {len(committed)} committed baselines)")


def main():
    mode, *paths = sys.argv[1:] or [None]
    if mode == "selftest" and not paths:
        cmd_selftest()
    elif mode == "gate" and len(paths) in (1, 2):
        cmd_gate(*paths)
    elif mode in ("equal", "trace") and len(paths) == 2:
        check = equal_failures if mode == "equal" else trace_failures
        report(mode, check(load(paths[0]), load(paths[1])), " vs ".join(paths))
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
