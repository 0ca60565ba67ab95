#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric, workload by workload.

    python3 benchmark/compare.py A B

A and B are directories holding result files written by the benchmark
(`benchmark/out/<workload>.json`), any number of runs per workload, in any
sub-directories. A is the parent commit, B the change. For every end-to-end
metric on every workload one row is printed:

    same        B's median is within the metric's bound of A's
    better      B's median is better than A's by more than the bound
    worse       B's median is worse than A's by more than the bound
    unresolved  A's own runs spread (inter-quartile range over median) wider
                than the bound, and B's runs do not all beat A's

The bounds and directions come from BENCHMARK.json. The exit code is 1 if any
row reads `worse`, 2 on unusable input, else 0.
"""

import json
import pathlib
import statistics
import sys


def load_runs(root):
    """workload -> metric -> [values], plus workload -> [failed / attempted]."""
    values, failures = {}, {}
    for path in sorted(pathlib.Path(root).rglob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or "end_to_end" not in doc or doc.get("traced"):
            continue
        per_metric = values.setdefault(doc["workload"], {})
        for name, cell in doc["end_to_end"].items():
            per_metric.setdefault(name, []).append(float(cell["value"]))
        failures.setdefault(doc["workload"], []).append(
            doc.get("failed", 0) / max(1, doc.get("attempted", 1))
        )
    return values, failures


def spread(xs):
    """Inter-quartile range as a share of the median (0 for fewer than 2 runs)."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a, b, better, bound):
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = -1.0 if better == "lower" else 1.0  # gain > 0 means B is better
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if better == "lower":
        all_beat = max(b) < min(a)
    else:
        all_beat = min(b) > max(a)
    if spread(a) > bound and not all_beat:
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if gain > bound:
        return "better", gain
    return "same", gain


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    manifest = json.loads(
        (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    a_values, a_fail = load_runs(argv[1])
    b_values, b_fail = load_runs(argv[2])
    if not a_values or not b_values:
        print("no result files found under", argv[1] if not a_values else argv[2])
        return 2
    worse = False
    print(f"{'workload':<14} {'metric':<14} {'verdict':<11} {'A median':>12} {'B median':>12} "
          f"{'gain':>8} {'bound':>6} {'A spread':>8}  runs")
    for workload in [w["name"] for w in manifest["workloads"]]:
        if workload not in a_values or workload not in b_values:
            print(f"{workload:<14} (missing from one side)")
            continue
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = a_values[workload].get(name), b_values[workload].get(name)
            if not a or not b:
                continue
            word, gain = verdict(a, b, metric["better"], bound)
            worse |= word == "worse"
            print(f"{workload:<14} {name:<14} {word:<11} {statistics.median(a):>12.4f} "
                  f"{statistics.median(b):>12.4f} {gain:>+8.1%} {bound:>6.0%} {spread(a):>8.1%}  "
                  f"{len(a)}/{len(b)}")
        fa, fb = statistics.median(a_fail[workload]), statistics.median(b_fail[workload])
        flag = "  <-- differs by 0.02 or more" if abs(fa - fb) >= 0.02 else ""
        print(f"{workload:<14} {'failed/attempted':<26} {fa:>12.4f} {fb:>12.4f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
