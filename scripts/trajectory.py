#!/usr/bin/env python3
"""The benchmark's history, one committed row per PR and workload (ROADMAP 4(d)).

    python3 scripts/trajectory.py append   # benchmark/out/*.json -> results/trajectory/<workload>.jsonl
    python3 scripts/trajectory.py show     # last five rows per workload, as markdown

`append` reads each `benchmark/out/<workload>.json` (and `<workload>.traced.json`
when present: a per-layer metric the plain run leaves at 0 is read there) and
stamps the row with HEAD, `<hash>+` on a dirty tree.
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT, ROWS = ROOT / "benchmark/out", ROOT / "results/trajectory"
END_TO_END = ["setup_s", "query_p50_ms", "query_p99_ms", "slo_ok_frac", "rss_peak_mb"]
PER_LAYER = ["rotate_s", "refresh_s", "stall_max_ms", "capacity_rps", "batch_qps",
             "service.snapshot.apply_changes_s", "core.authority.build_s",
             "core.simrows.build_s", "net.rec_hit_rtt_us", "net.health_rtt_us",
             "net.wait_ms", "service.batch.size_p50", "proc.cpu_sys_s_per_kreq",
             "durable_rotate_s", "restore_s", "service.durable.snapshot_mb",
             "service.durable.encode_snapshot_s", "core.authority.bytes_per_node",
             "landmarks.explore_us", "core.workspace.warm_query_us",
             "service.call_many32_miss_us_per_req"]


def git(*args):
    run = subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True)
    return run.stdout.strip()


def append():
    commit, subject = git("log", "-1", "--format=%h\t%s").split("\t", 1)
    if git("status", "--porcelain", "--untracked-files=no"):
        commit, subject = commit + "+", "uncommitted work on " + subject
    ROWS.mkdir(parents=True, exist_ok=True)
    for plain in sorted(OUT.glob("*.json")):
        doc = json.loads(plain.read_text())
        if "end_to_end" not in doc or doc.get("traced"):
            continue
        traced = OUT / f"{doc['workload']}.traced.json"
        deep = json.loads(traced.read_text())["per_layer"] if traced.exists() else {}
        row = {"commit": commit, "subject": subject}
        row.update((k, doc["end_to_end"][k]["value"]) for k in END_TO_END)
        for k in PER_LAYER:
            row[k] = doc["per_layer"].get(k, {}).get("value") or deep.get(k, {}).get("value", 0)
        with open(ROWS / f"{doc['workload']}.jsonl", "a") as f:
            f.write(json.dumps(row) + "\n")


def show():
    columns = ["commit"] + END_TO_END + PER_LAYER
    for path in sorted(ROWS.glob("*.jsonl")):
        print(f"### {path.stem}\n\n| " + " | ".join(columns) + " |\n|" + "---|" * len(columns))
        for r in [json.loads(line) for line in path.read_text().splitlines()][-5:]:
            cells = [r[c] if c == "commit" else f"{r.get(c, 0):.4g}" for c in columns]
            print("| " + " | ".join(cells) + " |")
        print()


if __name__ == "__main__":
    verb = {"append": append, "show": show}.get(sys.argv[1] if len(sys.argv) == 2 else "")
    sys.exit(verb() if verb else __doc__)
