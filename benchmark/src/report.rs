//! Metric names, the run result and its serialisations.
//!
//! The names here are the benchmark's contract with `BENCHMARK.json`
//! (a unit test holds the two lists equal): an untraced run reports
//! every end-to-end metric, a traced run every per-layer metric.

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("slo_ok_frac", "fraction"),
    ("rss_peak_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in report order. A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // load: validity guards and the client-side view of mutations.
    ("load.send_lag_p99_ms", "ms"),
    ("load.sent", "count"),
    ("load.lost", "count"),
    ("load.query_p99_ms", "ms"),
    ("load.ops_attempted", "count"),
    ("load.ops_failed", "count"),
    ("capacity_rps", "1/s"),
    ("write_ack_p50_ms", "ms"),
    ("rotate_s", "s"),
    ("refresh_s", "s"),
    ("stall_max_ms", "ms"),
    ("batch_qps", "1/s"),
    ("durable_rotate_s", "s"),
    ("restore_s", "s"),
    // net
    ("net.parse_request_ns", "ns"),
    ("net.write_response_ns", "ns"),
    ("net.render_reply_ns", "ns"),
    ("net.health_rtt_us", "us"),
    ("net.rec_hit_rtt_us", "us"),
    ("net.wait_ms", "ms"),
    ("net.read_bytes_per_req", "B"),
    ("net.write_bytes_per_req", "B"),
    ("net.parse_errors", "count"),
    // service.batch
    ("service.batch.size_p50", "count"),
    ("service.batch.queue_depth_p99", "count"),
    ("service.batch.submit_pump_us", "us"),
    ("service.shed.queue_full", "count"),
    ("service.shed.deadline", "count"),
    // service.cache
    ("service.cache.hit_ratio", "fraction"),
    ("service.cache.evictions", "count"),
    ("service.cache.get_hit_ns", "ns"),
    ("service.cache.insert_evict_us", "us"),
    // service.service
    ("service.call_hit_us", "us"),
    ("service.call_miss_us", "us"),
    ("service.call_many32_miss_us_per_req", "us"),
    ("service.record_us", "us"),
    ("service.record_durable_us", "us"),
    // core
    ("core.workspace.cold_query_us", "us"),
    ("core.workspace.warm_query_us", "us"),
    ("core.workspace.bytes", "B"),
    ("core.workspace.allocs_per_batch", "count"),
    ("core.propagate.edges_relaxed_per_query", "count"),
    ("core.propagate.edges_per_s", "1/s"),
    ("core.authority.build_s", "s"),
    ("core.authority.bytes_per_node", "B"),
    ("core.simrows.build_s", "s"),
    ("core.topk.select_ns", "ns"),
    // landmarks
    ("landmarks.explore_us", "us"),
    ("landmarks.compose_us", "us"),
    ("landmarks.met_per_query", "count"),
    ("landmarks.composed_pairs_per_query", "count"),
    ("landmarks.index.build_s", "s"),
    ("landmarks.index.refresh_slot_ms", "ms"),
    ("landmarks.index.resident_mb", "MB"),
    ("landmarks.dynamic.record_ns", "ns"),
    // service.snapshot
    ("service.snapshot.apply_changes_s", "s"),
    // service.durable
    ("service.durable.encode_snapshot_s", "s"),
    ("service.durable.write_snapshot_s", "s"),
    ("service.durable.decode_snapshot_s", "s"),
    ("service.durable.snapshot_mb", "MB"),
    ("service.durable.journal_append_us", "us"),
    ("service.durable.journal_bytes_per_change", "B"),
    // service.router
    ("service.router.build_s", "s"),
    ("service.router.explorations_per_query", "count"),
    ("service.router.fanout_per_query", "count"),
    ("service.router.merges_per_query", "count"),
    ("service.router.crit_share", "fraction"),
    // exec
    ("exec.par_map_floor_us", "us"),
    ("exec.tasks_per_query", "count"),
    // graph / datagen
    ("datagen.stream_s", "s"),
    ("graph.bytes_per_node", "B"),
    ("graph.bytes_per_edge", "B"),
    ("graph.partition_s", "s"),
    // proc / obs
    ("proc.cpu_user_s_per_kreq", "s"),
    ("proc.cpu_sys_s_per_kreq", "s"),
    ("obs.trace_overhead_frac", "fraction"),
    // the accounting the trace file details
    ("trace.busy_ms", "ms"),
    ("trace.wait_ms", "ms"),
];

/// Named values collected during a run; a name set twice keeps the
/// later value.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_owned(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What one run found.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Operations the run attempted in its measured parts.
    pub attempted: u64,
    /// Of those, how many were shed, answered non-2xx, lost or came
    /// back `Overloaded`.
    pub failed: u64,
    /// Every metric the run measured (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Output checks that failed; empty means correct.
    pub check_failures: Vec<String>,
    /// Extra `name value` lines for the human report.
    pub info: Vec<(String, String)>,
    /// Traced run only: the busy/wait rows `(row, value, unit)` that
    /// account for the client-observed latency or leg wall.
    pub accounting: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Records a failed output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.check_failures.push(what.into());
    }

    /// Fails the check named `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Adds an informational line.
    pub fn note(&mut self, name: &str, value: impl ToString) {
        self.info.push((name.to_owned(), value.to_string()));
    }
}

/// A JSON number with all the digits `f64` carries; non-finite values
/// (a metric that could not be measured) read 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The `metrics` object for `table`: every listed name, 0 if unset.
fn metrics_json(result: &RunResult, table: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = result.metrics.get(name).unwrap_or(0.0);
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    out.push('}');
    out
}

/// The one-line result object the contract asks for: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(result: &RunResult, traced: bool) -> String {
    let table = if traced { PER_LAYER } else { END_TO_END };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.check_failures.is_empty(),
        result.attempted.max(1),
        result.failed,
        metrics_json(result, table)
    )
}

/// The result file: the result line's fields plus the run's identity,
/// so `compare.py` can refuse to compare different workloads.
pub fn result_file(
    result: &RunResult,
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> String {
    let failures: Vec<String> = result
        .check_failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('\\', "/").replace('"', "'")))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"traced\": {traced}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"check_failures\": [{}],\n \
         \"end_to_end\": {},\n \"per_layer\": {}}}\n",
        result.check_failures.is_empty(),
        result.attempted.max(1),
        result.failed,
        failures.join(", "),
        metrics_json(result, END_TO_END),
        metrics_json(result, PER_LAYER),
    )
}

/// The human report: one `name value unit` line per metric of the
/// tables that apply, then the informational lines.
pub fn print_report(result: &RunResult, traced: bool) {
    let mut tables: Vec<&[(&str, &str)]> = vec![END_TO_END];
    if traced {
        tables.push(PER_LAYER);
    }
    for table in tables {
        for (name, unit) in table {
            let v = result.metrics.get(name).unwrap_or(0.0);
            println!("{name} {} {unit}", json_number(v));
        }
    }
    for (row, value, unit) in &result.accounting {
        println!("# accounting: {row} {} {unit}", json_number(*value));
    }
    for (name, value) in &result.info {
        println!("# {name} {value}");
    }
    for failure in &result.check_failures {
        println!("CHECK FAILED: {failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_short_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let at = text.find(&format!("\"{key}\"")).expect("section present");
            &text[at..]
        };
        let e2e = section("end_to_end");
        let e2e = &e2e[..e2e.find("\"per_layer\"").expect("per_layer follows")];
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        let layers = section("per_layer");
        for (name, unit) in PER_LAYER {
            assert!(
                layers.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.metrics.set("setup_s", 1.25);
        r.metrics.set("query_p50_ms", f64::NAN);
        let line = result_line(&r, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"query_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(!line.contains('\n'));
        r.fail("probe mismatch");
        assert!(result_line(&r, true).starts_with("{\"correct\": false"));
    }
}
