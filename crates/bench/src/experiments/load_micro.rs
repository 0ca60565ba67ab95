//! Extra — `load_micro`: the open-loop HTTP serving cell the CI bench
//! gate pins (`scripts/bench_gate.py gate`).
//!
//! Where `serve_micro` is a **closed** loop (the generator waits for
//! every burst to drain, so offered load can never exceed completion
//! rate), this cell is an **open** loop: `fui-load` compiles a seeded
//! schedule — a diurnal ramp, a steady plateau, a deliberate
//! flash-crowd overload and a recovery tail, with follow/unfollow
//! churn and rotate/refresh control traffic riding the same arrival
//! stream — and sends every request at its precomputed instant over
//! keep-alive pipelined connections to the `fui-net` event-loop HTTP
//! frontend, whether or not earlier requests have answered. Under the
//! flash phase the submission queue genuinely fills, admission
//! control genuinely sheds (`429`, or `503` across a rotation stall),
//! and the p99/p999 the report prints are honest user-visible
//! numbers.
//!
//! The default trial submits **114 000 requests in ~6 seconds of
//! schedule** and requires *zero lost*: every request is answered,
//! shed, or the run fails. Counts derived from the schedule
//! (`submitted` and the query/change/rotate/refresh split) are exact
//! across runs, platforms and `FUI_THREADS` widths. Latency and
//! goodput are reported, not gated (the gate reads no clock); the shed
//! rate is gated as a counter ratio, `shed / submitted <= 0.60`.

use std::sync::Arc;

use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::{GraphBuilder, NodeId};
use fui_load::{build_schedule, drive, ClientConfig, LoadReport, Phase, WorkloadSpec};
use fui_net::{HttpConfig, HttpServer};
use fui_service::{Service, ServiceConfig};
use fui_taxonomy::{SimMatrix, Topic, TopicSet};

use crate::datasets::ExperimentScale;
use crate::table::{f3, TextTable};

/// Salt separating this cell's seed stream from the other sweeps.
const SEED_SALT: u64 = 0x10AD_2016;

/// Users (== graph nodes) the Zipf sampler draws from.
const USERS: u32 = 384;

/// Keep-alive connections the driver opens.
const CONNECTIONS: usize = 8;

/// Landmark entry list length.
const STORED_TOP_N: usize = 50;

/// Admission-control bound: small enough that the flash phase
/// overflows it, large enough that the plateau rarely does.
const QUEUE_CAPACITY: usize = 512;

/// The graph every trial serves: deterministic, no RNG.
fn build_graph() -> fui_graph::SocialGraph {
    let n = USERS;
    let mut b = GraphBuilder::with_capacity(n as usize, n as usize * 4);
    for u in 0..n {
        let mut labels = TopicSet::empty();
        labels.insert(Topic::ALL[u as usize % Topic::ALL.len()]);
        b.add_node(labels);
    }
    for u in 0..n {
        for k in [1u32, 7, 45, 131] {
            let mut labels = TopicSet::empty();
            labels.insert(Topic::ALL[(u + k) as usize % Topic::ALL.len()]);
            b.add_edge(NodeId(u), NodeId((u + k) % n), labels);
        }
    }
    b.build()
}

/// The serving instance under test.
fn build_service() -> Arc<Service> {
    let graph = build_graph();
    let landmarks: Vec<NodeId> = graph.nodes().filter(|u| u.0 % 6 == 0).collect();
    Arc::new(Service::new(
        graph,
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        landmarks,
        STORED_TOP_N,
        ServiceConfig {
            max_batch: 32,
            queue_capacity: QUEUE_CAPACITY,
            cache_capacity: 1024,
            cache_shards: 8,
            refresh_threshold: 0.05,
        },
    ))
}

/// The CI workload: 8k ramp + 40k plateau + 54k flash + 12k recovery
/// = 114 000 arrivals (integer-exact) over 6.2 scheduled seconds.
fn ci_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed: seed ^ SEED_SALT,
        phases: vec![
            Phase {
                name: "ramp",
                secs: 1.0,
                rate_start: 0.0,
                rate_end: 16_000.0,
                overload: false,
            },
            Phase {
                name: "steady",
                secs: 2.5,
                rate_start: 16_000.0,
                rate_end: 16_000.0,
                overload: false,
            },
            Phase {
                name: "flash",
                secs: 1.2,
                rate_start: 45_000.0,
                rate_end: 45_000.0,
                overload: true,
            },
            Phase {
                name: "recovery",
                secs: 1.5,
                rate_start: 8_000.0,
                rate_end: 8_000.0,
                overload: false,
            },
        ],
        users: USERS,
        zipf_s: 1.05,
        topics: 8,
        top_n: 10,
        change_frac: 0.02,
        rotate_every_s: 1.3,
        refresh_every_s: 0.9,
    }
}

/// Drives `spec` against a fresh service + HTTP frontend and returns
/// the client-side report. Panics on any lost request — the zero-lost
/// contract is the cell's reason to exist.
pub fn measure_spec(spec: &WorkloadSpec) -> LoadReport {
    let schedule = build_schedule(spec);
    let counts = schedule.counts();
    let server = HttpServer::start(build_service(), "127.0.0.1:0", HttpConfig::default())
        .expect("start http server");
    let report = drive(
        server.local_addr(),
        &ClientConfig {
            connections: CONNECTIONS,
            drain_timeout: std::time::Duration::from_secs(15),
        },
        &schedule,
    );
    server.shutdown();

    assert_eq!(report.lost, 0, "zero-lost contract: {report:?}");
    assert_eq!(
        report.answered + report.shed + report.rejected,
        report.submitted,
        "every request must be answered, shed or rejected"
    );
    assert_eq!(
        report.submitted,
        schedule.submitted(),
        "open loop must send the whole schedule"
    );
    assert_eq!(report.rejected, 0, "the workload only sends valid requests");

    fui_obs::counter("load_micro.submitted").add(report.submitted);
    fui_obs::counter("load_micro.queries").add(counts.queries);
    fui_obs::counter("load_micro.changes").add(counts.changes);
    fui_obs::counter("load_micro.rotates").add(counts.rotates);
    fui_obs::counter("load_micro.refreshes").add(counts.refreshes);
    fui_obs::counter("load_micro.answered").add(report.answered);
    fui_obs::counter("load_micro.shed").add(report.shed);
    fui_obs::counter("load_micro.shed_429").add(report.shed_429);
    fui_obs::counter("load_micro.shed_503").add(report.shed_503);
    fui_obs::counter("load_micro.rejected").add(report.rejected);
    fui_obs::counter("load_micro.lost").add(report.lost);
    // Exact client-side percentiles (the obs histograms are
    // log-bucketed and stop at p99).
    fui_obs::gauge("load_micro.latency.p50_ns").set(report.p50_ns as f64);
    fui_obs::gauge("load_micro.latency.p99_ns").set(report.p99_ns as f64);
    fui_obs::gauge("load_micro.latency.p999_ns").set(report.p999_ns as f64);
    fui_obs::gauge("load_micro.latency.max_ns").set(report.max_ns as f64);
    fui_obs::gauge("load_micro.send_lag.p99_ns").set(report.send_lag_p99_ns as f64);
    fui_obs::gauge("load_micro.goodput_rps").set(report.goodput_rps);
    fui_obs::gauge("load_micro.overload_goodput_rps").set(report.overload_goodput_rps);
    fui_obs::gauge("load_micro.shed_rate").set(report.shed_rate);
    fui_obs::gauge("load_micro.wall_s").set(report.wall_s);

    report
}

/// Runs the CI-shaped trial.
pub fn measure(scale: &ExperimentScale) -> LoadReport {
    measure_spec(&ci_spec(scale.seed))
}

/// Renders the open-loop cell as a text block.
pub fn run(scale: &ExperimentScale) -> String {
    let r = measure(scale);
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec![
        "frontend".into(),
        format!("fui-net HTTP/1.1 event loop, {CONNECTIONS} keep-alive conns"),
    ]);
    t.row(vec![
        "submitted (answered + shed + rejected)".into(),
        format!(
            "{} ({} + {} + {})",
            r.submitted, r.answered, r.shed, r.rejected
        ),
    ]);
    t.row(vec![
        "shed split 429 / 503".into(),
        format!("{} / {}", r.shed_429, r.shed_503),
    ]);
    t.row(vec!["lost".into(), r.lost.to_string()]);
    t.row(vec![
        "latency p50 / p99 / p999 (us)".into(),
        format!(
            "{} / {} / {}",
            f3(r.p50_ns as f64 / 1e3),
            f3(r.p99_ns as f64 / 1e3),
            f3(r.p999_ns as f64 / 1e3)
        ),
    ]);
    t.row(vec![
        "send-lag p99 (us)".into(),
        f3(r.send_lag_p99_ns as f64 / 1e3),
    ]);
    t.row(vec![
        "goodput overall / overload (rps)".into(),
        format!("{} / {}", f3(r.goodput_rps), f3(r.overload_goodput_rps)),
    ]);
    t.row(vec!["shed rate".into(), format!("{:.4}", r.shed_rate)]);
    for p in &r.phases {
        t.row(vec![
            format!("phase {} ({}s)", p.name, p.secs),
            format!(
                "{} sub, {} ok, {} shed, p99 {} us, {} rps",
                p.submitted,
                p.answered,
                p.shed,
                f3(p.p99_ns as f64 / 1e3),
                f3(p.goodput_rps)
            ),
        ]);
    }
    format!(
        "## load_micro — open-loop HTTP serving cell\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down spec so the unit test finishes in ~2 s of
    /// schedule; the CI-shaped 114k run rides the bench binary.
    fn test_spec() -> WorkloadSpec {
        let mut spec = ci_spec(0xEDB7);
        spec.phases = vec![
            Phase {
                name: "ramp",
                secs: 0.4,
                rate_start: 0.0,
                rate_end: 4_000.0,
                overload: false,
            },
            Phase {
                name: "steady",
                secs: 0.6,
                rate_start: 5_000.0,
                rate_end: 5_000.0,
                overload: false,
            },
            Phase {
                name: "flash",
                secs: 0.3,
                rate_start: 20_000.0,
                rate_end: 20_000.0,
                overload: true,
            },
            Phase {
                name: "recovery",
                secs: 0.3,
                rate_start: 2_000.0,
                rate_end: 2_000.0,
                overload: false,
            },
        ];
        spec
    }

    #[test]
    fn ci_spec_is_integer_exact_at_the_acceptance_floor() {
        let schedule = build_schedule(&ci_spec(0));
        // round(8000) + round(40000) + round(54000) + round(12000).
        assert_eq!(schedule.submitted(), 114_000);
        assert!(schedule.submitted() >= 100_000, "acceptance floor");
        let again = build_schedule(&ci_spec(0));
        assert_eq!(schedule.counts(), again.counts());
        let c = schedule.counts();
        assert!(c.rotates >= 3 && c.refreshes >= 4, "{c:?}");
    }

    #[test]
    fn open_loop_cell_loses_nothing_under_flash_overload() {
        let r = measure_spec(&test_spec());
        // round(800) + round(3000) + round(6000) + round(600).
        assert_eq!(r.submitted, 10_400);
        assert_eq!(r.lost, 0);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.answered + r.shed, r.submitted);
        assert!(r.answered > 0 && r.p99_ns > 0);
        // Zero HTTP parse errors end to end.
        assert_eq!(fui_obs::counter("net.parse_errors").get(), 0);
    }
}
