//! Extra — `serve_micro`: the closed-loop serving cell the CI bench
//! gate pins (`scripts/bench_gate.py gate`).
//!
//! A seeded load generator drives one [`fui_service::Service`] over
//! the deterministic dense-community corpus preset with the mixed
//! read/update workload the serving layer exists for: every round it
//! bursts more queries into the submission queue than admission
//! control accepts (so the shed count is load-driven and exact, not
//! timing-driven), pumps the micro-batcher dry, redeems every ticket,
//! then records a handful of follow/unfollow changes; snapshot
//! rotations and landmark refreshes fire on fixed cadences. Over a
//! default trial this answers **10k+ queries interleaved with 1k+
//! edge updates and 10+ rotations** — the ISSUE-5 acceptance workload.
//!
//! Everything the gate checks is deterministic by construction:
//! `service.requests`, `service.shed`,
//! `service.cache.{hits,misses,evictions}`,
//! `service.snapshot.rotations` and the `landmarks.dynamic.*` family
//! are exact counter equalities across runs *and* across
//! `FUI_THREADS` widths (the only parallel stage reduces in index
//! order); wall time and the `service.request_latency` histogram are
//! reported, not gated.

use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::NodeId;
use fui_landmarks::EdgeChange;
use fui_service::{Reply, Request, Service, ServiceConfig};
use fui_taxonomy::{SimMatrix, Topic};
use fui_testkit::corpus::{self, Preset};
use fui_testkit::gen::gen_topicset;
use fui_testkit::rng::SeededRng;

use crate::datasets::ExperimentScale;
use crate::table::{f3, TextTable};

/// Salt separating the serving instance from the other seeded sweeps.
const SEED_SALT: u64 = 0x5E2F_2016;

/// Queries submitted per round — deliberately above
/// [`QUEUE_CAPACITY`] so every round sheds exactly
/// `BURST - QUEUE_CAPACITY` requests (the queue is pumped dry before
/// the next burst).
const BURST: usize = 64;

/// Admission-control bound of the cell's service.
const QUEUE_CAPACITY: usize = 48;

/// Rounds per trial unit: `160 × 48` answered queries clears the
/// 10k-query acceptance floor with one trial.
const ROUNDS_PER_TRIAL: usize = 160;

/// Follow/unfollow changes recorded after each round's queries
/// (`160 × 8` clears the 1k-update floor).
const UPDATES_PER_ROUND: usize = 8;

/// A snapshot rotation every this many rounds (13 rotations per 160
/// rounds clears the 10-rotation floor).
const ROTATE_EVERY: usize = 12;

/// A landmark refresh attempt every this many rounds (skewed off the
/// rotation cadence so both paths run alone and together).
const REFRESH_EVERY: usize = 5;

/// Landmark entry list length.
const STORED_TOP_N: usize = 100;

/// Measurements for the serving cell.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Nodes in the dense-community instance.
    pub nodes: usize,
    /// Edges in the instance (pre-churn).
    pub edges: usize,
    /// Load-generator rounds driven.
    pub rounds: usize,
    /// Queries submitted (answered + shed).
    pub queries: u64,
    /// Queries answered with a result.
    pub answered: u64,
    /// Queries shed by admission control (explicit `Overloaded`).
    pub shed: u64,
    /// Replies served from the result cache.
    pub cache_hits: u64,
    /// Edge changes recorded.
    pub updates: u64,
    /// Snapshot rotations performed.
    pub rotations: u64,
    /// Landmark entries refreshed across the run.
    pub refreshed: u64,
    /// Mean wall time per answered query, microseconds.
    pub query_us: f64,
    /// Fold of served scores — a process-local determinism witness
    /// (global counters are shared across concurrent unit tests; this
    /// is not).
    pub checksum: f64,
}

/// Runs the closed loop and returns the measurements.
pub fn measure(scale: &ExperimentScale) -> ServeReport {
    let case = corpus::generate(Preset::DenseCommunity, scale.seed ^ SEED_SALT);
    let graph = case.graph();
    let n = graph.num_nodes();
    assert!(n >= 2, "dense-community preset is never trivial");
    let landmarks: Vec<NodeId> = graph.nodes().filter(|u| u.0 % 3 == 0).collect();
    let cfg = ServiceConfig {
        max_batch: 16,
        queue_capacity: QUEUE_CAPACITY,
        cache_capacity: 256,
        cache_shards: 4,
        // Aggressive enough that the update stream actually flags
        // landmarks on a dozen-node instance.
        refresh_threshold: 0.05,
    };
    let svc = Service::new(
        graph,
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        landmarks,
        STORED_TOP_N,
        cfg,
    );
    let mut rng = SeededRng::new(scale.seed ^ SEED_SALT);

    let rounds = ROUNDS_PER_TRIAL * scale.trials.max(1);
    let mut queries = 0u64;
    let mut answered = 0u64;
    let mut shed = 0u64;
    let mut cache_hits = 0u64;
    let mut updates = 0u64;
    let mut rotations = 0u64;
    let mut refreshed = 0u64;
    let mut checksum = 0.0f64;

    let topics = &Topic::ALL[..6];
    let sp = fui_obs::Span::enter("serve_micro.drive");
    for round in 0..rounds {
        // Read burst: overflow the queue on purpose, then pump dry.
        let mut tickets = Vec::with_capacity(BURST);
        for _ in 0..BURST {
            let req = Request {
                user: NodeId(rng.below(n as u64) as u32),
                topic: *rng.pick(topics),
                top_n: if rng.below(4) == 0 { 5 } else { 10 },
            };
            queries += 1;
            match svc.submit(req, None) {
                Ok(t) => tickets.push(t),
                Err(_) => shed += 1,
            }
        }
        while svc.pump() > 0 {}
        for t in tickets {
            match t.wait() {
                Reply::Result(served) => {
                    answered += 1;
                    if served.cached {
                        cache_hits += 1;
                    }
                    if let Some(&(v, s)) = served.recommendations.first() {
                        checksum += s + f64::from(v.0) * 1e-9;
                    }
                }
                other => panic!("accepted request lost: {other:?}"),
            }
        }

        // Update stream: follows dominate, unfollows keep churn real.
        for _ in 0..UPDATES_PER_ROUND {
            let u = rng.below(n as u64) as u32;
            let v = (u + 1 + rng.below(n as u64 - 1) as u32) % n as u32;
            let change = if rng.below(3) == 0 {
                EdgeChange::remove(NodeId(u), NodeId(v), Default::default())
            } else {
                EdgeChange::insert(NodeId(u), NodeId(v), gen_topicset(&mut rng))
            };
            svc.record(change).expect("in-range distinct endpoints");
            updates += 1;
        }

        if (round + 1) % ROTATE_EVERY == 0 {
            svc.rotate();
            rotations += 1;
        } else if (round + 1) % REFRESH_EVERY == 0 {
            refreshed += svc.refresh() as u64;
        }
    }
    let wall = sp.finish();

    assert_eq!(
        answered + shed,
        queries,
        "every request must be answered or explicitly shed"
    );
    assert!(checksum.is_finite());
    fui_obs::counter("serve_micro.queries").add(queries);
    fui_obs::counter("serve_micro.answered").add(answered);
    fui_obs::counter("serve_micro.updates").add(updates);
    fui_obs::counter("serve_micro.rounds").add(rounds as u64);

    ServeReport {
        nodes: n,
        edges: case.edges.len(),
        rounds,
        queries,
        answered,
        shed,
        cache_hits,
        updates,
        rotations,
        refreshed,
        query_us: wall.as_secs_f64() * 1e6 / answered.max(1) as f64,
        checksum,
    }
}

/// Renders the serving cell as a text block.
pub fn run(scale: &ExperimentScale) -> String {
    let r = measure(scale);
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec![
        "instance".into(),
        "dense-community preset".to_string(),
    ]);
    t.row(vec![
        "nodes / edges".into(),
        format!("{} / {}", r.nodes, r.edges),
    ]);
    t.row(vec!["rounds".into(), r.rounds.to_string()]);
    t.row(vec![
        "queries (answered + shed)".into(),
        format!("{} ({} + {})", r.queries, r.answered, r.shed),
    ]);
    t.row(vec![
        "cache hits".into(),
        format!(
            "{} ({:.1}% of answered)",
            r.cache_hits,
            100.0 * r.cache_hits as f64 / r.answered.max(1) as f64
        ),
    ]);
    t.row(vec!["edge updates".into(), r.updates.to_string()]);
    t.row(vec![
        "rotations / entries refreshed".into(),
        format!("{} / {}", r.rotations, r.refreshed),
    ]);
    t.row(vec!["wall per answered query (us)".into(), f3(r.query_us)]);
    // Trace summary: live only under FUI_OBS=full with a nonzero
    // FUI_TRACE_SAMPLE; zeros otherwise. The manifest carries the same
    // data in its "trace" block.
    t.row(vec![
        "traces captured / committed".into(),
        format!(
            "{} / {}",
            fui_obs::counter("trace.captured").get(),
            fui_obs::counter("trace.committed").get()
        ),
    ]);
    if let Some(worst) = fui_obs::trace::slowest(1).first() {
        t.row(vec![
            "slowest trace q/a/c/h (us)".into(),
            format!(
                "{} = {} + {} + {} + {}",
                f3(worst.total_ns as f64 / 1e3),
                f3(worst.parts.queue_ns as f64 / 1e3),
                f3(worst.parts.assembly_ns as f64 / 1e3),
                f3(worst.parts.compute_ns as f64 / 1e3),
                f3(worst.parts.cache_ns as f64 / 1e3),
            ),
        ]);
    }
    format!("## serve_micro — online serving cell\n\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_cell_meets_the_acceptance_workload() {
        let scale = ExperimentScale::smoke();
        let r = measure(&scale);
        assert!(
            r.queries >= 10_000,
            "acceptance floor: {} queries",
            r.queries
        );
        assert!(
            r.updates >= 1_000,
            "acceptance floor: {} updates",
            r.updates
        );
        assert!(
            r.rotations >= 10,
            "acceptance floor: {} rotations",
            r.rotations
        );
        assert_eq!(r.answered + r.shed, r.queries, "zero requests lost");
        assert_eq!(
            r.shed,
            (r.rounds * (BURST - QUEUE_CAPACITY)) as u64,
            "shed count must be load-driven and exact"
        );
        assert!(r.cache_hits > 0, "the workload must exercise the cache");
        assert!(r.refreshed > 0, "the workload must refresh landmarks");
        let block = run(&scale);
        assert!(block.contains("serve_micro"));
        assert!(block.contains("cache hits"));
    }

    #[test]
    fn serve_cell_is_deterministic_across_runs() {
        let scale = ExperimentScale::smoke();
        let a = measure(&scale);
        let b = measure(&scale);
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.rotations, b.rotations);
        assert_eq!(a.refreshed, b.refreshed);
    }
}
