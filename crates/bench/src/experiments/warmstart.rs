//! Extra — `warmstart`: the durable warm-restart cell the CI bench
//! gate pins (`scripts/bench_gate.py gate`).
//!
//! Builds a durable [`fui_service::Service`] over the `table5_large`
//! streamed graph (cold path: authority index, similarity rows and the
//! hub landmark index all computed from scratch, then the epoch-0
//! snapshot written), drives a churn-and-checkpoint history (recorded
//! follow changes, one rotation, a journal tail past the newest
//! snapshot), answers a deterministic query batch, kills the service,
//! and warm-restarts the directory via [`fui_service::Service::restore`]
//! — decode the newest snapshot, rebuild only the derived state the
//! codec does not carry, replay the journal tail.
//!
//! The gate holds the cell to the durability contract: the
//! `warmstart.cold_*` / `warmstart.warm_*` counter pairs — answered
//! queries, the bit-exact score checksum, published epoch, graph
//! generation and journal position — must agree exactly: the restarted
//! service is the same service, bit for bit — and bounds
//! `warmstart.snapshot_bytes` per edge, so nothing derivable creeps
//! into the file. The `warmstart.cold_build` / `warmstart.warm_restore` spans are reported,
//! not gated; what a restore costs is the benchmark's `restore_s`
//! beside `setup_s`.

use fui_core::{ScoreParams, ScoreVariant};
use fui_datagen::{generate_streaming, StreamConfig};
use fui_service::{Reply, Request, Service, ServiceConfig};
use fui_taxonomy::SimMatrix;

use super::workload::{churn_change, hub_landmarks, strided_queries};
use crate::datasets::ExperimentScale;
use crate::table::{f3, TextTable};

/// Salt separating the warm-restart instance from the other cells.
const SEED_SALT: u64 = 0x3A93_57A2;

/// Hub landmarks stored by the durable service.
const LANDMARKS: usize = 24;

/// Recommendations stored per landmark entry.
const STORED_TOP_N: usize = 100;

/// Queries answered before the kill and again after the restart.
const QUERIES: usize = 1024;

/// Follow changes recorded before the checkpoint rotation.
const CHURN_BEFORE_ROTATE: usize = 48;

/// Follow changes recorded after it — the journal tail the warm
/// restart must replay on top of the newest snapshot.
const CHURN_AFTER_ROTATE: usize = 16;

/// Measurements for the warm-restart cell.
#[derive(Clone, Debug)]
pub struct WarmstartReport {
    /// Nodes in the streamed graph.
    pub nodes: usize,
    /// Edges in the streamed graph (pre-churn).
    pub edges: usize,
    /// Cold build wall time (index construction + epoch-0 snapshot).
    pub cold_build_s: f64,
    /// Warm restore wall time (decode + derived-state rebuild +
    /// journal replay).
    pub warm_restore_s: f64,
    /// `cold_build_s / warm_restore_s`.
    pub speedup: f64,
    /// Size of the newest snapshot file (the post-rotation checkpoint).
    pub snapshot_bytes: u64,
    /// Queries answered on each side of the restart.
    pub answered: u64,
    /// Fold of the cold run's scores (bit-gated against the warm run).
    pub cold_checksum: f64,
    /// Fold of the warm run's scores.
    pub warm_checksum: f64,
    /// Published epoch both sides must agree on.
    pub epoch: u64,
    /// Journal position both sides must agree on.
    pub applied_seq: u64,
}

/// Answers the strided query workload and folds every score into one
/// checksum; returns `(answered, checksum)`.
fn drive_queries(svc: &Service, workload: &[Request]) -> (u64, f64) {
    let mut answered = 0u64;
    let mut checksum = 0.0f64;
    for reply in svc.call_many(workload) {
        match reply {
            Reply::Result(served) => {
                answered += 1;
                for &(v, s) in served.recommendations.iter() {
                    checksum += s + f64::from(v.0) * 1e-12;
                }
            }
            other => panic!("warmstart workload request lost: {other:?}"),
        }
    }
    assert!(checksum.is_finite());
    (answered, checksum)
}

/// Runs the cell on an explicit generator configuration (unit tests
/// shrink it; the driver uses the scale's 1M+-node tier).
pub fn measure_with(cfg: &StreamConfig, landmarks: usize, queries: usize) -> WarmstartReport {
    let dir = std::env::temp_dir().join(format!("fui-warmstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let sp = fui_obs::Span::enter("warmstart.datagen");
    let streamed = generate_streaming(cfg);
    sp.finish();
    let graph = streamed.graph;
    let n = graph.num_nodes();
    let edges = graph.num_edges();
    assert!(n >= 2, "streamed graph is never trivial");
    fui_obs::counter("warmstart.nodes").add(n as u64);
    fui_obs::counter("warmstart.edges").add(edges as u64);
    let hubs = hub_landmarks(&graph, landmarks);
    let svc_cfg = ServiceConfig {
        max_batch: 64,
        cache_capacity: 1024,
        cache_shards: 4,
        ..ServiceConfig::default()
    };

    // Cold path: every index computed from scratch, epoch-0 persisted.
    let sp = fui_obs::Span::enter("warmstart.cold_build");
    let svc = Service::with_durability(
        graph,
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        hubs,
        STORED_TOP_N,
        svc_cfg,
        &dir,
    )
    .expect("durable service build");
    let cold_build_s = sp.finish().as_secs_f64();

    // Churn + checkpoint + journal tail: the restart has real history
    // to replay, not just an epoch-0 snapshot.
    for i in 0..CHURN_BEFORE_ROTATE {
        svc.record(churn_change(i, n)).expect("valid churn change");
    }
    svc.rotate();
    for i in 0..CHURN_AFTER_ROTATE {
        svc.record(churn_change(CHURN_BEFORE_ROTATE + i, n))
            .expect("valid churn change");
    }

    let workload: Vec<Request> = strided_queries(&svc.snapshot().graph, queries)
        .into_iter()
        .map(|(user, topic)| Request {
            user,
            topic,
            top_n: 10,
        })
        .collect();
    let (cold_answered, cold_checksum) = drive_queries(&svc, &workload);
    let epoch = svc.snapshot().epoch;
    let graph_gen = svc.snapshot().graph_gen;
    let applied_seq = svc.applied_seq();
    fui_obs::counter("warmstart.cold_answered").add(cold_answered);
    fui_obs::counter("warmstart.cold_checksum_bits").add(cold_checksum.to_bits());
    fui_obs::counter("warmstart.cold_epoch").add(epoch);
    fui_obs::counter("warmstart.cold_gen").add(graph_gen);
    fui_obs::counter("warmstart.cold_seq").add(applied_seq);
    drop(svc); // the kill

    // The newest snapshot file — the one the restart decodes. The gate
    // bounds it per edge: nothing derivable is in the file.
    let newest = fui_service::durable::list_snapshots(&dir).expect("list the checkpoints");
    let snapshot_bytes = std::fs::metadata(&newest.first().expect("a checkpoint on disk").1)
        .expect("stat the checkpoint")
        .len();
    fui_obs::counter("warmstart.snapshot_bytes").add(snapshot_bytes);

    // Warm path: decode + rebuild derived state + replay the tail.
    let sp = fui_obs::Span::enter("warmstart.warm_restore");
    let restored = Service::restore(&dir, SimMatrix::opencalais(), svc_cfg)
        .expect("warm restart from the persisted directory");
    let warm_restore_s = sp.finish().as_secs_f64();

    let (warm_answered, warm_checksum) = drive_queries(&restored, &workload);
    fui_obs::counter("warmstart.warm_answered").add(warm_answered);
    fui_obs::counter("warmstart.warm_checksum_bits").add(warm_checksum.to_bits());
    fui_obs::counter("warmstart.warm_epoch").add(restored.snapshot().epoch);
    fui_obs::counter("warmstart.warm_gen").add(restored.snapshot().graph_gen);
    fui_obs::counter("warmstart.warm_seq").add(restored.applied_seq());

    // The gate compares the counter pairs across the manifest; the
    // cell also holds itself to the contract in-process.
    assert_eq!(restored.snapshot().epoch, epoch, "epoch diverged");
    assert_eq!(
        restored.snapshot().graph_gen,
        graph_gen,
        "graph_gen diverged"
    );
    assert_eq!(
        restored.applied_seq(),
        applied_seq,
        "journal position diverged"
    );
    assert_eq!(
        warm_checksum.to_bits(),
        cold_checksum.to_bits(),
        "restored answers are not bit-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);

    WarmstartReport {
        nodes: n,
        edges,
        cold_build_s,
        warm_restore_s,
        speedup: cold_build_s / warm_restore_s.max(1e-12),
        snapshot_bytes,
        answered: cold_answered,
        cold_checksum,
        warm_checksum,
        epoch,
        applied_seq,
    }
}

/// Runs the cell at the scale's paper-size tier.
pub fn measure(scale: &ExperimentScale) -> WarmstartReport {
    let cfg = StreamConfig {
        nodes: scale.large_nodes,
        avg_out_degree: scale.large_avg_out,
        seed: scale.seed ^ SEED_SALT,
        ..StreamConfig::default()
    };
    measure_with(&cfg, LANDMARKS, QUERIES)
}

/// Renders the warm-restart cell as a text block.
pub fn run(scale: &ExperimentScale) -> String {
    let r = measure(scale);
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec![
        "nodes / edges".into(),
        format!("{} / {}", r.nodes, r.edges),
    ]);
    t.row(vec!["cold build (s)".into(), f3(r.cold_build_s)]);
    t.row(vec!["warm restore (s)".into(), f3(r.warm_restore_s)]);
    t.row(vec!["speedup".into(), format!("{:.1}x", r.speedup)]);
    t.row(vec!["snapshot bytes".into(), r.snapshot_bytes.to_string()]);
    t.row(vec![
        "queries answered (each side)".into(),
        r.answered.to_string(),
    ]);
    t.row(vec![
        "epoch / applied_seq".into(),
        format!("{} / {}", r.epoch, r.applied_seq),
    ]);
    t.row(vec![
        "checksum bits equal".into(),
        (r.cold_checksum.to_bits() == r.warm_checksum.to_bits()).to_string(),
    ]);
    format!(
        "## warmstart — durable warm-restart cell ({} landmarks, stored top-{})\n\n{}",
        LANDMARKS,
        STORED_TOP_N,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StreamConfig {
        StreamConfig {
            nodes: 2_000,
            avg_out_degree: 8.0,
            seed: 0xEDB7_2016 ^ SEED_SALT,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn warm_restart_is_bit_identical_and_replays_history() {
        let r = measure_with(&tiny(), 6, 64);
        assert_eq!(r.nodes, 2_000);
        assert_eq!(r.answered, 64);
        // measure_with already asserts checksum/epoch/seq equality;
        // pin the shape of the history it replayed.
        assert_eq!(
            r.applied_seq,
            (CHURN_BEFORE_ROTATE + CHURN_AFTER_ROTATE + 1) as u64,
            "churn + rotation must all be journaled"
        );
        assert!(r.snapshot_bytes > 0);
    }
}
