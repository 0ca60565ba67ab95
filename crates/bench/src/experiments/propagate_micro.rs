//! Extra — `propagate_micro`: the zero-allocation propagation
//! micro-cell the CI bench gate pins (`scripts/bench_gate.py gate`).
//!
//! Two phases over the deterministic dense-community corpus preset:
//!
//! 1. **single** — repeated single-source propagations through one
//!    reused [`PropWorkspace`], timed under the
//!    `propagate_micro.single` span; the per-call edge-relaxation
//!    count is recorded as `propagate_micro.single.edges_relaxed`
//!    and gated to exact equality against the committed baseline.
//! 2. **batch** — a pooled [`ApproxRecommender::recommend_batch`]
//!    over every node, timed under `propagate_micro.batch`; the
//!    workspace allocations the batch triggers are recorded as
//!    `propagate_micro.batch_allocs` and gated to `≤ FUI_THREADS`
//!    (one workspace per worker, zero per-query allocation).

use fui_core::{PropWorkspace, PropagateOpts, ScoreParams, ScoreVariant};
use fui_graph::NodeId;
use fui_landmarks::{ApproxRecommender, LandmarkIndex};
use fui_taxonomy::Topic;
use fui_testkit::corpus::{self, Preset};

use super::workload::dominant_topic;
use crate::context::Context;
use crate::datasets::ExperimentScale;
use crate::table::{f3, TextTable};

/// Salt separating the micro-instance from the conformance sweeps
/// (which derive their case seeds from the same master seed).
const SEED_SALT: u64 = 0x00DC_2016;

/// Single-source propagations per trial unit; the instance is a
/// dozen nodes, so the cell measures per-call constant factors (the
/// count is high enough that the span is milliseconds, not
/// sub-millisecond noise).
const CALLS_PER_TRIAL: u64 = 20_000;

/// Landmarks stored per entry in the batch phase.
const STORED_TOP_N: usize = 100;

/// Rounds of the batch phase per trial unit: one round is only a
/// dozen queries, far too short to wall-time, so the span accumulates
/// many identical rounds. The allocation invariant is measured around
/// the first round alone — each round pools its own workspaces, so a
/// multi-round delta would scale with rounds, not workers.
const BATCH_ROUNDS_PER_TRIAL: usize = 50;

/// Measurements for the micro-cell.
#[derive(Clone, Debug)]
pub struct MicroReport {
    /// Nodes in the dense-community instance.
    pub nodes: usize,
    /// Edges in the dense-community instance.
    pub edges: usize,
    /// Single-source propagate calls in the single phase.
    pub calls: u64,
    /// Mean wall time per single-source call, microseconds.
    pub single_us: f64,
    /// Edges relaxed across the single phase (deterministic).
    pub edges_relaxed: u64,
    /// Queries answered by the pooled batch phase.
    pub batch_queries: usize,
    /// Mean wall time per batched query, microseconds.
    pub batch_us: f64,
    /// Workspace allocations triggered by the batch call.
    pub batch_allocs: u64,
    /// Fold of the single-phase topo scores — a process-local
    /// determinism witness (global counters are shared across
    /// concurrent unit tests; this is not).
    pub checksum: f64,
}

/// Runs both phases and returns the measurements.
pub fn measure(scale: &ExperimentScale) -> MicroReport {
    let case = corpus::generate(Preset::DenseCommunity, scale.seed ^ SEED_SALT);
    let ctx = Context::new(case.graph(), ScoreParams::default());
    let propagator = ctx.propagator(ScoreVariant::Full);
    let nodes: Vec<NodeId> = ctx.graph.nodes().collect();

    // Phase 1: single-source propagations through one reused
    // workspace — the per-call constant factor.
    let calls = CALLS_PER_TRIAL * scale.trials.max(1) as u64;
    let relaxed_before = fui_obs::snapshot().counter("propagate.edges_relaxed");
    let mut ws = PropWorkspace::new();
    let mut checksum = 0.0f64;
    assert!(!nodes.is_empty(), "dense-community preset is never empty");
    let sp_single = fui_obs::Span::enter("propagate_micro.single");
    for i in 0..calls {
        let source = nodes[(i as usize) % nodes.len()];
        let topic = dominant_topic(&ctx.graph, source);
        let run = propagator.propagate_into(&mut ws, source, &[topic], PropagateOpts::default());
        checksum += run.topo_beta(source);
    }
    let single_us = sp_single.finish().as_secs_f64() * 1e6 / calls as f64;
    let edges_relaxed = fui_obs::snapshot().counter("propagate.edges_relaxed") - relaxed_before;
    fui_obs::counter("propagate_micro.single.calls").add(calls);
    fui_obs::counter("propagate_micro.single.edges_relaxed").add(edges_relaxed);
    assert!(checksum.is_finite());

    // Phase 2: pooled batch over every node. The workspace-allocation
    // delta around the batch is the manifest's proof of the
    // one-workspace-per-worker invariant.
    let landmarks: Vec<NodeId> = nodes.iter().copied().filter(|u| u.0 % 3 == 0).collect();
    let index = LandmarkIndex::build_auto(&propagator, landmarks, STORED_TOP_N);
    let approx = ApproxRecommender::new(&propagator, &index);
    let queries: Vec<(NodeId, Topic)> = nodes
        .iter()
        .map(|&u| (u, dominant_topic(&ctx.graph, u)))
        .collect();
    let rounds = BATCH_ROUNDS_PER_TRIAL * scale.trials.max(1);
    let allocs_before = fui_obs::snapshot().counter("propagate.workspace.allocs");
    let sp_batch = fui_obs::Span::enter("propagate_micro.batch");
    let results = approx.recommend_batch(&queries, 10);
    let batch_allocs = fui_obs::snapshot().counter("propagate.workspace.allocs") - allocs_before;
    for _ in 1..rounds {
        approx.recommend_batch(&queries, 10);
    }
    let batch_us = sp_batch.finish().as_secs_f64() * 1e6 / (rounds * queries.len().max(1)) as f64;
    fui_obs::counter("propagate_micro.batch_allocs").add(batch_allocs);
    assert_eq!(results.len(), queries.len());

    MicroReport {
        nodes: ctx.graph.num_nodes(),
        edges: ctx.graph.num_edges(),
        calls,
        single_us,
        edges_relaxed,
        batch_queries: queries.len(),
        batch_us,
        batch_allocs,
        checksum,
    }
}

/// Renders the micro-cell as a text block.
pub fn run(scale: &ExperimentScale) -> String {
    let r = measure(scale);
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec![
        "instance".to_string(),
        "dense-community preset".to_string(),
    ]);
    t.row(vec![
        "nodes / edges".into(),
        format!("{} / {}", r.nodes, r.edges),
    ]);
    t.row(vec!["single-source calls".into(), r.calls.to_string()]);
    t.row(vec!["wall per call (us)".into(), f3(r.single_us)]);
    t.row(vec![
        "edges relaxed (single phase)".into(),
        r.edges_relaxed.to_string(),
    ]);
    t.row(vec!["batched queries".into(), r.batch_queries.to_string()]);
    t.row(vec!["wall per batched query (us)".into(), f3(r.batch_us)]);
    t.row(vec![
        "workspace allocs in batch".into(),
        format!("{} (pool width {})", r.batch_allocs, fui_exec::threads()),
    ]);
    format!(
        "## propagate_micro — zero-allocation propagation cell\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_cell_measures_and_renders() {
        let scale = ExperimentScale::smoke();
        let r = measure(&scale);
        assert_eq!(r.calls, CALLS_PER_TRIAL);
        assert!(r.nodes > 0 && r.edges > 0);
        assert!(r.edges_relaxed > 0, "dense preset must relax edges");
        assert_eq!(r.batch_queries, r.nodes);
        // The strict `allocs <= FUI_THREADS` bound is enforced on the
        // isolated driver run by `bench_gate.py gate`; under the
        // parallel unit-test harness other tests share the global
        // counter, so only sanity-bound it here.
        assert!(
            r.batch_allocs < 64,
            "batch allocs exploded: {}",
            r.batch_allocs
        );
        let block = run(&scale);
        assert!(block.contains("propagate_micro"));
        assert!(block.contains("single-source calls"));
    }

    #[test]
    fn micro_cell_is_deterministic_across_runs() {
        let scale = ExperimentScale::smoke();
        let a = measure(&scale);
        let b = measure(&scale);
        // Global counter deltas (edges_relaxed, allocs) are shared
        // with concurrently running tests, so determinism is pinned
        // on the process-local checksum instead.
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
        assert_eq!(a.calls, b.calls);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.edges, b.edges);
    }
}
