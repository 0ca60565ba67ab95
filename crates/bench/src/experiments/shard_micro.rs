//! Extra — `shard_micro`: the sharded-serving cell the CI bench gate
//! pins (`scripts/bench_gate.py gate`).
//!
//! Builds two [`fui_service::ShardedService`] fleets over the *same*
//! `table5_large`-streamed graph — one with a single shard (the
//! scatter/gather router degenerates to the unsharded pipeline) and
//! one with `FLEET_SHARDS` hash-partitioned shards — then drives the
//! identical workload through both: rounds of a 2048-query strided
//! batch with deterministic follow churn and a staggered snapshot
//! rotation or landmark refresh between rounds.
//!
//! The gate holds the cell to the sharding contract: the
//! `shard_micro.single.*` / `shard_micro.fleet.*` counter pairs —
//! answered queries, the bit-exact score checksum, the published
//! epoch — must agree exactly (partitioning may never change an
//! answer). The per-side scatter/gather counters (`...shard_queries` /
//! `...fanout` / `...merges`, registry deltas of the fleet-wide
//! `service.shard.*` handles) are pinned against the committed baseline
//! so routing-plan drift fails loudly. All of them are the same at any
//! `FUI_THREADS`.
//!
//! The `shard_micro.drive_single` / `shard_micro.drive_fleet` spans are
//! the measured wall of the `call_many` batches (rotations and churn
//! stay outside them), reported and not gated: on a box with fewer
//! cores than shards the fleet is the slower side. Fleet throughput is
//! the benchmark's `batch_restart` workload (`batch_qps`).

use fui_core::{ScoreParams, ScoreVariant};
use fui_datagen::{generate_streaming, StreamConfig};
use fui_graph::PartitionStrategy;
use fui_service::{Reply, Request, ServiceConfig, ShardSpec, ShardedService};
use fui_taxonomy::SimMatrix;

use super::workload::{churn_change, hub_landmarks, strided_queries};
use crate::datasets::ExperimentScale;
use crate::table::{f3, TextTable};

/// Salt separating the sharded-serving instance from the other cells.
const SEED_SALT: u64 = 0x5AAD_CE11;

/// Hub landmarks stored by both fleets. Deliberately dense (double the
/// `table5_large` cell): per-candidate composition must dominate the
/// per-shard exploration that every shard repeats, or partitioning the
/// candidates buys nothing.
const LANDMARKS: usize = 48;

/// Recommendations stored per landmark entry — deep for the same
/// reason: stored entries are the composition workload that sharding
/// actually divides, while the exploration every shard repeats is a
/// fixed per-query cost. Deep lists are the paper-scale serving
/// configuration this cell models.
const STORED_TOP_N: usize = 512;

/// Queries per drive round.
const QUERIES: usize = 2048;

/// Recommendations returned per query.
const REC_TOP_N: usize = 10;

/// Shards in the partitioned fleet.
const FLEET_SHARDS: usize = 4;

/// Drive rounds per side (each round: one query batch, then churn and
/// a rotation or refresh, so later rounds run on mutated snapshots).
const ROUNDS: usize = 3;

/// Follow changes recorded between rounds.
const CHURN_PER_ROUND: usize = 32;

/// Measurements for the sharded-serving cell.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Nodes in the streamed graph.
    pub nodes: usize,
    /// Edges in the streamed graph (pre-churn).
    pub edges: usize,
    /// Shards in the partitioned fleet.
    pub shards: usize,
    /// Edges crossing shard boundaries in the partitioned fleet.
    pub cut_edges: u64,
    /// Queries answered on each side (must match).
    pub answered: u64,
    /// Fold of the single-shard side's scores (bit-gated against the
    /// fleet side).
    pub single_checksum: f64,
    /// Fold of the fleet side's scores.
    pub fleet_checksum: f64,
    /// Published epoch both sides must agree on after the drive.
    pub epoch: u64,
    /// Snapshot rotations performed on each side.
    pub rotations: u64,
    /// Landmark entries refreshed on each side.
    pub refreshed: u64,
    /// Single-shard drive wall time (query batches only), seconds.
    pub single_s: f64,
    /// Fleet drive wall time (query batches only), seconds.
    pub fleet_s: f64,
}

/// What one side of the drive produced.
struct DriveOutcome {
    answered: u64,
    checksum: f64,
    epoch: u64,
    rotations: u64,
    refreshed: u64,
    wall_s: f64,
}

/// Drives `svc` through [`ROUNDS`] rounds of the workload. Only the
/// `call_many` batches are clocked, one `span_name` span per round;
/// churn, rotations and refreshes happen between batches, outside the
/// clock.
fn drive(svc: &ShardedService, workload: &[Request], span_name: &'static str) -> DriveOutcome {
    let n = svc
        .status()
        .shards
        .iter()
        .map(|s| s.owned_nodes)
        .sum::<usize>();
    let mut answered = 0u64;
    let mut checksum = 0.0f64;
    let mut rotations = 0u64;
    let mut refreshed = 0u64;
    let mut wall_s = 0.0f64;
    for round in 0..ROUNDS {
        let sp = fui_obs::Span::enter(span_name);
        let replies = svc.call_many(workload);
        wall_s += sp.finish().as_secs_f64();
        for reply in replies {
            match reply {
                Reply::Result(served) => {
                    answered += 1;
                    for &(v, s) in served.recommendations.iter() {
                        checksum += s + f64::from(v.0) * 1e-12;
                    }
                }
                other => panic!("shard_micro workload request lost: {other:?}"),
            }
        }
        for i in 0..CHURN_PER_ROUND {
            svc.record(churn_change(round * CHURN_PER_ROUND + i, n))
                .expect("valid churn change");
        }
        if round % 2 == 0 {
            svc.rotate();
            rotations += 1;
        } else {
            refreshed += svc.refresh() as u64;
        }
    }
    assert!(checksum.is_finite());
    DriveOutcome {
        answered,
        checksum,
        epoch: svc.epoch(),
        rotations,
        refreshed,
        wall_s,
    }
}

/// Registry delta of the fleet-wide scatter/gather counters between
/// two snapshots, reported per side so the manifest attributes the
/// shared `service.shard.*` handles.
fn emit_side_counters(side: &str, o: &DriveOutcome, before: &fui_obs::Snapshot) {
    let after = fui_obs::snapshot();
    fui_obs::counter(&format!("shard_micro.{side}.answered")).add(o.answered);
    fui_obs::counter(&format!("shard_micro.{side}.checksum_bits")).add(o.checksum.to_bits());
    fui_obs::counter(&format!("shard_micro.{side}.epoch")).add(o.epoch);
    for name in [
        "service.shard.queries",
        "service.shard.explorations",
        "service.shard.fanout",
        "service.shard.merges",
    ] {
        let delta = after.counter(name) - before.counter(name);
        let short = name.rsplit('.').next().unwrap();
        let key = if short == "queries" {
            "shard_queries"
        } else {
            short
        };
        fui_obs::counter(&format!("shard_micro.{side}.{key}")).add(delta);
    }
}

/// Runs the cell on an explicit generator configuration (unit tests
/// shrink it; the driver uses the scale's 1M+-node tier).
pub fn measure_with(
    cfg: &StreamConfig,
    landmarks: usize,
    queries: usize,
    fleet_shards: usize,
) -> ShardReport {
    let sp = fui_obs::Span::enter("shard_micro.datagen");
    let streamed = generate_streaming(cfg);
    sp.finish();
    let graph = streamed.graph;
    let n = graph.num_nodes();
    let edges = graph.num_edges();
    assert!(n >= 2, "streamed graph is never trivial");
    fui_obs::counter("shard_micro.nodes").add(n as u64);
    fui_obs::counter("shard_micro.edges").add(edges as u64);
    let hubs = hub_landmarks(&graph, landmarks);

    let workload: Vec<Request> = strided_queries(&graph, queries)
        .into_iter()
        .map(|(user, topic)| Request {
            user,
            topic,
            top_n: REC_TOP_N,
        })
        .collect();

    let svc_cfg = ServiceConfig {
        max_batch: 256,
        cache_capacity: 4096,
        cache_shards: 4,
        ..ServiceConfig::default()
    };

    // Side A: a single-shard fleet — the scatter/gather router running
    // the unsharded pipeline. Same precompute, same code path.
    let sp = fui_obs::Span::enter("shard_micro.build_single");
    let single = ShardedService::new(
        graph.clone(),
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        hubs.clone(),
        STORED_TOP_N,
        svc_cfg,
        ShardSpec::new(1, PartitionStrategy::Hash),
    );
    sp.finish();
    let before = fui_obs::snapshot();
    let single_out = drive(&single, &workload, "shard_micro.drive_single");
    emit_side_counters("single", &single_out, &before);
    drop(single);

    // Side B: the partitioned fleet over an identical graph.
    let sp = fui_obs::Span::enter("shard_micro.build_fleet");
    let fleet = ShardedService::new(
        graph,
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        hubs,
        STORED_TOP_N,
        svc_cfg,
        ShardSpec::new(fleet_shards, PartitionStrategy::Hash),
    );
    sp.finish();
    let cut_edges = fleet.status().cut_edges;
    let before = fui_obs::snapshot();
    let fleet_out = drive(&fleet, &workload, "shard_micro.drive_fleet");
    emit_side_counters("fleet", &fleet_out, &before);
    fui_obs::counter("shard_micro.cut_edges").add(cut_edges);
    fui_obs::counter("shard_micro.rounds").add(ROUNDS as u64);
    fui_obs::counter("shard_micro.rotations").add(single_out.rotations + fleet_out.rotations);

    // The gate compares the counter pairs across the manifest; the
    // cell also holds itself to the contract in-process.
    assert_eq!(fleet_out.answered, single_out.answered, "answered diverged");
    assert_eq!(fleet_out.epoch, single_out.epoch, "epoch diverged");
    assert_eq!(
        fleet_out.refreshed, single_out.refreshed,
        "refresh count diverged"
    );
    assert_eq!(
        fleet_out.checksum.to_bits(),
        single_out.checksum.to_bits(),
        "partitioned answers are not bit-identical"
    );

    ShardReport {
        nodes: n,
        edges,
        shards: fleet_shards,
        cut_edges,
        answered: single_out.answered,
        single_checksum: single_out.checksum,
        fleet_checksum: fleet_out.checksum,
        epoch: single_out.epoch,
        rotations: single_out.rotations,
        refreshed: single_out.refreshed,
        single_s: single_out.wall_s,
        fleet_s: fleet_out.wall_s,
    }
}

/// Runs the cell at the scale's paper-size tier.
pub fn measure(scale: &ExperimentScale) -> ShardReport {
    let cfg = StreamConfig {
        nodes: scale.large_nodes,
        avg_out_degree: scale.large_avg_out,
        seed: scale.seed ^ SEED_SALT,
        ..StreamConfig::default()
    };
    measure_with(&cfg, LANDMARKS, QUERIES, FLEET_SHARDS)
}

/// Renders the sharded-serving cell as a text block.
pub fn run(scale: &ExperimentScale) -> String {
    let r = measure(scale);
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec![
        "nodes / edges".into(),
        format!("{} / {}", r.nodes, r.edges),
    ]);
    t.row(vec![
        "fleet shards / cut edges".into(),
        format!("{} / {}", r.shards, r.cut_edges),
    ]);
    t.row(vec![
        "queries answered (each side)".into(),
        r.answered.to_string(),
    ]);
    t.row(vec![
        "rotations / refreshed entries".into(),
        format!("{} / {}", r.rotations, r.refreshed),
    ]);
    t.row(vec!["single-shard drive wall (s)".into(), f3(r.single_s)]);
    t.row(vec!["fleet drive wall (s)".into(), f3(r.fleet_s)]);
    t.row(vec![
        "checksum bits equal".into(),
        (r.single_checksum.to_bits() == r.fleet_checksum.to_bits()).to_string(),
    ]);
    format!(
        "## shard_micro — sharded scatter/gather serving cell ({} landmarks, stored top-{}, {} shards)\n\n{}",
        LANDMARKS,
        STORED_TOP_N,
        FLEET_SHARDS,
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
    fn sharded_cell_is_bit_identical_and_deterministic() {
        let a = measure_with(&tiny(), 6, 64, 4);
        // measure_with already asserts the single/fleet checksum and
        // epoch agree; pin the workload shape and run-to-run bits.
        assert_eq!(a.nodes, 2_000);
        assert_eq!(a.answered, (64 * ROUNDS) as u64);
        assert_eq!(a.rotations, 2);
        assert_eq!(a.shards, 4);
        let b = measure_with(&tiny(), 6, 64, 4);
        assert_eq!(a.single_checksum.to_bits(), b.single_checksum.to_bits());
        assert_eq!(a.epoch, b.epoch);
        assert!(a.single_s > 0.0 && a.fleet_s > 0.0);
    }

    #[test]
    fn two_shard_fleet_also_matches() {
        let r = measure_with(&tiny(), 6, 48, 2);
        assert_eq!(r.shards, 2);
        assert_eq!(r.single_checksum.to_bits(), r.fleet_checksum.to_bits());
    }
}
