//! The names the frozen benchmark harness spells are honest: a
//! `ShardedService` built under any `ShardSpec` is the one engine, bit
//! for bit, through every verb the harness drives; one pump answers at
//! most `max_batch` requests; and its `status().crit_ns` clock is live.

use std::path::{Path, PathBuf};

use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::{GraphBuilder, NodeId, PartitionStrategy, SocialGraph};
use fui_landmarks::EdgeChange;
use fui_service::durable::{self, SnapshotState};
use fui_service::{Reply, Request, Service, ServiceConfig, ShardSpec, ShardedService, Snapshot};
use fui_taxonomy::{SimMatrix, Topic, TopicSet};

/// A two-community graph: 0..5 a dense tech cluster, 6..9 a chain.
fn graph() -> SocialGraph {
    let mut b = GraphBuilder::new();
    let tech = TopicSet::single(Topic::Technology);
    for _ in 0..10 {
        b.add_node(tech);
    }
    for u in 0..5u32 {
        for v in 0..5u32 {
            if u != v {
                b.add_edge(NodeId(u), NodeId(v), tech);
            }
        }
    }
    for u in 5..9u32 {
        b.add_edge(NodeId(u), NodeId(u + 1), tech);
    }
    b.add_edge(NodeId(4), NodeId(5), tech);
    b.build()
}

fn all_queries() -> Vec<Request> {
    (0..10u32)
        .flat_map(|u| {
            [Topic::Technology, Topic::Health].map(|topic| Request {
                user: NodeId(u),
                topic,
                top_n: 5,
            })
        })
        .collect()
}

/// Every served bit of a reply list: epoch, node order, score bits.
fn bits(replies: &[Reply]) -> Vec<u64> {
    let mut out = Vec::new();
    for reply in replies {
        let Reply::Result(s) = reply else {
            panic!("expected a result, got {reply:?}");
        };
        out.push(s.epoch);
        for &(v, score) in s.recommendations.iter() {
            out.push(u64::from(v.0));
            out.push(score.to_bits());
        }
    }
    out
}

/// The snapshot file the harness's durable leg writes from a live
/// snapshot (`benchmark/src/layers.rs`).
fn state_of(snap: &Snapshot) -> SnapshotState {
    SnapshotState {
        applied_seq: 0,
        epoch: snap.epoch,
        graph_gen: snap.graph_gen,
        changes_seen: 0,
        params: snap.params,
        variant: snap.variant,
        slot_versions: snap.slot_versions.clone(),
        staleness: vec![0.0; snap.slot_versions.len()],
        pending: Vec::new(),
        graph: (*snap.graph).clone(),
        auth: Vec::new(),
        followers_on: Vec::new(),
        max_followers_on: [0; fui_taxonomy::NUM_TOPICS],
        index: (*snap.index).clone(),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fui-legacy-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn restored_bits(dir: &Path, snap: &Snapshot) -> Vec<u64> {
    std::fs::create_dir_all(dir).expect("create the scratch directory");
    durable::write_snapshot_atomic(dir, &state_of(snap)).expect("write the snapshot");
    let svc = Service::restore(dir, SimMatrix::opencalais(), ServiceConfig::default())
        .expect("warm restart");
    bits(&svc.call_many(&all_queries()))
}

#[test]
fn the_harness_shim_is_the_engine_bit_for_bit() {
    let cfg = ServiceConfig {
        max_batch: 8,
        ..ServiceConfig::default()
    };
    let (sim, params, lm) = (
        SimMatrix::opencalais(),
        ScoreParams::default(),
        vec![NodeId(2), NodeId(6)],
    );
    let engine = Service::new(
        graph(),
        sim.clone(),
        params,
        ScoreVariant::Full,
        lm.clone(),
        50,
        cfg,
    );
    let shim = ShardedService::new(
        graph(),
        sim,
        params,
        ScoreVariant::Full,
        lm,
        50,
        cfg,
        ShardSpec::new(4, PartitionStrategy::Hash),
    );
    let tech = TopicSet::single(Topic::Technology);

    let crit0 = shim.status().crit_ns;
    let mut transcript = [Vec::new(), Vec::new()];
    for (svc, out) in [&engine, &*shim].into_iter().zip(&mut transcript) {
        out.extend(bits(&svc.call_many(&all_queries())));
        for (u, v) in [(5u32, 7u32), (8, 0), (1, 9)] {
            svc.record(EdgeChange::insert(NodeId(u), NodeId(v), tech))
                .unwrap();
        }
        out.push(svc.rotate());
        let tickets: Vec<_> = all_queries()
            .into_iter()
            .map(|r| svc.submit(r, None).expect("the queue has room"))
            .collect();
        // One pump answers one batch of `max_batch`, whatever the spec.
        assert_eq!(svc.pump(), cfg.max_batch, "pump honours max_batch");
        while svc.pump() > 0 {}
        let pumped: Vec<Reply> = tickets.into_iter().map(|t| t.wait()).collect();
        out.extend(bits(&pumped));
        svc.record(EdgeChange::remove(NodeId(0), NodeId(1), tech))
            .unwrap();
        out.push(svc.refresh() as u64);
        out.extend(bits(&svc.call_many(&all_queries())));
        out.extend([svc.epoch(), svc.graph_gen(), svc.applied_seq()]);
        let status = svc.status();
        out.extend([status.epoch, status.graph_gen]);
    }
    assert_eq!(transcript[0], transcript[1], "the shim diverged");
    assert!(
        shim.status().crit_ns > crit0,
        "crit_ns advances over a batch"
    );

    // Persist the way the harness does and restore: the files and the
    // restored answers are the same.
    let (a, b) = (engine.snapshot(), shim.snapshot());
    assert_eq!(
        durable::encode_snapshot(&state_of(&a))[..],
        durable::encode_snapshot(&state_of(&b))[..],
        "snapshot bytes"
    );
    let (da, db) = (scratch("engine"), scratch("shim"));
    assert_eq!(restored_bits(&da, &a), restored_bits(&db, &b));
    let _ = std::fs::remove_dir_all(&da);
    let _ = std::fs::remove_dir_all(&db);
}
