//! Engine tests: the pump's batch bound, one computation and one cache
//! entry per query, and durable restore (the one journal, journal
//! gaps, the out-CSR-only serving path).

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use fui_core::{AuthorityIndex, ScoreParams, ScoreVariant};
use fui_graph::{GraphBuilder, NodeId, SocialGraph};
use fui_landmarks::EdgeChange;
use fui_service::durable::{self, JournalOp};
use fui_service::{Reply, Request, RestoreError, Served, Service, ServiceConfig};
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

fn service(cfg: ServiceConfig) -> Service {
    Service::new(
        graph(),
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        vec![NodeId(2), NodeId(6)],
        50,
        cfg,
    )
}

/// Every test here drives the process-wide `service.*` counters, and
/// one reads exact deltas of them: the tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn served(reply: Reply) -> Served {
    match reply {
        Reply::Result(s) => s,
        other => panic!("expected a result, got {other:?}"),
    }
}

fn assert_same_bits(a: &Served, b: &Served, ctx: &str) {
    assert_eq!(a.epoch, b.epoch, "{ctx}: epochs diverge");
    assert_eq!(
        a.recommendations.len(),
        b.recommendations.len(),
        "{ctx}: lengths diverge"
    );
    for (x, y) in a.recommendations.iter().zip(b.recommendations.iter()) {
        assert_eq!(x.0, y.0, "{ctx}: node order diverges");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{ctx}: score bits diverge");
    }
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

/// One `pump()` answers at most `max_batch` requests, however many are
/// queued, and leaves the rest in arrival order for the next.
#[test]
fn pump_honours_max_batch() {
    let _turn = serial();
    let cfg = ServiceConfig {
        max_batch: 4,
        queue_capacity: 12,
        ..ServiceConfig::default()
    };
    let svc = service(cfg);
    let reqs: Vec<Request> = (0..12u32)
        .map(|u| Request {
            user: NodeId(u % 10),
            topic: Topic::Technology,
            top_n: 1 + (u / 10) as usize,
        })
        .collect();
    let mut tickets: Vec<_> = reqs
        .iter()
        .map(|&r| svc.submit(r, None).expect("the queue has room"))
        .collect();
    assert_eq!(svc.queue_depth(), 12);
    for round in 0..3 {
        assert_eq!(svc.pump(), 4, "round {round}: one batch of max_batch");
        assert_eq!(svc.queue_depth(), 8 - 4 * round);
        for (t, req) in tickets.drain(..4).zip(&reqs[4 * round..]) {
            assert_same_bits(&served(t.wait()), &served(svc.call(*req)), "pump vs call");
        }
    }
    assert_eq!(svc.pump(), 0, "nothing left");
}

#[test]
fn each_query_is_computed_once_and_cached_once() {
    let _turn = serial();
    // One batch of 80 cold queries: enough misses for two compute
    // chunks whenever the pool has two workers.
    let cfg = ServiceConfig {
        max_batch: 128,
        ..ServiceConfig::default()
    };
    let svc = service(cfg);
    let reqs: Vec<Request> = (3..7)
        .flat_map(|top_n| {
            all_queries()
                .into_iter()
                .map(move |r| Request { top_n, ..r })
        })
        .collect();
    let n = reqs.len() as u64;
    let count = |name: &str| fui_obs::counter(name).get();
    let names = [
        "service.shard.fanout",
        "service.shard.explorations",
        "service.cache.misses",
    ];
    let before = names.map(count);
    let replies = svc.call_many(&reqs);
    let after = names.map(count);
    let solo = service(cfg);
    for (req, reply) in reqs.iter().zip(replies) {
        let got = served(reply);
        assert!(!got.cached, "every query is cold");
        assert_same_bits(&got, &served(solo.call(*req)), "batch vs one call");
    }
    for ((name, b), a) in names.iter().zip(before).zip(after) {
        assert_eq!(a - b, n, "{name}: one per query");
    }
    assert_eq!(svc.cache_len() as u64, n, "one cache entry per query");
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fui-engine-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable engine over [`graph`] rooted at `dir`.
fn durable_service(dir: &Path) -> Service {
    Service::with_durability(
        graph(),
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        vec![NodeId(2), NodeId(6)],
        50,
        ServiceConfig::default(),
        dir,
    )
    .expect("durable service build")
}

fn restore(dir: &Path) -> Service {
    Service::restore(dir, SimMatrix::opencalais(), ServiceConfig::default())
        .unwrap_or_else(|e| panic!("restore: {e}"))
}

/// The `i`-th follow of the un-rotated tail: every node follows its
/// next five neighbours.
fn tail_change(i: u32) -> EdgeChange {
    let u = i % 10;
    let tech = TopicSet::single(Topic::Technology);
    EdgeChange::insert(NodeId(u), NodeId((u + 1 + i / 10) % 10), tech)
}

fn assert_matches_twin(got: &Service, twin: &Service, ctx: &str) {
    assert_eq!(got.applied_seq(), twin.applied_seq(), "{ctx}: applied_seq");
    assert_eq!(
        got.pending_changes(),
        twin.pending_changes(),
        "{ctx}: pending_changes"
    );
    assert_eq!(got.epoch(), twin.epoch(), "{ctx}: epoch");
    assert_eq!(got.graph_gen(), twin.graph_gen(), "{ctx}: graph_gen");
    for req in all_queries() {
        assert_same_bits(&served(got.call(req)), &served(twin.call(req)), ctx);
    }
    // The file holds no authority: what a restored service serves from
    // is the build over its own graph, bit for bit.
    let snap = got.snapshot();
    assert_eq!(
        *snap.authority,
        AuthorityIndex::build(&snap.graph),
        "{ctx}: authority"
    );
}

/// Every acknowledged write survives a restore: a directory with a
/// rotated snapshot and an un-rotated journal tail restores equal to a
/// twin that never died — then takes more writes, dies again and
/// restores again, still equal. The dry-run probe reports the live
/// position.
#[test]
fn durable_service_restores_warm_and_matches_a_twin() {
    let _turn = serial();
    let dir = scratch("warm");
    let twin = service(ServiceConfig::default());
    let victim = durable_service(&dir);
    for engine in [&victim, &twin] {
        engine.record(tail_change(45)).unwrap();
        engine.rotate();
        for i in 0..45 {
            engine.record(tail_change(i)).unwrap();
        }
    }
    drop(victim);

    let restored = restore(&dir);
    assert_matches_twin(&restored, &twin, "first restore");
    for engine in [&restored, &twin] {
        for i in 46..50 {
            engine.record(tail_change(i)).unwrap();
        }
    }
    drop(restored);
    let again = restore(&dir);
    assert_matches_twin(&again, &twin, "second restore");
    let (epoch, graph_gen, applied) = again.restore_probe().expect("probe");
    assert_eq!(
        (epoch, graph_gen, applied),
        (again.epoch(), again.graph_gen(), again.applied_seq())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serving reads only the out-CSR: building a durable service, answering,
/// recording, rotating, refreshing, persisting and restoring never
/// derive the graph's in-edge arenas, so its edges cost 6 B each
/// throughout.
#[test]
fn the_serving_path_never_derives_in_edge_arenas() {
    let _turn = serial();
    let dir = scratch("out-csr-only");
    let graph = fui_datagen::generate_streaming(&fui_datagen::StreamConfig {
        nodes: 3_000,
        avg_out_degree: 8.0,
        seed: 0x5EED_0030,
        ..fui_datagen::StreamConfig::default()
    })
    .graph;
    let mut hubs: Vec<NodeId> = graph.nodes().collect();
    hubs.sort_unstable_by_key(|&u| (std::cmp::Reverse(graph.in_degree(u)), u.0));
    hubs.truncate(8);
    let requests: Vec<Request> = graph
        .nodes()
        .step_by(97)
        .map(|user| Request {
            user,
            topic: Topic::Technology,
            top_n: 10,
        })
        .collect();
    let changes: Vec<EdgeChange> = (0..24u32)
        .map(|i| {
            let (u, v) = (NodeId(i * 101 % 3_000), NodeId((i * 37 + 1_500) % 3_000));
            match graph.followees(u).first() {
                Some(&w) if i % 3 == 0 => EdgeChange::remove(u, w, TopicSet::empty()),
                _ => EdgeChange::insert(u, v, TopicSet::single(Topic::Health)),
            }
        })
        .collect();
    let cfg = ServiceConfig::default();
    let out_csr_only = |svc: &Service, step: &str| {
        let snap = svc.snapshot();
        assert_eq!(
            snap.graph.memory_footprint().edge_bytes,
            6 * snap.graph.num_edges(),
            "after {step}: the in-edge arenas were derived"
        );
    };

    let svc = Service::with_durability(
        graph,
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        hubs,
        50,
        cfg,
        &dir,
    )
    .expect("durable service build");
    out_csr_only(&svc, "build");
    assert!(svc
        .call_many(&requests)
        .into_iter()
        .all(|r| matches!(r, Reply::Result(_))));
    out_csr_only(&svc, "a batch");
    for &c in &changes {
        svc.record(c).unwrap();
    }
    out_csr_only(&svc, "record");
    svc.rotate();
    out_csr_only(&svc, "rotate");
    svc.record(changes[1]).unwrap();
    svc.refresh();
    out_csr_only(&svc, "refresh");
    svc.persist().expect("persist");
    out_csr_only(&svc, "persist");
    drop(svc);

    let restored = Service::restore(&dir, SimMatrix::opencalais(), cfg).expect("warm restart");
    out_csr_only(&restored, "restore");
    assert!(restored
        .call_many(&requests)
        .into_iter()
        .all(|r| matches!(r, Reply::Result(_))));
    out_csr_only(&restored, "a batch after restore");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal that lost a record in the middle is a typed error — replay
/// must not carry `applied_seq` across the hole.
#[test]
fn restore_stops_at_a_journal_gap() {
    let _turn = serial();
    let dir = scratch("gap");
    let victim = durable_service(&dir);
    for i in 0..5 {
        victim.record(tail_change(i)).unwrap();
    }
    drop(victim);
    let wal = dir.join(durable::JOURNAL_FILE);
    let mut records = durable::decode_journal(&std::fs::read(&wal).unwrap()).unwrap();
    assert_eq!(records.len(), 5);
    records.remove(2);
    std::fs::write(&wal, durable::encode_journal(&records)).unwrap();
    let err = Service::restore(&dir, SimMatrix::opencalais(), ServiceConfig::default())
        .err()
        .expect("a journal gap must not restore");
    assert_eq!(
        err,
        RestoreError::JournalGap {
            expected: 3,
            found: 4
        }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable service journals every op once, in sequence, to the one
/// root journal and writes nothing else beside its snapshots. A copy of
/// its directory with a `shard-NNNN` journal of the retired per-shard
/// layout added restores to a typed error, never to a state without
/// that journal's records.
#[test]
fn one_journal_holds_each_op_once() {
    let _turn = serial();
    let dir = scratch("one-journal");
    let changes: Vec<EdgeChange> = (0..6).map(|i| tail_change(7 * i + 3)).collect();
    let victim = durable_service(&dir);
    for &c in &changes {
        victim.record(c).unwrap();
    }
    victim.rotate();
    drop(victim);

    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(
        names
            .iter()
            .all(|n| n == durable::JOURNAL_FILE || durable::parse_snapshot_filename(n).is_some()),
        "only snapshots and the journal: {names:?}"
    );
    let records =
        durable::decode_journal(&std::fs::read(dir.join(durable::JOURNAL_FILE)).unwrap()).unwrap();
    let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (1..=changes.len() as u64 + 1).collect::<Vec<_>>());
    let ops: Vec<JournalOp> = records.iter().map(|r| r.op).collect();
    let want: Vec<JournalOp> = changes
        .iter()
        .map(|&c| JournalOp::Change(c))
        .chain([JournalOp::Rotate])
        .collect();
    assert_eq!(ops, want, "each op once, in order");

    let legacy = scratch("one-journal-legacy");
    std::fs::create_dir_all(legacy.join("shard-0000")).unwrap();
    for name in &names {
        std::fs::copy(dir.join(name), legacy.join(name)).unwrap();
    }
    std::fs::write(
        legacy.join("shard-0000").join(durable::JOURNAL_FILE),
        durable::encode_journal(&[]),
    )
    .unwrap();
    let err = Service::restore(&legacy, SimMatrix::opencalais(), ServiceConfig::default())
        .err()
        .expect("a per-shard journal must not restore silently");
    assert_eq!(err, RestoreError::LegacyLayout);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&legacy);
}
