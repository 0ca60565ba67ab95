//! Sharded-fleet tests: bit-exact equivalence with the unsharded
//! engine, owner-lane routing and admission, fleet status, and durable
//! fleet restore (including shard-count changes and the one journal).

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use fui_core::{AuthorityIndex, ScoreParams, ScoreVariant};
use fui_graph::{GraphBuilder, NodeId, Partition, PartitionStrategy, SocialGraph};
use fui_landmarks::EdgeChange;
use fui_service::durable::{self, JournalOp};
use fui_service::wire::{self, Command, Executed};
use fui_service::{
    Reply, Request, RestoreError, Served, Service, ServiceConfig, ShardSpec, ShardedService,
};
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

fn fleet(cfg: ServiceConfig, spec: ShardSpec) -> ShardedService {
    ShardedService::new(
        graph(),
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        vec![NodeId(2), NodeId(6)],
        50,
        cfg,
        spec,
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

#[test]
fn fleet_matches_the_unsharded_service_through_mutations() {
    let _turn = serial();
    for shards in [1usize, 2, 4] {
        let cfg = ServiceConfig::default();
        let svc = service(cfg);
        let flt = fleet(cfg, ShardSpec::new(shards, PartitionStrategy::Hash));
        let ctx = format!("{shards} shards");
        let tech = TopicSet::single(Topic::Technology);

        let step = |svc: &Service, flt: &ShardedService, stage: &str| {
            for req in all_queries() {
                let (a, b) = (served(svc.call(req)), served(flt.call(req)));
                assert_same_bits(&a, &b, &format!("{ctx} [{stage}]"));
            }
        };

        step(&svc, &flt, "cold");
        step(&svc, &flt, "warm"); // replays: value bits must match either way

        for (u, v) in [(5u32, 7u32), (8, 0), (1, 9)] {
            let c = EdgeChange::insert(NodeId(u), NodeId(v), tech);
            svc.record(c).unwrap();
            flt.record(c).unwrap();
        }
        assert_eq!(svc.pending_changes(), flt.pending_changes());
        step(&svc, &flt, "post-record");

        assert_eq!(svc.rotate(), flt.rotate(), "{ctx}: rotate epoch");
        step(&svc, &flt, "post-rotate");

        let c = EdgeChange::remove(NodeId(0), NodeId(1), tech);
        svc.record(c).unwrap();
        flt.record(c).unwrap();
        assert_eq!(svc.refresh(), flt.refresh(), "{ctx}: refresh count");
        step(&svc, &flt, "post-refresh");

        assert_eq!(svc.snapshot().epoch, flt.epoch(), "{ctx}: final epoch");
        assert_eq!(svc.snapshot().graph_gen, flt.graph_gen());
    }
}

#[test]
fn submit_routes_to_the_owner_shard_and_pump_answers() {
    let _turn = serial();
    let cfg = ServiceConfig {
        max_batch: 4,
        queue_capacity: 8,
        ..ServiceConfig::default()
    };
    let flt = fleet(cfg, ShardSpec::new(2, PartitionStrategy::Hash));
    let svc = service(cfg);
    let reqs: Vec<Request> = (0..8u32)
        .map(|u| Request {
            user: NodeId(u),
            topic: Topic::Technology,
            top_n: 6,
        })
        .collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|&r| flt.submit(r, None).expect("queues have room"))
        .collect();
    assert_eq!(flt.queue_depth(), 8);
    while flt.pump() > 0 {}
    assert_eq!(flt.queue_depth(), 0);
    let direct = svc.call_many(&reqs);
    for (t, d) in tickets.into_iter().zip(direct) {
        assert_same_bits(&served(t.wait()), &served(d), "pump vs unsharded call");
    }
}

#[test]
fn each_query_is_answered_once_by_its_owner_lane() {
    let _turn = serial();
    // One batch of 80 cold queries: enough misses for two compute
    // chunks whenever the pool has two workers.
    let cfg = ServiceConfig {
        max_batch: 128,
        ..ServiceConfig::default()
    };
    let flt = fleet(cfg, ShardSpec::new(4, PartitionStrategy::Hash));
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
    let replies = flt.call_many(&reqs);
    let after = names.map(count);
    for (req, reply) in reqs.iter().zip(replies) {
        let got = served(reply);
        assert!(!got.cached, "every query is cold");
        assert_same_bits(&got, &served(svc.call(*req)), "batch vs one call");
    }
    for ((name, b), a) in names.iter().zip(before).zip(after) {
        assert_eq!(a - b, n, "{name}: one per query");
    }
    assert_eq!(flt.cache_len() as u64, n, "one cache entry per query");
}

#[test]
fn fleet_status_reports_per_shard_rows() {
    let _turn = serial();
    let flt = fleet(
        ServiceConfig::default(),
        ShardSpec::new(4, PartitionStrategy::Hash),
    );
    for req in all_queries() {
        assert!(matches!(flt.call(req), Reply::Result(_)));
    }
    let status = flt.status();
    assert_eq!(status.strategy, "hash");
    assert_eq!(status.shards.len(), 4);
    assert!(
        status.shards.iter().any(|s| s.requests > 0),
        "queries routed somewhere"
    );
    let cached: usize = status.shards.iter().map(|s| s.cache_entries).sum();
    assert_eq!(cached, flt.cache_len());
    assert!(
        status.shards.iter().any(|s| s.busy_ns > 0),
        "lane time is live"
    );
    let tech = TopicSet::single(Topic::Technology);
    flt.record(EdgeChange::insert(NodeId(5), NodeId(7), tech))
        .unwrap();
    let rotated = flt.rotate();
    let status = flt.status();
    assert_eq!(status.epoch, rotated, "the fleet published the rotation");
    assert_eq!(status.graph_gen, flt.graph_gen());
    assert_eq!(flt.pending_changes(), 0);
}

#[test]
fn verb_layer_serves_a_fleet_and_renders_shards() {
    let _turn = serial();
    let flt = fleet(
        ServiceConfig::default(),
        ShardSpec::new(2, PartitionStrategy::Hash),
    );
    let svc = service(ServiceConfig::default());
    let run = |command: Command| match wire::execute(&flt, command, Instant::now()) {
        Executed::Done(_, text) => text,
        Executed::Pending(_) => panic!("only REC goes through the queue"),
    };

    // REC through the fleet renders the unsharded bits.
    let request = Request {
        user: NodeId(0),
        topic: Topic::Technology,
        top_n: 3,
    };
    let rec = wire::render_reply(&flt.call(request));
    let direct = served(svc.call(request));
    let parts: Vec<&str> = rec.split_whitespace().collect();
    assert!(rec.starts_with("OK REC "), "got {rec:?}");
    assert_eq!(parts.len(), 4 + direct.recommendations.len());
    for (tok, &(v, s)) in parts[4..].iter().zip(direct.recommendations.iter()) {
        let (node, score) = tok.split_once(':').expect("node:score");
        assert_eq!(node.parse::<u32>().unwrap(), v.0);
        assert_eq!(score.parse::<f64>().unwrap().to_bits(), s.to_bits());
    }

    let follow = Command::parse("FOLLOW", ["5", "7", "technology"].into_iter());
    assert_eq!(run(follow.expect("well-formed")), "OK FOLLOW");
    assert!(run(Command::Rotate).starts_with("OK ROTATE "));
    assert!(run(Command::Epoch).starts_with("OK EPOCH "));

    // SHARDS answers a header plus one S row per shard.
    let shards = run(Command::Shards);
    let mut lines = shards.lines();
    let header = lines.next().expect("header");
    assert!(
        header.starts_with(&format!(
            "OK SHARDS 2 strategy=hash epoch={} gen={} crit_ns=",
            flt.epoch(),
            flt.graph_gen()
        )),
        "got {header:?}"
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 2);
    for row in rows {
        assert!(row.starts_with("S "), "got {row:?}");
        for field in [
            "queue=",
            "busy_ns=",
            "cache=",
            "requests=",
            "shed=",
            "queue_full=",
            "deadline=",
            "latency_burn=",
            "shed_burn=",
        ] {
            assert!(row.contains(field), "{field} missing from {row:?}");
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fui-router-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_fleet_restores_warm_and_matches_a_twin() {
    let _turn = serial();
    let cfg = ServiceConfig::default();
    let spec = ShardSpec::new(2, PartitionStrategy::Hash);
    let dir = scratch("warm");
    let tech = TopicSet::single(Topic::Technology);
    let sim = SimMatrix::opencalais;

    let victim = ShardedService::with_durability(
        graph(),
        sim(),
        ScoreParams::default(),
        ScoreVariant::Full,
        vec![NodeId(2), NodeId(6)],
        50,
        cfg,
        spec,
        &dir,
    )
    .expect("durable fleet build");
    let twin = fleet(cfg, spec);

    let script = [
        EdgeChange::insert(NodeId(5), NodeId(7), tech),
        EdgeChange::insert(NodeId(8), NodeId(0), tech),
        EdgeChange::remove(NodeId(0), NodeId(1), tech),
    ];
    for c in &script[..2] {
        victim.record(*c).unwrap();
        twin.record(*c).unwrap();
    }
    victim.rotate();
    twin.rotate();
    victim.record(script[2]).unwrap();
    twin.record(script[2]).unwrap();
    drop(victim);

    let restored = ShardedService::restore(&dir, sim(), cfg, spec).expect("warm restart");
    assert_eq!(restored.applied_seq(), twin.applied_seq());
    assert_eq!(restored.epoch(), twin.epoch());
    assert_eq!(restored.graph_gen(), twin.graph_gen());
    assert_eq!(restored.pending_changes(), twin.pending_changes());
    for req in all_queries() {
        assert_same_bits(
            &served(restored.call(req)),
            &served(twin.call(req)),
            "restored vs twin",
        );
    }
    let (epoch, graph_gen, applied) = restored.restore_probe().expect("probe");
    assert_eq!(
        (epoch, graph_gen, applied),
        (
            restored.epoch(),
            restored.graph_gen(),
            restored.applied_seq()
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_with_a_different_shard_count_is_answer_invisible() {
    let _turn = serial();
    let cfg = ServiceConfig::default();
    let dir = scratch("respec");
    let tech = TopicSet::single(Topic::Technology);
    let sim = SimMatrix::opencalais;

    let original = ShardedService::with_durability(
        graph(),
        sim(),
        ScoreParams::default(),
        ScoreVariant::Full,
        vec![NodeId(2), NodeId(6)],
        50,
        cfg,
        ShardSpec::new(2, PartitionStrategy::Hash),
        &dir,
    )
    .expect("durable fleet build");
    original
        .record(EdgeChange::insert(NodeId(5), NodeId(7), tech))
        .unwrap();
    original.rotate();
    let baseline: Vec<Served> = all_queries()
        .into_iter()
        .map(|r| served(original.call(r)))
        .collect();
    drop(original);

    // Nothing on disk names a shard — a 3-shard fleet resumes a
    // 2-shard directory and answers identically.
    let wider =
        ShardedService::restore(&dir, sim(), cfg, ShardSpec::new(3, PartitionStrategy::Hash))
            .expect("restore under a different spec");
    assert_eq!(wider.shard_count(), 3);
    for (req, want) in all_queries().into_iter().zip(&baseline) {
        assert_same_bits(&served(wider.call(req)), want, "respec restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable engine over [`graph`] under `shards` hash shards — through
/// the `Service` façade at one shard, so the matrix below covers both
/// names.
fn durable_engine(shards: usize, dir: &Path) -> Box<dyn AsRef<ShardedService>> {
    let (sim, params, lm) = (
        SimMatrix::opencalais(),
        ScoreParams::default(),
        vec![NodeId(2), NodeId(6)],
    );
    let (variant, cfg) = (ScoreVariant::Full, ServiceConfig::default());
    if shards == 1 {
        Box::new(Service::with_durability(graph(), sim, params, variant, lm, 50, cfg, dir).unwrap())
    } else {
        let spec = ShardSpec::new(shards, PartitionStrategy::Hash);
        Box::new(
            ShardedService::with_durability(graph(), sim, params, variant, lm, 50, cfg, spec, dir)
                .unwrap(),
        )
    }
}

fn restore_engine(shards: usize, dir: &Path) -> Box<dyn AsRef<ShardedService>> {
    let (sim, cfg) = (SimMatrix::opencalais(), ServiceConfig::default());
    let restored: Result<Box<dyn AsRef<ShardedService>>, RestoreError> = if shards == 1 {
        Service::restore(dir, sim, cfg).map(|s| Box::new(s) as _)
    } else {
        let spec = ShardSpec::new(shards, PartitionStrategy::Hash);
        ShardedService::restore(dir, sim, cfg, spec).map(|s| Box::new(s) as _)
    };
    restored.unwrap_or_else(|e| panic!("restore under {shards} shards: {e}"))
}

/// The `i`-th follow of the un-rotated tail: every node follows its
/// next five neighbours, so the owners spread over every shard.
fn tail_change(i: u32) -> EdgeChange {
    let u = i % 10;
    let tech = TopicSet::single(Topic::Technology);
    EdgeChange::insert(NodeId(u), NodeId((u + 1 + i / 10) % 10), tech)
}

fn assert_matches_twin(got: &ShardedService, twin: &ShardedService, ctx: &str) {
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
    // The file holds no authority: what a restored fleet serves from
    // is the build over its own graph, bit for bit.
    let snap = got.snapshot();
    assert_eq!(
        *snap.authority,
        AuthorityIndex::build(&snap.graph),
        "{ctx}: authority"
    );
}

/// Every acknowledged write survives a restore under any layout: a
/// directory written by 1, 2 or 4 shards with an un-rotated journal
/// tail restores under 1, 2 or 4 shards equal to a twin that never
/// died — then takes more writes, dies again and restores back under
/// the writer's layout (the re-widen), still equal.
#[test]
fn restore_matrix_over_writer_and_reader_shard_counts() {
    let _turn = serial();
    for writer in [1usize, 2, 4] {
        for reader in [1usize, 2, 4] {
            let ctx = format!("written by {writer}, restored under {reader}");
            let dir = scratch(&format!("matrix-{writer}-{reader}"));
            let twin = fleet(
                ServiceConfig::default(),
                ShardSpec::new(writer, PartitionStrategy::Hash),
            );
            let victim = durable_engine(writer, &dir);
            for engine in [(*victim).as_ref(), &twin] {
                engine.record(tail_change(45)).unwrap();
                engine.rotate();
                for i in 0..45 {
                    engine.record(tail_change(i)).unwrap();
                }
            }
            drop(victim);

            let restored = restore_engine(reader, &dir);
            let restored_ref = (*restored).as_ref();
            assert_matches_twin(restored_ref, &twin, &ctx);

            for engine in [restored_ref, &twin] {
                for i in 46..50 {
                    engine.record(tail_change(i)).unwrap();
                }
            }
            drop(restored);
            let rewidened = restore_engine(writer, &dir);
            assert_matches_twin((*rewidened).as_ref(), &twin, &format!("{ctx}, and back"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A journal that lost a record in the middle is a typed error — replay
/// must not carry `applied_seq` across the hole.
#[test]
fn restore_stops_at_a_journal_gap() {
    let _turn = serial();
    let dir = scratch("gap");
    let victim = durable_engine(1, &dir);
    for i in 0..5 {
        (*victim).as_ref().record(tail_change(i)).unwrap();
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

/// A durable 4-shard fleet journals every op once, in sequence, to the
/// one root journal — changes whose endpoints have different owners
/// included — and writes no per-shard entry. A copy of its directory
/// with a per-shard journal added restores to a typed error, never to
/// a state without that journal's records.
#[test]
fn one_journal_holds_each_op_once() {
    let _turn = serial();
    let dir = scratch("one-journal");
    let owners = Partition::build(&graph(), 4, PartitionStrategy::Hash);
    let tech = TopicSet::single(Topic::Technology);
    let cut: Vec<EdgeChange> = (0..10u32)
        .flat_map(|u| (0..10u32).map(move |v| (NodeId(u), NodeId(v))))
        .filter(|&(u, v)| owners.owner(u) != owners.owner(v))
        .take(6)
        .map(|(u, v)| EdgeChange::insert(u, v, tech))
        .collect();
    assert_eq!(cut.len(), 6, "the graph has six pairs across lanes");
    let victim = durable_engine(4, &dir);
    for &c in &cut {
        (*victim).as_ref().record(c).unwrap();
    }
    (*victim).as_ref().rotate();
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
    assert_eq!(seqs, (1..=cut.len() as u64 + 1).collect::<Vec<_>>());
    let ops: Vec<JournalOp> = records.iter().map(|r| r.op).collect();
    let want: Vec<JournalOp> = cut
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
    let err = ShardedService::restore(
        &legacy,
        SimMatrix::opencalais(),
        ServiceConfig::default(),
        ShardSpec::new(4, PartitionStrategy::Hash),
    )
    .err()
    .expect("a per-shard journal must not restore silently");
    assert_eq!(err, RestoreError::LegacyLayout);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&legacy);
}
