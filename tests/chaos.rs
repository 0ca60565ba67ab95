//! Crash/chaos conformance suite for the durable serving layer.
//!
//! The tentpole drives `fui-testkit`'s chaos invariant over every
//! corpus preset: a durable service (one shard, then fleets of 1–4) is
//! killed at a seeded op index — sometimes with its newest snapshot
//! torn mid-write or a partial record stuck on a journal tail —
//! warm-restarted from disk, and every post-recovery answer is
//! bit-compared against an uninterrupted twin. The satellites pin the warm-start fallback corpus (corrupt
//! but checksum-valid snapshots), journal-replay idempotence across
//! the append/publish crash window, and the restart shed accounting.
//!
//! Seeds derive from one run seed, overridable with `FUI_TESTKIT_SEED`
//! (decimal or `0x`-hex); outcomes land in a `BENCH_chaos*.json`
//! manifest under `target/conformance/` before any assertion fires:
//!
//! ```text
//! FUI_TESTKIT_SEED=0x1234 cargo test --test chaos
//! ```

use std::path::PathBuf;

use bytes::Bytes;
use fui_graph::NodeId;
use fui_landmarks::EdgeChange;
use fui_service::durable::{self, JournalOp, SnapshotError};
use fui_service::{Reply, Request, Service, ShardSpec, ShardedService};
use fui_taxonomy::{SimMatrix, Topic, TopicSet};
use fui_testkit::chaos;
use fui_testkit::corpus::{self, Preset};
use fui_testkit::rng::derive_seed;
use fui_testkit::{gen, SeedLog};

/// Default run seed; CI overrides via `FUI_TESTKIT_SEED` when hunting.
const DEFAULT_RUN_SEED: u64 = 0xC8A5_F01D_DB20_1600;

/// Interleavings per preset; 5 presets × 24 = 120 total, above the
/// 100-interleaving floor the suite promises.
const CASES_PER_PRESET: u64 = 24;

fn manifest_dir() -> PathBuf {
    PathBuf::from("target").join("conformance")
}

/// Runs one seeded case written under `write`, minimizing a failure,
/// and logs the outcome.
fn run_chaos_case(log: &mut SeedLog, case: &gen::GraphCase, write: ShardSpec) {
    let check = |c: &gen::GraphCase| chaos::check_crash_recovery_matches_twin(c, write);
    let mut result = check(case);
    if let Err(full) = &result {
        let (small, small_err) = gen::minimize(case, check);
        result = Err(format!(
            "{full}\nminimized to {} nodes / {} edges ({}): {small_err}",
            small.num_nodes,
            small.edges.len(),
            small.repro(),
        ));
    }
    log.record(case, &result);
}

fn assert_no_failures(log: &SeedLog, run_seed: u64) {
    let path = log
        .write_manifest(&manifest_dir())
        .expect("write chaos manifest");
    let failures = log.failures();
    assert!(
        failures.is_empty(),
        "chaos: {}/{} interleavings diverged (run_seed={run_seed:#018x}, \
         replay keys: {}; manifest: {}):\n{}",
        failures.len(),
        log.len(),
        log.failing_keys(),
        path.display(),
        failures[0].error.as_deref().unwrap_or(""),
    );
}

/// The tentpole: 120 seeded kill/restart interleavings of a one-shard
/// service, every post-recovery reply bit-identical to the
/// uninterrupted twin.
#[test]
fn crash_recovery_matches_twin_120_interleavings() {
    let run_seed = fui_testkit::seedlog::run_seed_from_env(DEFAULT_RUN_SEED);
    let mut log = SeedLog::new("chaos", run_seed);
    for (stream, &preset) in Preset::ALL.iter().enumerate() {
        for i in 0..CASES_PER_PRESET {
            let seed = derive_seed(run_seed, stream as u64, i);
            let case = corpus::generate(preset, seed);
            run_chaos_case(&mut log, &case, ShardSpec::default());
        }
    }
    assert_no_failures(&log, run_seed);
    assert!(log.len() >= 100, "suite shrank below 100 interleavings");
}

/// The sharded rerun of the same harness: the dying fleet writes under
/// a seeded spec of 1–4 shards. Each preset draws cases until 8 of
/// them were written by two or more shards, which keeps the suite
/// fast; the one-shard draws that come along are run too.
#[test]
fn fleet_crash_recovery_matches_twin() {
    let run_seed = fui_testkit::seedlog::run_seed_from_env(DEFAULT_RUN_SEED);
    let mut log = SeedLog::new("chaos_fleet", run_seed);
    for (stream, &preset) in Preset::ALL.iter().enumerate() {
        let (mut multi_shard, mut i) = (0, 0);
        while multi_shard < 8 {
            // Streams past the one-shard test's: distinct seeds, so
            // distinct scripts and scratch directories.
            let seed = derive_seed(run_seed, (Preset::ALL.len() + stream) as u64, i);
            let case = corpus::generate(preset, seed);
            let write = chaos::write_spec(&case);
            multi_shard += u64::from(write.shards > 1);
            run_chaos_case(&mut log, &case, write);
            i += 1;
        }
    }
    assert_no_failures(&log, run_seed);
}

// ---- warm-start fallback corpus (corrupt snapshot fixtures) --------

/// A scratch directory unique to this test binary + tag.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fui-chaos-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn topics(t: Topic) -> TopicSet {
    let mut s = TopicSet::empty();
    s.insert(t);
    s
}

/// Builds a durable service with real history (several snapshots, a
/// journal tail past the newest) and returns its pre-kill fingerprint:
/// `(epoch, graph_gen, applied_seq, one reply's bits)`.
fn seeded_history(dir: &std::path::Path) -> (u64, u64, u64, Vec<u64>) {
    let case = corpus::generate(Preset::Dag, 0x5EED_CA5E);
    let svc = chaos::durable_fleet(&case, dir, ShardSpec::default());
    svc.record(EdgeChange::insert(
        NodeId(0),
        NodeId(1),
        topics(Topic::ALL[2]),
    ))
    .unwrap();
    svc.rotate(); // checkpoint: snapshot past seq 0
    svc.record(EdgeChange::insert(
        NodeId(1),
        NodeId(2),
        topics(Topic::ALL[4]),
    ))
    .unwrap();
    svc.rotate(); // second checkpoint
    svc.record(EdgeChange::insert(
        NodeId(2),
        NodeId(3),
        topics(Topic::ALL[6]),
    ))
    .unwrap(); // journal tail past the newest snapshot
    let reply = probe(&svc);
    (svc.epoch(), svc.graph_gen(), svc.applied_seq(), reply)
}

/// One deterministic query, fingerprinted (`cached` flag excluded).
fn probe(svc: &ShardedService) -> Vec<u64> {
    let reply = svc.call(Request {
        user: NodeId(0),
        topic: Topic::ALL[2],
        top_n: 4,
    });
    match reply {
        Reply::Result(s) => {
            let mut v = vec![s.epoch, s.recommendations.len() as u64];
            for &(node, score) in s.recommendations.iter() {
                v.push(u64::from(node.0));
                v.push(score.to_bits());
            }
            v
        }
        other => panic!("probe query shed or rejected: {other:?}"),
    }
}

/// Restores from `dir` and asserts the warm start reproduced the
/// pre-kill publication exactly, with `snapshot.persist.fallbacks`
/// bumped when a fixture forced a fallback.
fn assert_falls_back(dir: &std::path::Path, pre: (u64, u64, u64, Vec<u64>), fallbacks0: u64) {
    let restored = Service::restore(dir, SimMatrix::opencalais(), chaos::chaos_cfg()).unwrap();
    if fui_obs::counters_enabled() {
        assert!(
            fui_obs::counter("snapshot.persist.fallbacks").get() > fallbacks0,
            "rejected fixture did not bump snapshot.persist.fallbacks"
        );
    }
    assert_eq!(restored.snapshot().epoch, pre.0, "epoch diverged");
    assert_eq!(restored.snapshot().graph_gen, pre.1, "graph_gen diverged");
    assert_eq!(restored.applied_seq(), pre.2, "journal position diverged");
    assert_eq!(probe(&restored), pre.3, "restored reply bits diverged");
}

/// A checksum-valid snapshot claiming a graph generation its own epoch
/// never reached decodes to a typed error, and warm start falls back
/// to the next-newest valid snapshot.
#[test]
fn stale_generation_fixture_falls_back() {
    let dir = scratch("stale-gen");
    let pre = seeded_history(&dir);
    let (_, newest) = durable::list_snapshots(&dir).unwrap().remove(0);
    let corrupt = chaos::corrupt_stale_generation(&std::fs::read(&newest).unwrap());
    assert!(
        matches!(
            durable::decode_snapshot(Bytes::from(corrupt.clone())),
            Err(SnapshotError::ImplausibleHeader(..))
        ),
        "stale-generation fixture must decode to a typed rejection"
    );
    std::fs::write(&newest, corrupt).unwrap();
    let fallbacks0 = fui_obs::counter("snapshot.persist.fallbacks").get();
    assert_falls_back(&dir, pre, fallbacks0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksum-valid snapshot whose slot-version table disagrees with
/// its embedded landmark index is rejected with `SlotMismatch`, and
/// warm start falls back.
#[test]
fn slot_mismatch_fixture_falls_back() {
    let dir = scratch("slot-mismatch");
    let pre = seeded_history(&dir);
    let (_, newest) = durable::list_snapshots(&dir).unwrap().remove(0);
    let corrupt = chaos::corrupt_slot_mismatch(&std::fs::read(&newest).unwrap());
    assert!(
        matches!(
            durable::decode_snapshot(Bytes::from(corrupt.clone())),
            Err(SnapshotError::SlotMismatch { .. })
        ),
        "slot-mismatch fixture must decode to a typed rejection"
    );
    std::fs::write(&newest, corrupt).unwrap();
    let fallbacks0 = fui_obs::counter("snapshot.persist.fallbacks").get();
    assert_falls_back(&dir, pre, fallbacks0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit-perfect but *semantically older* snapshot (an old file copied
/// to a newer name) is checksum-valid and decodes cleanly, yet its
/// header position disagrees with its file name — warm start must skip
/// it, bump the fallback counter, and land on the genuine newest.
#[test]
fn semantically_older_copy_falls_back() {
    let dir = scratch("older-copy");
    let pre = seeded_history(&dir);
    let snaps = durable::list_snapshots(&dir).unwrap();
    let (_, oldest) = snaps.last().unwrap();
    let stale = std::fs::read(oldest).unwrap();
    assert!(
        durable::decode_snapshot(Bytes::from(stale.clone())).is_ok(),
        "the copied fixture must be checksum-valid on its own"
    );
    std::fs::write(dir.join(durable::snapshot_filename(pre.2 + 7)), stale).unwrap();
    let fallbacks0 = fui_obs::counter("snapshot.persist.fallbacks").get();
    assert_falls_back(&dir, pre, fallbacks0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- journal replay idempotence (append/publish crash window) ------

/// A crash *between* the journal append and the in-memory publish
/// leaves a record on disk the dying process never applied. Warm start
/// must apply it exactly once, and replaying the whole journal again
/// must be a no-op with bit-identical answers — tail twice == once.
#[test]
fn journal_replay_is_idempotent_across_crash_window() {
    let dir = scratch("crash-window");
    let pre = seeded_history(&dir);
    // The crash window: the change hit the journal, the process died
    // before mutating memory or persisting a snapshot.
    let orphan = EdgeChange::insert(NodeId(3), NodeId(0), topics(Topic::ALL[8]));
    {
        use std::io::Write;
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(durable::JOURNAL_FILE))
            .unwrap();
        wal.write_all(&durable::encode_record(
            pre.2 + 1,
            &JournalOp::Change(orphan),
        ))
        .unwrap();
    }
    let raw = std::fs::read(dir.join(durable::JOURNAL_FILE)).unwrap();
    let records = durable::decode_journal(&raw).unwrap();
    assert_eq!(records.last().unwrap().seq, pre.2 + 1);

    let restored = Service::restore(&dir, SimMatrix::opencalais(), chaos::chaos_cfg()).unwrap();
    assert_eq!(
        restored.applied_seq(),
        pre.2 + 1,
        "orphaned journal record must be applied on warm start"
    );
    let once = (
        restored.snapshot().epoch,
        restored.snapshot().graph_gen,
        probe(&restored),
    );

    // Tail twice == once: a second full replay applies nothing and
    // changes no bit of the published state.
    assert_eq!(
        restored.apply_journal(&records),
        0,
        "replay must be idempotent"
    );
    let twice = (
        restored.snapshot().epoch,
        restored.snapshot().graph_gen,
        probe(&restored),
    );
    assert_eq!(once, twice, "second replay changed published state");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- restart shed accounting ---------------------------------------

/// A restart with requests still queued must shed each one as an
/// explicit `Overloaded` reply charged to `service.shed.disconnect` —
/// never a silent drop — and the directory must restore cleanly after.
#[test]
fn restart_sheds_queued_requests_as_disconnect() {
    let dir = scratch("restart-shed");
    let case = corpus::generate(Preset::Dag, 0x5EED_CA5E);
    let svc = chaos::durable_fleet(&case, &dir, ShardSpec::default());
    let req = Request {
        user: NodeId(0),
        topic: Topic::ALL[2],
        top_n: 3,
    };
    let shed0 = fui_obs::counter("service.shed").get();
    let disc0 = fui_obs::counter("service.shed.disconnect").get();
    let tickets: Vec<_> = (0..3)
        .map(|_| svc.submit(req, None).expect("queue has capacity"))
        .collect();
    drop(svc); // the restart: queued requests must not vanish silently
    for t in tickets {
        assert!(
            matches!(t.wait(), Reply::Overloaded),
            "queued request must resolve to an explicit Overloaded"
        );
    }
    if fui_obs::counters_enabled() {
        assert_eq!(
            fui_obs::counter("service.shed.disconnect").get() - disc0,
            3,
            "each queued request is charged to service.shed.disconnect exactly once"
        );
        assert_eq!(
            fui_obs::counter("service.shed").get() - shed0,
            3,
            "aggregate shed counter must match"
        );
    }
    let restored = Service::restore(&dir, SimMatrix::opencalais(), chaos::chaos_cfg()).unwrap();
    assert!(matches!(restored.call(req), Reply::Result(_)));
    let _ = std::fs::remove_dir_all(&dir);
}
