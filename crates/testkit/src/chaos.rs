//! Crash/chaos recovery invariant for the durable serving layer.
//!
//! Durability is only real when a seeded kill/restart provably returns
//! bit-identical answers. [`check_crash_recovery_matches_twin`] drives
//! two durable [`ShardedService`]s, built under the same write spec
//! (one shard is the plain [`fui_service::Service`] layout), through
//! the same seeded op script — an interleaving of queries,
//! follow/unfollow records, snapshot rotations and landmark refreshes:
//!
//! * the **twin** runs the whole script uninterrupted;
//! * the **victim** is killed (dropped) at a seeded op index, its
//!   on-disk state optionally mangled the way a crash would mangle it
//!   (the newest snapshot torn mid-write, or a partial record appended
//!   to the fleet journal or to one shard's WAL — the cut-edge
//!   dual-write side), warm-restarted via [`ShardedService::restore`]
//!   — half the time under a *different* shard spec (1–4 shards, the
//!   other strategy), which must be answer-invisible — and then driven
//!   through the remainder of the script.
//!
//! Every post-recovery reply must be **bit-identical** to the twin's
//! (scores compared by `f64::to_bits`; the `cached` flag is excluded —
//! a restarted process legitimately starts cold), and the two must
//! agree exactly on the final epoch, graph generation, journal position
//! and pending-change count. The module also exports corrupt-snapshot
//! fixture builders for the warm-start fallback corpus (stale
//! generation, slot-count mismatch) — each splices a field and re-fixes
//! the file checksum, so decoding exercises the *semantic* rejection,
//! not the checksum.

use std::path::{Path, PathBuf};

use fui_graph::{NodeId, PartitionStrategy};
use fui_landmarks::EdgeChange;
use fui_service::durable;
use fui_service::{Reply, Request, ServiceConfig, ShardSpec, ShardedService};
use fui_taxonomy::{SimMatrix, Topic};

use crate::gen::{gen_topicset, GraphCase};
use crate::rng::SeededRng;

/// Ops per chaos script (kill point is drawn from the interior).
const OPS_PER_CASE: usize = 24;

/// Service configuration the chaos cases run under — aggressive
/// staleness threshold and tiny caches, mirroring the serving-layer
/// conformance invariant, so rotations and refreshes actually bite on
/// ≤12-node corpus instances.
pub fn chaos_cfg() -> ServiceConfig {
    ServiceConfig {
        max_batch: 4,
        queue_capacity: 8,
        cache_capacity: 64,
        cache_shards: 4,
        refresh_threshold: 0.02,
        ..ServiceConfig::default()
    }
}

/// One step of a chaos script.
#[derive(Clone, Copy, Debug)]
enum Op {
    Query(Request),
    Change(EdgeChange),
    Rotate,
    Refresh,
}

/// Draws a deterministic op script for `case`.
fn gen_ops(case: &GraphCase, rng: &mut SeededRng) -> Vec<Op> {
    let n = case.num_nodes as u64;
    let mut ops = Vec::with_capacity(OPS_PER_CASE);
    for _ in 0..OPS_PER_CASE {
        ops.push(match rng.below(10) {
            0..=4 => Op::Query(Request {
                user: NodeId(rng.below(n) as u32),
                topic: Topic::ALL[rng.below(Topic::ALL.len() as u64) as usize],
                top_n: 1 + rng.below(5) as usize,
            }),
            5 | 6 => {
                let follower = rng.below(n) as u32;
                let followee = (follower + 1 + rng.below(n - 1) as u32) % n as u32;
                let labels = gen_topicset(rng);
                Op::Change(if rng.chance(0.7) {
                    EdgeChange::insert(NodeId(follower), NodeId(followee), labels)
                } else {
                    EdgeChange::remove(NodeId(follower), NodeId(followee), labels)
                })
            }
            7 | 8 => Op::Rotate,
            _ => Op::Refresh,
        });
    }
    ops
}

/// Bit-level digest of a reply, `cached` flag excluded (a restarted
/// service legitimately answers the same bits from a cold cache).
fn fingerprint(reply: &Reply) -> Vec<u64> {
    match reply {
        Reply::Result(s) => {
            let mut v = vec![s.epoch, s.recommendations.len() as u64];
            for &(node, score) in s.recommendations.iter() {
                v.push(u64::from(node.0));
                v.push(score.to_bits());
            }
            v
        }
        Reply::Overloaded => vec![u64::MAX],
        Reply::Rejected(_) => vec![u64::MAX - 1],
    }
}

/// Applies one op; returns the reply fingerprint for queries.
fn apply_op(svc: &ShardedService, op: &Op) -> Option<Vec<u64>> {
    match op {
        Op::Query(req) => Some(fingerprint(&svc.call(*req))),
        Op::Change(c) => {
            svc.record(*c).expect("script changes are valid");
            None
        }
        Op::Rotate => {
            svc.rotate();
            None
        }
        Op::Refresh => {
            svc.refresh();
            None
        }
    }
}

/// A fresh durable engine over `case` rooted at `dir`, under `spec`
/// and [`chaos_cfg`] — every third node a landmark,
/// exhaustive-friendly fixed-depth score parameters.
pub fn durable_fleet(case: &GraphCase, dir: &Path, spec: ShardSpec) -> ShardedService {
    let graph = case.graph();
    let n = graph.num_nodes();
    let landmarks: Vec<NodeId> = graph.nodes().step_by(3).collect();
    ShardedService::with_durability(
        graph,
        SimMatrix::opencalais(),
        fui_core::ScoreParams {
            alpha: 0.8,
            beta: 0.25,
            tolerance: 1e-300,
            max_depth: 64,
        },
        fui_core::ScoreVariant::Full,
        landmarks,
        n,
        chaos_cfg(),
        spec,
        dir,
    )
    .expect("durable fleet build")
}

/// A seeded write spec for `case`: 1–4 shards, partition strategy
/// alternating by seed parity.
pub fn write_spec(case: &GraphCase) -> ShardSpec {
    let strategy = if case.seed % 2 == 0 {
        PartitionStrategy::Hash
    } else {
        PartitionStrategy::DegreeAware
    };
    ShardSpec::new(1 + (case.seed >> 1) as usize % 4, strategy)
}

/// A unique scratch directory for one chaos role.
fn scratch_dir(case: &GraphCase, role: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fui-chaos-{}-{}-{:#x}-{role}",
        std::process::id(),
        case.preset,
        case.seed
    ))
}

/// How the victim's on-disk state is mangled after the kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mangle {
    /// Clean kill between ops — disk exactly as the service left it.
    None,
    /// The newest snapshot file is truncated at a seeded offset,
    /// simulating a crash mid-snapshot-write; warm start must fall
    /// back to the next-newest valid snapshot and replay further.
    TornSnapshot,
    /// A partial record is appended to the fleet journal, simulating a
    /// crash mid-append; warm start must drop the (never-acknowledged)
    /// tail.
    TornJournal,
    /// The same, on a seeded shard's change journal.
    TornShardJournal,
}

/// The chaos invariant, for a victim and twin written under `write`.
/// See the module docs.
pub fn check_crash_recovery_matches_twin(case: &GraphCase, write: ShardSpec) -> Result<(), String> {
    if case.num_nodes < 2 {
        // The op script needs a non-self edge to record; the corpus
        // never draws 1-node cases but the minimizer can reach them.
        return Ok(());
    }
    let mut rng = SeededRng::new(case.seed.rotate_left(37));
    let ops = gen_ops(case, &mut rng);
    let kill_op = 1 + rng.below((ops.len() - 2) as u64) as usize;
    let mangle = match rng.below(4) {
        0 => Mangle::None,
        1 => Mangle::TornSnapshot,
        2 => Mangle::TornJournal,
        _ => Mangle::TornShardJournal,
    };
    let mangle_roll = rng.u64();
    let restore_spec = if rng.below(2) == 0 {
        write
    } else {
        let other = match write.strategy {
            PartitionStrategy::Hash => PartitionStrategy::DegreeAware,
            PartitionStrategy::DegreeAware => PartitionStrategy::Hash,
        };
        ShardSpec::new(1 + rng.below(4) as usize, other)
    };

    let twin_dir = scratch_dir(case, "twin");
    let victim_dir = scratch_dir(case, "victim");
    let _ = std::fs::remove_dir_all(&twin_dir);
    let _ = std::fs::remove_dir_all(&victim_dir);
    let result = run_case(
        case,
        &ops,
        kill_op,
        mangle,
        mangle_roll,
        write,
        restore_spec,
        &twin_dir,
        &victim_dir,
    );
    let _ = std::fs::remove_dir_all(&twin_dir);
    let _ = std::fs::remove_dir_all(&victim_dir);
    result
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    case: &GraphCase,
    ops: &[Op],
    kill_op: usize,
    mangle: Mangle,
    mangle_roll: u64,
    write: ShardSpec,
    restore_spec: ShardSpec,
    twin_dir: &Path,
    victim_dir: &Path,
) -> Result<(), String> {
    let ctx = |what: &str| {
        format!(
            "{what} (kill_op={kill_op}, mangle={mangle:?}, written {}x{}, restored {}x{}, {})",
            write.shards,
            write.strategy.as_str(),
            restore_spec.shards,
            restore_spec.strategy.as_str(),
            case.repro()
        )
    };

    // The uninterrupted twin: run everything, keep post-kill replies.
    let twin = durable_fleet(case, twin_dir, write);
    let mut twin_tail = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let fp = apply_op(&twin, op);
        if i >= kill_op {
            if let Some(fp) = fp {
                twin_tail.push(fp);
            }
        }
    }

    // The victim: run to the kill point, die, mangle, warm-restart.
    let victim = durable_fleet(case, victim_dir, write);
    for op in &ops[..kill_op] {
        apply_op(&victim, op);
    }
    drop(victim);

    let fallbacks = fui_obs::counter("snapshot.persist.fallbacks");
    let torn = fui_obs::counter("snapshot.persist.journal_torn");
    let (fallbacks0, torn0) = (fallbacks.get(), torn.get());
    let mut expect_fallback = false;
    let mut expect_torn = false;
    match mangle {
        Mangle::None => {}
        Mangle::TornSnapshot => {
            let snaps =
                durable::list_snapshots(victim_dir).map_err(|e| ctx(&format!("list: {e}")))?;
            // Only tear when an older intact snapshot remains to fall
            // back to; snapshot-0 alone must stay whole.
            if snaps.len() >= 2 {
                let (_, newest) = &snaps[0];
                let len = std::fs::metadata(newest)
                    .map_err(|e| ctx(&format!("stat: {e}")))?
                    .len();
                let cut = 1 + mangle_roll % len.max(2).saturating_sub(1);
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(newest)
                    .map_err(|e| ctx(&format!("open: {e}")))?;
                f.set_len(cut).map_err(|e| ctx(&format!("truncate: {e}")))?;
                expect_fallback = true;
            }
        }
        Mangle::TornJournal | Mangle::TornShardJournal => {
            let partial = durable::encode_record(u64::MAX, &durable::JournalOp::Rotate);
            let cut = 1 + (mangle_roll as usize) % (partial.len() - 1);
            let path = if mangle == Mangle::TornShardJournal {
                let s = mangle_roll % write.shards as u64;
                victim_dir
                    .join(format!("shard-{s:04}"))
                    .join(durable::JOURNAL_FILE)
            } else {
                victim_dir.join(durable::JOURNAL_FILE)
            };
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| ctx(&format!("open {}: {e}", path.display())))?;
            use std::io::Write;
            f.write_all(&partial[..cut])
                .map_err(|e| ctx(&format!("tear journal: {e}")))?;
            expect_torn = true;
        }
    }

    let restored = ShardedService::restore(
        victim_dir,
        SimMatrix::opencalais(),
        chaos_cfg(),
        restore_spec,
    )
    .map_err(|e| ctx(&format!("restore failed: {e}")))?;
    // Counter increments are no-ops unless FUI_OBS enables them.
    if fui_obs::counters_enabled() {
        if expect_fallback && fallbacks.get() == fallbacks0 {
            return Err(ctx("torn snapshot did not bump snapshot.persist.fallbacks"));
        }
        if expect_torn && torn.get() == torn0 {
            return Err(ctx(
                "torn journal did not bump snapshot.persist.journal_torn",
            ));
        }
    }

    // Post-recovery tail must answer bit-identically to the twin.
    let mut victim_tail = Vec::new();
    for op in &ops[kill_op..] {
        if let Some(fp) = apply_op(&restored, op) {
            victim_tail.push(fp);
        }
    }
    if victim_tail != twin_tail {
        return Err(ctx(&format!(
            "post-recovery replies diverged from the uninterrupted twin: \
             {victim_tail:?} vs {twin_tail:?}"
        )));
    }

    // And the two must agree on where the history ended.
    if twin.epoch() != restored.epoch() || twin.graph_gen() != restored.graph_gen() {
        return Err(ctx(&format!(
            "final publication diverged: twin epoch={} gen={}, victim epoch={} gen={}",
            twin.epoch(),
            twin.graph_gen(),
            restored.epoch(),
            restored.graph_gen()
        )));
    }
    if twin.applied_seq() != restored.applied_seq() {
        return Err(ctx(&format!(
            "journal position diverged: twin {}, victim {}",
            twin.applied_seq(),
            restored.applied_seq()
        )));
    }
    if twin.pending_changes() != restored.pending_changes() {
        return Err(ctx(&format!(
            "pending queue diverged: twin {}, victim {}",
            twin.pending_changes(),
            restored.pending_changes()
        )));
    }
    Ok(())
}

// ---- corrupt snapshot fixture builders -------------------------------

/// Byte offset of the `epoch` header field in a snapshot file.
pub const SNAP_EPOCH_OFFSET: usize = 16;
/// Byte offset of the `graph_gen` header field in a snapshot file.
pub const SNAP_GRAPH_GEN_OFFSET: usize = 24;
/// Byte offset of the slot-count field in a snapshot file
/// (magic 8 + four `u64` counters + `ScoreParams` 28 + variant 1).
pub const SNAP_SLOT_COUNT_OFFSET: usize = 69;

/// Recomputes and rewrites the trailing checksum — fixtures splice
/// fields and then re-fix, so decoding exercises the semantic
/// validation behind the checksum, not the checksum itself.
pub fn refix_checksum(bytes: &mut [u8]) {
    assert!(bytes.len() > 8, "not a snapshot");
    let body = bytes.len() - 8;
    let sum = durable::checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Fixture: checksum-valid file whose `graph_gen` exceeds its `epoch`
/// — a generation the epoch never reached cannot come from a live
/// service, so warm start must reject it as implausible.
pub fn corrupt_stale_generation(snapshot: &[u8]) -> Vec<u8> {
    let mut out = snapshot.to_vec();
    let epoch = u64::from_le_bytes(
        out[SNAP_EPOCH_OFFSET..SNAP_EPOCH_OFFSET + 8]
            .try_into()
            .expect("8 bytes"),
    );
    out[SNAP_GRAPH_GEN_OFFSET..SNAP_GRAPH_GEN_OFFSET + 8]
        .copy_from_slice(&(epoch + 1).to_le_bytes());
    refix_checksum(&mut out);
    out
}

/// Fixture: checksum-valid file whose per-slot version table lost its
/// last entry — the slot count then disagrees with the embedded
/// landmark index, which warm start must reject.
pub fn corrupt_slot_mismatch(snapshot: &[u8]) -> Vec<u8> {
    let mut out = snapshot.to_vec();
    let at = SNAP_SLOT_COUNT_OFFSET;
    let slots = u32::from_le_bytes(out[at..at + 4].try_into().expect("4 bytes"));
    assert!(slots >= 1, "fixture needs at least one landmark slot");
    out[at..at + 4].copy_from_slice(&(slots - 1).to_le_bytes());
    // Drop the last 16-byte (version, staleness) entry.
    let entry_at = at + 4 + (slots as usize - 1) * 16;
    out.drain(entry_at..entry_at + 16);
    refix_checksum(&mut out);
    out
}
