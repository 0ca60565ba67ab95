//! `batch_restart`: the operator's view, in process, no network.
//!
//! A four-shard fleet scores back-to-back 2048-query batches in four
//! closed-loop legs separated by the maintenance operations (rotate,
//! refresh, rotate). The traced run adds the durable leg: persist,
//! journal a tail, rotate durably, kill, warm-restart.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::{NodeId, PartitionStrategy, SocialGraph};
use fui_landmarks::EdgeChange;
use fui_service::{Reply, Request, Service, ShardSpec, ShardedService, Snapshot};
use fui_taxonomy::{SimMatrix, Topic, TopicSet};

use crate::fixture::{self, Scale, WritePlanner, LANDMARKS, REFRESH_SLOTS, STORED_TOP_N};
use crate::http::SLO_LIMIT_MS;
use crate::layers;
use crate::proc_stat;
use crate::report::RunResult;
use crate::stats::{self, Outcome};
use crate::trace::Recorder;
use crate::Args;

/// Queries per `call_many` batch.
const BATCH: usize = 2048;

/// Shards in the fleet.
const SHARDS: usize = 4;

/// Closed-loop legs.
const LEGS: usize = 4;

/// Follows recorded before each maintenance operation.
const INSERTS: usize = 32;

/// Account stride of the batch queries: coprime with the graph size,
/// so no account repeats within a run.
const USER_STRIDE: usize = 7919;

fn build_fleet(graph: SocialGraph) -> ShardedService {
    let hubs = fixture::hub_landmarks(&graph, LANDMARKS);
    ShardedService::new(
        graph,
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        hubs,
        STORED_TOP_N,
        fixture::fleet_service_config(),
        ShardSpec::new(SHARDS, PartitionStrategy::Hash),
    )
}

/// What the unsharded twin leaves behind once it is dropped.
struct Twin {
    probes: Vec<Request>,
    answers: Vec<Reply>,
    planner: WritePlanner,
    /// Dominant topic per account (the batch queries' topic).
    dominant: Vec<Topic>,
    footprint: fui_graph::MemoryFootprint,
    /// Traced runs keep the twin alive for the layer replay.
    svc: Option<Arc<Service>>,
}

/// Builds the unsharded service, answers the probe set and plans the
/// writes against its landmark index.
fn build_twin(scale: Scale, args: &Args) -> Twin {
    let graph = fixture::stream_graph(scale, args.seed);
    let svc = Arc::new(fixture::build_service(
        graph,
        fixture::http_service_config(4096),
    ));
    let snap = svc.snapshot();
    let probes = fixture::probe_requests(&snap.graph);
    Twin {
        answers: svc.call_many(&probes),
        probes,
        planner: WritePlanner::new(&snap.index, snap.graph.num_nodes()),
        dominant: snap
            .graph
            .nodes()
            .map(|u| fixture::dominant_topic(&snap.graph, u))
            .collect(),
        footprint: snap.graph.memory_footprint(),
        svc: args.trace.then_some(svc),
    }
}

/// The `index`-th batch: strided accounts, each on its dominant topic.
fn batch_requests(dominant: &[Topic], index: usize) -> Vec<Request> {
    let n = dominant.len();
    (0..BATCH)
        .map(|i| {
            let user = ((index * BATCH + i) * USER_STRIDE) % n;
            Request {
                user: NodeId(user as u32),
                topic: dominant[user],
                top_n: 10,
            }
        })
        .collect()
}

/// `count` inert follows, numbered from `from` so no two groups share
/// an edge.
fn inert_follows(
    planner: &WritePlanner,
    nodes: usize,
    from: usize,
    count: usize,
) -> Vec<EdgeChange> {
    (from..from + count)
        .map(|i| {
            let a = ((i * USER_STRIDE + 3) % nodes) as u32;
            let b = ((i * 104_729 + 11) % nodes) as u32;
            let (a, b) = planner.inert_pair(a, b);
            EdgeChange::insert(
                NodeId(a),
                NodeId(b),
                TopicSet::single(Topic::ALL[i % Topic::ALL.len()]),
            )
        })
        .collect()
}

fn registry(name: &str) -> f64 {
    fui_obs::counter(name).get() as f64
}

/// Runs the workload.
pub fn run(args: &Args, scale: Scale, process_start: Instant) -> RunResult {
    let mut result = RunResult::default();
    let leg_s = (args.seconds as f64 * 0.15).max(0.3);
    let mut rec = Recorder::starting_at(process_start);

    // ---- set-up: the fleet, repeated; the unsharded twin once --------
    let mut rep_times: Vec<f64> = Vec::new();
    let mut datagen_s = 0.0;
    let mut build_s = 0.0;
    let mut kept: Option<ShardedService> = None;
    let mut twin: Option<Twin> = None;
    for rep in 0..args.setup_reps {
        drop(kept.take());
        if rep + 1 == args.setup_reps {
            // The unsharded twin answers the probe set and goes away
            // before the kept fleet is built (one engine resident at a
            // time; its build is not part of setup_s).
            twin = Some(build_twin(scale, args));
        }
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let tg = Instant::now();
        let graph = fixture::stream_graph(scale, args.seed);
        datagen_s = tg.elapsed().as_secs_f64();
        let tb = Instant::now();
        let fleet = build_fleet(graph);
        build_s = tb.elapsed().as_secs_f64();
        rep_times.push(t0.elapsed().as_secs_f64());
        kept = Some(fleet);
    }
    let tail_start = Instant::now();
    let fleet = kept.expect("at least one set-up repetition");
    let twin = twin.expect("twin built before the last repetition");
    let nodes = twin.dominant.len();

    // Fleet answers equal the unsharded service's, bit for bit.
    let fleet_answers = fleet.call_many(&twin.probes);
    result.check(
        fixture::replies_bit_equal(&fleet_answers, &twin.answers),
        || "fleet probe answers differ from the unsharded service".to_owned(),
    );
    let mut checksum = 0u64;
    if let Err(e) = fixture::fold_scores(&mut checksum, &fleet_answers) {
        result.fail(e);
    }
    result.note("score_checksum", format!("{checksum:016x}"));
    let (triggers, planned_slots) = twin.planner.triggers(REFRESH_SLOTS);
    let setup_s = stats::median(&rep_times) + tail_start.elapsed().as_secs_f64();

    // ---- the legs ------------------------------------------------------
    let mut batch_walls: Vec<(f64, f64)> = Vec::new(); // (offset in legs, wall ms)
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut leg_qps: Vec<f64> = Vec::new();
    let mut rotate_s: Vec<f64> = Vec::new();
    let mut refresh_s = 0.0;
    let mut next_batch = 0usize;
    let mut legs_wall = 0.0;
    let mut batches_wall = 0.0;
    let crit_before = fleet.status().crit_ns;
    let counters = [
        "service.shard.explorations",
        "service.shard.fanout",
        "service.shard.merges",
        "exec.tasks",
    ];
    let before: Vec<f64> = counters.iter().map(|c| registry(c)).collect();
    let mut queries = 0u64;
    let mut overloaded = 0u64;
    for leg in 0..LEGS {
        let leg_start = Instant::now();
        let leg_span = rec.push("leg", None, leg as u64, leg_start, leg_start);
        let mut answered = 0u64;
        while leg_start.elapsed().as_secs_f64() < leg_s {
            let reqs = batch_requests(&twin.dominant, next_batch);
            next_batch += 1;
            let t0 = Instant::now();
            let replies = fleet.call_many(&reqs);
            let t1 = Instant::now();
            let wall_ms = (t1 - t0).as_secs_f64() * 1e3;
            if args.trace {
                rec.push(
                    "service.router.call_many",
                    Some(leg_span),
                    next_batch as u64,
                    t0,
                    t1,
                );
            }
            batches_wall += wall_ms / 1e3;
            batch_walls.push((legs_wall + (t0 - leg_start).as_secs_f64(), wall_ms));
            for reply in &replies {
                queries += 1;
                match reply {
                    Reply::Result(_) => {
                        answered += 1;
                        outcomes.push(Outcome::Ok(wall_ms));
                    }
                    _ => {
                        overloaded += 1;
                        outcomes.push(Outcome::Missed);
                    }
                }
            }
        }
        let leg_wall = leg_start.elapsed().as_secs_f64();
        rec.close(leg_span, Instant::now());
        legs_wall += leg_wall;
        leg_qps.push(answered as f64 / leg_wall);

        if leg + 1 == LEGS {
            break;
        }
        // Maintenance between legs: 32 follows, then rotate / refresh /
        // rotate. The follows before the refresh carry the triggers.
        let mut follows = inert_follows(&twin.planner, nodes, leg * INSERTS, INSERTS);
        if leg == 1 {
            for (slot, t) in follows.iter_mut().zip(&triggers) {
                *slot = *t;
            }
        }
        for change in follows {
            if let Err(e) = fleet.record(change) {
                result.fail(format!("planned follow rejected: {e}"));
            }
        }
        let t0 = Instant::now();
        if leg == 1 {
            let refreshed = fleet.refresh();
            refresh_s = t0.elapsed().as_secs_f64();
            rec.push(
                "service.router.refresh",
                None,
                leg as u64,
                t0,
                Instant::now(),
            );
            result.check(refreshed == planned_slots, || {
                format!("refresh recomputed {refreshed} slots, planned {planned_slots}")
            });
        } else {
            fleet.rotate();
            rotate_s.push(t0.elapsed().as_secs_f64());
            rec.push(
                "service.router.rotate",
                None,
                leg as u64,
                t0,
                Instant::now(),
            );
        }
    }
    let after: Vec<f64> = counters.iter().map(|c| registry(c)).collect();
    let crit_s = (fleet.status().crit_ns - crit_before) as f64 / 1e9;
    result.check(overloaded == 0, || {
        format!("{overloaded} batch queries were not answered")
    });

    let walls: Vec<f64> = batch_walls.iter().map(|b| b.1).collect();
    let q = queries.max(1) as f64;
    let m = &mut result.metrics;
    m.set("setup_s", setup_s);
    m.set("query_p50_ms", stats::median(&walls));
    m.set(
        "query_p99_ms",
        stats::window_median_p99(&batch_walls, legs_wall),
    );
    m.set("slo_ok_frac", stats::slo_ok_frac(&outcomes, SLO_LIMIT_MS));
    // Queries per second over the middle half of the batches: a
    // stalled batch lands in the dropped quarter.
    let batch_rates: Vec<f64> = walls.iter().map(|ms| BATCH as f64 / (ms / 1e3)).collect();
    m.set("capacity_rps", stats::interquartile_mean(&batch_rates));
    m.set("batch_qps", stats::median(&leg_qps));
    m.set("load.query_p99_ms", stats::percentile_of(&walls, 0.99));
    m.set("load.sent", queries as f64);
    m.set("rotate_s", stats::median(&rotate_s));
    m.set("refresh_s", refresh_s);
    m.set("datagen.stream_s", datagen_s);
    m.set("service.router.build_s", build_s);
    m.set(
        "service.router.explorations_per_query",
        (after[0] - before[0]) / q,
    );
    m.set(
        "service.router.fanout_per_query",
        (after[1] - before[1]) / q,
    );
    m.set(
        "service.router.merges_per_query",
        (after[2] - before[2]) / q,
    );
    m.set("exec.tasks_per_query", (after[3] - before[3]) / q);
    m.set("service.router.crit_share", crit_s / batches_wall.max(1e-9));
    m.set("graph.bytes_per_node", twin.footprint.bytes_per_node());
    m.set("graph.bytes_per_edge", twin.footprint.bytes_per_edge());
    result.attempted = queries + twin.probes.len() as u64;
    result.failed = overloaded;
    result
        .metrics
        .set("load.ops_attempted", result.attempted as f64);
    result.metrics.set("load.ops_failed", result.failed as f64);
    result.note("batches", walls.len());
    result.note("leg_qps", format!("{leg_qps:.0?}"));
    result.note("fleet_rotate_s", format!("{rotate_s:.3?}"));
    result.note("refreshed_slots", planned_slots);
    result.note("setup_reps_s", format!("{rep_times:.3?}"));
    result.accounting = vec![
        ("legs wall".to_owned(), legs_wall * 1e3, "ms".to_owned()),
        (
            "busy.service.router (call_many)".to_owned(),
            batches_wall * 1e3,
            "ms".to_owned(),
        ),
        (
            "  of which critical path (FleetStatus::crit_ns)".to_owned(),
            crit_s * 1e3,
            "ms".to_owned(),
        ),
        (
            "wait (request generation between batches)".to_owned(),
            (legs_wall - batches_wall) * 1e3,
            "ms".to_owned(),
        ),
    ];
    result.metrics.set("trace.busy_ms", batches_wall * 1e3);
    result
        .metrics
        .set("trace.wait_ms", (legs_wall - batches_wall) * 1e3);
    let rss = proc_stat::rss_peak_mb();

    // ---- traced: the durable leg and the layer replay -----------------
    drop(fleet);
    if let Some(svc) = twin.svc {
        let _ = layers::replay_service(&mut result, &mut rec, &svc, &replay_ops(&twin.dominant));
        durable_leg(&mut result, &mut rec, &svc.snapshot(), &twin.probes);
        layers::write_trace(&mut result, &rec, "batch_restart", args);
    }
    result.metrics.set("rss_peak_mb", rss);
    result
}

/// Queries for the layer replay, drawn like the legs' but from
/// accounts the legs never reach.
fn replay_ops(dominant: &[Topic]) -> Vec<fui_load::Op> {
    batch_requests(dominant, 100_000)
        .iter()
        .map(crate::loadgen::rec_op)
        .collect()
}

/// Persist, journal, rotate durably, kill, warm-restart — and the
/// durable layer's functions timed one by one.
fn durable_leg(
    result: &mut RunResult,
    rec: &mut Recorder,
    snap: &Arc<Snapshot>,
    probes: &[Request],
) {
    let dir: PathBuf = layers::out_dir().join(format!("durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    layers::replay_durable(result, rec, snap, &dir);

    let cfg = fixture::http_service_config(4096);
    let restore = |label: &'static str, rec: &mut Recorder| -> (Service, f64) {
        let t0 = Instant::now();
        let svc = Service::restore(&dir, SimMatrix::opencalais(), cfg).expect("warm restart");
        let _ = svc.call(probes[0]);
        let t1 = Instant::now();
        rec.push(label, None, 5_000_000, t0, t1);
        (svc, (t1 - t0).as_secs_f64())
    };
    let (svc, _) = restore("service.durable.restore", rec);
    let nodes = snap.graph.num_nodes();
    let change = |i: usize| {
        let a = ((i * USER_STRIDE + 29) % nodes) as u32;
        let b = (a as usize + 1 + (i * 104_729) % (nodes - 1)) % nodes;
        EdgeChange::insert(
            NodeId(a),
            NodeId(b as u32),
            TopicSet::single(Topic::ALL[i % Topic::ALL.len()]),
        )
    };
    let mut record_us = Vec::new();
    for i in 0..64 {
        let t0 = Instant::now();
        svc.record(change(i)).expect("valid change");
        record_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    result
        .metrics
        .set("service.record_durable_us", stats::median(&record_us));
    let t0 = Instant::now();
    svc.rotate();
    let t1 = Instant::now();
    rec.push("service.durable.rotate", None, 5_000_001, t0, t1);
    result
        .metrics
        .set("durable_rotate_s", (t1 - t0).as_secs_f64());
    for i in 64..128 {
        svc.record(change(i)).expect("valid change");
    }
    let before = svc.call_many(probes);
    let identity = (
        svc.snapshot().epoch,
        svc.snapshot().graph_gen,
        svc.applied_seq(),
    );
    drop(svc); // the kill

    let (restored, restore_s) = restore("service.durable.restore", rec);
    result.metrics.set("restore_s", restore_s);
    let after = restored.call_many(probes);
    result.check(fixture::replies_bit_equal(&before, &after), || {
        "restored probe answers differ from the pre-kill ones".to_owned()
    });
    let restored_identity = (
        restored.snapshot().epoch,
        restored.snapshot().graph_gen,
        restored.applied_seq(),
    );
    result.check(identity == restored_identity, || {
        format!("(epoch, graph_gen, applied_seq) {identity:?} restored as {restored_identity:?}")
    });

    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);
}
