//! The traced run's per-layer measurements.
//!
//! Every layer is measured from outside: the harness times calls into
//! its public functions, each call a span with its parent, and the
//! spans go to the trace file. Nothing here runs in an untraced run,
//! and no end-to-end number comes from here.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fui_core::topk::select_top_k;
use fui_core::{AuthorityIndex, PropWorkspace, Propagator, SimRowCache};
use fui_graph::{NodeId, Partition, PartitionStrategy};
use fui_landmarks::{ApproxRecommender, DynamicLandmarks, EdgeChange, LandmarkIndex};
use fui_load::Op;
use fui_service::durable::{self, JournalOp};
use fui_service::{
    apply_changes, render_reply, CacheKey, CacheStamp, Reply, Request, ResultCache, Service,
    Snapshot, SnapshotState,
};
use fui_taxonomy::{SimMatrix, Topic, TopicSet};

use crate::fixture::{REFRESH_THRESHOLD, STORED_TOP_N};
use crate::loadgen;
use crate::report::RunResult;
use crate::stats;
use crate::trace::Recorder;
use crate::Args;

/// Operations replayed through the layers at most.
const REPLAY_OPS: usize = 2000;

/// Wall-clock the query replay may take; a miss costs milliseconds
/// through `submit`+`pump`, so the cold workloads replay fewer ops.
const REPLAY_BUDGET: Duration = Duration::from_secs(3);

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Times `f` `n` times and returns the median duration.
fn median_time(n: usize, mut f: impl FnMut()) -> Duration {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(stats::median(&times))
}

fn change_of(op: &Op) -> Option<EdgeChange> {
    match op {
        Op::Follow {
            follower,
            followee,
            topics,
        } => {
            let mut labels = TopicSet::empty();
            for name in topics.split(',') {
                labels.insert(Topic::from_str(name).ok()?);
            }
            Some(EdgeChange::insert(
                NodeId(*follower),
                NodeId(*followee),
                labels,
            ))
        }
        Op::Unfollow { follower, followee } => Some(EdgeChange::remove(
            NodeId(*follower),
            NodeId(*followee),
            TopicSet::empty(),
        )),
        _ => None,
    }
}

/// Depth-1 round trips on one connection: `/health` (no service work)
/// and a cached `/rec` (the whole hit path).
pub fn net_round_trips(result: &mut RunResult, addr: SocketAddr, cached: &Request) {
    let health: Vec<Vec<u8>> = (0..300)
        .map(|_| b"GET /health HTTP/1.1\r\n\r\n".to_vec())
        .collect();
    let mut rec_bytes = Vec::new();
    loadgen::render_request(&loadgen::rec_op(cached), &mut rec_bytes);
    let recs: Vec<Vec<u8>> = (0..300).map(|_| rec_bytes.clone()).collect();
    let rtt = |reqs: &[Vec<u8>]| -> f64 {
        let times: Vec<f64> = loadgen::roundtrips(addr, reqs)
            .iter()
            .map(|(_, _, d)| us(*d))
            .collect();
        stats::median(&times)
    };
    result.metrics.set("net.health_rtt_us", rtt(&health));
    result.metrics.set("net.rec_hit_rtt_us", rtt(&recs));
}

/// Replays sampled operations of the measured window through each
/// layer's public functions on the (now unfronted) service, then
/// times the mutation-side functions once each.
///
/// The replay runs on a thread of its own: the live service computes
/// on its pump and pool threads, never on the main thread, and the
/// allocator treats the two differently (a fresh propagation workspace
/// costs several times more from the main thread's heap).
pub fn replay_service(
    result: &mut RunResult,
    rec: &mut Recorder,
    svc: &Arc<Service>,
    ops: &[Op],
) -> QueryReplay {
    std::thread::scope(|scope| {
        scope
            .spawn(|| replay_on_this_thread(result, rec, svc, ops))
            .join()
            .expect("layer replay thread")
    })
}

/// Mean replayed stage costs of one query, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryReplay {
    /// Parse + render + write of one request.
    pub net_us: f64,
    /// One batch through `submit` + `pump`.
    pub pump_us: f64,
    /// Explore + compose of a batch, spread over the pool.
    pub landmarks_us: f64,
    /// Cache get + insert of a batch.
    pub cache_us: f64,
}

/// The HTTP workloads' accounting: what the stages add up to for one
/// query, against the latency the client saw. A query is busy for its
/// own parse, render and write and for its whole batch's wall; the
/// wait row is whatever the stages do not explain (loop wake-ups,
/// queueing behind earlier batches, the wire). Means, because a sum
/// of stages is a sum of means.
pub fn account_http(result: &mut RunResult, replay: &QueryReplay) {
    // The batch wall the program measured on itself during the window
    // (its `service.request` span) when there is one; the replayed
    // submit+pump otherwise. The replay runs batches one at a time on
    // an idle process, so its wall can differ from the live one.
    let batch_wall = result
        .metrics
        .get("live.service_request_ms")
        .map_or(replay.pump_us, |ms| ms * 1e3);
    let busy_service = (batch_wall - replay.landmarks_us - replay.cache_us).max(0.0);
    let busy_ms = (replay.net_us + batch_wall) / 1e3;
    let p50 = result.metrics.get("query_p50_ms").unwrap_or(0.0);
    let wait_ms = p50 - busy_ms;
    result.metrics.set("trace.busy_ms", busy_ms);
    result.metrics.set("trace.wait_ms", wait_ms);
    result.metrics.set("net.wait_ms", wait_ms);
    for (row, value) in [
        (
            "busy.net (parse + render + write, replayed)",
            replay.net_us / 1e3,
        ),
        (
            "busy.service (live batch wall minus the two rows below)",
            busy_service / 1e3,
        ),
        (
            "busy.landmarks (explore+compose of a batch over the pool, replayed, warm workspace)",
            replay.landmarks_us / 1e3,
        ),
        (
            "busy.service.cache (get + insert of a batch, replayed)",
            replay.cache_us / 1e3,
        ),
        (
            "wait (query_p50_ms minus busy: loop wake-ups, queueing, the wire)",
            wait_ms,
        ),
        ("query_p50_ms", p50),
        (
            "replayed batch submit+pump, for comparison",
            replay.pump_us / 1e3,
        ),
    ] {
        result
            .accounting
            .push((row.to_owned(), value, "ms".to_owned()));
    }
}

fn replay_on_this_thread(
    result: &mut RunResult,
    rec: &mut Recorder,
    svc: &Arc<Service>,
    ops: &[Op],
) -> QueryReplay {
    let snap = svc.snapshot();
    let propagator = snap.propagator();
    let recommender = ApproxRecommender::new(&propagator, &snap.index);
    let mut ws = PropWorkspace::new();

    // A standalone cache of the service's shape, filled to capacity so
    // every insert pays the eviction scan.
    let cfg = *svc.config();
    let cache = ResultCache::new(cfg.cache_capacity, cfg.cache_shards);
    let filler = Arc::new(vec![(NodeId(0), 0.0f64); 10]);
    let stamp = || CacheStamp {
        shard: snap.shard,
        graph_gen: snap.graph_gen,
        met: Vec::new(),
    };
    for i in 0..cfg.cache_capacity as u32 * 2 {
        cache.insert(
            CacheKey {
                user: u32::MAX - i,
                topic: 0,
                top_n: 10,
            },
            Arc::clone(&filler),
            stamp(),
        );
    }

    // ---- queries -----------------------------------------------------
    // Replayed in batches of the size the live window's median batch
    // had: a query waits for its whole batch, and a batch of one takes
    // a different path through the pool than a batch of several.
    let queries: Vec<Request> = ops.iter().filter_map(loadgen::request_of).collect();
    let step = (queries.len() / REPLAY_OPS).max(1);
    let sampled: Vec<(usize, Request)> = queries
        .iter()
        .copied()
        .enumerate()
        .step_by(step)
        .take(REPLAY_OPS)
        .collect();
    let group = (result.metrics.get("service.batch.size_p50").unwrap_or(1.0) as usize)
        .clamp(1, cfg.max_batch.max(1));
    let lanes = fui_exec::threads().max(1) as f64;
    let (mut parse, mut pump, mut render, mut write) = (vec![], vec![], vec![], vec![]);
    let (mut explore, mut compose, mut topk, mut get, mut insert) =
        (vec![], vec![], vec![], vec![], vec![]);
    // Per batch: the share of its wall the landmark and cache layers
    // explain when their calls spread over the pool.
    let (mut landmarks_share, mut cache_share) = (vec![], vec![]);
    let replay_start = Instant::now();
    let mut replayed = 0usize;
    let mut misses = 0usize;
    for chunk in sampled.chunks(group) {
        if replay_start.elapsed() > REPLAY_BUDGET {
            break;
        }
        replayed += chunk.len();
        let batch_id = 1_000_000 + chunk[0].0 as u64;
        let t_root = Instant::now();
        let root = rec.push("replay.batch", None, batch_id, t_root, t_root);
        for (i, req) in chunk {
            let mut bytes = Vec::new();
            loadgen::render_request(&loadgen::rec_op(req), &mut bytes);
            let (_, s) = rec.time(
                "net.parse_request",
                Some(root),
                1_000_000 + *i as u64,
                || std::hint::black_box(fui_net::parse_request(std::hint::black_box(&bytes))),
            );
            parse.push(span_us(rec, s));
        }
        let (replies, s) = rec.time("service.submit_pump", Some(root), batch_id, || {
            let tickets: Vec<_> = chunk
                .iter()
                .map(|(_, req)| svc.submit(*req, None).expect("replay queue has room"))
                .collect();
            while svc.pump() > 0 {}
            tickets
                .into_iter()
                .map(|t| t.wait())
                .collect::<Vec<Reply>>()
        });
        pump.push(span_us(rec, s));
        for ((i, _), reply) in chunk.iter().zip(&replies) {
            let id = 1_000_000 + *i as u64;
            let (body, s) = rec.time("net.render_reply", Some(root), id, || render_reply(reply));
            render.push(span_us(rec, s));
            let (_, s) = rec.time("net.write_response", Some(root), id, || {
                let mut out = Vec::new();
                fui_net::write_response(&mut out, 200, &body, true);
                std::hint::black_box(out)
            });
            write.push(span_us(rec, s));
        }
        rec.close(root, Instant::now());

        // The same queries through the layers the service called.
        let t_layers = Instant::now();
        let layers = rec.push("replay.layers", None, batch_id, t_layers, t_layers);
        let (mut batch_landmarks, mut batch_cache, mut batch_misses) = (0.0, 0.0, 0usize);
        for ((i, req), reply) in chunk.iter().zip(&replies) {
            let id = 1_000_000 + *i as u64;
            let key = CacheKey {
                user: req.user.0,
                topic: req.topic.index() as u8,
                top_n: req.top_n as u32,
            };
            let (_, s) = rec.time("service.cache.get", Some(layers), id, || {
                std::hint::black_box(cache.get(key, &snap))
            });
            get.push(span_us(rec, s));
            batch_cache += span_us(rec, s);
            if !matches!(reply, Reply::Result(served) if !served.cached) {
                continue;
            }
            batch_misses += 1;
            let (ex, s) = rec.time("landmarks.explore", Some(layers), id, || {
                recommender.explore_with(&mut ws, req.user, req.topic)
            });
            explore.push(span_us(rec, s));
            batch_landmarks += span_us(rec, s);
            let (answer, s) = rec.time("landmarks.compose", Some(layers), id, || {
                recommender.compose_from(&ex, req.topic, req.top_n)
            });
            compose.push(span_us(rec, s));
            batch_landmarks += span_us(rec, s);
            let (_, s) = rec.time("core.topk.select", Some(layers), id, || {
                std::hint::black_box(select_top_k(req.top_n, ex.vicinity.iter().copied()))
            });
            topk.push(span_us(rec, s));
            let value = Arc::new(answer.recommendations);
            let (_, s) = rec.time("service.cache.insert", Some(layers), id, || {
                cache.insert(key, value, stamp())
            });
            insert.push(span_us(rec, s));
            batch_cache += span_us(rec, s);
        }
        misses += batch_misses;
        landmarks_share.push(batch_landmarks / lanes.min(batch_misses.max(1) as f64));
        cache_share.push(batch_cache);
        rec.close(layers, Instant::now());
    }

    let m = &mut result.metrics;
    m.set("net.parse_request_ns", stats::median(&parse) * 1e3);
    m.set("net.render_reply_ns", stats::median(&render) * 1e3);
    m.set("net.write_response_ns", stats::median(&write) * 1e3);
    m.set("service.batch.submit_pump_us", stats::median(&pump));
    m.set("landmarks.explore_us", stats::median(&explore));
    m.set("landmarks.compose_us", stats::median(&compose));
    m.set("core.topk.select_ns", stats::median(&topk) * 1e3);
    m.set("service.cache.insert_evict_us", stats::median(&insert));

    let replay = QueryReplay {
        net_us: mean(&parse) + mean(&render) + mean(&write),
        pump_us: mean(&pump),
        landmarks_us: mean(&landmarks_share),
        cache_us: mean(&cache_share),
    };
    result.note("replayed_queries", replayed);
    result.note("replayed_misses", misses);
    result.note("replay_batch_size", group);

    // ---- single calls into service and core --------------------------
    let fresh = |k: usize| Request {
        user: NodeId(((k * 7919 + 13) % snap.graph.num_nodes()) as u32),
        topic: Topic::Technology,
        top_n: 10,
    };
    let hit_key = fresh(0);
    let _ = svc.call(hit_key);
    let t = median_time(200, || {
        std::hint::black_box(svc.call(hit_key));
    });
    result.metrics.set("service.call_hit_us", us(t));
    let mut k = 1;
    let t = median_time(16, || {
        k += 1;
        std::hint::black_box(svc.call(fresh(k)));
    });
    result.metrics.set("service.call_miss_us", us(t));
    let t = median_time(4, || {
        let batch: Vec<Request> = (0..32)
            .map(|_| {
                k += 1;
                fresh(k)
            })
            .collect();
        std::hint::black_box(svc.call_many(&batch));
    });
    result
        .metrics
        .set("service.call_many32_miss_us_per_req", us(t) / 32.0);
    let t = median_time(8, || {
        k += 1;
        let q = fresh(k);
        std::hint::black_box(recommender.recommend(q.user, q.topic, q.top_n));
    });
    result.metrics.set("core.workspace.cold_query_us", us(t));
    let t = median_time(200, || {
        k += 1;
        let q = fresh(k);
        std::hint::black_box(recommender.recommend_with(&mut ws, q.user, q.topic, q.top_n));
    });
    result.metrics.set("core.workspace.warm_query_us", us(t));
    result
        .metrics
        .set("core.workspace.bytes", ws.size_bytes() as f64);
    let t = median_time(200, || {
        std::hint::black_box(fui_exec::par_map(&[0u32, 1], |x| *x));
    });
    result.metrics.set("exec.par_map_floor_us", us(t));
    let t = median_time(2000, || {
        std::hint::black_box(cache.get(
            CacheKey {
                user: u32::MAX,
                topic: 0,
                top_n: 10,
            },
            &snap,
        ));
    });
    result.metrics.set("service.cache.get_hit_ns", us(t) * 1e3);

    // ---- writes --------------------------------------------------------
    let mut writes: Vec<EdgeChange> = ops.iter().filter_map(change_of).take(64).collect();
    let n = snap.graph.num_nodes() as u32;
    let labels = TopicSet::single(Topic::Technology);
    while writes.len() < 64 {
        let i = writes.len() as u32;
        let a = (i * 7919 + 5) % n;
        writes.push(EdgeChange::insert(
            NodeId(a),
            NodeId((a + 1 + i) % n),
            labels,
        ));
    }
    let mut dynamic = DynamicLandmarks::with_policy((*snap.index).clone(), REFRESH_THRESHOLD, 1e-9);
    let mut record_ns = Vec::new();
    let mut service_record = Vec::new();
    for (i, change) in writes.iter().enumerate() {
        let id = 2_000_000 + i as u64;
        let t_root = Instant::now();
        let root = rec.push("replay.write", None, id, t_root, t_root);
        let (_, s) = rec.time("landmarks.dynamic.record", Some(root), id, || {
            dynamic.record(change)
        });
        record_ns.push(span_us(rec, s) * 1e3);
        let (_, s) = rec.time("service.record", Some(root), id, || {
            svc.record(*change).expect("replayed writes are valid")
        });
        service_record.push(span_us(rec, s));
        rec.close(root, Instant::now());
    }
    result
        .metrics
        .set("landmarks.dynamic.record_ns", stats::median(&record_ns));
    result
        .metrics
        .set("service.record_us", stats::median(&service_record));

    // ---- the functions a rotate and a refresh are made of --------------
    let id = 3_000_000;
    let t_root = Instant::now();
    let root = rec.push("replay.rotate_refresh", None, id, t_root, t_root);
    let (next_graph, s) = rec.time("service.snapshot.apply_changes", Some(root), id, || {
        apply_changes(&snap.graph, &writes)
    });
    result
        .metrics
        .set("service.snapshot.apply_changes_s", span_us(rec, s) / 1e6);
    let (authority, s) = rec.time("core.authority.build", Some(root), id, || {
        AuthorityIndex::build(&next_graph)
    });
    result
        .metrics
        .set("core.authority.build_s", span_us(rec, s) / 1e6);
    result.metrics.set(
        "core.authority.bytes_per_node",
        authority.size_bytes() as f64 / next_graph.num_nodes().max(1) as f64,
    );
    let sim = SimMatrix::opencalais();
    let (sim_rows, s) = rec.time("core.simrows.build", Some(root), id, || {
        SimRowCache::build(&next_graph, &sim)
    });
    result
        .metrics
        .set("core.simrows.build_s", span_us(rec, s) / 1e6);
    let next_prop = Propagator::with_sim_cache(
        &next_graph,
        &authority,
        Arc::new(sim_rows),
        snap.params,
        snap.variant,
    );
    let relaxed_before = fui_obs::counter("propagate.edges_relaxed").get();
    let (mut index, s) = rec.time("landmarks.index.build", Some(root), id, || {
        LandmarkIndex::build_auto(&next_prop, snap.index.landmarks().to_vec(), STORED_TOP_N)
    });
    let build_s = span_us(rec, s) / 1e6;
    let relaxed = fui_obs::counter("propagate.edges_relaxed").get() - relaxed_before;
    result.metrics.set("landmarks.index.build_s", build_s);
    result.metrics.set(
        "core.propagate.edges_per_s",
        relaxed as f64 / build_s.max(1e-9),
    );
    result.metrics.set(
        "landmarks.index.resident_mb",
        index.resident_bytes() as f64 / 1e6,
    );
    // Landmarks differ several-hundredfold in refresh cost (a hub that
    // follows no one reaches nothing), so slots are spread over the
    // index and the mean is reported.
    let mut slot_ms = Vec::new();
    for slot in (0..index.len()).step_by((index.len() / 8).max(1)) {
        let (_, s) = rec.time("landmarks.index.refresh_with", Some(root), id, || {
            index.refresh_with(&next_prop, &mut ws, slot)
        });
        slot_ms.push(span_us(rec, s) / 1e3);
    }
    result
        .metrics
        .set("landmarks.index.refresh_slot_ms", mean(&slot_ms));
    let (_, s) = rec.time("graph.partition", Some(root), id, || {
        std::hint::black_box(Partition::build(&next_graph, 4, PartitionStrategy::Hash))
    });
    result
        .metrics
        .set("graph.partition_s", span_us(rec, s) / 1e6);
    rec.close(root, Instant::now());
    replay
}

/// The durable layer's functions, timed on the live snapshot of `svc`:
/// encode, atomic write, decode, and the journal append path through a
/// durable twin service restored from the file just written.
pub fn replay_durable(
    result: &mut RunResult,
    rec: &mut Recorder,
    snap: &Snapshot,
    dir: &std::path::Path,
) {
    let id = 4_000_000;
    let t_root = Instant::now();
    let root = rec.push("replay.durable", None, id, t_root, t_root);
    let (auth, followers_on, maxima) = snap.authority.to_parts();
    let state = SnapshotState {
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
        auth: auth.to_vec(),
        followers_on: followers_on.to_vec(),
        max_followers_on: *maxima,
        index: (*snap.index).clone(),
    };
    let (bytes, s) = rec.time("service.durable.encode_snapshot", Some(root), id, || {
        durable::encode_snapshot(&state)
    });
    result
        .metrics
        .set("service.durable.encode_snapshot_s", span_us(rec, s) / 1e6);
    result
        .metrics
        .set("service.durable.snapshot_mb", bytes.len() as f64 / 1e6);
    std::fs::create_dir_all(dir).expect("create the durable scratch directory");
    // The write half of `write_snapshot_atomic` on the bytes already
    // encoded: create, write, sync. (The function itself encodes once
    // more before it writes, so its own span holds both halves.)
    let (wrote, s) = rec.time("service.durable.write_and_sync", Some(root), id, || {
        use std::io::Write;
        let mut f = std::fs::File::create(dir.join("write-probe.fuisnap"))?;
        f.write_all(&bytes)?;
        f.sync_all()
    });
    wrote.expect("write the probe snapshot");
    result
        .metrics
        .set("service.durable.write_snapshot_s", span_us(rec, s) / 1e6);
    let _ = std::fs::remove_file(dir.join("write-probe.fuisnap"));
    let (written, _) = rec.time(
        "service.durable.write_snapshot_atomic",
        Some(root),
        id,
        || durable::write_snapshot_atomic(dir, &state),
    );
    written.expect("write the snapshot");
    let (decoded, s) = rec.time("service.durable.decode_snapshot", Some(root), id, || {
        durable::decode_snapshot(bytes)
    });
    result.check(decoded.is_ok(), || {
        "encoded snapshot did not decode".to_owned()
    });
    result
        .metrics
        .set("service.durable.decode_snapshot_s", span_us(rec, s) / 1e6);
    drop(decoded);
    drop(state);

    let labels = TopicSet::single(Topic::Technology);
    let n = snap.graph.num_nodes() as u32;
    let changes: Vec<EdgeChange> = (0..64u32)
        .map(|i| {
            let a = (i * 7919 + 11) % n;
            EdgeChange::insert(NodeId(a), NodeId((a + 1 + i) % n), labels)
        })
        .collect();
    let frames: Vec<Vec<u8>> = changes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (frame, _) = rec.time("service.durable.encode_record", Some(root), id, || {
                durable::encode_record(i as u64 + 1, &JournalOp::Change(*c))
            });
            frame
        })
        .collect();
    result.metrics.set(
        "service.durable.journal_bytes_per_change",
        frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64,
    );
    // The append itself is a write and a flush of one frame, as the
    // service's journal sink does it.
    let mut wal =
        std::fs::File::create(dir.join("append-probe.fuiwal")).expect("create the probe journal");
    let mut append_us = Vec::new();
    for frame in &frames {
        let (_, s) = rec.time("service.durable.journal_append", Some(root), id, || {
            use std::io::Write;
            wal.write_all(frame).and_then(|()| wal.flush())
        });
        append_us.push(span_us(rec, s));
    }
    result.metrics.set(
        "service.durable.journal_append_us",
        stats::median(&append_us),
    );
    let _ = std::fs::remove_file(dir.join("append-probe.fuiwal"));
    rec.close(root, Instant::now());
}

/// Duration of span `id`, microseconds.
fn span_us(rec: &Recorder, id: u32) -> f64 {
    let s = &rec.spans()[id as usize];
    (s.end_ns - s.start_ns) as f64 / 1e3
}

/// Where run outputs go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Reads `"<name>": {"value": <number>` out of a result file.
pub fn read_metric(text: &str, name: &str) -> Option<f64> {
    let at = text.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &text[at..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Sets `obs.trace_overhead_frac` from the untraced result of the same
/// workload and seed, if one is on disk, and writes the trace file.
pub fn write_trace(result: &mut RunResult, rec: &Recorder, workload: &str, args: &Args) {
    let dir = out_dir();
    let plain = std::fs::read_to_string(dir.join(format!("{workload}.json"))).unwrap_or_default();
    let same_run = plain.contains(&format!("\"seed\": {},", args.seed))
        && plain.contains(&format!("\"seconds\": {},", args.seconds))
        && plain.contains("\"traced\": false");
    match (
        same_run,
        read_metric(&plain, "query_p50_ms"),
        result.metrics.get("query_p50_ms"),
    ) {
        (true, Some(plain_p50), Some(traced_p50)) if plain_p50 > 0.0 => {
            result
                .metrics
                .set("obs.trace_overhead_frac", traced_p50 / plain_p50 - 1.0);
        }
        _ => result.note(
            "obs.trace_overhead_frac",
            "unset: run the untraced workload with the same seed first",
        ),
    }
    for (name, calls, self_ns) in rec.self_times() {
        result.accounting.push((
            format!("self_time {name} ({calls} calls)"),
            self_ns as f64 / 1e6,
            "ms".to_owned(),
        ));
    }
    let path = dir.join(format!("{workload}.trace.json"));
    let json = rec.to_json(workload, args.seed, &result.accounting);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => result.note("trace_file", path.display()),
        Err(e) => result.fail(format!("could not write {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_metric_finds_values_in_a_result_file() {
        let text = "{\"end_to_end\": {\"setup_s\": {\"value\": 3.5, \"unit\": \"s\"}, \
                    \"query_p50_ms\": {\"value\": 1.0625, \"unit\": \"ms\"}}}";
        assert_eq!(read_metric(text, "query_p50_ms"), Some(1.0625));
        assert_eq!(read_metric(text, "setup_s"), Some(3.5));
        assert_eq!(read_metric(text, "missing"), None);
    }
}
