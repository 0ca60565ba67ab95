//! The three HTTP workloads: `steady_cold`, `steady_hot` and
//! `churn_mixed`.
//!
//! Each builds the 1M-node service, fronts it with the event-loop HTTP
//! server in this process, drives it open loop (warm-up, then the
//! measured window), measures closed-loop capacity (traced runs), and
//! checks the answers against the in-process service.
//!
//! `churn_mixed` runs its refresh and its rotate between stretches of
//! the open loop, on a server that has answered everything before:
//! both stop the event loop for seconds, and at the full read rate the
//! backlog that builds up meanwhile outlives the request deadline on a
//! slow host, so requests would fail. While a control operation runs,
//! heartbeat queries at a trickle show how long queries go unanswered.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fui_graph::NodeId;
use fui_load::{build_schedule, Op, Phase, WorkloadSpec};
use fui_net::HttpServer;
use fui_service::{render_reply, Reply, Request, Service};
use fui_taxonomy::Topic;

use crate::fixture::{self, Scale, WritePlanner, REFRESH_SLOTS};
use crate::loadgen::{self, OpKind, PlannedOp, Record};
use crate::proc_stat;
use crate::report::RunResult;
use crate::stats::{self, Outcome};
use crate::trace::{Recorder, SamplerRow};
use crate::Args;

/// A due query answered later than this misses the SLO.
pub const SLO_LIMIT_MS: f64 = 250.0;

/// Requests each connection keeps in flight in the capacity leg.
const CAPACITY_DEPTH: usize = 32;

/// Request spans written to the trace file at most (evenly thinned
/// beyond that, so a 100k-request window stays a readable file).
const TRACE_REQUEST_CAP: usize = 20_000;

/// What distinguishes one HTTP workload from another.
#[derive(Clone, Copy, Debug)]
pub struct HttpWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Open-loop arrival rate, requests/second.
    pub rate: f64,
    /// Measured window as a multiple of `--seconds`.
    pub window_factor: f64,
    /// Accounts queries draw from (`None` = every account).
    pub users: Option<u32>,
    /// Zipf skew of the account draw (0 = uniform).
    pub zipf_s: f64,
    /// Topics queries draw from.
    pub topics: usize,
    /// Share of arrivals that are follow/unfollow writes.
    pub change_frac: f64,
    /// `POST /refresh` at this fraction of the window (0 = never).
    pub refresh_at: f64,
    /// `POST /rotate` at this fraction of the window (0 = never).
    pub rotate_at: f64,
    /// Result-cache entries.
    pub cache_capacity: usize,
    /// Answer every distinct key in-process during set-up, so the
    /// measured window is all cache hits.
    pub prewarm: bool,
}

/// `steady_cold`: uniform accounts, working set far beyond the cache.
pub const STEADY_COLD: HttpWorkload = HttpWorkload {
    name: "steady_cold",
    rate: 400.0,
    window_factor: 1.0,
    users: None,
    zipf_s: 0.0,
    topics: 8,
    change_frac: 0.0,
    refresh_at: 0.0,
    rotate_at: 0.0,
    cache_capacity: 4096,
    prewarm: false,
};

/// `steady_hot`: a working set that fits the cache, pre-warmed.
pub const STEADY_HOT: HttpWorkload = HttpWorkload {
    name: "steady_hot",
    rate: 2_000.0,
    window_factor: 1.0,
    users: Some(512),
    zipf_s: 1.1,
    topics: 4,
    change_frac: 0.0,
    refresh_at: 0.0,
    rotate_at: 0.0,
    cache_capacity: 65_536,
    prewarm: true,
};

/// `churn_mixed`: skewed reads beside writes, one refresh, one rotate.
pub const CHURN_MIXED: HttpWorkload = HttpWorkload {
    name: "churn_mixed",
    rate: 300.0,
    window_factor: 1.6,
    users: None,
    zipf_s: 0.9,
    topics: 8,
    change_frac: 0.02,
    refresh_at: 0.2,
    rotate_at: 0.6,
    cache_capacity: 4096,
    prewarm: false,
};

/// The open-loop plan: `warm` seconds unmeasured, then `window`
/// seconds measured. Writes are routed through the planner; control
/// operations are placed by the harness at fixed window fractions.
fn open_loop_plan(
    w: &HttpWorkload,
    seed: u64,
    nodes: u32,
    warm: f64,
    window: f64,
    planner: Option<&WritePlanner>,
) -> Vec<PlannedOp> {
    let spec = WorkloadSpec {
        seed,
        phases: vec![
            Phase {
                name: "warmup",
                secs: warm,
                rate_start: w.rate,
                rate_end: w.rate,
                overload: false,
            },
            Phase {
                name: "window",
                secs: window,
                rate_start: w.rate,
                rate_end: w.rate,
                overload: false,
            },
        ],
        users: w.users.unwrap_or(nodes).min(nodes),
        zipf_s: w.zipf_s,
        topics: w.topics,
        top_n: 10,
        change_frac: w.change_frac,
        rotate_every_s: 0.0,
        refresh_every_s: 0.0,
    };
    let schedule = build_schedule(&spec);
    let mut plan: Vec<PlannedOp> = schedule
        .arrivals
        .into_iter()
        .map(|a| PlannedOp {
            at_ns: a.at_ns,
            measured: a.phase == 1,
            op: a.op,
        })
        .collect();

    if let Some(planner) = planner {
        // Writes keep their instants but land on accounts no landmark
        // stores (they charge background staleness only).
        for p in plan.iter_mut() {
            if let Op::Follow {
                follower, followee, ..
            }
            | Op::Unfollow { follower, followee } = &mut p.op
            {
                (*follower, *followee) = planner.inert_pair(*follower, *followee);
            }
        }
        // The first arrivals of the measured window become the trigger
        // follows that leave exactly REFRESH_SLOTS slots stale, so they
        // are certainly recorded before the refresh is due.
        let (triggers, _) = planner.triggers(REFRESH_SLOTS);
        for (p, t) in plan.iter_mut().filter(|p| p.measured).zip(triggers) {
            p.op = Op::Follow {
                follower: t.follower.0,
                followee: t.followee.0,
                topics: Topic::Technology.name().to_owned(),
            };
        }
        // One refresh and one rotate replace the arrivals nearest
        // their instants, so the arrival count is unchanged.
        for (frac, op) in [(w.refresh_at, Op::Refresh), (w.rotate_at, Op::Rotate)] {
            if frac <= 0.0 {
                continue;
            }
            let at = ((warm + frac * window) * 1e9) as u64;
            let i = plan.partition_point(|p| p.at_ns < at).min(plan.len() - 1);
            plan[i].op = op;
        }
    }
    plan
}

/// Seed offset of the capacity leg's queries.
const CAPACITY_STREAM: u64 = 0xCA9A_C17F;

/// Seed offset of the heartbeat queries.
const HEARTBEAT_STREAM: u64 = 0x4EA2_7BEA;

/// Heartbeat queries on hand per run: a minute of control operations.
const HEARTBEATS: usize = 600;

/// `count` query operations drawn like the open-loop ones, from the
/// stream of the seed that `stream` names (the capacity leg and the
/// heartbeats each have their own).
fn query_ops(w: &HttpWorkload, seed: u64, stream: u64, nodes: u32, count: usize) -> Vec<Op> {
    let spec = WorkloadSpec {
        seed: seed ^ stream,
        phases: vec![Phase {
            name: "queries",
            secs: 1.0,
            rate_start: count as f64,
            rate_end: count as f64,
            overload: false,
        }],
        users: w.users.unwrap_or(nodes).min(nodes),
        zipf_s: w.zipf_s,
        topics: w.topics,
        top_n: 10,
        change_frac: 0.0,
        rotate_every_s: 0.0,
        refresh_every_s: 0.0,
    };
    build_schedule(&spec)
        .arrivals
        .into_iter()
        .map(|a| a.op)
        .collect()
}

/// A stretch of the open-loop plan that runs without a pause, and the
/// control operation that follows it once everything is answered.
struct Stretch {
    /// Planned offset of the stretch's start; its operations' offsets
    /// count from here.
    origin_ns: u64,
    ops: Vec<PlannedOp>,
    then: Option<Op>,
}

/// Cuts `plan` at its control operations. A plan without any is one
/// stretch.
fn stretches(plan: &[PlannedOp]) -> Vec<Stretch> {
    let mut out = vec![Stretch {
        origin_ns: 0,
        ops: Vec::new(),
        then: None,
    }];
    for p in plan {
        let last = out.last_mut().expect("never empty");
        if matches!(OpKind::of(&p.op), OpKind::Rotate | OpKind::Refresh) {
            last.then = Some(p.op.clone());
            out.push(Stretch {
                origin_ns: p.at_ns,
                ops: Vec::new(),
                then: None,
            });
        } else {
            last.ops.push(PlannedOp {
                at_ns: p.at_ns - last.origin_ns,
                ..p.clone()
            });
        }
    }
    out
}

/// Registry readings and CPU time at one instant.
struct Mark {
    obs: fui_obs::Snapshot,
    cpu: (f64, f64),
}

impl Mark {
    fn now() -> Mark {
        Mark {
            obs: fui_obs::snapshot(),
            cpu: proc_stat::cpu_seconds(),
        }
    }
}

fn delta(a: &Mark, b: &Mark, name: &str) -> f64 {
    b.obs.counter(name).saturating_sub(a.obs.counter(name)) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one HTTP workload end to end.
pub fn run(w: &HttpWorkload, args: &Args, scale: Scale, process_start: Instant) -> RunResult {
    let mut result = RunResult::default();
    let seconds = args.seconds as f64;
    let warm = if scale.smoke { 0.5 } else { 1.5 };
    let window = seconds * w.window_factor;
    let conns = loadgen::generator_connections();

    // ---- set-up, repeated so setup_s is a median ------------------
    let mut rep_times: Vec<f64> = Vec::new();
    let mut datagen_s = 0.0;
    let mut kept: Option<Service> = None;
    for rep in 0..args.setup_reps {
        drop(kept.take());
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let tg = Instant::now();
        let graph = fixture::stream_graph(scale, args.seed);
        datagen_s = tg.elapsed().as_secs_f64();
        let svc = fixture::build_service(graph, fixture::http_service_config(w.cache_capacity));
        rep_times.push(t0.elapsed().as_secs_f64());
        kept = Some(svc);
    }
    let tail_start = Instant::now();
    let svc = Arc::new(kept.expect("at least one set-up repetition"));
    let snap = svc.snapshot();
    let nodes = snap.graph.num_nodes() as u32;
    let footprint = snap.graph.memory_footprint();

    let planner = (w.change_frac > 0.0).then(|| WritePlanner::new(&snap.index, nodes as usize));
    let plan = open_loop_plan(w, args.seed, nodes, warm, window, planner.as_ref());
    let capacity_s = (seconds * 0.3).max(1.0);
    let capacity_warm = if scale.smoke { 0.3 } else { 1.0 };
    let capacity_count = if w.prewarm { 400_000 } else { 40_000 };
    let cap_ops = query_ops(w, args.seed, CAPACITY_STREAM, nodes, capacity_count);
    let heartbeat_ops = query_ops(w, args.seed, HEARTBEAT_STREAM, nodes, HEARTBEATS);
    let probes = fixture::probe_requests(&snap.graph);

    if w.prewarm {
        // Every distinct key either leg will ask for, answered once
        // in-process so the measured traffic is all cache hits.
        let keys: BTreeSet<(u32, usize, usize)> = plan
            .iter()
            .map(|p| &p.op)
            .chain(cap_ops.iter())
            .filter_map(loadgen::request_of)
            .map(|r| (r.user.0, r.topic.index(), r.top_n))
            .collect();
        let reqs: Vec<Request> = keys
            .iter()
            .map(|&(u, t, n)| Request {
                user: NodeId(u),
                topic: Topic::ALL[t],
                top_n: n,
            })
            .collect();
        let replies = svc.call_many(&reqs);
        result.check(
            replies.iter().all(|r| matches!(r, Reply::Result(_))),
            || "pre-warm left keys unanswered".to_owned(),
        );
        result.note("prewarmed_keys", reqs.len());
    }

    let server = HttpServer::start(Arc::clone(&svc), "127.0.0.1:0", fixture::http_config())
        .expect("start the HTTP front");
    let addr = server.local_addr();
    let setup_tail_s = tail_start.elapsed().as_secs_f64();
    let setup_s = stats::median(&rep_times) + setup_tail_s;

    // ---- open loop: warm-up, then the measured window -------------
    let run_clock = Instant::now();
    let start = run_clock + Duration::from_millis(50);
    let finished = AtomicBool::new(false);
    let (records, before, after, sampler_rows) = std::thread::scope(|scope| {
        // The helper reads the registry when the warm-up ends (and,
        // traced, samples queue depth every 10 ms from then on).
        let svc_ref = &svc;
        let finished = &finished;
        let traced = args.trace;
        let helper = scope.spawn(move || {
            let from = start + Duration::from_secs_f64(warm);
            std::thread::sleep(from.saturating_duration_since(Instant::now()));
            let before = Mark::now();
            let mut rows: Vec<(Instant, u32, u64)> = Vec::new();
            while !finished.load(Ordering::Relaxed) {
                if traced {
                    rows.push((
                        Instant::now(),
                        svc_ref.queue_depth() as u32,
                        proc_stat::rss_kb(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(if traced { 10 } else { 50 }));
            }
            (before, rows)
        });
        // Stretch by stretch; each control operation runs once its
        // stretch is fully answered, and the next stretch starts when
        // the control operation and its heartbeats are.
        let mut records: Vec<Record> = Vec::new();
        let mut beats_used = 0;
        let mut stretch_start = start;
        for stretch in stretches(&plan) {
            let mut got = loadgen::run_open_loop(
                addr,
                &stretch.ops,
                conns,
                stretch_start,
                Duration::from_secs(15),
            );
            for r in &mut got {
                r.at_ns += stretch.origin_ns;
            }
            records.append(&mut got);
            if let Some(op) = &stretch.then {
                let (control, mut beats) =
                    loadgen::run_control(addr, op, &heartbeat_ops[beats_used..]);
                beats_used += beats.len();
                records.push(control);
                records.append(&mut beats);
                stretch_start = Instant::now() + Duration::from_millis(50);
            }
        }
        let after = Mark::now();
        finished.store(true, Ordering::Relaxed);
        let (before, rows) = helper.join().expect("window helper");
        (records, before, after, rows)
    });
    let run_end = Instant::now();

    // ---- reductions over the measured window ----------------------
    let measured: Vec<&Record> = records.iter().filter(|r| r.measured).collect();
    // Every planned operation is answered, shed or rejected, or it is
    // lost; the workloads send only valid requests, so none is rejected.
    let lost = records.iter().filter(|r| r.done.is_none()).count();
    let rejected = records
        .iter()
        .filter(|r| r.done.is_some() && !matches!(r.status, 200 | 429 | 503))
        .count();
    result.check(lost == 0, || format!("{lost} requests lost"));
    result.check(rejected == 0, || {
        format!("{rejected} valid requests were rejected")
    });
    let planned = records
        .iter()
        .filter(|r| r.kind != OpKind::Heartbeat)
        .count();
    result.check(planned == plan.len(), || {
        "generator did not send the whole plan".to_owned()
    });
    let bad_bodies = records
        .iter()
        .filter(|r| r.done.is_some() && !r.body_ok)
        .count();
    result.check(bad_bodies == 0, || {
        format!("{bad_bodies} response bodies did not parse")
    });

    let queries: Vec<&&Record> = measured
        .iter()
        .filter(|r| r.kind == OpKind::Query)
        .collect();
    let latency_ms = |r: &Record| ms(r.done.expect("answered").saturating_duration_since(r.due));
    // The tail percentile's sub-windows are cut on the planned
    // timeline, which has no room for the control operations' stalls.
    let warm_ns = (warm * 1e9) as u64;
    let tail_samples: Vec<(f64, f64)> = queries
        .iter()
        .filter(|r| r.status == 200)
        .map(|r| (r.at_ns.saturating_sub(warm_ns) as f64 / 1e9, latency_ms(r)))
        .collect();
    let ok_latencies: Vec<f64> = queries
        .iter()
        .filter(|r| r.status == 200)
        .map(|r| latency_ms(r))
        .collect();
    // Heartbeats are due queries like any other: the ones a control
    // operation kept waiting miss the limit.
    let outcomes: Vec<Outcome> = measured
        .iter()
        .filter(|r| matches!(r.kind, OpKind::Query | OpKind::Heartbeat))
        .map(|r| {
            if r.status == 200 {
                Outcome::Ok(latency_ms(r))
            } else {
                Outcome::Missed
            }
        })
        .collect();
    let lags: Vec<f64> = measured
        .iter()
        .map(|r| ms(r.sent.saturating_duration_since(r.due)))
        .collect();
    let of_kind = |kind: OpKind| -> Vec<f64> {
        measured
            .iter()
            .filter(|r| r.kind == kind && r.status == 200)
            .map(|r| latency_ms(r))
            .collect()
    };
    let clock = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let stall_spans: Vec<(f64, f64)> = measured
        .iter()
        .filter(|r| matches!(r.kind, OpKind::Query | OpKind::Heartbeat))
        .map(|r| (clock(r.sent), clock(r.done.unwrap_or(run_end))))
        .collect();

    let m = &mut result.metrics;
    m.set("setup_s", setup_s);
    m.set("query_p50_ms", stats::median(&ok_latencies));
    m.set(
        "query_p99_ms",
        stats::window_median_p99(&tail_samples, window),
    );
    m.set("slo_ok_frac", stats::slo_ok_frac(&outcomes, SLO_LIMIT_MS));
    m.set(
        "load.query_p99_ms",
        stats::percentile_of(&ok_latencies, 0.99),
    );
    m.set("load.send_lag_p99_ms", stats::percentile_of(&lags, 0.99));
    m.set("load.sent", records.len() as f64);
    m.set("load.lost", lost as f64);
    m.set("write_ack_p50_ms", stats::median(&of_kind(OpKind::Write)));
    m.set("rotate_s", stats::median(&of_kind(OpKind::Rotate)) / 1e3);
    m.set("refresh_s", stats::median(&of_kind(OpKind::Refresh)) / 1e3);
    m.set("stall_max_ms", stats::stall_max(&stall_spans) * 1e3);
    m.set("datagen.stream_s", datagen_s);
    m.set("graph.bytes_per_node", footprint.bytes_per_node());
    m.set("graph.bytes_per_edge", footprint.bytes_per_edge());

    // Registry deltas over the measured window.
    let window_queries = queries.len().max(1) as f64;
    let http_requests = delta(&before, &after, "net.http.requests").max(1.0);
    let hits = delta(&before, &after, "service.cache.hits");
    let misses = delta(&before, &after, "service.cache.misses");
    let landmark_queries = misses.max(1.0);
    m.set(
        "net.read_bytes_per_req",
        delta(&before, &after, "net.read_bytes") / http_requests,
    );
    m.set(
        "net.write_bytes_per_req",
        delta(&before, &after, "net.write_bytes") / http_requests,
    );
    m.set(
        "net.parse_errors",
        delta(&before, &after, "net.parse_errors"),
    );
    m.set(
        "service.shed.queue_full",
        delta(&before, &after, "service.shed.queue_full"),
    );
    m.set(
        "service.shed.deadline",
        delta(&before, &after, "service.shed.deadline"),
    );
    m.set("service.cache.hit_ratio", hits / (hits + misses).max(1.0));
    m.set(
        "service.cache.evictions",
        delta(&before, &after, "service.cache.evictions"),
    );
    m.set(
        "core.propagate.edges_relaxed_per_query",
        delta(&before, &after, "propagate.edges_relaxed") / landmark_queries,
    );
    m.set(
        "landmarks.met_per_query",
        delta(&before, &after, "landmark.query.landmarks_met") / landmark_queries,
    );
    m.set(
        "landmarks.composed_pairs_per_query",
        delta(&before, &after, "landmark.composed_pairs") / landmark_queries,
    );
    m.set(
        "exec.tasks_per_query",
        delta(&before, &after, "exec.tasks") / window_queries,
    );
    let kreq = window_queries / 1e3;
    m.set(
        "proc.cpu_user_s_per_kreq",
        (after.cpu.0 - before.cpu.0) / kreq,
    );
    m.set(
        "proc.cpu_sys_s_per_kreq",
        (after.cpu.1 - before.cpu.1) / kreq,
    );
    // Batches are counted by the program only at FUI_OBS=full (the
    // traced run); a workspace is allocated per batch worker.
    let batches = after
        .obs
        .hist("service.batch.size")
        .map_or(0, |h| h.count)
        .saturating_sub(before.obs.hist("service.batch.size").map_or(0, |h| h.count));
    if batches > 0 {
        m.set(
            "core.workspace.allocs_per_batch",
            delta(&before, &after, "propagate.workspace.allocs") / batches as f64,
        );
        m.set(
            "service.batch.size_p50",
            after.obs.hist("service.batch.size").map_or(0, |h| h.p50) as f64,
        );
    }
    // At FUI_OBS=full the program times each batch itself
    // (`service.request` span); the accounting uses that live wall.
    let span = |m: &Mark| {
        m.obs
            .spans
            .iter()
            .find(|s| s.path == "service.request")
            .map_or((0, 0), |s| (s.count, s.total_ns))
    };
    let (c0, t0) = span(&before);
    let (c1, t1) = span(&after);
    if c1 > c0 {
        m.set(
            "live.service_request_ms",
            (t1 - t0) as f64 / (c1 - c0) as f64 / 1e6,
        );
    }
    if !sampler_rows.is_empty() {
        let depths: Vec<f64> = sampler_rows.iter().map(|r| f64::from(r.1)).collect();
        m.set(
            "service.batch.queue_depth_p99",
            stats::percentile_of(&depths, 0.99),
        );
    }
    if w.prewarm {
        result.check(misses == 0.0, || {
            format!("steady_hot window saw {misses} cache misses")
        });
    }

    // ---- closed-loop capacity leg ---------------------------------
    // Traced runs only: saturated throughput of the miss path swings
    // by a fifth with what the host's other tenants do to the memory
    // system, so it is a per-layer reading and no end-to-end metric.
    let cap = if args.trace {
        let cap = loadgen::run_closed_loop(
            addr,
            &cap_ops,
            conns,
            CAPACITY_DEPTH,
            Duration::from_secs_f64(capacity_warm),
            Duration::from_secs_f64(capacity_s),
        );
        result.metrics.set("capacity_rps", cap.rate());
        result.note(
            "capacity_200s",
            format!(
                "{} over {:.2} s (mean {:.0}/s)",
                cap.ok,
                cap.measured_s,
                cap.ok as f64 / cap.measured_s
            ),
        );
        cap
    } else {
        loadgen::ClosedLoop::default()
    };
    result.check(cap.lost == 0, || format!("capacity leg lost {}", cap.lost));
    result.check(cap.bad_bodies == 0, || {
        format!("capacity leg: {} bodies did not parse", cap.bad_bodies)
    });

    // ---- probe set: HTTP answers equal the in-process service ------
    // Asked in-process first so both sides read the same cached entry.
    let _ = svc.call_many(&probes);
    let wire: Vec<Vec<u8>> = probes
        .iter()
        .map(|p| {
            let mut bytes = Vec::new();
            loadgen::render_request(&loadgen::rec_op(p), &mut bytes);
            bytes
        })
        .collect();
    let over_http = loadgen::roundtrips(addr, &wire);
    let in_process = svc.call_many(&probes);
    let mismatches = over_http
        .iter()
        .zip(&in_process)
        .filter(|((status, body, _), reply)| {
            *status != 200 || body.as_slice() != format!("{}\n", render_reply(reply)).as_bytes()
        })
        .count();
    result.check(mismatches == 0, || {
        format!(
            "{mismatches} of {} probes differ between HTTP and in-process",
            probes.len()
        )
    });
    let mut checksum = 0u64;
    if let Err(e) = fixture::fold_scores(&mut checksum, &in_process) {
        result.fail(e);
    }
    result.note("score_checksum", format!("{checksum:016x}"));

    // ---- accounting -------------------------------------------------
    let measured_failed = measured.iter().filter(|r| r.status != 200).count() as u64;
    result.attempted = measured.len() as u64 + cap.ok + cap.not_ok + cap.lost + probes.len() as u64;
    result.failed = measured_failed + cap.not_ok + cap.lost + mismatches as u64;
    result
        .metrics
        .set("load.ops_attempted", result.attempted as f64);
    result.metrics.set("load.ops_failed", result.failed as f64);
    result.note("window_queries", queries.len());
    result.note("window_query_200s", ok_latencies.len());
    result.note("window_writes", of_kind(OpKind::Write).len());
    result.note(
        "heartbeats",
        measured
            .iter()
            .filter(|r| r.kind == OpKind::Heartbeat)
            .count(),
    );
    result.note(
        "window_shed",
        measured
            .iter()
            .filter(|r| r.status == 429 || r.status == 503)
            .count(),
    );
    result.note(
        "setup_reps_s",
        format!("{rep_times:?} + tail {setup_tail_s:.3}"),
    );
    result.note("generator_connections", conns);
    result.note(
        "window_p99s_ms",
        format!("{:.1?}", stats::window_p99s(&tail_samples, window)),
    );
    result.note(
        "send_lag_p50_p99_max_ms",
        format!(
            "{:.3} {:.3} {:.3}",
            stats::median(&lags),
            stats::percentile_of(&lags, 0.99),
            stats::percentile_of(&lags, 1.0)
        ),
    );
    if result.metrics.get("load.send_lag_p99_ms").unwrap_or(0.0) > 2.0 {
        result.note(
            "INVALID",
            "send-lag p99 above 2 ms: the generator, not the server, was late",
        );
    }

    // ---- traced run: request spans, sampler rows, layer replay ------
    if args.trace {
        let mut rec = Recorder::starting_at(run_clock);
        let step = (measured.len() / TRACE_REQUEST_CAP).max(1);
        for (id, r) in measured.iter().enumerate().step_by(step) {
            let done = r.done.unwrap_or(run_end);
            let root = rec.push("request", None, id as u64, r.due, done);
            rec.push("load.send_lag", Some(root), id as u64, r.due, r.sent);
            rec.push("wire_server", Some(root), id as u64, r.sent, done);
        }
        rec.sampler = sampler_rows
            .iter()
            .map(|&(at, queue_depth, rss_kb)| SamplerRow {
                at_ns: rec.ns(at),
                queue_depth,
                rss_kb,
            })
            .collect();
        let replay_ops: Vec<Op> = plan
            .iter()
            .filter(|p| p.measured)
            .map(|p| p.op.clone())
            .collect();
        crate::layers::net_round_trips(&mut result, addr, &probes[0]);
        // The front goes away first: its pump thread would race the
        // replay's own submit+pump calls.
        server.shutdown();
        let replay = crate::layers::replay_service(&mut result, &mut rec, &svc, &replay_ops);
        crate::layers::account_http(&mut result, &replay);
        crate::layers::write_trace(&mut result, &rec, w.name, args);
    } else {
        server.shutdown();
    }
    result.metrics.set("rss_peak_mb", proc_stat::rss_peak_mb());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(plan: &[PlannedOp]) -> Vec<(u64, bool, Op)> {
        plan.iter()
            .map(|p| (p.at_ns, p.measured, p.op.clone()))
            .collect()
    }

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let a = open_loop_plan(&STEADY_COLD, 7, 20_000, 0.5, 2.0, None);
        let b = open_loop_plan(&STEADY_COLD, 7, 20_000, 0.5, 2.0, None);
        let c = open_loop_plan(&STEADY_COLD, 8, 20_000, 0.5, 2.0, None);
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        // round(400 * 0.5) warm-up arrivals, round(400 * 2.0) measured.
        assert_eq!(a.iter().filter(|p| !p.measured).count(), 200);
        assert_eq!(a.iter().filter(|p| p.measured).count(), 800);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.iter().all(|p| OpKind::of(&p.op) == OpKind::Query));
        assert_eq!(
            query_ops(&STEADY_HOT, 7, CAPACITY_STREAM, 20_000, 500),
            query_ops(&STEADY_HOT, 7, CAPACITY_STREAM, 20_000, 500)
        );
    }

    #[test]
    fn churn_plan_has_one_refresh_one_rotate_and_planned_writes() {
        let graph = fixture::stream_graph(Scale::smoke(), 11);
        let svc = fixture::build_service(graph, fixture::http_service_config(256));
        let snap = svc.snapshot();
        let nodes = snap.graph.num_nodes();
        let planner = WritePlanner::new(&snap.index, nodes);
        let plan = open_loop_plan(&CHURN_MIXED, 11, nodes as u32, 0.5, 20.0, Some(&planner));
        let count = |kind: OpKind| {
            plan.iter()
                .filter(|p| p.measured && OpKind::of(&p.op) == kind)
                .count()
        };
        assert_eq!((count(OpKind::Refresh), count(OpKind::Rotate)), (1, 1));
        assert!(count(OpKind::Write) > 10);
        // Cut at the two control operations: three stretches that hold
        // every other operation, each counting from its own start.
        let cut = stretches(&plan);
        assert_eq!(cut.len(), 3);
        assert_eq!(cut[0].then, Some(Op::Refresh));
        assert_eq!(cut[1].then, Some(Op::Rotate));
        assert_eq!(cut[2].then, None);
        assert_eq!(
            cut.iter().map(|s| s.ops.len()).sum::<usize>(),
            plan.len() - 2
        );
        assert_eq!(cut[0].origin_ns, 0);
        for s in &cut[1..] {
            assert!(s.ops[0].at_ns < 1_000_000_000, "rebased to the stretch");
            assert!(s.ops.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        }
        assert_eq!(
            stretches(&open_loop_plan(&STEADY_COLD, 7, 20_000, 0.5, 2.0, None)).len(),
            1
        );
        let refresh_at = plan.iter().position(|p| p.op == Op::Refresh).unwrap();
        let rotate_at = plan.iter().position(|p| p.op == Op::Rotate).unwrap();
        assert!(refresh_at < rotate_at);
        // The trigger follows open the measured window, well before
        // the refresh; every other write touches inert accounts only.
        let (triggers, _) = planner.triggers(REFRESH_SLOTS);
        let first_measured = plan.iter().position(|p| p.measured).unwrap();
        assert!(first_measured + triggers.len() < refresh_at);
        for (p, t) in plan[first_measured..].iter().zip(&triggers) {
            assert!(matches!(&p.op, Op::Follow { follower, .. } if *follower == t.follower.0));
        }
        for p in &plan[first_measured + triggers.len()..] {
            if let Op::Follow {
                follower, followee, ..
            }
            | Op::Unfollow { follower, followee } = &p.op
            {
                assert_eq!(
                    planner.inert_pair(*follower, *followee),
                    (*follower, *followee)
                );
            }
        }
    }
}
