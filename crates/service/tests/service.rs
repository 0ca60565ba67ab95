//! End-to-end tests of the serving layer: cache correctness across
//! rotation/refresh, admission control, the submit/pump path, the
//! wire verb layer, and request tracing / SLO introspection.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::{GraphBuilder, NodeId, PartitionStrategy, SocialGraph};
use fui_landmarks::EdgeChange;
use fui_service::wire::{self, Command, Executed};
use fui_service::{Reply, Request, Service, ServiceConfig, ShardSpec, ShardedService};
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

fn served(reply: Reply) -> fui_service::Served {
    match reply {
        Reply::Result(s) => s,
        other => panic!("expected a result, got {other:?}"),
    }
}

#[test]
fn repeat_call_hits_the_cache_with_identical_bits() {
    let svc = service(ServiceConfig::default());
    let req = Request {
        user: NodeId(0),
        topic: Topic::Technology,
        top_n: 5,
    };
    let first = served(svc.call(req));
    assert!(!first.cached);
    let second = served(svc.call(req));
    assert!(second.cached, "same request must be served from cache");
    assert_eq!(first.recommendations.len(), second.recommendations.len());
    for (a, b) in first
        .recommendations
        .iter()
        .zip(second.recommendations.iter())
    {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }
}

#[test]
fn rotation_invalidates_and_answers_track_the_new_graph() {
    let svc = service(ServiceConfig::default());
    let req = Request {
        user: NodeId(5),
        topic: Topic::Technology,
        top_n: 5,
    };
    let before = served(svc.call(req));
    // 5 → 7 shortcut changes 5's neighbourhood.
    let tech = TopicSet::single(Topic::Technology);
    svc.record(EdgeChange::insert(NodeId(5), NodeId(7), tech))
        .unwrap();
    let epoch = svc.rotate();
    assert!(epoch > before.epoch);
    let after = served(svc.call(req));
    assert!(!after.cached, "rotation must retire the cached answer");
    assert!(
        after.recommendations.iter().any(|&(v, _)| v == NodeId(7)),
        "answer must see the new edge"
    );
}

#[test]
fn rejected_requests_are_explicit() {
    let svc = service(ServiceConfig::default());
    let bad_user = svc.call(Request {
        user: NodeId(999),
        topic: Topic::Technology,
        top_n: 5,
    });
    assert!(matches!(bad_user, Reply::Rejected(_)));
    let bad_n = svc.call(Request {
        user: NodeId(0),
        topic: Topic::Technology,
        top_n: 0,
    });
    assert!(matches!(bad_n, Reply::Rejected(_)));
}

#[test]
fn record_rejects_out_of_range_and_self_edges() {
    let svc = service(ServiceConfig::default());
    let tech = TopicSet::single(Topic::Technology);
    assert!(svc
        .record(EdgeChange::insert(NodeId(0), NodeId(99), tech))
        .is_err());
    assert!(svc
        .record(EdgeChange::insert(NodeId(3), NodeId(3), tech))
        .is_err());
    assert_eq!(svc.pending_changes(), 0);
}

#[test]
fn full_queue_sheds_and_every_accepted_request_is_answered() {
    let cfg = ServiceConfig {
        queue_capacity: 8,
        max_batch: 4,
        ..ServiceConfig::default()
    };
    let svc = service(cfg);
    let req = |u: u32| Request {
        user: NodeId(u),
        topic: Topic::Technology,
        top_n: 5,
    };
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for i in 0..12u32 {
        match svc.submit(req(i % 10), None) {
            Ok(t) => tickets.push(t),
            Err(Reply::Overloaded) => shed += 1,
            Err(other) => panic!("unexpected submit error {other:?}"),
        }
    }
    assert_eq!(shed, 4, "12 submits against capacity 8");
    assert_eq!(svc.queue_depth(), 8);
    let mut pumped = 0;
    while svc.queue_depth() > 0 {
        pumped += svc.pump();
    }
    assert_eq!(pumped, 8);
    for t in tickets {
        assert!(matches!(t.wait(), Reply::Result(_)));
    }
}

#[test]
fn pump_and_call_agree_bit_for_bit() {
    let svc_pump = service(ServiceConfig::default());
    let svc_call = service(ServiceConfig::default());
    let reqs: Vec<Request> = (0..10u32)
        .map(|u| Request {
            user: NodeId(u),
            topic: Topic::Technology,
            top_n: 7,
        })
        .collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|&r| svc_pump.submit(r, None).expect("queue has room"))
        .collect();
    while svc_pump.pump() > 0 {}
    let direct = svc_call.call_many(&reqs);
    for (t, d) in tickets.into_iter().zip(direct) {
        let (a, b) = (served(t.wait()), served(d));
        assert_eq!(a.recommendations.len(), b.recommendations.len());
        for (x, y) in a.recommendations.iter().zip(b.recommendations.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }
}

#[test]
fn refresh_preserves_entries_that_avoided_the_landmark() {
    let cfg = ServiceConfig {
        // Aggressive staleness so one change flags landmarks.
        refresh_threshold: 1e-6,
        ..ServiceConfig::default()
    };
    let svc = service(cfg);
    // Node 8's depth-2 vicinity {9, 6? no — 8→9 only} avoids both
    // landmarks' slots being refreshed... cache it first.
    let far = Request {
        user: NodeId(8),
        topic: Topic::Technology,
        top_n: 5,
    };
    let first = served(svc.call(far));
    assert!(!first.cached);
    let again = served(svc.call(far));
    assert!(again.cached);
    let tech = TopicSet::single(Topic::Technology);
    // Change inside the dense cluster: flags landmark 2 (slot 0) —
    // and with the aggressive threshold possibly landmark 6 too, so
    // only assert on behaviour, not slot counts.
    svc.record(EdgeChange::insert(NodeId(0), NodeId(5), tech))
        .unwrap();
    let refreshed = svc.refresh();
    assert!(refreshed >= 1, "staleness must drive a refresh");
    let after = served(svc.call(far));
    // 8's exploration (8→9) meets no landmark at all, so its cached
    // answer must have survived both the staleness flag and the
    // refresh.
    assert!(after.cached, "entry that met no landmark must survive");
}

/// Runs one protocol line through the verb layer the way a frontend
/// does (tokenise, parse, execute, pump and redeem a `REC`) and returns
/// the rendered reply.
fn ask(svc: &ShardedService, line: &str) -> String {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().expect("a verb");
    let command = match Command::parse(verb, tokens) {
        Ok(command) => command,
        Err(reason) => return wire::refusal(reason).1,
    };
    match wire::execute(svc, command, Instant::now() + Duration::from_secs(2)) {
        Executed::Done(_, text) => text,
        Executed::Pending(ticket) => {
            svc.pump();
            wire::render_reply(&ticket.wait())
        }
    }
}

#[test]
fn verbs_parse_execute_and_render() {
    let svc = service(ServiceConfig::default());

    let rec = ask(&svc, "REC 0 technology 3");
    assert!(rec.starts_with("OK REC "), "got {rec:?}");
    let parts: Vec<&str> = rec.split_whitespace().collect();
    assert!(parts.len() > 3, "expected recommendations in {rec:?}");

    // Scores round-trip exactly through the wire format.
    let direct = served(svc.call(Request {
        user: NodeId(0),
        topic: Topic::Technology,
        top_n: 3,
    }));
    for (tok, &(v, s)) in parts[4..].iter().zip(direct.recommendations.iter()) {
        let (node, score) = tok.split_once(':').expect("node:score");
        assert_eq!(node.parse::<u32>().unwrap(), v.0);
        assert_eq!(score.parse::<f64>().unwrap().to_bits(), s.to_bits());
    }

    assert_eq!(ask(&svc, "FOLLOW 5 7 technology"), "OK FOLLOW");
    assert_eq!(ask(&svc, "unfollow 5 7"), "OK UNFOLLOW");
    assert!(ask(&svc, "ROTATE").starts_with("OK ROTATE "));
    assert!(ask(&svc, "REFRESH").starts_with("OK REFRESH "));
    assert!(ask(&svc, "EPOCH").starts_with("OK EPOCH "));
    assert!(ask(&svc, "REC 0 nonsense").starts_with("ERR "));
    assert_eq!(ask(&svc, "BOGUS"), "ERR unknown command \"BOGUS\"");
    assert_eq!(ask(&svc, "REC"), "ERR missing node id");
    assert_eq!(ask(&svc, "REC 0 technology x"), "ERR bad top_n \"x\"");
    assert_eq!(
        ask(&svc, "EPOCH now"),
        "ERR unexpected trailing argument \"now\""
    );
    // Not durable: both persistence verbs refuse rather than panic.
    assert!(ask(&svc, "SNAPSHOT").starts_with("ERR "));
    assert!(ask(&svc, "RESTORE").starts_with("ERR "));
}

/// Serialises the tests below that flip the global obs level / trace
/// sample rate (tests in this binary run in parallel threads).
fn obs_guard() -> MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores level + sample on drop, so a failing assertion can't leak
/// `Full`/sampled state into the other tests.
struct TraceSession;

impl TraceSession {
    fn start(sample: f64) -> TraceSession {
        fui_obs::set_level(fui_obs::Level::Full);
        fui_obs::trace::set_sample(sample);
        fui_obs::trace::clear();
        TraceSession
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        fui_obs::trace::set_sample(0.0);
        fui_obs::set_level(fui_obs::Level::Counters);
    }
}

#[test]
fn trace_slowest_decomposition_sums_exactly() {
    let _g = obs_guard();
    // Both names of the one engine: the one-shard façade and a fleet.
    decomposition_sums_exactly(&service(ServiceConfig::default()));
    decomposition_sums_exactly(&ShardedService::new(
        graph(),
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        vec![NodeId(2), NodeId(6)],
        50,
        ServiceConfig::default(),
        ShardSpec::new(2, PartitionStrategy::Hash),
    ));
}

fn decomposition_sums_exactly(svc: &ShardedService) {
    let _session = TraceSession::start(1.0);
    // Mixed workload through the queue so queue wait is real: two
    // rounds over 8 users (second round hits the cache). top_n 6 is
    // this test's fingerprint — while the obs level is Full, requests
    // from concurrently running tests also land in the global ring.
    let reqs: Vec<Request> = (0..8u32)
        .chain(0..8u32)
        .map(|u| Request {
            user: NodeId(u),
            topic: Topic::Technology,
            top_n: 6,
        })
        .collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|&r| svc.submit(r, None).expect("queue has room"))
        .collect();
    while svc.pump() > 0 {}
    for t in tickets {
        assert!(matches!(t.wait(), Reply::Result(_)));
    }

    let slowest: Vec<_> = svc
        .trace_slowest(usize::MAX)
        .into_iter()
        .filter(|t| t.meta.top_n == 6)
        .take(5)
        .collect();
    assert_eq!(slowest.len(), 5, "16 traced requests on record");
    for pair in slowest.windows(2) {
        assert!(pair[0].total_ns >= pair[1].total_ns, "sorted slowest-first");
    }
    for t in &slowest {
        let sum = t.parts.queue_ns
            + t.parts.assembly_ns
            + t.parts.compute_ns
            + t.parts.cache_ns
            + t.parts.scatter_ns;
        // The acceptance bound is 1 %; the construction makes it exact.
        assert_eq!(sum, t.total_ns, "decomposition must sum to the total");
        assert!(
            matches!(
                t.outcome,
                fui_obs::TraceOutcome::Ok | fui_obs::TraceOutcome::OkCached
            ),
            "all requests were answered, got {:?}",
            t.outcome
        );
        assert!(!t.events.is_empty(), "timeline present");
        let last = t.events.last().unwrap();
        assert_eq!(last.kind, fui_obs::TraceEventKind::Finish);
        assert!(
            t.events
                .iter()
                .any(|e| e.kind == fui_obs::TraceEventKind::Enqueue),
            "queued requests record their admission"
        );
        for pair in t.events.windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns, "timeline is ordered");
        }
    }
}

#[test]
fn sheds_are_attributed_to_their_cause() {
    let _g = obs_guard();
    let _session = TraceSession::start(1.0);
    let cfg = ServiceConfig {
        queue_capacity: 4,
        ..ServiceConfig::default()
    };
    let svc = service(cfg);
    // top_n 37 is this test's fingerprint in the shared trace ring;
    // counter deltas from concurrently running tests make the global
    // aggregates lower bounds only — the ring filter is the exact
    // check, plus `service.shed.disconnect`, which only this test can
    // drive (nothing else drops a service with queued requests).
    let req = Request {
        user: NodeId(0),
        topic: Topic::Technology,
        top_n: 37,
    };
    let queue_full = fui_obs::counter("service.shed.queue_full");
    let disconnect = fui_obs::counter("service.shed.disconnect");
    let aggregate = fui_obs::counter("service.shed");
    let (qf0, dc0, ag0) = (queue_full.get(), disconnect.get(), aggregate.get());

    // Overfill the queue: 6 submits against capacity 4.
    let tickets: Vec<_> = (0..6).filter_map(|_| svc.submit(req, None).ok()).collect();
    assert_eq!(tickets.len(), 4);
    assert!(queue_full.get() - qf0 >= 2, "two queue-full sheds counted");

    // Drop the service with the four accepted requests still queued:
    // every ticket must resolve Overloaded and count as a disconnect.
    drop(svc);
    for t in tickets {
        assert!(matches!(t.wait(), Reply::Overloaded));
    }
    assert_eq!(disconnect.get() - dc0, 4, "four disconnect sheds");
    assert!(aggregate.get() - ag0 >= 6, "aggregate covers both causes");

    // The queue-full sheds surface in the trace ring with their cause.
    let causes: Vec<fui_obs::TraceOutcome> = fui_obs::trace::slowest(usize::MAX)
        .into_iter()
        .filter(|t| t.meta.top_n == 37)
        .map(|t| t.outcome)
        .collect();
    assert_eq!(
        causes
            .iter()
            .filter(|o| **o == fui_obs::TraceOutcome::ShedQueueFull)
            .count(),
        2,
        "queue-full sheds are traced; got {causes:?}"
    );
    // Disconnect sheds are finished by the queue's drop-drain with
    // their own cause — a restart with queued requests leaves a full
    // audit trail, not silence.
    assert_eq!(
        causes
            .iter()
            .filter(|o| **o == fui_obs::TraceOutcome::ShedDisconnect)
            .count(),
        4,
        "disconnect sheds are traced; got {causes:?}"
    );
    assert_eq!(causes.len(), 6);
}

#[test]
fn slo_report_is_consistent_with_the_latency_histogram() {
    let _g = obs_guard();
    let _session = TraceSession::start(0.0);
    let svc = service(ServiceConfig::default());
    let reqs: Vec<Request> = (0..6u32)
        .map(|u| Request {
            user: NodeId(u),
            topic: Topic::Technology,
            top_n: 5,
        })
        .collect();
    for r in svc.call_many(&reqs) {
        assert!(matches!(r, Reply::Result(_)));
    }
    let report = svc.slo();
    assert!(report.sampled >= 6, "six requests recorded since baseline");
    // Burn rate must be exactly the histogram's over-target fraction
    // scaled by the budget — the report is internally consistent...
    let expected = if report.sampled > 0 {
        (report.over_target as f64 / report.sampled as f64) / 0.01
    } else {
        0.0
    };
    assert!((report.latency_burn - expected).abs() < 1e-9);
    assert!((report.latency_budget_remaining - (1.0 - expected)).abs() < 1e-9);
    // ...and consistent with the underlying histogram: the window's
    // over-target count can never exceed the cumulative one.
    let hist = fui_obs::hist("service.request_latency");
    assert!(report.over_target <= hist.count_above(report.latency_target_ns));
    assert!(report.sampled <= hist.count());
    assert!(report.window_secs >= 0.0);
}

#[test]
fn introspection_verbs_render() {
    let _g = obs_guard();
    let _session = TraceSession::start(1.0);
    let svc = service(ServiceConfig::default());

    for u in 0..6 {
        assert!(ask(&svc, &format!("REC {u} technology 4")).starts_with("OK REC "));
    }

    // STATS: header advertises the line count; counters include the
    // service family.
    let stats = ask(&svc, "STATS");
    let mut lines = stats.lines();
    let n: usize = lines
        .next()
        .and_then(|header| header.strip_prefix("OK STATS "))
        .expect("stats header")
        .parse()
        .expect("line count");
    assert!(n > 0);
    let lines: Vec<&str> = lines.collect();
    assert_eq!(lines.len(), n);
    assert!(lines
        .iter()
        .all(|l| { l.starts_with("C ") || l.starts_with("G ") || l.starts_with("H ") }));
    assert!(lines.iter().any(|l| l.starts_with("C service.requests ")));
    assert!(lines
        .iter()
        .any(|l| l.starts_with("H service.request_latency ")));

    // SLO: one line, key=value.
    let slo = ask(&svc, "SLO");
    assert!(slo.starts_with("OK SLO window_secs="), "got {slo:?}");
    assert_eq!(slo.lines().count(), 1);
    assert!(slo.contains(" latency_burn="));
    assert!(slo.contains(" shed_budget_remaining="));

    // TRACE 5: the acceptance criterion over the wire format — five
    // slowest requests, each decomposition summing to within 1 % of
    // its total.
    let trace = ask(&svc, "TRACE 5");
    let mut lines = trace.lines();
    let k: usize = lines
        .next()
        .and_then(|header| header.strip_prefix("OK TRACE "))
        .expect("trace header")
        .parse()
        .expect("trace count");
    assert_eq!(k, 5, "six traced requests on record, asked for five");
    for _ in 0..k {
        let req_line = lines.next().expect("a REQ line per request");
        assert!(req_line.starts_with("REQ id="), "got {req_line:?}");
        let field = |name: &str| -> u64 {
            req_line
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
                .unwrap_or_else(|| panic!("missing {name} in {req_line:?}"))
                .parse()
                .expect("numeric field")
        };
        let total = field("total_ns");
        let sum = field("queue_ns")
            + field("assembly_ns")
            + field("compute_ns")
            + field("cache_ns")
            + field("scatter_ns");
        let tolerance = (total / 100).max(1);
        assert!(
            sum.abs_diff(total) <= tolerance,
            "parts {sum} vs total {total} beyond 1 %"
        );
        for _ in 0..field("events") {
            assert!(lines
                .next()
                .expect("an EV line per event")
                .starts_with("EV "));
        }
    }
    assert_eq!(lines.next(), None, "nothing after the advertised blocks");

    // SHARDS on a plain service: the real one-shard row, with the
    // lane and critical-path clocks live.
    let shards = ask(&svc, "SHARDS");
    let (header, row) = shards.split_once('\n').expect("header and one row");
    assert!(
        header.starts_with("OK SHARDS 1 strategy=hash cut_edges=0 crit_ns="),
        "got {header:?}"
    );
    assert!(!header.ends_with("crit_ns=0"), "got {header:?}");
    assert!(row.starts_with("S 0 epoch=0 gen=0 "), "got {row:?}");
    assert!(!row.contains('\n'), "exactly one row: {row:?}");
    assert!(row.contains(" owned=10 "), "got {row:?}");
    assert!(!row.contains(" busy_ns=0 "), "lane time is live: {row:?}");
}
