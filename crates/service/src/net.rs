//! Thin `std::net` line-protocol frontend.
//!
//! One request or reply per `\n`-terminated line, ASCII, no framing
//! beyond that — trivially scriptable with `nc`. Commands:
//!
//! ```text
//! REC <user> <topic> [top_n]          who should <user> follow on <topic>
//! FOLLOW <follower> <followee> <topics>   topics comma-separated
//! UNFOLLOW <follower> <followee>
//! ROTATE                              apply pending changes now
//! REFRESH                             recompute stale landmarks now
//! EPOCH                               current snapshot epoch
//! SNAPSHOT                            persist a durable snapshot now
//! RESTORE                             dry-run a warm restart from disk
//! STATS                               dump every counter/gauge/histogram
//! SLO                                 current burn rates / error budget
//! TRACE <n>                           the n slowest traced requests
//! SHARDS                              per-shard fleet status rows
//! QUIT                                close the connection
//! ```
//!
//! Replies:
//!
//! ```text
//! OK REC <epoch> <cached:0|1> <node>:<score> ...
//! OK FOLLOW | OK UNFOLLOW | OK ROTATE <epoch> | OK REFRESH <n> | OK EPOCH <e>
//! OK SNAPSHOT <seq> <bytes> | OK RESTORE epoch=<e> gen=<g> applied_seq=<s>
//! OVERLOADED                          shed; retry later
//! ERR <reason>
//! ```
//!
//! The introspection verbs answer multi-line (the first line carries
//! the count of lines that follow, so a client knows when to stop
//! reading):
//!
//! ```text
//! OK STATS <n>                        then n lines:
//!   C <name> <value>                  counter
//!   G <name> <value>                  gauge
//!   H <name> count=<c> sum_ns=<s> p50_ns=<..> p95_ns=<..> p99_ns=<..> max_ns=<..>
//! OK SLO window_secs=<..> target_ns=<..> sampled=<..> over_target=<..>
//!        latency_burn=<..> latency_budget_remaining=<..> requests=<..>
//!        shed=<..> shed_burn=<..> shed_budget_remaining=<..>   (one line)
//! OK TRACE <k>                        then, per request, a REQ line:
//!   REQ id=<hex> user=<u> topic=<name> top_n=<n> outcome=<o> total_ns=<t>
//!       queue_ns=<q> assembly_ns=<a> compute_ns=<c> cache_ns=<h>
//!       scatter_ns=<x> events=<m>
//!   followed by its m timeline lines:  EV <at_ns> <kind> <arg>
//! OK SHARDS <n> strategy=<s> cut_edges=<c> crit_ns=<t>   then n rows:
//!   S <id> epoch=<e> gen=<g> queue=<q> pending=<p> busy_ns=<b>
//!     cache=<c> owned=<o> edge_mass=<m> requests=<r> shed=<s>
//!     queue_full=<qf> deadline=<dl> latency_burn=<lb> shed_burn=<sb>
//! ```
//!
//! `TRACE` returns requests only while tracing is active
//! (`FUI_OBS=full` with `FUI_TRACE_SAMPLE` > 0); the queue / assembly
//! / compute / cache / scatter parts of each `REQ` line sum to its
//! `total_ns` exactly (assembly is defined as the remainder; scatter
//! is planning plus cross-shard merge, small but live at one shard).
//!
//! Scores print with Rust's shortest-round-trip `f64` formatting, so a
//! client parsing them back gets the exact served bits.
//!
//! The server fronts the one engine, [`ShardedService`], handed over as
//! itself or as a one-shard [`crate::Service`] (whose `SHARDS` answer
//! is the real single row: `strategy=hash`, live `busy_ns`/`crit_ns`).
//!
//! `REC` goes through the micro-batching queue: the handler submits
//! and blocks on its ticket while a window thread pumps the service
//! every [`NetConfig::window`]; concurrent connections therefore
//! coalesce into shared `recommend_batch` calls. An overloaded queue
//! or a missed deadline answers `OVERLOADED` immediately — a client is
//! never left hanging.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fui_graph::NodeId;
use fui_landmarks::EdgeChange;
use fui_taxonomy::{Topic, TopicSet};

use crate::router::ShardedService;
use crate::service::{Reply, Request};
use crate::shard::FleetStatus;

/// Frontend tuning.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Micro-batch coalescing window (pump cadence when idle).
    pub window: Duration,
    /// Per-request deadline, measured from submission.
    pub deadline: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            window: Duration::from_millis(1),
            deadline: Duration::from_secs(2),
        }
    }
}

/// A running listener + pump pair. Dropping without
/// [`shutdown`](NetServer::shutdown) leaks the threads (they exit
/// with the process); tests should shut down explicitly.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop plus the batch-window pump thread.
    pub fn start<B: AsRef<ShardedService> + Send + Sync + 'static>(
        service: Arc<B>,
        addr: &str,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let accept = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let service = Arc::clone(&service);
                    std::thread::spawn(move || handle(stream, (*service).as_ref(), cfg));
                }
            })
        };
        let pump = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let service = (*service).as_ref();
                while !stop.load(Ordering::SeqCst) {
                    if service.pump() == 0 {
                        std::thread::park_timeout(cfg.window);
                    }
                }
                // Resolve anything still queued so no client hangs.
                while service.pump() > 0 {}
            })
        };
        Ok(NetServer {
            addr: local,
            stop,
            accept: Some(accept),
            pump: Some(pump),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the queue and joins the threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

fn handle(stream: TcpStream, service: &ShardedService, cfg: NetConfig) {
    let Ok(peer_read) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(peer_read);
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.eq_ignore_ascii_case("QUIT") {
            break;
        }
        let response = dispatch(line, service, cfg);
        if writeln!(writer, "{response}").is_err() {
            break;
        }
    }
}

fn dispatch(line: &str, service: &ShardedService, cfg: NetConfig) -> String {
    match run_command(line, service, cfg) {
        Ok(ok) => ok,
        Err(err) => format!("ERR {err}"),
    }
}

fn run_command(line: &str, service: &ShardedService, cfg: NetConfig) -> Result<String, String> {
    let mut parts = line.split_ascii_whitespace();
    let verb = parts.next().unwrap_or("").to_ascii_uppercase();
    if verb == "REC" {
        let user = parse_node(parts.next())?;
        let topic = parse_topic(parts.next())?;
        let top_n = match parts.next() {
            Some(s) => s.parse::<usize>().map_err(|_| format!("bad top_n {s:?}"))?,
            None => 10,
        };
        expect_end(parts)?;
        let req = Request { user, topic, top_n };
        let deadline = Instant::now() + cfg.deadline;
        return match service.submit(req, Some(deadline)) {
            Ok(ticket) => Ok(render_reply(&ticket.wait())),
            Err(_) => Ok("OVERLOADED".to_owned()),
        };
    }
    execute_control(line, service)
}

/// Runs any control verb (everything except `REC` and `QUIT`) and
/// renders its reply line.
///
/// This is the single dispatch path behind both frontends: the line
/// protocol calls it from its per-connection handler and the `fui-net`
/// HTTP frontend calls it from the event loop, so control answers are
/// byte-identical over either transport by construction.
pub fn execute_control(line: &str, service: &ShardedService) -> Result<String, String> {
    let mut parts = line.split_ascii_whitespace();
    let verb = parts.next().unwrap_or("").to_ascii_uppercase();
    match verb.as_str() {
        "FOLLOW" => {
            let follower = parse_node(parts.next())?;
            let followee = parse_node(parts.next())?;
            let labels = parse_topics(parts.next())?;
            expect_end(parts)?;
            service.record(EdgeChange::insert(follower, followee, labels))?;
            Ok("OK FOLLOW".to_owned())
        }
        "UNFOLLOW" => {
            let follower = parse_node(parts.next())?;
            let followee = parse_node(parts.next())?;
            expect_end(parts)?;
            service.record(EdgeChange::remove(follower, followee, TopicSet::empty()))?;
            Ok("OK UNFOLLOW".to_owned())
        }
        "ROTATE" => {
            expect_end(parts)?;
            Ok(format!("OK ROTATE {}", service.rotate()))
        }
        "REFRESH" => {
            expect_end(parts)?;
            Ok(format!("OK REFRESH {}", service.refresh()))
        }
        "EPOCH" => {
            expect_end(parts)?;
            Ok(format!("OK EPOCH {}", service.epoch()))
        }
        "SNAPSHOT" => {
            expect_end(parts)?;
            let (seq, bytes) = service.persist().map_err(|e| e.to_string())?;
            Ok(format!("OK SNAPSHOT {seq} {bytes}"))
        }
        "RESTORE" => {
            expect_end(parts)?;
            let (epoch, gen, applied) = service.restore_probe()?;
            Ok(format!(
                "OK RESTORE epoch={epoch} gen={gen} applied_seq={applied}"
            ))
        }
        "STATS" => {
            expect_end(parts)?;
            Ok(render_stats())
        }
        "SLO" => {
            expect_end(parts)?;
            Ok(render_slo(service.slo()))
        }
        "TRACE" => {
            let n = match parts.next() {
                Some(s) => s.parse::<usize>().map_err(|_| format!("bad count {s:?}"))?,
                None => 5,
            };
            expect_end(parts)?;
            Ok(render_traces(service.trace_slowest(n)))
        }
        "SHARDS" => {
            expect_end(parts)?;
            Ok(render_shards(service.status()))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Text exposition of the whole metrics registry.
fn render_stats() -> String {
    let snap = fui_obs::snapshot();
    let mut lines = Vec::new();
    for (name, v) in &snap.counters {
        lines.push(format!("C {name} {v}"));
    }
    for (name, v) in &snap.gauges {
        lines.push(format!("G {name} {v}"));
    }
    for (name, s) in &snap.hists {
        lines.push(format!(
            "H {name} count={} sum_ns={} p50_ns={} p95_ns={} p99_ns={} max_ns={}",
            s.count, s.sum, s.p50, s.p95, s.p99, s.max
        ));
    }
    let mut out = format!("OK STATS {}", lines.len());
    for line in lines {
        out.push('\n');
        out.push_str(&line);
    }
    out
}

fn render_slo(r: fui_obs::SloReport) -> String {
    format!(
        "OK SLO window_secs={:.3} target_ns={} sampled={} over_target={} \
         latency_burn={:.6} latency_budget_remaining={:.6} requests={} shed={} \
         shed_burn={:.6} shed_budget_remaining={:.6}",
        r.window_secs,
        r.latency_target_ns,
        r.sampled,
        r.over_target,
        r.latency_burn,
        r.latency_budget_remaining,
        r.requests,
        r.shed,
        r.shed_burn,
        r.shed_budget_remaining,
    )
}

fn render_traces(traces: Vec<fui_obs::RequestTrace>) -> String {
    let mut out = format!("OK TRACE {}", traces.len());
    for t in traces {
        let topic = Topic::try_from_index(t.meta.topic as usize).map_or("?", |topic| topic.name());
        out.push_str(&format!(
            "\nREQ id={} user={} topic={} top_n={} outcome={} total_ns={} \
             queue_ns={} assembly_ns={} compute_ns={} cache_ns={} scatter_ns={} \
             events={}",
            t.id,
            t.meta.user,
            topic,
            t.meta.top_n,
            t.outcome.as_str(),
            t.total_ns,
            t.parts.queue_ns,
            t.parts.assembly_ns,
            t.parts.compute_ns,
            t.parts.cache_ns,
            t.parts.scatter_ns,
            t.events.len(),
        ));
        for e in &t.events {
            out.push_str(&format!("\nEV {} {} {}", e.at_ns, e.kind.as_str(), e.arg));
        }
    }
    out
}

fn render_shards(status: FleetStatus) -> String {
    let mut out = format!(
        "OK SHARDS {} strategy={} cut_edges={} crit_ns={}",
        status.shards.len(),
        status.strategy,
        status.cut_edges,
        status.crit_ns,
    );
    for s in &status.shards {
        out.push_str(&format!(
            "\nS {} epoch={} gen={} queue={} pending={} busy_ns={} cache={} \
             owned={} edge_mass={} requests={} shed={} queue_full={} deadline={} \
             latency_burn={:.6} shed_burn={:.6}",
            s.id,
            s.epoch,
            s.graph_gen,
            s.queue_depth,
            s.pending_changes,
            s.busy_ns,
            s.cache_entries,
            s.owned_nodes,
            s.edge_mass,
            s.requests,
            s.shed,
            s.shed_queue_full,
            s.shed_deadline,
            s.latency_burn,
            s.shed_burn,
        ));
    }
    out
}

/// Renders a [`Reply`] as its protocol line (`OK REC ...`,
/// `OVERLOADED` or `ERR ...`), with shortest-round-trip `f64` score
/// formatting. Public so the HTTP frontend serves the exact same
/// bytes for a redeemed ticket as the line protocol does.
pub fn render_reply(reply: &Reply) -> String {
    match reply {
        Reply::Result(served) => {
            let mut out = format!("OK REC {} {}", served.epoch, u8::from(served.cached));
            for &(v, s) in served.recommendations.iter() {
                out.push_str(&format!(" {}:{}", v.0, s));
            }
            out
        }
        Reply::Overloaded => "OVERLOADED".to_owned(),
        Reply::Rejected(why) => format!("ERR {why}"),
    }
}

/// Parses a node-id token (`None` means the token was missing); the
/// error strings are part of the wire contract shared by both
/// frontends.
pub fn parse_node(tok: Option<&str>) -> Result<NodeId, String> {
    let tok = tok.ok_or("missing node id")?;
    tok.parse::<u32>()
        .map(NodeId)
        .map_err(|_| format!("bad node id {tok:?}"))
}

/// Parses a topic-name token (`None` means the token was missing).
pub fn parse_topic(tok: Option<&str>) -> Result<Topic, String> {
    let tok = tok.ok_or("missing topic")?;
    Topic::from_str(tok).map_err(|e| e.to_string())
}

/// Parses a comma-separated topic list token (`None` means the token
/// was missing).
pub fn parse_topics(tok: Option<&str>) -> Result<TopicSet, String> {
    let tok = tok.ok_or("missing topics")?;
    let mut set = TopicSet::empty();
    for name in tok.split(',') {
        set.insert(Topic::from_str(name).map_err(|e| e.to_string())?);
    }
    Ok(set)
}

fn expect_end<'a>(mut parts: impl Iterator<Item = &'a str>) -> Result<(), String> {
    match parts.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected trailing argument {extra:?}")),
    }
}
