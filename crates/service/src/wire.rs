//! The wire protocol's verb layer: grammar, parser, executor, renderers.
//!
//! In its line spelling the protocol is one request or reply per
//! `\n`-terminated line, ASCII, no framing beyond that — trivially
//! scriptable with `nc`. Commands:
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
//! The verb layer does no I/O: it defines the grammar above, one typed
//! [`Command`], the parser that owns every wire error string
//! ([`Command::parse`]) and [`execute`], which runs a command against
//! the one engine, [`ShardedService`] (a one-shard [`crate::Service`]
//! answers `SHARDS` with its real single row). `fui-net` owns the
//! sockets and frames these replies for either spelling of a verb — a
//! line or an HTTP request — so a body is the same bytes over both.
//!
//! `REC` goes through the micro-batching queue: [`execute`] submits
//! and hands back the [`Ticket`], redeemed once a pump has answered
//! the batch, so concurrent connections coalesce into shared batches.
//! An overloaded queue or a missed deadline answers `OVERLOADED` — a
//! client is never left hanging.

use std::str::FromStr;
use std::time::Instant;

use fui_graph::NodeId;
use fui_landmarks::EdgeChange;
use fui_taxonomy::{Topic, TopicSet};

use crate::batch::Ticket;
use crate::router::ShardedService;
use crate::service::{Reply, Request};
use crate::shard::FleetStatus;

/// One parsed command: every verb of the protocol except `QUIT`
/// (which is connection framing, not a request).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Command {
    /// `REC <user> <topic> [top_n]` (`top_n` defaults to 10).
    Rec(Request),
    /// `FOLLOW <follower> <followee> <topics>`.
    Follow(EdgeChange),
    /// `UNFOLLOW <follower> <followee>`.
    Unfollow(EdgeChange),
    /// `ROTATE`.
    Rotate,
    /// `REFRESH`.
    Refresh,
    /// `EPOCH`.
    Epoch,
    /// `SNAPSHOT`.
    Snapshot,
    /// `RESTORE`.
    Restore,
    /// `STATS`.
    Stats,
    /// `SLO`.
    Slo,
    /// `TRACE [n]` (`n` defaults to 5).
    Trace(usize),
    /// `SHARDS`.
    Shards,
}

impl Command {
    /// Parses a verb (any case) and its argument tokens. The error
    /// strings are part of the wire contract: a frontend answers
    /// `ERR <reason>` with exactly this text.
    pub fn parse<'a>(
        verb: &str,
        mut tokens: impl Iterator<Item = &'a str>,
    ) -> Result<Command, String> {
        let command = match verb.to_ascii_uppercase().as_str() {
            "REC" => Command::Rec(Request {
                user: parse_node(tokens.next())?,
                topic: parse_topic(tokens.next())?,
                top_n: parse_count(tokens.next(), "top_n", 10)?,
            }),
            "FOLLOW" => Command::Follow(EdgeChange::insert(
                parse_node(tokens.next())?,
                parse_node(tokens.next())?,
                parse_topics(tokens.next())?,
            )),
            "UNFOLLOW" => Command::Unfollow(EdgeChange::remove(
                parse_node(tokens.next())?,
                parse_node(tokens.next())?,
                TopicSet::empty(),
            )),
            "ROTATE" => Command::Rotate,
            "REFRESH" => Command::Refresh,
            "EPOCH" => Command::Epoch,
            "SNAPSHOT" => Command::Snapshot,
            "RESTORE" => Command::Restore,
            "STATS" => Command::Stats,
            "SLO" => Command::Slo,
            "TRACE" => Command::Trace(parse_count(tokens.next(), "count", 5)?),
            "SHARDS" => Command::Shards,
            other => return Err(format!("unknown command {other:?}")),
        };
        match tokens.next() {
            None => Ok(command),
            Some(extra) => Err(format!("unexpected trailing argument {extra:?}")),
        }
    }

    /// Whether running this command republishes snapshots (`ROTATE`,
    /// `REFRESH`): requests in flight across one may be shed by the
    /// stall rather than by load.
    pub fn stalls(&self) -> bool {
        matches!(self, Command::Rotate | Command::Refresh)
    }
}

/// What kind of answer a reply is, independent of its framing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyClass {
    /// `OK ...`.
    Ok,
    /// `ERR <reason>`.
    Err,
    /// `OVERLOADED`.
    Shed,
}

/// What [`execute`] produced.
pub enum Executed {
    /// `REC` was admitted; its reply arrives through the ticket
    /// (render it with [`render`]).
    Pending(Ticket),
    /// The reply, rendered without a trailing newline.
    Done(ReplyClass, String),
}

/// Renders `ERR <reason>`.
pub fn refusal(reason: impl std::fmt::Display) -> (ReplyClass, String) {
    (ReplyClass::Err, format!("ERR {reason}"))
}

/// Runs one command. This is the single dispatch path behind both
/// wire spellings, so answers are byte-identical over either by
/// construction. `deadline` bounds a `REC`'s time in the queue.
pub fn execute(service: &ShardedService, command: Command, deadline: Instant) -> Executed {
    let outcome = match command {
        Command::Rec(request) => {
            return match service.submit(request, Some(deadline)) {
                Ok(ticket) => Executed::Pending(ticket),
                // Admission control refused at submit: queue full.
                Err(reply) => {
                    let (class, text) = render(&reply);
                    Executed::Done(class, text)
                }
            };
        }
        Command::Follow(change) => service.record(change).map(|()| "OK FOLLOW".to_owned()),
        Command::Unfollow(change) => service.record(change).map(|()| "OK UNFOLLOW".to_owned()),
        Command::Rotate => Ok(format!("OK ROTATE {}", service.rotate())),
        Command::Refresh => Ok(format!("OK REFRESH {}", service.refresh())),
        Command::Epoch => Ok(format!("OK EPOCH {}", service.epoch())),
        Command::Snapshot => service
            .persist()
            .map(|(seq, bytes)| format!("OK SNAPSHOT {seq} {bytes}"))
            .map_err(|e| e.to_string()),
        Command::Restore => service.restore_probe().map(|(epoch, gen, applied)| {
            format!("OK RESTORE epoch={epoch} gen={gen} applied_seq={applied}")
        }),
        Command::Stats => Ok(render_stats()),
        Command::Slo => Ok(render_slo(service.slo())),
        Command::Trace(n) => Ok(render_traces(service.trace_slowest(n))),
        Command::Shards => Ok(render_shards(service.status())),
    };
    let (class, text) = match outcome {
        Ok(text) => (ReplyClass::Ok, text),
        Err(reason) => refusal(reason),
    };
    Executed::Done(class, text)
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
/// formatting, plus its class.
pub fn render(reply: &Reply) -> (ReplyClass, String) {
    match reply {
        Reply::Result(served) => {
            let mut out = format!("OK REC {} {}", served.epoch, u8::from(served.cached));
            for &(v, s) in served.recommendations.iter() {
                out.push_str(&format!(" {}:{}", v.0, s));
            }
            (ReplyClass::Ok, out)
        }
        Reply::Overloaded => (ReplyClass::Shed, "OVERLOADED".to_owned()),
        Reply::Rejected(why) => refusal(why),
    }
}

/// The text half of [`render`].
pub fn render_reply(reply: &Reply) -> String {
    render(reply).1
}

fn parse_node(tok: Option<&str>) -> Result<NodeId, String> {
    let tok = tok.ok_or("missing node id")?;
    tok.parse::<u32>()
        .map(NodeId)
        .map_err(|_| format!("bad node id {tok:?}"))
}

fn parse_topic(tok: Option<&str>) -> Result<Topic, String> {
    let tok = tok.ok_or("missing topic")?;
    Topic::from_str(tok).map_err(|e| e.to_string())
}

fn parse_topics(tok: Option<&str>) -> Result<TopicSet, String> {
    let tok = tok.ok_or("missing topics")?;
    let mut set = TopicSet::empty();
    for name in tok.split(',') {
        set.insert(Topic::from_str(name).map_err(|e| e.to_string())?);
    }
    Ok(set)
}

/// An optional count token; `what` names it in the error.
fn parse_count(tok: Option<&str>, what: &str, default: usize) -> Result<usize, String> {
    match tok {
        Some(s) => s.parse().map_err(|_| format!("bad {what} {s:?}")),
        None => Ok(default),
    }
}
