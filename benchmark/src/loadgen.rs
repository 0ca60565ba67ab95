//! The HTTP load generator.
//!
//! One thread per keep-alive connection, at most `min(nproc, 4)` of
//! them. Each thread paces its own writes and multiplexes nonblocking
//! reads on the same socket, so a generator never needs more threads
//! than connections. Two drivers share the connection machinery:
//!
//! * **open loop** — every operation is written at its precomputed
//!   due instant whether or not earlier ones have answered, and its
//!   latency is timed *from the due instant*, so a stalled server is
//!   charged the wait it imposes on later requests;
//! * **closed loop** — each connection keeps a fixed number of
//!   requests in flight; answered requests per second is the capacity.
//!
//! Responses on one connection arrive in request order (the server
//! answers pipelined requests FIFO), so matching needs no tagging.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use std::str::FromStr;

use fui_graph::NodeId;
use fui_load::Op;
use fui_net::sys::{Event, Poller};
use fui_service::Request;
use fui_taxonomy::Topic;

/// Which sample set an operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `GET /rec`.
    Query,
    /// `GET /rec` sent at a trickle while a control operation runs, to
    /// see how long the server leaves queries unanswered.
    Heartbeat,
    /// `POST /follow` or `POST /unfollow`.
    Write,
    /// `POST /rotate`.
    Rotate,
    /// `POST /refresh`.
    Refresh,
}

impl OpKind {
    /// Classifies a schedule operation.
    pub fn of(op: &Op) -> OpKind {
        match op {
            Op::Rec { .. } => OpKind::Query,
            Op::Follow { .. } | Op::Unfollow { .. } => OpKind::Write,
            Op::Rotate => OpKind::Rotate,
            Op::Refresh => OpKind::Refresh,
        }
    }
}

/// The service request a scheduled query stands for (`None` for
/// writes and control operations).
pub fn request_of(op: &Op) -> Option<Request> {
    match op {
        Op::Rec { user, topic, top_n } => Some(Request {
            user: NodeId(*user),
            topic: Topic::from_str(topic).expect("schedule topics are real topics"),
            top_n: *top_n,
        }),
        _ => None,
    }
}

/// The scheduled query that asks for `req`.
pub fn rec_op(req: &Request) -> Op {
    Op::Rec {
        user: req.user.0,
        topic: req.topic.name(),
        top_n: req.top_n,
    }
}

/// One operation of an open-loop plan.
#[derive(Clone, Debug)]
pub struct PlannedOp {
    /// Due offset from the run start, nanoseconds.
    pub at_ns: u64,
    /// The operation.
    pub op: Op,
    /// Whether it falls in the measured window (not the warm-up).
    pub measured: bool,
}

/// What happened to one planned operation.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Sample set.
    pub kind: OpKind,
    /// Whether it was due inside the measured window.
    pub measured: bool,
    /// Its planned offset ([`PlannedOp::at_ns`]).
    pub at_ns: u64,
    /// When it was due.
    pub due: Instant,
    /// When the generator wrote it.
    pub sent: Instant,
    /// When its last response byte was read (`None` = lost).
    pub done: Option<Instant>,
    /// HTTP status (0 while unanswered).
    pub status: u16,
    /// Whether the body had the shape its status promises.
    pub body_ok: bool,
}

/// How many generator connections (and threads) this host gets.
pub fn generator_connections() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Renders one operation as an HTTP/1.1 request.
pub fn render_request(op: &Op, out: &mut Vec<u8>) {
    match op {
        Op::Rec { user, topic, top_n } => {
            let _ = write!(
                out,
                "GET /rec?user={user}&topic={topic}&top_n={top_n} HTTP/1.1\r\n\r\n"
            );
        }
        Op::Follow {
            follower,
            followee,
            topics,
        } => {
            let _ = write!(
                out,
                "POST /follow?follower={follower}&followee={followee}&topics={topics} HTTP/1.1\r\n\r\n"
            );
        }
        Op::Unfollow { follower, followee } => {
            let _ = write!(
                out,
                "POST /unfollow?follower={follower}&followee={followee} HTTP/1.1\r\n\r\n"
            );
        }
        Op::Rotate => out.extend_from_slice(b"POST /rotate HTTP/1.1\r\n\r\n"),
        Op::Refresh => out.extend_from_slice(b"POST /refresh HTTP/1.1\r\n\r\n"),
    }
}

/// Whether a response body has the shape its status promises: `200`
/// bodies start with `OK `, sheds say `OVERLOADED`.
fn body_matches(status: u16, body: &[u8]) -> bool {
    match status {
        200 => body.starts_with(b"OK ") && body.ends_with(b"\n"),
        429 | 503 => body.starts_with(b"OVERLOADED"),
        _ => body.starts_with(b"ERR "),
    }
}

/// A nonblocking keep-alive connection with its own readiness poller.
struct Conn {
    stream: TcpStream,
    poller: Poller,
    events: Vec<Event>,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    eof: bool,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(stream.as_raw_fd(), 1)?;
        Ok(Conn {
            stream,
            poller,
            events: Vec::with_capacity(8),
            inbuf: Vec::with_capacity(64 * 1024),
            outbuf: Vec::with_capacity(16 * 1024),
            out_pos: 0,
            eof: false,
        })
    }

    /// Writes as much of the queued bytes as the socket takes.
    fn flush(&mut self) {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.eof = true;
                    break;
                }
            }
        }
        if self.out_pos == self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        }
    }

    /// Reads everything available and hands each complete response to
    /// `on_response(status, body)`.
    fn drain_responses(&mut self, mut on_response: impl FnMut(u16, &[u8])) {
        let mut chunk = [0u8; 32 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.eof = true;
                    break;
                }
            }
        }
        let mut consumed = 0;
        while let Ok(Some((resp, used))) = fui_net::parse_response(&self.inbuf[consumed..]) {
            consumed += used;
            on_response(resp.status, &resp.body);
        }
        if consumed > 0 {
            self.inbuf.drain(..consumed);
        }
    }

    /// Sleeps until the socket is ready or `timeout` passes. The
    /// poller counts whole milliseconds; the sub-millisecond remainder
    /// is slept so a due instant is not overshot by the rounding.
    fn wait(&mut self, timeout: Duration) {
        if timeout >= Duration::from_millis(1) {
            let _ = self.poller.wait(&mut self.events, timeout);
        } else if !timeout.is_zero() {
            std::thread::sleep(timeout);
        }
    }
}

/// One connection's share of an open-loop plan. Once `stop` is set,
/// operations not yet due are dropped and the rest is drained.
fn drive_open(
    addr: SocketAddr,
    mut ops: Vec<PlannedOp>,
    start: Instant,
    drain: Duration,
    stop: &AtomicBool,
) -> Vec<Record> {
    let mut conn = Conn::connect(addr).expect("connect to the benchmark's own server");
    let mut records: Vec<Record> = Vec::with_capacity(ops.len());
    let mut unanswered: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut last_due = ops
        .last()
        .map_or(start, |o| start + Duration::from_nanos(o.at_ns));
    loop {
        let now = Instant::now();
        if stop.load(Ordering::Relaxed) && next < ops.len() {
            ops.truncate(next);
            last_due = now;
        }
        while next < ops.len() {
            let due = start + Duration::from_nanos(ops[next].at_ns);
            if due > now {
                break;
            }
            render_request(&ops[next].op, &mut conn.outbuf);
            unanswered.push_back(records.len());
            records.push(Record {
                kind: OpKind::of(&ops[next].op),
                measured: ops[next].measured,
                at_ns: ops[next].at_ns,
                due,
                sent: now,
                done: None,
                status: 0,
                body_ok: false,
            });
            next += 1;
        }
        conn.flush();
        conn.drain_responses(|status, body| {
            if let Some(i) = unanswered.pop_front() {
                records[i].done = Some(Instant::now());
                records[i].status = status;
                records[i].body_ok = body_matches(status, body);
            }
        });
        if next == ops.len() && unanswered.is_empty() {
            break;
        }
        let now = Instant::now();
        if conn.eof || (next == ops.len() && now > last_due + drain) {
            break; // whatever is still unanswered is lost
        }
        let until = if next < ops.len() {
            (start + Duration::from_nanos(ops[next].at_ns)).saturating_duration_since(now)
        } else {
            Duration::from_millis(20)
        };
        conn.wait(until);
    }
    records
}

/// Runs `plan` (sorted by due offset, offsets counted from `start`)
/// against `addr` over `conns` connections, operations dealt
/// round-robin. Returns one record per planned operation. `start`
/// should lie a few tens of milliseconds ahead, so every thread is
/// connected before the first operation is due.
pub fn run_open_loop(
    addr: SocketAddr,
    plan: &[PlannedOp],
    conns: usize,
    start: Instant,
    drain: Duration,
) -> Vec<Record> {
    static NEVER: AtomicBool = AtomicBool::new(false);
    let conns = conns.clamp(1, generator_connections());
    let mut per_conn: Vec<Vec<PlannedOp>> = vec![Vec::new(); conns];
    for (i, op) in plan.iter().enumerate() {
        per_conn[i % conns].push(op.clone());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .into_iter()
            .map(|ops| scope.spawn(move || drive_open(addr, ops, start, drain, &NEVER)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect::<Vec<Record>>()
    })
}

/// Gap between two heartbeat queries while a control operation runs.
pub const HEARTBEAT_PERIOD: Duration = Duration::from_millis(100);

/// Sends `control` (a rotate or a refresh) on a connection of its own
/// and, until it is answered, one of `heartbeats` every
/// [`HEARTBEAT_PERIOD`] on a second connection: two threads, on a
/// server that is otherwise quiet. Returns the control operation's
/// record, timed from its write, and the heartbeats' records (kind
/// [`OpKind::Heartbeat`], timed from their due instants).
pub fn run_control(addr: SocketAddr, control: &Op, heartbeats: &[Op]) -> (Record, Vec<Record>) {
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let period = HEARTBEAT_PERIOD.as_nanos() as u64;
    // The first heartbeat is due one period in, after the control
    // operation has certainly reached the server.
    let plan: Vec<PlannedOp> = heartbeats
        .iter()
        .enumerate()
        .map(|(i, op)| PlannedOp {
            at_ns: (i as u64 + 1) * period,
            op: op.clone(),
            measured: true,
        })
        .collect();
    let mut request = Vec::new();
    render_request(control, &mut request);
    std::thread::scope(|scope| {
        let beats = scope.spawn(|| drive_open(addr, plan, start, Duration::from_secs(15), &stop));
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let (status, body, rtt) = roundtrips(addr, &[request]).remove(0);
        let done = Instant::now();
        stop.store(true, Ordering::Relaxed);
        let sent = done - rtt;
        let record = Record {
            kind: OpKind::of(control),
            measured: true,
            at_ns: 0,
            due: sent,
            sent,
            done: Some(done),
            status,
            body_ok: body_matches(status, &body),
        };
        let mut beats = beats.join().expect("heartbeat thread");
        for b in &mut beats {
            b.kind = OpKind::Heartbeat;
        }
        (record, beats)
    })
}

/// Length of one throughput bucket of the closed-loop leg.
pub const CAPACITY_BUCKET: Duration = Duration::from_millis(250);

/// Result of a closed-loop leg.
#[derive(Clone, Debug, Default)]
pub struct ClosedLoop {
    /// `200`s whose response landed inside the measured part.
    pub ok: u64,
    /// The same `200`s per [`CAPACITY_BUCKET`] of the measured part.
    pub ok_per_bucket: Vec<u64>,
    /// Other responses that landed inside the measured part.
    pub not_ok: u64,
    /// Requests written over the whole leg.
    pub sent: u64,
    /// Requests still unanswered when the drain gave up.
    pub lost: u64,
    /// Responses whose body did not match their status.
    pub bad_bodies: u64,
    /// Length of the measured part, seconds.
    pub measured_s: f64,
}

fn drive_closed(
    addr: SocketAddr,
    ops: Vec<&Op>,
    depth: usize,
    start: Instant,
    warm: Duration,
    measure: Duration,
) -> ClosedLoop {
    let mut conn = Conn::connect(addr).expect("connect to the benchmark's own server");
    let from = start + warm;
    let until = from + measure;
    let buckets = (measure.as_nanos() / CAPACITY_BUCKET.as_nanos()).max(1) as usize;
    let mut out = ClosedLoop {
        ok_per_bucket: vec![0; buckets],
        ..ClosedLoop::default()
    };
    let mut in_flight = 0usize;
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        if now >= start && now < until {
            while in_flight < depth {
                render_request(ops[next % ops.len()], &mut conn.outbuf);
                next += 1;
                in_flight += 1;
                out.sent += 1;
            }
        }
        conn.flush();
        let mut answered = 0usize;
        conn.drain_responses(|status, body| {
            answered += 1;
            let at = Instant::now();
            if !body_matches(status, body) {
                out.bad_bodies += 1;
            }
            if at >= from && at < until {
                if status == 200 {
                    out.ok += 1;
                    let b = ((at - from).as_nanos() / CAPACITY_BUCKET.as_nanos()) as usize;
                    if let Some(slot) = out.ok_per_bucket.get_mut(b) {
                        *slot += 1;
                    }
                } else {
                    out.not_ok += 1;
                }
            }
        });
        in_flight -= answered.min(in_flight);
        let now = Instant::now();
        if now >= until && (in_flight == 0 || conn.eof || now > until + Duration::from_secs(10)) {
            break;
        }
        if conn.eof {
            break;
        }
        if answered == 0 {
            conn.wait(if now < start {
                start - now
            } else {
                Duration::from_millis(2)
            });
        }
    }
    out.lost = in_flight as u64;
    out
}

impl ClosedLoop {
    /// Capacity: `200`s per second over the middle half of the
    /// quarter-second buckets. A stall lands in the dropped quarter
    /// where a plain total-over-time average would carry it in full.
    pub fn rate(&self) -> f64 {
        let per_bucket: Vec<f64> = self.ok_per_bucket.iter().map(|&n| n as f64).collect();
        crate::stats::interquartile_mean(&per_bucket) / CAPACITY_BUCKET.as_secs_f64()
    }
}

/// Closed-loop capacity leg: every connection keeps `depth` queries in
/// flight for `warm + measure`; only responses in the last `measure`
/// count. `ops` are dealt round-robin and reused if they run out.
pub fn run_closed_loop(
    addr: SocketAddr,
    ops: &[Op],
    conns: usize,
    depth: usize,
    warm: Duration,
    measure: Duration,
) -> ClosedLoop {
    let conns = conns.clamp(1, generator_connections());
    let start = Instant::now() + Duration::from_millis(20);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<&Op> = ops.iter().skip(c).step_by(conns).collect();
                scope.spawn(move || drive_closed(addr, mine, depth, start, warm, measure))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect::<Vec<ClosedLoop>>()
    });
    let mut total = ClosedLoop {
        measured_s: measure.as_secs_f64(),
        ..ClosedLoop::default()
    };
    for p in parts {
        if total.ok_per_bucket.len() < p.ok_per_bucket.len() {
            total.ok_per_bucket.resize(p.ok_per_bucket.len(), 0);
        }
        for (slot, n) in total.ok_per_bucket.iter_mut().zip(&p.ok_per_bucket) {
            *slot += n;
        }
        total.ok += p.ok;
        total.not_ok += p.not_ok;
        total.sent += p.sent;
        total.lost += p.lost;
        total.bad_bodies += p.bad_bodies;
    }
    total
}

/// Sends `requests` one at a time on one blocking connection (depth-1
/// closed loop) and returns each `(status, body, round trip)`.
pub fn roundtrips(addr: SocketAddr, requests: &[Vec<u8>]) -> Vec<(u16, Vec<u8>, Duration)> {
    let mut stream = TcpStream::connect(addr).expect("connect to the benchmark's own server");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut out = Vec::with_capacity(requests.len());
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    for req in requests {
        let t0 = Instant::now();
        stream.write_all(req).expect("probe write");
        let (status, body) = loop {
            if let Ok(Some((resp, used))) = fui_net::parse_response(&buf) {
                buf.drain(..used);
                break (resp.status, resp.body);
            }
            match stream.read(&mut chunk) {
                Ok(0) => panic!("server closed the probe connection"),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("probe read failed: {e}"),
            }
        };
        out.push((status, body, t0.elapsed()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_never_exceeds_nproc_or_four() {
        let n = generator_connections();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(n >= 1 && n <= nproc && n <= 4);
    }

    #[test]
    fn requests_render_as_the_server_routes_them() {
        let mut out = Vec::new();
        render_request(
            &Op::Rec {
                user: 7,
                topic: "Technology",
                top_n: 10,
            },
            &mut out,
        );
        let (req, used) = fui_net::parse_request(&out).unwrap().unwrap();
        assert_eq!(used, out.len());
        assert_eq!(req.path, "/rec");
        assert_eq!(fui_net::query_param(&req.query, "user"), Some("7"));
        assert!(body_matches(200, b"OK REC 0 0 1:0.5\n"));
        assert!(!body_matches(200, b"OVERLOADED\n"));
        assert!(body_matches(429, b"OVERLOADED\n"));
    }
}
