//! The event-loop HTTP server.
//!
//! One loop thread multiplexes the listener plus every connection
//! over [`crate::sys::Poller`] readiness; a companion pump thread
//! drives the backend's micro-batch window exactly like the line
//! protocol's. `GET /rec` submits into the batcher and parks a
//! `Slot::Waiting` in the connection's FIFO; every loop tick polls
//! the head tickets nonblockingly and ships resolved responses, so
//! pipelining holds and the loop never blocks on a single query.
//!
//! # Endpoints
//!
//! | endpoint | verb | body (identical to the line protocol) |
//! |---|---|---|
//! | `/rec?user=&topic=&top_n=` | GET | `OK REC <epoch> <cached> <node>:<score>...` |
//! | `/follow?follower=&followee=&topics=` | POST | `OK FOLLOW` |
//! | `/unfollow?follower=&followee=` | POST | `OK UNFOLLOW` |
//! | `/rotate` | POST | `OK ROTATE <epoch>` |
//! | `/refresh` | POST | `OK REFRESH <n>` |
//! | `/epoch` | GET | `OK EPOCH <e>` |
//! | `/stats` \| `/slo` \| `/trace?n=` \| `/shards` | GET | as the line verbs |
//! | `/health` | GET | `OK HEALTH <epoch>` (HTTP-only liveness) |
//!
//! Status mapping: `OK` bodies answer `200`, `ERR` bodies `400`
//! (unknown paths `404`, wrong methods `405`), sheds answer `429`
//! (admission control: queue full or deadline missed) or `503` (the
//! shed's in-flight window overlapped a rotation/refresh stall).
//! Bodies are byte-identical to the line protocol in every case the
//! line protocol can express — both frontends render through
//! `fui_service::net::{execute_control, render_reply}`.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fui_obs::{counter, gauge, Counter, Gauge};
use fui_service::net::{execute_control, parse_node, parse_topic, render_reply};
use fui_service::{Reply, Request, ShardedService};

use crate::conn::{Conn, PendingRec, ReadOutcome, Slot};
use crate::http::{self, HttpRequest, Method};
use crate::sys::{Event, Poller};

/// Token reserved for the listener.
const LISTENER_TOKEN: u64 = 0;

/// Event-loop tuning.
#[derive(Clone, Copy, Debug)]
pub struct HttpConfig {
    /// Micro-batch coalescing window (pump cadence when idle).
    pub window: Duration,
    /// Per-request deadline, measured from submission.
    pub deadline: Duration,
    /// Accept ceiling; connections beyond it are closed immediately.
    pub max_conns: usize,
    /// Unanswered requests per connection before reads pause.
    pub max_pipeline: usize,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            window: Duration::from_millis(1),
            deadline: Duration::from_secs(2),
            max_conns: 4096,
            max_pipeline: 1024,
        }
    }
}

/// Resolved-once handles for every `net.*` metric (the loop never
/// takes the registry's name lock per event).
pub(crate) struct NetMetrics {
    pub(crate) accepts: Counter,
    pub(crate) accept_overflow: Counter,
    pub(crate) conns: Gauge,
    pub(crate) read_bytes: Counter,
    pub(crate) write_bytes: Counter,
    pub(crate) parse_errors: Counter,
    pub(crate) keepalive_reuse: Counter,
    pub(crate) requests: Counter,
    pub(crate) status_ok: Counter,
    pub(crate) status_bad_request: Counter,
    pub(crate) status_not_found: Counter,
    pub(crate) shed_overload: Counter,
    pub(crate) shed_rotation: Counter,
}

impl NetMetrics {
    fn new() -> NetMetrics {
        NetMetrics {
            accepts: counter("net.accepts"),
            accept_overflow: counter("net.accept_overflow"),
            conns: gauge("net.conns"),
            read_bytes: counter("net.read_bytes"),
            write_bytes: counter("net.write_bytes"),
            parse_errors: counter("net.parse_errors"),
            keepalive_reuse: counter("net.keepalive_reuse"),
            requests: counter("net.http.requests"),
            status_ok: counter("net.http.ok"),
            status_bad_request: counter("net.http.bad_request"),
            status_not_found: counter("net.http.not_found"),
            shed_overload: counter("net.http.shed_overload"),
            shed_rotation: counter("net.http.shed_rotation"),
        }
    }
}

/// A running event loop + pump pair; shut down explicitly in tests.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 for ephemeral) and starts the loop and
    /// pump threads.
    pub fn start<B: AsRef<ShardedService> + Send + Sync + 'static>(
        service: Arc<B>,
        addr: &str,
        cfg: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let event_loop = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fui-http-loop".into())
                .spawn(move || run_loop(listener, (*service).as_ref(), cfg, &stop))?
        };
        let pump = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fui-http-pump".into())
                .spawn(move || {
                    let service = (*service).as_ref();
                    while !stop.load(Ordering::SeqCst) {
                        if service.pump() == 0 {
                            std::thread::park_timeout(cfg.window);
                        }
                    }
                    // Resolve anything still queued so no ticket hangs.
                    while service.pump() > 0 {}
                })?
        };
        Ok(HttpServer {
            addr: local,
            stop,
            event_loop: Some(event_loop),
            pump: Some(pump),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop, closes every connection and joins the threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the poller out of its wait.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

fn run_loop(listener: TcpListener, service: &ShardedService, cfg: HttpConfig, stop: &AtomicBool) {
    let metrics = NetMetrics::new();
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    if poller
        .register(listener.as_raw_fd(), LISTENER_TOKEN)
        .is_err()
    {
        return;
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events: Vec<Event> = Vec::with_capacity(256);
    // Bumped by every rotate/refresh; sheds that straddle a bump
    // answer 503 (rotation stall), others 429.
    let mut stall_stamp: u64 = 0;

    while !stop.load(Ordering::SeqCst) {
        let any_waiting = conns.values().any(Conn::has_waiting);
        let timeout = if any_waiting {
            cfg.window
        } else {
            Duration::from_millis(20)
        };
        if poller.wait(&mut events, timeout).is_err() {
            break;
        }

        let woken: Vec<u64> = events
            .iter()
            .filter(|e| e.token != LISTENER_TOKEN)
            .map(|e| e.token)
            .collect();
        let accept_ready = events
            .iter()
            .any(|e| e.token == LISTENER_TOKEN && e.readable);
        for e in events.iter().filter(|e| e.closed) {
            if let Some(c) = conns.get_mut(&e.token) {
                c.dead = true;
            }
        }

        if accept_ready {
            accept_all(
                &listener,
                &poller,
                &mut conns,
                &mut next_token,
                &cfg,
                &metrics,
            );
        }

        // Explicitly woken connections first, then a tick pass over
        // everything with in-flight tickets or paused reads. Visiting
        // a connection twice is harmless (reads hit WouldBlock).
        for token in woken {
            if let Some(c) = conns.get_mut(&token) {
                service_conn(c, service, &cfg, &metrics, &mut stall_stamp);
            }
        }
        for c in conns.values_mut() {
            if c.dead {
                continue;
            }
            service_conn(c, service, &cfg, &metrics, &mut stall_stamp);
        }

        conns.retain(|_, c| {
            if c.dead {
                poller.deregister(c.stream.as_raw_fd());
            }
            !c.dead
        });
        metrics.conns.set(conns.len() as f64);
    }
    for (_, c) in conns.drain() {
        poller.deregister(c.stream.as_raw_fd());
    }
    metrics.conns.set(0.0);
}

fn accept_all(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    cfg: &HttpConfig,
    metrics: &NetMetrics,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.len() >= cfg.max_conns {
                    metrics.accept_overflow.incr();
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller.register(stream.as_raw_fd(), token).is_err() {
                    continue;
                }
                metrics.accepts.incr();
                conns.insert(token, Conn::new(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    metrics.conns.set(conns.len() as f64);
}

/// One full service pass over a connection: read, parse/route,
/// resolve tickets, flush.
fn service_conn(
    conn: &mut Conn,
    service: &ShardedService,
    cfg: &HttpConfig,
    metrics: &NetMetrics,
    stall_stamp: &mut u64,
) {
    let outcome = conn.fill(metrics, cfg.max_pipeline);
    if outcome == ReadOutcome::Err {
        conn.dead = true;
        return;
    }
    conn.parse_requests(metrics, |req| {
        route(req, service, cfg, metrics, stall_stamp)
    });
    if conn.saw_eof() && !conn.closing && conn.unparsed() > 0 {
        // The peer quit mid-request: still answer a typed 400 before
        // closing, so truncation is observable, never silent.
        conn.fail_request(metrics, &http::HttpError::TruncatedRequest);
    }
    resolve_tickets(conn, metrics, *stall_stamp);
    conn.flush(metrics);
}

/// Polls the FIFO head while tickets resolve, rendering each reply
/// with the shared line-protocol renderer.
fn resolve_tickets(conn: &mut Conn, metrics: &NetMetrics, stall_stamp: u64) {
    while let Some(Slot::Waiting(pending)) = conn.slots.front_mut() {
        let ticket = pending
            .ticket
            .take()
            .expect("ticket present until resolved");
        let (reply, keep_alive, stamp) = match ticket.poll() {
            Err(ticket) => {
                pending.ticket = Some(ticket);
                break;
            }
            Ok(reply) => (reply, pending.keep_alive, pending.stall_stamp),
        };
        let status = match &reply {
            Reply::Result(_) => {
                metrics.status_ok.incr();
                200
            }
            Reply::Rejected(_) => {
                metrics.status_bad_request.incr();
                400
            }
            Reply::Overloaded => {
                if stamp != stall_stamp {
                    metrics.shed_rotation.incr();
                    503
                } else {
                    metrics.shed_overload.incr();
                    429
                }
            }
        };
        let body = format!("{}\n", render_reply(&reply));
        let mut bytes = Vec::new();
        http::write_response(&mut bytes, status, &body, keep_alive);
        *conn.slots.front_mut().expect("front still present") = Slot::Done(bytes);
    }
}

/// Renders a finished control response as a slot.
fn done(metrics: &NetMetrics, status: u16, body: String, keep_alive: bool) -> Slot {
    match status {
        200 => metrics.status_ok.incr(),
        400 => metrics.status_bad_request.incr(),
        404 | 405 => metrics.status_not_found.incr(),
        429 => metrics.shed_overload.incr(),
        _ => {}
    }
    let mut bytes = Vec::new();
    http::write_response(&mut bytes, status, &body, keep_alive);
    Slot::Done(bytes)
}

/// Routes one parsed request. Control verbs run synchronously through
/// `execute_control` (the line protocol's own dispatch);
/// `GET /rec` submits into the batcher and returns a waiting slot.
fn route(
    req: &HttpRequest,
    service: &ShardedService,
    cfg: &HttpConfig,
    metrics: &NetMetrics,
    stall_stamp: &mut u64,
) -> Slot {
    let keep = req.keep_alive;
    let q = req.query.as_str();
    // A control verb built from query tokens: the request line cannot
    // contain whitespace (it would not have parsed), so raw values
    // splice into the line protocol without any escaping ambiguity.
    let control = |line: String| -> (u16, String) {
        match execute_control(&line, service) {
            Ok(body) => (200, format!("{body}\n")),
            Err(e) => (400, format!("ERR {e}\n")),
        }
    };

    let (status, body) = match (req.method, req.path.as_str()) {
        (Method::Get, "/rec") => {
            let user = match parse_node(http::query_param(q, "user")) {
                Ok(u) => u,
                Err(e) => return done(metrics, 400, format!("ERR {e}\n"), keep),
            };
            let topic = match parse_topic(http::query_param(q, "topic")) {
                Ok(t) => t,
                Err(e) => return done(metrics, 400, format!("ERR {e}\n"), keep),
            };
            let top_n = match http::query_param(q, "top_n") {
                Some(s) => match s.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => return done(metrics, 400, format!("ERR bad top_n {s:?}\n"), keep),
                },
                None => 10,
            };
            let request = Request { user, topic, top_n };
            let deadline = Instant::now() + cfg.deadline;
            return match service.submit(request, Some(deadline)) {
                Ok(ticket) => Slot::Waiting(PendingRec {
                    ticket: Some(ticket),
                    keep_alive: keep,
                    stall_stamp: *stall_stamp,
                    submitted_at: Instant::now(),
                }),
                // Admission control refused at submit: queue full.
                Err(_) => done(metrics, 429, "OVERLOADED\n".to_owned(), keep),
            };
        }
        (Method::Post, "/follow") => {
            let (f, g, t) = (
                http::query_param(q, "follower"),
                http::query_param(q, "followee"),
                http::query_param(q, "topics"),
            );
            match (f, g, t) {
                (Some(f), Some(g), Some(t)) => control(format!("FOLLOW {f} {g} {t}")),
                _ => control("FOLLOW".to_owned()),
            }
        }
        (Method::Post, "/unfollow") => {
            match (
                http::query_param(q, "follower"),
                http::query_param(q, "followee"),
            ) {
                (Some(f), Some(g)) => control(format!("UNFOLLOW {f} {g}")),
                _ => control("UNFOLLOW".to_owned()),
            }
        }
        (Method::Post, "/rotate") => {
            *stall_stamp += 1;
            control("ROTATE".to_owned())
        }
        (Method::Post, "/refresh") => {
            *stall_stamp += 1;
            control("REFRESH".to_owned())
        }
        (Method::Get, "/epoch") => control("EPOCH".to_owned()),
        (Method::Get, "/stats") => control("STATS".to_owned()),
        (Method::Get, "/slo") => control("SLO".to_owned()),
        (Method::Get, "/shards") => control("SHARDS".to_owned()),
        (Method::Get, "/trace") => match http::query_param(q, "n") {
            Some(n) => control(format!("TRACE {n}")),
            None => control("TRACE".to_owned()),
        },
        (Method::Get, "/health") => (200, format!("OK HEALTH {}\n", service.epoch())),
        (
            _,
            "/rec" | "/follow" | "/unfollow" | "/rotate" | "/refresh" | "/epoch" | "/stats"
            | "/slo" | "/shards" | "/trace" | "/health",
        ) => (
            405,
            format!(
                "ERR method {} not allowed for {}\n",
                req.method.as_str(),
                req.path
            ),
        ),
        (_, path) => (404, format!("ERR unknown path {path:?}\n")),
    };
    done(metrics, status, body, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_core::{ScoreParams, ScoreVariant};
    use fui_graph::{GraphBuilder, NodeId};
    use fui_service::{Service, ServiceConfig};
    use fui_taxonomy::{SimMatrix, Topic, TopicSet};
    use std::io::{Read, Write};

    fn tiny_service(queue_capacity: usize) -> Arc<Service> {
        let n = 40u32;
        let mut b = GraphBuilder::with_capacity(n as usize, n as usize * 3);
        for u in 0..n {
            let mut labels = TopicSet::empty();
            labels.insert(Topic::ALL[u as usize % Topic::ALL.len()]);
            b.add_node(labels);
        }
        for u in 0..n {
            for k in [1u32, 7, 13] {
                let mut labels = TopicSet::empty();
                labels.insert(Topic::ALL[(u + k) as usize % Topic::ALL.len()]);
                b.add_edge(NodeId(u), NodeId((u + k) % n), labels);
            }
        }
        let graph = b.build();
        let landmarks: Vec<NodeId> = graph.nodes().filter(|u| u.0 % 5 == 0).collect();
        Arc::new(Service::new(
            graph,
            SimMatrix::opencalais(),
            ScoreParams::default(),
            ScoreVariant::Full,
            landmarks,
            50,
            ServiceConfig {
                queue_capacity,
                ..ServiceConfig::default()
            },
        ))
    }

    fn send_and_read(stream: &mut TcpStream, req: &str) -> (u16, String) {
        stream.write_all(req.as_bytes()).expect("write");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match http::parse_response(&buf) {
                Ok(Some((resp, used))) => {
                    buf.drain(..used);
                    return (
                        resp.status,
                        String::from_utf8(resp.body).expect("utf8 body"),
                    );
                }
                Ok(None) => {}
                Err(e) => panic!("bad response: {e}"),
            }
            let n = stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed early; buffered {buf:?}");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn serves_rec_and_control_over_keepalive() {
        let svc = tiny_service(256);
        let server = HttpServer::start(svc, "127.0.0.1:0", HttpConfig::default()).expect("start");
        let mut c = TcpStream::connect(server.local_addr()).expect("connect");

        let (code, body) = send_and_read(&mut c, "GET /health HTTP/1.1\r\nHost: f\r\n\r\n");
        assert_eq!(code, 200);
        assert!(body.starts_with("OK HEALTH "), "{body}");

        let (code, body) = send_and_read(
            &mut c,
            "GET /rec?user=3&topic=sports HTTP/1.1\r\nHost: f\r\n\r\n",
        );
        assert_eq!(code, 200);
        assert!(body.starts_with("OK REC "), "{body}");

        let (code, body) = send_and_read(
            &mut c,
            "POST /follow?follower=1&followee=2&topics=sports HTTP/1.1\r\nHost: f\r\n\r\n",
        );
        assert_eq!(code, 200);
        assert_eq!(body, "OK FOLLOW\n");

        let (code, body) = send_and_read(&mut c, "POST /rotate HTTP/1.1\r\nHost: f\r\n\r\n");
        assert_eq!(code, 200);
        assert!(body.starts_with("OK ROTATE "), "{body}");

        let (code, body) = send_and_read(
            &mut c,
            "GET /rec?user=9999&topic=sports HTTP/1.1\r\nHost: f\r\n\r\n",
        );
        assert_eq!(code, 400);
        assert!(body.starts_with("ERR unknown user"), "{body}");

        let (code, body) = send_and_read(&mut c, "GET /nope HTTP/1.1\r\nHost: f\r\n\r\n");
        assert_eq!(code, 404);
        assert!(body.starts_with("ERR unknown path"), "{body}");

        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let svc = tiny_service(256);
        let server = HttpServer::start(svc, "127.0.0.1:0", HttpConfig::default()).expect("start");
        let mut c = TcpStream::connect(server.local_addr()).expect("connect");

        // Two recs and an epoch, written back-to-back before any read.
        let wire = "GET /rec?user=1&topic=sports HTTP/1.1\r\nHost: f\r\n\r\n\
                    GET /rec?user=2&topic=technology HTTP/1.1\r\nHost: f\r\n\r\n\
                    GET /epoch HTTP/1.1\r\nHost: f\r\n\r\n";
        c.write_all(wire.as_bytes()).expect("write");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut bodies = Vec::new();
        while bodies.len() < 3 {
            match http::parse_response(&buf) {
                Ok(Some((resp, used))) => {
                    buf.drain(..used);
                    assert_eq!(resp.status, 200);
                    bodies.push(String::from_utf8(resp.body).expect("utf8"));
                }
                Ok(None) => {
                    let n = c.read(&mut chunk).expect("read");
                    assert!(n > 0, "server closed early");
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => panic!("bad response: {e}"),
            }
        }
        assert!(bodies[0].starts_with("OK REC "), "{}", bodies[0]);
        assert!(bodies[1].starts_with("OK REC "), "{}", bodies[1]);
        assert!(bodies[2].starts_with("OK EPOCH "), "{}", bodies[2]);

        server.shutdown();
    }

    #[test]
    fn malformed_request_answers_400_and_closes() {
        let svc = tiny_service(64);
        let server = HttpServer::start(svc, "127.0.0.1:0", HttpConfig::default()).expect("start");
        let mut c = TcpStream::connect(server.local_addr()).expect("connect");
        c.write_all(b"NOT A REQUEST\r\n\r\n").expect("write");
        let mut buf = Vec::new();
        c.read_to_end(&mut buf).expect("read to close");
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
        assert!(text.contains("ERR "), "{text}");
        server.shutdown();
    }
}
