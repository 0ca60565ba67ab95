//! The event loop: the one listener, connection table and pump.
//!
//! One loop thread multiplexes the listener plus every connection
//! over [`crate::sys::Poller`] readiness; a companion pump thread
//! drives the engine's micro-batch window. A `REC` submits into the
//! batcher and parks a `Slot::Waiting` in the connection's FIFO;
//! every loop tick polls the head tickets nonblockingly and ships
//! resolved replies, so pipelining holds and the loop never blocks on
//! a single query. Control verbs run synchronously on the loop.
//!
//! A listener speaks one `Codec` — [`HttpServer::start`] HTTP,
//! [`HttpServer::start_line`] the line protocol — and nothing in this
//! file depends on which: see [`crate::codec`] for the verb table and
//! the status mapping.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fui_obs::{counter, gauge, Counter, Gauge};
use fui_service::wire::{self, Executed, ReplyClass};
use fui_service::ShardedService;

use crate::codec::{Action, Class, Codec};
use crate::conn::{Conn, PendingRec, Slot};
use crate::sys::{Event, Poller};

/// Token reserved for the listener.
const LISTENER_TOKEN: u64 = 0;

/// Micro-batch coalescing window: the pump's cadence when idle and
/// the loop's poll timeout while any ticket is in flight. A constant
/// because it is the latency floor of every queued request; moving it
/// is a performance change to be measured, not a deployment setting.
const WINDOW: Duration = Duration::from_millis(1);

/// Accept ceiling; connections beyond it are closed immediately. Sized
/// to stay well inside a default 1024–65536 descriptor limit together
/// with the engine's own files.
const MAX_CONNS: usize = 4096;

/// Front-door tuning. One field: the benchmark's 1M-node fixture needs
/// a longer deadline than the interactive default, and nothing else
/// about the loop has two callers wanting different values.
#[derive(Clone, Copy, Debug)]
pub struct HttpConfig {
    /// Per-request deadline, measured from submission.
    pub deadline: Duration,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            deadline: Duration::from_secs(2),
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

/// A running front door: one listener, its event loop and the pump.
/// Named for its first codec; [`HttpServer::start_line`] serves the
/// line protocol from the same type. Shut down explicitly in tests.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 for ephemeral) and serves HTTP/1.1 on it.
    pub fn start<B: AsRef<ShardedService> + Send + Sync + 'static>(
        service: Arc<B>,
        addr: &str,
        cfg: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_codec(service, addr, Codec::Http, cfg)
    }

    /// Binds `addr` and serves the line protocol on it: the same loop,
    /// pump, limits and verbs as [`HttpServer::start`], framed as
    /// `\n`-terminated lines.
    pub fn start_line<B: AsRef<ShardedService> + Send + Sync + 'static>(
        service: Arc<B>,
        addr: &str,
        cfg: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_codec(service, addr, Codec::Line, cfg)
    }

    fn start_codec<B: AsRef<ShardedService> + Send + Sync + 'static>(
        service: Arc<B>,
        addr: &str,
        codec: Codec,
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
                .name("fui-net-loop".into())
                .spawn(move || run_loop(listener, codec, (*service).as_ref(), cfg, &stop))?
        };
        let pump = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fui-net-pump".into())
                .spawn(move || {
                    let service = (*service).as_ref();
                    while !stop.load(Ordering::SeqCst) {
                        if service.pump() == 0 {
                            std::thread::park_timeout(WINDOW);
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

fn run_loop(
    listener: TcpListener,
    codec: Codec,
    service: &ShardedService,
    cfg: HttpConfig,
    stop: &AtomicBool,
) {
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
    // Bumped by every rotate/refresh; a shed that straddles a bump
    // was caused by the stall rather than by load.
    let mut stall_stamp: u64 = 0;

    while !stop.load(Ordering::SeqCst) {
        let any_waiting = conns.values().any(Conn::has_waiting);
        let timeout = if any_waiting {
            WINDOW
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
                codec,
                &poller,
                &mut conns,
                &mut next_token,
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
    codec: Codec,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    metrics: &NetMetrics,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.len() >= MAX_CONNS {
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
                conns.insert(token, Conn::new(stream, codec));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    metrics.conns.set(conns.len() as f64);
}

/// One full service pass over a connection: read, redeem, decode and
/// run, redeem, flush.
fn service_conn(
    conn: &mut Conn,
    service: &ShardedService,
    cfg: &HttpConfig,
    metrics: &NetMetrics,
    stall_stamp: &mut u64,
) {
    if !conn.fill(metrics) {
        conn.dead = true;
        return;
    }
    // Redeemed before decoding as well as after: a line connection
    // runs its next command only once the reply ahead of it is out of
    // the batcher, and should do so in this pass, not the next.
    resolve_tickets(conn, metrics, *stall_stamp);
    let codec = conn.codec;
    conn.decode_requests(metrics, |action, keep_alive| {
        let (class, text) = match action {
            Action::Run(command) => {
                if command.stalls() {
                    *stall_stamp += 1;
                }
                match wire::execute(service, command, Instant::now() + cfg.deadline) {
                    Executed::Pending(ticket) => {
                        return Slot::Waiting(PendingRec {
                            ticket: Some(ticket),
                            keep_alive,
                            stall_stamp: *stall_stamp,
                        })
                    }
                    Executed::Done(class, text) => (Class::Reply(class), text),
                }
            }
            Action::Health => (
                Class::Reply(ReplyClass::Ok),
                format!("OK HEALTH {}", service.epoch()),
            ),
            Action::Refuse(class, text) => (class, text),
        };
        Slot::Done(codec.encode(metrics, class, false, text, keep_alive))
    });
    resolve_tickets(conn, metrics, *stall_stamp);
    conn.flush(metrics);
}

/// Polls the FIFO head while tickets resolve, rendering each reply
/// with the verb layer's renderer.
fn resolve_tickets(conn: &mut Conn, metrics: &NetMetrics, stall_stamp: u64) {
    while let Some(Slot::Waiting(pending)) = conn.slots.front_mut() {
        let ticket = pending
            .ticket
            .take()
            .expect("ticket present until resolved");
        let reply = match ticket.poll() {
            Err(ticket) => {
                pending.ticket = Some(ticket);
                break;
            }
            Ok(reply) => reply,
        };
        let (class, text) = wire::render(&reply);
        let stalled = pending.stall_stamp != stall_stamp;
        let bytes = conn.codec.encode(
            metrics,
            Class::Reply(class),
            stalled,
            text,
            pending.keep_alive,
        );
        *conn.slots.front_mut().expect("front still present") = Slot::Done(bytes);
    }
}
