//! The event loop: the one listener, connection table and pump.
//!
//! One loop thread multiplexes the listener plus every connection
//! over [`crate::sys::Poller`] readiness; a companion pump thread
//! answers the engine's submission queue. A `REC` submits into the
//! batcher and leaves a `Slot::Waiting` in the connection's FIFO; the
//! loop redeems tickets nonblockingly and ships resolved replies, so
//! pipelining holds and the loop never blocks on a single query.
//! Control verbs run synchronously on the loop.
//!
//! Neither thread polls. Each blocks until something happened and is
//! woken by the thread that made it happen:
//!
//! * the **loop** sleeps in `Poller::wait` with no timeout. Sockets
//!   wake it through epoll; the pump wakes it through the poller's
//!   wake descriptor after a `pump()` that may have resolved tickets.
//!   A pass visits the connections epoll reported and — only when the
//!   wake token fired — the connections that own an unresolved ticket;
//! * the **pump** sleeps in `thread::park`. The loop `unpark`s it
//!   after any pass that left a `Slot::Waiting` behind.
//!
//! Coalescing is group commit: an idle pump dispatches at once, and
//! whatever is submitted while a batch is being answered joins the
//! next `pump()`, which drains up to `max_batch`.
//!
//! Why no wakeup is lost. *Loop → pump:* a request is pushed onto the
//! queue before the `unpark` that follows its pass, and the pump parks
//! only after a `pump()` that found nothing; an `unpark` that lands
//! between that `pump()` and the `park` leaves the park token set, so
//! the `park` returns at once and the next `pump()` sees the request.
//! *Pump → loop:* replies are sent on their tickets before the wake
//! descriptor is written, and the loop polls tickets after `wait` has
//! drained the descriptor; a write that lands after the drain makes
//! the next `wait` return at once. One case needs care: `pump()`
//! returns how many requests it *answered*, and a request that
//! outlived its deadline in the queue is resolved (shed) without being
//! counted. So the pump owes the loop one wake for every `unpark` it
//! has taken, and pays it after the next `pump()` even when that
//! returned 0. Once nothing times out, a lost wakeup is a hang that
//! every network test catches; there is deliberately no timer behind
//! this to turn one into a latency blip.
//!
//! A listener speaks one `Codec` — [`HttpServer::start`] HTTP,
//! [`HttpServer::start_line`] the line protocol — and nothing in this
//! file depends on which: see [`crate::codec`] for the verb table and
//! the status mapping.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use fui_obs::{counter, gauge, Counter, Gauge};
use fui_service::wire::{self, Executed, ReplyClass};
use fui_service::Service;

use crate::codec::{Action, Class, Codec};
use crate::conn::{Conn, PendingRec, Slot};
use crate::sys::{Event, Poller, Waker, WAKE_TOKEN};

/// Token reserved for the listener.
const LISTENER_TOKEN: u64 = 0;

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
    /// Returns from `Poller::wait`.
    loop_passes: Counter,
    /// Passes on which the wake token fired.
    loop_wakes: Counter,
    /// `pump()` calls that answered at least one request.
    pump_batches: Counter,
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
            loop_passes: counter("net.loop.passes"),
            loop_wakes: counter("net.loop.wakes"),
            pump_batches: counter("net.pump.batches"),
        }
    }
}

/// A running front door: one listener, its event loop and the pump.
/// Named for its first codec; [`HttpServer::start_line`] serves the
/// line protocol from the same type. Dropping it stops both threads,
/// closes every connection and releases the port.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    event_loop: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 for ephemeral) and serves HTTP/1.1 on it.
    pub fn start(
        service: Arc<Service>,
        addr: &str,
        cfg: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_codec(service, addr, Codec::Http, cfg)
    }

    /// Binds `addr` and serves the line protocol on it: the same loop,
    /// pump, limits and verbs as [`HttpServer::start`], framed as
    /// `\n`-terminated lines.
    pub fn start_line(
        service: Arc<Service>,
        addr: &str,
        cfg: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_codec(service, addr, Codec::Line, cfg)
    }

    fn start_codec(
        service: Arc<Service>,
        addr: &str,
        codec: Codec,
        cfg: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN)?;
        let metrics = NetMetrics::new();
        let stop = Arc::new(AtomicBool::new(false));

        let pump = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let waker = poller.waker();
            let batches = metrics.pump_batches;
            std::thread::Builder::new()
                .name("fui-net-pump".into())
                .spawn(move || run_pump(&service, &waker, batches, &stop))?
        };
        let pump_thread = pump.thread().clone();
        // From here on an early return drops `server`, which stops and
        // joins whatever has been spawned.
        let mut server = HttpServer {
            addr: listener.local_addr()?,
            stop: Arc::clone(&stop),
            waker: poller.waker(),
            event_loop: None,
            pump: Some(pump),
        };
        let event_loop = EventLoop {
            listener,
            poller,
            codec,
            cfg,
            metrics,
            pump: pump_thread,
            stop,
        };
        server.event_loop = Some(
            std::thread::Builder::new()
                .name("fui-net-loop".into())
                .spawn(move || event_loop.run(&service))?,
        );
        Ok(server)
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop, closes every connection and joins the threads:
    /// `drop`, spelled for call sites that want to say so.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Both threads re-check `stop` whenever they wake; a wake or an
        // unpark that lands before the sleep it is meant to end is kept
        // (eventfd counter, park token), so neither can sleep through.
        self.waker.wake();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        // Unparked once the loop can submit no more, so a parked pump's
        // final drain leaves the queue empty.
        if let Some(h) = self.pump.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

/// The pump thread: answer what is queued, wake the loop, park when
/// there is nothing to do. The module docs argue why no wakeup is lost.
fn run_pump(service: &Service, waker: &Waker, batches: Counter, stop: &AtomicBool) {
    // Unparked since the last wake: the loop handed over tickets that
    // the next `pump()` may resolve without counting them (deadline
    // sheds), so that `pump()` is followed by a wake whatever it
    // returns.
    let mut owes_wake = false;
    while !stop.load(Ordering::SeqCst) {
        let answered = service.pump();
        if answered > 0 {
            batches.incr();
        }
        if answered > 0 || owes_wake {
            waker.wake();
            owes_wake = false;
        } else {
            std::thread::park();
            owes_wake = true;
        }
    }
    // Resolve anything still queued so no ticket hangs.
    while service.queue_depth() > 0 {
        service.pump();
    }
}

/// What the loop thread owns.
struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    codec: Codec,
    cfg: HttpConfig,
    metrics: NetMetrics,
    pump: Thread,
    stop: Arc<AtomicBool>,
}

impl EventLoop {
    fn run(self, service: &Service) {
        let metrics = &self.metrics;
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token: u64 = 1;
        let mut events: Vec<Event> = Vec::with_capacity(256);
        // Tokens of the connections that own an unresolved ticket:
        // what a wake pass visits beside the connections epoll
        // reported.
        let mut waiting: HashSet<u64> = HashSet::new();
        let mut visit: Vec<u64> = Vec::new();
        // Bumped by every rotate/refresh; a shed that straddles a bump
        // was caused by the stall rather than by load.
        let mut stall_stamp: u64 = 0;

        while !self.stop.load(Ordering::SeqCst) {
            // No timeout: whatever the loop waits for announces itself.
            if self.poller.wait(&mut events, Duration::MAX).is_err() {
                break;
            }
            metrics.loop_passes.incr();

            let mut accept_ready = false;
            let mut woken = false;
            visit.clear();
            for e in &events {
                match e.token {
                    LISTENER_TOKEN => accept_ready |= e.readable,
                    WAKE_TOKEN => woken = true,
                    token => {
                        visit.push(token);
                        if e.closed {
                            if let Some(c) = conns.get_mut(&token) {
                                c.dead = true;
                            }
                        }
                    }
                }
            }
            if woken {
                metrics.loop_wakes.incr();
                // A connection both reported and waiting is visited once.
                visit.extend(&waiting);
                visit.sort_unstable();
                visit.dedup();
            }

            if accept_ready {
                accept_all(
                    &self.listener,
                    self.codec,
                    &self.poller,
                    &mut conns,
                    &mut next_token,
                    metrics,
                );
            }

            for &token in &visit {
                let Some(c) = conns.get_mut(&token) else {
                    continue;
                };
                service_conn(c, service, &self.cfg, metrics, &mut stall_stamp);
                if c.dead {
                    self.poller.deregister(c.stream.as_raw_fd());
                    conns.remove(&token);
                    waiting.remove(&token);
                } else if c.has_waiting() {
                    waiting.insert(token);
                } else {
                    waiting.remove(&token);
                }
            }
            metrics.conns.set(conns.len() as f64);
            if !waiting.is_empty() {
                self.pump.unpark();
            }
        }
        for (_, c) in conns.drain() {
            self.poller.deregister(c.stream.as_raw_fd());
        }
        metrics.conns.set(0.0);
    }
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
/// run, redeem, flush — and again while that un-paused a connection
/// whose socket still holds bytes (`Conn::resumable`: no readiness
/// edge will announce them, and there is no tick to retry on).
fn service_conn(
    conn: &mut Conn,
    service: &Service,
    cfg: &HttpConfig,
    metrics: &NetMetrics,
    stall_stamp: &mut u64,
) {
    loop {
        if !conn.fill(metrics) {
            conn.dead = true;
            return;
        }
        // Redeemed before decoding as well as after: a line connection
        // runs its next command only once the reply ahead of it is out
        // of the batcher, and should do so in this pass, not the next.
        conn.resolve_tickets(metrics, *stall_stamp);
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
        conn.resolve_tickets(metrics, *stall_stamp);
        conn.flush(metrics);
        if conn.dead || !conn.resumable() {
            return;
        }
    }
}
