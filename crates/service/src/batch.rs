//! Micro-batching queue with admission control.
//!
//! Concurrent callers `submit` requests; a pump (a test/bench loop or
//! `fui-net`'s pump thread calling [`crate::Service::pump`]) drains
//! the queue in arrival order and answers one coalesced batch on the
//! `fui-exec` pool.
//!
//! Overload policy: the queue has a hard capacity; a submit against a
//! full queue is *shed* immediately with an explicit
//! [`Reply::Overloaded`](crate::Reply) — a caller is never
//! parked waiting for capacity, and every accepted request is
//! guaranteed a reply (the reply channel is owned by the queue entry,
//! so even a dropped service resolves waiters). Requests carry an
//! optional deadline checked at drain time; an expired request is shed
//! rather than computed.
//!
//! Every shed is attributed to an exact cause: `service.shed` is the
//! aggregate, with `service.shed.queue_full` (here, at submit),
//! `service.shed.deadline` (in the pump, at drain) and
//! `service.shed.disconnect` (in [`Ticket::wait`], when the queue
//! entry was dropped unanswered) partitioning it. Counter handles are
//! resolved once at construction, never name-looked-up per request.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

use fui_obs::{Counter, LatencyParts, TraceCapture, TraceEventKind, TraceMeta, TraceOutcome};

use crate::service::{Reply, Request};

/// One queued request with its reply channel and (when tracing is
/// active) its in-flight trace capture.
pub(crate) struct Pending {
    pub(crate) req: Request,
    pub(crate) deadline: Option<Instant>,
    pub(crate) tx: mpsc::Sender<Reply>,
    pub(crate) trace: Option<TraceCapture>,
}

/// Receiver half of a submitted request: redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Reply>,
    shed: Counter,
    shed_disconnect: Counter,
}

impl Ticket {
    /// Blocks until the pump answers. If the service is dropped with
    /// the request still queued, this resolves to
    /// [`Reply::Overloaded`] — a ticket never hangs — and the shed is
    /// attributed to `service.shed.disconnect` (nothing else counted
    /// it: the queue entry died without sending).
    pub fn wait(self) -> Reply {
        match self.rx.recv() {
            Ok(reply) => reply,
            Err(_) => {
                self.shed.incr();
                self.shed_disconnect.incr();
                Reply::Overloaded
            }
        }
    }

    /// Nonblocking redemption for event-loop frontends: `Ok` with the
    /// reply once the pump has answered, `Err(self)` while it is still
    /// queued (the ticket is handed back so the caller can poll again
    /// after the next pump). A dropped service resolves to
    /// [`Reply::Overloaded`] with the same `service.shed.disconnect`
    /// attribution as [`Ticket::wait`]; consuming `self` on resolution
    /// makes double-counting impossible.
    pub fn poll(self) -> Result<Reply, Ticket> {
        match self.rx.try_recv() {
            Ok(reply) => Ok(reply),
            Err(mpsc::TryRecvError::Empty) => Err(self),
            Err(mpsc::TryRecvError::Disconnected) => {
                self.shed.incr();
                self.shed_disconnect.incr();
                Ok(Reply::Overloaded)
            }
        }
    }
}

/// The bounded submission queue.
pub(crate) struct Batcher {
    queue: Mutex<VecDeque<Pending>>,
    capacity: usize,
    shed: Counter,
    shed_queue_full: Counter,
    shed_disconnect: Counter,
}

impl Batcher {
    /// A queue of at most `capacity` entries, charging sheds to the
    /// caller-resolved counter handles.
    pub(crate) fn new(
        capacity: usize,
        shed: Counter,
        shed_queue_full: Counter,
        shed_disconnect: Counter,
    ) -> Batcher {
        Batcher {
            queue: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            shed,
            shed_queue_full,
            shed_disconnect,
        }
    }

    /// Enqueues a request, or sheds it if the queue is full. A live
    /// trace capture rides along in the queue entry; on a shed it is
    /// finished right here with the queue-full cause.
    pub(crate) fn submit(
        &self,
        req: Request,
        deadline: Option<Instant>,
        trace: Option<TraceCapture>,
    ) -> Result<Ticket, Reply> {
        let mut q = self.queue.lock().expect("batch queue poisoned");
        if q.len() >= self.capacity {
            drop(q);
            self.shed.incr();
            self.shed_queue_full.incr();
            if let Some(cap) = trace {
                let queue_ns =
                    u64::try_from(cap.started_at().elapsed().as_nanos()).unwrap_or(u64::MAX);
                cap.finish(
                    trace_meta(&req),
                    TraceOutcome::ShedQueueFull,
                    LatencyParts {
                        queue_ns,
                        ..LatencyParts::default()
                    },
                );
            }
            return Err(Reply::Overloaded);
        }
        let mut trace = trace;
        if let Some(cap) = trace.as_mut() {
            cap.event(TraceEventKind::Enqueue, q.len() as u64);
        }
        let (tx, rx) = mpsc::channel();
        q.push_back(Pending {
            req,
            deadline,
            tx,
            trace,
        });
        Ok(Ticket {
            rx,
            shed: self.shed,
            shed_disconnect: self.shed_disconnect,
        })
    }

    /// Pops up to `max` requests in arrival order.
    pub(crate) fn drain(&self, max: usize) -> Vec<Pending> {
        let mut q = self.queue.lock().expect("batch queue poisoned");
        let n = q.len().min(max);
        q.drain(..n).collect()
    }

    /// Current queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.queue.lock().expect("batch queue poisoned").len()
    }
}

/// A dropped service (a restart, in practice) must account for every
/// request still queued: each one is *sent* an explicit
/// [`Reply::Overloaded`] and charged to `service.shed` /
/// `service.shed.disconnect` right here. Without this, an entry whose
/// ticket was never redeemed would vanish from the counters entirely —
/// `answered + shed` would undercount accepted requests (the
/// [`Ticket::wait`] disconnect arm only fires if the waiter asks).
/// `wait` still backstops the send: a delivered `Overloaded` makes it
/// return `Ok`, so nothing is double-counted.
impl Drop for Batcher {
    fn drop(&mut self) {
        let Ok(mut q) = self.queue.lock() else {
            return;
        };
        for p in q.drain(..) {
            self.shed.incr();
            self.shed_disconnect.incr();
            if let Some(cap) = p.trace {
                let queue_ns =
                    u64::try_from(cap.started_at().elapsed().as_nanos()).unwrap_or(u64::MAX);
                cap.finish(
                    trace_meta(&p.req),
                    TraceOutcome::ShedDisconnect,
                    LatencyParts {
                        queue_ns,
                        ..LatencyParts::default()
                    },
                );
            }
            let _ = p.tx.send(Reply::Overloaded);
        }
    }
}

/// The trace identity of a request (obs speaks indices, not topics).
pub(crate) fn trace_meta(req: &Request) -> TraceMeta {
    TraceMeta {
        user: req.user.0,
        topic: req.topic.index() as u16,
        top_n: u32::try_from(req.top_n).unwrap_or(u32::MAX),
    }
}
