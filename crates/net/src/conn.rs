//! Per-connection state machine.
//!
//! Each accepted socket owns a `Conn`: its listener's `Codec`, an
//! edge-triggered read buffer, a FIFO of response `Slot`s, and an
//! edge-triggered write buffer. The FIFO is what makes HTTP/1.1
//! pipelining correct — responses leave in request-arrival order, so
//! a control request parked behind an in-flight `GET /rec` waits for
//! that ticket to resolve before its (already rendered) bytes ship.
//!
//! A line connection promises more than reply order: commands take
//! effect one at a time, in the order sent, so a `REC` written ahead
//! of a `ROTATE` in the same segment is answered at the pre-rotate
//! epoch. It therefore decodes nothing while its newest reply still
//! waits on a ticket. (HTTP pipelining executes a control request as
//! soon as it is parsed, whatever is in flight ahead of it.)
//!
//! Backpressure: a connection with `MAX_PIPELINE` unanswered
//! requests stops reading, and a read buffer never grows past the HTTP
//! parser's own hard limits plus one maximal request body. A paused
//! connection leaves bytes in the socket that edge-triggered epoll
//! will not announce again, and the event loop has no tick to retry
//! on. The resume rule: `Conn::fill` remembers that it stopped at a
//! ceiling rather than at `WouldBlock`, and the loop's service pass
//! reads again — in the same pass — as soon as decoding or a flush
//! has moved the connection back under both ceilings
//! (`Conn::resumable`), until a round leaves it paused or drains the
//! socket. What un-pauses a connection is always something the loop
//! itself just did, so no other wakeup is needed.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;

use fui_service::{wire, Ticket};

use crate::codec::{Action, Class, Codec, Decoded};
use crate::http;
use crate::server::NetMetrics;

/// Ceiling on buffered-but-unparsed request bytes per connection; one
/// maximal head section plus one maximal body, so any single valid
/// request always fits.
const MAX_READ_BUF: usize = http::MAX_REQUEST_LINE + http::MAX_HEADER_BYTES + http::MAX_BODY;

/// Read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Unanswered requests per connection before reads pause. A constant:
/// it only has to be large enough that a pipelining client never
/// notices it and small enough to bound the slots one peer can pin.
const MAX_PIPELINE: usize = 1024;

/// One response owed to the peer, in request-arrival order.
pub(crate) enum Slot {
    /// Rendered and ready to ship.
    Done(Vec<u8>),
    /// A submitted `REC` whose ticket the event loop polls.
    Waiting(PendingRec),
}

/// Book-keeping for an in-flight recommendation request.
pub(crate) struct PendingRec {
    /// The batcher ticket (always `Some`; `Option` so resolution can
    /// move it out without juggling the queue).
    pub(crate) ticket: Option<Ticket>,
    /// Whether the request asked to keep the connection alive.
    pub(crate) keep_alive: bool,
    /// The server's stall stamp at submission; a different stamp at
    /// shed-resolution time means a rotation/refresh overlapped the
    /// request, which HTTP answers `503` instead of `429`.
    pub(crate) stall_stamp: u64,
}

/// One accepted connection.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) codec: Codec,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// Responses owed, FIFO.
    slots: VecDeque<Slot>,
    /// How many of `slots` are `Waiting`: bumped where one is pushed,
    /// dropped where the head resolves.
    waiting: usize,
    /// The last `fill` stopped at a backpressure ceiling, not at
    /// `WouldBlock`: the socket may hold bytes no edge will announce.
    undrained: bool,
    /// Stop reading/parsing; close once every owed byte is flushed.
    closing: bool,
    /// Drop now (I/O error, hangup, or graceful close completed).
    pub(crate) dead: bool,
    /// Requests parsed on this connection (keep-alive reuse = all but
    /// the first).
    requests: u64,
    /// Peer EOF seen; no more requests will arrive.
    eof: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, codec: Codec) -> Conn {
        Conn {
            stream,
            codec,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            slots: VecDeque::new(),
            waiting: 0,
            undrained: false,
            closing: false,
            dead: false,
            requests: 0,
            eof: false,
        }
    }

    /// Whether any owed response is still waiting on a ticket.
    pub(crate) fn has_waiting(&self) -> bool {
        self.waiting > 0
    }

    /// Whether a `fill` now would read bytes the last one left behind
    /// (the resume rule in the module docs).
    pub(crate) fn resumable(&self) -> bool {
        self.undrained && !self.paused()
    }

    /// Whether the pipeline is full enough to pause reads.
    fn paused(&self) -> bool {
        self.slots.len() >= MAX_PIPELINE || self.read_buf.len() >= MAX_READ_BUF
    }

    /// Edge-triggered read pass: drain the socket to `WouldBlock`,
    /// EOF, or the backpressure ceiling. Returns `false` on a hard
    /// I/O error: drop the connection.
    pub(crate) fn fill(&mut self, metrics: &NetMetrics) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        self.undrained = false;
        while !(self.closing || self.eof) {
            if self.paused() {
                // Deliberately left undrained; see `resumable`.
                self.undrained = true;
                break;
            }
            let room = READ_CHUNK.min(MAX_READ_BUF - self.read_buf.len());
            match self.stream.read(&mut chunk[..room]) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    metrics.read_bytes.add(n as u64);
                    self.read_buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Decodes as many complete requests as the buffer holds and the
    /// codec's ordering allows, handing each to `run`, which returns
    /// the slot owed for it.
    pub(crate) fn decode_requests<F>(&mut self, metrics: &NetMetrics, mut run: F)
    where
        F: FnMut(Action, bool) -> Slot,
    {
        while !self.closing {
            if self.codec == Codec::Line && matches!(self.slots.back(), Some(Slot::Waiting(_))) {
                break;
            }
            match self.codec.decode(&self.read_buf) {
                Ok(None) => {
                    if self.eof && !self.read_buf.is_empty() {
                        // The peer quit mid-request: still answer a
                        // typed error before closing, so truncation is
                        // observable, never silent.
                        self.fail(metrics, &http::HttpError::TruncatedRequest.to_string());
                    }
                    break;
                }
                Err(reason) => {
                    self.fail(metrics, &reason);
                    break;
                }
                Ok(Some(Decoded {
                    used,
                    keep_alive,
                    action,
                })) => {
                    self.read_buf.drain(..used);
                    if let Some(action) = action {
                        self.requests += 1;
                        if self.codec == Codec::Http {
                            metrics.requests.incr();
                        }
                        if self.requests > 1 {
                            metrics.keepalive_reuse.incr();
                        }
                        let slot = run(action, keep_alive);
                        self.waiting += usize::from(matches!(slot, Slot::Waiting(_)));
                        self.slots.push_back(slot);
                    }
                    if !keep_alive {
                        self.closing = true;
                        self.read_buf.clear();
                    }
                }
            }
        }
    }

    /// Redeems tickets in FIFO order up to the first one still queued,
    /// rendering each reply with the verb layer's renderer.
    /// `stall_stamp` is the server's current one (see
    /// [`PendingRec::stall_stamp`]).
    pub(crate) fn resolve_tickets(&mut self, metrics: &NetMetrics, stall_stamp: u64) {
        for slot in &mut self.slots {
            let Slot::Waiting(pending) = slot else {
                continue;
            };
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
            let bytes = self.codec.encode(
                metrics,
                Class::Reply(class),
                stalled,
                text,
                pending.keep_alive,
            );
            *slot = Slot::Done(bytes);
            self.waiting -= 1;
        }
    }

    /// Answers `ERR <reason>` for input the codec cannot frame and
    /// begins a graceful close (the owed responses ahead of it still
    /// ship first).
    fn fail(&mut self, metrics: &NetMetrics, reason: &str) {
        metrics.parse_errors.incr();
        let (class, text) = wire::refusal(reason);
        let bytes = self
            .codec
            .encode(metrics, Class::Reply(class), false, text, false);
        self.slots.push_back(Slot::Done(bytes));
        self.closing = true;
        self.read_buf.clear();
    }

    /// Moves every leading `Done` slot into the write buffer and
    /// flushes to `WouldBlock`. Marks the connection dead once a
    /// closing connection has shipped everything it owes.
    pub(crate) fn flush(&mut self, metrics: &NetMetrics) {
        while let Some(Slot::Done(_)) = self.slots.front() {
            let Some(Slot::Done(bytes)) = self.slots.pop_front() else {
                unreachable!("front checked above");
            };
            self.write_buf.extend_from_slice(&bytes);
        }
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    metrics.write_bytes.add(n as u64);
                    self.written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
            if self.slots.is_empty() && (self.closing || self.eof) {
                self.dead = true;
            }
        }
    }
}
