//! **fui-net** — the serving layer's front door: the one nonblocking
//! event loop, speaking both spellings of the wire protocol.
//!
//! This is the only crate in the workspace that opens a listening
//! socket. One event-loop thread multiplexes every connection over
//! `epoll` readiness notifications (declared directly against the libc
//! that `std` already links — the container is offline, so no
//! `mio`/`libc` crates), with per-connection state machines,
//! edge-triggered read/write buffers, keep-alive and pipelining; one
//! pump thread answers the engine's submission queue. Neither polls:
//! the loop sleeps in the poller until a socket or the pump wakes it,
//! the pump parks until the loop hands it a ticket (the protocol and
//! why it loses no wakeup: [`server`]). A listener
//! speaks HTTP/1.1 ([`HttpServer::start`]) or the `nc`-friendly line
//! protocol ([`HttpServer::start_line`]); the difference is a codec,
//! not a server.
//!
//! * [`sys`] — the readiness poller and its wake descriptor: `epoll`
//!   plus an `eventfd` on Linux, a degenerate always-ready fallback
//!   elsewhere;
//! * [`http`] — incremental, allocation-bounded request/response
//!   parsing with typed [`HttpError`]s (every malformed input answers
//!   `400`, never a panic or an unbounded allocation);
//! * [`codec`] — the two codecs and the verb table: bytes in, one
//!   `fui_service::wire::Command` out; a reply in, framed bytes out
//!   (for HTTP, the status line chosen from the reply's class);
//! * [`conn`] — the per-connection state machine: buffered
//!   edge-triggered reads, a FIFO of response slots so pipelined
//!   requests answer in arrival order, buffered writes, and the rule
//!   by which a connection paused by backpressure resumes;
//! * [`server`] — the event loop and pump over the
//!   [`fui_service::Service`] engine.
//!
//! Both codecs parse into and execute through `fui_service::wire`, so
//! an HTTP body is byte-identical to the line reply for the same
//! operation — the testkit invariant
//! `check_http_matches_line_protocol` holds by construction, not by
//! parallel maintenance. `REC` goes through the micro-batching
//! submission queue; the loop redeems tickets nonblockingly
//! ([`fui_service::Ticket::poll`]) so one slow query never parks the
//! thread that every other connection shares.
//!
//! Frontend tuning is one value, [`HttpConfig::deadline`] (interactive
//! serving sheds after 2 s; the 1M-node benchmark fixture waits out
//! multi-second rotations). The accept ceiling and pipeline bound are
//! constants, documented where they are defined; there is no batch
//! window.
//!
//! Shed attribution reaches the HTTP status line (`429` for load,
//! `503` for a rotation/refresh stall — see [`codec`]); bodies stay
//! `OVERLOADED` in both cases, so the payload is protocol-identical.

#![warn(missing_docs)]

pub mod codec;
pub mod conn;
pub mod http;
pub mod server;
pub mod sys;

pub use http::{
    parse_request, parse_response, query_param, write_response, HttpError, HttpRequest,
    HttpResponse, Method, MAX_BODY, MAX_HEADERS, MAX_HEADER_BYTES, MAX_REQUEST_LINE,
};
pub use server::{HttpConfig, HttpServer};
