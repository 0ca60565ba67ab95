//! **fui-net** — the nonblocking event-loop HTTP/1.1 ingress for the
//! serving layer.
//!
//! The line protocol in `fui-service::net` is thread-per-connection:
//! fine for `nc`, hopeless for the ROADMAP's "heavy traffic from
//! millions of users" regime where tens of thousands of keep-alive
//! connections each carry a trickle of requests. This crate is the
//! real ingress path: one event-loop thread multiplexes every
//! connection over `epoll` readiness notifications (declared directly
//! against the libc that `std` already links — the container is
//! offline, so no `mio`/`libc` crates), with per-connection state
//! machines, edge-triggered read/write buffers, HTTP/1.1 keep-alive
//! and pipelining.
//!
//! * [`sys`] — the readiness poller: `epoll` on Linux, a degenerate
//!   always-ready fallback elsewhere;
//! * [`http`] — incremental, allocation-bounded request/response
//!   parsing with typed [`HttpError`]s (every malformed input answers
//!   `400`, never a panic or an unbounded allocation);
//! * [`conn`] — the per-connection state machine: buffered
//!   edge-triggered reads, a FIFO of response slots so pipelined
//!   requests answer in arrival order, buffered writes;
//! * [`server`] — the [`HttpServer`] event loop over the same
//!   [`fui_service::ShardedService`] engine as the line protocol.
//!
//! Route handling reuses `fui_service::net::execute_control` and
//! `render_reply`, so an HTTP body is byte-identical to the
//! line-protocol reply for the same operation — the testkit invariant
//! `check_http_matches_line_protocol` holds by construction, not by
//! parallel maintenance. `GET /rec` goes through the same
//! micro-batching submission queue; the event loop redeems tickets
//! nonblockingly ([`fui_service::Ticket::poll`]) so one slow query
//! never parks the thread that every other connection shares.
//!
//! Shed attribution reaches the status line: a queue-full or
//! missed-deadline shed answers `429 Too Many Requests`, a shed whose
//! in-flight window overlapped a snapshot rotation or landmark
//! refresh (the loop-stalling control operations) answers
//! `503 Service Unavailable`. Bodies stay `OVERLOADED` in both cases
//! — the transport carries the cause, the payload stays protocol-
//! identical.

#![warn(missing_docs)]

pub mod conn;
pub mod http;
pub mod server;
pub mod sys;

pub use http::{
    parse_request, parse_response, query_param, write_response, HttpError, HttpRequest,
    HttpResponse, Method, MAX_BODY, MAX_HEADERS, MAX_HEADER_BYTES, MAX_REQUEST_LINE,
};
pub use server::{HttpConfig, HttpServer};
