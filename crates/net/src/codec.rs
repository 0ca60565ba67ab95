//! The two spellings of the wire protocol.
//!
//! A `Codec` is everything that differs between a line connection
//! and an HTTP connection: *decode* turns buffered bytes into one
//! `Action` (usually a [`Command`] for the verb layer to execute)
//! plus whether the connection stays open, and *encode* frames a
//! finished reply. Everything else belongs to the connection and the
//! loop, which never ask which codec they carry.
//!
//! Both codecs hand `fui_service::wire` a verb and its tokens in the
//! same order, so a reply body cannot differ between them. The HTTP
//! codec finds the verb in `ROUTES`, the one table of each verb's
//! method, path and query parameters:
//!
//! | line verb | HTTP spelling |
//! |---|---|
//! | `REC <user> <topic> [top_n]` | `GET /rec?user=&topic=&top_n=` |
//! | `FOLLOW <follower> <followee> <topics>` | `POST /follow?follower=&followee=&topics=` |
//! | `UNFOLLOW <follower> <followee>` | `POST /unfollow?follower=&followee=` |
//! | `ROTATE` \| `REFRESH` \| `SNAPSHOT` | `POST /rotate` \| `/refresh` \| `/snapshot` |
//! | `EPOCH` \| `RESTORE` \| `STATS` \| `SLO` | `GET /epoch` \| `/restore` \| `/stats` \| `/slo` |
//! | `TRACE [n]` | `GET /trace?n=` |
//! | `QUIT` | `Connection: close` |
//! | — | `GET /health` → `OK HEALTH <epoch>` (liveness, not a verb) |
//!
//! HTTP status mapping: `OK` bodies answer `200`, `ERR` bodies `400`
//! (unknown paths `404`, wrong methods `405`), sheds answer `429`
//! (admission control: queue full or deadline missed) or `503` (the
//! shed's in-flight window overlapped a rotation/refresh stall). The
//! line codec answers `OVERLOADED` for both shed causes.

use fui_service::wire::{self, Command, ReplyClass};

use crate::http::{self, HttpRequest, Method, MAX_REQUEST_LINE};
use crate::server::NetMetrics;

/// Which spelling a listener (and every connection it accepts) speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Codec {
    /// HTTP/1.1 with keep-alive and pipelining.
    Http,
    /// One `\n`-terminated command per line.
    Line,
}

/// A reply's class as the HTTP status line sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    /// A protocol reply.
    Reply(ReplyClass),
    /// No verb lives at that path (HTTP only).
    NotFound,
    /// The path's verb answers to another method (HTTP only).
    NotAllowed,
}

/// What one decoded request asks for.
pub(crate) enum Action {
    /// Execute a verb.
    Run(Command),
    /// `GET /health`.
    Health,
    /// Answer this refusal without executing anything.
    Refuse(Class, String),
}

/// One request at the front of a read buffer: the bytes it spans,
/// whether the connection stays open after it, and what to answer
/// (`None`: nothing — a blank line, or `QUIT`).
pub(crate) struct Decoded {
    pub(crate) used: usize,
    pub(crate) keep_alive: bool,
    pub(crate) action: Option<Action>,
}

/// One HTTP endpoint: method, path, the verb it spells (`None`: the
/// liveness probe) and the query parameters that carry the verb's
/// tokens, in token order.
type Route = (
    Method,
    &'static str,
    Option<&'static str>,
    &'static [&'static str],
);

#[rustfmt::skip] // a table: one endpoint per row
const ROUTES: [Route; 12] = [
    (Method::Get,  "/rec",      Some("REC"),      &["user", "topic", "top_n"]),
    (Method::Post, "/follow",   Some("FOLLOW"),   &["follower", "followee", "topics"]),
    (Method::Post, "/unfollow", Some("UNFOLLOW"), &["follower", "followee"]),
    (Method::Post, "/rotate",   Some("ROTATE"),   &[]),
    (Method::Post, "/refresh",  Some("REFRESH"),  &[]),
    (Method::Get,  "/epoch",    Some("EPOCH"),    &[]),
    (Method::Post, "/snapshot", Some("SNAPSHOT"), &[]),
    (Method::Get,  "/restore",  Some("RESTORE"),  &[]),
    (Method::Get,  "/stats",    Some("STATS"),    &[]),
    (Method::Get,  "/slo",      Some("SLO"),      &[]),
    (Method::Get,  "/trace",    Some("TRACE"),    &["n"]),
    (Method::Get,  "/health",   None,             &[]),
];

impl Codec {
    /// Decodes the request at the front of `buf`: `Ok(None)` until it
    /// is complete, `Err(reason)` when the framing is broken beyond
    /// recovery (answer `ERR <reason>` and close).
    pub(crate) fn decode(self, buf: &[u8]) -> Result<Option<Decoded>, String> {
        match self {
            Codec::Http => {
                let parsed = http::parse_request(buf).map_err(|e| e.to_string())?;
                Ok(parsed.map(|(req, used)| Decoded {
                    used,
                    keep_alive: req.keep_alive,
                    action: Some(http_action(&req)),
                }))
            }
            Codec::Line => decode_line(buf),
        }
    }

    /// Frames one finished reply (`text` carries no line terminator).
    /// `stalled` says a rotation or refresh ran while the request
    /// waited; it only matters for a shed.
    pub(crate) fn encode(
        self,
        metrics: &NetMetrics,
        class: Class,
        stalled: bool,
        mut text: String,
        keep_alive: bool,
    ) -> Vec<u8> {
        text.push('\n');
        match self {
            Codec::Line => text.into_bytes(),
            Codec::Http => {
                let mut bytes = Vec::new();
                let status = http_status(metrics, class, stalled);
                http::write_response(&mut bytes, status, &text, keep_alive);
                bytes
            }
        }
    }
}

/// Parses a verb's tokens, turning a parse failure into its refusal.
fn command<'a>(verb: &str, tokens: impl Iterator<Item = &'a str>) -> Action {
    match Command::parse(verb, tokens) {
        Ok(command) => Action::Run(command),
        Err(reason) => {
            let (class, text) = wire::refusal(reason);
            Action::Refuse(Class::Reply(class), text)
        }
    }
}

fn http_action(req: &HttpRequest) -> Action {
    // Every path spells one verb under one method.
    let Some(&(method, _, verb, params)) = ROUTES.iter().find(|(_, path, ..)| *path == req.path)
    else {
        return Action::Refuse(Class::NotFound, format!("ERR unknown path {:?}", req.path));
    };
    if method != req.method {
        return Action::Refuse(
            Class::NotAllowed,
            format!(
                "ERR method {} not allowed for {}",
                req.method.as_str(),
                req.path
            ),
        );
    }
    match verb {
        None => Action::Health,
        // The request line cannot contain whitespace (it would not
        // have parsed), so raw query values are tokens as they stand.
        // A missing parameter ends the token list, which the parser
        // reports exactly as it does for a short line.
        Some(verb) => command(
            verb,
            params
                .iter()
                .map_while(|name| http::query_param(&req.query, name)),
        ),
    }
}

/// The status line for a reply class, counted under `net.http.*`.
fn http_status(metrics: &NetMetrics, class: Class, stalled: bool) -> u16 {
    let (status, counter) = match class {
        Class::Reply(ReplyClass::Ok) => (200, &metrics.status_ok),
        Class::Reply(ReplyClass::Err) => (400, &metrics.status_bad_request),
        Class::NotFound => (404, &metrics.status_not_found),
        Class::NotAllowed => (405, &metrics.status_not_found),
        // The stall, not the load, cost this request its deadline.
        Class::Reply(ReplyClass::Shed) if stalled => (503, &metrics.shed_rotation),
        Class::Reply(ReplyClass::Shed) => (429, &metrics.shed_overload),
    };
    counter.incr();
    status
}

fn decode_line(buf: &[u8]) -> Result<Option<Decoded>, String> {
    // A line, terminator included, fits the HTTP request-line ceiling
    // or the connection errors; nothing longer is ever scanned.
    let window = &buf[..buf.len().min(MAX_REQUEST_LINE)];
    let Some(end) = window.iter().position(|&b| b == b'\n') else {
        return if window.len() == MAX_REQUEST_LINE {
            Err("line too long".to_owned())
        } else {
            Ok(None)
        };
    };
    let line = String::from_utf8_lossy(&buf[..end]);
    let line = line.trim();
    let mut tokens = line.split_ascii_whitespace();
    let (keep_alive, action) = match tokens.next() {
        None => (true, None),
        Some(_) if line.eq_ignore_ascii_case("QUIT") => (false, None),
        Some(verb) => (true, Some(command(verb, tokens))),
    };
    Ok(Some(Decoded {
        used: end + 1,
        keep_alive,
        action,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_framing_is_bounded_and_tolerant() {
        assert!(matches!(Codec::Line.decode(b"REC 1 spo"), Ok(None)));
        let blank = Codec::Line.decode(b"  \r\nEPOCH\n").unwrap().unwrap();
        assert!(blank.used == 4 && blank.keep_alive && blank.action.is_none());
        let quit = Codec::Line.decode(b"quit\r\n").unwrap().unwrap();
        assert!(!quit.keep_alive && quit.action.is_none());

        // One byte under the ceiling still waits; at the ceiling the
        // connection errors, however much more is buffered.
        let almost = vec![b'A'; MAX_REQUEST_LINE - 1];
        assert!(matches!(Codec::Line.decode(&almost), Ok(None)));
        for len in [MAX_REQUEST_LINE, MAX_REQUEST_LINE * 8] {
            let mut long = vec![b'A'; len];
            long.push(b'\n');
            assert!(Codec::Line.decode(&long).is_err());
        }
    }
}
