//! Incremental, allocation-bounded HTTP/1.1 parsing.
//!
//! [`parse_request`] is a pure function over the connection's read
//! buffer: it either yields one complete request plus the number of
//! bytes it consumed, reports that more bytes are needed, or fails
//! with a typed [`HttpError`]. Because it is pure and restartable, a
//! request split across any read boundary parses identically to the
//! same bytes arriving at once — the fuzz suite feeds byte-at-a-time
//! prefixes to prove it.
//!
//! Robustness contract (enforced by `tests/http_fuzz.rs`):
//!
//! * every malformed input yields a typed error (which the server
//!   answers with `400`), never a panic;
//! * no allocation is ever sized from attacker-controlled numbers: a
//!   `Content-Length` above [`MAX_BODY`] is rejected *before* any
//!   body byte is buffered, and the request line / header section
//!   have hard byte ceilings ([`MAX_REQUEST_LINE`],
//!   [`MAX_HEADER_BYTES`]) past which the connection errors rather
//!   than buffer further.
//!
//! The subset is deliberately small: `GET`/`POST`, `HTTP/1.0`/`1.1`,
//! `Content-Length` framing only (a `Transfer-Encoding` header is a
//! typed rejection), no percent-decoding of targets (the wire
//! protocol's tokens are plain ASCII identifiers). Bare-`LF` line
//! endings are tolerated on input, as HTTP recipients may.

use std::fmt;

/// Hard ceiling on the request-line length, bytes (including CRLF).
pub const MAX_REQUEST_LINE: usize = 4096;
/// Hard ceiling on the header section, bytes (after the request line).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Hard ceiling on the number of header fields.
pub const MAX_HEADERS: usize = 64;
/// Hard ceiling on a request body, bytes.
pub const MAX_BODY: usize = 64 * 1024;
/// Hard ceiling on a *response* body (client side; `STATS` is big).
pub const MAX_RESPONSE_BODY: usize = 8 * 1024 * 1024;

/// Typed parse failure; the server answers `400` with the rendered
/// reason and closes the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// No line terminator within [`MAX_REQUEST_LINE`] bytes.
    RequestLineTooLong,
    /// The request line is not `METHOD SP target SP HTTP/1.x`.
    MalformedRequestLine,
    /// A syntactically valid but unsupported method token.
    BadMethod(String),
    /// A version other than `HTTP/1.0` or `HTTP/1.1`.
    BadVersion(String),
    /// The target does not start with `/` or contains junk.
    BadTarget,
    /// The header section exceeds [`MAX_HEADER_BYTES`].
    HeaderSectionTooLarge,
    /// More than [`MAX_HEADERS`] header fields.
    TooManyHeaders,
    /// A header line without a `name: value` shape or with control
    /// bytes in it.
    MalformedHeader,
    /// `Content-Length` is not a plain decimal, or two copies
    /// disagree.
    BadContentLength,
    /// `Content-Length` exceeds [`MAX_BODY`] (or
    /// [`MAX_RESPONSE_BODY`] client-side); reported before any body
    /// byte is buffered.
    BodyTooLarge(u64),
    /// A `Transfer-Encoding` header (chunked bodies are out of
    /// scope).
    UnsupportedTransferEncoding,
    /// The peer closed the connection mid-request.
    TruncatedRequest,
    /// The status line is not `HTTP/1.x NNN reason` (client side).
    MalformedStatusLine,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::RequestLineTooLong => write!(f, "request line exceeds {MAX_REQUEST_LINE}B"),
            HttpError::MalformedRequestLine => write!(f, "malformed request line"),
            HttpError::BadMethod(m) => write!(f, "unsupported method {m:?}"),
            HttpError::BadVersion(v) => write!(f, "unsupported version {v:?}"),
            HttpError::BadTarget => write!(f, "bad request target"),
            HttpError::HeaderSectionTooLarge => {
                write!(f, "header section exceeds {MAX_HEADER_BYTES}B")
            }
            HttpError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            HttpError::MalformedHeader => write!(f, "malformed header"),
            HttpError::BadContentLength => write!(f, "bad content-length"),
            HttpError::BodyTooLarge(n) => write!(f, "body of {n}B exceeds limit"),
            HttpError::UnsupportedTransferEncoding => write!(f, "transfer-encoding unsupported"),
            HttpError::TruncatedRequest => write!(f, "truncated request"),
            HttpError::MalformedStatusLine => write!(f, "malformed status line"),
        }
    }
}

/// Supported request methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

impl Method {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Path component of the target (before `?`).
    pub path: String,
    /// Raw query string (after `?`, empty if absent).
    pub query: String,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Request body (bounded by [`MAX_BODY`]).
    pub body: Vec<u8>,
}

/// One parsed response (client side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// Response body.
    pub body: Vec<u8>,
}

/// Truncates a token for inclusion in an error (errors must never
/// echo unbounded attacker input).
fn clip(s: &str) -> String {
    const LIMIT: usize = 32;
    if s.len() <= LIMIT {
        s.to_owned()
    } else {
        let mut end = LIMIT;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Finds the next line (terminated by `\n`, optional `\r` stripped)
/// starting at `from`. Returns `(line, next_offset)`.
fn take_line(buf: &[u8], from: usize) -> Option<(&[u8], usize)> {
    let nl = buf[from..].iter().position(|&b| b == b'\n')?;
    let mut line = &buf[from..from + nl];
    if let [head @ .., b'\r'] = line {
        line = head;
    }
    Some((line, from + nl + 1))
}

fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Shared header-section scan: returns
/// `(content_length, connection_token, end_offset)` or `None` if the
/// section is still incomplete. `max_body` parameterises the bound so
/// responses (client side) may carry bigger payloads than requests.
#[allow(clippy::type_complexity)]
fn scan_headers(
    buf: &[u8],
    start: usize,
    max_body: usize,
) -> Result<Option<(usize, Option<String>, usize)>, HttpError> {
    let mut at = start;
    let mut count = 0usize;
    let mut content_length: Option<usize> = None;
    let mut connection: Option<String> = None;
    loop {
        if at - start > MAX_HEADER_BYTES {
            return Err(HttpError::HeaderSectionTooLarge);
        }
        let Some((line, next)) = take_line(buf, at) else {
            if buf.len() - start > MAX_HEADER_BYTES {
                return Err(HttpError::HeaderSectionTooLarge);
            }
            return Ok(None);
        };
        if next - start > MAX_HEADER_BYTES && !line.is_empty() {
            return Err(HttpError::HeaderSectionTooLarge);
        }
        at = next;
        if line.is_empty() {
            return Ok(Some((content_length.unwrap_or(0), connection, at)));
        }
        count += 1;
        if count > MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(HttpError::MalformedHeader)?;
        let (name, rest) = line.split_at(colon);
        if name.is_empty() || !name.iter().all(|&b| is_tchar(b)) {
            return Err(HttpError::MalformedHeader);
        }
        let value = &rest[1..];
        if !value
            .iter()
            .all(|&b| b == b'\t' || (0x20..0x7f).contains(&b))
        {
            return Err(HttpError::MalformedHeader);
        }
        let value = std::str::from_utf8(value)
            .map_err(|_| HttpError::MalformedHeader)?
            .trim();
        if name.eq_ignore_ascii_case(b"content-length") {
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::BadContentLength);
            }
            // Parse into u64 first so a 30-digit length reports
            // BodyTooLarge (with the claimed size) rather than a
            // generic parse failure — and never allocates.
            let n: u64 = value.parse().map_err(|_| HttpError::BadContentLength)?;
            if n > max_body as u64 {
                return Err(HttpError::BodyTooLarge(n));
            }
            let n = n as usize;
            if let Some(prev) = content_length {
                if prev != n {
                    return Err(HttpError::BadContentLength);
                }
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            return Err(HttpError::UnsupportedTransferEncoding);
        } else if name.eq_ignore_ascii_case(b"connection") {
            connection = Some(value.to_ascii_lowercase());
        }
    }
}

fn keep_alive_for(version: &str, connection: Option<&str>) -> bool {
    match connection {
        Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
        Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
        _ => version == "HTTP/1.1",
    }
}

/// Tries to parse one complete request from the front of `buf`.
///
/// * `Ok(Some((request, consumed)))` — a full request; the caller
///   drops `consumed` bytes from the buffer (pipelined requests
///   follow immediately after).
/// * `Ok(None)` — incomplete; read more and call again.
/// * `Err(_)` — protocol violation; answer `400` and close.
pub fn parse_request(buf: &[u8]) -> Result<Option<(HttpRequest, usize)>, HttpError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let Some((line, headers_start)) = take_line(buf, 0) else {
        if buf.len() > MAX_REQUEST_LINE {
            return Err(HttpError::RequestLineTooLong);
        }
        return Ok(None);
    };
    if headers_start > MAX_REQUEST_LINE {
        return Err(HttpError::RequestLineTooLong);
    }
    if !line.iter().all(|&b| (0x20..0x7f).contains(&b)) {
        return Err(HttpError::MalformedRequestLine);
    }
    let line = std::str::from_utf8(line).map_err(|_| HttpError::MalformedRequestLine)?;
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::MalformedRequestLine);
    };
    if method.is_empty() || target.is_empty() || version.is_empty() {
        return Err(HttpError::MalformedRequestLine);
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        m if m.bytes().all(is_tchar) => return Err(HttpError::BadMethod(clip(m))),
        _ => return Err(HttpError::MalformedRequestLine),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadVersion(clip(version)));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadTarget);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let Some((content_length, connection, body_start)) =
        scan_headers(buf, headers_start, MAX_BODY)?
    else {
        return Ok(None);
    };
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        HttpRequest {
            method,
            path: path.to_owned(),
            query: query.to_owned(),
            keep_alive: keep_alive_for(version, connection.as_deref()),
            body: buf[body_start..total].to_vec(),
        },
        total,
    )))
}

/// Tries to parse one complete response from the front of `buf`
/// (client side; same incremental contract as [`parse_request`]).
pub fn parse_response(buf: &[u8]) -> Result<Option<(HttpResponse, usize)>, HttpError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let Some((line, headers_start)) = take_line(buf, 0) else {
        if buf.len() > MAX_REQUEST_LINE {
            return Err(HttpError::MalformedStatusLine);
        }
        return Ok(None);
    };
    let line = std::str::from_utf8(line).map_err(|_| HttpError::MalformedStatusLine)?;
    let mut parts = line.splitn(3, ' ');
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(HttpError::MalformedStatusLine);
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadVersion(clip(version)));
    }
    let status: u16 = code.parse().map_err(|_| HttpError::MalformedStatusLine)?;
    if !(100..600).contains(&status) {
        return Err(HttpError::MalformedStatusLine);
    }

    let Some((content_length, connection, body_start)) =
        scan_headers(buf, headers_start, MAX_RESPONSE_BODY)?
    else {
        return Ok(None);
    };
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        HttpResponse {
            status,
            keep_alive: keep_alive_for(version, connection.as_deref()),
            body: buf[body_start..total].to_vec(),
        },
        total,
    )))
}

/// Looks up the first `key=value` pair in a raw query string.
/// `Some("")` for a bare `key` with no `=`. No percent-decoding: the
/// wire tokens are plain ASCII and a request target can never contain
/// whitespace (the request line would not have parsed), so values
/// are protocol tokens as they stand.
pub fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = match pair.split_once('=') {
            Some((k, v)) => (k, v),
            None => (pair, ""),
        };
        (k == key).then_some(v)
    })
}

/// The reason phrase for the status codes this server emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialises one response onto `out`. The body is carried verbatim
/// (the server passes the protocol reply plus `\n`, keeping the payload
/// bit-identical across codecs).
pub fn write_response(out: &mut Vec<u8>, status: u16, body: &str, keep_alive: bool) {
    use std::io::Write;
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.extend_from_slice(body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(s: &str) -> HttpRequest {
        let (r, consumed) = parse_request(s.as_bytes())
            .expect("parse ok")
            .expect("complete");
        assert_eq!(consumed, s.len());
        r
    }

    #[test]
    fn parses_a_minimal_get() {
        let r = req("GET /rec?user=3&topic=music HTTP/1.1\r\nHost: fui\r\n\r\n");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/rec");
        assert_eq!(r.query, "user=3&topic=music");
        assert!(r.keep_alive);
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_and_close() {
        let r = req("POST /rotate HTTP/1.1\r\nConnection: close\r\nContent-Length: 3\r\n\r\nabc");
        assert_eq!(r.method, Method::Post);
        assert!(!r.keep_alive);
        assert_eq!(r.body, b"abc");
    }

    #[test]
    fn http_10_defaults_to_close() {
        assert!(!req("GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(req("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
    }

    #[test]
    fn pipelined_requests_consume_exactly() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (first, used) = parse_request(wire).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let (second, used2) = parse_request(&wire[used..]).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn incomplete_asks_for_more() {
        let wire = b"GET /rec HTTP/1.1\r\nHost: fui\r\n\r\n";
        for cut in 0..wire.len() {
            assert_eq!(
                parse_request(&wire[..cut]).expect("prefix never errors"),
                None,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn oversized_content_length_rejected_before_body() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 999999999999999\r\n\r\n";
        assert_eq!(
            parse_request(wire),
            Err(HttpError::BodyTooLarge(999_999_999_999_999))
        );
    }

    #[test]
    fn query_params_resolve_first_match() {
        assert_eq!(query_param("user=3&topic=music", "user"), Some("3"));
        assert_eq!(query_param("user=3&topic=music", "topic"), Some("music"));
        assert_eq!(query_param("user=3&user=4", "user"), Some("3"));
        assert_eq!(query_param("flag&x=1", "flag"), Some(""));
        assert_eq!(query_param("x=1", "missing"), None);
    }

    #[test]
    fn response_round_trip() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK REC 1 0 2:0.5\n", true);
        let (resp, used) = parse_response(&out).unwrap().unwrap();
        assert_eq!(used, out.len());
        assert_eq!(resp.status, 200);
        assert!(resp.keep_alive);
        assert_eq!(resp.body, b"OK REC 1 0 2:0.5\n");
    }
}
