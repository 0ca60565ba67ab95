//! The open-loop driver.
//!
//! Arrivals are partitioned round-robin across keep-alive
//! connections; each connection runs one **writer** thread (sleeps
//! until the scheduled instant, then sends — never waiting for a
//! response, so offered load is independent of completion rate) and
//! one **reader** thread (drains responses in FIFO order, which is
//! exactly the order the server guarantees under pipelining). The
//! writer hands the reader `(send_instant, phase)` over a channel
//! *before* writing the request bytes, so every response can be
//! matched and timed without any in-band tagging.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::report::{Class, LoadReport, Sample};
use crate::schedule::{Arrival, Op, Schedule};
use fui_net::{parse_response, HttpResponse};

/// Driver knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Reader patience after the last send; a response slower than
    /// this counts as **lost** (and fails the zero-lost gate).
    pub drain_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connections: 8,
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Renders one operation as HTTP/1.1 request bytes.
fn render_http(op: &Op, out: &mut Vec<u8>) {
    match op {
        Op::Rec { user, topic, top_n } => out.extend_from_slice(
            format!("GET /rec?user={user}&topic={topic}&top_n={top_n} HTTP/1.1\r\n\r\n")
                .as_bytes(),
        ),
        Op::Follow {
            follower,
            followee,
            topics,
        } => out.extend_from_slice(
            format!(
                "POST /follow?follower={follower}&followee={followee}&topics={topics} HTTP/1.1\r\n\r\n"
            )
            .as_bytes(),
        ),
        Op::Unfollow { follower, followee } => out.extend_from_slice(
            format!("POST /unfollow?follower={follower}&followee={followee} HTTP/1.1\r\n\r\n")
                .as_bytes(),
        ),
        Op::Rotate => out.extend_from_slice(b"POST /rotate HTTP/1.1\r\n\r\n"),
        Op::Refresh => out.extend_from_slice(b"POST /refresh HTTP/1.1\r\n\r\n"),
    }
}

/// Classifies an HTTP response.
fn classify_http(resp: &HttpResponse) -> Class {
    match resp.status {
        200 => Class::Ok,
        429 => Class::Shed,
        503 => Class::ShedStall,
        _ => Class::Rejected,
    }
}

/// What one connection's reader hands back.
struct ConnOutcome {
    samples: Vec<Sample>,
    lost: u64,
}

/// Reads until `expected` responses have been matched against the
/// metadata channel, or patience runs out.
fn read_responses(
    mut stream: TcpStream,
    expected: usize,
    meta_rx: mpsc::Receiver<(Instant, usize)>,
    drain_timeout: Duration,
) -> ConnOutcome {
    stream
        .set_read_timeout(Some(drain_timeout))
        .expect("set_read_timeout");
    let mut samples = Vec::with_capacity(expected);
    let mut buf: Vec<u8> = Vec::new();
    let mut consumed = 0usize;
    let mut chunk = [0u8; 16 * 1024];
    'outer: while samples.len() < expected {
        // Drain every complete response already buffered.
        loop {
            let class = match parse_response(&buf[consumed..]) {
                Ok(Some((resp, used))) => {
                    consumed += used;
                    classify_http(&resp)
                }
                Ok(None) => break,
                Err(e) => panic!("malformed http response from server: {e}"),
            };
            let (sent_at, phase) = meta_rx.recv().expect("writer sends metadata before bytes");
            samples.push(Sample {
                phase,
                class,
                latency_ns: sent_at.elapsed().as_nanos() as u64,
            });
            if samples.len() == expected {
                break 'outer;
            }
        }
        if consumed > 0 {
            buf.drain(..consumed);
            consumed = 0;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // server closed; remainder is lost
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("read error: {e}"),
        }
    }
    ConnOutcome {
        lost: (expected - samples.len()) as u64,
        samples,
    }
}

/// Sends every assigned arrival at its scheduled instant. Returns
/// per-send lag (actual − scheduled), nanoseconds.
fn write_requests(
    mut stream: TcpStream,
    arrivals: Vec<Arrival>,
    start: Instant,
    meta_tx: mpsc::Sender<(Instant, usize)>,
) -> Vec<u64> {
    let mut lags = Vec::with_capacity(arrivals.len());
    let mut bytes = Vec::with_capacity(256);
    for a in arrivals {
        let target = start + Duration::from_nanos(a.at_ns);
        let now = Instant::now();
        if target > now {
            thread::sleep(target - now);
        }
        bytes.clear();
        render_http(&a.op, &mut bytes);
        let sent_at = Instant::now();
        lags.push(sent_at.saturating_duration_since(target).as_nanos() as u64);
        // Metadata first, bytes second: the response (and thus the
        // reader's recv) can only happen after this write lands.
        meta_tx.send((sent_at, a.phase)).expect("reader alive");
        stream.write_all(&bytes).expect("request write");
    }
    stream.flush().expect("flush");
    lags
}

/// Drives the schedule against `addr` and reports what happened.
///
/// Every arrival is sent at its precomputed instant regardless of
/// response progress (open loop); the report's `lost` field is the
/// number of requests still unanswered `drain_timeout` after their
/// send — the bench gate requires it to be zero.
pub fn drive(addr: SocketAddr, cfg: &ClientConfig, schedule: &Schedule) -> LoadReport {
    assert!(cfg.connections >= 1, "need at least one connection");
    let conns = cfg.connections;
    let mut per_conn: Vec<Vec<Arrival>> = (0..conns).map(|_| Vec::new()).collect();
    for (i, a) in schedule.arrivals.iter().enumerate() {
        per_conn[i % conns].push(a.clone());
    }

    let wall_start = Instant::now();
    // Small grace so every thread is parked before the first arrival.
    let start = wall_start + Duration::from_millis(20);
    let mut writer_handles = Vec::with_capacity(conns);
    let mut reader_handles = Vec::with_capacity(conns);
    for assigned in per_conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader_stream = stream.try_clone().expect("clone stream");
        let (meta_tx, meta_rx) = mpsc::channel();
        let expected = assigned.len();
        let drain = cfg.drain_timeout;
        reader_handles.push(
            thread::Builder::new()
                .name("fui-load-read".into())
                .spawn(move || read_responses(reader_stream, expected, meta_rx, drain))
                .expect("spawn reader"),
        );
        writer_handles.push(
            thread::Builder::new()
                .name("fui-load-write".into())
                .spawn(move || write_requests(stream, assigned, start, meta_tx))
                .expect("spawn writer"),
        );
    }

    let mut send_lags = Vec::new();
    for h in writer_handles {
        send_lags.extend(h.join().expect("writer thread"));
    }
    let mut samples = Vec::new();
    let mut lost = 0u64;
    for h in reader_handles {
        let outcome = h.join().expect("reader thread");
        samples.extend(outcome.samples);
        lost += outcome.lost;
    }
    let wall = wall_start.elapsed();

    let phase_meta: Vec<(&'static str, bool, f64)> = schedule
        .phases
        .iter()
        .map(|p| (p.name, p.overload, p.secs))
        .collect();
    LoadReport::from_samples(samples, &phase_meta, send_lags, lost, wall)
}
