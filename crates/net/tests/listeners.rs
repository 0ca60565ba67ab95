//! Live-socket tests of both listeners (malformed input is
//! `tests/http_fuzz.rs`'s): HTTP keep-alive, pipelining and statuses;
//! line round trips over a fleet; the line protocol's order of effects;
//! and the wake protocol — the server has no timer, so a lost wakeup or
//! a paused connection nobody resumes shows here as a read that runs
//! into [`READ_TIMEOUT`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::{GraphBuilder, NodeId, PartitionStrategy};
use fui_net::{parse_response, HttpConfig, HttpServer};
use fui_service::{render_reply, Request, ServiceConfig, ShardSpec, ShardedService};
use fui_taxonomy::{SimMatrix, Topic, TopicSet};

/// Every client read gives up after this long, so a hang fails the
/// test that caused it.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    stream
}

/// The engine over a two-community graph: 0..5 a dense tech cluster,
/// 6..9 a chain.
fn engine(shards: usize) -> Arc<ShardedService> {
    engine_with(shards, ServiceConfig::default())
}

fn engine_with(shards: usize, cfg: ServiceConfig) -> Arc<ShardedService> {
    let mut b = GraphBuilder::new();
    let tech = TopicSet::single(Topic::Technology);
    for _ in 0..10 {
        b.add_node(tech);
    }
    for u in 0..5u32 {
        for v in (0..5u32).filter(|&v| v != u) {
            b.add_edge(NodeId(u), NodeId(v), tech);
        }
    }
    for u in 4..9u32 {
        b.add_edge(NodeId(u), NodeId(u + 1), tech);
    }
    Arc::new(ShardedService::new(
        b.build(),
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        vec![NodeId(2), NodeId(6)],
        50,
        cfg,
        ShardSpec::new(shards, PartitionStrategy::Hash),
    ))
}

fn http(shards: usize) -> (HttpServer, TcpStream) {
    let server =
        HttpServer::start(engine(shards), "127.0.0.1:0", HttpConfig::default()).expect("start");
    let stream = connect(server.local_addr());
    (server, stream)
}

/// A queue that admits a whole deep pipeline (the default capacity
/// would shed most of one at submission) and a pump that answers it as
/// one batch. The one batch is what gives the test below its teeth:
/// the pass that redeems it finds the connection paused at
/// `MAX_PIPELINE` with bytes still in the socket, empties the pipeline,
/// and leaves no ticket in flight — so no later wake pass can do the
/// reading that this pass skipped.
fn deep_queue() -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 8192,
        max_batch: 8192,
        ..ServiceConfig::default()
    }
}

/// Reads one HTTP response off `stream` (`buf` carries pipelined
/// leftovers between calls).
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, String) {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((resp, used)) = parse_response(buf).expect("well-formed response") {
            buf.drain(..used);
            return (resp.status, String::from_utf8(resp.body).expect("utf8"));
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed early; buffered {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn ask_http(stream: &mut TcpStream, request_line: &str) -> (u16, String) {
    let request = format!("{request_line} HTTP/1.1\r\nHost: f\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("write");
    read_response(stream, &mut Vec::new())
}

#[test]
fn http_serves_every_reply_class_over_keepalive() {
    let (server, mut c) = http(1);
    for (request, status, prefix) in [
        ("GET /health", 200, "OK HEALTH "),
        ("GET /rec?user=3&topic=technology", 200, "OK REC "),
        (
            "POST /follow?follower=1&followee=7&topics=technology",
            200,
            "OK FOLLOW\n",
        ),
        ("POST /rotate", 200, "OK ROTATE "),
        (
            "GET /rec?user=9999&topic=technology",
            400,
            "ERR unknown user",
        ),
        // Not durable: the persistence verbs exist over HTTP and refuse.
        ("POST /snapshot", 400, "ERR "),
        ("GET /restore", 400, "ERR "),
        ("GET /nope", 404, "ERR unknown path"),
        ("GET /rotate", 405, "ERR method GET not allowed for /rotate"),
        (
            "POST /health",
            405,
            "ERR method POST not allowed for /health",
        ),
    ] {
        let (code, body) = ask_http(&mut c, request);
        assert_eq!(code, status, "{request}: {body}");
        assert!(body.starts_with(prefix), "{request}: {body}");
    }
    server.shutdown();
}

#[test]
fn http_pipelined_requests_answer_in_order() {
    let (server, mut c) = http(1);
    // Two recs and an epoch, written back-to-back before any read.
    let wire = "GET /rec?user=1&topic=technology HTTP/1.1\r\nHost: f\r\n\r\n\
                GET /rec?user=2&topic=health HTTP/1.1\r\nHost: f\r\n\r\n\
                GET /epoch HTTP/1.1\r\nHost: f\r\n\r\n";
    c.write_all(wire.as_bytes()).expect("write");
    let mut buf = Vec::new();
    for prefix in ["OK REC ", "OK REC ", "OK EPOCH "] {
        let (code, body) = read_response(&mut c, &mut buf);
        assert_eq!(code, 200);
        assert!(body.starts_with(prefix), "{body}");
    }
    server.shutdown();
}

/// A line client that sends each command in one segment.
struct LineClient(BufReader<TcpStream>);

impl LineClient {
    fn connect(addr: SocketAddr) -> LineClient {
        LineClient(BufReader::new(connect(addr)))
    }

    fn send(&mut self, text: &str) {
        self.0.get_mut().write_all(text.as_bytes()).expect("write");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.0.read_line(&mut line).expect("read");
        assert!(line.ends_with('\n'), "server closed early after {line:?}");
        line.trim_end().to_owned()
    }

    fn ask(&mut self, cmd: &str) -> String {
        self.send(&format!("{cmd}\n"));
        self.read_line()
    }

    fn read_to_end(&mut self) -> String {
        let mut rest = String::new();
        self.0.read_to_string(&mut rest).expect("read until close");
        rest
    }
}

fn line(shards: usize) -> (HttpServer, LineClient) {
    let server = HttpServer::start_line(engine(shards), "127.0.0.1:0", HttpConfig::default())
        .expect("start");
    let client = LineClient::connect(server.local_addr());
    (server, client)
}

#[test]
fn line_listener_round_trips_over_a_fleet() {
    let (server, mut c) = line(2);

    // REC through the fleet serves the unsharded bits over the wire.
    let direct = engine(1).call(Request {
        user: NodeId(0),
        topic: Topic::Technology,
        top_n: 3,
    });
    assert_eq!(c.ask("REC 0 technology 3"), render_reply(&direct));

    assert_eq!(c.ask("FOLLOW 5 7 technology"), "OK FOLLOW");
    assert_eq!(c.ask("UNFOLLOW 5 7"), "OK UNFOLLOW");
    assert!(c.ask("ROTATE").starts_with("OK ROTATE "));
    assert!(c.ask("REFRESH").starts_with("OK REFRESH "));
    assert!(c.ask("REC 0 nonsense").starts_with("ERR "));
    assert!(c.ask("BOGUS").starts_with("ERR "));
    // Verbs in any case, CRLF and blank lines are tolerated.
    assert!(c.ask("\r\nepoch\r").starts_with("OK EPOCH "));

    // A multi-line reply is followed directly by the next reply.
    let header = c.ask("SHARDS");
    assert!(
        header.starts_with("OK SHARDS 2 strategy=hash cut_edges="),
        "got {header:?}"
    );
    for id in 0..2 {
        let row = c.read_line();
        assert!(row.starts_with(&format!("S {id} ")), "got {row:?}");
    }
    assert!(c.ask("SLO").starts_with("OK SLO window_secs="));

    c.send("QUIT\n");
    assert_eq!(c.read_to_end(), "", "QUIT closes without a reply");
    server.shutdown();
}

/// Sends `commands` one round trip at a time on one line connection
/// and as a single burst on another (fresh engines), and returns both
/// transcripts.
fn stepwise_and_burst(commands: &[&str], cfg: ServiceConfig) -> (String, String) {
    let start = || {
        let server =
            HttpServer::start_line(engine_with(1, cfg), "127.0.0.1:0", HttpConfig::default())
                .expect("start");
        let client = LineClient::connect(server.local_addr());
        (server, client)
    };

    let (server, mut c) = start();
    let mut stepwise = String::new();
    for cmd in commands {
        stepwise.push_str(&c.ask(cmd));
        stepwise.push('\n');
    }
    c.send("QUIT\n");
    server.shutdown();

    let (server, mut c) = start();
    c.send(&format!("{}\nQUIT\n", commands.join("\n")));
    let burst = c.read_to_end();
    server.shutdown();
    (stepwise, burst)
}

/// Commands on one line connection take effect in the order sent, so
/// a burst written in one segment answers exactly as the same commands
/// sent one at a time: each `REC` at the epoch, cache and graph state
/// its position implies. (HTTP pipelining makes no such promise.)
#[test]
fn a_line_burst_answers_like_the_same_commands_sent_one_at_a_time() {
    let commands = [
        "REC 0 technology 3",
        "FOLLOW 5 7 technology",
        "ROTATE",
        "REC 0 technology 3",
        "REC 0 technology 3",
        "EPOCH",
        "REC 5 technology 4",
        "UNFOLLOW 5 7",
        "REC 9 nonsense",
        "ROTATE",
        "REFRESH",
        "REC 5 technology 4",
        "EPOCH",
    ];
    let (stepwise, burst) = stepwise_and_burst(&commands, ServiceConfig::default());
    assert_eq!(burst, stepwise);
    // The mix does exercise the ordering: the first REC is answered
    // before the rotation written behind it, the second after it.
    let epochs: Vec<&str> = stepwise
        .lines()
        .filter_map(|l| l.strip_prefix("OK REC "))
        .map(|l| l.split(' ').next().expect("epoch"))
        .collect();
    assert_eq!(epochs.len(), 5);
    assert_eq!(epochs[0], "0");
    assert_ne!(epochs[1], "0");
}

/// The same promise for a burst longer than the read buffer's ceiling,
/// with a `ROTATE` in the middle: the connection pauses with bytes left
/// in the socket and must resume by itself — there is no tick to retry
/// on, and the client, done writing, sends no edge. The burst ends in
/// commands that need no ticket, so the pass that redeems the last
/// `REC` empties the buffer with nothing in flight: if that pass does
/// not read again, nothing ever will.
#[test]
fn a_line_burst_past_the_read_ceiling_resumes_and_answers_in_order() {
    const N: usize = 3000;
    let mut commands: Vec<&str> = (0..N)
        .map(|i| match i {
            1000.. => "REC 9 a-topic-no-taxonomy-has-so-this-line-is-refused",
            _ if i % 2 == 0 => "REC 0 technology 3",
            _ => "REC 5 technology 4",
        })
        .collect();
    commands[500] = "ROTATE";
    assert!(
        commands.iter().map(|c| c.len() + 1).sum::<usize>()
            > fui_net::MAX_REQUEST_LINE + fui_net::MAX_HEADER_BYTES + fui_net::MAX_BODY,
        "the burst must not fit one read buffer"
    );
    let (stepwise, burst) = stepwise_and_burst(&commands, ServiceConfig::default());
    assert_eq!(burst.lines().count(), N);
    assert!(burst == stepwise, "burst and stepwise transcripts differ");
}

/// One HTTP connection pipelines more requests than `MAX_PIPELINE`
/// (and more bytes than one read buffer) before reading anything; every
/// request is answered, in request order.
#[test]
fn http_pipeline_past_the_pause_ceiling_resumes_and_answers_in_order() {
    const N: usize = 3000;
    let server = HttpServer::start(
        engine_with(1, deep_queue()),
        "127.0.0.1:0",
        HttpConfig::default(),
    )
    .expect("start");
    let mut c = connect(server.local_addr());
    let target = |i: usize| format!("GET /rec?user={}&topic=technology&n={}", i % 10, 1 + i % 3);
    // One at a time first: the answers the burst must reproduce (asked
    // twice — a reply says whether the cache served it).
    for i in 0..30 {
        ask_http(&mut c, &target(i));
    }
    let expected: Vec<(u16, String)> = (0..30).map(|i| ask_http(&mut c, &target(i))).collect();
    assert!(expected.iter().all(|(code, _)| *code == 200));

    let wire: String = (0..N)
        .map(|i| format!("{} HTTP/1.1\r\nHost: f\r\n\r\n", target(i)))
        .collect();
    c.write_all(wire.as_bytes()).expect("write");
    let mut buf = Vec::new();
    for i in 0..N {
        assert_eq!(
            read_response(&mut c, &mut buf),
            expected[i % 30],
            "response {i}"
        );
    }
    server.shutdown();
}

/// A ticket resolves on the pump's wake, not on its connection's socket
/// traffic: B's `REC` is answered while only A is talking, and the
/// other way round.
#[test]
fn a_ticket_resolves_while_only_another_connection_has_traffic() {
    let (server, mut a) = http(1);
    let mut b = connect(server.local_addr());
    let rec = "GET /rec?user=3&topic=technology HTTP/1.1\r\nHost: f\r\n\r\n";
    for round in 0..100 {
        let (quiet, chatty) = if round % 2 == 0 {
            (&mut b, &mut a)
        } else {
            (&mut a, &mut b)
        };
        quiet.write_all(rec.as_bytes()).expect("write");
        let (code, body) = ask_http(chatty, "GET /health");
        assert_eq!(code, 200, "{body}");
        let (code, body) = read_response(quiet, &mut Vec::new());
        assert_eq!(code, 200, "{body}");
        assert!(body.starts_with("OK REC "), "{body}");
    }
    server.shutdown();
}

/// `pump()` counts answers, and a request that outlived its deadline in
/// the queue is resolved without being one: with a zero deadline every
/// `REC` is shed at drain, every `pump()` returns 0, and the loop must
/// still be woken for each.
#[test]
fn a_request_shed_at_its_deadline_is_still_answered() {
    let cfg = HttpConfig {
        deadline: Duration::ZERO,
    };
    let server = HttpServer::start(engine(1), "127.0.0.1:0", cfg).expect("start");
    let mut c = connect(server.local_addr());
    for _ in 0..50 {
        let (code, body) = ask_http(&mut c, "GET /rec?user=3&topic=technology");
        assert_eq!((code, body.as_str()), (429, "OVERLOADED\n"));
    }
    server.shutdown();
}

/// The structural floor: a cached `REC` on an idle server costs a
/// wakeup each way, not a timer period. (A tripwire with ~10x margin,
/// not a benchmark: a loop that sleeps on a 1 ms timer while a ticket
/// is in flight cannot meet it by construction.)
#[test]
fn a_cached_rec_round_trip_is_under_a_millisecond() {
    let (server, mut c) = http(1);
    let request = "GET /rec?user=3&topic=technology";
    ask_http(&mut c, request);
    let mut trips: Vec<Duration> = (0..300)
        .map(|_| {
            let sent = Instant::now();
            let (code, _) = ask_http(&mut c, request);
            assert_eq!(code, 200);
            sent.elapsed()
        })
        .collect();
    trips.sort_unstable();
    let median = trips[trips.len() / 2];
    assert!(median < Duration::from_millis(1), "median {median:?}");
    server.shutdown();
}

/// Shutdown with tickets in flight returns (both threads join), the
/// pump's final drain resolves every ticket still queued, and the
/// connection that owned some of them is closed rather than left open.
#[test]
fn shutdown_with_tickets_in_flight_joins_and_resolves_them() {
    let svc = engine(1);
    let server =
        HttpServer::start(Arc::clone(&svc), "127.0.0.1:0", HttpConfig::default()).expect("start");
    let mut c = connect(server.local_addr());
    let rec = "GET /rec?user=1&topic=technology HTTP/1.1\r\nHost: f\r\n\r\n";
    c.write_all(rec.repeat(100).as_bytes()).expect("write");
    // Submitted behind the server's back: nobody unparks the pump for
    // these, so some are still queued when shutdown begins.
    let tickets: Vec<_> = (0..50)
        .map(|u| {
            let req = Request {
                user: NodeId(u % 10),
                topic: Topic::Technology,
                top_n: 3,
            };
            svc.submit(req, None)
        })
        .collect();
    server.shutdown();

    assert_eq!(svc.queue_depth(), 0);
    for ticket in tickets.into_iter().flatten() {
        assert!(ticket.poll().is_ok(), "a queued ticket outlived shutdown");
    }
    // Closed (a reset, if requests were left unread), not left open.
    let mut rest = Vec::new();
    if let Err(e) = c.read_to_end(&mut rest) {
        assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
    }
}

/// Dropping the handle is shutting down: the threads exit, open
/// connections are closed and the port is free again. (`net.conns` is
/// one process-wide gauge shared with the tests running beside this
/// one, so the closed connection is observed from its client end.)
#[test]
fn dropping_the_server_stops_it_and_frees_the_port() {
    let (server, mut c) = http(1);
    let addr = server.local_addr();
    assert_eq!(ask_http(&mut c, "GET /health").0, 200);
    drop(server);

    let mut rest = Vec::new();
    assert_eq!(c.read_to_end(&mut rest).expect("closed by the server"), 0);
    TcpListener::bind(addr).expect("the listener is gone, so its port binds again");
}
