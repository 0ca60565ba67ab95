//! Live-socket tests of both listeners (malformed input is
//! `tests/http_fuzz.rs`'s): HTTP keep-alive, pipelining and statuses;
//! line round trips over a fleet; the line protocol's order of effects.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use fui_core::{ScoreParams, ScoreVariant};
use fui_graph::{GraphBuilder, NodeId, PartitionStrategy};
use fui_net::{parse_response, HttpConfig, HttpServer};
use fui_service::{render_reply, Request, ServiceConfig, ShardSpec, ShardedService};
use fui_taxonomy::{SimMatrix, Topic, TopicSet};

/// The engine over a two-community graph: 0..5 a dense tech cluster,
/// 6..9 a chain.
fn engine(shards: usize) -> Arc<ShardedService> {
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
        ServiceConfig::default(),
        ShardSpec::new(shards, PartitionStrategy::Hash),
    ))
}

fn http(shards: usize) -> (HttpServer, TcpStream) {
    let server =
        HttpServer::start(engine(shards), "127.0.0.1:0", HttpConfig::default()).expect("start");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    (server, stream)
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
        LineClient(BufReader::new(TcpStream::connect(addr).expect("connect")))
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

    let (server, mut c) = line(1);
    let mut stepwise = String::new();
    for cmd in commands {
        stepwise.push_str(&c.ask(cmd));
        stepwise.push('\n');
    }
    c.send("QUIT\n");
    server.shutdown();

    let (server, mut c) = line(1);
    c.send(&format!("{}\nQUIT\n", commands.join("\n")));
    let burst = c.read_to_end();
    server.shutdown();

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
