//! Plain-text graph interchange: a TSV edge-list format with topic
//! labels, so real datasets (a Twitter crawl, a DBLP dump) can be fed
//! to the same scorers and harness as the synthetic generators.
//!
//! Format (UTF-8, `#` comments and blank lines ignored):
//!
//! ```text
//! # fui-graph v1
//! nodes <N>
//! node <id> <topic,topic,...>        # optional; missing = unlabeled
//! edge <follower> <followee> <topic,topic,...>
//! ```
//!
//! Node ids are dense `0..N`. Topic lists use the canonical names of
//! [`fui_taxonomy::Topic`] (empty list = `-`).

use std::fmt::Write as _;
use std::str::FromStr;

use fui_taxonomy::{Topic, TopicSet};

use crate::arena::MAX_NODES;
use crate::builder::GraphBuilder;
use crate::csr::{NodeId, SocialGraph};

/// Errors produced while parsing the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The `nodes <N>` header is missing or malformed.
    MissingHeader,
    /// A line could not be parsed; payload is (line number, content).
    BadLine(usize, String),
    /// A node id outside `0..N`.
    NodeOutOfRange(usize, u32),
    /// An unknown topic name.
    UnknownTopic(usize, String),
    /// An `edge k k` line — an account cannot follow itself; payload is
    /// (line number, id).
    SelfLoop(usize, u32),
    /// The header declares more nodes than [`MAX_NODES`]; payload is
    /// (line number, declared count).
    TooManyNodes(usize, u64),
    /// A second `nodes <N>` header, at this line number.
    DuplicateHeader(usize),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing `nodes <N>` header"),
            ParseError::BadLine(n, l) => write!(f, "line {n}: cannot parse {l:?}"),
            ParseError::NodeOutOfRange(n, id) => write!(f, "line {n}: node {id} out of range"),
            ParseError::UnknownTopic(n, t) => write!(f, "line {n}: unknown topic {t:?}"),
            ParseError::SelfLoop(n, id) => write!(f, "line {n}: node {id} follows itself"),
            ParseError::TooManyNodes(n, count) => {
                write!(
                    f,
                    "line {n}: {count} nodes exceeds the limit of {MAX_NODES}"
                )
            }
            ParseError::DuplicateHeader(n) => write!(f, "line {n}: second `nodes <N>` header"),
        }
    }
}

impl std::error::Error for ParseError {}

fn format_topics(set: TopicSet) -> String {
    if set.is_empty() {
        return "-".to_owned();
    }
    set.iter().map(|t| t.name()).collect::<Vec<_>>().join(",")
}

fn parse_topics(line_no: usize, field: &str) -> Result<TopicSet, ParseError> {
    if field == "-" {
        return Ok(TopicSet::empty());
    }
    let mut set = TopicSet::empty();
    for name in field.split(',').filter(|s| !s.is_empty()) {
        let t = Topic::from_str(name)
            .map_err(|_| ParseError::UnknownTopic(line_no, name.to_owned()))?;
        set.insert(t);
    }
    Ok(set)
}

/// Serialises a graph to the text format.
pub fn to_text(graph: &SocialGraph) -> String {
    let mut out = String::with_capacity(graph.num_edges() * 24 + graph.num_nodes() * 8);
    out.push_str("# fui-graph v1\n");
    let _ = writeln!(out, "nodes {}", graph.num_nodes());
    for u in graph.nodes() {
        let labels = graph.node_labels(u);
        if !labels.is_empty() {
            let _ = writeln!(out, "node {} {}", u.0, format_topics(labels));
        }
    }
    for (u, v, labels) in graph.edges() {
        let _ = writeln!(out, "edge {} {} {}", u.0, v.0, format_topics(labels));
    }
    out
}

/// Parses a graph from the text format.
pub fn from_text(text: &str) -> Result<SocialGraph, ParseError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut node_labels: Vec<(NodeId, TopicSet)> = Vec::new();
    let mut num_nodes = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("nodes") => {
                if builder.is_some() {
                    return Err(ParseError::DuplicateHeader(line_no));
                }
                let n: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::BadLine(line_no, raw.to_owned()))?;
                if n > MAX_NODES as u64 {
                    return Err(ParseError::TooManyNodes(line_no, n));
                }
                // Edge capacity grows with the edges actually read; the
                // header is outside input and promises nothing.
                let mut b = GraphBuilder::new();
                b.add_nodes(n as usize);
                num_nodes = n as usize;
                builder = Some(b);
            }
            Some("node") => {
                let id: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::BadLine(line_no, raw.to_owned()))?;
                if id as usize >= num_nodes {
                    return Err(ParseError::NodeOutOfRange(line_no, id));
                }
                let topics = parse_topics(line_no, parts.next().unwrap_or("-"))?;
                node_labels.push((NodeId(id), topics));
            }
            Some("edge") => {
                let b = builder.as_mut().ok_or(ParseError::MissingHeader)?;
                let u: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::BadLine(line_no, raw.to_owned()))?;
                let v: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::BadLine(line_no, raw.to_owned()))?;
                if u as usize >= num_nodes {
                    return Err(ParseError::NodeOutOfRange(line_no, u));
                }
                if v as usize >= num_nodes {
                    return Err(ParseError::NodeOutOfRange(line_no, v));
                }
                if u == v {
                    return Err(ParseError::SelfLoop(line_no, u));
                }
                let topics = parse_topics(line_no, parts.next().unwrap_or("-"))?;
                b.add_edge(NodeId(u), NodeId(v), topics);
            }
            _ => return Err(ParseError::BadLine(line_no, raw.to_owned())),
        }
    }
    let builder = builder.ok_or(ParseError::MissingHeader)?;
    let mut graph = builder.build();
    for (id, topics) in node_labels {
        graph.set_node_labels(id, topics);
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(TopicSet::single(Topic::Technology));
        let c = b.add_node(TopicSet::empty());
        let d = b.add_node(TopicSet::single(Topic::Social).with(Topic::Health));
        b.add_edge(a, c, TopicSet::single(Topic::Technology));
        b.add_edge(c, d, TopicSet::empty());
        b.add_edge(d, a, TopicSet::single(Topic::Health).with(Topic::Social));
        b.build()
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = sample();
        let text = to_text(&g);
        let back = from_text(&text).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
        for u in g.nodes() {
            assert_eq!(back.node_labels(u), g.node_labels(u));
        }
        for (u, v, labels) in g.edges() {
            assert_eq!(back.edge_label(u, v), Some(labels));
        }
        back.check_consistency().unwrap();
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hello\n\nnodes 2\n# mid comment\nedge 0 1 technology\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(
            from_text("edge 0 1 -\n").unwrap_err(),
            ParseError::MissingHeader
        );
        assert_eq!(from_text("").unwrap_err(), ParseError::MissingHeader);
    }

    #[test]
    fn unknown_topic_rejected() {
        let err = from_text("nodes 2\nedge 0 1 blockchainz\n").unwrap_err();
        assert!(matches!(err, ParseError::UnknownTopic(2, _)));
    }

    #[test]
    fn out_of_range_rejected() {
        let err = from_text("nodes 2\nedge 0 7 -\n").unwrap_err();
        assert_eq!(err, ParseError::NodeOutOfRange(2, 7));
    }

    #[test]
    fn self_loop_rejected() {
        let err = from_text("nodes 2\nedge 1 1 -\n").unwrap_err();
        assert_eq!(err, ParseError::SelfLoop(2, 1));
    }

    #[test]
    fn oversized_header_rejected_before_allocating() {
        let err = from_text("nodes 99999999999999999\n").unwrap_err();
        assert_eq!(err, ParseError::TooManyNodes(1, 99_999_999_999_999_999));
    }

    #[test]
    fn repeated_header_rejected() {
        let err = from_text("nodes 2\nedge 0 1 -\nnodes 2\n").unwrap_err();
        assert_eq!(err, ParseError::DuplicateHeader(3));
    }

    #[test]
    fn garbage_line_rejected() {
        let err = from_text("nodes 1\nfrobnicate\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(2, _)));
    }

    #[test]
    fn empty_labels_use_dash() {
        let g = sample();
        let text = to_text(&g);
        assert!(text.contains("edge 1 2 -"));
    }
}
