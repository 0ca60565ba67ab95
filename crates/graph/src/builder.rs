//! Construction of a [`SocialGraph`]. One packer: how out-edges become
//! interned label ids is decided by [`StreamingBuilder::push_node`],
//! how rows become packed records and in-degree offsets by
//! `crate::rows::RowPacker`, and how the in-edge arenas are derived from
//! them by `transpose_out_csr`, and nowhere else. [`GraphBuilder`] is a
//! global sort in front of that packer and [`SocialGraph::edited`] a
//! sorted merge in front of it.

use fui_taxonomy::TopicSet;

use crate::csr::{LabelInterner, NodeId, SocialGraph};
use crate::pages::Pages;
use crate::rows::{self, RowPacker};

/// Builds the in-edge arenas (sources + label ids) as the counting-sort
/// transpose of a graph's out-rows, laid out by its in-offsets. Scratch
/// is one `u32` cursor per node; everything else lands directly in the
/// returned arrays.
pub(crate) fn transpose_out_csr(g: &SocialGraph) -> (Pages<NodeId>, Pages<u16>) {
    let m = g.num_edges();
    let mut cursor = g.in_offsets.clone();
    let mut in_sources = Pages::zeroed(m);
    let mut in_labels = Pages::zeroed(m);
    // Scanning followers in ascending id order keeps each node's
    // follower list sorted — the order every consumer relies on.
    for u in g.nodes() {
        for (label, v) in g.out_edges_by_label_id(u) {
            let slot = cursor[v.index()] as usize;
            in_sources[slot] = u;
            in_labels[slot] = label;
            cursor[v.index()] += 1;
        }
    }
    (in_sources, in_labels)
}

/// Builder accumulating nodes and labeled edges, then packing them into
/// the CSR [`SocialGraph`].
///
/// ```
/// use fui_graph::{GraphBuilder, Topic, TopicSet};
///
/// let mut b = GraphBuilder::new();
/// let alice = b.add_node(TopicSet::empty());
/// let bob = b.add_node(TopicSet::single(Topic::Technology));
/// b.add_edge(alice, bob, TopicSet::single(Topic::Technology));
/// let graph = b.build();
/// assert!(graph.followees(alice).eq([bob]));
/// assert_eq!(graph.followers(bob), &[alice]);
/// assert_eq!(graph.followers_on(bob, Topic::Technology), 1);
/// ```
///
/// Parallel edges between the same ordered pair are merged by unioning
/// their label sets (a follow relationship is unique; its labels are the
/// union of the interests that motivated it). Self-loops are rejected —
/// an account does not follow itself.
#[derive(Default)]
pub struct GraphBuilder {
    node_labels: Vec<TopicSet>,
    edges: Vec<(NodeId, NodeId, TopicSet)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Creates a builder with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> GraphBuilder {
        GraphBuilder {
            node_labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.node_labels.len()
    }

    /// Adds an account with the given publisher profile and returns its
    /// id.
    pub fn add_node(&mut self, labels: TopicSet) -> NodeId {
        let id = NodeId(u32::try_from(self.node_labels.len()).expect("node count fits in u32"));
        self.node_labels.push(labels);
        id
    }

    /// Adds `count` unlabeled accounts and returns the id of the first.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = NodeId(self.node_labels.len() as u32);
        self.node_labels
            .resize(self.node_labels.len() + count, TopicSet::empty());
        first
    }

    /// Records that `follower` follows `followee` with the given topics
    /// of interest.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added, or on a self-loop.
    pub fn add_edge(&mut self, follower: NodeId, followee: NodeId, labels: TopicSet) {
        assert!(
            follower.index() < self.node_labels.len() && followee.index() < self.node_labels.len(),
            "edge endpoints must be added before the edge"
        );
        assert_ne!(follower, followee, "an account cannot follow itself");
        self.edges.push((follower, followee, labels));
    }

    /// Packs everything into the immutable CSR graph: one global
    /// sort groups the edge list by follower, then each node's run is
    /// handed to the [`StreamingBuilder`], which owns the arena layout.
    pub fn build(mut self) -> SocialGraph {
        // Merge duplicate (follower, followee) pairs by unioning labels.
        self.edges.sort_unstable_by_key(|&(u, v, _)| (u.0, v.0));
        self.edges.dedup_by(|next, prev| {
            if prev.0 == next.0 && prev.1 == next.1 {
                prev.2 = prev.2.union(next.2);
                true
            } else {
                false
            }
        });
        let mut packer = StreamingBuilder::with_capacity(self.node_labels.len(), self.edges.len());
        let mut rest = self.edges.as_slice();
        let mut row = Vec::new();
        for (u, labels) in self.node_labels.into_iter().enumerate() {
            let run = rest.iter().take_while(|e| e.0.index() == u).count();
            row.clear();
            row.extend(rest[..run].iter().map(|&(_, v, l)| (v, l)));
            rest = &rest[run..];
            packer.push_node(labels, &mut row);
        }
        packer.finish()
    }
}

/// Streaming construction of a [`SocialGraph`]: nodes are pushed in id
/// order, each with its full out-edge list, and land directly in the
/// CSR arenas as one packed record per row — no intermediate edge list
/// is ever materialised, so peak memory is the final graph plus
/// `O(nodes)` scratch. The node count is declared up front: a row's
/// first target is written at `⌈log₂ n⌉` bits.
///
/// This is the ingestion path for paper-scale synthetic graphs
/// (`fui_datagen`'s streaming generator) and any edge source that can
/// deliver edges grouped by follower. [`GraphBuilder`] and
/// [`SocialGraph::edited`] feed it too, so the same logical graph is
/// **byte-identical** (`PartialEq` on the graphs holds) however it was
/// made, which the testkit differential suite pins.
///
/// ```
/// use fui_graph::{StreamingBuilder, Topic, TopicSet, NodeId};
///
/// let mut b = StreamingBuilder::new(2);
/// let mut scratch = Vec::new();
/// scratch.push((NodeId(1), TopicSet::single(Topic::Technology)));
/// let alice = b.push_node(TopicSet::empty(), &mut scratch);
/// scratch.clear();
/// let bob = b.push_node(TopicSet::single(Topic::Technology), &mut scratch);
/// let graph = b.finish();
/// assert!(graph.followees(alice).eq([bob]));
/// assert_eq!(graph.followers(bob), &[alice]);
/// ```
pub struct StreamingBuilder {
    /// The node count the stream declared.
    nodes: usize,
    node_labels: Pages<TopicSet>,
    packer: RowPacker,
    interner: LabelInterner,
    /// The row being packed: targets with interned label ids.
    row: Vec<(NodeId, u16)>,
}

impl StreamingBuilder {
    /// Creates a streaming builder for a graph of exactly `nodes`
    /// nodes.
    pub fn new(nodes: usize) -> StreamingBuilder {
        StreamingBuilder::with_capacity(nodes, 0)
    }

    /// Creates a streaming builder for a graph of exactly `nodes` nodes
    /// with its arenas sized up front for about `edges` edges — the
    /// bounded-memory entry point when the edge count is known (e.g.
    /// from a sampled degree sequence), avoiding reallocation spikes
    /// during the stream. The record stream is shrunk to its length at
    /// [`finish`](Self::finish).
    pub fn with_capacity(nodes: usize, edges: usize) -> StreamingBuilder {
        StreamingBuilder {
            nodes,
            node_labels: Pages::with_capacity(nodes),
            packer: RowPacker::new(nodes, rows::stream_estimate(nodes, edges)),
            interner: LabelInterner::new(),
            row: Vec::new(),
        }
    }

    /// Number of nodes pushed so far.
    pub fn num_nodes(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of out-edges appended so far (after per-node dedup).
    pub fn num_edges(&self) -> usize {
        self.packer.num_edges()
    }

    /// Appends the next node (id `num_nodes()`) with its publisher
    /// profile and out-edges. `edges` is caller-owned scratch: it is
    /// sorted and deduplicated in place (duplicate targets merge by
    /// label union, like [`GraphBuilder`]) and left that way, so one
    /// buffer serves the whole stream.
    ///
    /// Targets may reference nodes not pushed yet, below the declared
    /// node count.
    ///
    /// # Panics
    /// Panics on a self-loop, on a target or a node past the declared
    /// node count, or if the record stream would outgrow `u32` byte
    /// offsets.
    pub fn push_node(&mut self, labels: TopicSet, edges: &mut Vec<(NodeId, TopicSet)>) -> NodeId {
        let id = NodeId(u32::try_from(self.node_labels.len()).expect("node count fits in u32"));
        self.node_labels.push(labels);
        edges.sort_unstable_by_key(|&(v, _)| v.0);
        edges.dedup_by(|next, prev| {
            if prev.0 == next.0 {
                prev.1 = prev.1.union(next.1);
                true
            } else {
                false
            }
        });
        assert!(
            id.index() < self.nodes,
            "node {id} pushed past the declared {} nodes",
            self.nodes
        );
        self.row.clear();
        for &(v, l) in edges.iter() {
            assert_ne!(v, id, "an account cannot follow itself");
            assert!(
                v.index() < self.nodes,
                "edge targets node {v} but the graph has only {} nodes",
                self.nodes
            );
            self.row.push((v, self.interner.intern(l)));
        }
        self.packer.push(&self.row);
        id
    }

    /// Sums the in-degrees counted while packing into the in-offsets,
    /// yielding the finished graph. The in-edge arenas are not built
    /// here: the graph derives them on first use.
    ///
    /// # Panics
    /// Panics if fewer nodes were pushed than declared.
    pub fn finish(self) -> SocialGraph {
        assert_eq!(
            self.node_labels.len(),
            self.nodes,
            "fewer nodes pushed than declared"
        );
        SocialGraph::from_packed(
            self.node_labels,
            self.interner.into_table(),
            self.packer.finish(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_taxonomy::Topic;

    #[test]
    fn duplicate_edges_merge_labels() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(TopicSet::empty());
        let v = b.add_node(TopicSet::empty());
        b.add_edge(u, v, TopicSet::single(Topic::Technology));
        b.add_edge(u, v, TopicSet::single(Topic::Sports));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        let l = g.edge_label(u, v).unwrap();
        assert!(l.contains(Topic::Technology) && l.contains(Topic::Sports));
        g.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "cannot follow itself")]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(TopicSet::empty());
        b.add_edge(u, u, TopicSet::empty());
    }

    #[test]
    #[should_panic(expected = "must be added before")]
    fn dangling_edge_rejected() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(TopicSet::empty());
        b.add_edge(u, NodeId(7), TopicSet::empty());
    }

    #[test]
    fn add_nodes_bulk() {
        let mut b = GraphBuilder::new();
        let first = b.add_nodes(5);
        assert_eq!(first, NodeId(0));
        assert_eq!(b.num_nodes(), 5);
        let g = b.build();
        assert_eq!(g.num_nodes(), 5);
    }

    #[test]
    fn csr_offsets_are_monotone_and_complete() {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..6).map(|_| b.add_node(TopicSet::empty())).collect();
        // Star into node 0 plus a chain.
        for &u in &nodes[1..] {
            b.add_edge(u, nodes[0], TopicSet::single(Topic::Social));
        }
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], TopicSet::single(Topic::Health));
        }
        let g = b.build();
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.in_degree(nodes[0]), 5);
        let total_out: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let total_in: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        assert_eq!(total_out, g.num_edges());
        assert_eq!(total_in, g.num_edges());
        g.check_consistency().unwrap();
    }

    #[test]
    fn streaming_matches_batch_builder_exactly() {
        // Same logical graph through both construction paths: the
        // arenas must compare equal field for field, interned label
        // table included.
        let topics = [Topic::Technology, Topic::Sports, Topic::Business];
        let n = 40u32;
        let edge_list = |u: u32| -> Vec<(NodeId, TopicSet)> {
            let mut es = Vec::new();
            for k in 1..=(u % 5) {
                let v = (u + k * 7) % n;
                if v != u {
                    es.push((NodeId(v), TopicSet::single(topics[((u + k) % 3) as usize])));
                }
            }
            // A deliberate duplicate target to exercise dedup.
            if u % 6 == 0 && (u + 7) % n != u {
                es.push((NodeId((u + 7) % n), TopicSet::single(Topic::War)));
            }
            es
        };

        let mut batch = GraphBuilder::new();
        for u in 0..n {
            batch.add_node(TopicSet::single(topics[(u % 3) as usize]));
        }
        for u in 0..n {
            for (v, l) in edge_list(u) {
                batch.add_edge(NodeId(u), v, l);
            }
        }
        let expected = batch.build();

        let mut streaming = StreamingBuilder::new(n as usize);
        let mut scratch = Vec::new();
        for u in 0..n {
            scratch.clear();
            scratch.extend(edge_list(u));
            streaming.push_node(TopicSet::single(topics[(u % 3) as usize]), &mut scratch);
        }
        let got = streaming.finish();
        got.check_consistency().unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn streaming_allows_forward_references() {
        let mut b = StreamingBuilder::new(3);
        let mut scratch = vec![(NodeId(2), TopicSet::single(Topic::Social))];
        b.push_node(TopicSet::empty(), &mut scratch);
        scratch.clear();
        b.push_node(TopicSet::empty(), &mut scratch);
        scratch.clear();
        b.push_node(TopicSet::empty(), &mut scratch);
        let g = b.finish();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        g.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "cannot follow itself")]
    fn streaming_self_loop_rejected() {
        let mut b = StreamingBuilder::new(1);
        let mut scratch = vec![(NodeId(0), TopicSet::empty())];
        b.push_node(TopicSet::empty(), &mut scratch);
    }

    #[test]
    #[should_panic(expected = "has only 2 nodes")]
    fn streaming_target_past_the_declared_count_rejected() {
        let mut b = StreamingBuilder::new(2);
        let mut scratch = vec![(NodeId(9), TopicSet::empty())];
        b.push_node(TopicSet::empty(), &mut scratch);
    }

    #[test]
    #[should_panic(expected = "fewer nodes pushed than declared")]
    fn streaming_short_stream_rejected_at_finish() {
        let mut b = StreamingBuilder::new(2);
        b.push_node(TopicSet::empty(), &mut Vec::new());
        let _ = b.finish();
    }

    #[test]
    fn streaming_counts_emitted_edges() {
        let mut b = StreamingBuilder::new(3);
        let mut scratch = Vec::new();
        b.push_node(TopicSet::empty(), &mut scratch);
        scratch.push((NodeId(0), TopicSet::single(Topic::Social)));
        b.push_node(TopicSet::empty(), &mut scratch);
        scratch.clear();
        scratch.push((NodeId(0), TopicSet::single(Topic::Social)));
        scratch.push((NodeId(1), TopicSet::single(Topic::Social)));
        b.push_node(TopicSet::empty(), &mut scratch);
        assert_eq!(b.num_edges(), 3);
        let g = b.finish();
        assert_eq!(g.in_degree(NodeId(0)), 2);
    }
}
