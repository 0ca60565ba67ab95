//! Immutable CSR storage for the labeled follow graph.
//!
//! The graph stores its edges once, in the **out** direction: for each
//! user `u`, in compressed sparse row form, the accounts `u` follows
//! (the *publishers* of `u`) — the direction score propagation and the
//! k-vicinity BFS traverse. Of the **in** direction it stores only the
//! offsets, so `|Γu|` ([`SocialGraph::in_degree`]) is one subtraction.
//! The follower lists themselves (sources + label ids) are the
//! transpose of the out-CSR: [`SocialGraph::followers`],
//! [`SocialGraph::in_edges`] and [`SocialGraph::followers_on`] derive
//! them on their first call, once, and nothing on the serving path
//! makes that call — authority counts scatter from the out-CSR.
//!
//! # Compact layout
//!
//! Every arena is sized for the paper's operating point (millions of
//! nodes, tens of millions of edges), so the layout is deliberately
//! narrow:
//!
//! * edge labels are **interned**: each distinct [`TopicSet`] is stored
//!   once in a shared label table, in first-seen order over the out-row
//!   scan, and every edge carries an id into it. Real follow graphs
//!   have a tiny number of distinct label sets relative to edges;
//! * each out-row is **one packed record** (`crate::rows`): the degree,
//!   a gap width and a label width, then the first target at
//!   `⌈log₂ n⌉` bits and `(gap − 1, label id)` fields at the row's
//!   widths. Sorted rows have small gaps, so an edge costs ~3.1 bytes
//!   (1M nodes × 8) instead of a `u32` target plus a `u16` label id;
//! * CSR offsets are `u32` — the out offsets are byte offsets into the
//!   record stream, the in offsets edge counts.
//!
//! The steady-state cost is therefore ~12 bytes per node
//! (`node_labels` + two offset arrays) plus the record stream, and
//! 6 bytes per edge more once the in-edge arenas have been derived,
//! which [`SocialGraph::memory_footprint`] reports exactly.

use fui_taxonomy::{Topic, TopicSet, NUM_TOPICS};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use crate::builder::{transpose_out_csr, StreamingBuilder};
use crate::rows::{self, OutRow, PackedRows, RowPacker};

/// Identifier of a user account: a dense index in `0..graph.num_nodes()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A labeled edge incident to some node, yielded by the adjacency
/// iterators: the node at the other end plus the edge's topic labels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EdgeRef {
    /// The neighbour at the other end of the edge.
    pub node: NodeId,
    /// Topics of interest labeling the follow relationship.
    pub labels: TopicSet,
}

/// Interns distinct edge label sets into a shared table of first-seen
/// order; the packer and [`SocialGraph::relabel`] go through this so
/// logically-equal graphs get byte-identical label arenas.
pub(crate) struct LabelInterner {
    table: Vec<TopicSet>,
    /// Per label-set mask, its id + 1 (0: not seen yet) — a dense
    /// table over the `2^NUM_TOPICS` masks (1 MiB), so interning an
    /// edge is one load, not a hash.
    ids: Vec<u32>,
}

impl LabelInterner {
    pub(crate) fn new() -> LabelInterner {
        LabelInterner {
            table: Vec::new(),
            ids: vec![0; 1 << NUM_TOPICS],
        }
    }

    /// The id of `labels`, allocating the next table slot on first
    /// sight.
    ///
    /// # Panics
    /// Panics if a 65537th distinct label set shows up — the `u16`
    /// per-edge id would overflow. (18 topics admit 2^18 subsets in
    /// principle; observed follow graphs use a few hundred.)
    pub(crate) fn intern(&mut self, labels: TopicSet) -> u16 {
        let slot = &mut self.ids[labels.mask() as usize];
        if *slot != 0 {
            return (*slot - 1) as u16;
        }
        let id = u16::try_from(self.table.len())
            .expect("more than 65536 distinct edge label sets; widen the interned label id");
        self.table.push(labels);
        *slot = u32::from(id) + 1;
        id
    }

    pub(crate) fn into_table(self) -> Vec<TopicSet> {
        self.table
    }
}

/// Exact memory accounting of a [`SocialGraph`]'s arenas, split into
/// node-proportional and edge-proportional bytes so bench manifests can
/// gate `graph.bytes_per_node` / `graph.bytes_per_edge` ceilings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Number of nodes covered.
    pub nodes: usize,
    /// Number of edges covered.
    pub edges: usize,
    /// Node-proportional bytes: per-node labels plus both offset
    /// arrays.
    pub node_bytes: usize,
    /// Edge-proportional bytes: the packed out-row stream (targets and
    /// their interned label ids, with each row's header and its
    /// padding), and the in-edge arenas' sources and label ids once
    /// they have been derived.
    pub edge_bytes: usize,
    /// The shared interned label table (one [`TopicSet`] per distinct
    /// edge label set; amortised over the whole graph).
    pub label_table_bytes: usize,
}

impl MemoryFootprint {
    /// All arenas together.
    pub fn total_bytes(&self) -> usize {
        self.node_bytes + self.edge_bytes + self.label_table_bytes
    }

    /// Node-proportional bytes per node (0 for an empty graph).
    pub fn bytes_per_node(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.node_bytes as f64 / self.nodes as f64
        }
    }

    /// Edge-proportional bytes per edge (0 for an edgeless graph).
    pub fn bytes_per_edge(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.edge_bytes as f64 / self.edges as f64
        }
    }
}

/// Immutable directed labeled graph: the out-CSR plus in-offsets.
///
/// Construct it through [`crate::GraphBuilder`] (edge-list batch) or
/// [`crate::StreamingBuilder`] (per-node streaming, bounded scratch),
/// and derive one from another with [`SocialGraph::edited`]. All three
/// end in the same packer, so the same logical graph always has
/// byte-identical arenas, which `PartialEq` compares directly. The
/// in-edge arenas are derived state and take no part in `==`: a graph
/// whose followers were read equals an untouched copy.
#[derive(Clone)]
pub struct SocialGraph {
    pub(crate) node_labels: Vec<TopicSet>,
    /// Shared table of distinct edge label sets, first-seen order over
    /// the sorted out-edge scan.
    pub(crate) label_table: Vec<TopicSet>,
    // Out direction: who each node follows, one packed record per row
    // (`crate::rows`); `out_offsets` are byte offsets into `out_rows`.
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_rows: Vec<u8>,
    pub(crate) num_edges: usize,
    /// Bits of a row's first target, `⌈log₂ n⌉`.
    target_width: u32,
    /// In-degree prefix sums: `|Γu|` without the follower lists.
    pub(crate) in_offsets: Vec<u32>,
    /// Who follows each node, laid out by `in_offsets`: the transpose
    /// of the out arenas, derived on first use.
    in_edges: OnceLock<InEdges>,
}

/// The in-edge arenas: each follower id and its edge's interned label
/// id, grouped by followee.
#[derive(Clone)]
struct InEdges {
    sources: Vec<NodeId>,
    labels: Vec<u16>,
}

impl PartialEq for SocialGraph {
    fn eq(&self, other: &SocialGraph) -> bool {
        self.node_labels == other.node_labels
            && self.label_table == other.label_table
            && self.out_offsets == other.out_offsets
            && self.out_rows == other.out_rows
            && self.in_offsets == other.in_offsets
    }
}

impl SocialGraph {
    /// Wraps finished out arenas and their in-offsets, leaving the
    /// in-edge arenas underived. Every packer and the arena decoder end
    /// here.
    pub(crate) fn from_packed(
        node_labels: Vec<TopicSet>,
        label_table: Vec<TopicSet>,
        packed: PackedRows,
    ) -> SocialGraph {
        SocialGraph {
            target_width: rows::target_width(node_labels.len()),
            node_labels,
            label_table,
            out_offsets: packed.offsets,
            out_rows: packed.stream,
            num_edges: packed.edges,
            in_offsets: packed.in_offsets,
            in_edges: OnceLock::new(),
        }
    }

    /// The in-edge arenas, transposed from the out-CSR on the first
    /// call.
    fn in_arenas(&self) -> &InEdges {
        self.in_edges.get_or_init(|| {
            let (sources, labels) = transpose_out_csr(self);
            InEdges { sources, labels }
        })
    }

    #[inline]
    fn out_range(&self, u: NodeId) -> Range<usize> {
        self.out_offsets[u.index()] as usize..self.out_offsets[u.index() + 1] as usize
    }

    #[inline]
    fn in_range(&self, u: NodeId) -> Range<usize> {
        self.in_offsets[u.index()] as usize..self.in_offsets[u.index() + 1] as usize
    }

    #[inline]
    fn label(&self, id: u16) -> TopicSet {
        self.label_table[id as usize]
    }

    /// Number of user accounts.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of follow edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of distinct edge label sets in the shared table.
    pub fn num_label_sets(&self) -> usize {
        self.label_table.len()
    }

    /// The shared table of distinct edge label sets, indexed by the
    /// label ids of [`out_edges_by_label_id`](Self::out_edges_by_label_id).
    pub fn label_sets(&self) -> &[TopicSet] {
        &self.label_table
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Topics the account publishes on (`labelN`).
    #[inline]
    pub fn node_labels(&self, u: NodeId) -> TopicSet {
        self.node_labels[u.index()]
    }

    /// Replaces the publisher profile of a node.
    pub fn set_node_labels(&mut self, u: NodeId, labels: TopicSet) {
        self.node_labels[u.index()] = labels;
    }

    /// Number of accounts `u` follows (out-degree; the paper's
    /// "publishers of u").
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_edges_by_label_id(u).len()
    }

    /// Number of followers of `u` — `|Γu|` (in-degree).
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        (self.in_offsets[u.index() + 1] - self.in_offsets[u.index()]) as usize
    }

    /// The accounts `u` follows (targets of out-edges), ascending.
    #[inline]
    pub fn followees(&self, u: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.out_edges_by_label_id(u).map(|(_, v)| v)
    }

    /// The followers of `u` — the set `Γu` (sources of in-edges). The
    /// first call on a graph derives its in-edge arenas (6 B/edge).
    #[inline]
    pub fn followers(&self, u: NodeId) -> &[NodeId] {
        &self.in_arenas().sources[self.in_range(u)]
    }

    /// Labeled out-edges of `u`: `(followee, edge labels)` pairs.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.out_edges_by_label_id(u).map(|(id, node)| EdgeRef {
            node,
            labels: self.label(id),
        })
    }

    /// Out-edges of `u` as `(label id, followee)` pairs in followee
    /// order, the id indexing [`label_sets`](Self::label_sets) — a
    /// scorer keeps one derived value per distinct label set and reads
    /// it by the stored id. Decodes `u`'s packed record in place.
    #[inline]
    pub fn out_edges_by_label_id(&self, u: NodeId) -> OutRow<'_> {
        let range = self.out_range(u);
        OutRow::new(&self.out_rows, range.start, range.end, self.target_width)
    }

    /// Labeled in-edges of `u`: `(follower, edge labels)` pairs. Like
    /// [`followers`](Self::followers), derives the in-edge arenas on
    /// the graph's first call.
    #[inline]
    pub fn in_edges(&self, u: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let (range, arenas) = (self.in_range(u), self.in_arenas());
        arenas.sources[range.clone()]
            .iter()
            .zip(&arenas.labels[range])
            .map(|(&node, &id)| EdgeRef {
                node,
                labels: self.label(id),
            })
    }

    /// Number of followers of `u` on topic `t` — `|Γu(t)|`: in-edges
    /// whose label set contains `t`. An offline read; the serving path
    /// reads `fui_core::AuthorityIndex::followers_on` instead.
    pub fn followers_on(&self, u: NodeId, t: Topic) -> usize {
        self.in_edges(u).filter(|e| e.labels.contains(t)).count()
    }

    /// The label of edge `u → v`, or `None` if `u` does not follow `v`
    /// (an id outside the graph follows nobody).
    ///
    /// Linear in `out_degree(u)`; use the CSR iterators in hot loops.
    pub fn edge_label(&self, u: NodeId, v: NodeId) -> Option<TopicSet> {
        if u.index() >= self.num_nodes() {
            return None;
        }
        self.out_edges(u).find(|e| e.node == v).map(|e| e.labels)
    }

    /// Whether the edge `u → v` (u follows v) exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.followees(u).take_while(|&w| w <= v).any(|w| w == v)
    }

    /// All edges as `(follower, followee, labels)` triples, grouped by
    /// follower.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, TopicSet)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_edges(u).map(move |e| (u, e.node, e.labels)))
    }

    /// Rewrites every edge label with `f(follower, followee, old)` and
    /// every node label with `g(node, old)`, re-interning the shared
    /// label table from scratch. Used by the topic-extraction pipeline
    /// to replace generator ground truth with classifier-predicted
    /// labels.
    pub fn relabel(
        &mut self,
        mut f: impl FnMut(NodeId, NodeId, TopicSet) -> TopicSet,
        mut g: impl FnMut(NodeId, TopicSet) -> TopicSet,
    ) {
        // Re-intern out labels in scan order (the packer's canonical
        // order), reading old labels through the old table, and re-pack
        // every row: its label width may change. The edges do not
        // move, so the in-offsets stand; in-edge arenas derived from
        // the old labels are dropped, to be re-derived on demand.
        let mut interner = LabelInterner::new();
        let mut packer = RowPacker::new(self.num_nodes(), self.out_rows.len());
        let mut row = Vec::new();
        for u in self.nodes() {
            row.clear();
            row.extend(
                self.out_edges_by_label_id(u)
                    .map(|(id, v)| (v, interner.intern(f(u, v, self.label_table[id as usize])))),
            );
            packer.push(&row);
        }
        let packed = packer.finish();
        (self.out_offsets, self.out_rows) = (packed.offsets, packed.stream);
        self.label_table = interner.into_table();
        self.in_edges = OnceLock::new();
        for u in 0..self.num_nodes() {
            let u_id = NodeId(u as u32);
            self.node_labels[u] = g(u_id, self.node_labels[u]);
        }
    }

    /// The one way to derive a graph from a graph. `delta` names, per
    /// touched `(follower, followee)` pair, what the edge ends as:
    /// `Some(labels)` — it exists with exactly `labels` (created if
    /// absent); `None` — it does not (a no-op if already absent). Every
    /// untouched edge and all node labels carry over.
    ///
    /// One pass: each old out-row is merged with its sorted slice of
    /// the delta and streamed through the [`StreamingBuilder`], so the
    /// result is byte-identical to building the resulting edge set from
    /// scratch, in `O(E + Δ)` time and no memory beyond the new graph.
    ///
    /// # Panics
    /// Panics if a `Some` pair is a self-loop or has an endpoint outside
    /// `0..num_nodes()`.
    pub fn edited(&self, delta: &BTreeMap<(NodeId, NodeId), Option<TopicSet>>) -> SocialGraph {
        let mut packer =
            StreamingBuilder::with_capacity(self.num_nodes(), self.num_edges() + delta.len());
        let mut delta = delta.iter().map(|(&(u, v), &l)| (u, v, l)).peekable();
        let mut row = Vec::new();
        for u in self.nodes() {
            row.clear();
            let mut old = self.out_edges(u).map(|e| (e.node, e.labels)).peekable();
            while let Some((_, v, labels)) = delta.next_if(|d| d.0 == u) {
                while let Some(kept) = old.next_if(|e| e.0 < v) {
                    row.push(kept);
                }
                old.next_if(|e| e.0 == v);
                row.extend(labels.map(|l| (v, l)));
            }
            row.extend(old);
            packer.push_node(self.node_labels(u), &mut row);
        }
        assert!(
            delta.all(|(_, _, labels)| labels.is_none()),
            "edge endpoints must be below num_nodes"
        );
        packer.finish()
    }

    /// A copy of the graph with the given edges removed (the
    /// link-prediction protocol of Section 5.3 removes the test set `T`
    /// from the graph before scoring). Edges absent from the graph are
    /// ignored.
    pub fn without_edges(&self, removed: &[(NodeId, NodeId)]) -> SocialGraph {
        self.edited(&removed.iter().map(|&pair| (pair, None)).collect())
    }

    /// A copy of the graph with the given labeled edges added (edges
    /// already present, or named twice, have their labels unioned).
    pub fn with_edges(&self, added: &[(NodeId, NodeId, TopicSet)]) -> SocialGraph {
        let mut delta = BTreeMap::new();
        for &(u, v, labels) in added {
            let slot = delta.entry((u, v)).or_insert_with(|| self.edge_label(u, v));
            *slot = Some(slot.unwrap_or_default().union(labels));
        }
        self.edited(&delta)
    }

    /// Exact memory accounting of the CSR arenas, split node- vs
    /// edge-proportional — the source of the `graph.bytes_per_node` /
    /// `graph.bytes_per_edge` bench gauges. The in-edge arenas count
    /// only once something has derived them.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        use std::mem::size_of_val;
        let in_edge_bytes = self.in_edges.get().map_or(0, |arenas| {
            size_of_val(&*arenas.sources) + size_of_val(&*arenas.labels)
        });
        MemoryFootprint {
            nodes: self.num_nodes(),
            edges: self.num_edges(),
            node_bytes: size_of_val(&*self.node_labels)
                + size_of_val(&*self.out_offsets)
                + size_of_val(&*self.in_offsets),
            edge_bytes: size_of_val(&*self.out_rows) + in_edge_bytes,
            label_table_bytes: size_of_val(&*self.label_table),
        }
    }

    /// Approximate memory footprint of the CSR arrays in bytes.
    pub fn size_bytes(&self) -> usize {
        self.memory_footprint().total_bytes()
    }

    /// Internal consistency check: the out-rows must re-pack to their
    /// own bytes (canonical, strictly ascending, in range), the
    /// in-offsets must be the out-CSR's in-degree prefix sums, the
    /// in-edge arenas (derived here if not yet) its exact transpose,
    /// labels included, and every interned label id must resolve.
    /// `O(E log E)`; meant for tests and debug assertions.
    pub fn check_consistency(&self) -> Result<(), String> {
        let (n, table_len) = (self.num_nodes(), self.label_table.len());
        let mut row = Vec::new();
        let mut packer = RowPacker::new(n, self.out_rows.len());
        for u in self.nodes() {
            row.clear();
            row.extend(self.out_edges_by_label_id(u).map(|(id, v)| (v, id)));
            if let Some(&(_, id)) = row.iter().find(|&&(_, id)| id as usize >= table_len) {
                return Err(format!(
                    "label id {id} out of range for table of {table_len}"
                ));
            }
            if row.windows(2).any(|p| p[0].0 >= p[1].0)
                || row.iter().any(|&(v, _)| v == u || v.index() >= n)
            {
                return Err(format!(
                    "out-row of {u} is not ascending, loop-free and in range"
                ));
            }
            packer.push(&row);
        }
        let packed = packer.finish();
        if (&packed.offsets, &packed.stream, packed.edges)
            != (&self.out_offsets, &self.out_rows, self.num_edges)
        {
            return Err("out-rows are not in canonical packed form".to_owned());
        }
        if self.in_offsets != packed.in_offsets {
            return Err("in-offsets are not the out-CSR's in-degree prefix sums".to_owned());
        }
        let mut out_edges: Vec<(u32, u32, u32)> = Vec::with_capacity(self.num_edges());
        let mut in_edges: Vec<(u32, u32, u32)> = Vec::with_capacity(self.num_edges());
        for u in self.nodes() {
            for e in self.out_edges(u) {
                out_edges.push((u.0, e.node.0, e.labels.mask()));
            }
            for e in self.in_edges(u) {
                in_edges.push((e.node.0, u.0, e.labels.mask()));
            }
        }
        out_edges.sort_unstable();
        in_edges.sort_unstable();
        if out_edges != in_edges {
            return Err("in-edge arenas are not the labeled transpose of the out-CSR".to_owned());
        }
        Ok(())
    }
}

impl fmt::Debug for SocialGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SocialGraph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .field("label_sets", &self.num_label_sets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// The figure-1 style toy graph used across the crate's tests:
    /// A follows B and C; B and C are followed on various topics.
    fn toy() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(TopicSet::empty());
        let bb = b.add_node(TopicSet::single(Topic::Technology).with(Topic::Business));
        let c = b.add_node(TopicSet::single(Topic::Technology));
        let d = b.add_node(TopicSet::single(Topic::Sports));
        b.add_edge(
            a,
            bb,
            TopicSet::single(Topic::Technology).with(Topic::Business),
        );
        b.add_edge(a, c, TopicSet::single(Topic::Technology));
        b.add_edge(bb, d, TopicSet::single(Topic::Sports));
        b.add_edge(c, d, TopicSet::single(Topic::Sports));
        b.add_edge(d, a, TopicSet::single(Topic::Social));
        b.build()
    }

    #[test]
    fn counts() {
        let g = toy();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        g.check_consistency().unwrap();
    }

    #[test]
    fn labels_are_interned() {
        let g = toy();
        // 4 distinct label sets over 5 edges: {tech,busi}, {tech},
        // {sports} (used twice), {social}.
        assert_eq!(g.num_label_sets(), 4);
    }

    #[test]
    fn memory_footprint_is_exact() {
        let g = toy();
        let fp = g.memory_footprint();
        assert_eq!(fp.nodes, 4);
        assert_eq!(fp.edges, 5);
        // 4 node labels * 4B + 2 offset arrays of 5 u32s.
        assert_eq!(fp.node_bytes, 4 * 4 + 2 * 5 * 4);
        // The out-CSR only: four 3-byte records (a degree byte, then
        // 11 width bits, a 2-bit first target and 1–2-bit label ids in
        // two bytes) and the stream's 8 bytes of padding.
        assert_eq!(fp.edge_bytes, 4 * 3 + rows::PAD);
        assert_eq!(fp.label_table_bytes, 4 * 4);
        assert_eq!(fp.total_bytes(), g.size_bytes());
        // Steady-state densities: 12B + O(1)/node, 4B/edge exactly.
        assert!(fp.bytes_per_node() < 15.0);
        assert!((fp.bytes_per_edge() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn in_edge_arenas_are_derived_on_first_use_and_invisible_to_eq() {
        let (g, untouched) = (toy(), toy());
        let (edges, packed) = (g.num_edges(), g.memory_footprint().edge_bytes);
        assert_eq!(g.in_degree(NodeId(3)), 2, "in-degree needs no arenas");
        assert_eq!(g.memory_footprint().edge_bytes, packed);
        assert_eq!(g.followers(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.memory_footprint().edge_bytes, packed + 6 * edges);
        assert_eq!(g, untouched);
        assert_eq!(g.clone(), untouched);
    }

    #[test]
    fn degrees_and_adjacency() {
        let g = toy();
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 1);
        assert!(g.followees(a).eq([b, c]));
        assert_eq!(g.followers(d), &[b, c]);
        assert_eq!(g.in_degree(d), 2);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
    }

    #[test]
    fn followers_on_topic() {
        let g = toy();
        let d = NodeId(3);
        assert_eq!(g.followers_on(d, Topic::Sports), 2);
        assert_eq!(g.followers_on(d, Topic::Technology), 0);
        let b = NodeId(1);
        assert_eq!(g.followers_on(b, Topic::Technology), 1);
        assert_eq!(g.followers_on(b, Topic::Business), 1);
    }

    #[test]
    fn edge_labels() {
        let g = toy();
        let (a, b) = (NodeId(0), NodeId(1));
        let l = g.edge_label(a, b).unwrap();
        assert!(l.contains(Topic::Technology) && l.contains(Topic::Business));
        assert_eq!(g.edge_label(b, a), None);
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = toy();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
    }

    #[test]
    fn without_edges_removes_only_given() {
        let g = toy();
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let g2 = g.without_edges(&[(a, b)]);
        assert_eq!(g2.num_edges(), g.num_edges() - 1);
        assert!(!g2.has_edge(a, b));
        assert!(g2.has_edge(a, c));
        g2.check_consistency().unwrap();
        // Node labels survive.
        assert_eq!(g2.node_labels(b), g.node_labels(b));
    }

    #[test]
    fn without_edges_ignores_missing() {
        let g = toy();
        let g2 = g.without_edges(&[(NodeId(1), NodeId(0))]);
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn with_edges_adds_and_merges() {
        let g = toy();
        let (b, a) = (NodeId(1), NodeId(0));
        assert!(!g.has_edge(b, a));
        let g2 = g.with_edges(&[
            (b, a, TopicSet::single(Topic::Social)),
            // Duplicate of an existing edge: labels union.
            (a, b, TopicSet::single(Topic::War)),
        ]);
        assert_eq!(g2.num_edges(), g.num_edges() + 1);
        assert!(g2.has_edge(b, a));
        let label = g2.edge_label(a, b).unwrap();
        assert!(label.contains(Topic::War) && label.contains(Topic::Technology));
        g2.check_consistency().unwrap();
    }

    #[test]
    fn edited_sets_creates_and_deletes() {
        let g = toy();
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let war = TopicSet::single(Topic::War);
        let delta = BTreeMap::from([
            ((a, b), Some(war)),    // present: label replaced, not unioned
            ((a, d), Some(war)),    // absent, past the row's last target
            ((c, d), None),         // present: deleted
            ((b, a), None),         // absent: no-op
            ((NodeId(9), a), None), // outside the graph: no-op
        ]);
        let g2 = g.edited(&delta);
        assert_eq!(g2.edge_label(a, b), Some(war));
        assert!(g2.followees(a).eq([b, c, d]));
        assert!(!g2.has_edge(c, d) && !g2.has_edge(b, a));
        assert_eq!(g2.num_edges(), g.num_edges());
        g2.check_consistency().unwrap();
        assert_eq!(g.edited(&BTreeMap::new()), g);
    }

    #[test]
    #[should_panic(expected = "below num_nodes")]
    fn edited_rejects_a_follower_outside_the_graph() {
        toy().edited(&BTreeMap::from([(
            (NodeId(9), NodeId(0)),
            Some(TopicSet::empty()),
        )]));
    }

    #[test]
    #[should_panic(expected = "cannot follow itself")]
    fn edited_rejects_a_self_loop() {
        toy().edited(&BTreeMap::from([(
            (NodeId(1), NodeId(1)),
            Some(TopicSet::empty()),
        )]));
    }

    #[test]
    fn relabel_updates_both_directions() {
        let mut g = toy();
        // Derive the in-edge arenas under the old labels first: relabel
        // must not leave them stale.
        assert_eq!(g.in_edges(NodeId(0)).count(), 1);
        g.relabel(
            |_, _, _| TopicSet::single(Topic::War),
            |_, old| old.with(Topic::War),
        );
        for (u, v, l) in g.edges() {
            assert_eq!(l, TopicSet::single(Topic::War), "{u}->{v}");
        }
        // In-CSR sees the same labels.
        for u in g.nodes() {
            for e in g.in_edges(u) {
                assert_eq!(e.labels, TopicSet::single(Topic::War));
            }
            assert!(g.node_labels(u).contains(Topic::War));
        }
        g.check_consistency().unwrap();
        // The table was re-interned down to the single surviving set.
        assert_eq!(g.num_label_sets(), 1);
    }

    #[test]
    fn rebuilt_graph_compares_equal() {
        // Round-tripping through the edge iterator and the batch
        // builder reproduces the arenas byte for byte (PartialEq spans
        // every stored array, label table included).
        let g = toy();
        let mut b = GraphBuilder::with_capacity(g.num_nodes(), g.num_edges());
        for u in g.nodes() {
            b.add_node(g.node_labels(u));
        }
        for (u, v, l) in g.edges() {
            b.add_edge(u, v, l);
        }
        assert_eq!(g, b.build());
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_label_sets(), 0);
        g.check_consistency().unwrap();
    }
}
