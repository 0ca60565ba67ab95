//! Deterministic node partitioning for sharded serving.
//!
//! The serving layer splits the users across N shards: each node is
//! *owned* by exactly one shard, which queues, answers and caches that
//! user's queries and journals the follow changes it touches. This
//! module provides the two deterministic owner maps the router builds
//! on:
//!
//! * [`Partition::hash`] — SplitMix64 of the node id modulo the shard
//!   count. Stateless, independent of the edge set, and therefore
//!   stable across graph rotations.
//! * [`Partition::degree_aware`] — greedy balance of *edge mass*: nodes
//!   are placed in descending total-degree order onto the shard with
//!   the least accumulated degree mass (ties break toward the lowest
//!   shard id, and the descending order breaks degree ties toward the
//!   lowest node id), using the CSR degree arrays directly. This evens
//!   out the per-shard journal load when the degree distribution is
//!   heavy-tailed.
//!
//! Both maps are pure functions of `(graph, shards)` — two processes
//! that build the same graph derive the same ownership, which is what
//! lets a restored fleet re-derive its shards from a fleet-level
//! snapshot instead of persisting N copies.

use crate::csr::{NodeId, SocialGraph};

/// Most shards a partition may carry.
pub const MAX_SHARDS: usize = 64;

/// How a [`Partition`] assigns owners.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// SplitMix64 of the node id modulo the shard count.
    Hash,
    /// Greedy edge-mass balance in descending total-degree order.
    DegreeAware,
}

impl PartitionStrategy {
    /// Stable lower-case wire name (manifests, the `SHARDS` verb).
    pub fn as_str(self) -> &'static str {
        match self {
            PartitionStrategy::Hash => "hash",
            PartitionStrategy::DegreeAware => "degree-aware",
        }
    }
}

/// SplitMix64 finalizer — the same mix the result cache and trace ids
/// use, so ownership is uncorrelated with either.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic node → shard owner map with cut-edge accounting.
#[derive(Clone, Debug)]
pub struct Partition {
    owner: Vec<u8>,
    shards: u32,
    strategy: PartitionStrategy,
    sizes: Vec<usize>,
    edge_mass: Vec<u64>,
    cut_edges: u64,
}

impl Partition {
    /// Builds the owner map with `strategy`.
    pub fn build(graph: &SocialGraph, shards: usize, strategy: PartitionStrategy) -> Partition {
        match strategy {
            PartitionStrategy::Hash => Partition::hash(graph, shards),
            PartitionStrategy::DegreeAware => Partition::degree_aware(graph, shards),
        }
    }

    /// Hash ownership: `splitmix64(node) % shards`. Independent of the
    /// edge set, so the map survives any number of rotations unchanged.
    pub fn hash(graph: &SocialGraph, shards: usize) -> Partition {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count {shards} outside 1..={MAX_SHARDS}"
        );
        let owner: Vec<u8> = (0..graph.num_nodes() as u64)
            .map(|v| (mix(v) % shards as u64) as u8)
            .collect();
        Partition::finish(graph, owner, shards, PartitionStrategy::Hash)
    }

    /// Degree-aware ownership: nodes in descending `out + in` degree
    /// order (ties toward the lower id) are placed on the shard with
    /// the least accumulated degree mass (ties toward the lower shard
    /// id). Deterministic, and within one max-degree of perfectly
    /// balanced edge mass.
    pub fn degree_aware(graph: &SocialGraph, shards: usize) -> Partition {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count {shards} outside 1..={MAX_SHARDS}"
        );
        let n = graph.num_nodes();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let degree = |v: u32| (graph.out_degree(NodeId(v)) + graph.in_degree(NodeId(v))) as u64;
        order.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
        let mut owner = vec![0u8; n];
        let mut mass = vec![0u64; shards];
        for v in order {
            let s = mass
                .iter()
                .enumerate()
                .min_by_key(|&(i, &m)| (m, i))
                .map(|(i, _)| i)
                .expect("at least one shard");
            owner[v as usize] = s as u8;
            mass[s] += degree(v);
        }
        Partition::finish(graph, owner, shards, PartitionStrategy::DegreeAware)
    }

    fn finish(
        graph: &SocialGraph,
        owner: Vec<u8>,
        shards: usize,
        strategy: PartitionStrategy,
    ) -> Partition {
        let mut sizes = vec![0usize; shards];
        for &o in &owner {
            sizes[o as usize] += 1;
        }
        let mut edge_mass = vec![0u64; shards];
        let mut cut_edges = 0u64;
        for u in graph.nodes() {
            let ou = owner[u.index()];
            edge_mass[ou as usize] += graph.out_degree(u) as u64;
            for &v in graph.followees(u) {
                edge_mass[owner[v.index()] as usize] += 1;
                if owner[v.index()] != ou {
                    cut_edges += 1;
                }
            }
        }
        Partition {
            owner,
            shards: shards as u32,
            strategy,
            sizes,
            edge_mass,
            cut_edges,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The strategy that produced this map.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The shard owning `v`.
    #[inline]
    pub fn owner(&self, v: NodeId) -> u32 {
        u32::from(self.owner[v.index()])
    }

    /// Per-shard node counts.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Per-shard edge mass: every edge is charged to both endpoint
    /// owners (a cut edge therefore counts on two shards).
    pub fn edge_mass(&self) -> &[u64] {
        &self.edge_mass
    }

    /// Edges whose endpoints live on different shards.
    pub fn cut_edges(&self) -> u64 {
        self.cut_edges
    }

    /// Counts the edges of `graph` whose endpoints live on different
    /// shards under this (fixed) owner map. [`Partition::cut_edges`]
    /// reports the count for the graph the map was built on; this
    /// recounts after a rotation has moved the edge set.
    pub fn cut_edges_in(&self, graph: &SocialGraph) -> u64 {
        let mut cut = 0u64;
        for u in graph.nodes() {
            let ou = self.owner[u.index()];
            for &v in graph.followees(u) {
                if self.owner[v.index()] != ou {
                    cut += 1;
                }
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use fui_taxonomy::{Topic, TopicSet};

    fn chain_and_hub(n: usize) -> SocialGraph {
        // A chain 0→1→…→n-1 plus every node following node 0.
        let t = TopicSet::single(Topic::ALL[0]);
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(t);
        }
        for i in 0..n - 1 {
            b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), t);
        }
        for i in 1..n {
            b.add_edge(NodeId(i as u32), NodeId(0), t);
        }
        b.build()
    }

    #[test]
    fn both_strategies_cover_every_node_exactly_once() {
        let g = chain_and_hub(97);
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::DegreeAware] {
            let p = Partition::build(&g, 4, strategy);
            assert_eq!(p.sizes().iter().sum::<usize>(), g.num_nodes());
            assert!(g.nodes().all(|v| p.owner(v) < 4));
        }
    }

    #[test]
    fn owner_maps_are_deterministic() {
        let g = chain_and_hub(64);
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::DegreeAware] {
            let a = Partition::build(&g, 4, strategy);
            let b = Partition::build(&g, 4, strategy);
            assert!(g.nodes().all(|v| a.owner(v) == b.owner(v)));
            assert_eq!(a.cut_edges(), b.cut_edges());
        }
    }

    #[test]
    fn cut_edge_count_matches_brute_force() {
        let g = chain_and_hub(50);
        let p = Partition::hash(&g, 3);
        let brute = g
            .edges()
            .filter(|&(u, v, _)| p.owner(u) != p.owner(v))
            .count() as u64;
        assert_eq!(p.cut_edges(), brute);
    }

    #[test]
    fn single_shard_owns_everything_and_cuts_nothing() {
        let g = chain_and_hub(20);
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::DegreeAware] {
            let p = Partition::build(&g, 1, strategy);
            assert!(g.nodes().all(|v| p.owner(v) == 0));
            assert_eq!(p.cut_edges(), 0);
            assert_eq!(p.edge_mass()[0], 2 * g.num_edges() as u64);
        }
    }

    #[test]
    fn degree_aware_balances_edge_mass() {
        // The hub (node 0) dominates the degree mass; degree-aware
        // placement must not let any shard carry more than the hub's
        // own mass plus an even share of the rest.
        let g = chain_and_hub(200);
        let p = Partition::degree_aware(&g, 4);
        let masses: Vec<u64> = (0..200u32)
            .map(|v| (g.out_degree(NodeId(v)) + g.in_degree(NodeId(v))) as u64)
            .collect();
        let max_node = *masses.iter().max().unwrap();
        let total: u64 = masses.iter().sum();
        // Greedy longest-processing-time bound: no bin exceeds the
        // ideal share by more than one item.
        let mut bins = vec![0u64; 4];
        for v in g.nodes() {
            bins[p.owner(v) as usize] += masses[v.index()];
        }
        let bound = total / 4 + max_node;
        assert!(
            bins.iter().all(|&b| b <= bound),
            "unbalanced bins {bins:?} (bound {bound})"
        );
    }

    #[test]
    fn hash_ownership_ignores_the_edge_set() {
        let t = TopicSet::single(Topic::ALL[0]);
        let mut sparse = GraphBuilder::new();
        let mut dense = GraphBuilder::new();
        for _ in 0..40 {
            sparse.add_node(t);
            dense.add_node(t);
        }
        for i in 0..39u32 {
            dense.add_edge(NodeId(i), NodeId(i + 1), t);
        }
        let (gs, gd) = (sparse.build(), dense.build());
        let (ps, pd) = (Partition::hash(&gs, 4), Partition::hash(&gd, 4));
        assert!(gs.nodes().all(|v| ps.owner(v) == pd.owner(v)));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_shards_rejected() {
        Partition::hash(&chain_and_hub(4), 0);
    }
}
