//! Deterministic user ownership for sharded serving.
//!
//! The serving layer splits the users across N lanes: each node is
//! *owned* by exactly one lane, which queues, answers and caches that
//! user's queries. The owner is SplitMix64 of the node id modulo the
//! lane count — stateless, independent of the edge set, and therefore
//! stable across graph rotations. Nothing about it is stored or
//! persisted, which is what lets a directory written at one shard count
//! restore under any other.

use crate::csr::{NodeId, SocialGraph};

/// Most shards a partition may carry.
pub const MAX_SHARDS: usize = 64;

/// How a [`Partition`] assigns owners. One strategy is left; the enum
/// stays because the benchmark harness names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// SplitMix64 of the node id modulo the shard count.
    Hash,
}

impl PartitionStrategy {
    /// Stable lower-case wire name (manifests, the `SHARDS` verb).
    pub fn as_str(self) -> &'static str {
        match self {
            PartitionStrategy::Hash => "hash",
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

/// A deterministic node → shard owner map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    shards: u32,
}

impl Partition {
    /// The owner map over `shards` shards. It reads nothing of `graph`
    /// (ownership is a function of the node id alone); the parameter
    /// stays for the benchmark harness, which calls this signature.
    pub fn build(_graph: &SocialGraph, shards: usize, strategy: PartitionStrategy) -> Partition {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count {shards} outside 1..={MAX_SHARDS}"
        );
        match strategy {
            PartitionStrategy::Hash => Partition {
                shards: shards as u32,
            },
        }
    }

    /// The shard owning `v`: `splitmix64(v) % shards`.
    #[inline]
    pub fn owner(&self, v: NodeId) -> u32 {
        (mix(u64::from(v.0)) % u64::from(self.shards)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use fui_taxonomy::{Topic, TopicSet};

    fn nodes(n: usize, chain: bool) -> SocialGraph {
        let t = TopicSet::single(Topic::ALL[0]);
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(t);
        }
        if chain {
            for i in 0..n as u32 - 1 {
                b.add_edge(NodeId(i), NodeId(i + 1), t);
            }
        }
        b.build()
    }

    #[test]
    fn every_shard_owns_someone() {
        let g = nodes(97, true);
        let p = Partition::build(&g, 4, PartitionStrategy::Hash);
        let mut sizes = [0usize; 4];
        for v in g.nodes() {
            sizes[p.owner(v) as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s > 0), "{sizes:?}");
    }

    #[test]
    fn single_shard_owns_everything() {
        let g = nodes(20, true);
        let p = Partition::build(&g, 1, PartitionStrategy::Hash);
        assert!(g.nodes().all(|v| p.owner(v) == 0));
    }

    #[test]
    fn ownership_ignores_the_edge_set() {
        let (sparse, dense) = (nodes(40, false), nodes(40, true));
        let ps = Partition::build(&sparse, 4, PartitionStrategy::Hash);
        let pd = Partition::build(&dense, 4, PartitionStrategy::Hash);
        assert!(sparse.nodes().all(|v| ps.owner(v) == pd.owner(v)));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_shards_rejected() {
        Partition::build(&nodes(4, true), 0, PartitionStrategy::Hash);
    }
}
