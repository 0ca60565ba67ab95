//! Breadth-first exploration of the follow graph — the paper's
//! *k-vicinity* `Υk(λ)` (Section 4): the set of nodes reached at depth
//! exactly `k` from a start node, following out-edges (followees).

use crate::csr::{NodeId, SocialGraph};

/// Result of a k-vicinity BFS: the levels `Υ0..Υk` (each node appears in
/// the level of its shortest distance from the start) and the distance
/// array.
#[derive(Clone, Debug)]
pub struct KVicinity {
    /// `levels[d]` holds the nodes at shortest distance `d` from the
    /// start; `levels[0]` is the start itself.
    pub levels: Vec<Vec<NodeId>>,
    /// `dist[v] == u32::MAX` means unreached within the depth bound.
    pub dist: Vec<u32>,
}

impl KVicinity {
    /// All reached nodes (union of the levels), start included.
    pub fn reached(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.levels.iter().flatten().copied()
    }

    /// Number of reached nodes.
    pub fn reached_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Shortest distance to `v`, if reached.
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        let d = self.dist[v.index()];
        (d != u32::MAX).then_some(d)
    }
}

/// BFS from `start` along out-edges, up to `max_depth` hops.
///
/// `prune` is consulted for every dequeued node other than the start:
/// when it returns `true` the node is kept in its level but its
/// out-edges are not expanded. The landmark query (Algorithm 2) uses
/// this to stop the exploration at landmarks, "to avoid considering
/// twice paths from the BFS which pass through a landmark"
/// (Section 5.4).
pub fn k_vicinity_pruned(
    graph: &SocialGraph,
    start: NodeId,
    max_depth: u32,
    mut prune: impl FnMut(NodeId) -> bool,
) -> KVicinity {
    let mut dist = vec![u32::MAX; graph.num_nodes()];
    dist[start.index()] = 0;
    let mut levels: Vec<Vec<NodeId>> = vec![vec![start]];
    let mut frontier = vec![start];
    let mut depth = 0;
    while depth < max_depth && !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            if u != start && prune(u) {
                continue;
            }
            for v in graph.followees(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = depth + 1;
                    next.push(v);
                }
            }
        }
        depth += 1;
        if next.is_empty() {
            break;
        }
        levels.push(next.clone());
        frontier = next;
    }
    KVicinity { levels, dist }
}

/// BFS from `start` along out-edges up to `max_depth` hops, no pruning.
pub fn k_vicinity(graph: &SocialGraph, start: NodeId, max_depth: u32) -> KVicinity {
    k_vicinity_pruned(graph, start, max_depth, |_| false)
}

/// BFS distances from `start` along **in**-edges (who can reach
/// `start`), used by coverage-based landmark selection.
pub fn reverse_distances(graph: &SocialGraph, start: NodeId, max_depth: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; graph.num_nodes()];
    dist[start.index()] = 0;
    let mut frontier = vec![start];
    let mut depth = 0;
    while depth < max_depth && !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &w in graph.followers(u) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = depth + 1;
                    next.push(w);
                }
            }
        }
        depth += 1;
        frontier = next;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use fui_taxonomy::TopicSet;

    /// 0 -> 1 -> 2 -> 3, plus 0 -> 2 shortcut and 3 -> 0 back edge.
    fn chain() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(TopicSet::empty())).collect();
        b.add_edge(n[0], n[1], TopicSet::empty());
        b.add_edge(n[1], n[2], TopicSet::empty());
        b.add_edge(n[2], n[3], TopicSet::empty());
        b.add_edge(n[0], n[2], TopicSet::empty());
        b.add_edge(n[3], n[0], TopicSet::empty());
        b.build()
    }

    #[test]
    fn levels_hold_shortest_distances() {
        let g = chain();
        let v = k_vicinity(&g, NodeId(0), 10);
        assert_eq!(v.levels[0], vec![NodeId(0)]);
        assert_eq!(v.levels[1], vec![NodeId(1), NodeId(2)]);
        assert_eq!(v.levels[2], vec![NodeId(3)]);
        assert_eq!(v.distance(NodeId(3)), Some(2));
        assert_eq!(v.reached_count(), 4);
    }

    #[test]
    fn depth_bound_respected() {
        let g = chain();
        let v = k_vicinity(&g, NodeId(0), 1);
        assert_eq!(v.levels.len(), 2);
        assert_eq!(v.distance(NodeId(3)), None);
    }

    #[test]
    fn vicinity_is_monotone_in_depth() {
        let g = chain();
        let mut prev = 0;
        for k in 0..4 {
            let count = k_vicinity(&g, NodeId(0), k).reached_count();
            assert!(count >= prev);
            prev = count;
        }
    }

    #[test]
    fn pruning_stops_expansion_but_keeps_node() {
        let g = chain();
        // Prune at node 2: node 3 is only reachable through it (or via
        // 1 -> 2 -> 3, also through 2), so it must not be reached.
        let v = k_vicinity_pruned(&g, NodeId(0), 10, |n| n == NodeId(2));
        assert_eq!(v.distance(NodeId(2)), Some(1));
        assert_eq!(v.distance(NodeId(3)), None);
    }

    #[test]
    fn prune_not_consulted_for_start() {
        let g = chain();
        let v = k_vicinity_pruned(&g, NodeId(0), 10, |n| n == NodeId(0));
        assert_eq!(v.reached_count(), 4);
    }

    #[test]
    fn reverse_distances_follow_in_edges() {
        let g = chain();
        let d = reverse_distances(&g, NodeId(3), 10);
        assert_eq!(d[3], 0);
        assert_eq!(d[2], 1);
        assert_eq!(d[1], 2);
        assert_eq!(d[0], 2); // 0 -> 2 -> 3 shortcut.
    }

    #[test]
    fn cycle_terminates() {
        let g = chain();
        let v = k_vicinity(&g, NodeId(0), 1000);
        assert_eq!(v.reached_count(), 4);
        assert!(v.levels.len() <= 4);
    }
}
