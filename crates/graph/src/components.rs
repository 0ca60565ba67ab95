//! Weak connectivity via union-find, used by the dataset generators'
//! sanity checks (a follow graph should be dominated by one giant weak
//! component, as the real Twitter graph is).

use crate::csr::{NodeId, SocialGraph};

/// Disjoint-set forest with union by rank and path halving.
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`; returns true if they were
    /// distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn num_components(&self) -> usize {
        self.components
    }
}

/// Sizes of the weakly connected components, largest first.
pub fn weak_component_sizes(graph: &SocialGraph) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut uf = UnionFind::new(n);
    for u in graph.nodes() {
        for v in graph.followees(u) {
            uf.union(u.index(), v.index());
        }
    }
    let mut size = std::collections::HashMap::new();
    for v in 0..n {
        *size.entry(uf.find(v)).or_insert(0usize) += 1;
    }
    let mut sizes: Vec<usize> = size.into_values().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

/// Fraction of nodes inside the largest weak component (0 for an empty
/// graph).
pub fn giant_component_fraction(graph: &SocialGraph) -> f64 {
    let sizes = weak_component_sizes(graph);
    match sizes.first() {
        Some(&s) if graph.num_nodes() > 0 => s as f64 / graph.num_nodes() as f64,
        _ => 0.0,
    }
}

/// Component representative of each node (useful to stratify sampling).
pub fn component_labels(graph: &SocialGraph) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut uf = UnionFind::new(n);
    for u in graph.nodes() {
        for v in graph.followees(u) {
            uf.union(u.index(), v.index());
        }
    }
    (0..n).map(|v| uf.find(v) as u32).collect()
}

/// Convenience: the nodes of the largest weak component.
pub fn giant_component_nodes(graph: &SocialGraph) -> Vec<NodeId> {
    let labels = component_labels(graph);
    let mut counts = std::collections::HashMap::new();
    for &l in &labels {
        *counts.entry(l).or_insert(0usize) += 1;
    }
    let Some((&best, _)) = counts.iter().max_by_key(|&(_, &c)| c) else {
        return Vec::new();
    };
    labels
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l == best)
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use fui_taxonomy::TopicSet;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_components(), 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.num_components(), 2);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn two_components() {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(TopicSet::empty())).collect();
        b.add_edge(n[0], n[1], TopicSet::empty());
        b.add_edge(n[1], n[2], TopicSet::empty());
        b.add_edge(n[3], n[4], TopicSet::empty());
        let g = b.build();
        let sizes = weak_component_sizes(&g);
        assert_eq!(sizes, vec![3, 2]);
        assert!((giant_component_fraction(&g) - 0.6).abs() < 1e-12);
        let giant = giant_component_nodes(&g);
        assert_eq!(giant, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn direction_is_ignored_for_weak_connectivity() {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(TopicSet::empty())).collect();
        // 0 -> 1 <- 2: weakly connected despite no directed path 0 ~> 2.
        b.add_edge(n[0], n[1], TopicSet::empty());
        b.add_edge(n[2], n[1], TopicSet::empty());
        let g = b.build();
        assert_eq!(weak_component_sizes(&g), vec![3]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(weak_component_sizes(&g).is_empty());
        assert_eq!(giant_component_fraction(&g), 0.0);
        assert!(giant_component_nodes(&g).is_empty());
    }
}
