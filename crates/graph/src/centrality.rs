//! Closeness and betweenness centrality, exact and pivot-sampled.
//!
//! The paper's `Central`-family landmark selection strategies rely on
//! centrality properties; it notes that exact computation (Johnson's
//! algorithm) costs `O(N²·log N + N·E)` — around 17 hours on its
//! server (Table 5). We provide exact Brandes/BFS implementations for
//! small graphs and pivot-sampled estimators (Brandes & Pich style)
//! that preserve the centrality *ranking* at a tractable cost, which is
//! all landmark selection needs.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::csr::{NodeId, SocialGraph};

/// Exact closeness centrality of every node: for node `u`,
/// `(r-1)² / ((n-1) · Σ_v d(u,v))` over the `r` nodes reachable from
/// `u` (Wasserman–Faust normalisation for disconnected digraphs).
/// Nodes that reach nothing get 0. Runs one BFS per node — `O(N·E)`.
pub fn closeness_exact(graph: &SocialGraph) -> Vec<f64> {
    let sources: Vec<NodeId> = graph.nodes().collect();
    closeness_from_sources(graph, &sources)
}

/// Pivot-sampled closeness: BFS from `pivots` random sources along
/// **in**-edges accumulates, for every node `v`, the distances
/// `d(s, v)`; the estimator rescales by the sample rate. Preserves the
/// exact ranking in expectation at `O(pivots·E)` cost.
pub fn closeness_sampled(graph: &SocialGraph, pivots: usize, rng: &mut impl Rng) -> Vec<f64> {
    let mut sources: Vec<NodeId> = graph.nodes().collect();
    sources.shuffle(rng);
    sources.truncate(pivots.max(1));
    closeness_from_sources(graph, &sources)
}

/// Closeness restricted to the given BFS sources. With all nodes as
/// sources this is exact.
fn closeness_from_sources(graph: &SocialGraph, sources: &[NodeId]) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut sum_dist = vec![0u64; n];
    let mut reach = vec![0u32; n];
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in sources {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        dist[s.index()] = 0;
        queue.clear();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for v in graph.followees(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        // d(s, v) contributes to the *incoming* closeness of v; for the
        // publisher-follower graph this ranks nodes easy to reach from
        // many accounts, which is what landmark coverage wants.
        for v in 0..n {
            if dist[v] != u32::MAX && v != s.index() {
                sum_dist[v] += u64::from(dist[v]);
                reach[v] += 1;
            }
        }
    }
    let scale = if sources.is_empty() {
        0.0
    } else {
        // Rescale the reachable count from the sample to the graph.
        n as f64 / sources.len() as f64
    };
    (0..n)
        .map(|v| {
            if sum_dist[v] == 0 {
                0.0
            } else {
                let r = f64::from(reach[v]) * scale;
                let avg = sum_dist[v] as f64 / f64::from(reach[v]);
                // (fraction reachable) / (average distance).
                (r / n as f64) / avg
            }
        })
        .collect()
}

/// Exact betweenness centrality (Brandes' algorithm, unweighted,
/// directed). `O(N·E)` — use only on small graphs.
pub fn betweenness_exact(graph: &SocialGraph) -> Vec<f64> {
    let sources: Vec<NodeId> = graph.nodes().collect();
    betweenness_from_sources(graph, &sources, 1.0)
}

/// Pivot-sampled betweenness (Brandes–Pich): accumulate dependencies
/// from `pivots` random sources and rescale by `n/pivots`.
pub fn betweenness_sampled(graph: &SocialGraph, pivots: usize, rng: &mut impl Rng) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut sources: Vec<NodeId> = graph.nodes().collect();
    sources.shuffle(rng);
    sources.truncate(pivots.max(1));
    let scale = n as f64 / sources.len() as f64;
    betweenness_from_sources(graph, &sources, scale)
}

fn betweenness_from_sources(graph: &SocialGraph, sources: &[NodeId], scale: f64) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut bc = vec![0.0f64; n];
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![i64::MAX; n];
    let mut delta = vec![0.0f64; n];
    let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut stack: Vec<NodeId> = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();

    for &s in sources {
        for v in 0..n {
            sigma[v] = 0.0;
            dist[v] = i64::MAX;
            delta[v] = 0.0;
            preds[v].clear();
        }
        stack.clear();
        sigma[s.index()] = 1.0;
        dist[s.index()] = 0;
        queue.clear();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            stack.push(u);
            let du = dist[u.index()];
            for v in graph.followees(u) {
                if dist[v.index()] == i64::MAX {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
                if dist[v.index()] == du + 1 {
                    sigma[v.index()] += sigma[u.index()];
                    preds[v.index()].push(u);
                }
            }
        }
        while let Some(w) = stack.pop() {
            let coeff = (1.0 + delta[w.index()]) / sigma[w.index()];
            for &p in &preds[w.index()] {
                delta[p.index()] += sigma[p.index()] * coeff;
            }
            if w != s {
                bc[w.index()] += delta[w.index()] * scale;
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use fui_taxonomy::TopicSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two hubs bridged by node 4: 0,1 -> 4 -> 2,3 (directed).
    fn bridge() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(TopicSet::empty())).collect();
        b.add_edge(n[0], n[4], TopicSet::empty());
        b.add_edge(n[1], n[4], TopicSet::empty());
        b.add_edge(n[4], n[2], TopicSet::empty());
        b.add_edge(n[4], n[3], TopicSet::empty());
        b.build()
    }

    #[test]
    fn bridge_node_has_highest_betweenness() {
        let g = bridge();
        let bc = betweenness_exact(&g);
        // Node 4 sits on all 4 shortest paths {0,1} x {2,3}.
        assert!((bc[4] - 4.0).abs() < 1e-9, "bc = {bc:?}");
        for &score in &bc[0..4] {
            assert_eq!(score, 0.0);
        }
    }

    #[test]
    fn brandes_handles_multiple_shortest_paths() {
        // 0 -> {1, 2} -> 3: two equal paths, each middle node gets 0.5.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(TopicSet::empty())).collect();
        b.add_edge(n[0], n[1], TopicSet::empty());
        b.add_edge(n[0], n[2], TopicSet::empty());
        b.add_edge(n[1], n[3], TopicSet::empty());
        b.add_edge(n[2], n[3], TopicSet::empty());
        let g = b.build();
        let bc = betweenness_exact(&g);
        assert!((bc[1] - 0.5).abs() < 1e-9);
        assert!((bc[2] - 0.5).abs() < 1e-9);
        assert_eq!(bc[3], 0.0);
    }

    #[test]
    fn sampled_betweenness_with_all_pivots_matches_exact() {
        let g = bridge();
        let mut rng = StdRng::seed_from_u64(7);
        let exact = betweenness_exact(&g);
        let sampled = betweenness_sampled(&g, g.num_nodes(), &mut rng);
        for (e, s) in exact.iter().zip(&sampled) {
            assert!((e - s).abs() < 1e-9);
        }
    }

    #[test]
    fn closeness_prefers_easily_reached_nodes() {
        let g = bridge();
        let c = closeness_exact(&g);
        // 0 and 1 are reached by nobody. Node 4 is reached by {0,1} at
        // distance 1 (score (2/5)/1 = 0.4); nodes 2,3 by {0,1,4} at
        // average distance 5/3 (score (3/5)/(5/3) = 0.36).
        assert_eq!(c[0], 0.0);
        assert_eq!(c[1], 0.0);
        assert!((c[4] - 0.4).abs() < 1e-9);
        assert!((c[2] - 0.36).abs() < 1e-9);
        assert!(c[4] > c[2]);
    }

    #[test]
    fn sampled_closeness_is_finite_and_nonnegative() {
        let g = bridge();
        let mut rng = StdRng::seed_from_u64(3);
        let c = closeness_sampled(&g, 3, &mut rng);
        assert_eq!(c.len(), 5);
        for v in c {
            assert!(v.is_finite() && v >= 0.0);
        }
    }
}
