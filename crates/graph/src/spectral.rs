//! Spectral radius estimation for the convergence bound.
//!
//! Proposition 3 of the paper: the iterative score computation
//! converges when `β < 1/σ_max(A)` where `σ_max(A)` is the largest
//! eigenvalue of the adjacency matrix. For a non-negative matrix the
//! spectral radius is reached by a non-negative eigenvector, so plain
//! power iteration with L2 renormalisation converges to it (up to the
//! usual caveats on reducible graphs, for which it still yields a valid
//! estimate of the dominant component's radius — a lower bound on the
//! true radius that we compensate for with a safety factor in
//! [`max_safe_beta`]).

use crate::csr::SocialGraph;

/// Estimates the spectral radius `σ_max(A)` of the adjacency matrix by
/// `iters` rounds of power iteration. Returns 0 for an edgeless graph.
pub fn spectral_radius(graph: &SocialGraph, iters: usize) -> f64 {
    let n = graph.num_nodes();
    if n == 0 || graph.num_edges() == 0 {
        return 0.0;
    }
    // Start from the all-ones direction: strictly positive, hence never
    // orthogonal to the dominant non-negative eigenvector.
    let mut x = vec![1.0f64 / (n as f64).sqrt(); n];
    let mut y = vec![0.0f64; n];
    let mut lambda = 0.0;
    for _ in 0..iters {
        // y = A x with A[v][u] = 1 if u follows v: y[v] = Σ_{u→v} x[u].
        y.iter_mut().for_each(|v| *v = 0.0);
        for u in graph.nodes() {
            let xu = x[u.index()];
            if xu == 0.0 {
                continue;
            }
            for v in graph.followees(u) {
                y[v.index()] += xu;
            }
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            // x fell entirely in the nilpotent part (DAG): radius 0.
            return 0.0;
        }
        lambda = norm;
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    lambda
}

/// The largest decay factor β guaranteed to satisfy Proposition 3,
/// with a conservative safety margin: `safety / σ_max(A)`.
///
/// For a DAG (radius 0) any β works and `f64::INFINITY` is returned.
pub fn max_safe_beta(graph: &SocialGraph, safety: f64) -> f64 {
    let radius = spectral_radius(graph, 50);
    if radius <= 0.0 {
        f64::INFINITY
    } else {
        safety / radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, NodeId};
    use fui_taxonomy::TopicSet;

    fn cycle(n: usize) -> SocialGraph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| b.add_node(TopicSet::empty())).collect();
        for i in 0..n {
            b.add_edge(nodes[i], nodes[(i + 1) % n], TopicSet::empty());
        }
        b.build()
    }

    fn complete(n: usize) -> SocialGraph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| b.add_node(TopicSet::empty())).collect();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    b.add_edge(nodes[i], nodes[j], TopicSet::empty());
                }
            }
        }
        b.build()
    }

    #[test]
    fn cycle_radius_is_one() {
        let r = spectral_radius(&cycle(7), 200);
        assert!((r - 1.0).abs() < 1e-6, "r = {r}");
    }

    #[test]
    fn complete_graph_radius_is_n_minus_one() {
        let r = spectral_radius(&complete(6), 100);
        assert!((r - 5.0).abs() < 1e-6, "r = {r}");
    }

    #[test]
    fn dag_radius_is_zero() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(TopicSet::empty());
        let c = b.add_node(TopicSet::empty());
        let d = b.add_node(TopicSet::empty());
        b.add_edge(a, c, TopicSet::empty());
        b.add_edge(c, d, TopicSet::empty());
        let g = b.build();
        assert_eq!(spectral_radius(&g, 100), 0.0);
        assert_eq!(max_safe_beta(&g, 0.9), f64::INFINITY);
    }

    #[test]
    fn empty_graph_radius_is_zero() {
        let g = GraphBuilder::new().build();
        assert_eq!(spectral_radius(&g, 10), 0.0);
    }

    #[test]
    fn safe_beta_below_inverse_radius() {
        let g = complete(5);
        let beta = max_safe_beta(&g, 0.9);
        assert!((beta - 0.9 / 4.0).abs() < 1e-6);
    }
}
