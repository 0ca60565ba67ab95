//! Standalone Katz scorer: `topo_β(u, v) = Σ_{p ∈ P(u,v)} β^|p|`
//! (Equation 2 of the paper, the link-prediction baseline of
//! Liben-Nowell & Kleinberg).
//!
//! Level-synchronous walk-mass propagation, structurally identical to
//! the `fui-core` engine but deliberately *independent* of it (no
//! shared code): the unit tests of both crates pin the two
//! implementations against each other.

use fui_graph::{NodeId, SocialGraph};

/// Katz score computation over a graph.
///
/// ```
/// use fui_baselines::KatzScorer;
/// use fui_graph::{GraphBuilder, TopicSet};
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_node(TopicSet::empty());
/// let v = b.add_node(TopicSet::empty());
/// let w = b.add_node(TopicSet::empty());
/// b.add_edge(u, v, TopicSet::empty());
/// b.add_edge(v, w, TopicSet::empty());
/// let g = b.build();
///
/// let katz = KatzScorer::new(&g, 0.1);
/// let scores = katz.scores_from(u);
/// // One-hop neighbour: β; two-hop: β².
/// assert!((scores[v.index()] - 0.1).abs() < 1e-12);
/// assert!((scores[w.index()] - 0.01).abs() < 1e-12);
/// ```
pub struct KatzScorer<'g> {
    graph: &'g SocialGraph,
    beta: f64,
    tolerance: f64,
    max_depth: u32,
}

impl<'g> KatzScorer<'g> {
    /// Creates a scorer with the given path decay (the paper uses
    /// `β = 0.0005` for Katz as well).
    pub fn new(graph: &'g SocialGraph, beta: f64) -> KatzScorer<'g> {
        assert!((0.0..=1.0).contains(&beta), "beta in [0,1]");
        KatzScorer {
            graph,
            beta,
            tolerance: 1e-9,
            max_depth: 30,
        }
    }

    /// Overrides the convergence controls.
    pub fn with_limits(mut self, tolerance: f64, max_depth: u32) -> KatzScorer<'g> {
        assert!(tolerance > 0.0 && tolerance < 1.0);
        self.tolerance = tolerance;
        self.max_depth = max_depth;
        self
    }

    /// Katz scores of every node with respect to `source` (the
    /// source's own entry counts the empty walk's 1).
    pub fn scores_from(&self, source: NodeId) -> Vec<f64> {
        let n = self.graph.num_nodes();
        let mut acc = vec![0.0f64; n];
        let mut cur = vec![0.0f64; n];
        let mut next = vec![0.0f64; n];
        let mut frontier = vec![source.0];
        let mut next_frontier: Vec<u32> = Vec::new();
        let mut in_next = vec![false; n];
        cur[source.index()] = 1.0;
        let mut total = 0.0f64;
        let mut depth = 0u32;
        loop {
            let mut level = 0.0f64;
            for &u in &frontier {
                acc[u as usize] += cur[u as usize];
                level += cur[u as usize];
            }
            total += level;
            if depth > 0 && level < self.tolerance * total {
                break;
            }
            if depth >= self.max_depth {
                break;
            }
            next_frontier.clear();
            for &u in &frontier {
                let mass = self.beta * cur[u as usize];
                if mass == 0.0 {
                    continue;
                }
                for v in self.graph.followees(NodeId(u)) {
                    if !in_next[v.index()] {
                        in_next[v.index()] = true;
                        next_frontier.push(v.0);
                    }
                    next[v.index()] += mass;
                }
            }
            for &u in &frontier {
                cur[u as usize] = 0.0;
            }
            for &v in &next_frontier {
                in_next[v as usize] = false;
            }
            std::mem::swap(&mut cur, &mut next);
            std::mem::swap(&mut frontier, &mut next_frontier);
            depth += 1;
            if frontier.is_empty() {
                break;
            }
        }
        fui_obs::counter("baseline.katz.calls").incr();
        fui_obs::counter("baseline.katz.levels").add(u64::from(depth));
        acc
    }

    /// Scores an explicit candidate list for `source`, aligned with
    /// the input order.
    pub fn score_candidates(&self, source: NodeId, candidates: &[NodeId]) -> Vec<f64> {
        let all = self.scores_from(source);
        candidates.iter().map(|&v| all[v.index()]).collect()
    }

    /// Top-`n` accounts by Katz score, excluding the source. The
    /// *scoring* stays independent of `fui-core`; only the final
    /// partial selection reuses the shared top-k helper (whose output
    /// order is pinned to sort-then-truncate by its own tests).
    pub fn recommend(&self, source: NodeId, n: usize) -> Vec<(NodeId, f64)> {
        let all = self.scores_from(source);
        fui_core::topk::select_top_k(
            n,
            all.iter()
                .enumerate()
                .filter(|&(i, &s)| s > 0.0 && i != source.index())
                .map(|(i, &s)| (NodeId(i as u32), s)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_core::{
        AuthorityIndex, PropWorkspace, PropagateOpts, Propagator, ScoreParams, ScoreVariant,
    };
    use fui_graph::{GraphBuilder, TopicSet};
    use fui_taxonomy::SimMatrix;

    fn diamond_with_cycle() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(TopicSet::empty())).collect();
        b.add_edge(n[0], n[1], TopicSet::empty());
        b.add_edge(n[0], n[2], TopicSet::empty());
        b.add_edge(n[1], n[3], TopicSet::empty());
        b.add_edge(n[2], n[3], TopicSet::empty());
        b.add_edge(n[3], n[0], TopicSet::empty());
        b.build()
    }

    #[test]
    fn closed_form_on_diamond() {
        let g = diamond_with_cycle();
        let k = KatzScorer::new(&g, 0.25).with_limits(1e-14, 100);
        let s = k.scores_from(NodeId(0));
        // Walks 0→3: two of length 2, then each cycle adds factor
        // (2·β³ through 3→0→{1,2}→3): s3 = 2β² / (1 − 2β³)... compute
        // via the cycle mass at node 0: m0 = 1 + 2β³·m0.
        let beta: f64 = 0.25;
        let m0 = 1.0 / (1.0 - 2.0 * beta.powi(3));
        assert!((s[0] - m0).abs() < 1e-9);
        assert!((s[3] - 2.0 * beta * beta * m0).abs() < 1e-9);
    }

    #[test]
    fn matches_core_engine_topoonly() {
        let g = diamond_with_cycle();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let params = ScoreParams {
            beta: 0.2,
            tolerance: 1e-13,
            max_depth: 80,
            ..ScoreParams::default()
        };
        let engine = Propagator::new(&g, &idx, &sim, params, ScoreVariant::TopoOnly);
        let mut ws = PropWorkspace::new();
        let r = engine.propagate(&mut ws, NodeId(0), &[], PropagateOpts::default());
        let katz = KatzScorer::new(&g, 0.2).with_limits(1e-13, 80);
        let s = katz.scores_from(NodeId(0));
        for v in g.nodes() {
            assert!(
                (s[v.index()] - r.topo_beta(v)).abs() < 1e-10,
                "node {v}: {} vs {}",
                s[v.index()],
                r.topo_beta(v)
            );
        }
    }

    #[test]
    fn recommend_sorts_and_excludes_source() {
        let g = diamond_with_cycle();
        let k = KatzScorer::new(&g, 0.25);
        let top = k.recommend(NodeId(0), 10);
        assert!(!top.iter().any(|&(v, _)| v == NodeId(0)));
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // One-hop neighbours beat the two-hop node: β > 2β².
        assert!(top[0].0 == NodeId(1) || top[0].0 == NodeId(2));
    }

    #[test]
    fn candidates_align() {
        let g = diamond_with_cycle();
        let k = KatzScorer::new(&g, 0.25);
        let all = k.scores_from(NodeId(0));
        let picked = k.score_candidates(NodeId(0), &[NodeId(3), NodeId(1)]);
        assert_eq!(picked, vec![all[3], all[1]]);
    }

    #[test]
    fn unreachable_nodes_score_zero() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(TopicSet::empty());
        let c = b.add_node(TopicSet::empty());
        let iso = b.add_node(TopicSet::empty());
        b.add_edge(a, c, TopicSet::empty());
        let g = b.build();
        let k = KatzScorer::new(&g, 0.3);
        let s = k.scores_from(a);
        assert_eq!(s[iso.index()], 0.0);
    }
}
