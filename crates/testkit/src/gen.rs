//! Generated test instances and greedy shrinking.
//!
//! A [`GraphCase`] is a self-contained, rebuildable description of one
//! labeled social graph: node count, node labels, edge list. The
//! vendored proptest shim has no shrinking, so the harness carries its
//! own: [`minimize`] greedily deletes edges (and then trailing
//! isolated nodes) from a failing case while the failure persists, and
//! reports the smallest instance that still fails.

use fui_core::ScoreParams;
use fui_graph::{GraphBuilder, NodeId, SocialGraph};
use fui_taxonomy::{Topic, TopicSet, NUM_TOPICS};

use crate::rng::SeededRng;

/// A reproducible labeled-graph instance.
#[derive(Clone, Debug)]
pub struct GraphCase {
    /// Corpus preset name this case was drawn from.
    pub preset: &'static str,
    /// The seed that generated it.
    pub seed: u64,
    /// Number of accounts.
    pub num_nodes: usize,
    /// Publisher profile per node.
    pub node_labels: Vec<TopicSet>,
    /// Directed labeled edges `(follower, followee, labels)`,
    /// self-loop-free.
    pub edges: Vec<(u32, u32, TopicSet)>,
    /// Whether the preset guarantees acyclicity (every edge satisfies
    /// `follower < followee` in the presets that set this).
    pub acyclic: bool,
}

impl GraphCase {
    /// Builds the CSR graph (parallel edges merged by the builder).
    pub fn graph(&self) -> SocialGraph {
        let mut b = GraphBuilder::with_capacity(self.num_nodes, self.edges.len());
        for &l in &self.node_labels {
            b.add_node(l);
        }
        for &(u, v, l) in &self.edges {
            b.add_edge(NodeId(u), NodeId(v), l);
        }
        b.build()
    }

    /// One-line reproduction key for failure messages.
    pub fn repro(&self) -> String {
        format!(
            "preset={} seed={:#018x} nodes={} edges={}",
            self.preset,
            self.seed,
            self.num_nodes,
            self.edges.len()
        )
    }

    /// The case with edge `i` removed.
    fn without_edge(&self, i: usize) -> GraphCase {
        let mut c = self.clone();
        c.edges.remove(i);
        c
    }

    /// The case with trailing nodes that no remaining edge touches
    /// dropped (node ids are dense, so only a suffix can go).
    fn without_trailing_isolated(&self) -> GraphCase {
        let mut used = 1usize; // keep at least the query source, node 0
        for &(u, v, _) in &self.edges {
            used = used.max(u as usize + 1).max(v as usize + 1);
        }
        let mut c = self.clone();
        c.num_nodes = used;
        c.node_labels.truncate(used);
        c
    }

    /// The same follows with every edge relabelled by
    /// [`gen_wide_topicset`] and every edge into one seeded node
    /// dropped, so followees carry many topics, up to the last bit, and
    /// at least one node has no follower at all.
    pub fn widened(&self) -> GraphCase {
        let mut rng = SeededRng::new(self.seed.rotate_left(33));
        let silent = rng.below(self.num_nodes as u64) as u32;
        let mut c = self.clone();
        c.edges = self
            .edges
            .iter()
            .filter(|&&(_, v, _)| v != silent)
            .map(|&(u, v, _)| (u, v, gen_wide_topicset(&mut rng)))
            .collect();
        c
    }
}

/// Greedily shrinks `case` while `check` keeps failing on it.
///
/// `check` is the same `Result`-returning predicate the oracle runs;
/// the minimizer never interprets the error text, it only preserves
/// "still fails". Returns the smallest failing case found together
/// with its error. Cost is `O(edges²)` checks in the worst case, fine
/// at harness scale (≤ a few dozen edges).
pub fn minimize(
    case: &GraphCase,
    check: impl Fn(&GraphCase) -> Result<(), String>,
) -> (GraphCase, String) {
    let mut err = match check(case) {
        Ok(()) => panic!("minimize called on a passing case ({})", case.repro()),
        Err(e) => e,
    };
    let mut best = case.clone();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < best.edges.len() {
            let candidate = best.without_edge(i);
            if let Err(e) = check(&candidate) {
                best = candidate;
                err = e;
                shrunk = true;
                // Same index now names the next edge.
            } else {
                i += 1;
            }
        }
        let trimmed = best.without_trailing_isolated();
        if trimmed.num_nodes < best.num_nodes {
            if let Err(e) = check(&trimmed) {
                best = trimmed;
                err = e;
                shrunk = true;
            }
        }
        if !shrunk {
            return (best, err);
        }
    }
}

/// A random non-empty topic set of 1–3 topics.
pub fn gen_topicset(rng: &mut SeededRng) -> TopicSet {
    let k = 1 + rng.below(3);
    let mut s = TopicSet::empty();
    for _ in 0..k {
        s.insert(*rng.pick(&Topic::ALL));
    }
    s
}

/// A random topic set over the whole vocabulary, the empty set
/// included: each topic independently with probability 1/2.
pub fn gen_wide_topicset(rng: &mut SeededRng) -> TopicSet {
    TopicSet::from_mask(rng.below(1 << NUM_TOPICS) as u32)
}

/// A random topic.
pub fn gen_topic(rng: &mut SeededRng) -> Topic {
    *rng.pick(&Topic::ALL)
}

/// Score parameters for **fixed-depth** differential checks: the
/// comparison truncates both sides at the same walk length, so `β`
/// needs no spectral bound and the tolerance is set low enough that it
/// never triggers before the depth cap.
pub fn gen_params_fixed_depth(rng: &mut SeededRng) -> ScoreParams {
    ScoreParams {
        alpha: rng.f64_range(0.3, 1.0),
        beta: rng.f64_range(0.1, 0.4),
        tolerance: 1e-300,
        max_depth: 64,
    }
}

/// Score parameters for **run-to-convergence** checks on acyclic
/// instances: a DAG's frontier empties after at most `num_nodes`
/// levels, so convergence is exact for any `β`; the tolerance is
/// effectively disabled so no level is dropped early.
pub fn gen_params_dag(rng: &mut SeededRng) -> ScoreParams {
    ScoreParams {
        alpha: rng.f64_range(0.3, 1.0),
        beta: rng.f64_range(0.1, 0.5),
        tolerance: 1e-300,
        max_depth: 64,
    }
}

/// Score parameters for run-to-convergence checks on a (possibly
/// cyclic) graph: `β` is pulled under the Proposition 3 spectral bound
/// so the propagation converges geometrically.
pub fn gen_params_converging(rng: &mut SeededRng, graph: &SocialGraph) -> ScoreParams {
    let radius = fui_graph::spectral::spectral_radius(graph, 60);
    let cap = if radius > 0.0 { 0.6 / radius } else { 0.4 };
    ScoreParams {
        alpha: rng.f64_range(0.3, 1.0),
        beta: rng.f64_range(0.2, 1.0) * cap.min(0.4),
        tolerance: 1e-14,
        max_depth: 400,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Preset};

    #[test]
    fn case_rebuilds_identically() {
        let case = corpus::generate(Preset::Random, 99);
        let g1 = case.graph();
        let g2 = case.graph();
        assert_eq!(g1.num_nodes(), g2.num_nodes());
        assert_eq!(g1.num_edges(), g2.num_edges());
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn minimize_finds_a_single_culprit_edge() {
        // Fail whenever the edge 2 -> 3 is present: the minimizer must
        // strip everything else.
        let case = corpus::generate(Preset::Dag, 7);
        let has_culprit = |c: &GraphCase| c.edges.iter().any(|&(u, v, _)| (u, v) == (2, 3));
        if !has_culprit(&case) {
            return; // this seed happens not to draw the edge; fine
        }
        let check = |c: &GraphCase| {
            if has_culprit(c) {
                Err("culprit present".to_owned())
            } else {
                Ok(())
            }
        };
        let (small, err) = minimize(&case, check);
        assert_eq!(small.edges.len(), 1);
        assert_eq!((small.edges[0].0, small.edges[0].1), (2, 3));
        assert_eq!(small.num_nodes, 4);
        assert!(err.contains("culprit"));
    }

    #[test]
    fn generated_params_are_valid() {
        let mut rng = SeededRng::new(5);
        for _ in 0..32 {
            gen_params_fixed_depth(&mut rng).check_ranges().unwrap();
            gen_params_dag(&mut rng).check_ranges().unwrap();
        }
    }
}
