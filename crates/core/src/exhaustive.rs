//! Brute-force walk enumeration — the test oracle.
//!
//! Enumerates every walk of bounded length out of a source node and
//! sums Definition 1 directly. Exponential; only for small graphs in
//! tests (exported so downstream crates' property tests can reuse it).

use fui_graph::{NodeId, SocialGraph};
use fui_taxonomy::{SimMatrix, Topic};

use crate::authority::AuthorityIndex;
use crate::params::{ScoreParams, ScoreVariant};
use crate::relevance::walk_edge_contribution;

/// Exact scores of every node computed by walk enumeration up to
/// `max_len` edges.
#[derive(Clone, Debug)]
pub struct ExhaustiveScores {
    /// `σ(source, v, t)` per node.
    pub sigma: Vec<f64>,
    /// `topo_β(source, v)` per node (empty walk included at source).
    pub topo_beta: Vec<f64>,
    /// `topo_αβ(source, v)` per node.
    pub topo_alphabeta: Vec<f64>,
}

/// Reusable DFS scratch of the enumerator — the walk stack, kept warm
/// across sources in batched oracle runs.
#[derive(Clone, Debug, Default)]
pub struct EnumScratch {
    stack: Vec<(NodeId, u32, f64)>,
}

impl EnumScratch {
    /// An empty scratch; the stack grows to the deepest walk explored.
    pub fn new() -> EnumScratch {
        EnumScratch::default()
    }
}

/// Enumerates all walks from `source` of length `1..=max_len` and sums
/// their Definition-1 contributions per end node.
#[allow(clippy::too_many_arguments)]
pub fn enumerate(
    graph: &SocialGraph,
    sim: &SimMatrix,
    authority: &AuthorityIndex,
    params: &ScoreParams,
    source: NodeId,
    t: Topic,
    variant: ScoreVariant,
    max_len: u32,
) -> ExhaustiveScores {
    let mut scratch = EnumScratch::new();
    enumerate_into(
        &mut scratch,
        graph,
        sim,
        authority,
        params,
        source,
        t,
        variant,
        max_len,
    )
}

/// [`enumerate`] with a caller-owned [`EnumScratch`]. The per-node
/// score vectors are the function's output and are still allocated, but
/// the DFS stack — the only other allocation, and the hot one on deep
/// enumerations — is reused. Results are identical to [`enumerate`].
#[allow(clippy::too_many_arguments)]
pub fn enumerate_into(
    scratch: &mut EnumScratch,
    graph: &SocialGraph,
    sim: &SimMatrix,
    authority: &AuthorityIndex,
    params: &ScoreParams,
    source: NodeId,
    t: Topic,
    variant: ScoreVariant,
    max_len: u32,
) -> ExhaustiveScores {
    let n = graph.num_nodes();
    let mut out = ExhaustiveScores {
        sigma: vec![0.0; n],
        topo_beta: vec![0.0; n],
        topo_alphabeta: vec![0.0; n],
    };
    out.topo_beta[source.index()] = 1.0; // empty walk
    out.topo_alphabeta[source.index()] = 1.0;
    // DFS over walks carrying (current node, length, running topical
    // sum Σ α^d·sim·auth).
    let stack = &mut scratch.stack;
    stack.clear();
    stack.push((source, 0, 0.0));
    while let Some((u, len, topical)) = stack.pop() {
        if len == max_len {
            continue;
        }
        for e in graph.out_edges(u) {
            let d = len + 1;
            let contribution =
                walk_edge_contribution(sim, authority, params, e.labels, e.node, t, d, variant);
            let new_topical = topical + contribution;
            let weight_b = params.beta.powi(d as i32);
            let weight_ab = (params.alpha * params.beta).powi(d as i32);
            out.sigma[e.node.index()] += weight_b * new_topical;
            out.topo_beta[e.node.index()] += weight_b;
            out.topo_alphabeta[e.node.index()] += weight_ab;
            stack.push((e.node, d, new_topical));
        }
    }
    out
}

/// [`enumerate`] for a batch of sources, fanned out one source per
/// task over the [`fui_exec`] pool — the oracle-side counterpart of
/// the engine's batched queries. Each source's enumeration is fully
/// independent, so `out[i]` is bit-identical to
/// `enumerate(.., sources[i], ..)` at every `FUI_THREADS`. The DFS
/// scratch is pooled per worker (`fui_exec::WorkerLocal`), not
/// allocated per source.
#[allow(clippy::too_many_arguments)]
pub fn enumerate_many(
    graph: &SocialGraph,
    sim: &SimMatrix,
    authority: &AuthorityIndex,
    params: &ScoreParams,
    sources: &[NodeId],
    t: Topic,
    variant: ScoreVariant,
    max_len: u32,
) -> Vec<ExhaustiveScores> {
    let scratch: fui_exec::WorkerLocal<EnumScratch> = fui_exec::WorkerLocal::new();
    fui_exec::par_map(sources, |&s| {
        let mut sc = scratch.get_or(EnumScratch::new);
        enumerate_into(
            &mut sc, graph, sim, authority, params, s, t, variant, max_len,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::{PropWorkspace, PropagateOpts, Propagator};
    use fui_graph::{GraphBuilder, TopicSet};

    /// Oracle vs. engine on a graph with cycles and multi-labels.
    fn messy_graph() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(TopicSet::empty())).collect();
        let tech = TopicSet::single(Topic::Technology);
        let multi = TopicSet::single(Topic::Health).with(Topic::Sports);
        let soc = TopicSet::single(Topic::Social);
        b.add_edge(n[0], n[1], tech);
        b.add_edge(n[0], n[2], multi);
        b.add_edge(n[1], n[2], soc);
        b.add_edge(n[2], n[3], tech);
        b.add_edge(n[3], n[0], multi); // cycle back
        b.add_edge(n[3], n[4], soc);
        b.add_edge(n[2], n[4], tech);
        b.build()
    }

    #[test]
    fn engine_matches_oracle_at_fixed_depth() {
        let g = messy_graph();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let params = ScoreParams {
            alpha: 0.8,
            beta: 0.25,
            tolerance: 1e-15,
            max_depth: 50,
        };
        for variant in [
            ScoreVariant::Full,
            ScoreVariant::NoAuthority,
            ScoreVariant::NoSimilarity,
        ] {
            let p = Propagator::new(&g, &idx, &sim, params, variant);
            let mut ws = PropWorkspace::new();
            for depth in 1..=5u32 {
                for t in [Topic::Technology, Topic::Social, Topic::Entertainment] {
                    let oracle = enumerate(&g, &sim, &idx, &params, NodeId(0), t, variant, depth);
                    let r = p.propagate(
                        &mut ws,
                        NodeId(0),
                        &[t],
                        PropagateOpts {
                            max_depth: Some(depth),
                            ..Default::default()
                        },
                    );
                    for v in g.nodes() {
                        assert!(
                            (oracle.sigma[v.index()] - r.sigma(v, t)).abs() < 1e-12,
                            "{variant:?} depth {depth} topic {t} node {v}: \
                             oracle {} vs engine {}",
                            oracle.sigma[v.index()],
                            r.sigma(v, t)
                        );
                        assert!(
                            (oracle.topo_beta[v.index()] - r.topo_beta(v)).abs() < 1e-12,
                            "topo mismatch at {v}"
                        );
                        assert!(
                            (oracle.topo_alphabeta[v.index()] - r.topo_alphabeta(v)).abs() < 1e-12,
                            "topo_ab mismatch at {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_oracle_equals_per_source_oracle() {
        let g = messy_graph();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let params = ScoreParams::default();
        let sources: Vec<NodeId> = g.nodes().collect();
        let batched = enumerate_many(
            &g,
            &sim,
            &idx,
            &params,
            &sources,
            Topic::Technology,
            ScoreVariant::Full,
            4,
        );
        assert_eq!(batched.len(), sources.len());
        for (out, &s) in batched.iter().zip(&sources) {
            let serial = enumerate(
                &g,
                &sim,
                &idx,
                &params,
                s,
                Topic::Technology,
                ScoreVariant::Full,
                4,
            );
            for v in g.nodes() {
                assert_eq!(
                    out.sigma[v.index()].to_bits(),
                    serial.sigma[v.index()].to_bits(),
                    "source {s} node {v}"
                );
                assert_eq!(
                    out.topo_beta[v.index()].to_bits(),
                    serial.topo_beta[v.index()].to_bits()
                );
            }
        }
    }

    #[test]
    fn converged_engine_close_to_deep_oracle() {
        let g = messy_graph();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        // Small beta: walks beyond length ~8 contribute < 1e-8.
        let params = ScoreParams {
            alpha: 0.85,
            beta: 0.1,
            tolerance: 1e-14,
            max_depth: 60,
        };
        let p = Propagator::new(&g, &idx, &sim, params, ScoreVariant::Full);
        let mut ws = PropWorkspace::new();
        let r = p.propagate(
            &mut ws,
            NodeId(0),
            &[Topic::Technology],
            PropagateOpts::default(),
        );
        assert!(r.converged);
        let oracle = enumerate(
            &g,
            &sim,
            &idx,
            &params,
            NodeId(0),
            Topic::Technology,
            ScoreVariant::Full,
            12,
        );
        for v in g.nodes() {
            assert!(
                (oracle.sigma[v.index()] - r.sigma(v, Topic::Technology)).abs() < 1e-9,
                "node {v}"
            );
        }
    }
}
