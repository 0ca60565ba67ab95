//! Independent re-derivation of the authority normalizer, with
//! deliberate mutations — the harness's teeth.
//!
//! A differential oracle is only trustworthy if it *would* catch a
//! bug. This module re-derives the Section 3.2 authority score
//!
//! ```text
//! auth(u, t) = |Γu(t)| / |Γu| · log(1 + |Γu(t)|) / log(1 + max_v |Γv(t)|)
//! ```
//!
//! straight from the in-edges, and can inject a classic off-by-one —
//! or a reassociation that only moves the last bits — into that copy
//! ([`Mutation`]). [`check_authority`] compares the copy against the
//! production [`AuthorityIndex`] bit for bit; the conformance
//! suite asserts the unmutated copy agrees everywhere **and** that
//! every mutation is caught on every instance that has any authority
//! mass at all — a mutation surviving would mean the oracle is blind
//! to exactly the class of bug it exists to catch.
//!
//! It also keeps [`dense_propagate`], the level sweep of Proposition 1
//! written the obvious way over node-dense buffers. The production
//! kernel stores its scratch by reached order instead; the conformance
//! suite holds it to this copy **bit for bit**, so a layout change can
//! never be checked only against itself.
//!
//! And [`rebuild_with_changes`], what a batch of follows and unfollows
//! *means*: the edge set after the changes, packed from scratch. The
//! production edit merges a sorted delta into the old rows instead and
//! is held to this arena for arena.

use std::collections::BTreeMap;

use fui_core::{AuthorityIndex, PropagateOpts, ScoreParams};
use fui_graph::{GraphBuilder, NodeId, SocialGraph};
use fui_landmarks::{ChangeKind, EdgeChange};
use fui_taxonomy::{SimMatrix, Topic, TopicSet, NUM_TOPICS};

/// A deliberate bug injected into the reference normalizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Faithful re-derivation; must match the production index.
    None,
    /// `log(2 + max)` instead of `log(1 + max)` in the global
    /// denominator — deflates every non-zero score.
    GlobalDenominatorOffByOne,
    /// `|Γu(t)| + 1` in the local numerator — inflates specialisation.
    LocalNumeratorOffByOne,
    /// Drops the per-topic maximum of the last node — wrong whenever
    /// the last node holds a topic's maximum.
    MaxScanSkipsLastNode,
    /// `(|Γu(t)| · log(1 + |Γu(t)|)) / (|Γu| · log(1 + max))`: the same
    /// real number, rounded differently. Only a bitwise comparison sees
    /// it, and a reassociated production formula would move checksums.
    Reassociated,
}

impl Mutation {
    /// The injectable bugs (everything but [`Mutation::None`]).
    pub const BUGS: [Mutation; 4] = [
        Mutation::GlobalDenominatorOffByOne,
        Mutation::LocalNumeratorOffByOne,
        Mutation::MaxScanSkipsLastNode,
        Mutation::Reassociated,
    ];
}

/// The authority tables re-derived the obvious way, node-dense.
#[derive(Clone, Debug)]
pub struct ReferenceAuthority {
    /// `auth(v, t)` at `[v * NUM_TOPICS + t]`.
    pub auth: Vec<f64>,
    /// `|Γv(t)|`, same layout.
    pub followers_on: Vec<u32>,
    /// `max_v |Γv(t)|` per topic.
    pub max_followers_on: [u32; NUM_TOPICS],
}

impl ReferenceAuthority {
    /// Whether two tables agree bit for bit.
    fn same_bits(&self, other: &ReferenceAuthority) -> bool {
        self.followers_on == other.followers_on
            && self.max_followers_on == other.max_followers_on
            && self
                .auth
                .iter()
                .zip(&other.auth)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Re-derives the full authority tables, optionally with a [`Mutation`]
/// applied.
pub fn reference_authority(graph: &SocialGraph, mutation: Mutation) -> ReferenceAuthority {
    let n = graph.num_nodes();
    let mut followers = vec![0u32; n * NUM_TOPICS];
    for v in graph.nodes() {
        for e in graph.in_edges(v) {
            for t in e.labels.iter() {
                followers[v.index() * NUM_TOPICS + t.index()] += 1;
            }
        }
    }
    let max_scan_end = if mutation == Mutation::MaxScanSkipsLastNode {
        n.saturating_sub(1)
    } else {
        n
    };
    let mut maxima = [0u32; NUM_TOPICS];
    for v in 0..max_scan_end {
        for t in 0..NUM_TOPICS {
            maxima[t] = maxima[t].max(followers[v * NUM_TOPICS + t]);
        }
    }
    let mut auth = vec![0.0f64; n * NUM_TOPICS];
    for v in graph.nodes() {
        let total = graph.in_degree(v);
        if total == 0 {
            continue;
        }
        for t in 0..NUM_TOPICS {
            let on_t = followers[v.index() * NUM_TOPICS + t];
            if on_t == 0 {
                continue;
            }
            let local_numerator = match mutation {
                Mutation::LocalNumeratorOffByOne => on_t + 1,
                _ => on_t,
            };
            let global_base = match mutation {
                Mutation::GlobalDenominatorOffByOne => 2 + maxima[t],
                _ => 1 + maxima[t],
            };
            let numerator_log = f64::from(1 + on_t).ln();
            let denominator_log = f64::from(global_base).ln();
            auth[v.index() * NUM_TOPICS + t] = if mutation == Mutation::Reassociated {
                (f64::from(on_t) * numerator_log) / (total as f64 * denominator_log)
            } else {
                let local = f64::from(local_numerator) / total as f64;
                local * (numerator_log / denominator_log)
            };
        }
    }
    ReferenceAuthority {
        auth,
        followers_on: followers,
        max_followers_on: maxima,
    }
}

/// Compares the (possibly mutated) reference tables against the
/// production [`AuthorityIndex`] bit for bit — every score, every
/// follower count and every per-topic maximum; `Err` carries the first
/// divergence.
pub fn check_authority(graph: &SocialGraph, mutation: Mutation) -> Result<(), String> {
    let index = AuthorityIndex::build(graph);
    let reference = reference_authority(graph, mutation);
    for t in Topic::ALL {
        let (got, expect) = (
            index.max_followers_on(t),
            reference.max_followers_on[t.index()],
        );
        if got != expect {
            return Err(format!(
                "max_followers_on mismatch at topic {t}: index={got} \
                 reference({mutation:?})={expect}"
            ));
        }
    }
    for v in graph.nodes() {
        for t in Topic::ALL {
            let at = v.index() * NUM_TOPICS + t.index();
            let (got, expect) = (index.followers_on(v, t), reference.followers_on[at]);
            if got != expect {
                return Err(format!(
                    "followers_on mismatch at node {v} topic {t}: index={got} \
                     reference({mutation:?})={expect}"
                ));
            }
            let (got, expect) = (index.auth(v, t), reference.auth[at]);
            if got.to_bits() != expect.to_bits() {
                return Err(format!(
                    "authority mismatch at node {v} topic {t}: \
                     index={got:e} reference({mutation:?})={expect:e}"
                ));
            }
        }
    }
    Ok(())
}

/// Whether the graph has any authority mass at all — a mutation can
/// only be observable where some score is non-zero.
pub fn has_authority_mass(graph: &SocialGraph) -> bool {
    let index = AuthorityIndex::build(graph);
    graph
        .nodes()
        .any(|v| Topic::ALL.iter().any(|&t| index.auth(v, t) > 0.0))
}

/// The mutation sanity check: the faithful copy must agree and every
/// observable injected bug must be caught.
pub fn check_mutations_are_caught(graph: &SocialGraph) -> Result<(), String> {
    check_authority(graph, Mutation::None)
        .map_err(|e| format!("faithful reference diverges from the index: {e}"))?;
    if !has_authority_mass(graph) {
        return Ok(()); // nothing any mutation could perturb
    }
    for bug in Mutation::BUGS {
        if !mutation_is_observable(graph, bug) {
            continue;
        }
        if check_authority(graph, bug).is_ok() {
            return Err(format!(
                "oracle is blind: injected {bug:?} but the comparison still \
                 passed"
            ));
        }
    }
    Ok(())
}

/// Whether `bug` changes any bit of the reference tables on this graph
/// (e.g. [`Mutation::MaxScanSkipsLastNode`] is a no-op when the last
/// node holds no per-topic maximum, [`Mutation::Reassociated`] when
/// every score happens to round the same way).
fn mutation_is_observable(graph: &SocialGraph, bug: Mutation) -> bool {
    let clean = reference_authority(graph, Mutation::None);
    !clean.same_bits(&reference_authority(graph, bug))
}

/// What [`dense_propagate`] computed: the run shape plus node-dense
/// score tables (`sigma[v * topics.len() + ti]`).
pub struct DenseRun {
    /// Nodes in first-folded order, source first.
    pub reached: Vec<NodeId>,
    /// Levels propagated.
    pub levels: u32,
    /// Stopped on the tolerance or an empty frontier (not the depth cap).
    pub converged: bool,
    /// `σ(source, v, topics[ti])`.
    pub sigma: Vec<f64>,
    /// `topo_β(source, v)`.
    pub topo_beta: Vec<f64>,
    /// `topo_αβ(source, v)`.
    pub topo_alphabeta: Vec<f64>,
}

/// The full-variant level sweep over plain `vec![0.0; n * tc]` buffers:
/// same recurrences, same edge order and same stop rules as
/// `fui_core::Propagator::propagate`, none of its data layout.
pub fn dense_propagate(
    graph: &SocialGraph,
    auth: &AuthorityIndex,
    sim: &SimMatrix,
    params: &ScoreParams,
    source: NodeId,
    topics: &[Topic],
    opts: PropagateOpts<'_>,
) -> DenseRun {
    let (n, tc) = (graph.num_nodes(), topics.len());
    let (beta, ab) = (params.beta, params.alpha * params.beta);
    let depth_cap = params.max_depth.min(opts.max_depth.unwrap_or(u32::MAX));
    let (mut acc_sig, mut cur_sig) = (vec![0.0f64; n * tc], vec![0.0f64; n * tc]);
    let (mut acc_tb, mut cur_tb) = (vec![0.0f64; n], vec![0.0f64; n]);
    let (mut acc_tab, mut cur_tab) = (vec![0.0f64; n], vec![0.0f64; n]);
    let mut seen = vec![false; n];
    let mut reached = Vec::new();
    let mut frontier = vec![source];
    cur_tb[source.index()] = 1.0;
    cur_tab[source.index()] = 1.0;
    let (mut total, mut levels) = (0.0f64, 0u32);
    let converged = loop {
        let mut level_tb = 0.0f64;
        for &u in &frontier {
            let ui = u.index();
            if !seen[ui] {
                seen[ui] = true;
                reached.push(u);
            }
            acc_tb[ui] += cur_tb[ui];
            acc_tab[ui] += cur_tab[ui];
            level_tb += cur_tb[ui];
            for ti in 0..tc {
                acc_sig[ui * tc + ti] += cur_sig[ui * tc + ti];
            }
        }
        total += level_tb;
        if levels > 0 && level_tb < params.tolerance * total {
            break true;
        }
        if levels >= depth_cap {
            break false;
        }
        let (mut next_sig, mut next_tb, mut next_tab) =
            (vec![0.0f64; n * tc], vec![0.0f64; n], vec![0.0f64; n]);
        let mut queued = vec![false; n];
        let mut next_frontier = Vec::new();
        for &u in &frontier {
            let ui = u.index();
            if u != source && opts.prune.is_some_and(|mask| mask[ui]) {
                continue;
            }
            for e in graph.out_edges(u) {
                let vi = e.node.index();
                if !queued[vi] {
                    queued[vi] = true;
                    next_frontier.push(e.node);
                }
                next_tb[vi] += beta * cur_tb[ui];
                next_tab[vi] += ab * cur_tab[ui];
                for (ti, &t) in topics.iter().enumerate() {
                    let w = ab * sim.max_sim(e.labels, t) * auth.auth(e.node, t);
                    next_sig[vi * tc + ti] += beta * cur_sig[ui * tc + ti] + cur_tab[ui] * w;
                }
            }
        }
        (cur_sig, cur_tb, cur_tab, frontier) = (next_sig, next_tb, next_tab, next_frontier);
        levels += 1;
        if frontier.is_empty() {
            break true;
        }
    };
    DenseRun {
        reached,
        levels,
        converged,
        sigma: acc_sig,
        topo_beta: acc_tb,
        topo_alphabeta: acc_tab,
    }
}

/// The graph `changes` leave behind, by definition: start from the edge
/// set, apply each change in order (an insert unions its labels into
/// the edge, creating it if absent; a remove deletes it), and build the
/// result from nothing.
pub fn rebuild_with_changes(graph: &SocialGraph, changes: &[EdgeChange]) -> SocialGraph {
    let mut edges: BTreeMap<(NodeId, NodeId), TopicSet> =
        graph.edges().map(|(u, v, l)| ((u, v), l)).collect();
    for c in changes {
        let pair = (c.follower, c.followee);
        match c.kind {
            ChangeKind::Insert => {
                let l = edges.entry(pair).or_default();
                *l = l.union(c.labels);
            }
            ChangeKind::Remove => drop(edges.remove(&pair)),
        }
    }
    let mut b = GraphBuilder::with_capacity(graph.num_nodes(), edges.len());
    for u in graph.nodes() {
        b.add_node(graph.node_labels(u));
    }
    for ((u, v), l) in edges {
        b.add_edge(u, v, l);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Preset};
    use fui_graph::GraphBuilder;
    use fui_taxonomy::TopicSet;

    #[test]
    fn faithful_copy_matches_on_all_presets() {
        for preset in Preset::ALL {
            for seed in 0..16u64 {
                let case = corpus::generate(preset, seed);
                for g in [case.graph(), case.widened().graph()] {
                    check_authority(&g, Mutation::None)
                        .unwrap_or_else(|e| panic!("{preset:?}/{seed}: {e}"));
                }
            }
        }
    }

    #[test]
    fn widened_cases_reach_every_rank_and_a_silent_node() {
        let (mut last_bit, mut silent) = (false, false);
        for preset in Preset::ALL {
            for seed in 0..16u64 {
                let g = corpus::generate(preset, seed).widened().graph();
                let index = AuthorityIndex::build(&g);
                last_bit |= g.nodes().any(|v| index.followers_on(v, Topic::ALL[17]) > 0);
                silent |= g.nodes().any(|v| g.in_degree(v) == 0);
            }
        }
        assert!(
            last_bit && silent,
            "last bit {last_bit}, silent node {silent}"
        );
    }

    #[test]
    fn reassociation_is_seen_only_bitwise() {
        // The reassociated formula is the same real number: it lands
        // within the old 1e-12 tolerance everywhere, so only the
        // bitwise comparison catches it — and it must, somewhere.
        let mut caught = 0;
        for preset in Preset::ALL {
            for seed in 0..16u64 {
                let g = corpus::generate(preset, seed).widened().graph();
                let clean = reference_authority(&g, Mutation::None);
                let moved = reference_authority(&g, Mutation::Reassociated);
                for (a, b) in clean.auth.iter().zip(&moved.auth) {
                    assert!((a - b).abs() <= 1e-12, "{preset:?}/{seed}: {a} vs {b}");
                }
                if mutation_is_observable(&g, Mutation::Reassociated) {
                    assert!(check_authority(&g, Mutation::Reassociated).is_err());
                    caught += 1;
                }
            }
        }
        assert!(
            caught > 0,
            "no case rounds the reassociated formula differently"
        );
    }

    #[test]
    fn global_off_by_one_is_always_caught_with_mass() {
        // log(2+max) != log(1+max) for every max >= 1, so any non-zero
        // score moves.
        for preset in Preset::ALL {
            for seed in 0..16u64 {
                let g = corpus::generate(preset, seed).graph();
                if !has_authority_mass(&g) {
                    continue;
                }
                assert!(
                    check_authority(&g, Mutation::GlobalDenominatorOffByOne).is_err(),
                    "{preset:?}/{seed}: global off-by-one slipped through"
                );
            }
        }
    }

    #[test]
    fn mutation_harness_has_teeth() {
        for preset in Preset::ALL {
            for seed in 0..8u64 {
                let case = corpus::generate(preset, seed);
                for g in [case.graph(), case.widened().graph()] {
                    check_mutations_are_caught(&g)
                        .unwrap_or_else(|e| panic!("{preset:?}/{seed}: {e}"));
                }
            }
        }
    }

    #[test]
    fn max_scan_mutation_observable_when_last_node_is_the_max() {
        // Node 2 (the last) is the unique technology maximum.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(TopicSet::empty())).collect();
        let tech = TopicSet::single(Topic::Technology);
        b.add_edge(n[0], n[2], tech);
        b.add_edge(n[1], n[2], tech);
        b.add_edge(n[0], n[1], tech);
        let g = b.build();
        assert!(mutation_is_observable(&g, Mutation::MaxScanSkipsLastNode));
        assert!(check_authority(&g, Mutation::MaxScanSkipsLastNode).is_err());
    }
}
