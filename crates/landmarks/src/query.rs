//! Fast approximate recommendation (Algorithm 2).
//!
//! A query for user `u` on topic `t`:
//!
//! 1. explores the graph from `u` to a small depth `k` (2 in the
//!    paper's experiments) with the propagation engine, **pruning at
//!    landmarks** — a landmark's out-edges are not expanded, "to avoid
//!    considering twice paths from the BFS which pass through a
//!    landmark" (Section 5.4);
//! 2. every node reached directly contributes its exact partial score
//!    `σ(u, v, t)`;
//! 3. every landmark λ reached contributes its stored lists through
//!    the Proposition 4 composition
//!    `σ̃_λ(u,v,t) = σ(u,λ,t)·topo_β(λ,v) + topo_βα(u,λ)·σ(λ,v,t)`;
//! 4. contributions are summed per candidate and the top-n returned.
//!
//! The result is a lower bound of the exact score (paths avoiding all
//! landmarks beyond depth `k` are missed), traded for a 2–3
//! order-of-magnitude latency win (Table 6).

use std::collections::HashMap;
use std::sync::OnceLock;

use fui_core::{topk, PropWorkspace, PropagateOpts, Propagator};
use fui_graph::NodeId;
use fui_obs::Counter;
use fui_taxonomy::Topic;

use crate::index::LandmarkIndex;

/// The composition's counter handles, resolved once: a query never
/// takes the registry's name-lookup lock.
struct ComposeMetrics {
    landmarks_met: Counter,
    composed_pairs: Counter,
    candidates: Counter,
}

fn compose_metrics() -> &'static ComposeMetrics {
    static METRICS: OnceLock<ComposeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ComposeMetrics {
        landmarks_met: fui_obs::counter("landmark.query.landmarks_met"),
        composed_pairs: fui_obs::counter("landmark.composed_pairs"),
        candidates: fui_obs::counter("query.candidates"),
    })
}

/// Result of an approximate recommendation query.
#[derive(Clone, Debug)]
pub struct ApproxResult {
    /// Merged recommendations, best first (query node excluded).
    pub recommendations: Vec<(NodeId, f64)>,
    /// Landmarks encountered during the exploration (the `#lnd` column
    /// of Table 6).
    pub landmarks_found: usize,
    /// The landmark nodes the exploration met, ascending. The answer
    /// is a function of the graph plus exactly these landmarks' stored
    /// entries (the prune mask never changes — the landmark *set* is
    /// fixed for an index's lifetime), so a result cache can stay
    /// valid across refreshes of landmarks outside this list.
    pub met_landmarks: Vec<NodeId>,
    /// Nodes reached by the bounded exploration.
    pub explored: usize,
}

/// The first half of one approximate query: everything the pruned
/// vicinity propagation produced, captured so that composition can
/// replay it, and each half can be timed on its own. Exploration
/// depends only on the graph, the landmark membership mask, the
/// scoring parameters and the depth — never on the stored lists.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// The querying user (composition must skip it as a candidate).
    pub user: NodeId,
    /// `(v, σ(u,v,t))` for every reached `v ≠ u` with positive mass,
    /// in propagation (reached) order — the direct-contribution
    /// inputs.
    pub vicinity: Vec<(NodeId, f64)>,
    /// `(λ, σ(u,λ,t), topo_βα(u,λ))` for every reached landmark
    /// `λ ≠ u`, in reached order — the composition inputs.
    pub met: Vec<(NodeId, f64, f64)>,
    /// Total nodes the bounded exploration reached.
    pub explored: usize,
}

/// Approximate recommender combining a bounded exploration with a
/// landmark index.
pub struct ApproxRecommender<'a, 'g> {
    propagator: &'a Propagator<'g>,
    index: &'a LandmarkIndex,
    /// Exploration depth `k` (the paper uses 2).
    pub explore_depth: u32,
    /// Whether to prune the exploration at landmarks (the paper does;
    /// disabling it is the ablation measured in the benches).
    pub prune_at_landmarks: bool,
}

impl<'a, 'g> ApproxRecommender<'a, 'g> {
    /// Creates a recommender with the paper's defaults (depth 2,
    /// pruning on).
    pub fn new(propagator: &'a Propagator<'g>, index: &'a LandmarkIndex) -> Self {
        ApproxRecommender {
            propagator,
            index,
            explore_depth: 2,
            prune_at_landmarks: true,
        }
    }

    /// Top-`n` approximate recommendations for a weighted multi-topic
    /// query (Section 3.2's linear combination, computed per topic
    /// over the stored lists and merged), explored inside `ws`.
    /// Weights need not be normalised.
    pub fn recommend_weighted(
        &self,
        ws: &mut PropWorkspace,
        u: NodeId,
        query: &[(Topic, f64)],
        top_n: usize,
    ) -> ApproxResult {
        let mut combined: HashMap<u32, f64> = HashMap::new();
        let mut landmarks_found = 0usize;
        let mut met_landmarks: Vec<NodeId> = Vec::new();
        let mut explored = 0usize;
        for &(t, w) in query {
            let r = self.recommend_with(ws, u, t, usize::MAX);
            landmarks_found = landmarks_found.max(r.landmarks_found);
            met_landmarks.extend(r.met_landmarks);
            explored = explored.max(r.explored);
            for (v, s) in r.recommendations {
                *combined.entry(v.0).or_insert(0.0) += w * s;
            }
        }
        met_landmarks.sort();
        met_landmarks.dedup();
        let recommendations =
            topk::select_top_k(top_n, combined.into_iter().map(|(v, s)| (NodeId(v), s)));
        ApproxResult {
            recommendations,
            landmarks_found,
            met_landmarks,
            explored,
        }
    }

    /// Answers a batch of independent queries, fanned out over the
    /// [`fui_exec`] pool (`FUI_THREADS` workers). Results come back in
    /// query order and each equals the same
    /// [`recommend_with`](Self::recommend_with) call in any workspace
    /// exactly — queries only read
    /// the shared propagator and index, so the batch is
    /// embarrassingly parallel and thread-count invariant.
    /// Each worker reuses one propagation workspace across all the
    /// queries it claims, so the batch performs `O(FUI_THREADS)`
    /// workspace allocations, not `O(queries)`.
    pub fn recommend_batch(&self, queries: &[(NodeId, Topic)], top_n: usize) -> Vec<ApproxResult> {
        let pool: fui_exec::WorkerLocal<PropWorkspace> = fui_exec::WorkerLocal::new();
        fui_exec::par_map(queries, |&(u, t)| {
            let mut ws = pool.get_or(PropWorkspace::new);
            self.recommend_with(&mut ws, u, t, top_n)
        })
    }

    /// [`recommend_with`](Self::recommend_with) in a fresh workspace,
    /// which costs an 8 B/node allocation per call. Named by
    /// `benchmark/` (`core.workspace.cold_query_us`); ROADMAP 6(d)
    /// deletes it.
    pub fn recommend(&self, u: NodeId, t: Topic, top_n: usize) -> ApproxResult {
        let mut ws = PropWorkspace::new();
        self.recommend_with(&mut ws, u, t, top_n)
    }

    /// Top-`n` approximate recommendations for `u` on `t`, explored
    /// inside a caller-owned [`PropWorkspace`] (a loop keeps one, a
    /// pooled batch one per `fui-exec` worker). Answers are
    /// bit-identical whatever ran in the workspace before. Named by
    /// `benchmark/`; ROADMAP 6(d) renames it `recommend`.
    pub fn recommend_with(
        &self,
        ws: &mut PropWorkspace,
        u: NodeId,
        t: Topic,
        top_n: usize,
    ) -> ApproxResult {
        let _span = fui_obs::span!("landmark.query");
        let ex = self.explore_with(ws, u, t);
        self.compose_from(&ex, t, top_n)
    }

    /// The exploration half of [`recommend_with`](Self::recommend_with):
    /// one pruned propagation from `u` on `t`, captured as an
    /// [`Exploration`]. Never reads the stored lists. Named by
    /// `benchmark/` (`landmarks.explore_us`); ROADMAP 6(d) makes it
    /// private.
    pub fn explore_with(&self, ws: &mut PropWorkspace, u: NodeId, t: Topic) -> Exploration {
        let prune_mask = self.prune_at_landmarks.then(|| self.index.mask());
        let r = self.propagator.propagate(
            ws,
            u,
            &[t],
            PropagateOpts {
                max_depth: Some(self.explore_depth),
                prune: prune_mask,
            },
        );
        let mut vicinity: Vec<(NodeId, f64)> = Vec::new();
        let mut met: Vec<(NodeId, f64, f64)> = Vec::new();
        for &v in &r.reached {
            if v == u {
                continue;
            }
            let s = r.sigma_at(v, 0);
            if s > 0.0 {
                vicinity.push((v, s));
            }
            if self.index.is_landmark(v) {
                met.push((v, s, r.topo_alphabeta(v)));
            }
        }
        Exploration {
            user: u,
            vicinity,
            met,
            explored: r.reached.len(),
        }
    }

    /// The composition half of [`recommend_with`](Self::recommend_with):
    /// direct contributions plus stored-list composition, replayed from
    /// a captured [`Exploration`] in the exact accumulation order of the
    /// fused path — `compose_from(&explore_with(..), ..)` is
    /// bit-identical to one `recommend_with` call. Named by
    /// `benchmark/` (`landmarks.compose_us`); ROADMAP 6(d) makes it
    /// private.
    pub fn compose_from(&self, ex: &Exploration, t: Topic, top_n: usize) -> ApproxResult {
        let u = ex.user;
        let mut scores: HashMap<u32, f64> = HashMap::with_capacity(ex.explored * 2);
        // Direct contributions of the explored vicinity.
        for &(v, s) in &ex.vicinity {
            scores.insert(v.0, s);
        }
        // Landmark compositions.
        let mut landmarks_found = 0usize;
        let mut met_landmarks: Vec<NodeId> = Vec::new();
        let mut composed_pairs = 0u64;
        for &(l, sigma_ul, topo_ab_ul) in &ex.met {
            let entry = self.index.entry(l).expect("masked node has an entry");
            landmarks_found += 1;
            met_landmarks.push(l);
            if sigma_ul == 0.0 && topo_ab_ul == 0.0 {
                continue;
            }
            // Per-topic list: both σ(λ,w) and topo(λ,w) stored.
            for s in &entry.recs[t.index()] {
                if s.node == u {
                    continue;
                }
                composed_pairs += 1;
                let add = sigma_ul * s.topo + topo_ab_ul * s.sigma;
                if add > 0.0 {
                    *scores.entry(s.node.0).or_insert(0.0) += add;
                }
            }
            // Topological list: contributes the σ(u,λ)·topo(λ,w) term
            // for nodes absent from the topical list (their σ(λ,w,t)
            // fell outside the stored top-n; the lower bound keeps the
            // term we do know).
            let in_topical: std::collections::HashSet<u32> =
                entry.recs[t.index()].iter().map(|s| s.node.0).collect();
            if sigma_ul > 0.0 {
                for s in &entry.topo {
                    if s.node == u || in_topical.contains(&s.node.0) {
                        continue;
                    }
                    composed_pairs += 1;
                    *scores.entry(s.node.0).or_insert(0.0) += sigma_ul * s.topo;
                }
            }
        }

        let metrics = compose_metrics();
        metrics.landmarks_met.add(landmarks_found as u64);
        metrics.composed_pairs.add(composed_pairs);
        metrics.candidates.add(scores.len() as u64);

        met_landmarks.sort();
        let recommendations =
            topk::select_top_k(top_n, scores.into_iter().map(|(v, s)| (NodeId(v), s)));
        ApproxResult {
            recommendations,
            landmarks_found,
            met_landmarks,
            explored: ex.explored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::LandmarkIndex;
    use fui_core::{AuthorityIndex, ScoreParams, ScoreVariant};
    use fui_graph::{GraphBuilder, SocialGraph, TopicSet};
    use fui_taxonomy::SimMatrix;

    /// u → λ → {a, b}: every path to a/b passes the landmark, so the
    /// approximation must be exact there.
    fn line_graph() -> SocialGraph {
        let mut g = GraphBuilder::new();
        let u = g.add_node(TopicSet::empty());
        let l = g.add_node(TopicSet::empty());
        let a = g.add_node(TopicSet::empty());
        let b = g.add_node(TopicSet::empty());
        let tech = TopicSet::single(Topic::Technology);
        g.add_edge(u, l, tech);
        g.add_edge(l, a, tech);
        g.add_edge(a, b, tech);
        g.build()
    }

    fn params() -> ScoreParams {
        ScoreParams {
            alpha: 0.8,
            beta: 0.3,
            tolerance: 1e-13,
            max_depth: 40,
        }
    }

    #[test]
    fn exact_when_all_paths_pass_the_landmark() {
        let g = line_graph();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&p, vec![NodeId(1)], 10);
        let approx = ApproxRecommender::new(&p, &index);
        let mut ws = PropWorkspace::new();
        let result = approx.recommend_with(&mut ws, NodeId(0), Topic::Technology, 10);
        assert_eq!(result.landmarks_found, 1);

        let mut exact_ws = PropWorkspace::new();
        let exact = p.propagate(
            &mut exact_ws,
            NodeId(0),
            &[Topic::Technology],
            PropagateOpts::default(),
        );
        let approx_score = |n: NodeId| {
            result
                .recommendations
                .iter()
                .find(|&&(v, _)| v == n)
                .map(|&(_, s)| s)
                .unwrap_or(0.0)
        };
        for v in [NodeId(1), NodeId(2), NodeId(3)] {
            let e = exact.sigma(v, Topic::Technology);
            let a = approx_score(v);
            assert!((e - a).abs() < 1e-12, "node {v}: exact {e} vs approx {a}");
        }
    }

    #[test]
    fn approximation_is_a_lower_bound() {
        // Random-ish small graph; σ̃ ≤ σ everywhere (Section 4.2).
        let d = fui_datagen::label_direct(fui_datagen::twitter::generate(
            &fui_datagen::TwitterConfig::tiny(),
        ));
        let auth = AuthorityIndex::build(&d.graph);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(
            &d.graph,
            &auth,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let landmarks: Vec<NodeId> = (0..20).map(|i| NodeId(i * 17 % 400)).collect();
        let mut uniq = landmarks.clone();
        uniq.sort();
        uniq.dedup();
        let index = LandmarkIndex::build(&p, uniq, 100);
        let approx = ApproxRecommender::new(&p, &index);
        let mut ws = PropWorkspace::new();
        let u = NodeId(42);
        let result = approx.recommend_with(&mut ws, u, Topic::Technology, 200);
        let mut exact_ws = PropWorkspace::new();
        let exact = p.propagate(
            &mut exact_ws,
            u,
            &[Topic::Technology],
            PropagateOpts::default(),
        );
        for &(v, s) in &result.recommendations {
            let e = exact.sigma(v, Topic::Technology);
            assert!(s <= e + 1e-9, "approx {s} exceeds exact {e} at node {v}");
        }
    }

    #[test]
    fn weighted_query_is_the_linear_combination() {
        let g = line_graph();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&p, vec![NodeId(1)], 10);
        let approx = ApproxRecommender::new(&p, &index);
        let mut ws = PropWorkspace::new();
        let tech = approx.recommend_with(&mut ws, NodeId(0), Topic::Technology, 10);
        let health = approx.recommend_with(&mut ws, NodeId(0), Topic::Health, 10);
        let mixed = approx.recommend_weighted(
            &mut ws,
            NodeId(0),
            &[(Topic::Technology, 0.7), (Topic::Health, 0.3)],
            10,
        );
        let lookup = |r: &ApproxResult, n: NodeId| {
            r.recommendations
                .iter()
                .find(|&&(v, _)| v == n)
                .map(|&(_, s)| s)
                .unwrap_or(0.0)
        };
        for v in [NodeId(1), NodeId(2), NodeId(3)] {
            let expect = 0.7 * lookup(&tech, v) + 0.3 * lookup(&health, v);
            assert!(
                (lookup(&mixed, v) - expect).abs() < 1e-12,
                "node {v}: {} vs {expect}",
                lookup(&mixed, v)
            );
        }
    }

    #[test]
    fn batched_queries_equal_serial_queries() {
        // Runs under FUI_THREADS=1 and FUI_THREADS=4 in CI: the batch
        // fan-out must reproduce the serial answers exactly either
        // way.
        let d = fui_datagen::label_direct(fui_datagen::twitter::generate(
            &fui_datagen::TwitterConfig::tiny(),
        ));
        let auth = AuthorityIndex::build(&d.graph);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(
            &d.graph,
            &auth,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let landmarks: Vec<NodeId> = (0..10).map(|i| NodeId(i * 31 % 400)).collect();
        let index = LandmarkIndex::build(&p, landmarks, 50);
        let approx = ApproxRecommender::new(&p, &index);
        let queries: Vec<(NodeId, Topic)> = (0..12)
            .map(|i| {
                (
                    NodeId(i * 7 % 400),
                    Topic::ALL[i as usize % Topic::ALL.len()],
                )
            })
            .collect();
        let batched = approx.recommend_batch(&queries, 25);
        assert_eq!(batched.len(), queries.len());
        for (res, &(u, t)) in batched.iter().zip(&queries) {
            let serial = approx.recommend(u, t, 25);
            assert_eq!(res.landmarks_found, serial.landmarks_found);
            assert_eq!(res.explored, serial.explored);
            assert_eq!(res.recommendations.len(), serial.recommendations.len());
            for (a, b) in res.recommendations.iter().zip(&serial.recommendations) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "score drift at {u} {t}");
            }
        }
    }

    #[test]
    fn no_landmarks_degenerates_to_bounded_exploration() {
        let g = line_graph();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&p, vec![], 10);
        let approx = ApproxRecommender::new(&p, &index);
        let mut ws = PropWorkspace::new();
        let result = approx.recommend_with(&mut ws, NodeId(0), Topic::Technology, 10);
        assert_eq!(result.landmarks_found, 0);
        // Depth-2 exploration reaches nodes 1 and 2 but not 3.
        assert!(result.recommendations.iter().any(|&(v, _)| v == NodeId(2)));
        assert!(!result.recommendations.iter().any(|&(v, _)| v == NodeId(3)));
    }

    #[test]
    fn pruning_reduces_exploration() {
        let g = line_graph();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&p, vec![NodeId(1)], 10);
        let mut approx = ApproxRecommender::new(&p, &index);
        let mut ws = PropWorkspace::new();
        approx.explore_depth = 3;
        let pruned = approx.recommend_with(&mut ws, NodeId(0), Topic::Technology, 10);
        approx.prune_at_landmarks = false;
        let unpruned = approx.recommend_with(&mut ws, NodeId(0), Topic::Technology, 10);
        assert!(pruned.explored < unpruned.explored);
        // With pruning, node 3's score comes only through the landmark
        // list; without, it is double-collected — the pruned variant is
        // the correct one, and must not exceed the unpruned sum.
        let score = |r: &ApproxResult, n: NodeId| {
            r.recommendations
                .iter()
                .find(|&&(v, _)| v == n)
                .map(|&(_, s)| s)
                .unwrap_or(0.0)
        };
        assert!(score(&pruned, NodeId(3)) <= score(&unpruned, NodeId(3)) + 1e-12);
    }
}
