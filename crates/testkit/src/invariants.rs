//! Metamorphic invariants — reusable `Result`-returning assertions.
//!
//! Each check states a property the scoring pipeline must satisfy
//! under a *transformation* of the input rather than against a known
//! answer:
//!
//! * σ and the Katz mass are **monotone** in the decay factors α and β
//!   (every walk contribution is a product of non-negative factors,
//!   each non-decreasing in the decays);
//! * adding an edge can only **add walks**, so the Katz score is
//!   monotone under edge addition;
//! * node ids are arbitrary — **relabeling the nodes by a permutation
//!   permutes the scores** and changes nothing else;
//! * the Wu–Palmer similarity is a proper similarity: `sim(t,t) = 1`,
//!   symmetric, and within `[0, 1]`;
//! * the [`fui_exec`] pool is **width-invariant**: the same computation
//!   at width 1 and width `N` produces bit-identical results;
//! * a graph edit is **the edge set it leaves behind**: merging a batch
//!   of changes into the old rows equals rebuilding from scratch.

use fui_core::{
    AuthorityIndex, PropWorkspace, PropagateOpts, Propagator, ScoreParams, ScoreVariant,
};
use fui_graph::{NodeId, SocialGraph};
use fui_landmarks::{persist, ApproxRecommender, LandmarkIndex};
use fui_taxonomy::{SimMatrix, Taxonomy, Topic};

use crate::gen::GraphCase;
use crate::rng::SeededRng;

/// Comparison depth of the monotonicity checks (both runs truncate at
/// the same walk length, so no convergence bound is needed).
const DEPTH: u32 = 3;

/// Slack for comparisons that are mathematically `≥`: a sum computed
/// twice with different constants may differ in the last ulps.
const EPS: f64 = 1e-12;

fn run_at(
    graph: &SocialGraph,
    auth: &AuthorityIndex,
    sim: &SimMatrix,
    params: ScoreParams,
    source: NodeId,
    topics: &[Topic],
) -> fui_core::Propagation {
    let p = Propagator::new(graph, auth, sim, params, ScoreVariant::Full);
    p.propagate(
        source,
        topics,
        PropagateOpts {
            max_depth: Some(DEPTH),
            ..Default::default()
        },
    )
}

fn fixed_depth_params(alpha: f64, beta: f64) -> ScoreParams {
    ScoreParams {
        alpha,
        beta,
        tolerance: 1e-300,
        max_depth: 64,
    }
}

/// σ is monotone non-decreasing in α (β and everything else fixed).
pub fn check_sigma_monotone_alpha(case: &GraphCase) -> Result<(), String> {
    check_monotone(case, |lo, hi| {
        (fixed_depth_params(lo, 0.3), fixed_depth_params(hi, 0.3))
    })
}

/// σ is monotone non-decreasing in β (α fixed).
pub fn check_sigma_monotone_beta(case: &GraphCase) -> Result<(), String> {
    check_monotone(case, |lo, hi| {
        (fixed_depth_params(0.7, lo), fixed_depth_params(0.7, hi))
    })
}

fn check_monotone(
    case: &GraphCase,
    params_pair: impl Fn(f64, f64) -> (ScoreParams, ScoreParams),
) -> Result<(), String> {
    let graph = case.graph();
    let auth = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let mut rng = SeededRng::new(case.seed.rotate_left(5));
    let lo = rng.f64_range(0.1, 0.5);
    let hi = lo + rng.f64_range(0.1, 0.4);
    let (p_lo, p_hi) = params_pair(lo, hi);
    let source = NodeId(rng.below(graph.num_nodes() as u64) as u32);
    let topics = [Topic::Technology, Topic::Social];
    let r_lo = run_at(&graph, &auth, &sim, p_lo, source, &topics);
    let r_hi = run_at(&graph, &auth, &sim, p_hi, source, &topics);
    for v in graph.nodes() {
        for &t in &topics {
            let (a, b) = (r_lo.sigma(v, t), r_hi.sigma(v, t));
            if b < a - EPS {
                return Err(format!(
                    "sigma not monotone at node {v} topic {t}: {a} (decay {lo}) \
                     > {b} (decay {hi}) ({})",
                    case.repro()
                ));
            }
        }
        if r_hi.topo_beta(v) < r_lo.topo_beta(v) - EPS {
            return Err(format!(
                "topo_beta not monotone at node {v} ({})",
                case.repro()
            ));
        }
    }
    Ok(())
}

/// Adding one edge never lowers any node's Katz mass (it only adds
/// walks), and never lowers σ either — all contributions are
/// non-negative.
pub fn check_katz_monotone_edge_addition(case: &GraphCase) -> Result<(), String> {
    let graph = case.graph();
    let n = graph.num_nodes();
    let mut rng = SeededRng::new(case.seed.rotate_left(9));
    // Find a pair (u, v) with no u→v edge; a complete digraph has no
    // room to grow, so the property holds vacuously.
    let mut missing = None;
    'search: for _ in 0..4 * n * n {
        let u = NodeId(rng.below(n as u64) as u32);
        let v = NodeId(rng.below(n as u64) as u32);
        if u != v && !graph.has_edge(u, v) {
            missing = Some((u, v));
            break 'search;
        }
    }
    let Some((u, v)) = missing else {
        return Ok(());
    };
    let grown = graph.with_edges(&[(u, v, crate::gen::gen_topicset(&mut rng))]);
    let params = fixed_depth_params(0.7, 0.3);
    let source = NodeId(rng.below(n as u64) as u32);
    let topics = [Topic::Technology];
    // Authority is rebuilt per graph: the new edge changes follower
    // counts, which may *lower* σ elsewhere through normalisation —
    // the pure-topology Katz mass is the quantity with the clean
    // guarantee, so that is what the invariant pins.
    let auth_before = AuthorityIndex::build(&graph);
    let auth_after = AuthorityIndex::build(&grown);
    let sim = SimMatrix::opencalais();
    let before = run_at(&graph, &auth_before, &sim, params, source, &topics);
    let after = run_at(&grown, &auth_after, &sim, params, source, &topics);
    for w in graph.nodes() {
        if after.topo_beta(w) < before.topo_beta(w) - EPS {
            return Err(format!(
                "katz mass dropped after adding edge {u}->{v}: node {w} \
                 {} -> {} ({})",
                before.topo_beta(w),
                after.topo_beta(w),
                case.repro()
            ));
        }
    }
    Ok(())
}

/// Relabeling the nodes by a permutation permutes the scores: running
/// from `π(source)` on the permuted graph yields `σ'(π(v)) = σ(v)` for
/// every node and topic.
pub fn check_permutation_invariance(case: &GraphCase) -> Result<(), String> {
    let mut rng = SeededRng::new(case.seed.rotate_left(13));
    let n = case.num_nodes;
    // A seeded Fisher–Yates permutation of the node ids.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut permuted = case.clone();
    permuted.node_labels = vec![Default::default(); n];
    for (v, &l) in case.node_labels.iter().enumerate() {
        permuted.node_labels[perm[v] as usize] = l;
    }
    permuted.edges = case
        .edges
        .iter()
        .map(|&(u, v, l)| (perm[u as usize], perm[v as usize], l))
        .collect();
    permuted.acyclic = false; // forward-edge ordering no longer holds

    let params = fixed_depth_params(0.8, 0.25);
    let sim = SimMatrix::opencalais();
    let g1 = case.graph();
    let g2 = permuted.graph();
    let a1 = AuthorityIndex::build(&g1);
    let a2 = AuthorityIndex::build(&g2);
    let source = NodeId(rng.below(n as u64) as u32);
    let topics = [Topic::Technology, Topic::Business];
    let r1 = run_at(&g1, &a1, &sim, params, source, &topics);
    let r2 = run_at(
        &g2,
        &a2,
        &sim,
        params,
        NodeId(perm[source.index()]),
        &topics,
    );
    for v in g1.nodes() {
        let pv = NodeId(perm[v.index()]);
        for &t in &topics {
            let (a, b) = (r1.sigma(v, t), r2.sigma(pv, t));
            if (a - b).abs() > EPS {
                return Err(format!(
                    "permutation broke sigma at node {v} (image {pv}) topic {t}: \
                     {a} vs {b} ({})",
                    case.repro()
                ));
            }
        }
        if (r1.topo_beta(v) - r2.topo_beta(pv)).abs() > EPS {
            return Err(format!(
                "permutation broke topo_beta at node {v} ({})",
                case.repro()
            ));
        }
    }
    Ok(())
}

/// Seeded churn through the production edit equals the definition
/// ([`crate::reference::rebuild_with_changes`]) arena for arena, round
/// after round on the edited graph: inserts of new pairs (some with an
/// empty label), unions into existing edges, removes of present and
/// absent pairs, and contradictory runs on one pair where the later
/// change must win. The link-prediction wrappers are held to the same
/// definition.
pub fn check_edit_matches_rebuild(case: &GraphCase) -> Result<(), String> {
    use crate::reference::rebuild_with_changes;
    use fui_landmarks::{ChangeKind, EdgeChange};
    use fui_taxonomy::TopicSet;
    let mut rng = SeededRng::new(case.seed.rotate_left(21));
    let mut graph = case.graph();
    let n = graph.num_nodes() as u64;
    for round in 0..4 {
        let present: Vec<(NodeId, NodeId, TopicSet)> = graph.edges().collect();
        let mut changes = Vec::new();
        for _ in 0..rng.range(1, 24) {
            let (u, v) = if !present.is_empty() && rng.chance(0.5) {
                let &(u, v, _) = rng.pick(&present);
                (u, v)
            } else {
                (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32))
            };
            if u == v {
                continue;
            }
            let labels = if rng.chance(0.2) {
                TopicSet::empty()
            } else {
                crate::gen::gen_topicset(&mut rng)
            };
            // One to three changes on the pair, so insert-after-remove,
            // remove-after-insert and insert-into-insert all occur.
            for _ in 0..rng.range(1, 4) {
                changes.push(if rng.chance(0.6) {
                    EdgeChange::insert(u, v, labels)
                } else {
                    EdgeChange::remove(u, v, labels)
                });
            }
        }
        let expect = rebuild_with_changes(&graph, &changes);
        let got = fui_service::apply_changes(&graph, &changes);
        got.check_consistency()?;
        if got != expect {
            return Err(format!(
                "round {round}: apply_changes over {} changes diverged from a rebuild \
                 of the resulting edge set ({} vs {} edges) ({})",
                changes.len(),
                got.num_edges(),
                expect.num_edges(),
                case.repro()
            ));
        }
        let (inserts, removes): (Vec<EdgeChange>, Vec<EdgeChange>) =
            changes.iter().partition(|c| c.kind == ChangeKind::Insert);
        let added: Vec<_> = inserts
            .iter()
            .map(|c| (c.follower, c.followee, c.labels))
            .collect();
        if graph.with_edges(&added) != rebuild_with_changes(&graph, &inserts) {
            return Err(format!(
                "round {round}: with_edges diverged ({})",
                case.repro()
            ));
        }
        let removed: Vec<_> = removes.iter().map(|c| (c.follower, c.followee)).collect();
        if graph.without_edges(&removed) != rebuild_with_changes(&graph, &removes) {
            return Err(format!(
                "round {round}: without_edges diverged ({})",
                case.repro()
            ));
        }
        graph = got;
    }
    Ok(())
}

/// Seeded churn recorded into a service and published by `rotate`: the
/// authority index every published snapshot serves equals
/// [`AuthorityIndex::build`] over that snapshot's graph (`==`
/// spans every score bit, count and per-topic maximum). The churn
/// labels edges over the whole vocabulary and unfollows the holder of
/// some topic's maximum, the case an incremental maximum gets wrong.
pub fn check_rotated_authority_matches_build(case: &GraphCase) -> Result<(), String> {
    use fui_landmarks::EdgeChange;
    use fui_service::{Service, ServiceConfig};
    use fui_taxonomy::TopicSet;
    let n = case.num_nodes as u64;
    let graph = case.graph();
    let landmarks = graph.nodes().step_by(3).collect();
    let svc = Service::new(
        graph,
        SimMatrix::opencalais(),
        fixed_depth_params(0.8, 0.25),
        ScoreVariant::Full,
        landmarks,
        case.num_nodes,
        ServiceConfig::default(),
    );
    let mut rng = SeededRng::new(case.seed.rotate_left(35));
    for round in 0..3 {
        let snap = svc.snapshot();
        let present: Vec<(NodeId, NodeId, TopicSet)> = snap.graph.edges().collect();
        // One follower of some topic's maximum holder leaves it.
        let t = crate::gen::gen_topic(&mut rng);
        let holder = snap
            .graph
            .nodes()
            .max_by_key(|&v| snap.authority.followers_on(v, t))
            .expect("a case has nodes");
        let mut changes: Vec<EdgeChange> = snap
            .graph
            .in_edges(holder)
            .find(|e| e.labels.contains(t))
            .map(|e| EdgeChange::remove(e.node, holder, TopicSet::empty()))
            .into_iter()
            .collect();
        for _ in 0..rng.range(1, 12) {
            let (u, v) = if !present.is_empty() && rng.chance(0.5) {
                let &(u, v, _) = rng.pick(&present);
                (u, v)
            } else {
                (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32))
            };
            if u != v {
                changes.push(if rng.chance(0.6) {
                    EdgeChange::insert(u, v, crate::gen::gen_wide_topicset(&mut rng))
                } else {
                    EdgeChange::remove(u, v, TopicSet::empty())
                });
            }
        }
        for change in changes {
            svc.record(change)
                .map_err(|e| format!("record failed: {e} ({})", case.repro()))?;
        }
        svc.rotate();
        let snap = svc.snapshot();
        if *snap.authority != AuthorityIndex::build(&snap.graph) {
            return Err(format!(
                "round {round}: a rotate published an authority index \
                 that differs from a build over its own graph ({})",
                case.repro()
            ));
        }
    }
    Ok(())
}

/// The Wu–Palmer similarity is a proper similarity measure:
/// `sim(t,t) = 1`, symmetric, and within `[0, 1]` — both on the
/// [`Taxonomy`] directly and through the precomputed [`SimMatrix`].
pub fn check_similarity_axioms() -> Result<(), String> {
    let tax = Taxonomy::opencalais();
    let m = SimMatrix::opencalais();
    for a in Topic::ALL {
        let self_sim = tax.wu_palmer(a, a);
        if (self_sim - 1.0).abs() > EPS {
            return Err(format!("wu_palmer({a},{a}) = {self_sim}, expected 1"));
        }
        if (m.sim(a, a) - 1.0).abs() > EPS {
            return Err(format!(
                "sim matrix ({a},{a}) = {}, expected 1",
                m.sim(a, a)
            ));
        }
        for b in Topic::ALL {
            let (ab, ba) = (tax.wu_palmer(a, b), tax.wu_palmer(b, a));
            if (ab - ba).abs() > EPS {
                return Err(format!(
                    "wu_palmer asymmetric: ({a},{b})={ab} ({b},{a})={ba}"
                ));
            }
            if !(0.0..=1.0).contains(&ab) {
                return Err(format!("wu_palmer({a},{b}) = {ab} outside [0,1]"));
            }
            if (m.sim(a, b) - m.sim(b, a)).abs() > EPS {
                return Err(format!("sim matrix asymmetric at ({a},{b})"));
            }
        }
    }
    Ok(())
}

/// Width-invariance through the [`fui_exec`] pool: the landmark
/// preprocessing fanned out at width 1 and width `n` must serialise to
/// **byte-identical** snapshots, and a plain `par_map` must return
/// bit-identical floats. (Cross-process `FUI_THREADS=1` vs `N`
/// equality is enforced by the CI conformance job; this in-process
/// check covers explicit widths.)
pub fn check_pool_width_invariance(case: &GraphCase, width: usize) -> Result<(), String> {
    let graph = case.graph();
    let n = graph.num_nodes();
    let auth = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let params = fixed_depth_params(0.8, 0.2);
    let p = Propagator::new(&graph, &auth, &sim, params, ScoreVariant::Full);
    let landmarks: Vec<NodeId> = graph.nodes().step_by(2).collect();
    let serial = LandmarkIndex::build_parallel(&p, landmarks.clone(), n, 1);
    let wide = LandmarkIndex::build_parallel(&p, landmarks, n, width);
    let bytes_serial = persist::encode(&serial, n);
    let bytes_wide = persist::encode(&wide, n);
    if bytes_serial.as_ref() != bytes_wide.as_ref() {
        return Err(format!(
            "landmark build diverges between width 1 and width {width} \
             ({})",
            case.repro()
        ));
    }
    let sources: Vec<NodeId> = graph.nodes().collect();
    let sig = |width| {
        fui_exec::par_map_with(width, &sources, |&s| {
            let r = p.propagate(s, &[Topic::Technology], PropagateOpts::default());
            (0..n as u32)
                .map(|v| r.sigma(NodeId(v), Topic::Technology).to_bits())
                .collect::<Vec<u64>>()
        })
    };
    if sig(1) != sig(width) {
        return Err(format!(
            "par_map sigma bits diverge between width 1 and {width} ({})",
            case.repro()
        ));
    }
    Ok(())
}

/// The zero-allocation propagation path is **bit-exact**: runs through
/// a reused [`PropWorkspace`] — whatever ran in it before, whatever the
/// sigma layout of the previous run — read back bit-identical to
/// fresh-buffer runs, and workspace-pooled batched queries equal their
/// serial counterparts byte for byte. (The CI conformance matrix runs
/// this at `FUI_THREADS=1` and `FUI_THREADS=4`, covering both the
/// inline serial pool path and true per-worker workspace pooling.)
pub fn check_workspace_reuse_matches_fresh(case: &GraphCase) -> Result<(), String> {
    let graph = case.graph();
    let n = graph.num_nodes();
    let auth = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let params = fixed_depth_params(0.75, 0.3);
    let p = Propagator::new(&graph, &auth, &sim, params, ScoreVariant::Full);
    let mut rng = SeededRng::new(case.seed.rotate_left(17));
    // A landmark-style mask flagging roughly a third of the nodes.
    let mask: Vec<bool> = (0..n).map(|_| rng.below(3) == 0).collect();
    let topic_pool: [&[Topic]; 4] = [
        &[Topic::Technology],
        &[Topic::Technology, Topic::Social, Topic::Business],
        &[],
        &Topic::ALL,
    ];

    // One workspace across runs that vary source, sigma layout, depth
    // and pruning — each compared bit-for-bit against a fresh run.
    let mut ws = PropWorkspace::new();
    for round in 0..8u32 {
        let source = NodeId(rng.below(n as u64) as u32);
        let topics = topic_pool[rng.below(topic_pool.len() as u64) as usize];
        let opts = PropagateOpts {
            max_depth: match rng.below(4) {
                0 => Some(0),
                1 => Some(2),
                2 => Some(DEPTH),
                _ => None,
            },
            prune: (rng.below(2) == 0).then_some(mask.as_slice()),
        };
        let fresh = p.propagate(source, topics, opts);
        let reused = p.propagate_into(&mut ws, source, topics, opts);
        if reused.reached() != &fresh.reached[..]
            || reused.levels() != fresh.levels
            || reused.converged() != fresh.converged
        {
            return Err(format!(
                "workspace round {round}: run shape diverged from fresh \
                 buffers at source {source} ({})",
                case.repro()
            ));
        }
        for v in graph.nodes() {
            if reused.topo_beta(v).to_bits() != fresh.topo_beta(v).to_bits()
                || reused.topo_alphabeta(v).to_bits() != fresh.topo_alphabeta(v).to_bits()
            {
                return Err(format!(
                    "workspace round {round}: topo bits diverged at node {v} \
                     ({})",
                    case.repro()
                ));
            }
            for ti in 0..topics.len() {
                if reused.sigma_at(v, ti).to_bits() != fresh.sigma_at(v, ti).to_bits() {
                    return Err(format!(
                        "workspace round {round}: sigma bits diverged at node \
                         {v} column {ti} ({})",
                        case.repro()
                    ));
                }
            }
        }
    }

    // The batched query path pools workspaces per fui-exec worker; its
    // answers must still equal serial one-shot queries bit for bit.
    let landmarks: Vec<NodeId> = graph.nodes().filter(|v| mask[v.index()]).collect();
    let index = LandmarkIndex::build(&p, landmarks, n);
    let approx = ApproxRecommender::new(&p, &index);
    let queries: Vec<(NodeId, Topic)> = (0..2 * n)
        .map(|_| {
            (
                NodeId(rng.below(n as u64) as u32),
                Topic::ALL[rng.below(Topic::ALL.len() as u64) as usize],
            )
        })
        .collect();
    let batched = approx.recommend_batch(&queries, 5);
    for (res, &(u, t)) in batched.iter().zip(&queries) {
        let serial = approx.recommend(u, t, 5);
        if res.recommendations.len() != serial.recommendations.len()
            || res
                .recommendations
                .iter()
                .zip(&serial.recommendations)
                .any(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits())
        {
            return Err(format!(
                "pooled batch diverged from serial at query ({u}, {t}) ({})",
                case.repro()
            ));
        }
    }
    Ok(())
}

/// The production kernel equals the node-dense re-derivation
/// ([`crate::reference::dense_propagate`]) **bit for bit** — reached
/// order, levels, stop flag and every σ / topo_β / topo_αβ, unreached
/// nodes reading `0.0` — from every source, over `tc ∈ {0, 1, 3, 18}` ×
/// pruned/unpruned × depth {0, 2, cap, converge}, all through one
/// reused workspace. This is what lets the kernel's scratch layout
/// change without being checked only against itself.
pub fn check_kernel_matches_dense_reference(case: &GraphCase) -> Result<(), String> {
    let graph = case.graph();
    let n = graph.num_nodes();
    let auth = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let mut rng = SeededRng::new(case.seed.rotate_left(29));
    let mask: Vec<bool> = (0..n).map(|_| rng.below(3) == 0).collect();
    let to_convergence = ScoreParams {
        alpha: 0.75,
        beta: 0.3,
        tolerance: 1e-9,
        max_depth: 200,
    };
    // (params, per-run depth): 0, 2, the params' own cap, convergence.
    let depths = [
        (to_convergence, Some(0)),
        (to_convergence, Some(2)),
        (fixed_depth_params(0.75, 0.3), None),
        (to_convergence, None),
    ];
    let topic_pool: [&[Topic]; 4] = [
        &[],
        &[Topic::Technology],
        &[Topic::Technology, Topic::Social, Topic::Business],
        &Topic::ALL,
    ];
    let mut ws = PropWorkspace::new();
    for (params, max_depth) in depths {
        let p = Propagator::new(&graph, &auth, &sim, params, ScoreVariant::Full);
        for topics in topic_pool {
            for prune in [None, Some(mask.as_slice())] {
                for source in graph.nodes() {
                    let opts = PropagateOpts { max_depth, prune };
                    let dense = crate::reference::dense_propagate(
                        &graph, &auth, &sim, &params, source, topics, opts,
                    );
                    let run = p.propagate_into(&mut ws, source, topics, opts);
                    let at = || {
                        format!(
                            "source {source}, {} topics, depth {max_depth:?}/{}, pruned {} ({})",
                            topics.len(),
                            params.max_depth,
                            prune.is_some(),
                            case.repro()
                        )
                    };
                    if run.reached() != &dense.reached[..]
                        || run.levels() != dense.levels
                        || run.converged() != dense.converged
                    {
                        return Err(format!("kernel run shape diverged from dense: {}", at()));
                    }
                    for v in graph.nodes() {
                        let vi = v.index();
                        let topo_eq = run.topo_beta(v).to_bits() == dense.topo_beta[vi].to_bits()
                            && run.topo_alphabeta(v).to_bits()
                                == dense.topo_alphabeta[vi].to_bits();
                        let sigma_eq = (0..topics.len()).all(|ti| {
                            run.sigma_at(v, ti).to_bits()
                                == dense.sigma[vi * topics.len() + ti].to_bits()
                        });
                        if !topo_eq || !sigma_eq {
                            return Err(format!(
                                "kernel bits diverged from dense at node {v}: {}",
                                at()
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// The serving layer's result cache is *invisible*: under a seeded
/// interleaving of queries, follow/unfollow updates, snapshot
/// rotations, landmark refreshes and submit/pump bursts, every reply —
/// cache hit or fresh — must be **bit-identical** to an uncached
/// [`ApproxRecommender`] evaluated directly on the currently published
/// snapshot (post-update graph + possibly-lazily-stale index, exactly
/// what the service serves), and every accepted request must be
/// answered — a submit either yields a ticket that resolves to a
/// result or an explicit `Overloaded`, never silence. (The CI
/// conformance matrix runs this at `FUI_THREADS=1` and `FUI_THREADS=4`;
/// the service's only parallel stage reduces in index order, so the
/// bits must not move.)
pub fn check_cached_matches_uncached(case: &GraphCase) -> Result<(), String> {
    use fui_landmarks::EdgeChange;
    use fui_service::{Reply, Request, Served, Service, ServiceConfig};

    let graph = case.graph();
    let n = graph.num_nodes();
    let mut rng = SeededRng::new(case.seed.rotate_left(21));
    let landmarks: Vec<NodeId> = graph.nodes().step_by(3).collect();
    let cfg = ServiceConfig {
        max_batch: 4,
        queue_capacity: 8,
        cache_capacity: 64,
        cache_shards: 4,
        // Aggressive staleness policy so refreshes actually fire on
        // these tiny cases.
        refresh_threshold: 0.02,
        ..ServiceConfig::default()
    };
    let svc = Service::new(
        graph,
        SimMatrix::opencalais(),
        fixed_depth_params(0.8, 0.25),
        ScoreVariant::Full,
        landmarks,
        n,
        cfg,
    );

    // The oracle: a fresh, cache-free recommender on whatever snapshot
    // the service currently publishes.
    let oracle = |req: Request| -> Vec<(NodeId, f64)> {
        let snap = svc.snapshot();
        let p = snap.propagator();
        let rec = ApproxRecommender::new(&p, &snap.index);
        rec.recommend(req.user, req.topic, req.top_n)
            .recommendations
    };
    let confirm = |reply: Reply, req: Request, what: &str| -> Result<Served, String> {
        let Reply::Result(served) = reply else {
            return Err(format!(
                "{what} for user {} got a non-result reply ({})",
                req.user,
                case.repro()
            ));
        };
        let want = oracle(req);
        if served.recommendations.len() != want.len()
            || served
                .recommendations
                .iter()
                .zip(&want)
                .any(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits())
        {
            return Err(format!(
                "{what} diverged from the uncached oracle at user {} topic {} \
                 top_n {} (cached={}, {})",
                req.user,
                req.topic,
                req.top_n,
                served.cached,
                case.repro()
            ));
        }
        Ok(served)
    };
    let gen_req = |rng: &mut SeededRng| Request {
        user: NodeId(rng.below(n as u64) as u32),
        topic: *rng.pick(&Topic::ALL[..4]),
        top_n: 1 + rng.below(n as u64) as usize,
    };

    let mut seen: Vec<Request> = Vec::new();
    for _ in 0..40u32 {
        match rng.below(10) {
            // Query — a replay of an earlier request (cache-hit bait)
            // or a fresh one.
            0..=4 => {
                let req = if !seen.is_empty() && rng.below(2) == 0 {
                    *rng.pick(&seen)
                } else {
                    let r = gen_req(&mut rng);
                    seen.push(r);
                    r
                };
                confirm(svc.call(req), req, "call")?;
            }
            // Follow / unfollow.
            5 | 6 => {
                let u = NodeId(rng.below(n as u64) as u32);
                let v = NodeId(rng.below(n as u64) as u32);
                if u != v {
                    let change = if rng.below(2) == 0 {
                        EdgeChange::insert(u, v, crate::gen::gen_topicset(&mut rng))
                    } else {
                        EdgeChange::remove(u, v, Default::default())
                    };
                    svc.record(change)
                        .map_err(|e| format!("record failed: {e} ({})", case.repro()))?;
                }
            }
            7 => {
                svc.rotate();
            }
            8 => {
                svc.refresh();
            }
            // Submit burst past the queue capacity: sheds must be
            // explicit and immediate, accepted tickets must resolve to
            // oracle-identical results once pumped.
            _ => {
                let reqs: Vec<Request> = (0..12).map(|_| gen_req(&mut rng)).collect();
                let mut tickets = Vec::new();
                let mut shed = 0usize;
                for &req in &reqs {
                    match svc.submit(req, None) {
                        Ok(t) => tickets.push((req, t)),
                        Err(Reply::Overloaded) => shed += 1,
                        Err(other) => {
                            return Err(format!("submit returned {other:?} ({})", case.repro()))
                        }
                    }
                }
                if tickets.len() + shed != reqs.len() {
                    return Err(format!("requests lost at submit ({})", case.repro()));
                }
                while svc.pump() > 0 {}
                for (req, t) in tickets {
                    confirm(t.wait(), req, "pumped submit")?;
                }
            }
        }
    }

    // Determinism coda: with no mutation in between, a repeated call
    // must be served from the cache and still match the oracle.
    let req = gen_req(&mut rng);
    confirm(svc.call(req), req, "coda first call")?;
    let second = confirm(svc.call(req), req, "coda second call")?;
    if !second.cached {
        return Err(format!(
            "repeat of an un-invalidated request bypassed the cache ({})",
            case.repro()
        ));
    }
    Ok(())
}

/// Request tracing is *bit-invisible*: the same seeded serving
/// interleaving (queries, follow/unfollow, rotations, refreshes and a
/// submit burst past queue capacity) replayed at trace sample rates
/// 0.0, 0.5 and 1.0 — with the obs level forced to `Full` so capture
/// is actually live — must produce identical reply fingerprints (node
/// ids, score bits, cached flags, epochs and shed sentinels). Tracing
/// reads clocks and writes its own ring; if it ever influences a
/// result, this catches it. (The CI conformance matrix runs this at
/// `FUI_THREADS=1` and `FUI_THREADS=4`.)
pub fn check_tracing_is_invisible(case: &GraphCase) -> Result<(), String> {
    use fui_landmarks::EdgeChange;
    use fui_service::{Reply, Request, Service, ServiceConfig};

    // One full seeded interleaving against a fresh service; returns a
    // bit-level fingerprint of every reply.
    let fingerprint = || -> Result<Vec<u64>, String> {
        let graph = case.graph();
        let n = graph.num_nodes();
        let mut rng = SeededRng::new(case.seed.rotate_left(33));
        let landmarks: Vec<NodeId> = graph.nodes().step_by(3).collect();
        let cfg = ServiceConfig {
            max_batch: 4,
            queue_capacity: 8,
            cache_capacity: 64,
            cache_shards: 4,
            refresh_threshold: 0.02,
            ..ServiceConfig::default()
        };
        let svc = Service::new(
            graph,
            SimMatrix::opencalais(),
            fixed_depth_params(0.8, 0.25),
            ScoreVariant::Full,
            landmarks,
            n,
            cfg,
        );
        let gen_req = |rng: &mut SeededRng| Request {
            user: NodeId(rng.below(n as u64) as u32),
            topic: *rng.pick(&Topic::ALL[..4]),
            top_n: 1 + rng.below(n as u64) as usize,
        };
        let mut bits = Vec::new();
        let digest = |reply: Reply, bits: &mut Vec<u64>| -> Result<(), String> {
            match reply {
                Reply::Result(s) => {
                    bits.push(s.epoch);
                    bits.push(u64::from(s.cached));
                    for &(v, score) in s.recommendations.iter() {
                        bits.push(u64::from(v.0));
                        bits.push(score.to_bits());
                    }
                }
                Reply::Overloaded => bits.push(u64::MAX),
                Reply::Rejected(_) => {
                    return Err(format!("unexpected rejection ({})", case.repro()))
                }
            }
            Ok(())
        };
        for _ in 0..24u32 {
            match rng.below(10) {
                0..=4 => digest(svc.call(gen_req(&mut rng)), &mut bits)?,
                5 | 6 => {
                    let u = NodeId(rng.below(n as u64) as u32);
                    let v = NodeId(rng.below(n as u64) as u32);
                    if u != v {
                        let change = if rng.below(2) == 0 {
                            EdgeChange::insert(u, v, crate::gen::gen_topicset(&mut rng))
                        } else {
                            EdgeChange::remove(u, v, Default::default())
                        };
                        svc.record(change)
                            .map_err(|e| format!("record failed: {e} ({})", case.repro()))?;
                    }
                }
                7 => {
                    bits.push(svc.rotate());
                }
                8 => {
                    bits.push(svc.refresh() as u64);
                }
                // Submit burst past queue capacity: shed pattern is
                // part of the fingerprint too.
                _ => {
                    let reqs: Vec<Request> = (0..12).map(|_| gen_req(&mut rng)).collect();
                    let mut tickets = Vec::new();
                    for &req in &reqs {
                        match svc.submit(req, None) {
                            Ok(t) => tickets.push(t),
                            Err(_) => bits.push(u64::MAX),
                        }
                    }
                    while svc.pump() > 0 {}
                    for t in tickets {
                        digest(t.wait(), &mut bits)?;
                    }
                }
            }
        }
        Ok(bits)
    };

    // Force capture live (tracing below Full is inert by design), then
    // restore the caller's level whatever happens.
    let prev_level = fui_obs::level();
    fui_obs::set_level(fui_obs::Level::Full);
    let result = (|| {
        let mut baseline: Option<Vec<u64>> = None;
        for rate in [0.0, 0.5, 1.0] {
            fui_obs::trace::set_sample(rate);
            let bits = fingerprint()?;
            match &baseline {
                None => baseline = Some(bits),
                Some(base) if *base != bits => {
                    return Err(format!(
                        "replies diverged between FUI_TRACE_SAMPLE=0.0 and {rate} \
                         ({} vs {} fingerprint words, {})",
                        base.len(),
                        bits.len(),
                        case.repro()
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    })();
    fui_obs::trace::set_sample(0.0);
    fui_obs::set_level(prev_level);
    result
}

/// HTTP and the line protocol are two *spellings* of one protocol:
/// the same seeded sequence of recommendations, follow/unfollow
/// churn, rotations, refreshes, epoch reads, snapshot/restore requests
/// (refused: the fixture is not durable) and deliberately invalid
/// requests driven over live sockets to a line listener and an HTTP
/// listener (two [`fui_net::HttpServer`] loops over identically built
/// [`fui_service::Service`]s) must produce **byte-identical** reply
/// lines — epochs, node orderings, shortest-round-trip `f64` score
/// text, cached flags and error strings — and every HTTP status must
/// agree with the line reply's class (`OK` ↔ 200, `ERR` ↔ 400). Ops
/// run sequentially, so both backends see the same state at every
/// step and the comparison is exact, not statistical. (The CI
/// conformance matrix runs this at `FUI_THREADS=1` and `4`.)
pub fn check_http_matches_line_protocol(case: &GraphCase) -> Result<(), String> {
    use fui_net::{parse_response, HttpConfig, HttpServer};
    use fui_service::{Service, ServiceConfig};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    let n = case.num_nodes;
    let cfg = ServiceConfig {
        max_batch: 4,
        queue_capacity: 64,
        cache_capacity: 64,
        cache_shards: 4,
        refresh_threshold: 0.02,
        ..ServiceConfig::default()
    };
    let params = fixed_depth_params(0.8, 0.25);
    let make = || {
        let g = case.graph();
        let lm: Vec<NodeId> = g.nodes().step_by(3).collect();
        Arc::new(Service::new(
            g,
            SimMatrix::opencalais(),
            params,
            ScoreVariant::Full,
            lm,
            n,
            cfg,
        ))
    };

    let line_server = HttpServer::start_line(make(), "127.0.0.1:0", HttpConfig::default())
        .map_err(|e| format!("line server: {e}"))?;
    let http_server = HttpServer::start(make(), "127.0.0.1:0", HttpConfig::default())
        .map_err(|e| format!("http server: {e}"))?;
    let mut line_reader = BufReader::new(
        TcpStream::connect(line_server.local_addr()).map_err(|e| format!("line connect: {e}"))?,
    );
    let mut http_stream =
        TcpStream::connect(http_server.local_addr()).map_err(|e| format!("http connect: {e}"))?;

    let mut ask_line = |cmd: &str| -> Result<String, String> {
        // One segment per command, so no reply waits on a delayed ACK.
        line_reader
            .get_mut()
            .write_all(format!("{cmd}\n").as_bytes())
            .map_err(|e| format!("line write: {e}"))?;
        let mut reply = String::new();
        line_reader
            .read_line(&mut reply)
            .map_err(|e| format!("line read: {e}"))?;
        Ok(reply.trim_end_matches('\n').to_owned())
    };
    let mut http_buf: Vec<u8> = Vec::new();
    let ask_http = |stream: &mut TcpStream, buf: &mut Vec<u8>, target: &str, post: bool| {
        let verb = if post { "POST" } else { "GET" };
        stream
            .write_all(format!("{verb} {target} HTTP/1.1\r\n\r\n").as_bytes())
            .map_err(|e| format!("http write: {e}"))?;
        let mut chunk = [0u8; 4096];
        loop {
            match parse_response(buf).map_err(|e| format!("http parse: {e}"))? {
                Some((resp, used)) => {
                    buf.drain(..used);
                    let body =
                        String::from_utf8(resp.body).map_err(|e| format!("http body utf8: {e}"))?;
                    return Ok((resp.status, body.trim_end_matches('\n').to_owned()));
                }
                None => {
                    let got = stream
                        .read(&mut chunk)
                        .map_err(|e| format!("http read: {e}"))?;
                    if got == 0 {
                        return Err("http server closed mid-sequence".to_owned());
                    }
                    buf.extend_from_slice(&chunk[..got]);
                }
            }
        }
    };

    let mut rng = SeededRng::new(case.seed.rotate_left(9));
    let topics = &Topic::ALL[..4];
    for step in 0..32u32 {
        // Build one op as (line command, HTTP target, is-POST). Every
        // value splices into both wire forms verbatim, including the
        // invalid ones — error strings must match byte for byte too.
        let (cmd, target, post) = match rng.below(14) {
            0..=4 => {
                let u = rng.below(n as u64);
                let t = rng.pick(topics).name();
                let k = 1 + rng.below(n as u64);
                (
                    format!("REC {u} {t} {k}"),
                    format!("/rec?user={u}&topic={t}&top_n={k}"),
                    false,
                )
            }
            5 => {
                // Unknown user: rejected at validation, same reason.
                let ghost = n as u64 + 7 + rng.below(50);
                (
                    format!("REC {ghost} technology 3"),
                    format!("/rec?user={ghost}&topic=technology&top_n=3"),
                    false,
                )
            }
            6 => {
                // Malformed topic and top_n: rejected at parse.
                let u = rng.below(n as u64);
                if rng.below(2) == 0 {
                    (
                        format!("REC {u} nonsense 3"),
                        format!("/rec?user={u}&topic=nonsense&top_n=3"),
                        false,
                    )
                } else {
                    (
                        format!("REC {u} technology zap"),
                        format!("/rec?user={u}&topic=technology&top_n=zap"),
                        false,
                    )
                }
            }
            7 | 8 if n >= 2 => {
                let f = rng.below(n as u64);
                let g = (f + 1 + rng.below(n as u64 - 1)) % n as u64;
                let mut t = String::from(rng.pick(topics).name());
                if rng.below(2) == 0 {
                    t.push(',');
                    t.push_str(rng.pick(topics).name());
                }
                if rng.below(3) == 0 {
                    (
                        format!("UNFOLLOW {f} {g}"),
                        format!("/unfollow?follower={f}&followee={g}"),
                        true,
                    )
                } else {
                    (
                        format!("FOLLOW {f} {g} {t}"),
                        format!("/follow?follower={f}&followee={g}&topics={t}"),
                        true,
                    )
                }
            }
            9 => ("ROTATE".to_owned(), "/rotate".to_owned(), true),
            10 => ("REFRESH".to_owned(), "/refresh".to_owned(), true),
            11 => ("SNAPSHOT".to_owned(), "/snapshot".to_owned(), true),
            12 => ("RESTORE".to_owned(), "/restore".to_owned(), false),
            _ => ("EPOCH".to_owned(), "/epoch".to_owned(), false),
        };
        let line_reply = ask_line(&cmd)?;
        let (status, http_body) = ask_http(&mut http_stream, &mut http_buf, &target, post)?;
        if line_reply != http_body {
            return Err(format!(
                "step {step}: HTTP body diverged from line reply for {cmd:?}: \
                 {http_body:?} vs {line_reply:?} ({})",
                case.repro()
            ));
        }
        let want_status = if line_reply.starts_with("ERR") {
            400
        } else {
            200
        };
        if status != want_status {
            return Err(format!(
                "step {step}: HTTP status {status} disagrees with reply class of \
                 {line_reply:?} (want {want_status}, {})",
                case.repro()
            ));
        }
    }

    line_server.shutdown();
    http_server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Preset};

    #[test]
    fn invariants_hold_on_a_seed_sweep() {
        for preset in Preset::ALL {
            for seed in 0..6u64 {
                let case = corpus::generate(preset, seed);
                for (name, r) in [
                    ("alpha", check_sigma_monotone_alpha(&case)),
                    ("beta", check_sigma_monotone_beta(&case)),
                    ("katz-edge", check_katz_monotone_edge_addition(&case)),
                    ("permutation", check_permutation_invariance(&case)),
                    ("pool", check_pool_width_invariance(&case, 4)),
                    ("workspace", check_workspace_reuse_matches_fresh(&case)),
                    ("service-cache", check_cached_matches_uncached(&case)),
                    ("tracing", check_tracing_is_invisible(&case)),
                    ("http-vs-line", check_http_matches_line_protocol(&case)),
                ] {
                    r.unwrap_or_else(|e| panic!("{name} on {preset:?}/{seed}: {e}"));
                }
            }
        }
    }

    #[test]
    fn similarity_axioms_hold() {
        check_similarity_axioms().unwrap();
    }
}
