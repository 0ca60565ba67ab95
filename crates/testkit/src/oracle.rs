//! The differential oracle.
//!
//! Three independent computations of `σ(u, v, t)` are pinned against
//! each other on every generated instance:
//!
//! 1. **exhaustive** — [`fui_core::exhaustive::enumerate`] sums
//!    Definition 1 over every walk explicitly;
//! 2. **propagate** — the level-synchronous engine of Proposition 1;
//! 3. **landmark** — the Proposition 4 composition served by
//!    [`fui_landmarks::ApproxRecommender`].
//!
//! # Exact-cover landmark placement
//!
//! On an acyclic instance whose query node `u` has in-degree zero
//! (every corpus DAG preset guarantees this for node 0), choosing
//! **every out-neighbour of `u`** as a landmark makes the composition
//! *provably exact*, not just a lower bound:
//!
//! * every walk out of `u` starts with an edge `u → λ` into some
//!   landmark, so each walk decomposes **uniquely** at its first edge
//!   into the one-edge prefix and a walk from `λ`;
//! * per walk, the Definition-1 contribution factors exactly as
//!   `σ(u,λ,t)·topo_β(λ,v) + topo_αβ(u,λ)·σ(λ,v,t)` — the two terms
//!   the query-time composition sums from the stored lists;
//! * the query's pruned exploration contributes exactly the one-edge
//!   prefix scores (all depth-1 frontier nodes are landmarks, so
//!   nothing deeper is double-counted);
//! * no walk revisits a landmark (the graph is acyclic) and no stored
//!   list is truncated (the index is built with `top_n ≥ num_nodes`),
//!   so nothing is missed either.
//!
//! Cyclic instances cannot get this guarantee (walks may re-enter a
//! landmark, whose own `σ(λ,λ,t)` mass is not in any stored list);
//! they are covered by the fixed-depth exhaustive-vs-propagate check
//! plus the paper's lower-bound property `σ̃ ≤ σ` (Section 4.2).
//!
//! Every check returns `Err(message)` instead of panicking so the
//! conformance suite can shrink failing instances with
//! [`crate::gen::minimize`].

use fui_core::exhaustive::{self, ExhaustiveScores};
use fui_core::{AuthorityIndex, PropagateOpts, Propagation, Propagator, ScoreVariant};
use fui_graph::NodeId;
use fui_landmarks::{ApproxRecommender, LandmarkIndex};
use fui_taxonomy::{SimMatrix, Topic};

use crate::corpus::{self, Preset};
use crate::gen::{self, GraphCase};
use crate::rng::SeededRng;

/// Absolute score tolerance of all differential comparisons.
pub const TOLERANCE: f64 = 1e-9;

/// Topics every case is checked on: three drawn from the case's RNG
/// plus a fixed one so empty-similarity paths are exercised too.
fn query_topics(rng: &mut SeededRng) -> Vec<Topic> {
    let mut topics = vec![
        gen::gen_topic(rng),
        gen::gen_topic(rng),
        gen::gen_topic(rng),
        Topic::Technology,
    ];
    topics.sort();
    topics.dedup();
    topics
}

fn variant_for(rng: &mut SeededRng) -> ScoreVariant {
    *rng.pick(&[
        ScoreVariant::Full,
        ScoreVariant::NoAuthority,
        ScoreVariant::NoSimilarity,
    ])
}

/// Fixed-depth differential check: exhaustive enumeration and the
/// propagation engine must agree on `σ`, `topo_β` and `topo_αβ` for
/// every node, topic and depth `1..=4` — on **any** instance, cyclic
/// or not, because both sides truncate at the same walk length.
pub fn check_fixed_depth(case: &GraphCase) -> Result<(), String> {
    let graph = case.graph();
    let auth = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let mut rng = SeededRng::new(case.seed);
    let params = gen::gen_params_fixed_depth(&mut rng);
    let variant = variant_for(&mut rng);
    let topics = query_topics(&mut rng);
    let source = NodeId(rng.below(graph.num_nodes() as u64) as u32);
    let p = Propagator::new(&graph, &auth, &sim, params, variant);
    for depth in 1..=4u32 {
        let r = p.propagate(
            source,
            &topics,
            PropagateOpts {
                max_depth: Some(depth),
                ..Default::default()
            },
        );
        for &t in &topics {
            let oracle =
                exhaustive::enumerate(&graph, &sim, &auth, &params, source, t, variant, depth);
            compare_scores(case, &oracle, &r, t, &format!("depth {depth} {variant:?}"))?;
        }
    }
    Ok(())
}

fn compare_scores(
    case: &GraphCase,
    oracle: &ExhaustiveScores,
    engine: &Propagation,
    t: Topic,
    ctx: &str,
) -> Result<(), String> {
    for v in 0..case.num_nodes {
        let node = NodeId(v as u32);
        let pairs = [
            ("sigma", oracle.sigma[v], engine.sigma(node, t)),
            ("topo_beta", oracle.topo_beta[v], engine.topo_beta(node)),
            (
                "topo_alphabeta",
                oracle.topo_alphabeta[v],
                engine.topo_alphabeta(node),
            ),
        ];
        for (what, expect, got) in pairs {
            if (expect - got).abs() > TOLERANCE {
                return Err(format!(
                    "{ctx} topic {t} node {node}: {what} exhaustive={expect} \
                     propagate={got} ({})",
                    case.repro()
                ));
            }
        }
    }
    Ok(())
}

/// The full three-way check on an acyclic instance: exhaustive,
/// propagate-to-convergence and the exact-cover landmark query must
/// agree within [`TOLERANCE`], including identical top-k orderings.
pub fn check_three_way(case: &GraphCase) -> Result<(), String> {
    if !case.acyclic {
        return Err(format!(
            "three-way check requires an acyclic case ({})",
            case.repro()
        ));
    }
    let graph = case.graph();
    let n = graph.num_nodes();
    let auth = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let mut rng = SeededRng::new(case.seed.rotate_left(17));
    let params = gen::gen_params_dag(&mut rng);
    let topics = query_topics(&mut rng);
    let source = NodeId(0);
    let p = Propagator::new(&graph, &auth, &sim, params, ScoreVariant::Full);

    // Leg 1 vs leg 2: every walk in a DAG has fewer than n edges, so
    // enumeration at max_len = n is the complete Definition-1 sum, and
    // the converged propagation must equal it exactly.
    let exact = p.propagate(source, &topics, PropagateOpts::default());
    if !exact.converged {
        return Err(format!(
            "propagation failed to converge on a DAG ({})",
            case.repro()
        ));
    }
    for &t in &topics {
        let oracle = exhaustive::enumerate(
            &graph,
            &sim,
            &auth,
            &params,
            source,
            t,
            ScoreVariant::Full,
            n as u32,
        );
        compare_scores(case, &oracle, &exact, t, "converged")?;
    }

    // Leg 3: exact-cover landmarks — every out-neighbour of the
    // source, stored lists long enough to never truncate.
    let landmarks: Vec<NodeId> = graph.followees(source).collect();
    let index = LandmarkIndex::build(&p, landmarks, n);
    let approx = ApproxRecommender::new(&p, &index);
    for (ti, &t) in topics.iter().enumerate() {
        let result = approx.recommend(source, t, n);
        let score_of = |node: NodeId| {
            result
                .recommendations
                .iter()
                .find(|&&(v, _)| v == node)
                .map(|&(_, s)| s)
                .unwrap_or(0.0)
        };
        for v in graph.nodes() {
            if v == source {
                continue;
            }
            let e = exact.sigma(v, t);
            let a = score_of(v);
            if (e - a).abs() > TOLERANCE {
                return Err(format!(
                    "landmark composition diverges: topic {t} node {v} \
                     exact={e} landmark={a} ({})",
                    case.repro()
                ));
            }
        }
        compare_rankings(case, &exact.top_n_sigma(ti, n), &result.recommendations, t)?;
    }
    Ok(())
}

/// Compares two top-k lists: same length, same candidate set, and the
/// scores at each rank within [`TOLERANCE`] of each other — so an
/// ordering may only differ where scores are floating-point
/// indistinguishable.
fn compare_rankings(
    case: &GraphCase,
    exact: &[(NodeId, f64)],
    approx: &[(NodeId, f64)],
    t: Topic,
) -> Result<(), String> {
    if exact.len() != approx.len() {
        return Err(format!(
            "top-k length mismatch on {t}: exact {} vs landmark {} ({})",
            exact.len(),
            approx.len(),
            case.repro()
        ));
    }
    let mut a: Vec<u32> = exact.iter().map(|&(v, _)| v.0).collect();
    let mut b: Vec<u32> = approx.iter().map(|&(v, _)| v.0).collect();
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        return Err(format!(
            "top-k candidate sets differ on {t}: {a:?} vs {b:?} ({})",
            case.repro()
        ));
    }
    for (rank, (&(ve, se), &(va, sa))) in exact.iter().zip(approx).enumerate() {
        if (se - sa).abs() > TOLERANCE {
            return Err(format!(
                "top-k rank {rank} on {t}: exact ({ve}, {se}) vs landmark \
                 ({va}, {sa}) ({})",
                case.repro()
            ));
        }
    }
    Ok(())
}

/// Lower-bound check for cyclic instances: with `β` under the
/// Proposition 3 spectral bound, every landmark-composed score must
/// stay at or below the converged exact score (Section 4.2's
/// guarantee) — and the direct part of the exploration stays within
/// [`TOLERANCE`] of exactness trivially because it *is* the engine.
pub fn check_lower_bound(case: &GraphCase) -> Result<(), String> {
    let graph = case.graph();
    let n = graph.num_nodes();
    let auth = AuthorityIndex::build(&graph);
    let sim = SimMatrix::opencalais();
    let mut rng = SeededRng::new(case.seed.rotate_left(33));
    let params = gen::gen_params_converging(&mut rng, &graph);
    params
        .check_ranges()
        .map_err(|e| format!("bad converging params: {e} ({})", case.repro()))?;
    let topics = query_topics(&mut rng);
    let source = NodeId(rng.below(n as u64) as u32);
    let p = Propagator::new(&graph, &auth, &sim, params, ScoreVariant::Full);
    let exact = p.propagate(source, &topics, PropagateOpts::default());
    if !exact.converged {
        return Err(format!(
            "propagation did not converge under the spectral bound ({})",
            case.repro()
        ));
    }
    // A handful of seeded landmarks (possibly including dead ends).
    let mut landmarks: Vec<NodeId> = (0..3)
        .map(|_| NodeId(rng.below(n as u64) as u32))
        .filter(|&l| l != source)
        .collect();
    landmarks.sort_unstable();
    landmarks.dedup();
    let index = LandmarkIndex::build(&p, landmarks, n);
    let approx = ApproxRecommender::new(&p, &index);
    for &t in &topics {
        let result = approx.recommend(source, t, n);
        for &(v, s) in &result.recommendations {
            let e = exact.sigma(v, t);
            if s > e + TOLERANCE {
                return Err(format!(
                    "approximation exceeds exact score: topic {t} node {v} \
                     landmark={s} exact={e} ({})",
                    case.repro()
                ));
            }
        }
    }
    Ok(())
}

/// Runs every oracle check that applies to one `(preset, seed)` pair —
/// the unit of work of the conformance suite.
pub fn conformance_case(preset: Preset, seed: u64) -> Result<(), String> {
    let case = corpus::generate(preset, seed);
    run_case_checks(&case)
}

/// [`conformance_case`] on an already-generated (possibly shrunk)
/// case.
pub fn run_case_checks(case: &GraphCase) -> Result<(), String> {
    check_fixed_depth(case)?;
    if case.acyclic {
        check_three_way(case)
    } else {
        check_lower_bound(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_passes_a_seed_sweep() {
        for preset in Preset::ALL {
            for seed in 0..8u64 {
                conformance_case(preset, seed).unwrap_or_else(|e| panic!("{preset:?}/{seed}: {e}"));
            }
        }
    }

    #[test]
    fn three_way_rejects_cyclic_cases() {
        let case = corpus::generate(Preset::Random, 3);
        assert!(!case.acyclic);
        assert!(check_three_way(&case).is_err());
    }

    #[test]
    fn ranking_comparison_flags_wrong_sets() {
        let case = corpus::generate(Preset::Star, 1);
        let a = vec![(NodeId(1), 0.5), (NodeId(2), 0.25)];
        let b = vec![(NodeId(1), 0.5), (NodeId(3), 0.25)];
        assert!(compare_rankings(&case, &a, &b, Topic::Technology).is_err());
        let c = vec![(NodeId(1), 0.5), (NodeId(2), 0.2)];
        assert!(compare_rankings(&case, &a, &c, Topic::Technology).is_err());
        assert!(compare_rankings(&case, &a, &a.clone(), Topic::Technology).is_ok());
    }
}
