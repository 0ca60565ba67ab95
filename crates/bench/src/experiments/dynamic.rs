//! Extra experiment (the paper's Section-6 future work, implemented):
//! landmark staleness under follow churn, and the impact-accumulation
//! refresh policy of `fui_landmarks::dynamic`.
//!
//! Workload: build an index on the base graph, apply a churn batch
//! (unfollows of existing edges + fresh follows), then compare three
//! query regimes against the exact ranking on the *new* graph —
//! stale index, policy-refreshed index, full rebuild — and weigh the
//! refresh cost against a full rebuild. Each maintenance regime is
//! timed five times and reported as the median with the min–max
//! range: on a shared host one reading of the same refresh has varied
//! twofold between runs, too much to rank the policies on.

use fui_core::{PropWorkspace, PropagateOpts, ScoreParams, ScoreVariant};
use fui_eval::kendall_tau_distance;
use fui_graph::{NodeId, TopicSet};
use fui_landmarks::{ApproxRecommender, DynamicLandmarks, EdgeChange, LandmarkIndex, Strategy};
use fui_taxonomy::Topic;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::context::Context;
use crate::datasets::{DatasetChoice, ExperimentScale};
use crate::table::{f3, TextTable};

/// Timed repetitions of each maintenance regime.
const TRIALS: usize = 5;

/// `median (min–max)` of `secs`, seconds.
fn spread(mut secs: Vec<f64>) -> String {
    secs.sort_by(f64::total_cmp);
    format!(
        "{} ({}–{})",
        f3(secs[secs.len() / 2]),
        f3(secs[0]),
        f3(secs[secs.len() - 1])
    )
}

/// Runs the churn experiment and renders the comparison.
pub fn run(scale: &ExperimentScale) -> String {
    let d = scale.build(DatasetChoice::Twitter);
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xD714);

    // Base index on the original graph.
    let base_ctx = Context::new(d.graph.clone(), ScoreParams::default());
    let base_prop = base_ctx.propagator(ScoreVariant::Full);
    let landmarks = Strategy::InDeg.select(&base_ctx.graph, scale.landmarks, &mut rng);
    let sp_build = fui_obs::Span::enter("dynamic.build");
    let index = LandmarkIndex::build(&base_prop, landmarks.clone(), 100);
    let build_s = sp_build.finish().as_secs_f64();

    // Churn batch: 0.25% of edges unfollowed, an equal number of new
    // follows (a slice of them aimed at landmarks so the policy has
    // something to notice).
    let churn = (d.graph.num_edges() / 400).max(10);
    let mut all_edges: Vec<(NodeId, NodeId, TopicSet)> = d.graph.edges().collect();
    all_edges.shuffle(&mut rng);
    // One change list, unfollows then follows: the order the landmark
    // policy is charged in and the order the graph edit folds them in.
    let mut changes: Vec<EdgeChange> = all_edges[..churn]
        .iter()
        .map(|&(u, v, labels)| EdgeChange::remove(u, v, labels))
        .collect();
    let n = d.graph.num_nodes() as u32;
    changes.extend((0..churn).map(|i| {
        // A tenth of the new follows attach directly to a landmark,
        // the rest are organic.
        let dst = if i % 10 == 0 {
            landmarks[rng.gen_range(0..landmarks.len())]
        } else {
            NodeId(rng.gen_range(0..n))
        };
        let mut src = NodeId(rng.gen_range(0..n));
        while src == dst {
            src = NodeId(rng.gen_range(0..n));
        }
        EdgeChange::insert(src, dst, TopicSet::single(Topic::Technology))
    }));

    let new_graph = fui_service::apply_changes(&d.graph, &changes);
    let new_ctx = Context::new(new_graph, ScoreParams::default());
    let new_prop = new_ctx.propagator(ScoreVariant::Full);

    // Query set + exact reference on the new graph.
    let mut queries: Vec<NodeId> = new_ctx
        .graph
        .nodes()
        .filter(|&u| new_ctx.graph.out_degree(u) >= 3)
        .collect();
    queries.shuffle(&mut rng);
    queries.truncate(scale.query_nodes.max(1));
    let mut ws = PropWorkspace::new();
    let exact_tops: Vec<Vec<NodeId>> = queries
        .iter()
        .map(|&u| {
            let t = new_ctx
                .graph
                .node_labels(u)
                .first()
                .unwrap_or(Topic::Technology);
            new_prop
                .propagate(&mut ws, u, &[t], PropagateOpts::default())
                .top_n_sigma(0, 100)
                .into_iter()
                .map(|(v, _)| v)
                .collect()
        })
        .collect();
    let avg_tau = |idx: &LandmarkIndex, ws: &mut PropWorkspace| -> f64 {
        let approx = ApproxRecommender::new(&new_prop, idx);
        let mut total = 0.0;
        for (qi, &u) in queries.iter().enumerate() {
            let t = new_ctx
                .graph
                .node_labels(u)
                .first()
                .unwrap_or(Topic::Technology);
            let top: Vec<NodeId> = approx
                .recommend_with(ws, u, t, 100)
                .recommendations
                .iter()
                .map(|&(v, _)| v)
                .collect();
            total += kendall_tau_distance(&top, &exact_tops[qi]);
        }
        total / queries.len() as f64
    };

    // 1. Stale index (no maintenance at all).
    let tau_stale = avg_tau(&index, &mut ws);

    // 2. Policy refresh at a sweep of thresholds (higher threshold =
    // lazier policy = fewer landmarks touched). Every trial refreshes
    // a fresh copy charged with the same changes, so every trial does
    // the same work and ends in the same index.
    let mut policy_rows: Vec<(f64, usize, f64, String)> = Vec::new();
    let mut last_len = index.len();
    for threshold in [0.5, 0.1, 0.02] {
        let mut secs = Vec::with_capacity(TRIALS);
        let mut last = None;
        for _ in 0..TRIALS {
            let mut dynamic = DynamicLandmarks::with_policy(index.clone(), threshold, 1e-9);
            for c in &changes {
                dynamic.record(c);
            }
            let sp_refresh = fui_obs::Span::enter("dynamic.refresh");
            let touched = dynamic.refresh_stale(&new_prop);
            secs.push(sp_refresh.finish().as_secs_f64());
            last = Some((touched, dynamic));
        }
        let (touched, dynamic) = last.expect("at least one trial");
        policy_rows.push((
            threshold,
            touched,
            avg_tau(dynamic.index(), &mut ws),
            spread(secs),
        ));
        last_len = dynamic.index().len();
    }

    // 3. Full rebuild, on the pool like the build and the refresh.
    let mut secs = Vec::with_capacity(TRIALS);
    let mut rebuilt = None;
    for _ in 0..TRIALS {
        let sp_rebuild = fui_obs::Span::enter("dynamic.rebuild");
        rebuilt = Some(LandmarkIndex::build(&new_prop, landmarks.clone(), 100));
        secs.push(sp_rebuild.finish().as_secs_f64());
    }
    let rebuild_s = spread(secs);
    let tau_rebuilt = avg_tau(&rebuilt.expect("at least one trial"), &mut ws);

    let mut t = TextTable::new(vec![
        "regime",
        "tau vs exact",
        "landmarks touched",
        "cost (s): median (min–max)",
    ]);
    t.row(vec![
        "stale (no maintenance)".to_owned(),
        f3(tau_stale),
        "0".to_owned(),
        "0.000".to_owned(),
    ]);
    for (threshold, refreshed, tau, cost) in policy_rows {
        t.row(vec![
            format!("policy refresh @ {threshold}"),
            f3(tau),
            refreshed.to_string(),
            cost,
        ]);
    }
    t.row(vec![
        "full rebuild".to_owned(),
        f3(tau_rebuilt),
        last_len.to_string(),
        rebuild_s,
    ]);
    format!(
        "== Dynamic updates (paper future work): landmark staleness under churn ==\n\
         churn: {churn} unfollows + {churn} follows on a {}-edge graph;\n\
         initial preprocessing of {} landmarks took {:.2}s; \
         each maintenance cost timed {TRIALS} times\n\n{}",
        d.graph.num_edges(),
        last_len,
        build_s,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_experiment_runs_and_policy_is_cheaper_than_rebuild() {
        let out = run(&ExperimentScale::smoke());
        assert!(out.contains("stale (no maintenance)"));
        assert!(out.contains("policy refresh"));
        assert!(out.contains("full rebuild"));
    }
}
