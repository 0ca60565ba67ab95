//! Tables 5 & 6 — the landmark subsystem comparison across the 11
//! selection strategies: selection cost, per-landmark preprocessing
//! cost, landmarks met at query time, query latency and its gain over
//! the exact computation, and ranking quality (Kendall-tau distance to
//! the exact top-100) for landmarks storing top-10/100/1000.

use fui_core::{PropWorkspace, PropagateOpts, ScoreParams, ScoreVariant};
use fui_eval::kendall_tau_distance;
use fui_graph::NodeId;
use fui_landmarks::{ApproxRecommender, LandmarkIndex, Strategy};
use fui_taxonomy::Topic;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::context::Context;
use crate::datasets::{DatasetChoice, ExperimentScale};
use crate::table::{f1, f3, TextTable};

/// Measurements for one strategy.
#[derive(Clone, Debug)]
pub struct StrategyReport {
    /// Strategy display name.
    pub name: &'static str,
    /// Wall-clock per landmark to *select* the set, in ms.
    pub select_ms_per_landmark: f64,
    /// Wall-clock per landmark to *preprocess* (Algorithm 1), in s.
    pub compute_s_per_landmark: f64,
    /// Average landmarks met during the depth-2 query exploration.
    pub landmarks_found: f64,
    /// Average approximate query time, in ms.
    pub query_ms: f64,
    /// `exact time / approximate time`.
    pub gain: f64,
    /// Kendall-tau distance of the approximate top-100 to the exact
    /// top-100, for stored list sizes 10 / 100 / 1000.
    pub tau: [f64; 3],
}

/// Runs the full comparison and returns the per-strategy reports, the
/// average exact-query time (ms) and the average top-1000 storage per
/// landmark in KiB (the paper quotes 1.4 MB per landmark at its
/// scale).
pub fn measure(scale: &ExperimentScale) -> (Vec<StrategyReport>, f64, f64) {
    let d = scale.build(DatasetChoice::Twitter);
    let ctx = Context::new(d.graph, ScoreParams::default());
    let propagator = ctx.propagator(ScoreVariant::Full);
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x55);

    // Query workload: random nodes with a usable neighbourhood, each
    // probed on its dominant label.
    let mut pool: Vec<NodeId> = ctx
        .graph
        .nodes()
        .filter(|&u| ctx.graph.out_degree(u) >= 3)
        .collect();
    pool.shuffle(&mut rng);
    pool.truncate(scale.query_nodes.max(1));
    let queries: Vec<(NodeId, Topic)> = pool
        .into_iter()
        .map(|u| {
            let t = ctx
                .graph
                .node_labels(u)
                .first()
                .unwrap_or(Topic::Technology);
            (u, t)
        })
        .collect();

    // Exact baseline: converged propagation per query, top-100 kept.
    // One query per pool task; with FUI_THREADS=1 this is the serial
    // loop, and the reported per-query time is batched throughput.
    // Each worker reuses one workspace, as the approximate side does,
    // so the gain column compares propagation work, not an O(n) stamp
    // array allocated per exact query.
    let workspaces: fui_exec::WorkerLocal<PropWorkspace> = fui_exec::WorkerLocal::new();
    let sp_exact = fui_obs::Span::enter("table5.exact");
    let exact_tops: Vec<Vec<NodeId>> = fui_exec::par_map(&queries, |&(u, t)| {
        let mut ws = workspaces.get_or(PropWorkspace::new);
        propagator
            .propagate_into(&mut ws, u, &[t], PropagateOpts::default())
            .top_n_sigma(0, 100)
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    });
    let exact_ms = sp_exact.finish().as_secs_f64() * 1000.0 / queries.len() as f64;

    let stored = [10usize, 100, 1000];
    let mut reports = Vec::new();
    let mut storage_bytes = 0usize;
    let mut storage_landmarks = 0usize;
    for strategy in Strategy::table4_suite(&ctx.graph) {
        let sp_sel = fui_obs::Span::enter("table5.selection");
        let landmarks = strategy.select(&ctx.graph, scale.landmarks, &mut rng);
        let select_ms = sp_sel.finish().as_secs_f64() * 1000.0 / landmarks.len().max(1) as f64;

        // Preprocessing fans out one propagation per landmark over the
        // FUI_THREADS pool — the cell the CI bench gate holds to a
        // ≥1.5× wall-time speedup at 4 threads.
        let sp_prep = fui_obs::Span::enter("table5.preprocess");
        let index_full = LandmarkIndex::build_auto(&propagator, landmarks, 1000);
        let compute_s = sp_prep.finish().as_secs_f64() / index_full.len().max(1) as f64;
        storage_bytes += index_full.size_bytes();
        storage_landmarks += index_full.len();

        let indexes: Vec<LandmarkIndex> = stored.iter().map(|&n| index_full.truncated(n)).collect();

        // Quality per stored-list size (queries on the truncated
        // indexes; latency measured on the top-1000 one).
        let mut tau = [0.0f64; 3];
        for (si, index) in indexes.iter().enumerate() {
            let approx = ApproxRecommender::new(&propagator, index);
            // Batched multi-source fan-out; tau folds in query order so
            // the average is thread-count invariant.
            let results = approx.recommend_batch(&queries, 100);
            let mut total_tau = 0.0;
            for (qi, result) in results.iter().enumerate() {
                let approx_top: Vec<NodeId> =
                    result.recommendations.iter().map(|&(v, _)| v).collect();
                total_tau += kendall_tau_distance(&approx_top, &exact_tops[qi]);
            }
            tau[si] = total_tau / queries.len() as f64;
        }

        let approx = ApproxRecommender::new(&propagator, &indexes[2]);
        let sp_q = fui_obs::Span::enter("table5.query");
        let found: usize = approx
            .recommend_batch(&queries, 100)
            .iter()
            .map(|r| r.landmarks_found)
            .sum();
        let query_ms = sp_q.finish().as_secs_f64() * 1000.0 / queries.len() as f64;

        reports.push(StrategyReport {
            name: strategy.name(),
            select_ms_per_landmark: select_ms,
            compute_s_per_landmark: compute_s,
            landmarks_found: found as f64 / queries.len() as f64,
            query_ms,
            gain: if query_ms > 0.0 {
                exact_ms / query_ms
            } else {
                0.0
            },
            tau,
        });
    }
    let kib_per_landmark = storage_bytes as f64 / 1024.0 / storage_landmarks.max(1) as f64;
    (reports, exact_ms, kib_per_landmark)
}

/// Times one exact-closeness pass (the paper's Table 5 point: exact
/// centrality — Johnson's algorithm there, ~17 h on their server — is
/// orders of magnitude more expensive than any sampled selection).
fn exact_centrality_ms_per_landmark(scale: &ExperimentScale) -> f64 {
    let d = scale.build(DatasetChoice::Twitter);
    let sp = fui_obs::Span::enter("table5.central_exact");
    let c = fui_graph::centrality::closeness_exact(&d.graph);
    let elapsed = sp.finish().as_secs_f64() * 1000.0;
    std::hint::black_box(&c);
    elapsed / scale.landmarks.max(1) as f64
}

/// Runs the measurements and renders both tables.
pub fn run(scale: &ExperimentScale) -> String {
    let (reports, exact_ms, kib_per_landmark) = measure(scale);
    let mut t5 = TextTable::new(vec!["Strategy", "select. (ms)", "comput. (s)"]);
    for r in &reports {
        t5.row(vec![
            r.name.to_owned(),
            f3(r.select_ms_per_landmark),
            f3(r.compute_s_per_landmark),
        ]);
    }
    t5.row(vec![
        "Central-exact".to_owned(),
        f3(exact_centrality_ms_per_landmark(scale)),
        "(as Central)".to_owned(),
    ]);
    let mut t6 = TextTable::new(vec![
        "Strategy",
        "#lnd",
        "time ms (gain)",
        "L10",
        "L100",
        "L1000",
    ]);
    for r in &reports {
        t6.row(vec![
            r.name.to_owned(),
            f1(r.landmarks_found),
            format!("{:.3} ({:.0})", r.query_ms, r.gain),
            f3(r.tau[0]),
            f3(r.tau[1]),
            f3(r.tau[2]),
        ]);
    }
    format!(
        "== Table 5: determining landmarks w.r.t. strategies ==\n\
         (paper: random-ish selections ~2 ms/landmark, centrality-based 5 orders\n\
          slower; preprocessing ≈ strategy-independent)\n\n{}\n\
         == Table 6: landmark strategy comparison at query time ==\n\
         (paper: 2.9–58.9 landmarks met; 2–3 orders of magnitude gain;\n\
          Kendall tau shrinks as the stored top-n grows; 1.4 MB\n\
          stored per landmark at top-1000)\n\
         exact query avg: {:.1} ms; top-1000 storage {:.1} KiB/landmark\n\n{}",
        t5.render(),
        exact_ms,
        kib_per_landmark,
        t6.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_all_eleven_strategies() {
        let (reports, exact_ms, kib) = measure(&ExperimentScale::smoke());
        assert_eq!(reports.len(), 11);
        assert!(exact_ms > 0.0);
        assert!(kib > 0.0);
        for r in &reports {
            assert!(r.compute_s_per_landmark >= 0.0);
            // The order-of-magnitude gain only materialises at real
            // scale (exact cost grows with the graph, approximate cost
            // stays vicinity-bounded); at smoke scale just require a
            // sane measurement.
            assert!(r.gain > 0.0, "{}: gain {}", r.name, r.gain);
            assert!(r.query_ms >= 0.0);
            for tau in r.tau {
                assert!((0.0..=1.0).contains(&tau));
            }
        }
    }
}
