//! Extra — `table5_large`: the paper-scale cell the CI bench gate
//! pins (`scripts/bench_gate.py gate`).
//!
//! Every other cell runs on laptop-scale graphs; this one replays the
//! Tables 5/6 protocol at the paper's operating point — a **1M+-node**
//! follow graph streamed straight into the compact CSR arenas by
//! [`fui_datagen::stream`], never materialising an edge list. Three
//! spans, reported and not gated (the gate reads no clock):
//!
//! 1. `table5_large.datagen` — the streaming generator (bounded
//!    scratch, reported as `datagen.stream.scratch_bytes`);
//! 2. `table5_large.preprocess` — authority index, similarity-row
//!    cache and a hub landmark index built over the full graph;
//! 3. `table5_large.query` — a deterministic batch of approximate
//!    landmark queries through the pooled workspace path.
//!
//! The manifest carries the memory story the gate enforces:
//! `graph.bytes_per_node` / `graph.bytes_per_edge` (the compact-CSR
//! ceilings: ~12 B per node, and the packed out-row stream per edge),
//! the generator scratch gauge, and `propagate.workspace.peak_bytes`
//! recorded by the propagation layer itself. Node/edge/query counts and a bit-exact
//! score checksum (`table5_large.checksum_bits`) are gated to exact
//! equality — the cell doubles as a determinism witness at paper
//! scale.

use fui_core::{ScoreParams, ScoreVariant};
use fui_datagen::{generate_streaming, StreamConfig};
use fui_landmarks::{ApproxRecommender, LandmarkIndex};

use super::workload::{hub_landmarks, strided_queries};
use crate::context::Context;
use crate::datasets::ExperimentScale;
use crate::table::{f3, TextTable};

/// Salt separating the streamed instance from the laptop-scale cells.
const SEED_SALT: u64 = 0x7AB5_1A26;

/// Landmarks stored by the hub index. Deliberately independent of the
/// `--landmarks` sweep knob: the cell's baseline must be one fixed
/// workload.
const LANDMARKS: usize = 24;

/// Recommendations stored per landmark entry.
const STORED_TOP_N: usize = 100;

/// Queries in the batched phase.
const QUERIES: usize = 2048;

/// Recommendations returned per query.
const REC_TOP_N: usize = 10;

/// Measurements for the paper-scale cell.
#[derive(Clone, Debug)]
pub struct LargeReport {
    /// Nodes in the streamed graph.
    pub nodes: usize,
    /// Edges in the streamed graph.
    pub edges: usize,
    /// Graph bytes per node (compact-CSR node arenas).
    pub bytes_per_node: f64,
    /// Graph bytes per edge (out targets + interned label ids).
    pub bytes_per_edge: f64,
    /// Generator scratch beyond the finished graph, bytes.
    pub scratch_bytes: usize,
    /// Authority-index arena bytes.
    pub authority_bytes: usize,
    /// Streaming datagen wall time, seconds.
    pub datagen_s: f64,
    /// Preprocess (indexes + landmarks) wall time, seconds.
    pub preprocess_s: f64,
    /// Batched-query wall time, seconds.
    pub query_s: f64,
    /// Queries answered in the batch.
    pub batch_queries: usize,
    /// Fold of every returned score — the determinism witness gated
    /// bit-for-bit by `bench_gate.py gate`.
    pub checksum: f64,
}

/// Runs the three phases on an explicit generator configuration (unit
/// tests shrink it; the driver uses the scale's 1M+-node tier).
pub fn measure_with(cfg: &StreamConfig, landmarks: usize, queries: usize) -> LargeReport {
    let sp = fui_obs::Span::enter("table5_large.datagen");
    let streamed = generate_streaming(cfg);
    let datagen_s = sp.finish().as_secs_f64();
    let fp = streamed.graph.memory_footprint();
    fui_obs::counter("table5_large.nodes").add(fp.nodes as u64);
    fui_obs::counter("table5_large.edges").add(fp.edges as u64);
    fui_obs::gauge("graph.bytes_per_node").set(fp.bytes_per_node());
    fui_obs::gauge("graph.bytes_per_edge").set(fp.bytes_per_edge());
    fui_obs::gauge("datagen.stream.scratch_bytes").set(streamed.scratch_bytes as f64);

    let sp = fui_obs::Span::enter("table5_large.preprocess");
    let ctx = Context::new(streamed.graph, ScoreParams::default());
    let propagator = ctx.propagator(ScoreVariant::Full);
    let hubs = hub_landmarks(&ctx.graph, landmarks);
    let index = LandmarkIndex::build(&propagator, hubs, STORED_TOP_N);
    let preprocess_s = sp.finish().as_secs_f64();
    let authority_bytes = ctx.authority.size_bytes();
    fui_obs::gauge("authority.index.bytes").set(authority_bytes as f64);

    let workload = strided_queries(&ctx.graph, queries);
    let approx = ApproxRecommender::new(&propagator, &index);
    let sp = fui_obs::Span::enter("table5_large.query");
    let results = approx.recommend_batch(&workload, REC_TOP_N);
    let query_s = sp.finish().as_secs_f64();
    fui_obs::counter("table5_large.batch_queries").add(results.len() as u64);

    let mut checksum = 0.0f64;
    for r in &results {
        for &(v, s) in &r.recommendations {
            checksum += s + v.0 as f64 * 1e-12;
        }
    }
    assert!(checksum.is_finite());
    fui_obs::counter("table5_large.checksum_bits").add(checksum.to_bits());

    LargeReport {
        nodes: fp.nodes,
        edges: fp.edges,
        bytes_per_node: fp.bytes_per_node(),
        bytes_per_edge: fp.bytes_per_edge(),
        scratch_bytes: streamed.scratch_bytes,
        authority_bytes,
        datagen_s,
        preprocess_s,
        query_s,
        batch_queries: results.len(),
        checksum,
    }
}

/// Runs the cell at the scale's paper-size tier.
pub fn measure(scale: &ExperimentScale) -> LargeReport {
    let cfg = StreamConfig {
        nodes: scale.large_nodes,
        avg_out_degree: scale.large_avg_out,
        seed: scale.seed ^ SEED_SALT,
        ..StreamConfig::default()
    };
    measure_with(&cfg, LANDMARKS, QUERIES)
}

/// Renders the paper-scale cell as a text block.
pub fn run(scale: &ExperimentScale) -> String {
    let r = measure(scale);
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec![
        "nodes / edges".into(),
        format!("{} / {}", r.nodes, r.edges),
    ]);
    t.row(vec![
        "graph bytes/node / bytes/edge".into(),
        format!("{} / {}", f3(r.bytes_per_node), f3(r.bytes_per_edge)),
    ]);
    t.row(vec![
        "datagen scratch (MiB)".into(),
        f3(r.scratch_bytes as f64 / (1024.0 * 1024.0)),
    ]);
    t.row(vec![
        "authority index (MiB)".into(),
        f3(r.authority_bytes as f64 / (1024.0 * 1024.0)),
    ]);
    t.row(vec!["datagen wall (s)".into(), f3(r.datagen_s)]);
    t.row(vec!["preprocess wall (s)".into(), f3(r.preprocess_s)]);
    t.row(vec![
        "batched queries / wall (s)".into(),
        format!("{} / {}", r.batch_queries, f3(r.query_s)),
    ]);
    format!(
        "## table5_large — paper-scale streamed CSR cell ({} landmarks, stored top-{})\n\n{}",
        LANDMARKS,
        STORED_TOP_N,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StreamConfig {
        StreamConfig {
            nodes: 2_000,
            avg_out_degree: 8.0,
            seed: 0xEDB7_2016 ^ SEED_SALT,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn large_cell_measures_and_is_deterministic() {
        let a = measure_with(&tiny(), 6, 64);
        let b = measure_with(&tiny(), 6, 64);
        assert_eq!(a.nodes, 2_000);
        assert!(a.edges > 0);
        assert_eq!(a.batch_queries, 64);
        // Packed out-rows: the record stream of this seeded instance,
        // byte for byte (under 2 B per edge at 11-bit first targets),
        // ~12 B per node plus the amortised interned label table.
        let stream_bytes = a.bytes_per_edge * a.edges as f64;
        assert_eq!((a.edges, stream_bytes.round()), (15_851, 31_407.0));
        assert!(a.bytes_per_node < 16.0, "{}", a.bytes_per_node);
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
    }
}
