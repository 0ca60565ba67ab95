//! Streaming preferential-attachment generator for paper-scale graphs.
//!
//! The batch [`crate::twitter`] generator holds a full `Vec<Vec<u32>>`
//! adjacency plus a growing attachment pool — fine at laptop scale,
//! hopeless at the paper's operating point (2.2M users / 125M edges).
//! This module emits a 1M+-node graph **straight into the CSR arenas**
//! with bounded scratch:
//!
//! 1. **Pass 1 — chunked degree-sequence sampling.** One `u32` degree
//!    and one compact [`TopicSet`] interest profile per node (`O(N)`),
//!    which sizes the out arenas *exactly* before a single edge exists —
//!    no reallocation spikes, no intermediate edge list.
//! 2. **Pass 2 — prefix attachment.** Nodes stream in id order through
//!    [`StreamingBuilder::push_node`]. Each node draws its targets from
//!    the already-emitted prefix: with probability `pa_strength` a
//!    uniform position in the attachment pool — every target emitted so
//!    far, in emission order, so a uniform position *is*
//!    in-degree-proportional sampling — otherwise a uniform earlier
//!    node. A small super-reader boost reproduces the crawl's
//!    out-degree spikes; attachment itself produces the power-law
//!    in-degree tail.
//!
//! Peak memory is the finished graph plus `O(N)` scratch (degree
//! sequence, profiles and one reused per-node edge buffer) and the
//! 4 B/edge attachment pool, which the packed rows cannot serve (they
//! have no position to draw) — the testkit pins this with an
//! allocation counter. The degree sequence, the profiles and the pool
//! are [`Pages`] buffers, like the graph's arenas: when the generator
//! returns, their pages leave the process rather than staying behind
//! as heap the next allocation may or may not reuse.
//! The stream is a pure function of the seed, and the result is
//! **byte-identical** to replaying the same edges through the batch
//! [`GraphBuilder`] ([`generate_batch`] does exactly that, for the
//! differential suite).

use fui_graph::{GraphBuilder, NodeId, Pages, SocialGraph, StreamingBuilder};
use fui_taxonomy::{TopicSet, NUM_TOPICS};
use fui_textmine::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::StreamConfig;
use crate::twitter::TOPIC_POPULARITY_ORDER;
use crate::util::degree_sample;

/// A streamed graph plus the generator's memory accounting, so bench
/// cells can publish scratch-footprint gauges without the generator
/// depending on the metrics registry.
#[derive(Debug)]
pub struct StreamedGraph {
    /// The finished CSR graph.
    pub graph: SocialGraph,
    /// Bytes of generator scratch live at the peak (degree sequence,
    /// interest profiles and attachment pool, each in whole [`Pages`],
    /// and the per-node edge buffer) — everything beyond the graph
    /// arenas themselves.
    pub scratch_bytes: usize,
    /// Edges planned by the degree sequence (actual edge count is
    /// slightly lower after per-node duplicate-target merging).
    pub planned_edges: usize,
}

/// Compact interest profile: 1..=max_topics popularity-Zipf topics.
fn sample_topics(zipf: &Zipf, max_topics: usize, rng: &mut StdRng) -> TopicSet {
    let mut k = 1;
    while k < max_topics && rng.gen::<f64>() < 0.45 {
        k += 1;
    }
    let mut set = TopicSet::empty();
    let mut picked = 0;
    let mut guard = 0;
    while picked < k && guard < 64 {
        guard += 1;
        let t = TOPIC_POPULARITY_ORDER[zipf.sample(rng)];
        if !set.contains(t) {
            set = set.with(t);
            picked += 1;
        }
    }
    set
}

/// Ground-truth edge label under compact profiles: follower ∩ followee
/// interests, falling back to the followee's leading topic (a follow
/// always has a reason).
fn edge_label(follower: TopicSet, followee: TopicSet) -> TopicSet {
    let inter = follower.intersection(followee);
    if inter.is_empty() {
        followee.first().map(TopicSet::single).unwrap_or(followee)
    } else {
        inter
    }
}

/// Pass 1: the degree sequence and interest profiles, `O(N)` scratch.
/// Degrees are capped by the prefix size (node `u` can only attach to
/// `u` earlier nodes).
fn sample_plan(cfg: &StreamConfig, rng: &mut StdRng) -> (Pages<u32>, Pages<TopicSet>, usize) {
    let zipf = Zipf::new(NUM_TOPICS, cfg.topic_zipf_s);
    let mut degrees = Pages::with_capacity(cfg.nodes);
    let mut profiles = Pages::with_capacity(cfg.nodes);
    let mut planned = 0usize;
    for u in 0..cfg.nodes {
        let boost = if rng.gen::<f64>() < 0.002 { 20.0 } else { 1.0 };
        let want = degree_sample(rng, cfg.avg_out_degree * boost).min(u);
        planned += want;
        degrees.push(want as u32);
        profiles.push(sample_topics(&zipf, cfg.max_topics_per_user, rng));
    }
    (degrees, profiles, planned)
}

/// Pass 2, shared by both construction paths: draws node `u`'s targets
/// from the emitted prefix into `scratch`, sorted and deduplicated
/// (labels union) exactly like the builders do.
fn sample_node_edges(
    u: usize,
    degree: u32,
    profiles: &[TopicSet],
    pool: &[NodeId],
    cfg: &StreamConfig,
    rng: &mut StdRng,
    scratch: &mut Vec<(NodeId, TopicSet)>,
) {
    scratch.clear();
    for _ in 0..degree {
        let v = if !pool.is_empty() && rng.gen::<f64>() < cfg.pa_strength {
            pool[rng.gen_range(0..pool.len())]
        } else {
            NodeId(rng.gen_range(0..u as u32))
        };
        scratch.push((v, edge_label(profiles[u], profiles[v.index()])));
    }
    scratch.sort_unstable_by_key(|&(v, _)| v.0);
    scratch.dedup_by(|next, prev| {
        if prev.0 == next.0 {
            prev.1 = prev.1.union(next.1);
            true
        } else {
            false
        }
    });
}

/// Generates the graph through the streaming CSR path: bounded scratch,
/// arenas sized up front from the degree sequence, edges appended in
/// node order with no intermediate edge list.
pub fn generate_streaming(cfg: &StreamConfig) -> StreamedGraph {
    assert!(cfg.nodes >= 2, "need at least two accounts");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (degrees, profiles, planned) = sample_plan(cfg, &mut rng);

    let mut builder = StreamingBuilder::with_capacity(cfg.nodes, planned);
    let mut pool: Pages<NodeId> = Pages::with_capacity(planned);
    let mut scratch: Vec<(NodeId, TopicSet)> = Vec::new();
    for u in 0..cfg.nodes {
        sample_node_edges(u, degrees[u], &profiles, &pool, cfg, &mut rng, &mut scratch);
        for &(v, _) in &scratch {
            pool.push(v);
        }
        builder.push_node(profiles[u], &mut scratch);
    }
    let scratch_bytes = degrees.capacity() * std::mem::size_of::<u32>()
        + profiles.capacity() * std::mem::size_of::<TopicSet>()
        + pool.capacity() * std::mem::size_of::<NodeId>()
        + scratch.capacity() * std::mem::size_of::<(NodeId, TopicSet)>();
    drop(degrees);
    drop(profiles);
    drop(pool);
    drop(scratch);
    StreamedGraph {
        graph: builder.finish(),
        scratch_bytes,
        planned_edges: planned,
    }
}

/// Replays the identical seeded stream through the batch
/// [`GraphBuilder`] (the pre-streaming construction path, complete with
/// its `O(E)` edge list). Exists for the differential suite: the result
/// must compare equal — arena for arena — with
/// [`generate_streaming`]'s.
pub fn generate_batch(cfg: &StreamConfig) -> SocialGraph {
    assert!(cfg.nodes >= 2, "need at least two accounts");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (degrees, profiles, planned) = sample_plan(cfg, &mut rng);

    let mut builder = GraphBuilder::with_capacity(cfg.nodes, planned);
    for &p in &profiles {
        builder.add_node(p);
    }
    // The same attachment pool as the streaming path, kept in the same
    // order (per-node sorted, deduplicated) so the draws are identical.
    let mut pool: Vec<NodeId> = Vec::with_capacity(planned);
    let mut scratch: Vec<(NodeId, TopicSet)> = Vec::new();
    for (u, &degree) in degrees.iter().enumerate() {
        sample_node_edges(u, degree, &profiles, &pool, cfg, &mut rng, &mut scratch);
        for &(v, l) in &scratch {
            builder.add_edge(NodeId(u as u32), v, l);
            pool.push(v);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_graph::stats::GraphStats;

    fn cfg(nodes: usize, avg: f64) -> StreamConfig {
        StreamConfig {
            nodes,
            avg_out_degree: avg,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn deterministic_and_consistent() {
        let a = generate_streaming(&cfg(3000, 10.0));
        let b = generate_streaming(&cfg(3000, 10.0));
        a.graph.check_consistency().unwrap();
        assert_eq!(a.graph, b.graph);
        assert!(a.graph.num_edges() <= a.planned_edges);
        assert!(a.scratch_bytes > 0);
    }

    #[test]
    fn streaming_matches_batch_path() {
        let c = cfg(2500, 12.0);
        let streamed = generate_streaming(&c).graph;
        let batch = generate_batch(&c);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn average_out_degree_near_target() {
        let g = generate_streaming(&cfg(8000, 16.0)).graph;
        let s = GraphStats::compute(&g);
        assert!(
            (s.avg_out_degree - 16.0).abs() / 16.0 < 0.25,
            "avg out = {}",
            s.avg_out_degree
        );
    }

    #[test]
    fn in_degree_has_heavy_tail() {
        let g = generate_streaming(&cfg(8000, 16.0)).graph;
        let s = GraphStats::compute(&g);
        assert!(
            s.max_in_degree as f64 > 6.0 * s.avg_in_degree,
            "max in {} vs avg {}",
            s.max_in_degree,
            s.avg_in_degree
        );
    }

    #[test]
    fn labels_are_never_empty_and_interned_table_is_small() {
        let g = generate_streaming(&cfg(4000, 10.0)).graph;
        for (_, _, l) in g.edges() {
            assert!(!l.is_empty());
        }
        for u in g.nodes() {
            assert!(!g.node_labels(u).is_empty());
        }
        // Interning pays off: distinct label sets are a vanishing
        // fraction of the edges.
        assert!(g.num_label_sets() * 20 < g.num_edges());
    }

    #[test]
    fn scratch_stays_linear_in_nodes() {
        let s = generate_streaming(&cfg(6000, 12.0));
        // Degree seq (4B) + profiles (4B) + the per-node edge buffer;
        // far below any O(E) edge-list footprint.
        assert!(
            s.scratch_bytes < 6000 * 64,
            "scratch {} bytes",
            s.scratch_bytes
        );
    }
}
