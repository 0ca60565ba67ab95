//! Deterministic workload pieces shared by the gated cells
//! (`table5_large`, `warmstart`, `shard_micro`, `propagate_micro`):
//! which accounts become landmarks, which topic a query asks about and
//! what follow churn looks like. Defined once because the committed
//! baselines pin the counters they produce.

use fui_graph::{NodeId, SocialGraph};
use fui_landmarks::EdgeChange;
use fui_taxonomy::{Topic, TopicSet};

/// The `count` highest in-degree accounts (the hubs preferential
/// attachment concentrates followers on), ties broken by id.
pub(crate) fn hub_landmarks(graph: &SocialGraph, count: usize) -> Vec<NodeId> {
    let mut by_degree: Vec<NodeId> = graph.nodes().collect();
    by_degree.sort_unstable_by_key(|&u| (std::cmp::Reverse(graph.in_degree(u)), u.0));
    by_degree.truncate(count);
    by_degree
}

/// The dominant label of `u`, falling back to Technology on unlabeled
/// nodes (mirrors the Tables 5/6 query workload).
pub(crate) fn dominant_topic(graph: &SocialGraph, u: NodeId) -> Topic {
    graph.node_labels(u).first().unwrap_or(Topic::Technology)
}

/// The deterministic query workload of the streamed-graph cells:
/// `queries` accounts evenly strided across the id space (hubs and tail
/// both represented), each asking about its dominant topic.
pub(crate) fn strided_queries(graph: &SocialGraph, queries: usize) -> Vec<(NodeId, Topic)> {
    let n = graph.num_nodes();
    let stride = (n / queries.max(1)).max(1);
    (0..queries.min(n))
        .map(|i| {
            let u = NodeId(((i * stride) % n) as u32);
            (u, dominant_topic(graph, u))
        })
        .collect()
}

/// Deterministic churn: strided follow inserts, single-topic labels,
/// never a self-follow.
pub(crate) fn churn_change(i: usize, n: usize) -> EdgeChange {
    let u = ((i * 7919) % n) as u32;
    let v = (u + 1 + ((i * 104_729) % (n - 1)) as u32) % n as u32;
    let mut labels = TopicSet::empty();
    labels.insert(Topic::ALL[i % Topic::ALL.len()]);
    EdgeChange::insert(NodeId(u), NodeId(v), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_datagen::{generate_streaming, StreamConfig};

    #[test]
    fn hubs_are_top_in_degree() {
        let g = generate_streaming(&StreamConfig {
            nodes: 2_000,
            avg_out_degree: 8.0,
            seed: 0xEDB7_2016,
            ..StreamConfig::default()
        })
        .graph;
        let hubs = hub_landmarks(&g, 5);
        assert_eq!(hubs.len(), 5);
        let floor = g.in_degree(hubs[4]);
        let better = g.nodes().filter(|&u| g.in_degree(u) > floor).count();
        assert!(better < 5);
    }

    #[test]
    fn churn_changes_are_always_valid() {
        for n in [2usize, 3, 5, 2_000] {
            for i in 0..128 {
                let c = churn_change(i, n);
                assert!(c.follower.0 < n as u32 && c.followee.0 < n as u32);
                assert_ne!(c.follower, c.followee);
            }
        }
    }
}
