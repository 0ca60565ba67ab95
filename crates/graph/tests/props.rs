//! Property tests on the CSR substrate: transpose consistency, degree
//! accounting, the arena codec, BFS monotonicity and the one graph edit
//! against a from-scratch rebuild (DESIGN.md §7).

use std::collections::BTreeMap;

use fui_graph::bfs::k_vicinity;
use fui_graph::{arena, GraphBuilder, NodeId, SocialGraph, TopicSet};
use proptest::prelude::*;

/// `nodes` carried over from `like`, `edges` packed by the batch
/// builder: what an edit's result is defined to equal.
fn rebuilt(
    like: &SocialGraph,
    edges: impl IntoIterator<Item = (NodeId, NodeId, TopicSet)>,
) -> SocialGraph {
    let mut b = GraphBuilder::new();
    for u in like.nodes() {
        b.add_node(like.node_labels(u));
    }
    for (u, v, labels) in edges {
        b.add_edge(u, v, labels);
    }
    b.build()
}

/// A random small labeled digraph (no self-loops; duplicate edges are
/// allowed in the input and must be merged by the builder).
fn arb_graph() -> impl Strategy<Value = SocialGraph> {
    (2usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, any::<u32>());
        proptest::collection::vec(edge, 0..120).prop_map(move |edges| {
            let mut b = GraphBuilder::new();
            for _ in 0..n {
                b.add_node(TopicSet::empty());
            }
            for (u, v, mask) in edges {
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v), TopicSet::from_mask(mask | 1));
                }
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn in_csr_is_the_labeled_transpose(g in arb_graph()) {
        prop_assert!(g.check_consistency().is_ok());
    }

    /// The arena blob holds the out side only; decode re-derives the in
    /// side, so the round trip is equality arena for arena.
    #[test]
    fn arena_round_trip_is_identity(g in arb_graph()) {
        let back = arena::decode(arena::encode(&g)).expect("own output decodes");
        prop_assert!(back.check_consistency().is_ok());
        prop_assert_eq!(back, g);
    }

    /// Whatever single word of the blob is overwritten, a graph that
    /// still decodes is consistent, with rows strictly ascending and
    /// loop-free.
    #[test]
    fn arena_decode_returns_only_consistent_graphs(
        g in arb_graph(),
        at in any::<usize>(),
        word in 0u32..32,
    ) {
        let mut raw = arena::encode(&g).to_vec();
        let at = at % (raw.len() - 3);
        raw[at..at + 4].copy_from_slice(&word.to_le_bytes());
        if let Ok(got) = arena::decode(bytes::Bytes::from(raw)) {
            prop_assert!(got.check_consistency().is_ok());
            for u in got.nodes() {
                let row: Vec<NodeId> = got.followees(u).collect();
                prop_assert!(row.windows(2).all(|p| p[0] < p[1]) && !row.contains(&u));
            }
        }
    }

    #[test]
    fn degree_sums_equal_edge_count(g in arb_graph()) {
        let out: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let inn: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        prop_assert_eq!(out, g.num_edges());
        prop_assert_eq!(inn, g.num_edges());
    }

    #[test]
    fn followers_on_bounded_by_in_degree(g in arb_graph()) {
        for u in g.nodes() {
            for t in fui_graph::Topic::ALL {
                prop_assert!(g.followers_on(u, t) <= g.in_degree(u));
            }
        }
    }

    #[test]
    fn bfs_vicinity_is_monotone_in_depth(g in arb_graph()) {
        let start = NodeId(0);
        let mut prev = 0;
        for depth in 0..6 {
            let count = k_vicinity(&g, start, depth).reached_count();
            prop_assert!(count >= prev);
            prev = count;
        }
    }

    #[test]
    fn bfs_levels_hold_nodes_at_their_distance(g in arb_graph()) {
        let v = k_vicinity(&g, NodeId(0), 10);
        for (d, level) in v.levels.iter().enumerate() {
            for &node in level {
                prop_assert_eq!(v.distance(node), Some(d as u32));
            }
        }
    }

    #[test]
    fn without_edges_removes_exactly_the_given(g in arb_graph()) {
        let victims: Vec<(NodeId, NodeId)> =
            g.edges().map(|(u, v, _)| (u, v)).step_by(3).collect();
        let g2 = g.without_edges(&victims);
        prop_assert_eq!(g2.num_edges(), g.num_edges() - victims.len());
        for &(u, v) in &victims {
            prop_assert!(!g2.has_edge(u, v));
        }
        for (u, v, labels) in g2.edges() {
            prop_assert_eq!(g.edge_label(u, v), Some(labels));
        }
        prop_assert!(g2.check_consistency().is_ok());
    }

    #[test]
    fn edge_label_matches_edges_iterator(g in arb_graph()) {
        for (u, v, labels) in g.edges() {
            prop_assert_eq!(g.edge_label(u, v), Some(labels));
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn spectral_radius_bounded_by_max_degree(g in arb_graph()) {
        let r = fui_graph::spectral::spectral_radius(&g, 60);
        let max_deg = g
            .nodes()
            .map(|u| g.out_degree(u).max(g.in_degree(u)))
            .max()
            .unwrap_or(0);
        // Perron–Frobenius: radius ≤ max degree.
        prop_assert!(r <= max_deg as f64 + 1e-6, "r = {r}, max deg = {max_deg}");
    }
}

/// Raw edit operations against a graph of `n` nodes and `m` edges,
/// decoded by [`fold_delta`]: a mix of arbitrary pairs (mostly absent)
/// and pairs drawn from the existing edges, each set or deleted.
fn arb_ops() -> impl Strategy<Value = Vec<(u32, u32, u32, u8)>> {
    proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>(), 0u8..4), 0..40)
}

/// Folds raw operations into the per-pair delta `edited` takes — later
/// entries on a pair overwrite earlier ones, so duplicate and
/// contradictory operations are the caller's to resolve.
fn fold_delta(
    g: &SocialGraph,
    ops: &[(u32, u32, u32, u8)],
) -> BTreeMap<(NodeId, NodeId), Option<TopicSet>> {
    let n = g.num_nodes() as u32;
    let present: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
    let mut delta = BTreeMap::new();
    for &(a, b, mask, kind) in ops {
        let pair = if kind < 2 || present.is_empty() {
            (NodeId(a % n), NodeId(b % n))
        } else {
            present[a as usize % present.len()]
        };
        if pair.0 != pair.1 {
            let labels = (kind % 2 == 1).then(|| TopicSet::from_mask(mask));
            delta.insert(pair, labels);
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The edit is the edge-set definition: whatever the delta — new
    /// pairs, label changes, deletions of present and absent pairs —
    /// the result equals the batch builder fed the resulting edge set,
    /// arena for arena.
    #[test]
    fn edited_equals_rebuild_of_the_resulting_edge_set(g in arb_graph(), ops in arb_ops()) {
        let delta = fold_delta(&g, &ops);
        let mut edges: BTreeMap<(NodeId, NodeId), TopicSet> =
            g.edges().map(|(u, v, labels)| ((u, v), labels)).collect();
        for (&pair, &labels) in &delta {
            match labels {
                Some(l) => edges.insert(pair, l),
                None => edges.remove(&pair),
            };
        }
        let got = g.edited(&delta);
        prop_assert!(got.check_consistency().is_ok());
        prop_assert_eq!(got, rebuilt(&g, edges.into_iter().map(|((u, v), l)| (u, v, l))));
    }

    /// `with_edges` unions into present edges and across duplicates,
    /// exactly as the batch builder merges parallel edges.
    #[test]
    fn with_edges_equals_rebuild_with_the_extra_edges(g in arb_graph(), ops in arb_ops()) {
        let added: Vec<(NodeId, NodeId, TopicSet)> = fold_delta(&g, &ops)
            .into_iter()
            .flat_map(|((u, v), labels)| {
                let l = labels.unwrap_or_default();
                // Named twice with different labels: must union.
                [(u, v, l), (u, v, TopicSet::from_mask(l.mask() << 1))]
            })
            .collect();
        let got = g.with_edges(&added);
        prop_assert!(got.check_consistency().is_ok());
        prop_assert_eq!(got, rebuilt(&g, g.edges().chain(added.iter().copied())));
    }
}

/// Lines the text parser must answer with a typed error, never a panic
/// or an abort: self-loops, headers beyond any real graph, repeats.
fn arb_hostile_text() -> impl Strategy<Value = String> {
    let line = (0u8..6, 0u64..6, 0u64..6, any::<u64>()).prop_map(|(kind, a, b, big)| match kind {
        0 => format!("nodes {a}"),
        1 => format!("nodes {}", big | 1 << 40),
        2 => format!("edge {a} {a} -"),
        3 => format!("edge {a} {b} technology"),
        4 => format!("node {a} sports"),
        _ => format!("edge {a} {big} -"),
    });
    proptest::collection::vec(line, 0..8).prop_map(|lines| lines.join("\n"))
}

proptest! {
    /// Robustness: the text parser must reject garbage gracefully,
    /// never panic.
    #[test]
    fn io_parser_never_panics(text in "\\PC*", hostile in arb_hostile_text()) {
        let _ = fui_graph::io::from_text(&text);
        if let Ok(g) = fui_graph::io::from_text(&hostile) {
            prop_assert!(g.check_consistency().is_ok());
        }
    }

    /// Round-trip through the text format preserves the graph.
    #[test]
    fn io_round_trips(g in arb_graph()) {
        let text = fui_graph::io::to_text(&g);
        let back = fui_graph::io::from_text(&text).expect("own output parses");
        prop_assert_eq!(back.num_nodes(), g.num_nodes());
        prop_assert_eq!(back.num_edges(), g.num_edges());
        for (u, v, labels) in g.edges() {
            prop_assert_eq!(back.edge_label(u, v), Some(labels));
        }
    }
}

/// Rows for the packed-row codec: `n` nodes, and per node a strictly
/// ascending target set with label sets, drawn from `seed`. Node 0's
/// row is empty, node 1 follows `n − 1` only, node 2 follows node 0,
/// and, when `n > 256`, node 3 follows every other node, its `i`-th
/// edge labelled with the `i`-th of 300 distinct label sets — so the
/// table's first-seen ids run past 256 and that row past the 255
/// degree escape.
fn packed_rows(n: u32, seed: u64) -> Vec<Vec<(NodeId, TopicSet)>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let distinct = |i: u64| TopicSet::from_mask((i % 300 + 1) as u32);
    (0..n)
        .map(|u| {
            let targets: Vec<u32> = match u {
                0 => Vec::new(),
                1 => vec![n - 1],
                2 => vec![0],
                3 if n > 256 => (0..n).collect(),
                _ => {
                    let degree = next() % 12;
                    let mut row: Vec<u32> = (0..degree)
                        .map(|_| (next() % u64::from(n)) as u32)
                        .collect();
                    row.sort_unstable();
                    row.dedup();
                    row
                }
            };
            targets
                .into_iter()
                .filter(|&v| v != u)
                .enumerate()
                .map(|(i, v)| {
                    let labels = if u == 3 {
                        distinct(i as u64)
                    } else {
                        distinct(next() % 8)
                    };
                    (NodeId(v), labels)
                })
                .collect()
        })
        .collect()
}

/// Packs `rows` through the streaming packer.
fn pack(rows: &[Vec<(NodeId, TopicSet)>]) -> SocialGraph {
    let mut b = fui_graph::StreamingBuilder::new(rows.len());
    for row in rows {
        b.push_node(TopicSet::empty(), &mut row.clone());
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the rows — empty, degree 1, past the degree escape,
    /// reaching targets 0 and n − 1, label ids 0, 127, 128, 255, 256
    /// and the table's last — the packed graph reads every row back
    /// exactly, and so does its arena round trip.
    #[test]
    fn packed_rows_read_back_exactly(n in 2u32..600, seed in any::<u64>()) {
        let rows = packed_rows(n, seed);
        let g = pack(&rows);
        prop_assert!(g.check_consistency().is_ok());
        let back = arena::decode(arena::encode(&g)).expect("own output decodes");
        prop_assert_eq!(&back, &g);
        for graph in [&g, &back] {
            for (u, row) in rows.iter().enumerate() {
                let got: Vec<(NodeId, TopicSet)> =
                    graph.out_edges(NodeId(u as u32)).map(|e| (e.node, e.labels)).collect();
                prop_assert_eq!(&got, row);
                prop_assert_eq!(graph.out_degree(NodeId(u as u32)), row.len());
            }
        }
        if n > 256 {
            prop_assert!(g.out_degree(NodeId(3)) >= 255);
            let ids: std::collections::BTreeSet<u16> =
                g.nodes().flat_map(|u| g.out_edges_by_label_id(u)).map(|(id, _)| id).collect();
            let last = g.num_label_sets() as u16 - 1;
            for id in [0, 127, 128, 255, 256, last] {
                prop_assert!(ids.contains(&id), "label id {} unused", id);
            }
        }
    }
}

/// The widest label field: 65 536 distinct label sets, so the table's
/// last id is `u16::MAX`, over a 257-node graph where every node
/// follows every other one.
#[test]
fn label_ids_up_to_the_table_maximum_read_back_exactly() {
    let n = 257u32;
    let mut i = 0u32;
    let rows: Vec<Vec<(NodeId, TopicSet)>> = (0..n)
        .map(|u| {
            (0..n)
                .filter(|&v| v != u)
                .map(|v| {
                    i += 1;
                    (NodeId(v), TopicSet::from_mask(i.min(1 << 16)))
                })
                .collect()
        })
        .collect();
    let g = pack(&rows);
    assert_eq!(g.num_label_sets(), 1 << 16);
    assert_eq!(
        g.nodes()
            .flat_map(|u| g.out_edges_by_label_id(u))
            .map(|(id, _)| id)
            .max(),
        Some(u16::MAX)
    );
    let back = arena::decode(arena::encode(&g)).expect("own output decodes");
    assert_eq!(back, g);
    for (u, row) in rows.iter().enumerate() {
        assert!(back
            .out_edges(NodeId(u as u32))
            .map(|e| (e.node, e.labels))
            .eq(row.iter().copied()));
    }
    g.check_consistency().unwrap();
}
