//! The per-(user, topic) authority score.
//!
//! Section 3.2 of the paper:
//!
//! ```text
//!                |Γu(t)|     log(1 + |Γu(t)|)
//! auth(u, t) =  ───────── · ─────────────────────────
//!                 |Γu|       log(1 + max_v |Γv(t)|)
//!                 local            global
//! ```
//!
//! The *local* factor rewards specialisation (a user followed
//! exclusively on `t`), the *global* factor rewards popularity on `t`
//! (log-smoothed so that "very specialised accounts with few followers
//! and very popular but generalist accounts" score similarly). Both
//! factors are 0 when nobody follows `u` on `t`.
//!
//! `|Γu|` and `|Γu(t)|` are local per-node counts; only the per-topic
//! maximum needs a full pass, and the paper notes it can be stored and
//! refreshed periodically. [`AuthorityIndex`] materialises all of it in
//! one pass over the in-CSR.

use fui_graph::{NodeId, SocialGraph};
use fui_taxonomy::{Topic, NUM_TOPICS};

/// Dense authority index: one score per (node, topic), stored as two
/// flat arenas, row-major by node with stride [`NUM_TOPICS`]. A pure
/// function of the graph — never persisted, rebuilt wherever a graph is
/// made or restored.
#[derive(Clone, Debug)]
pub struct AuthorityIndex {
    /// `auth(v, t)` at `[v * NUM_TOPICS + t]`.
    auth: Vec<f64>,
    /// `|Γv(t)|`, same layout.
    followers_on: Vec<u32>,
    /// `max_v |Γv(t)|` per topic.
    max_followers_on: [u32; NUM_TOPICS],
}

/// Node-range granularity of the parallel build passes. Small graphs
/// fit in one chunk and run inline on the caller's thread; large ones
/// fan out over the `fui_exec` pool. Either way every row is computed
/// from its node's local counts alone, so the result is bit-identical
/// at any thread count.
const BUILD_CHUNK: usize = 2048;

/// `auth(u, t)` from `|Γu(t)|` (non-zero), `|Γu|` and `max_v |Γv(t)|`:
/// the module-level formula, written once.
fn auth_score(on_t: u32, total: usize, max_on_t: u32) -> f64 {
    let local = f64::from(on_t) / total as f64;
    let global = f64::from(1 + on_t).ln() / f64::from(1 + max_on_t).ln();
    local * global
}

impl AuthorityIndex {
    /// Builds the index — `O(N·T + E·|labels|)` total, with the
    /// per-node passes (follower counting, the per-topic
    /// max-normalization scan, authority derivation) chunked over the
    /// [`fui_exec`] pool. Each chunk owns a disjoint node range and
    /// chunk results are merged in range order, so the index matches
    /// the serial build exactly whatever `FUI_THREADS` says.
    pub fn build(graph: &SocialGraph) -> AuthorityIndex {
        let n = graph.num_nodes();
        // Pass 1: per-node follower counts per topic, and each chunk's
        // contribution to the per-topic maxima (max is order-free, but
        // we still fold chunk maxima in range order).
        let chunks: Vec<(Vec<u32>, [u32; NUM_TOPICS])> =
            fui_exec::par_ranges(n, BUILD_CHUNK, |r| {
                let mut followers = vec![0u32; r.len() * NUM_TOPICS];
                let mut maxima = [0u32; NUM_TOPICS];
                for v in r.clone() {
                    let base = (v - r.start) * NUM_TOPICS;
                    for e in graph.in_edges(NodeId(v as u32)) {
                        for t in e.labels.iter() {
                            followers[base + t.index()] += 1;
                        }
                    }
                    for t in 0..NUM_TOPICS {
                        maxima[t] = maxima[t].max(followers[base + t]);
                    }
                }
                (followers, maxima)
            });
        let mut followers_on = Vec::with_capacity(n * NUM_TOPICS);
        let mut max_followers_on = [0u32; NUM_TOPICS];
        for (chunk, maxima) in chunks {
            followers_on.extend_from_slice(&chunk);
            for t in 0..NUM_TOPICS {
                max_followers_on[t] = max_followers_on[t].max(maxima[t]);
            }
        }
        // Pass 2: authority rows against the global maxima; rows are
        // independent, chunks concatenate in range order.
        let followers_ref = &followers_on;
        let auth_chunks: Vec<Vec<f64>> = fui_exec::par_ranges(n, BUILD_CHUNK, |r| {
            let mut auth = vec![0.0f64; r.len() * NUM_TOPICS];
            for v in r.clone() {
                let total = graph.in_degree(NodeId(v as u32));
                if total == 0 {
                    continue;
                }
                let base = (v - r.start) * NUM_TOPICS;
                for t in 0..NUM_TOPICS {
                    let on_t = followers_ref[v * NUM_TOPICS + t];
                    if on_t > 0 {
                        auth[base + t] = auth_score(on_t, total, max_followers_on[t]);
                    }
                }
            }
            auth
        });
        let mut auth = Vec::with_capacity(n * NUM_TOPICS);
        for chunk in auth_chunks {
            auth.extend_from_slice(&chunk);
        }
        AuthorityIndex {
            auth,
            followers_on,
            max_followers_on,
        }
    }

    /// `auth(v, t)`.
    #[inline]
    pub fn auth(&self, v: NodeId, t: Topic) -> f64 {
        self.auth[v.index() * NUM_TOPICS + t.index()]
    }

    /// The full per-topic authority row of `v` (indexed by topic).
    #[inline]
    pub fn auth_row(&self, v: NodeId) -> &[f64] {
        &self.auth[v.index() * NUM_TOPICS..][..NUM_TOPICS]
    }

    /// `|Γv(t)|` — followers of `v` interested in `t`.
    #[inline]
    pub fn followers_on(&self, v: NodeId, t: Topic) -> u32 {
        self.followers_on[v.index() * NUM_TOPICS + t.index()]
    }

    /// `max_v |Γv(t)|` — the per-topic global maximum.
    #[inline]
    pub fn max_followers_on(&self, t: Topic) -> u32 {
        self.max_followers_on[t.index()]
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.auth.len() / NUM_TOPICS
    }

    /// Bytes held by the score and count arenas.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.auth) + std::mem::size_of_val(&*self.followers_on)
    }

    /// Borrows the raw arenas — the `auth` arena, the `followers_on`
    /// arena and the per-topic maxima — for bitwise comparison of two
    /// indices.
    pub fn to_parts(&self) -> (&[f64], &[u32], &[u32; NUM_TOPICS]) {
        (&self.auth, &self.followers_on, &self.max_followers_on)
    }

    /// The `k` highest-authority nodes on `t`, best first.
    pub fn top_authorities(&self, t: Topic, k: usize) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = (0..self.num_nodes())
            .map(|i| {
                let id = NodeId(i as u32);
                (id, self.auth(id, t))
            })
            .filter(|&(_, a)| a > 0.0)
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("authority is not NaN"));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_graph::{GraphBuilder, TopicSet};
    use fui_taxonomy::Topic;

    /// The Example-1 graph shape: B followed on {tech, tech, bigdata→
    /// business}, C followed on {tech, tech, business×4}. We map the
    /// paper's "bigdata" to business.
    fn example1() -> (SocialGraph, NodeId, NodeId) {
        let mut g = GraphBuilder::new();
        let b = g.add_node(TopicSet::empty());
        let c = g.add_node(TopicSet::empty());
        let tech = TopicSet::single(Topic::Technology);
        let busi = TopicSet::single(Topic::Business);
        // B: 3 followers -> 2 on technology, 1 on business.
        for _ in 0..2 {
            let f = g.add_node(TopicSet::empty());
            g.add_edge(f, b, tech);
        }
        let f = g.add_node(TopicSet::empty());
        g.add_edge(f, b, busi);
        // C: 6 followers -> 2 on technology, 4 on business.
        for _ in 0..2 {
            let f = g.add_node(TopicSet::empty());
            g.add_edge(f, c, tech);
        }
        for _ in 0..4 {
            let f = g.add_node(TopicSet::empty());
            g.add_edge(f, c, busi);
        }
        (g.build(), b, c)
    }

    #[test]
    fn example_one_of_the_paper() {
        let (g, b, c) = example1();
        let idx = AuthorityIndex::build(&g);
        // Same global popularity on technology (2 each), but B is more
        // specialised: auth(B, tech) > auth(C, tech).
        assert_eq!(idx.followers_on(b, Topic::Technology), 2);
        assert_eq!(idx.followers_on(c, Topic::Technology), 2);
        assert!(idx.auth(b, Topic::Technology) > idx.auth(c, Topic::Technology));
        // Exact local values: 2/3 vs 2/6, global = 1 for both.
        assert!((idx.auth(b, Topic::Technology) - 2.0 / 3.0).abs() < 1e-12);
        assert!((idx.auth(c, Topic::Technology) - 2.0 / 6.0).abs() < 1e-12);
        // On business C is more followed (4 vs 1): global factor wins.
        assert!(idx.auth(c, Topic::Business) > idx.auth(b, Topic::Business));
    }

    #[test]
    fn zero_when_unfollowed_on_topic() {
        let (g, b, _) = example1();
        let idx = AuthorityIndex::build(&g);
        assert_eq!(idx.auth(b, Topic::Sports), 0.0);
        assert_eq!(idx.followers_on(b, Topic::Sports), 0);
        // Followers themselves have no followers at all.
        assert_eq!(idx.auth(NodeId(2), Topic::Technology), 0.0);
    }

    #[test]
    fn exclusive_and_most_followed_scores_one() {
        // Single account followed only on social, and it is the global
        // max: local = global = 1.
        let mut g = GraphBuilder::new();
        let star = g.add_node(TopicSet::empty());
        for _ in 0..5 {
            let f = g.add_node(TopicSet::empty());
            g.add_edge(f, star, TopicSet::single(Topic::Social));
        }
        let idx = AuthorityIndex::build(&g.build());
        assert!((idx.auth(star, Topic::Social) - 1.0).abs() < 1e-12);
        assert_eq!(idx.max_followers_on(Topic::Social), 5);
    }

    #[test]
    fn authority_in_unit_interval() {
        let (g, _, _) = example1();
        let idx = AuthorityIndex::build(&g);
        for v in g.nodes() {
            for t in Topic::ALL {
                let a = idx.auth(v, t);
                assert!((0.0..=1.0).contains(&a), "auth({v},{t}) = {a}");
            }
        }
    }

    #[test]
    fn multi_label_edges_count_once_per_topic() {
        let mut g = GraphBuilder::new();
        let v = g.add_node(TopicSet::empty());
        let f = g.add_node(TopicSet::empty());
        g.add_edge(
            f,
            v,
            TopicSet::single(Topic::Technology).with(Topic::Business),
        );
        let idx = AuthorityIndex::build(&g.build());
        assert_eq!(idx.followers_on(v, Topic::Technology), 1);
        assert_eq!(idx.followers_on(v, Topic::Business), 1);
        // local = 1/1 for both topics, global = 1 (it is the max).
        assert!((idx.auth(v, Topic::Technology) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chunked_build_matches_serial_reference() {
        // A graph wider than BUILD_CHUNK so the build really crosses
        // chunk boundaries; the chunked passes must reproduce the
        // straightforward serial derivation bit-for-bit.
        let n = BUILD_CHUNK * 2 + 137;
        let mut g = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(TopicSet::empty())).collect();
        for i in 0..n {
            let label = Topic::ALL[i % Topic::ALL.len()];
            g.add_edge(nodes[i], nodes[(i * 7 + 13) % n], TopicSet::single(label));
            if i % 3 == 0 {
                g.add_edge(nodes[i], nodes[(i + n / 2) % n], TopicSet::single(label));
            }
        }
        let g = g.build();
        let idx = AuthorityIndex::build(&g);
        // Serial reference, computed the textbook way.
        let mut followers = vec![0u32; n * NUM_TOPICS];
        for v in g.nodes() {
            for e in g.in_edges(v) {
                for t in e.labels.iter() {
                    followers[v.index() * NUM_TOPICS + t.index()] += 1;
                }
            }
        }
        let mut maxima = [0u32; NUM_TOPICS];
        for v in 0..n {
            for t in 0..NUM_TOPICS {
                maxima[t] = maxima[t].max(followers[v * NUM_TOPICS + t]);
            }
        }
        for t in Topic::ALL {
            assert_eq!(idx.max_followers_on(t), maxima[t.index()]);
        }
        for v in g.nodes() {
            for t in Topic::ALL {
                let on_t = followers[v.index() * NUM_TOPICS + t.index()];
                assert_eq!(idx.followers_on(v, t), on_t);
                let expect = if on_t == 0 || g.in_degree(v) == 0 {
                    0.0
                } else {
                    (f64::from(on_t) / g.in_degree(v) as f64)
                        * (f64::from(1 + on_t).ln() / f64::from(1 + maxima[t.index()]).ln())
                };
                assert_eq!(
                    idx.auth(v, t).to_bits(),
                    expect.to_bits(),
                    "node {v} topic {t}"
                );
            }
        }
    }

    #[test]
    fn top_authorities_sorted() {
        let (g, b, c) = example1();
        let idx = AuthorityIndex::build(&g);
        let top = idx.top_authorities(Topic::Technology, 5);
        assert_eq!(top[0].0, b);
        assert_eq!(top[1].0, c);
        assert_eq!(top.len(), 2);
    }
}
