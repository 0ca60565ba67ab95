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
//! `|Γu|` and `|Γu(t)|` are per-node counts, and only counts:
//! `|Γu|` is the graph's in-degree, and [`AuthorityIndex`] scatters
//! `|Γu(t)|` from the out-CSR — each edge `w → u` adds one to each of
//! its topics at `u` — so no follower list is ever read. Only the
//! per-topic maximum needs a full pass, and the paper notes it can be
//! stored and refreshed periodically. The index keeps only the topics a
//! node is actually followed on.

use fui_graph::{NodeId, Pages, SocialGraph};
use fui_taxonomy::{Topic, TopicSet, NUM_TOPICS};

/// Sparse authority index: per node, the set of topics it has at least
/// one follower on and where its entries start; per non-zero
/// `(node, topic)` pair, in node then topic order, `auth` and
/// `|Γv(t)|`. A topic outside a node's set scores 0 without touching
/// the entry arrays — the landmark index's mask + slot idiom, per
/// topic. A pure function of the graph — never persisted, rebuilt
/// wherever a graph is made or restored. `==` compares every array;
/// no stored score is 0 or NaN, so it is a bitwise comparison. The
/// three arrays are [`Pages`] buffers: a dropped index leaves the
/// process at once.
#[derive(Clone, Debug, PartialEq)]
pub struct AuthorityIndex {
    rows: Pages<Row>,
    /// `auth(v, t)` per entry. Derivable from `counts`, stored anyway:
    /// computing it on read cost query latency (DESIGN §6g).
    scores: Pages<f64>,
    /// `|Γv(t)|` per entry.
    counts: Pages<u32>,
    /// `max_v |Γv(t)|` per topic.
    max_followers_on: [u32; NUM_TOPICS],
}

/// A node's row word: the topics it is followed on, and the index of
/// its first entry.
type Row = (TopicSet, u32);

/// Node-range granularity of the parallel scoring pass. Small graphs
/// fit in one chunk and run inline on the caller's thread; large ones
/// fan out over the `fui_exec` pool. Either way every score is computed
/// from its node's counts and the global maxima alone, so the result
/// is bit-identical at any thread count.
const BUILD_CHUNK: usize = 2048;

/// The number of `set`'s topics below `t`: the offset of `t`'s entry
/// in a row whose topics are `set`.
#[inline]
fn rank(set: TopicSet, t: Topic) -> usize {
    (set.mask() & (t.bit() - 1)).count_ones() as usize
}

/// `auth(u, t)` from `|Γu(t)|` (non-zero), `|Γu|` and `max_v |Γv(t)|`:
/// the module-level formula, written once.
fn auth_score(on_t: u32, total: usize, max_on_t: u32) -> f64 {
    let local = f64::from(on_t) / total as f64;
    let global = f64::from(1 + on_t).ln() / f64::from(1 + max_on_t).ln();
    local * global
}

/// Edges decoded ahead of a scatter pass (4 KiB of `(id, target)`).
const SCATTER_BATCH: usize = 512;

/// Hands every out-edge's `(label id, followee)` to `f`: packed rows
/// are decoded into a reused batch of at least [`SCATTER_BATCH`] edges
/// first, so the scatter over it makes its random writes back to back
/// instead of one per decoded field.
fn for_each_out_edge(graph: &SocialGraph, mut f: impl FnMut(u16, NodeId)) {
    let mut batch = Vec::with_capacity(2 * SCATTER_BATCH);
    let mut rows = graph.nodes();
    loop {
        batch.clear();
        while batch.len() < SCATTER_BATCH {
            let Some(u) = rows.next() else { break };
            graph
                .out_edges_by_label_id(u)
                .for_each(|edge| batch.push(edge));
        }
        if batch.is_empty() {
            return;
        }
        for &(id, v) in &batch {
            f(id, v);
        }
    }
}

impl AuthorityIndex {
    /// Builds the index — `O(N + E·|labels|)` total, from the out-CSR
    /// and the in-degrees alone, into arrays sized once: nothing `O(E)`
    /// or `n × NUM_TOPICS` beyond the index itself is ever allocated.
    ///
    /// 1. Each out-edge ORs its label set into its followee's row.
    /// 2. A prefix sum of the rows' popcounts gives the row starts.
    /// 3. Each out-edge adds one to its followee's count on each of its
    ///    topics, at `start + rank`.
    /// 4. Chunked over the [`fui_exec`] pool, each node range scores its
    ///    own slice of entries against the global per-topic maxima.
    ///
    /// Counts are integers and every score a function of one node's
    /// counts and the maxima, so the index is the same whatever order
    /// the edges arrive in and whatever `FUI_THREADS` says.
    pub fn build(graph: &SocialGraph) -> AuthorityIndex {
        let labels = graph.label_sets();
        let mut rows: Pages<Row> = Pages::zeroed(graph.num_nodes());
        for_each_out_edge(graph, |id, v| {
            let set = &mut rows[v.index()].0;
            *set = set.union(labels[id as usize]);
        });
        let mut entries = 0usize;
        for row in rows.iter_mut() {
            row.1 = u32::try_from(entries)
                .unwrap_or_else(|_| panic!("{entries} authority entries overflow a u32 row start"));
            entries += row.0.len();
        }
        let mut counts: Pages<u32> = Pages::zeroed(entries);
        for_each_out_edge(graph, |id, v| {
            let (set, start) = rows[v.index()];
            for t in labels[id as usize].iter() {
                counts[start as usize + rank(set, t)] += 1;
            }
        });
        let mut max_followers_on = [0u32; NUM_TOPICS];
        for &(set, start) in &rows {
            for (k, t) in set.iter().enumerate() {
                let max = &mut max_followers_on[t.index()];
                *max = (*max).max(counts[start as usize + k]);
            }
        }
        // Every chunk scores its own slice of the entry array.
        let mut scores: Pages<f64> = Pages::zeroed(entries);
        let mut rest = &mut scores[..];
        let mut pieces: Vec<(&[Row], &mut [f64])> = rows
            .chunks(BUILD_CHUNK)
            .map(|chunk| {
                let len: usize = chunk.iter().map(|row| row.0.len()).sum();
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                (chunk, head)
            })
            .collect();
        let counts_ref = &counts;
        fui_exec::par_map_mut(&mut pieces, |c, (rows, scores)| {
            let base = rows.first().map_or(0, |row| row.1 as usize);
            for (i, &(set, start)) in rows.iter().enumerate() {
                let total = graph.in_degree(NodeId((c * BUILD_CHUNK + i) as u32));
                let at = start as usize;
                for (k, t) in set.iter().enumerate() {
                    let on_t = counts_ref[at + k];
                    scores[at - base + k] = auth_score(on_t, total, max_followers_on[t.index()]);
                }
            }
        });
        AuthorityIndex {
            rows,
            scores,
            counts,
            max_followers_on,
        }
    }

    /// Where `(v, t)`'s entry lives, if `v` has a follower on `t`: its
    /// row start plus the number of `v`'s topics below `t`.
    #[inline]
    fn entry(&self, v: NodeId, t: Topic) -> Option<usize> {
        let (set, start) = self.rows[v.index()];
        set.contains(t).then(|| start as usize + rank(set, t))
    }

    /// `auth(v, t)`.
    #[inline]
    pub fn auth(&self, v: NodeId, t: Topic) -> f64 {
        self.entry(v, t).map_or(0.0, |i| self.scores[i])
    }

    /// `|Γv(t)|` — followers of `v` interested in `t`.
    #[inline]
    pub fn followers_on(&self, v: NodeId, t: Topic) -> u32 {
        self.entry(v, t).map_or(0, |i| self.counts[i])
    }

    /// `max_v |Γv(t)|` — the per-topic global maximum.
    #[inline]
    pub fn max_followers_on(&self, t: Topic) -> u32 {
        self.max_followers_on[t.index()]
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    /// Bytes held by the row words and the entry arrays:
    /// `8·n + 12·entries`.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.rows)
            + std::mem::size_of_val(&*self.scores)
            + std::mem::size_of_val(&*self.counts)
    }

    /// Borrows the entry arrays — scores, counts — and the per-topic
    /// maxima. Kept, with this signature, for the benchmark harness
    /// until its next revision (ROADMAP item 2); compare two indexes
    /// with `==`.
    pub fn to_parts(&self) -> (&[f64], &[u32], &[u32; NUM_TOPICS]) {
        (&self.scores, &self.counts, &self.max_followers_on)
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
    fn rows_hold_only_the_topics_a_node_is_followed_on() {
        // `v` is followed once on every topic and once more on all 18 at
        // once, so its row spans every rank up to the last bit; `lonely`
        // and the followers have no followers at all.
        let mut g = GraphBuilder::new();
        let v = g.add_node(TopicSet::empty());
        let lonely = g.add_node(TopicSet::empty());
        for t in Topic::ALL {
            let f = g.add_node(TopicSet::empty());
            g.add_edge(f, v, TopicSet::single(t));
        }
        let f = g.add_node(TopicSet::empty());
        g.add_edge(f, v, TopicSet::full());
        let g = g.build();
        let idx = AuthorityIndex::build(&g);
        assert_eq!(idx.size_bytes(), 8 * g.num_nodes() + 12 * NUM_TOPICS);
        let total = (NUM_TOPICS + 1) as f64;
        for t in Topic::ALL {
            assert_eq!(idx.followers_on(v, t), 2);
            // local 2/19, global ln 3 / ln 3.
            let want = (2.0 / total) * (3f64.ln() / 3f64.ln());
            assert_eq!(idx.auth(v, t).to_bits(), want.to_bits(), "{t}");
            assert_eq!(idx.auth(lonely, t), 0.0);
            assert_eq!(idx.followers_on(f, t), 0);
        }
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
