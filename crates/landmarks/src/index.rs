//! Landmark preprocessing (Algorithm 1) and the inverted-list index.
//!
//! For every landmark λ the preprocessing runs the iterative score
//! computation to convergence over **all** topics and keeps, per topic,
//! the top-n recommendations as an inverted list, plus the top-n
//! topological scores. Each stored node carries *both* its `σ(λ,·,t)`
//! and its `topo_β(λ,·)` values so the query-time composition of
//! Proposition 4 has both terms available.
//!
//! Preprocessing is embarrassingly parallel across landmarks;
//! [`LandmarkIndex::build`] fans out one propagation per landmark over
//! the [`fui_exec`] pool, sharing one read-only [`Propagator`], and
//! merges the entries **in landmark order** — the pool's index-ordered
//! reduction makes the index bit-identical at every thread count, the
//! serial loop `build_parallel(.., 1)` included.

use std::sync::Arc;

use fui_core::{PropWorkspace, PropagateOpts, Propagator};
use fui_graph::NodeId;
use fui_taxonomy::{Topic, NUM_TOPICS};

/// A node stored in a landmark's inverted lists with both composition
/// ingredients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredNode {
    /// The recommended account.
    pub node: NodeId,
    /// `σ(λ, node, t)` for the list's topic (for the topological list,
    /// the σ of the list's ordering topic is not meaningful and is 0).
    pub sigma: f64,
    /// `topo_β(λ, node)`.
    pub topo: f64,
}

/// Precomputed recommendation state of one landmark.
#[derive(Clone, Debug, Default)]
pub struct LandmarkEntry {
    /// Per topic (indexed by `Topic::index()`): top-n by σ, best first.
    pub recs: Vec<Vec<ScoredNode>>,
    /// Top-n by `topo_β`, best first.
    pub topo: Vec<ScoredNode>,
}

impl LandmarkEntry {
    /// Approximate in-memory size in bytes.
    pub fn size_bytes(&self) -> usize {
        let per = std::mem::size_of::<ScoredNode>();
        self.recs.iter().map(|l| l.len() * per).sum::<usize>() + self.topo.len() * per
    }
}

/// The landmark index: selected landmarks, their inverted lists and a
/// dense membership mask for O(1) landmark tests during BFS.
///
/// The two per-node arenas depend only on the landmark set, so clones
/// and [`truncated`](Self::truncated) copies share them instead of
/// copying 5 B/node each.
#[derive(Clone, Debug)]
pub struct LandmarkIndex {
    landmarks: Vec<NodeId>,
    entries: Vec<LandmarkEntry>,
    /// Dense mask over graph nodes.
    mask: Arc<[bool]>,
    /// Landmark slot per node (`u32::MAX` = not a landmark).
    slot: Arc<[u32]>,
    /// Stored list length n (the paper evaluates 10 / 100 / 1000).
    top_n: usize,
}

impl LandmarkIndex {
    /// Precomputes the index over the given landmarks on the
    /// [`fui_exec`] pool at the width `FUI_THREADS` configures
    /// ([`build_parallel`](Self::build_parallel)).
    pub fn build(
        propagator: &Propagator<'_>,
        landmarks: Vec<NodeId>,
        top_n: usize,
    ) -> LandmarkIndex {
        Self::build_parallel(propagator, landmarks, top_n, fui_exec::threads())
    }

    /// Preprocessing over `threads` workers of the [`fui_exec`] pool
    /// (one propagation per landmark per worker, entries merged in
    /// landmark order; width 1 is the serial loop). Each worker reuses
    /// one propagation workspace across all the landmarks it claims,
    /// so the build performs `O(threads)` workspace allocations, not
    /// `O(landmarks)`.
    pub fn build_parallel(
        propagator: &Propagator<'_>,
        landmarks: Vec<NodeId>,
        top_n: usize,
        threads: usize,
    ) -> LandmarkIndex {
        let pool: fui_exec::WorkerLocal<PropWorkspace> = fui_exec::WorkerLocal::new();
        let entries = fui_exec::par_map_with(threads, &landmarks, |&l| {
            let mut ws = pool.get_or(PropWorkspace::new);
            compute_entry(propagator, &mut ws, l, top_n)
        });
        Self::assemble(propagator.graph().num_nodes(), landmarks, entries, top_n)
    }

    /// [`build`](Self::build). Named by `benchmark/`; ROADMAP 6(d)
    /// deletes it.
    pub fn build_auto(
        propagator: &Propagator<'_>,
        landmarks: Vec<NodeId>,
        top_n: usize,
    ) -> LandmarkIndex {
        Self::build(propagator, landmarks, top_n)
    }

    pub(crate) fn assemble(
        num_nodes: usize,
        landmarks: Vec<NodeId>,
        entries: Vec<LandmarkEntry>,
        top_n: usize,
    ) -> LandmarkIndex {
        let mut mask = vec![false; num_nodes];
        let mut slot = vec![u32::MAX; num_nodes];
        for (i, &l) in landmarks.iter().enumerate() {
            mask[l.index()] = true;
            slot[l.index()] = i as u32;
        }
        LandmarkIndex {
            landmarks,
            entries,
            mask: mask.into(),
            slot: slot.into(),
            top_n,
        }
    }

    /// The landmarks, in slot order.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// Whether the index holds no landmark.
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Stored list length.
    pub fn top_n(&self) -> usize {
        self.top_n
    }

    /// Dense landmark mask (for BFS pruning).
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Whether `v` is a landmark.
    #[inline]
    pub fn is_landmark(&self, v: NodeId) -> bool {
        self.mask[v.index()]
    }

    /// Slot of landmark `v` (its position in [`landmarks`](Self::landmarks)),
    /// or `None` if `v` is not a landmark.
    #[inline]
    pub fn slot_of(&self, v: NodeId) -> Option<u32> {
        let s = self.slot[v.index()];
        (s != u32::MAX).then_some(s)
    }

    /// The stored entry of landmark `v`, if it is one.
    #[inline]
    pub fn entry(&self, v: NodeId) -> Option<&LandmarkEntry> {
        let s = self.slot[v.index()];
        (s != u32::MAX).then(|| &self.entries[s as usize])
    }

    /// Entry by slot (parallel to [`landmarks`](Self::landmarks)).
    pub fn entry_at(&self, slot: usize) -> &LandmarkEntry {
        &self.entries[slot]
    }

    /// Total approximate size of the stored lists in bytes (the paper
    /// reports ~1.4 MB per landmark at top-1000 over all topics).
    pub fn size_bytes(&self) -> usize {
        self.entries.iter().map(LandmarkEntry::size_bytes).sum()
    }

    /// Everything the index keeps resident, including the dense
    /// per-node mask and slot arenas the stored-list accounting of
    /// [`size_bytes`](Self::size_bytes) leaves out. At paper scale the
    /// dense arenas dominate (5 bytes per graph node regardless of
    /// landmark count) — this is the number capacity planning wants.
    pub fn resident_bytes(&self) -> usize {
        self.size_bytes()
            + self.landmarks.len() * std::mem::size_of::<NodeId>()
            + self.mask.len() * std::mem::size_of::<bool>()
            + self.slot.len() * std::mem::size_of::<u32>()
    }

    /// Recomputes one landmark's entry against a (possibly changed)
    /// graph inside `ws`. The propagator must cover a graph with the
    /// same node-id space. Named by `benchmark/`
    /// (`landmarks.index.refresh_slot_ms`); ROADMAP 6(d) deletes it.
    pub fn refresh_with(
        &mut self,
        propagator: &Propagator<'_>,
        ws: &mut PropWorkspace,
        slot: usize,
    ) {
        self.entries[slot] = compute_entry(propagator, ws, self.landmarks[slot], self.top_n);
    }

    /// Recomputes the entries of many slots against a (possibly
    /// changed) graph — the refresh primitive of the dynamic-update
    /// policy (`crate::dynamic`) — the way
    /// [`build_parallel`](Self::build_parallel) builds: one `par_map`
    /// over `threads` workers, each reusing one workspace across the
    /// slots it claims, the entries installed in `slots` order. The
    /// result is the same at every width.
    pub fn refresh_slots(&mut self, propagator: &Propagator<'_>, slots: &[usize], threads: usize) {
        let pool: fui_exec::WorkerLocal<PropWorkspace> = fui_exec::WorkerLocal::new();
        let (landmarks, top_n) = (&self.landmarks, self.top_n);
        let entries = fui_exec::par_map_with(threads, slots, |&slot| {
            let mut ws = pool.get_or(PropWorkspace::new);
            compute_entry(propagator, &mut ws, landmarks[slot], top_n)
        });
        for (&slot, entry) in slots.iter().zip(entries) {
            self.entries[slot] = entry;
        }
    }

    /// A copy keeping only the top-`top_n` of every stored list —
    /// Table 6 compares landmarks storing top-10/100/1000 without
    /// re-running the preprocessing.
    pub fn truncated(&self, top_n: usize) -> LandmarkIndex {
        let entries = self
            .entries
            .iter()
            .map(|e| LandmarkEntry {
                recs: e
                    .recs
                    .iter()
                    .map(|l| l.iter().copied().take(top_n).collect())
                    .collect(),
                topo: e.topo.iter().copied().take(top_n).collect(),
            })
            .collect();
        LandmarkIndex {
            landmarks: self.landmarks.clone(),
            entries,
            mask: Arc::clone(&self.mask),
            slot: Arc::clone(&self.slot),
            top_n: top_n.min(self.top_n),
        }
    }
}

/// Runs Algorithm 1 for one landmark: propagate to convergence on all
/// topics (inside the caller's workspace), extract per-topic and
/// topological top-n lists.
fn compute_entry(
    propagator: &Propagator<'_>,
    ws: &mut PropWorkspace,
    landmark: NodeId,
    top_n: usize,
) -> LandmarkEntry {
    let _span = fui_obs::span!("landmark.preprocess");
    let r = propagator.propagate(ws, landmark, &Topic::ALL, PropagateOpts::default());
    let mut recs = Vec::with_capacity(NUM_TOPICS);
    for ti in 0..NUM_TOPICS {
        let list = r
            .top_n_sigma(ti, top_n)
            .into_iter()
            .map(|(node, sigma)| ScoredNode {
                node,
                sigma,
                topo: r.topo_beta(node),
            })
            .collect();
        recs.push(list);
    }
    let topo = r
        .top_n_topo(top_n)
        .into_iter()
        .map(|(node, topo)| ScoredNode {
            node,
            sigma: 0.0,
            topo,
        })
        .collect();
    LandmarkEntry { recs, topo }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_core::{AuthorityIndex, ScoreParams, ScoreVariant};
    use fui_datagen::{generate_streaming, label_direct, twitter, StreamConfig, TwitterConfig};
    use fui_taxonomy::SimMatrix;

    fn fixture() -> (fui_datagen::LabeledDataset, AuthorityIndex) {
        let d = label_direct(twitter::generate(&TwitterConfig::tiny()));
        let idx = AuthorityIndex::build(&d.graph);
        (d, idx)
    }

    #[test]
    fn entries_are_sorted_and_bounded() {
        let (d, idx) = fixture();
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(
            &d.graph,
            &idx,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let landmarks = vec![NodeId(0), NodeId(5), NodeId(17)];
        let index = LandmarkIndex::build(&p, landmarks.clone(), 25);
        assert_eq!(index.len(), 3);
        for &l in &landmarks {
            let e = index.entry(l).unwrap();
            assert_eq!(e.recs.len(), NUM_TOPICS);
            for list in &e.recs {
                assert!(list.len() <= 25);
                for w in list.windows(2) {
                    assert!(w[0].sigma >= w[1].sigma);
                }
                for s in list {
                    assert!(s.node != l, "landmark recommends itself");
                    assert!(s.topo > 0.0, "stored node missing topo component");
                }
            }
            assert!(e.topo.len() <= 25);
            for w in e.topo.windows(2) {
                assert!(w[0].topo >= w[1].topo);
            }
        }
    }

    #[test]
    fn mask_and_slots_align() {
        let (d, idx) = fixture();
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(
            &d.graph,
            &idx,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let landmarks = vec![NodeId(3), NodeId(9)];
        let index = LandmarkIndex::build(&p, landmarks, 10);
        assert!(index.is_landmark(NodeId(3)));
        assert!(index.is_landmark(NodeId(9)));
        assert!(!index.is_landmark(NodeId(4)));
        assert!(index.entry(NodeId(4)).is_none());
        assert_eq!(index.mask().iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let (d, idx) = fixture();
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(
            &d.graph,
            &idx,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let landmarks: Vec<NodeId> = (0..8).map(|i| NodeId(i * 13)).collect();
        let seq = LandmarkIndex::build_parallel(&p, landmarks.clone(), 15, 1);
        let par = LandmarkIndex::build_parallel(&p, landmarks.clone(), 15, 4);
        for &l in &landmarks {
            let (a, b) = (seq.entry(l).unwrap(), par.entry(l).unwrap());
            assert_eq!(a.topo.len(), b.topo.len());
            for (x, y) in a.topo.iter().zip(&b.topo) {
                assert_eq!(x.node, y.node);
                assert!((x.topo - y.topo).abs() < 1e-15);
            }
            for t in 0..NUM_TOPICS {
                assert_eq!(a.recs[t].len(), b.recs[t].len(), "topic {t}");
            }
        }
    }

    #[test]
    fn size_accounting_is_positive() {
        let (d, idx) = fixture();
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(
            &d.graph,
            &idx,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let index = LandmarkIndex::build(&p, vec![NodeId(1)], 50);
        assert!(index.size_bytes() > 0);
        // Resident accounting additionally covers the dense per-node
        // arenas: 4 B slot + 1 B mask per graph node, plus the
        // landmark list itself.
        assert_eq!(
            index.resident_bytes(),
            index.size_bytes() + index.len() * 4 + index.mask().len() * 5
        );
        assert_eq!(index.top_n(), 50);
    }

    #[test]
    fn propagation_scratch_is_sized_by_reach_not_by_graph() {
        // The memory contract of the reach-sparse workspace, on a
        // 100k-node streamed graph: one 8-byte stamp word per node plus
        // under 1 KiB per *reached* node for an 18-topic run (488 B of
        // slot + sigma state, doubled by `Vec` growth, plus lists) —
        // and a whole parallel landmark build never takes a worker's
        // workspace past 16 B/node. The node-dense layout it replaced
        // cost 488 B/node.
        let graph = generate_streaming(&StreamConfig {
            avg_out_degree: 8.0,
            ..StreamConfig::scaled(100_000)
        })
        .graph;
        let n = graph.num_nodes();
        let idx = AuthorityIndex::build(&graph);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(
            &graph,
            &idx,
            &sim,
            ScoreParams::default(),
            ScoreVariant::Full,
        );
        let mut hubs: Vec<NodeId> = graph.nodes().collect();
        hubs.sort_unstable_by_key(|&u| (std::cmp::Reverse(graph.in_degree(u)), u.0));
        hubs.truncate(16);

        let mut ws = PropWorkspace::new();
        let reached = p
            .propagate(&mut ws, hubs[0], &Topic::ALL, PropagateOpts::default())
            .reached
            .len();
        assert!(
            ws.size_bytes() <= 8 * n + 1024 * reached,
            "{} B for {n} nodes, {reached} reached",
            ws.size_bytes()
        );

        LandmarkIndex::build_parallel(&p, hubs, 32, 4);
        if fui_obs::counters_enabled() {
            let peak = fui_obs::gauge("propagate.workspace.peak_bytes").get();
            assert!(
                (8 * n) as f64 <= peak && peak <= (16 * n) as f64,
                "{peak} B"
            );
        }
    }
}
