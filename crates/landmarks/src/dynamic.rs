//! Dynamic updates — the paper's stated future work, implemented.
//!
//! "As future work we intend to study updating strategies since many
//! following links have a short lifespan. This graph dynamicity may
//! impact the scores stored by the landmarks." (Section 6.)
//!
//! The policy here is *impact-accumulation with lazy refresh*: every
//! follow/unfollow is charged to each landmark in proportion to how
//! much walk mass the landmark routes through the changed edge's
//! endpoints — approximated from the landmark's own stored
//! `topo_β(λ, ·)` values, so no graph traversal is needed at update
//! time. When a landmark's accumulated impact crosses a threshold its
//! entry is recomputed (Algorithm 1) against the current graph; until
//! then queries keep using the slightly stale lists, which is exactly
//! the trade-off the paper anticipates.

use std::collections::HashMap;

use fui_core::Propagator;
use fui_graph::NodeId;
use fui_taxonomy::TopicSet;

use crate::index::LandmarkIndex;

/// What a follow-graph mutation does to the edge.
///
/// An explicit kind (rather than a boolean) so the serving layer can
/// apply changes to the graph, and so the staleness policy is forced
/// to treat unfollows as first-class: a removal deletes walks through
/// the landmark's stored coverage exactly as an insertion adds them,
/// and both must drive the landmark stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// A new follow edge (labels are unioned into an existing edge).
    Insert,
    /// An unfollow: the edge is deleted entirely.
    Remove,
}

/// One follow-graph mutation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeChange {
    /// The follower.
    pub follower: NodeId,
    /// The followee.
    pub followee: NodeId,
    /// Topics of the (un)followed relationship.
    pub labels: TopicSet,
    /// Whether the edge appears or disappears.
    pub kind: ChangeKind,
}

impl EdgeChange {
    /// A new follow.
    pub fn insert(follower: NodeId, followee: NodeId, labels: TopicSet) -> EdgeChange {
        EdgeChange {
            follower,
            followee,
            labels,
            kind: ChangeKind::Insert,
        }
    }

    /// An unfollow.
    pub fn remove(follower: NodeId, followee: NodeId, labels: TopicSet) -> EdgeChange {
        EdgeChange {
            follower,
            followee,
            labels,
            kind: ChangeKind::Remove,
        }
    }
}

/// A landmark index plus per-landmark staleness accounting.
pub struct DynamicLandmarks {
    index: LandmarkIndex,
    /// Accumulated impact per landmark slot.
    staleness: Vec<f64>,
    /// Impact at which a landmark is flagged for refresh.
    pub refresh_threshold: f64,
    /// Impact charged for a change not visible from the landmark's
    /// stored lists (far-away changes still drift scores slightly).
    pub background_impact: f64,
    /// Per-landmark `node → stored topo_β(λ, node)` lookup.
    topo_lookup: Vec<HashMap<u32, f64>>,
    changes_seen: u64,
}

impl DynamicLandmarks {
    /// Wraps an index with the default policy (refresh when the
    /// accumulated impact reaches 10% of the landmark's total stored
    /// topological mass).
    pub fn new(index: LandmarkIndex) -> DynamicLandmarks {
        DynamicLandmarks::with_policy(index, 0.1, 1e-9)
    }

    /// Wraps an index with an explicit policy. `refresh_threshold` is
    /// relative to each landmark's total stored `topo_β` mass.
    pub fn with_policy(
        index: LandmarkIndex,
        refresh_threshold: f64,
        background_impact: f64,
    ) -> DynamicLandmarks {
        assert!(refresh_threshold > 0.0, "threshold must be positive");
        let topo_lookup = (0..index.len())
            .map(|slot| {
                let entry = index.entry_at(slot);
                let mut map: HashMap<u32, f64> =
                    entry.topo.iter().map(|s| (s.node.0, s.topo)).collect();
                // Topical lists may cover nodes the topo list misses.
                for list in &entry.recs {
                    for s in list {
                        map.entry(s.node.0).or_insert(s.topo);
                    }
                }
                map
            })
            .collect();
        DynamicLandmarks {
            staleness: vec![0.0; index.len()],
            index,
            refresh_threshold,
            background_impact,
            topo_lookup,
            changes_seen: 0,
        }
    }

    /// Rebuilds the wrapper from persisted state: the index plus the
    /// staleness accumulator and change counter a previous process had
    /// reached. The topo lookup tables are derived from the index (they
    /// are a pure function of the stored entries), so a restored
    /// wrapper is bit-identical to one that lived through the same
    /// mutation history in-process.
    ///
    /// # Panics
    /// Panics if `staleness.len()` disagrees with the index length.
    pub fn restore(
        index: LandmarkIndex,
        refresh_threshold: f64,
        background_impact: f64,
        staleness: Vec<f64>,
        changes_seen: u64,
    ) -> DynamicLandmarks {
        assert_eq!(
            staleness.len(),
            index.len(),
            "staleness vector disagrees with index length"
        );
        let mut dynamic =
            DynamicLandmarks::with_policy(index, refresh_threshold, background_impact);
        dynamic.staleness = staleness;
        dynamic.changes_seen = changes_seen;
        dynamic
    }

    /// The wrapped index (stale entries included — queries tolerate
    /// them by design).
    pub fn index(&self) -> &LandmarkIndex {
        &self.index
    }

    /// Number of changes recorded so far.
    pub fn changes_seen(&self) -> u64 {
        self.changes_seen
    }

    /// Current accumulated impact of a landmark (by slot).
    pub fn staleness_at(&self, slot: usize) -> f64 {
        self.staleness[slot]
    }

    /// Charges one mutation to every landmark. Insertions and removals
    /// are charged identically: deleting an edge invalidates exactly
    /// the walk mass that adding it would have created, so both kinds
    /// drive the affected landmarks stale at the same rate.
    pub fn record(&mut self, change: &EdgeChange) {
        self.changes_seen += 1;
        fui_obs::counter("landmarks.dynamic.records").incr();
        let mut newly_stale = 0u64;
        for slot in 0..self.index.len() {
            let lookup = &self.topo_lookup[slot];
            let landmark = self.index.landmarks()[slot];
            // Walk mass the landmark routes through the edge's source;
            // an edge out of a heavy node redirects that much mass.
            let via_src = if change.follower == landmark {
                1.0
            } else {
                lookup.get(&change.follower.0).copied().unwrap_or(0.0)
            };
            let via_dst = lookup.get(&change.followee.0).copied().unwrap_or(0.0);
            let was_stale = self.is_stale(slot);
            self.staleness[slot] += via_src + via_dst + self.background_impact;
            if !was_stale && self.is_stale(slot) {
                newly_stale += 1;
            }
        }
        fui_obs::counter("landmarks.dynamic.stale").add(newly_stale);
    }

    /// Whether `slot`'s accumulated impact crossed the threshold
    /// (relative to its stored topological mass).
    pub fn is_stale(&self, slot: usize) -> bool {
        let total: f64 = self
            .index
            .entry_at(slot)
            .topo
            .iter()
            .map(|s| s.topo)
            .sum::<f64>()
            .max(self.background_impact);
        self.staleness[slot] >= self.refresh_threshold * total
    }

    /// Landmark slots whose impact crossed the threshold (relative to
    /// their stored topological mass).
    pub fn stale_slots(&self) -> Vec<usize> {
        (0..self.index.len())
            .filter(|&slot| self.is_stale(slot))
            .collect()
    }

    /// Recomputes every stale landmark against the current graph (the
    /// propagator must be built on the post-update graph) and resets
    /// their accounting. Returns the number refreshed. The entries are
    /// computed on the [`fui_exec`] pool at the width `FUI_THREADS`
    /// configures.
    pub fn refresh_stale(&mut self, propagator: &Propagator<'_>) -> usize {
        self.refresh_stale_with(propagator, fui_exec::threads())
    }

    /// [`refresh_stale`](Self::refresh_stale) over `threads` workers
    /// ([`LandmarkIndex::refresh_slots`]); the refreshed state is the
    /// same at every width.
    pub fn refresh_stale_with(&mut self, propagator: &Propagator<'_>, threads: usize) -> usize {
        let stale = self.stale_slots();
        fui_obs::counter("landmarks.dynamic.refreshes").add(stale.len() as u64);
        self.index.refresh_slots(propagator, &stale, threads);
        for &slot in &stale {
            let entry = self.index.entry_at(slot);
            let mut map: HashMap<u32, f64> =
                entry.topo.iter().map(|s| (s.node.0, s.topo)).collect();
            for list in &entry.recs {
                for s in list {
                    map.entry(s.node.0).or_insert(s.topo);
                }
            }
            self.topo_lookup[slot] = map;
            self.staleness[slot] = 0.0;
        }
        stale.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_core::{AuthorityIndex, ScoreParams, ScoreVariant};
    use fui_graph::{GraphBuilder, SocialGraph};
    use fui_taxonomy::{SimMatrix, Topic, NUM_TOPICS};

    /// Chain λ → a → b plus an unrelated far pair x → y.
    fn graph() -> SocialGraph {
        let mut g = GraphBuilder::new();
        let l = g.add_node(TopicSet::empty());
        let a = g.add_node(TopicSet::empty());
        let b = g.add_node(TopicSet::empty());
        let x = g.add_node(TopicSet::empty());
        let y = g.add_node(TopicSet::empty());
        let tech = TopicSet::single(Topic::Technology);
        g.add_edge(l, a, tech);
        g.add_edge(a, b, tech);
        g.add_edge(x, y, tech);
        g.build()
    }

    fn params() -> ScoreParams {
        ScoreParams {
            alpha: 0.8,
            beta: 0.2,
            tolerance: 1e-12,
            max_depth: 40,
        }
    }

    #[test]
    fn near_changes_hurt_more_than_far_ones() {
        let g = graph();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&p, vec![NodeId(0)], 10);
        let mut dyn_near = DynamicLandmarks::new(index.clone());
        let mut dyn_far = DynamicLandmarks::new(index);
        let tech = TopicSet::single(Topic::Technology);
        // Insertion near the landmark vs removal far from it: the
        // charge is kind-agnostic, only locality matters.
        dyn_near.record(&EdgeChange::insert(NodeId(1), NodeId(2), tech));
        dyn_far.record(&EdgeChange::remove(NodeId(3), NodeId(4), tech));
        assert!(
            dyn_near.staleness_at(0) > dyn_far.staleness_at(0),
            "near {} vs far {}",
            dyn_near.staleness_at(0),
            dyn_far.staleness_at(0)
        );
    }

    #[test]
    fn refresh_restores_agreement_with_fresh_build() {
        let g = graph();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&p, vec![NodeId(0)], 10);
        let mut dynamic = DynamicLandmarks::with_policy(index, 0.01, 1e-9);

        // Mutate the graph: λ's neighbour gains a follow to a new area.
        let tech = TopicSet::single(Topic::Technology);
        let g2 = g.with_edges(&[(NodeId(1), NodeId(4), tech)]);
        let auth2 = AuthorityIndex::build(&g2);
        let p2 = Propagator::new(&g2, &auth2, &sim, params(), ScoreVariant::Full);

        dynamic.record(&EdgeChange::insert(NodeId(1), NodeId(4), tech));
        assert!(
            !dynamic.stale_slots().is_empty(),
            "change near λ must flag it"
        );
        let refreshed = dynamic.refresh_stale(&p2);
        assert_eq!(refreshed, 1);
        assert!(dynamic.stale_slots().is_empty());
        assert_eq!(dynamic.staleness_at(0), 0.0);

        // The refreshed entry equals a from-scratch build on g2.
        let fresh = LandmarkIndex::build(&p2, vec![NodeId(0)], 10);
        let (a, b) = (dynamic.index().entry_at(0), fresh.entry_at(0));
        assert_eq!(a.topo.len(), b.topo.len());
        for (x, y) in a.topo.iter().zip(&b.topo) {
            assert_eq!(x.node, y.node);
            assert!((x.topo - y.topo).abs() < 1e-12);
        }
        for t in 0..NUM_TOPICS {
            assert_eq!(a.recs[t].len(), b.recs[t].len());
        }
    }

    #[test]
    fn a_pooled_refresh_is_byte_identical_at_every_width() {
        // Eight landmarks over a streamed graph, every one flagged by
        // the background charge: width 1 and width 2 refresh them all
        // to the same bytes, equal to a slot-by-slot refresh.
        let g = fui_datagen::generate_streaming(&fui_datagen::StreamConfig {
            nodes: 600,
            avg_out_degree: 6.0,
            seed: 0x5EF2,
            ..fui_datagen::StreamConfig::default()
        })
        .graph;
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let landmarks: Vec<NodeId> = (0..8).map(|i| NodeId(i * 70 + 3)).collect();
        let index = LandmarkIndex::build(&p, landmarks, 20);
        let tech = TopicSet::single(Topic::Technology);
        let g2 = g.with_edges(&[
            (NodeId(599), NodeId(1), tech),
            (NodeId(4), NodeId(598), tech),
        ]);
        let auth2 = AuthorityIndex::build(&g2);
        let p2 = Propagator::new(&g2, &auth2, &sim, params(), ScoreVariant::Full);

        let mut serial = index.clone();
        for slot in 0..serial.len() {
            serial.refresh(&p2, slot);
        }
        for width in [1, 2] {
            let mut dynamic = DynamicLandmarks::with_policy(index.clone(), 0.01, 1.0);
            dynamic.record(&EdgeChange::insert(NodeId(599), NodeId(1), tech));
            assert_eq!(dynamic.stale_slots().len(), 8);
            assert_eq!(dynamic.refresh_stale_with(&p2, width), 8);
            assert_eq!(
                crate::persist::encode(dynamic.index(), g2.num_nodes()).to_vec(),
                crate::persist::encode(&serial, g2.num_nodes()).to_vec(),
                "width {width}"
            );
        }
    }

    #[test]
    fn background_impact_eventually_flags_everything() {
        let g = graph();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&p, vec![NodeId(0)], 10);
        let mut dynamic = DynamicLandmarks::with_policy(index, 0.5, 0.05);
        let tech = TopicSet::single(Topic::Technology);
        for _ in 0..100 {
            dynamic.record(&EdgeChange::insert(NodeId(3), NodeId(4), tech));
        }
        assert_eq!(dynamic.changes_seen(), 100);
        assert!(!dynamic.stale_slots().is_empty());
    }

    #[test]
    fn removal_inside_coverage_drives_landmark_stale() {
        let g = graph();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&p, vec![NodeId(0)], 10);
        let mut dynamic = DynamicLandmarks::with_policy(index, 0.01, 1e-9);
        let tech = TopicSet::single(Topic::Technology);
        // Unfollow an edge whose endpoints sit inside λ's stored
        // coverage: the deleted walk mass must flag λ exactly as the
        // insertion that created it would have.
        dynamic.record(&EdgeChange::remove(NodeId(1), NodeId(2), tech));
        assert!(dynamic.is_stale(0), "unfollow near λ must flag it");
        assert_eq!(dynamic.stale_slots(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        let g = graph();
        let auth = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &auth, &sim, params(), ScoreVariant::Full);
        let index = LandmarkIndex::build(&p, vec![], 10);
        DynamicLandmarks::with_policy(index, 0.0, 0.0);
    }
}
