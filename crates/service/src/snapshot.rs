//! Epoch-based snapshot publication.
//!
//! The serving layer never mutates state a query can see. All the
//! pieces a query touches — the follow graph, the authority index, the
//! similarity rows and the landmark index — are bundled into
//! an immutable [`Snapshot`] behind `Arc`s, and the only mutation the
//! read path ever observes is the atomic swap of the *current* snapshot
//! pointer inside [`SnapshotStore`]. In-flight queries keep the `Arc`
//! they loaded, so rotation and landmark refresh never block a reader
//! and a reader never sees a half-applied update.
//!
//! Two version axes drive cache invalidation (see
//! [`crate::cache::ResultCache`]):
//!
//! * `graph_gen` — bumped by every graph rotation; a cached result is
//!   worthless on a different graph.
//! * `slot_versions[slot]` — bumped when landmark `slot`'s stored entry
//!   changes (refresh) or is flagged stale by the accumulation policy;
//!   a cached result only depends on the entries of the landmarks its
//!   exploration actually met, so results that avoided `slot` survive.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use fui_core::{AuthorityIndex, Propagator, ScoreParams, ScoreVariant, SimRowCache};
use fui_graph::SocialGraph;
use fui_landmarks::{ChangeKind, EdgeChange, LandmarkIndex};

/// One immutable, queryable publication of the serving state.
pub struct Snapshot {
    /// Which shard published this snapshot (always 0 on a one-shard
    /// [`crate::Service`]). Cache stamps carry the same id, so an
    /// entry computed on one shard can never validate against another
    /// shard's slot-version vector — slot indices are only unique
    /// within one shard once the store is partitioned.
    pub shard: u32,
    /// Monotone publication counter (every publish bumps it).
    pub epoch: u64,
    /// Graph generation: bumped by [`crate::ShardedService::rotate`]
    /// only. Cache entries stamped with an older generation are dead.
    pub graph_gen: u64,
    /// Per-landmark-slot entry versions. Bumped when a slot's stored
    /// lists are refreshed, or when the staleness policy flags the
    /// slot (conservative invalidation: the entry is still served to
    /// *new* queries — the paper's stale-tolerant design — but cached
    /// results that composed through it stop being reused).
    pub slot_versions: Vec<u64>,
    /// The follow graph this snapshot answers against.
    pub graph: Arc<SocialGraph>,
    /// Authority index built on [`Self::graph`].
    pub authority: Arc<AuthorityIndex>,
    /// Similarity rows built on [`Self::graph`].
    pub sim_rows: Arc<SimRowCache>,
    /// Landmark index (possibly lazily stale — by design).
    pub index: Arc<LandmarkIndex>,
    /// Scoring parameters shared by every snapshot of a service.
    pub params: ScoreParams,
    /// Score variant shared by every snapshot of a service.
    pub variant: ScoreVariant,
}

impl Snapshot {
    /// A propagator borrowing this snapshot's graph state. Cheap: the
    /// similarity rows are `Arc`-shared, nothing is recomputed.
    pub fn propagator(&self) -> Propagator<'_> {
        Propagator::with_sim_cache(
            &self.graph,
            &self.authority,
            Arc::clone(&self.sim_rows),
            self.params,
            self.variant,
        )
    }
}

/// The atomically-swapped *current snapshot* pointer.
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
}

/// Publishes the snapshot's memory story to the metrics registry: the
/// compact-CSR per-node/per-edge footprint and the resident bytes of
/// each serving-side index. Capacity dashboards read these instead of
/// groping at RSS, which also counts transient build scratch.
fn record_footprint(s: &Snapshot) {
    let fp = s.graph.memory_footprint();
    fui_obs::gauge("graph.bytes_per_node").set(fp.bytes_per_node());
    fui_obs::gauge("graph.bytes_per_edge").set(fp.bytes_per_edge());
    fui_obs::gauge("snapshot.graph.bytes").set(fp.total_bytes() as f64);
    fui_obs::gauge("snapshot.authority.bytes").set(s.authority.size_bytes() as f64);
    fui_obs::gauge("snapshot.landmarks.bytes").set(s.index.resident_bytes() as f64);
}

impl SnapshotStore {
    /// A store publishing `initial`.
    pub fn new(initial: Snapshot) -> SnapshotStore {
        record_footprint(&initial);
        SnapshotStore {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. Readers clone the `Arc` and drop the lock
    /// immediately, so a subsequent publish never waits on them.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("snapshot store poisoned"))
    }

    /// Swaps in a strictly newer snapshot.
    pub fn publish(&self, next: Snapshot) {
        record_footprint(&next);
        let mut cur = self.current.write().expect("snapshot store poisoned");
        assert!(
            next.epoch > cur.epoch,
            "epochs must advance: {} -> {}",
            cur.epoch,
            next.epoch
        );
        *cur = Arc::new(next);
    }
}

/// Applies a batch of follow/unfollow mutations to a graph, producing
/// the post-update graph.
///
/// * [`ChangeKind::Insert`] unions the change's labels into the edge
///   (creating it if absent, even with an empty label set);
/// * [`ChangeKind::Remove`] deletes the edge entirely.
///
/// Later changes win over earlier ones on the same edge. The changes
/// are folded, in order, into the label each touched pair ends with —
/// one `edge_label` lookup per pair — and [`SocialGraph::edited`]
/// merges that sorted delta into the old rows, so the result is
/// byte-identical to building the resulting edge set from scratch.
pub fn apply_changes(graph: &SocialGraph, changes: &[EdgeChange]) -> SocialGraph {
    let mut delta = BTreeMap::new();
    for c in changes {
        let slot = delta
            .entry((c.follower, c.followee))
            .or_insert_with(|| graph.edge_label(c.follower, c.followee));
        *slot = match c.kind {
            ChangeKind::Insert => Some(slot.unwrap_or_default().union(c.labels)),
            ChangeKind::Remove => None,
        };
    }
    graph.edited(&delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_graph::{GraphBuilder, NodeId};
    use fui_taxonomy::{Topic, TopicSet};

    fn tiny() -> SocialGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_node(TopicSet::empty());
        }
        let tech = TopicSet::single(Topic::Technology);
        b.add_edge(NodeId(0), NodeId(1), tech);
        b.add_edge(NodeId(1), NodeId(2), tech);
        b.build()
    }

    #[test]
    fn insert_then_remove_round_trips() {
        let g = tiny();
        let tech = TopicSet::single(Topic::Technology);
        let g2 = apply_changes(&g, &[EdgeChange::insert(NodeId(2), NodeId(3), tech)]);
        assert_eq!(g2.num_edges(), 3);
        assert!(g2.edge_label(NodeId(2), NodeId(3)).is_some());
        let g3 = apply_changes(&g2, &[EdgeChange::remove(NodeId(2), NodeId(3), tech)]);
        assert_eq!(g3.num_edges(), 2);
        assert!(g3.edge_label(NodeId(2), NodeId(3)).is_none());
    }

    #[test]
    fn insert_unions_labels_into_existing_edge() {
        let g = tiny();
        let health = TopicSet::single(Topic::Health);
        let g2 = apply_changes(&g, &[EdgeChange::insert(NodeId(0), NodeId(1), health)]);
        assert_eq!(g2.num_edges(), 2);
        let labels = g2.edge_label(NodeId(0), NodeId(1)).unwrap();
        assert!(labels.contains(Topic::Technology));
        assert!(labels.contains(Topic::Health));
    }

    #[test]
    fn later_changes_win() {
        let g = tiny();
        let tech = TopicSet::single(Topic::Technology);
        let g2 = apply_changes(
            &g,
            &[
                EdgeChange::remove(NodeId(0), NodeId(1), tech),
                EdgeChange::insert(NodeId(0), NodeId(1), tech),
            ],
        );
        assert!(g2.edge_label(NodeId(0), NodeId(1)).is_some());
    }

    #[test]
    fn rebuild_is_deterministic() {
        let g = tiny();
        let tech = TopicSet::single(Topic::Technology);
        let changes = vec![
            EdgeChange::insert(NodeId(3), NodeId(0), tech),
            EdgeChange::remove(NodeId(1), NodeId(2), tech),
        ];
        let a = apply_changes(&g, &changes);
        let b = apply_changes(&g, &changes);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }
}
