//! The fixed configuration every workload shares: the streamed
//! graph, the hub landmarks, the service build, the probe set and the
//! write planner.

use std::time::Duration;

use fui_core::{ScoreParams, ScoreVariant};
use fui_datagen::{generate_streaming, StreamConfig};
use fui_graph::{NodeId, SocialGraph};
use fui_landmarks::{DynamicLandmarks, EdgeChange, LandmarkIndex};
use fui_net::HttpConfig;
use fui_service::{Reply, Request, Service, ServiceConfig};
use fui_taxonomy::{SimMatrix, Topic, TopicSet};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xEDB7_2016;

/// Landmarks every service stores: the highest in-degree accounts.
pub const LANDMARKS: usize = 48;

/// Recommendations stored per landmark list.
pub const STORED_TOP_N: usize = 128;

/// Landmark staleness threshold of every service.
pub const REFRESH_THRESHOLD: f64 = 0.05;

/// Queries in the probe set whose answers are compared across twins.
pub const PROBES: usize = 64;

/// Landmark slots each measured refresh recomputes (the write planner
/// arranges exactly this many stale slots, so the refresh cost does
/// not depend on which accounts a seed's writes happen to touch).
pub const REFRESH_SLOTS: usize = 8;

/// Graph size and window scaling of a run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Accounts in the streamed graph.
    pub nodes: usize,
    /// Development scale: small graph, short windows, never recorded.
    pub smoke: bool,
}

impl Scale {
    /// The recorded scale: the 1M-node graph.
    pub fn full() -> Scale {
        Scale {
            nodes: 1_000_000,
            smoke: false,
        }
    }

    /// The development scale.
    pub fn smoke() -> Scale {
        Scale {
            nodes: 20_000,
            smoke: true,
        }
    }
}

/// Streams the follow graph for `seed`.
pub fn stream_graph(scale: Scale, seed: u64) -> SocialGraph {
    generate_streaming(&StreamConfig {
        nodes: scale.nodes,
        avg_out_degree: 8.0,
        seed,
        ..StreamConfig::default()
    })
    .graph
}

/// The `count` highest in-degree accounts, ties broken by id.
pub fn hub_landmarks(graph: &SocialGraph, count: usize) -> Vec<NodeId> {
    let mut by_degree: Vec<NodeId> = graph.nodes().collect();
    by_degree.sort_unstable_by_key(|&u| (std::cmp::Reverse(graph.in_degree(u)), u.0));
    by_degree.truncate(count);
    by_degree
}

/// The HTTP workloads' service configuration. The queue is deep
/// enough, and [`http_config`]'s deadline long enough, that a stalled
/// host makes answers late and never sheds them: a late answer misses
/// the SLO all the same, and a run's failure count does not come to
/// depend on how long the host happened to stall.
pub fn http_service_config(cache_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        max_batch: 32,
        queue_capacity: 8192,
        cache_capacity,
        cache_shards: 8,
        refresh_threshold: REFRESH_THRESHOLD,
        ..ServiceConfig::default()
    }
}

/// The HTTP front's configuration: the defaults, but for the deadline.
pub fn http_config() -> HttpConfig {
    HttpConfig {
        deadline: Duration::from_secs(60),
        ..HttpConfig::default()
    }
}

/// The batch workload's fleet configuration.
pub fn fleet_service_config() -> ServiceConfig {
    ServiceConfig {
        max_batch: 256,
        cache_capacity: 4096,
        cache_shards: 4,
        refresh_threshold: REFRESH_THRESHOLD,
        ..ServiceConfig::default()
    }
}

/// Builds the unsharded service over `graph`.
pub fn build_service(graph: SocialGraph, cfg: ServiceConfig) -> Service {
    let hubs = hub_landmarks(&graph, LANDMARKS);
    Service::new(
        graph,
        SimMatrix::opencalais(),
        ScoreParams::default(),
        ScoreVariant::Full,
        hubs,
        STORED_TOP_N,
        cfg,
    )
}

/// The dominant label of `u` (Technology on unlabeled accounts).
pub fn dominant_topic(graph: &SocialGraph, u: NodeId) -> Topic {
    graph.node_labels(u).first().unwrap_or(Topic::Technology)
}

/// The probe set: accounts strided over the id space, each asking for
/// its dominant topic.
pub fn probe_requests(graph: &SocialGraph) -> Vec<Request> {
    let n = graph.num_nodes();
    let stride = (n / PROBES).max(1);
    (0..PROBES.min(n))
        .map(|i| {
            let user = NodeId(((i * stride + 17) % n) as u32);
            Request {
                user,
                topic: dominant_topic(graph, user),
                top_n: 10,
            }
        })
        .collect()
}

/// Folds every `(node, score bits)` of the replies into `acc`; any
/// reply that is not a result is returned as an error.
pub fn fold_scores(acc: &mut u64, replies: &[Reply]) -> Result<(), String> {
    for reply in replies {
        match reply {
            Reply::Result(served) => {
                for &(v, s) in served.recommendations.iter() {
                    *acc = acc
                        .rotate_left(5)
                        .wrapping_add(s.to_bits())
                        .wrapping_add(u64::from(v.0));
                }
            }
            other => return Err(format!("probe not answered: {other:?}")),
        }
    }
    Ok(())
}

/// Bit-level equality of two reply lists (ids and score bits).
pub fn replies_bit_equal(a: &[Reply], b: &[Reply]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Reply::Result(p), Reply::Result(q)) => {
                p.recommendations.len() == q.recommendations.len()
                    && p.recommendations
                        .iter()
                        .zip(q.recommendations.iter())
                        .all(|(m, n)| m.0 == n.0 && m.1.to_bits() == n.1.to_bits())
            }
            _ => false,
        })
}

/// Chooses follow-graph writes whose effect on landmark staleness is
/// the same on every seed: *inert* writes touch only accounts no
/// landmark stores (they charge background impact alone), and a short
/// list of *trigger* follows out of landmark accounts drives exactly
/// [`REFRESH_SLOTS`] slots stale. Without this, whether a seed's
/// writes graze a hub decides if the next refresh recomputes 0 or 30
/// landmarks, and the refresh stall would differ several-fold between
/// seeds.
pub struct WritePlanner {
    index: LandmarkIndex,
    /// Accounts some landmark stores, plus the landmarks themselves.
    stored: Vec<bool>,
}

impl WritePlanner {
    /// Plans against `index` over a graph of `nodes` accounts.
    pub fn new(index: &LandmarkIndex, nodes: usize) -> WritePlanner {
        let mut stored = vec![false; nodes];
        for slot in 0..index.len() {
            stored[index.landmarks()[slot].index()] = true;
            let entry = index.entry_at(slot);
            for s in entry.topo.iter().chain(entry.recs.iter().flatten()) {
                stored[s.node.index()] = true;
            }
        }
        WritePlanner {
            index: index.clone(),
            stored,
        }
    }

    /// The first account at or after `node` (wrapping) that no
    /// landmark stores.
    pub fn inert(&self, node: u32) -> u32 {
        let n = self.stored.len();
        (0..n)
            .map(|k| (node as usize + k) % n)
            .find(|&v| !self.stored[v])
            .expect("some account is stored by no landmark") as u32
    }

    /// `pair` with both ends moved to inert accounts (and kept apart).
    pub fn inert_pair(&self, follower: u32, followee: u32) -> (u32, u32) {
        let a = self.inert(follower);
        let mut b = self.inert(followee);
        if b == a {
            b = self.inert(a + 1);
        }
        (a, b)
    }

    fn simulate(&self, changes: &[EdgeChange]) -> usize {
        let mut dynamic =
            DynamicLandmarks::with_policy(self.index.clone(), REFRESH_THRESHOLD, 1e-9);
        for c in changes {
            dynamic.record(c);
        }
        dynamic.stale_slots().len()
    }

    /// Follows out of landmark accounts (lowest-degree hub first, into
    /// inert accounts) after which exactly `slots` landmark slots are
    /// stale — or as many as can be reached without overshooting.
    /// Returns the follows and the stale-slot count they produce.
    pub fn triggers(&self, slots: usize) -> (Vec<EdgeChange>, usize) {
        let sink = self.inert(0);
        let labels = TopicSet::single(Topic::Technology);
        let mut chosen: Vec<EdgeChange> = Vec::new();
        // Any change at all already stales landmarks that store
        // nothing; start from that floor.
        let floor_probe = EdgeChange::insert(NodeId(sink), NodeId(self.inert(sink + 1)), labels);
        let mut stale = self.simulate(&[floor_probe]);
        for slot in (0..self.index.len()).rev() {
            if stale >= slots {
                break;
            }
            let landmark = self.index.landmarks()[slot];
            let mut trial = chosen.clone();
            trial.push(EdgeChange::insert(landmark, NodeId(sink), labels));
            let got = self.simulate(&trial);
            if got <= slots && got > stale {
                chosen = trial;
                stale = got;
            }
        }
        if chosen.is_empty() {
            chosen.push(floor_probe);
        }
        (chosen, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_hits_the_slot_target_and_inert_writes_add_none() {
        let scale = Scale::smoke();
        let graph = stream_graph(scale, DEFAULT_SEED);
        let svc = build_service(graph, http_service_config(256));
        let snap = svc.snapshot();
        let planner = WritePlanner::new(&snap.index, snap.graph.num_nodes());
        let (triggers, stale) = planner.triggers(REFRESH_SLOTS);
        assert!((1..=REFRESH_SLOTS).contains(&stale), "stale {stale}");
        // Inert writes on top leave the stale set where it is.
        let mut all = triggers.clone();
        for i in 0..200u32 {
            let (a, b) = planner.inert_pair(i * 97, i * 389 + 5);
            assert_ne!(a, b);
            all.push(EdgeChange::insert(
                NodeId(a),
                NodeId(b),
                TopicSet::single(Topic::Technology),
            ));
        }
        assert_eq!(planner.simulate(&all), stale);
        // The live service agrees with the simulation.
        for c in &all {
            svc.record(*c).expect("planned writes are valid");
        }
        assert_eq!(svc.refresh(), stale);
    }

    #[test]
    fn probe_set_is_deterministic_and_in_range() {
        let graph = stream_graph(Scale::smoke(), 7);
        let a = probe_requests(&graph);
        let b = probe_requests(&graph);
        assert_eq!(a, b);
        assert_eq!(a.len(), PROBES);
        assert!(a.iter().all(|r| r.user.index() < graph.num_nodes()));
    }
}
