//! Lock-striped, generation-stamped LRU result cache.
//!
//! A cached recommendation list is a pure function of
//! *(graph, entries of the landmarks the exploration met, request)* —
//! the landmark *set* (and hence the exploration's prune mask) is fixed
//! for the lifetime of a service, and landmarks the query never met
//! contribute nothing. So instead of flushing the whole cache on every
//! index event, each entry is stamped with the `graph_gen` it was
//! computed under plus the `(slot, version)` pair of every landmark it
//! composed through, and a probe re-validates the stamp against the
//! *current* snapshot:
//!
//! * a graph rotation bumps `graph_gen` → every entry is dead;
//! * a landmark refresh (or staleness flag) bumps that slot's version
//!   → only entries that met that landmark are dead.
//!
//! Everything here is deterministic on purpose — the CI bench gate
//! asserts exact equality of `service.cache.{hits,misses,evictions}`
//! across runs and thread counts. Stripe selection uses a fixed
//! SplitMix-style hash (never `RandomState`, which is seeded per
//! process), and LRU eviction uses a per-stripe monotone tick, so the
//! victim is always unique. Each stripe keeps its entries ordered by
//! last use beside the map, so eviction pops the least recently used
//! entry in `O(log n)` instead of scanning the stripe.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use fui_graph::NodeId;

use crate::snapshot::Snapshot;

/// Identity of a cacheable request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Query node.
    pub user: u32,
    /// Topic index (`Topic::index()`).
    pub topic: u8,
    /// Requested list length.
    pub top_n: u32,
}

/// Validity stamp recorded with a cached value.
#[derive(Clone, Debug)]
pub struct CacheStamp {
    /// Always 0 and never compared. Named by `benchmark/`; ROADMAP
    /// 6(d) deletes it.
    pub shard: u32,
    /// Graph generation the value was computed under.
    pub graph_gen: u64,
    /// `(slot, version)` of every landmark the exploration met.
    pub met: Vec<(u32, u64)>,
}

impl CacheStamp {
    fn valid_for(&self, snap: &Snapshot) -> bool {
        self.graph_gen == snap.graph_gen
            && self
                .met
                .iter()
                .all(|&(slot, v)| snap.slot_versions[slot as usize] == v)
    }
}

struct Entry {
    value: Arc<Vec<(NodeId, f64)>>,
    stamp: CacheStamp,
    last_used: u64,
}

#[derive(Default)]
struct Stripe {
    map: HashMap<CacheKey, Entry>,
    /// `last_used` tick → key, one row per entry of `map`. Ticks are
    /// unique within a stripe, so the first row is the LRU victim.
    lru: BTreeMap<u64, CacheKey>,
    tick: u64,
}

/// The lock-striped LRU cache.
pub struct ResultCache {
    stripes: Vec<Mutex<Stripe>>,
    per_stripe: usize,
    hits: fui_obs::Counter,
    misses: fui_obs::Counter,
    evictions: fui_obs::Counter,
}

/// Fixed 64-bit mix (SplitMix64 finalizer) — stable across processes,
/// unlike `std`'s per-instance-seeded `RandomState`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ResultCache {
    /// A cache of at most `capacity` entries split over `stripes`
    /// stripes (each stripe holds `capacity / stripes`, rounded up, min
    /// one entry).
    pub fn new(capacity: usize, stripes: usize) -> ResultCache {
        let stripes = stripes.max(1);
        let per_stripe = capacity.div_ceil(stripes).max(1);
        ResultCache {
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            per_stripe,
            // Handles resolved once — probes never take the registry's
            // name-lookup lock.
            hits: fui_obs::counter("service.cache.hits"),
            misses: fui_obs::counter("service.cache.misses"),
            evictions: fui_obs::counter("service.cache.evictions"),
        }
    }

    fn stripe(&self, key: CacheKey) -> &Mutex<Stripe> {
        let packed =
            (u64::from(key.user) << 32) | (u64::from(key.topic) << 24) | u64::from(key.top_n);
        &self.stripes[(mix(packed) % self.stripes.len() as u64) as usize]
    }

    /// Probes for `key`, validating the stamp against `snap`. A stale
    /// entry is dropped on probe (counted as an eviction *and* a miss).
    pub fn get(&self, key: CacheKey, snap: &Snapshot) -> Option<Arc<Vec<(NodeId, f64)>>> {
        let mut stripe = self.stripe(key).lock().expect("cache stripe poisoned");
        match stripe.map.get(&key) {
            Some(e) if e.stamp.valid_for(snap) => {
                let old = e.last_used;
                stripe.lru.remove(&old);
                stripe.tick += 1;
                let tick = stripe.tick;
                stripe.lru.insert(tick, key);
                let e = stripe.map.get_mut(&key).expect("entry just seen");
                e.last_used = tick;
                self.hits.incr();
                Some(Arc::clone(&e.value))
            }
            Some(_) => {
                let stale = stripe.map.remove(&key).expect("entry just seen");
                stripe.lru.remove(&stale.last_used);
                self.evictions.incr();
                self.misses.incr();
                None
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Inserts a freshly-computed value, evicting the least-recently
    /// used entry of the stripe if it is full.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<(NodeId, f64)>>, stamp: CacheStamp) {
        let mut stripe = self.stripe(key).lock().expect("cache stripe poisoned");
        if let Some(old) = stripe.map.get(&key).map(|e| e.last_used) {
            stripe.lru.remove(&old);
        } else if stripe.map.len() >= self.per_stripe {
            let (_, victim) = stripe.lru.pop_first().expect("full stripe has entries");
            stripe.map.remove(&victim);
            self.evictions.incr();
        }
        stripe.tick += 1;
        let tick = stripe.tick;
        stripe.lru.insert(tick, key);
        stripe.map.insert(
            key,
            Entry {
                value,
                stamp,
                last_used: tick,
            },
        );
    }

    /// Number of live entries (all stripes).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("cache stripe poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_core::{AuthorityIndex, ScoreParams, ScoreVariant, SimRowCache};
    use fui_graph::GraphBuilder;
    use fui_landmarks::LandmarkIndex;
    use fui_taxonomy::{SimMatrix, TopicSet};

    fn snap(graph_gen: u64, slot_versions: Vec<u64>) -> Snapshot {
        let mut b = GraphBuilder::new();
        b.add_node(TopicSet::empty());
        let graph = std::sync::Arc::new(b.build());
        let authority = std::sync::Arc::new(AuthorityIndex::build(&graph));
        let sim = SimMatrix::opencalais();
        let sim_rows = std::sync::Arc::new(SimRowCache::build(&graph, &sim));
        let params = ScoreParams::default();
        let variant = ScoreVariant::Full;
        let p = fui_core::Propagator::with_sim_cache(
            &graph,
            &authority,
            std::sync::Arc::clone(&sim_rows),
            params,
            variant,
        );
        let index = std::sync::Arc::new(LandmarkIndex::build(&p, vec![], 10));
        Snapshot {
            shard: 0,
            epoch: 0,
            graph_gen,
            slot_versions,
            graph,
            authority,
            sim_rows,
            index,
            params,
            variant,
        }
    }

    fn key(user: u32) -> CacheKey {
        CacheKey {
            user,
            topic: 0,
            top_n: 10,
        }
    }

    fn val() -> Arc<Vec<(NodeId, f64)>> {
        Arc::new(vec![(NodeId(1), 0.5)])
    }

    #[test]
    fn hit_requires_matching_graph_gen() {
        let cache = ResultCache::new(8, 2);
        let s0 = snap(0, vec![0]);
        cache.insert(
            key(1),
            val(),
            CacheStamp {
                shard: 0,
                graph_gen: 0,
                met: vec![],
            },
        );
        assert!(cache.get(key(1), &s0).is_some());
        let s1 = snap(1, vec![0]);
        assert!(cache.get(key(1), &s1).is_none(), "rotation invalidates");
        assert!(cache.is_empty(), "stale entry dropped on probe");
    }

    #[test]
    fn slot_version_bump_kills_only_dependents() {
        let cache = ResultCache::new(8, 2);
        cache.insert(
            key(1),
            val(),
            CacheStamp {
                shard: 0,
                graph_gen: 0,
                met: vec![(0, 0)],
            },
        );
        cache.insert(
            key(2),
            val(),
            CacheStamp {
                shard: 0,
                graph_gen: 0,
                met: vec![(1, 0)],
            },
        );
        let s = snap(0, vec![7, 0]); // slot 0 refreshed
        assert!(cache.get(key(1), &s).is_none(), "met slot 0: dead");
        assert!(cache.get(key(2), &s).is_some(), "met slot 1 only: alive");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2, 1); // one stripe, two entries
        let s = snap(0, vec![]);
        let stamp = || CacheStamp {
            shard: 0,
            graph_gen: 0,
            met: vec![],
        };
        cache.insert(key(1), val(), stamp());
        cache.insert(key(2), val(), stamp());
        assert!(cache.get(key(1), &s).is_some()); // 1 now most recent
        cache.insert(key(3), val(), stamp()); // evicts 2
        assert!(cache.get(key(1), &s).is_some());
        assert!(cache.get(key(2), &s).is_none());
        assert!(cache.get(key(3), &s).is_some());
    }

    /// The keys of every stripe, for diffing across one operation.
    fn keys(cache: &ResultCache) -> std::collections::HashSet<CacheKey> {
        cache
            .stripes
            .iter()
            .flat_map(|s| s.lock().unwrap().map.keys().copied().collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn ordered_eviction_matches_the_min_scan() {
        // Reference model: one (tick, graph_gen) per key per stripe, the
        // victim found by scanning for the least recent tick.
        let cache = ResultCache::new(64, 2);
        let mut model: Vec<HashMap<CacheKey, (u64, u64)>> = vec![HashMap::new(); 2];
        let mut ticks = [0u64; 2];
        let stripe_of = |k: CacheKey| {
            cache
                .stripes
                .iter()
                .position(|s| std::ptr::eq(s, cache.stripe(k)))
                .unwrap()
        };
        let snaps = [snap(0, vec![]), snap(1, vec![])];
        let mut state = 7u64;
        let (mut hits, mut evicted) = (0, 0);
        for op in 0..10_000u64 {
            state = mix(state ^ op);
            let k = key((state % 160) as u32);
            let gen = (state >> 32) % 2;
            let m = &mut model[stripe_of(k)];
            let tick = &mut ticks[stripe_of(k)];
            if state % 3 == 0 {
                // Insert (possibly replacing), evicting the min tick.
                let victim = (!m.contains_key(&k) && m.len() >= 32)
                    .then(|| *m.iter().min_by_key(|(_, v)| v.0).unwrap().0);
                if let Some(v) = victim {
                    m.remove(&v);
                }
                *tick += 1;
                m.insert(k, (*tick, gen));
                let before = keys(&cache);
                let stamp = CacheStamp {
                    shard: 0,
                    graph_gen: gen,
                    met: vec![],
                };
                cache.insert(k, val(), stamp);
                let gone: Vec<CacheKey> = before.difference(&keys(&cache)).copied().collect();
                assert_eq!(gone, victim.into_iter().collect::<Vec<_>>(), "op {op}");
                evicted += gone.len();
            } else {
                // Probe under either generation: a hit, a stale drop or
                // a plain miss.
                let want = match m.get(&k).copied() {
                    Some((_, g)) if g == gen => {
                        *tick += 1;
                        m.insert(k, (*tick, g));
                        true
                    }
                    Some(_) => {
                        m.remove(&k);
                        false
                    }
                    None => false,
                };
                assert_eq!(
                    cache.get(k, &snaps[gen as usize]).is_some(),
                    want,
                    "op {op}"
                );
                hits += usize::from(want);
            }
            let live: std::collections::HashSet<CacheKey> =
                model.iter().flat_map(|m| m.keys().copied()).collect();
            assert_eq!(keys(&cache), live, "op {op}");
        }
        assert!(
            hits > 1000 && evicted > 100,
            "{hits} hits, {evicted} evictions"
        );
    }
}
