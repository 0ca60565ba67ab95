//! Differential + bounded-memory pins on the streaming CSR packer —
//! ingestion, graph edits and the similarity rows — in their own test
//! binary because the counting allocator below is process-global: the
//! tests take [`SERIAL`] so no measurement is polluted by a concurrent
//! one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use fui_datagen::{generate_batch, generate_streaming, StreamConfig};
use fui_graph::{NodeId, Topic, TopicSet};
use fui_landmarks::EdgeChange;

/// System allocator wrapped with live-bytes, peak-bytes and
/// allocation-count accounting.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let old = layout.size();
            let live = if new_size >= old {
                LIVE.fetch_add(new_size - old, Ordering::Relaxed) + (new_size - old)
            } else {
                LIVE.fetch_sub(old - new_size, Ordering::Relaxed) - (old - new_size)
            };
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns (peak bytes above the starting live set,
/// allocation count).
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, u64) {
    let live_before = LIVE.load(Ordering::Relaxed);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - live_before;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    (out, peak, allocs)
}

/// One measurement at a time (the allocator's counters are global).
static SERIAL: Mutex<()> = Mutex::new(());

/// Mid-size seeded instance: big enough that an O(E) intermediate edge
/// list would dominate the footprint, small enough for CI.
fn instance() -> StreamConfig {
    StreamConfig {
        nodes: 40_000,
        avg_out_degree: 16.0,
        seed: 0xD1FF_5EED,
        ..StreamConfig::default()
    }
}

/// Scratch a packer pass may hold beside the finished graph.
fn scratch_budget(cfg: &StreamConfig) -> usize {
    cfg.nodes * 96 + (1 << 20)
}

#[test]
fn streaming_path_is_byte_identical_and_memory_bounded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = instance();

    // Differential pin: the streaming CSR path and the batch builder
    // path must produce byte-identical graphs — every offset, target,
    // interned label id and table entry (SocialGraph's PartialEq spans
    // all arenas).
    let (streamed, stream_peak, stream_allocs) = measured(|| generate_streaming(&cfg));
    let (batch, batch_peak, _) = measured(|| generate_batch(&cfg));
    assert_eq!(
        streamed.graph, batch,
        "streaming and batch construction diverged for seed {:#x}",
        cfg.seed
    );
    assert!(
        streamed.graph.num_edges() > 400_000,
        "instance too small to pin memory"
    );

    // Bounded memory: the streaming path's peak is the finished graph
    // plus O(N) scratch — nowhere near an extra O(E) edge list. The
    // batch path, which does hold one, must peak strictly higher.
    let final_bytes = streamed.graph.size_bytes();
    assert!(
        stream_peak < final_bytes + final_bytes / 2 + scratch_budget(&cfg),
        "streaming peak {stream_peak} B vs graph {final_bytes} B: \
         an O(E) intermediate is back"
    );
    assert!(
        stream_peak < batch_peak,
        "streaming peak {stream_peak} B should undercut the \
         edge-list batch path's {batch_peak} B"
    );

    // Allocation count stays O(log E) pre-sized vec growth, never
    // per-edge or per-node boxing.
    assert!(
        stream_allocs < 1_000,
        "streaming generator performed {stream_allocs} allocations \
         for {} edges — a per-edge/per-node allocation crept in",
        streamed.graph.num_edges()
    );
}

#[test]
fn a_batch_of_changes_costs_the_new_graph_and_nothing_per_edge() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = instance();
    let graph = generate_streaming(&cfg).graph;
    // 64 changes, the size of a benchmark rotation: follows of new
    // pairs, unions into present edges, unfollows.
    let n = cfg.nodes as u32;
    let changes: Vec<EdgeChange> = (0..64u32)
        .map(|i| {
            let u = NodeId((i * 7919 + 5) % n);
            match (i % 3, graph.followees(u).next()) {
                (1, Some(v)) => EdgeChange::insert(u, v, TopicSet::single(Topic::Health)),
                (2, Some(v)) => EdgeChange::remove(u, v, TopicSet::empty()),
                _ => EdgeChange::insert(
                    u,
                    NodeId((u.0 + 1 + i) % n),
                    TopicSet::single(Topic::Technology),
                ),
            }
        })
        .collect();

    let (next, peak, _) = measured(|| fui_service::apply_changes(&graph, &changes));
    assert_eq!(
        next,
        fui_testkit::reference::rebuild_with_changes(&graph, &changes)
    );

    // The edit streams the old rows through the packer: its peak is the
    // new graph plus O(N) scratch, the budget the streaming generator
    // is held to. Copying every edge into a map or an edge list first
    // (~3.5x the graph) is what this refuses.
    let final_bytes = next.size_bytes();
    assert!(
        peak < final_bytes + final_bytes / 2 + scratch_budget(&cfg),
        "apply_changes peaked at {peak} B for a {final_bytes} B graph: \
         an all-edges intermediate is back"
    );
}

#[test]
fn authority_costs_its_nonzero_entries() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let graph = generate_streaming(&instance()).graph;
    // Non-zero (node, topic) pairs, counted from the graph: the topics
    // each node has at least one follower on.
    let entries: usize = graph
        .nodes()
        .map(|v| {
            graph
                .in_edges(v)
                .fold(TopicSet::empty(), |set, e| set.union(e.labels))
                .len()
        })
        .sum();

    // One 8 B row word per node plus a 12 B (score, count) entry per
    // pair.
    let (index, peak, _) = measured(|| fui_core::AuthorityIndex::build(&graph));
    let n = graph.num_nodes();
    assert_eq!(index.size_bytes(), 8 * n + 12 * entries);

    // The build fills pre-sized arrays in place: beyond the finished
    // index it holds the per-chunk count vectors while they are copied
    // into the one counts array — never more than the score array it
    // has not allocated yet — and a few per-chunk words. Concatenating
    // per-chunk copies of a full-size arena is what this refuses.
    let budget = 64 << 10;
    assert!(
        peak <= index.size_bytes() + budget,
        "AuthorityIndex::build peaked at {peak} B for a {} B index \
         ({n} nodes, {entries} entries): a full-size intermediate is back",
        index.size_bytes()
    );
}

#[test]
fn sim_rows_cost_the_label_table_and_nothing_per_edge() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let graph = generate_streaming(&instance()).graph;
    let sim = fui_taxonomy::SimMatrix::opencalais();
    // Touch the lazily interned metric handles before measuring.
    drop(fui_core::SimRowCache::build(&graph, &sim));

    // One 144 B row per distinct label set: a per-edge row index
    // (4 B × ~640k edges ≈ 2.5 MB) is what this refuses.
    let (rows, peak, _) = measured(|| fui_core::SimRowCache::build(&graph, &sim));
    assert_eq!(rows.num_rows(), graph.num_label_sets());
    assert!(
        peak < 64 << 10,
        "SimRowCache::build peaked at {peak} B for {} label sets over {} edges: \
         a per-edge structure is back",
        graph.num_label_sets(),
        graph.num_edges()
    );
}
