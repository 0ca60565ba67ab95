//! **fui-exec** — the workspace's deterministic parallel runtime.
//!
//! The landmark scheme exists because exact `σ(u,v,t)` is too slow
//! online; its preprocessing runs one independent bounded propagation
//! per landmark, which is embarrassingly parallel. This crate is the
//! one place that workload shape is implemented: a small scoped-thread
//! work pool (built on the vendored `crossbeam`, no runtime deps)
//! exposing [`par_map`], [`par_map_mut`], [`par_chunks`] and
//! [`par_ranges`].
//!
//! # Determinism guarantee
//!
//! Every combinator performs an **index-ordered reduction**: the
//! result vector is assembled in item order, whatever order workers
//! finished in, and any floating-point reduction the *caller* performs
//! over that vector therefore visits elements in the same order as the
//! serial loop. As long as the task closure is itself deterministic,
//! output is **bit-identical to the serial path for every thread
//! count** — `FUI_THREADS=1` and `FUI_THREADS=64` produce the same
//! bytes, which the CI pipeline enforces by diffing run manifests and
//! persisted landmark indexes across thread counts.
//!
//! # Configuration
//!
//! The pool width comes from the `FUI_THREADS` environment variable
//! (clamped to `1..=256`), defaulting to
//! [`std::thread::available_parallelism`]. A width of 1 — or a call
//! with fewer items than the claim granularity — runs inline on the
//! caller's thread with no spawn at all, so the serial path stays the
//! zero-overhead baseline. The `*_with` variants take an explicit
//! width for tests and calibration sweeps.
//!
//! # Scheduling & observability
//!
//! Work is claimed from a shared queue cursor (self-scheduling), so a
//! worker that draws cheap items keeps claiming instead of idling at a
//! static partition boundary. Under `fui-obs` the pool records:
//!
//! * `exec.threads` (gauge) — widest pool used this run;
//! * `exec.tasks` (counter) — items executed;
//! * `exec.queue.claimed` (counter) — successful queue claims;
//! * `exec.queue.stolen` (counter) — claims outside the claiming
//!   worker's even-partition share, i.e. work that self-scheduling
//!   moved between workers relative to a static split;
//! * `exec.worker` (span) — per-worker busy time, visible in the
//!   span table of BENCH manifests at `FUI_OBS=full`.

#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Upper bound on the configured pool width.
pub const MAX_THREADS: usize = 256;

thread_local! {
    static WORKER_INDEX: Cell<usize> = const { Cell::new(0) };
}

/// The calling thread's pool slot: `0` outside any pool worker (the
/// caller's thread, which also runs the inline serial path), `1..=width`
/// inside a worker spawned by this crate. Stable for the duration of a
/// pool scope, so it can key per-worker state such as [`WorkerLocal`].
pub fn worker_index() -> usize {
    WORKER_INDEX.with(Cell::get)
}

/// Per-worker storage keyed by [`worker_index`]: one lazily initialised
/// slot per pool worker (`MAX_THREADS` of them), reused across items of
/// a `par_map` and across successive pool calls.
///
/// This is how batched propagation holds one `PropWorkspace` per worker
/// instead of allocating per item: the slot a worker claims with
/// [`get_or`](WorkerLocal::get_or) is the same one it claimed for the
/// previous item, so scratch buffers stay warm. The caller's thread
/// (index 0) shares worker 1's slot: a caller blocked in a pool call
/// runs no item while its workers do, so a `WorkerLocal` used both
/// inline and through a pool of width `w` holds at most `w` values,
/// not `w + 1`. Slots are mutex-backed — concurrent pools sharing one
/// `WorkerLocal` stay safe (they serialise on the slot), while the
/// common case (each slot touched by one worker at a time) is an
/// uncontended lock. Each slot sits on cache lines of its own, so two
/// workers taking their own locks never write the same line.
pub struct WorkerLocal<T> {
    slots: Box<[Padded<Mutex<Option<T>>>]>,
}

/// One slot, aligned (and so sized) to 128 bytes: two 64-byte lines,
/// the span an adjacent-line prefetcher pulls in together.
#[repr(align(128))]
struct Padded<T>(T);

impl<T> WorkerLocal<T> {
    /// Creates an empty pool of per-worker slots.
    pub fn new() -> WorkerLocal<T> {
        WorkerLocal {
            slots: (0..MAX_THREADS).map(|_| Padded(Mutex::new(None))).collect(),
        }
    }

    /// Locks the calling worker's slot, initialising it with `make` on
    /// first use, and returns a guard dereferencing to the value. The
    /// guard holds the slot lock — drop it before handing control back
    /// to the pool (i.e. scope it to one item), and before the caller's
    /// thread starts a pool call of its own, whose worker 1 would wait
    /// on the same slot.
    pub fn get_or(&self, make: impl FnOnce() -> T) -> WorkerSlot<'_, T> {
        let mut guard = self.slots[worker_index().max(1) - 1]
            .0
            .lock()
            .expect("WorkerLocal slot poisoned");
        if guard.is_none() {
            *guard = Some(make());
        }
        WorkerSlot { guard }
    }

    /// Drains every initialised slot's value (for inspection in tests
    /// and calibration runs).
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.slots
            .iter_mut()
            .filter_map(|s| s.0.get_mut().expect("WorkerLocal slot poisoned").take())
    }
}

impl<T> Default for WorkerLocal<T> {
    fn default() -> WorkerLocal<T> {
        WorkerLocal::new()
    }
}

/// Exclusive access to one [`WorkerLocal`] slot; dereferences to the
/// initialised value and releases the slot on drop.
pub struct WorkerSlot<'a, T> {
    guard: MutexGuard<'a, Option<T>>,
}

impl<T> std::ops::Deref for WorkerSlot<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("slot initialised by get_or")
    }
}

impl<T> std::ops::DerefMut for WorkerSlot<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("slot initialised by get_or")
    }
}

/// The configured pool width: `FUI_THREADS` if set and parseable,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
/// Resolved once per process.
pub fn threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        match std::env::var("FUI_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n.min(MAX_THREADS),
            _ => default_threads(),
        }
    })
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Maps `f` over `items` on the configured pool; `out[i] == f(&items[i])`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(threads(), items, f)
}

/// [`par_map`] with an explicit pool width.
pub fn par_map_with<T, R, F>(width: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_tasks(width, items.len(), |i| f(&items[i]))
}

/// [`par_map`] over exclusive borrows: `out[i] == f(i, &mut items[i])`.
/// Each item goes to exactly one task, so a caller that cuts one arena
/// into disjoint `&mut` pieces (one per item) fills it in place, with no
/// per-piece result vector to concatenate afterwards.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    // One uncontended lock per item: the safe way to hand a `&mut` to
    // whichever worker claims the index.
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    run_tasks(threads(), cells.len(), |i| {
        let mut item = cells[i].lock().expect("each item is claimed once");
        f(i, &mut item)
    })
}

/// Splits `items` into contiguous chunks of `chunk_size` and maps `f`
/// over them on the configured pool. `f` receives the chunk's offset
/// into `items` and the chunk itself; results come back in chunk
/// order. Panics if `chunk_size` is zero (see
/// [`par_ranges_with`]).
pub fn par_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    par_chunks_with(threads(), items, chunk_size, f)
}

/// [`par_chunks`] with an explicit pool width.
pub fn par_chunks_with<T, R, F>(width: usize, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    par_ranges_with(width, items.len(), chunk_size, |r| {
        f(r.start, &items[r.start..r.end])
    })
}

/// Index-space variant of [`par_chunks`]: splits `0..len` into
/// contiguous ranges of `chunk_size` and maps `f` over them, returning
/// per-range results in range order. The tool for parallel passes over
/// dense arrays (per-node scans) without materialising an item slice.
/// Panics if `chunk_size` is zero (see [`par_ranges_with`]).
pub fn par_ranges<R, F>(len: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    par_ranges_with(threads(), len, chunk_size, f)
}

/// [`par_ranges`] with an explicit pool width.
///
/// # Panics
///
/// Panics if `chunk_size` is zero — a zero chunk can never cover
/// `0..len`, so a silent fallback would hide the caller's bug.
pub fn par_ranges_with<R, F>(width: usize, len: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(
        chunk_size > 0,
        "par_ranges chunk_size must be positive (got 0 for len {len})"
    );
    let num_chunks = len.div_ceil(chunk_size);
    run_tasks(width, num_chunks, |c| {
        let start = c * chunk_size;
        f(start..(start + chunk_size).min(len))
    })
}

/// The shared engine: executes `num_tasks` closures of a deterministic
/// task function and returns their results in task-index order.
///
/// Tasks are claimed one at a time from an atomic cursor. Each
/// worker accumulates `(index, result)` pairs locally; after the scope
/// joins, results are scattered into their slots — the index-ordered
/// reduction that makes the output independent of scheduling.
fn run_tasks<R, F>(width: usize, num_tasks: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let width = width.clamp(1, num_tasks.max(1)).min(MAX_THREADS);
    if width <= 1 {
        // Serial baseline: no spawn, no claim accounting overhead
        // beyond one batched counter update.
        fui_obs::counter("exec.tasks").add(num_tasks as u64);
        return (0..num_tasks).map(task).collect();
    }
    fui_obs::gauge("exec.threads").record_max(width as f64);
    // A worker's "share" under an even static partition; claims
    // landing outside it count as steals (work the dynamic queue
    // rebalanced relative to a static split).
    let share = num_tasks.div_ceil(width);
    let cursor = AtomicUsize::new(0);
    let task = &task;
    let cursor_ref = &cursor;
    let buckets: Vec<Vec<(usize, R)>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|w| {
                scope.spawn(move |_| {
                    // Pool slots are 1-based; 0 is the caller's thread.
                    WORKER_INDEX.with(|c| c.set(w + 1));
                    let _sp = fui_obs::span!("exec.worker");
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut stolen = 0u64;
                    loop {
                        let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                        if i >= num_tasks {
                            break;
                        }
                        if i / share != w {
                            stolen += 1;
                        }
                        out.push((i, task(i)));
                    }
                    fui_obs::counter("exec.tasks").add(out.len() as u64);
                    fui_obs::counter("exec.queue.claimed").add(out.len() as u64);
                    fui_obs::counter("exec.queue.stolen").add(stolen);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fui-exec worker panicked"))
            .collect()
    })
    .expect("fui-exec scope panicked");

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(num_tasks).collect();
    for (i, r) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "task {i} claimed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} never claimed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for width in [1, 2, 3, 4, 7, 16, 200] {
            let par = par_map_with(width, &items, |&x| x * x + 1);
            assert_eq!(par, serial, "width {width}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(8, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_mut_fills_disjoint_pieces_in_place() {
        let mut arena = vec![0usize; 100];
        let mut pieces: Vec<&mut [usize]> = arena.chunks_mut(7).collect();
        let lens = par_map_mut(&mut pieces, |i, piece| {
            piece.iter_mut().for_each(|x| *x = i);
            piece.len()
        });
        assert_eq!(lens.iter().sum::<usize>(), 100);
        assert!(arena.iter().enumerate().all(|(j, &x)| x == j / 7));
    }

    #[test]
    fn par_chunks_covers_every_item_once() {
        let items: Vec<usize> = (0..1000).collect();
        for (width, chunk) in [(1, 1), (4, 1), (4, 7), (3, 333), (8, 5000)] {
            let pieces = par_chunks_with(width, &items, chunk, |off, sl| {
                assert_eq!(sl[0], off, "chunk offset mismatch");
                sl.to_vec()
            });
            let flat: Vec<usize> = pieces.into_iter().flatten().collect();
            assert_eq!(flat, items, "width {width} chunk {chunk}");
        }
    }

    #[test]
    fn par_ranges_partitions_the_index_space() {
        let ranges = par_ranges_with(4, 10, 3, |r| r);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
        assert!(par_ranges_with(4, 0, 3, |r| r).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_is_rejected() {
        // A zero chunk used to be silently coerced to 1, masking the
        // caller's bug; it is now an explicit contract violation.
        let _ = par_ranges_with(4, 10, 0, |r| r);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_is_rejected_through_par_chunks() {
        let items = [1u8, 2, 3];
        let _ = par_chunks_with(2, &items, 0, |_, sl| sl.to_vec());
    }

    #[test]
    fn width_beyond_chunk_count_still_covers_everything() {
        let items: Vec<usize> = (0..5).collect();
        let pieces = par_chunks_with(64, &items, 2, |_, sl| sl.to_vec());
        let flat: Vec<usize> = pieces.into_iter().flatten().collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn float_reduction_is_order_stable() {
        // Summing the per-item results in index order must give the
        // serial sum bit-for-bit — the determinism contract callers
        // rely on for σ merges.
        let items: Vec<f64> = (1..500).map(|i| 1.0 / i as f64).collect();
        let serial: f64 = items.iter().map(|&x| x.sin()).sum();
        for width in [2, 5, 13] {
            let par: f64 = par_map_with(width, &items, |&x| x.sin()).iter().sum();
            assert_eq!(serial.to_bits(), par.to_bits(), "width {width}");
        }
    }

    #[test]
    fn width_is_clamped_not_trusted() {
        // More workers than tasks must not deadlock or drop tasks.
        let out = par_map_with(usize::MAX, &[1u8, 2, 3], |&x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn threads_env_is_a_valid_width() {
        let t = threads();
        assert!((1..=MAX_THREADS).contains(&t));
    }

    #[test]
    fn worker_index_is_zero_on_the_caller_and_bounded_in_workers() {
        assert_eq!(worker_index(), 0);
        // Serial path runs inline: still slot 0.
        let serial = par_map_with(1, &[(); 3], |_| worker_index());
        assert_eq!(serial, vec![0, 0, 0]);
        // Pool workers get 1..=width.
        let par = par_map_with(4, &(0..64).collect::<Vec<u32>>(), |_| worker_index());
        assert!(par.iter().all(|&w| (1..=4).contains(&w)), "{par:?}");
        assert_eq!(worker_index(), 0, "caller slot untouched by the pool");
    }

    #[test]
    fn worker_local_initialises_at_most_once_per_slot() {
        use std::sync::atomic::AtomicU64;
        let inits = AtomicU64::new(0);
        let mut pool: WorkerLocal<Vec<u8>> = WorkerLocal::new();
        let width = 4;
        for _round in 0..3 {
            let out = par_map_with(width, &(0..100).collect::<Vec<u32>>(), |&i| {
                let mut buf = pool.get_or(|| {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                });
                buf.push(i as u8);
                buf.len()
            });
            assert_eq!(out.len(), 100);
        }
        // One value per worker slot across all rounds and items, never
        // one per item.
        let created = inits.load(Ordering::Relaxed);
        assert!(created <= width as u64, "created {created} > width {width}");
        let total: usize = pool.drain().map(|v| v.len()).sum();
        assert_eq!(total, 300, "every item hit exactly one slot");
    }

    #[test]
    fn worker_local_serial_path_uses_the_caller_slot() {
        let mut pool: WorkerLocal<u32> = WorkerLocal::new();
        let _ = par_map_with(1, &[(); 5], |_| {
            *pool.get_or(|| 0) += 1;
        });
        *pool.get_or(|| 0) += 1; // caller thread shares the inline slot
        let values: Vec<u32> = pool.drain().collect();
        assert_eq!(values, vec![6]);
    }

    #[test]
    fn worker_local_holds_at_most_width_values() {
        let mut pool: WorkerLocal<u32> = WorkerLocal::new();
        *pool.get_or(|| 0) += 1;
        // Each item waits for the other, so both workers run one item.
        let both = std::sync::Barrier::new(2);
        let _ = par_map_with(2, &[(); 2], |_| {
            *pool.get_or(|| 0) += 1;
            both.wait();
        });
        let values: Vec<u32> = pool.drain().collect();
        assert!(
            values.len() <= 2,
            "{} values for a width-2 pool",
            values.len()
        );
        assert_eq!(values.iter().sum::<u32>(), 3, "every touch hit one slot");
    }

    #[test]
    fn worker_local_slots_sit_on_their_own_cache_lines() {
        let pool: WorkerLocal<u8> = WorkerLocal::new();
        for pair in pool.slots.windows(2) {
            let (a, b) = (&pair[0] as *const _ as usize, &pair[1] as *const _ as usize);
            assert!(b - a >= 128, "adjacent slots {} B apart", b - a);
        }
        assert_eq!(pool.slots.as_ptr() as usize % 128, 0);
    }
}
