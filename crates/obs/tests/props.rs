//! Property and concurrency tests of the observability substrate.

use std::sync::{Mutex, MutexGuard};

use fui_obs as obs;
use proptest::prelude::*;

/// Sets the process-global level and holds the other level-setting
/// tests off until the guard drops: run in parallel, a `Counters` test
/// makes a `Full` one lose histogram records.
fn level_guard(level: obs::Level) -> MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    let guard = M.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_level(level);
    guard
}

/// Concurrent increments from spawned threads must merge exactly.
#[test]
fn counter_merges_concurrent_increments() {
    let _level = level_guard(obs::Level::Counters);
    let threads = 8;
    let per_thread = 10_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                let c = obs::counter("it.concurrent.counter");
                for _ in 0..per_thread {
                    c.incr();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        obs::counter("it.concurrent.counter").get(),
        threads as u64 * per_thread
    );
}

/// Histogram recording from many threads must not lose values.
#[test]
fn histogram_is_lock_free_under_contention() {
    let _level = level_guard(obs::Level::Full);
    let threads = 6;
    let per_thread = 5_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let h = obs::hist("it.concurrent.hist");
                for i in 0..per_thread {
                    h.record(t as u64 * 1000 + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = obs::hist("it.concurrent.hist").summary();
    assert_eq!(s.count, threads as u64 * per_thread);
    assert!(s.max >= (threads as u64 - 1) * 1000);
}

/// Spans nest to arbitrary depth and unwind completely.
#[test]
fn span_nesting_depth_unwinds() {
    let _level = level_guard(obs::Level::Full);
    const NAMES: [&str; 5] = ["it.s0", "it.s1", "it.s2", "it.s3", "it.s4"];
    fn recurse(d: usize) {
        if d >= NAMES.len() {
            assert_eq!(obs::Span::depth(), NAMES.len());
            return;
        }
        let _sp = obs::span!(NAMES[d]);
        assert_eq!(obs::Span::depth(), d + 1);
        recurse(d + 1);
        assert_eq!(obs::Span::depth(), d + 1);
    }
    recurse(0);
    assert_eq!(obs::Span::depth(), 0);
    let deepest: String = NAMES.join("/");
    assert!(obs::snapshot().spans.iter().any(|s| s.path == deepest));
}

proptest! {
    /// Quantiles are monotone in `q` and bounded by the true extremes,
    /// whatever the recorded distribution.
    #[test]
    fn histogram_quantiles_monotone(values in prop::collection::vec(0u64..u64::MAX / 2, 1..500)) {
        let h = obs::Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let max = *values.iter().max().unwrap();
        let mut prev = 0u64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let x = h.quantile(q);
            prop_assert!(x >= prev, "quantile not monotone: q={q} gave {x} < {prev}");
            prop_assert!(x <= max, "quantile {x} exceeds max {max}");
            prev = x;
        }
        let s = h.summary();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.max, max);
        prop_assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    /// A histogram's quantile never under-reports by more than the
    /// 25 % bucket width on single-value distributions.
    #[test]
    fn histogram_single_value_accuracy(v in 1u64..u64::MAX / 2, n in 1usize..50) {
        let h = obs::Histogram::new();
        for _ in 0..n {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        prop_assert!(p50 <= v);
        prop_assert!(p50 as f64 >= v as f64 * 0.75, "p50 {p50} vs value {v}");
    }
}
