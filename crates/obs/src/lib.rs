//! **fui-obs** — the observability substrate of the workspace: named
//! atomic counters and gauges, lock-free latency histograms, RAII
//! span timers and JSON run manifests.
//!
//! The paper's headline claim is a 2–3 order-of-magnitude latency win
//! from landmark approximation (Tables 5/6); this crate is how the
//! reproduction *sees* that win — and why a query was fast or slow
//! (frontier growth, landmark prune rate, composition cost) — without
//! pulling a heavyweight metrics stack into the hot path.
//!
//! # Model
//!
//! * A process-global [`MetricsRegistry`] maps names
//!   (`propagate.edges_relaxed`, `landmark.pruned_at`, ...) to
//!   relaxed-ordering atomics. Handles ([`Counter`], [`Gauge`],
//!   [`Hist`]) are `Copy` and cost one atomic op to update.
//! * [`Histogram`] is a lock-free log-bucketed latency histogram
//!   (4 sub-buckets per octave, ≤ 25 % relative error) with
//!   p50/p95/p99/max readouts.
//! * [`Span`] is an RAII wall-clock timer that nests via a
//!   thread-local stack; on drop it records into the histogram named
//!   after the span and into a per-path span-stat table, and always
//!   returns its elapsed time so callers can keep printing tables.
//! * [`RunManifest`] serialises the registry + span tree + run
//!   parameters as JSON (`BENCH_<id>.json`) — the machine-readable
//!   output the ROADMAP's perf trajectory is judged against.
//!
//! # Cost gating
//!
//! Instrumentation is compiled in but gated by [`Level`], read from
//! `FUI_OBS` (`off` | `counters` | `full`, default `counters`):
//!
//! * `off` — every update is a load + branch; nothing is recorded.
//! * `counters` — counters and gauges record; histograms and span
//!   stats do not.
//! * `full` — everything records.
//!
//! Library code batches counter updates per call (one `fetch_add` per
//! metric per propagation, never per edge), so tier-1 benches are
//! unaffected at any level.
//!
//! ```
//! use fui_obs as obs;
//!
//! obs::set_level(obs::Level::Full);
//! obs::counter("demo.widgets").add(3);
//! {
//!     let _sp = obs::span!("demo.phase");
//!     // ... timed work ...
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo.widgets"), 3);
//! assert!(snap.spans.iter().any(|s| s.path == "demo.phase"));
//! ```

#![warn(missing_docs)]

mod hist;
mod manifest;
mod registry;
mod span;

/// Rolling-window SLO burn-rate tracking; see the module docs.
pub mod slo;
/// Per-request tracing and the lock-free ring journal; see the module
/// docs.
pub mod trace;

pub use hist::{HistSummary, Histogram};
pub use manifest::RunManifest;
pub use registry::{
    counter, gauge, hist, reset, snapshot, Counter, Gauge, Hist, MetricsRegistry, Snapshot,
    SpanStat,
};
pub use slo::{SloConfig, SloReport, SloTracker};
pub use span::Span;
pub use trace::{
    LatencyParts, RequestTrace, TraceCapture, TraceEvent, TraceEventKind, TraceId, TraceMeta,
    TraceOutcome,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the instrumentation records (see the crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing.
    Off,
    /// Record counters and gauges only.
    Counters,
    /// Record counters, gauges, histograms and span stats.
    Full,
}

/// Sentinel: the level has not been resolved from `FUI_OBS` yet.
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The active recording level (resolved from `FUI_OBS` on first use).
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Counters,
        2 => Level::Full,
        _ => init_level(),
    }
}

#[cold]
fn init_level() -> Level {
    let l = match std::env::var("FUI_OBS").as_deref() {
        Ok("off") | Ok("0") => Level::Off,
        Ok("full") | Ok("2") => Level::Full,
        // `counters` and anything unrecognised fall back to the cheap
        // always-on default.
        _ => Level::Counters,
    };
    LEVEL.store(l as u8, Ordering::Relaxed);
    l
}

/// Overrides the recording level (e.g. the bench driver forces `Full`
/// when `--manifest` is requested). Wins over `FUI_OBS`.
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether histogram / span recording is active.
#[inline]
pub fn full_enabled() -> bool {
    level() == Level::Full
}

/// Whether counter / gauge recording is active.
#[inline]
pub fn counters_enabled() -> bool {
    level() >= Level::Counters
}

/// Opens an RAII [`Span`]: `let _sp = obs::span!("landmark.preprocess");`.
///
/// The span times its scope regardless of level; it *records* (into
/// the histogram of the same name and the span-stat table) only at
/// [`Level::Full`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}

/// Serialises tests that mutate the global level or registry (unit
/// tests share one process).
#[cfg(test)]
pub(crate) fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_override_wins() {
        let _g = serial_guard();
        set_level(Level::Off);
        assert_eq!(level(), Level::Off);
        assert!(!counters_enabled());
        set_level(Level::Full);
        assert!(counters_enabled());
        assert!(full_enabled());
        set_level(Level::Counters);
        assert!(counters_enabled());
        assert!(!full_enabled());
    }
}
