//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls
//! into each layer, kept in memory, and written as one JSON file when
//! the run ends. A span names its layer, its start and end on the
//! run's clock, the span that caused it and the request it belongs
//! to; a layer's self time is its span minus the part its children
//! cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's
/// origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in the recorder (its id in the file).
    pub id: u32,
    /// The causing span, if any.
    pub parent: Option<u32>,
    /// Request the span belongs to (spans of one request share it).
    pub request: u64,
    /// Layer-qualified name, e.g. `landmarks.explore`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

/// One 10 ms sampler row.
#[derive(Clone, Copy, Debug)]
pub struct SamplerRow {
    /// Sample instant, ns since origin.
    pub at_ns: u64,
    /// Submission-queue depth.
    pub queue_depth: u32,
    /// Resident set, kB.
    pub rss_kb: u64,
}

/// Collects spans and sampler rows for one run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Sampler rows, appended by the harness after the window ends.
    pub sampler: Vec<SamplerRow>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin`; instants before it
    /// read 0.
    pub fn starting_at(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            sampler: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t` (0 for earlier instants).
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: self.ns(end).max(start_ns),
        });
        id
    }

    /// Moves the end of span `id` to `end` — for a parent opened
    /// before its children and closed after the last of them.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Times `f` as a span under `parent` and returns its value with
    /// the span id (so the callee's own calls can name it as parent).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.push(name, parent, request, start, end))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(calls, total self ns)`, name-sorted. Self time
    /// is the span's duration minus the duration of its direct
    /// children (children never overlap: the harness calls layers one
    /// after another on one thread).
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
    }

    /// Serialises the run: header fields, the span list, the sampler
    /// rows and the per-layer accounting rows.
    pub fn to_json(
        &self,
        workload: &str,
        seed: u64,
        accounting: &[(String, f64, String)],
    ) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 1024);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since recorder origin\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"sampler\":[");
        for (i, r) in self.sampler.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"at_ns\":{},\"queue_depth\":{},\"rss_kb\":{}}}",
                r.at_ns, r.queue_depth, r.rss_kb
            );
        }
        out.push_str("],\"accounting\":[");
        for (i, (name, value, unit)) in accounting.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"row\":\"{name}\",\"value\":{},\"unit\":\"{unit}\"}}",
                crate::report::json_number(*value)
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::starting_at(Instant::now());
        let t0 = rec.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = rec.push("request", None, 7, at(0), at(100));
        let a = rec.push("net.parse", Some(root), 7, at(0), at(10));
        let b = rec.push("service.pump", Some(root), 7, at(10), at(90));
        rec.push("landmarks.explore", Some(b), 7, at(20), at(70));
        let _ = a;
        let rows = rec.self_times();
        let get = |n: &str| rows.iter().find(|r| r.0 == n).map(|r| r.2).unwrap();
        assert_eq!(get("request"), 10_000);
        assert_eq!(get("net.parse"), 10_000);
        assert_eq!(get("service.pump"), 30_000);
        assert_eq!(get("landmarks.explore"), 50_000);
        let total: u64 = rows.iter().map(|r| r.2).sum();
        assert_eq!(total, 100_000, "self times partition the root span");
    }

    #[test]
    fn json_carries_parent_and_request_ids() {
        let mut rec = Recorder::starting_at(Instant::now());
        let t0 = rec.origin;
        let root = rec.push("request", None, 3, t0, t0 + Duration::from_nanos(50));
        rec.push(
            "load.send_lag",
            Some(root),
            3,
            t0,
            t0 + Duration::from_nanos(5),
        );
        let json = rec.to_json(
            "steady_cold",
            9,
            &[("wait".to_owned(), 1.5, "ms".to_owned())],
        );
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":0,\"request\":3,\"name\":\"load.send_lag\""));
        assert!(json.contains("\"row\":\"wait\",\"value\":1.5,\"unit\":\"ms\""));
    }
}
