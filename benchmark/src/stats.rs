//! Sample reductions: nearest-rank percentiles, the window-median
//! p99, the SLO fraction and the stall gap.
//!
//! Every timing the benchmark reports goes through these, so they are
//! pinned by unit tests on synthetic samples.

/// Nearest-rank percentile over a **sorted** slice; `q` in `[0, 1]`.
/// Empty input reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes the nearest-rank percentile.
pub fn percentile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// Median (nearest-rank p50) of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 0.5)
}

/// Mean of the middle half: the lowest and the highest quarter of the
/// values are dropped (`len / 4` each, rounded down) and the rest
/// averaged. Smooth where a median of a few coarse counts would step,
/// and as deaf to a stalled or a lucky bucket as the median is.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Number of equal sub-windows the window-median p99 splits into.
pub const P99_WINDOWS: usize = 20;

/// Median of the per-sub-window p99s: `samples` are `(offset,
/// latency)` pairs with `offset` in `[0, span)`; the span is cut into
/// [`P99_WINDOWS`] equal parts, each part's nearest-rank p99 is taken,
/// and the median of the non-empty parts is reported. A whole-window
/// p99 rests on the slowest 1 % of one run, and one 100 ms hiccup of
/// the host decides it; the median of twenty rests on most windows
/// agreeing, which repeats far better.
pub fn window_median_p99(samples: &[(f64, f64)], span: f64) -> f64 {
    median(&window_p99s(samples, span))
}

/// The per-sub-window p99s behind [`window_median_p99`], in window
/// order (empty windows left out).
pub fn window_p99s(samples: &[(f64, f64)], span: f64) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); P99_WINDOWS];
    for &(offset, latency) in samples {
        let w = ((offset / span) * P99_WINDOWS as f64) as usize;
        windows[w.min(P99_WINDOWS - 1)].push(latency);
    }
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile_of(w, 0.99))
        .collect()
}

/// How one due query ended, for the SLO fraction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Answered `200` this many milliseconds after it was due.
    Ok(f64),
    /// Shed, rejected, failed or never answered.
    Missed,
}

/// Share of due queries answered `200` within `limit_ms` of their due
/// instant. Shed, failed, lost and late queries all miss; an empty
/// set reads 1 (nothing was due, nothing missed).
pub fn slo_ok_frac(outcomes: &[Outcome], limit_ms: f64) -> f64 {
    if outcomes.is_empty() {
        return 1.0;
    }
    let ok = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Ok(ms) if *ms <= limit_ms))
        .count();
    ok as f64 / outcomes.len() as f64
}

/// Longest interval during which at least one query was outstanding
/// and no response arrived on any connection. `spans` are `(sent,
/// answered)` instants on one shared clock; a query never answered is
/// passed with `answered = end of run`.
pub fn stall_max(spans: &[(f64, f64)]) -> f64 {
    // +1 at each send, -1 (a response) at each answer; answers sort
    // before sends at equal instants so a back-to-back hand-off does
    // not read as a gap.
    let mut events: Vec<(f64, i32)> = Vec::with_capacity(spans.len() * 2);
    for &(sent, answered) in spans {
        events.push((sent, 1));
        events.push((answered.max(sent), -1));
    }
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut outstanding = 0i64;
    let mut mark = 0.0f64;
    let mut longest = 0.0f64;
    for (t, delta) in events {
        if delta > 0 {
            if outstanding == 0 {
                mark = t;
            }
            outstanding += 1;
        } else {
            longest = longest.max(t - mark);
            mark = t;
            outstanding -= 1;
        }
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Ten samples: p99 is the maximum, p50 the fifth.
        let ten = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 10.0];
        assert_eq!(percentile_of(&ten, 0.99), 10.0);
        assert_eq!(median(&ten), 5.0);
    }

    #[test]
    fn window_median_p99_ignores_a_few_bad_windows() {
        // Twenty windows of 100 samples at 1 ms; `bad` of them hold a
        // 500 ms outlier burst in their last quarter.
        let samples = |bad: usize| -> Vec<(f64, f64)> {
            (0..P99_WINDOWS)
                .flat_map(|w| {
                    (0..100).map(move |i| {
                        let offset = w as f64 + i as f64 * 0.01;
                        (offset, if w < bad && i >= 75 { 500.0 } else { 1.0 })
                    })
                })
                .collect()
        };
        let span = P99_WINDOWS as f64;
        // A whole-window p99 reports the burst of even one window.
        let one: Vec<f64> = samples(1).iter().map(|s| s.1).collect();
        assert_eq!(percentile_of(&one, 0.99), 500.0);
        assert_eq!(window_median_p99(&samples(1), span), 1.0);
        assert_eq!(window_median_p99(&samples(P99_WINDOWS / 2 - 1), span), 1.0);
        // A majority of bad windows does move it.
        assert_eq!(
            window_median_p99(&samples(P99_WINDOWS / 2 + 1), span),
            500.0
        );
        assert_eq!(window_p99s(&samples(3), span).len(), P99_WINDOWS);
        // An offset at the span's edge lands in the last window.
        assert_eq!(window_median_p99(&[(10.0, 3.0)], 10.0), 3.0);
    }

    #[test]
    fn interquartile_mean_drops_both_tails() {
        // Twelve buckets: a stalled one (0) and a lucky one (900) among
        // ten that alternate 384 / 416; the middle six average 400.
        let mut buckets = vec![0.0, 900.0];
        for i in 0..10 {
            buckets.push(if i % 2 == 0 { 384.0 } else { 416.0 });
        }
        assert_eq!(interquartile_mean(&buckets), 400.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn slo_counts_late_and_missed_alike() {
        let outcomes = [
            Outcome::Ok(10.0),
            Outcome::Ok(250.0),
            Outcome::Ok(250.1),
            Outcome::Missed,
        ];
        assert_eq!(slo_ok_frac(&outcomes, 250.0), 0.5);
        assert_eq!(slo_ok_frac(&[], 250.0), 1.0);
        assert_eq!(slo_ok_frac(&[Outcome::Missed], 250.0), 0.0);
    }

    #[test]
    fn stall_is_the_longest_silent_outstanding_interval() {
        // Responses at 1, 2 and 9: the 7 s silence while the third
        // query waits is the stall.
        let spans = [(0.0, 1.0), (0.5, 2.0), (1.5, 9.0)];
        assert_eq!(stall_max(&spans), 7.0);
        // Idle time with nothing outstanding is not a stall.
        let idle = [(0.0, 1.0), (50.0, 51.5)];
        assert_eq!(stall_max(&idle), 1.5);
        // Another connection answering breaks the silence.
        let two = [(0.0, 10.0), (1.0, 4.0), (4.0, 6.0)];
        assert_eq!(stall_max(&two), 4.0);
        assert_eq!(stall_max(&[]), 0.0);
    }
}
