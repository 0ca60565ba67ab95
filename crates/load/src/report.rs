//! Exact-percentile load reports.
//!
//! The obs histograms are log-bucketed (≤ 25 % relative error) and
//! stop at p99; tail claims need better. The client keeps every raw
//! latency sample in nanoseconds and this module computes
//! nearest-rank percentiles from the full sorted set — p999 here is
//! the 0.999 order statistic, not a bucket midpoint.

use std::time::Duration;

/// How a request resolved, as observed by the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `200` — answered with a result.
    Ok,
    /// `429` — shed by admission control.
    Shed,
    /// `503` — shed across a rotation/refresh stall.
    ShedStall,
    /// `4xx` — rejected as invalid.
    Rejected,
}

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Phase index the arrival was scheduled in.
    pub phase: usize,
    /// Outcome class.
    pub class: Class,
    /// Send-to-response latency, nanoseconds.
    pub latency_ns: u64,
}

/// Nearest-rank percentile over a **sorted** slice; `q` in `[0, 1]`.
pub fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-phase accounting.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Phase name.
    pub name: &'static str,
    /// Whether this was the designated overload phase.
    pub overload: bool,
    /// Scheduled window length, seconds.
    pub secs: f64,
    /// Requests scheduled into the phase.
    pub submitted: u64,
    /// Answered with a result.
    pub answered: u64,
    /// Shed (both causes).
    pub shed: u64,
    /// Rejected as invalid.
    pub rejected: u64,
    /// Answered ÷ window — goodput, requests/second.
    pub goodput_rps: f64,
    /// p99 latency inside the phase, nanoseconds.
    pub p99_ns: u64,
}

/// The harness verdict for one drive.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Requests submitted (== the schedule length when nothing is
    /// lost).
    pub submitted: u64,
    /// Answered with a result.
    pub answered: u64,
    /// Shed total (429 + 503).
    pub shed: u64,
    /// Sheds attributed to admission control (`429`).
    pub shed_429: u64,
    /// Sheds attributed to rotation stalls (`503`).
    pub shed_503: u64,
    /// Rejected as invalid (`ERR` / `4xx`).
    pub rejected: u64,
    /// Requests that never received a response (must be zero).
    pub lost: u64,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// p99 latency, nanoseconds.
    pub p99_ns: u64,
    /// p999 latency, nanoseconds.
    pub p999_ns: u64,
    /// Worst observed latency, nanoseconds.
    pub max_ns: u64,
    /// p99 of (actual − scheduled) send instant: how honestly
    /// open-loop the writers stayed, nanoseconds.
    pub send_lag_p99_ns: u64,
    /// Wall time of the whole drive, seconds.
    pub wall_s: f64,
    /// Answered ÷ wall, requests/second.
    pub goodput_rps: f64,
    /// Goodput of the designated overload phase (0 when no phase is
    /// marked), requests/second.
    pub overload_goodput_rps: f64,
    /// Shed ÷ submitted.
    pub shed_rate: f64,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseReport>,
}

impl LoadReport {
    /// Builds the report from raw samples.
    ///
    /// `phase_meta` is `(name, overload, secs)` per phase in schedule
    /// order; `lost` counts scheduled requests that never answered.
    pub fn from_samples(
        mut samples: Vec<Sample>,
        phase_meta: &[(&'static str, bool, f64)],
        send_lags_ns: Vec<u64>,
        lost: u64,
        wall: Duration,
    ) -> LoadReport {
        let mut answered = 0u64;
        let mut shed_429 = 0u64;
        let mut shed_503 = 0u64;
        let mut rejected = 0u64;
        let mut phases: Vec<PhaseReport> = phase_meta
            .iter()
            .map(|&(name, overload, secs)| PhaseReport {
                name,
                overload,
                secs,
                submitted: 0,
                answered: 0,
                shed: 0,
                rejected: 0,
                goodput_rps: 0.0,
                p99_ns: 0,
            })
            .collect();
        let mut per_phase_lat: Vec<Vec<u64>> = vec![Vec::new(); phase_meta.len()];
        for s in &samples {
            let p = &mut phases[s.phase];
            p.submitted += 1;
            per_phase_lat[s.phase].push(s.latency_ns);
            match s.class {
                Class::Ok => {
                    answered += 1;
                    p.answered += 1;
                }
                Class::Shed => {
                    shed_429 += 1;
                    p.shed += 1;
                }
                Class::ShedStall => {
                    shed_503 += 1;
                    p.shed += 1;
                }
                Class::Rejected => {
                    rejected += 1;
                    p.rejected += 1;
                }
            }
        }
        for (p, mut lats) in phases.iter_mut().zip(per_phase_lat) {
            lats.sort_unstable();
            p.p99_ns = percentile_ns(&lats, 0.99);
            p.goodput_rps = p.answered as f64 / p.secs.max(1e-9);
        }
        let overload_goodput_rps = phases
            .iter()
            .filter(|p| p.overload)
            .map(|p| p.goodput_rps)
            .fold(0.0, f64::max);

        samples.sort_unstable_by_key(|s| s.latency_ns);
        let lats: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
        let mut lags = send_lags_ns;
        lags.sort_unstable();

        let submitted = lats.len() as u64 + lost;
        let shed = shed_429 + shed_503;
        let wall_s = wall.as_secs_f64();
        LoadReport {
            submitted,
            answered,
            shed,
            shed_429,
            shed_503,
            rejected,
            lost,
            p50_ns: percentile_ns(&lats, 0.50),
            p99_ns: percentile_ns(&lats, 0.99),
            p999_ns: percentile_ns(&lats, 0.999),
            max_ns: lats.last().copied().unwrap_or(0),
            send_lag_p99_ns: percentile_ns(&lags, 0.99),
            wall_s,
            goodput_rps: answered as f64 / wall_s.max(1e-9),
            overload_goodput_rps,
            shed_rate: shed as f64 / (submitted.max(1)) as f64,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_ns(&v, 0.50), 500);
        assert_eq!(percentile_ns(&v, 0.99), 990);
        assert_eq!(percentile_ns(&v, 0.999), 999);
        assert_eq!(percentile_ns(&v, 1.0), 1000);
        assert_eq!(percentile_ns(&[], 0.99), 0);
        assert_eq!(percentile_ns(&[42], 0.001), 42);
    }

    #[test]
    fn report_partitions_outcomes() {
        let meta = [("a", false, 1.0), ("b", true, 2.0)];
        let samples = vec![
            Sample {
                phase: 0,
                class: Class::Ok,
                latency_ns: 10,
            },
            Sample {
                phase: 1,
                class: Class::Shed,
                latency_ns: 20,
            },
            Sample {
                phase: 1,
                class: Class::ShedStall,
                latency_ns: 30,
            },
            Sample {
                phase: 1,
                class: Class::Ok,
                latency_ns: 40,
            },
            Sample {
                phase: 0,
                class: Class::Rejected,
                latency_ns: 50,
            },
        ];
        let r = LoadReport::from_samples(samples, &meta, vec![1, 2, 3], 1, Duration::from_secs(2));
        assert_eq!(r.submitted, 6);
        assert_eq!(r.answered, 2);
        assert_eq!(r.shed, 2);
        assert_eq!(r.shed_429, 1);
        assert_eq!(r.shed_503, 1);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.lost, 1);
        assert_eq!(r.answered + r.shed + r.rejected + r.lost, r.submitted);
        assert_eq!(r.max_ns, 50);
        assert!((r.phases[1].goodput_rps - 0.5).abs() < 1e-9);
        assert!((r.overload_goodput_rps - 0.5).abs() < 1e-9);
        assert!((r.shed_rate - 2.0 / 6.0).abs() < 1e-9);
    }
}
