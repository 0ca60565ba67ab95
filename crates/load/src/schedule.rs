//! Deterministic open-loop workload schedules.
//!
//! A [`WorkloadSpec`] compiles to a [`Schedule`]: every arrival's
//! instant, operation and phase fixed before the run starts, derived
//! entirely from the seed via the testkit RNG. Two properties matter
//! for the CI gate:
//!
//! * **Integer-exact counts.** Each phase contributes exactly
//!   `round(mean_rate × duration)` arrivals — no floating-point
//!   accumulation, no library-`ln` in the count path — so
//!   `load_micro.submitted` (and the per-kind query/change/rotate
//!   splits) are equality-gated across runs, platforms and
//!   `FUI_THREADS` widths.
//! * **Poisson shape.** Given the count, arrival instants are drawn
//!   as uniform order statistics over the phase window (for ramps,
//!   the inverse CDF of the linear rate profile — only `sqrt`, which
//!   IEEE 754 rounds exactly) — which is precisely a conditioned
//!   Poisson process, burstiness included.
//!
//! User skew is Zipf over a seeded permutation of the id space, so
//! the hot keys are scattered across cache stripes and lines rather than
//! clustered at id 0.

use fui_taxonomy::Topic;
use fui_testkit::rng::SeededRng;

/// One workload phase: a linear rate ramp over a fixed window.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Display name (`ramp`, `steady`, `flash`, ...).
    pub name: &'static str,
    /// Window length, seconds.
    pub secs: f64,
    /// Arrival rate at the window start, requests/second.
    pub rate_start: f64,
    /// Arrival rate at the window end, requests/second.
    pub rate_end: f64,
    /// Marks the deliberate-overload phase whose goodput the gate
    /// floors.
    pub overload: bool,
}

/// The full workload description.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Master seed; everything below derives from it.
    pub seed: u64,
    /// Phases, driven in order.
    pub phases: Vec<Phase>,
    /// User-id space `[0, users)`; requests stay in range.
    pub users: u32,
    /// Zipf skew exponent (1.0 ≈ classic web skew; 0 = uniform).
    pub zipf_s: f64,
    /// How many of [`Topic::ALL`] the queries draw from.
    pub topics: usize,
    /// Recommendations requested per query.
    pub top_n: usize,
    /// Fraction of arrivals that are follow/unfollow churn.
    pub change_frac: f64,
    /// A snapshot rotation rides the schedule at this cadence,
    /// seconds (0 = never).
    pub rotate_every_s: f64,
    /// A landmark refresh rides the schedule at this cadence,
    /// seconds (0 = never).
    pub refresh_every_s: f64,
}

/// One scheduled operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `GET /rec` / `REC`.
    Rec {
        /// Querying user.
        user: u32,
        /// Topic name (from [`Topic::ALL`]).
        topic: &'static str,
        /// Recommendations requested.
        top_n: usize,
    },
    /// `POST /follow` / `FOLLOW`.
    Follow {
        /// Follower id.
        follower: u32,
        /// Followee id.
        followee: u32,
        /// Comma-separated topic labels.
        topics: String,
    },
    /// `POST /unfollow` / `UNFOLLOW`.
    Unfollow {
        /// Follower id.
        follower: u32,
        /// Followee id.
        followee: u32,
    },
    /// `POST /rotate` / `ROTATE`.
    Rotate,
    /// `POST /refresh` / `REFRESH`.
    Refresh,
}

/// One arrival: when, what, and which phase it belongs to.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Offset from run start, nanoseconds.
    pub at_ns: u64,
    /// Index into [`Schedule::phases`].
    pub phase: usize,
    /// The operation.
    pub op: Op,
}

/// A compiled schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Every arrival, sorted by instant.
    pub arrivals: Vec<Arrival>,
    /// The phases the arrivals reference.
    pub phases: Vec<Phase>,
    /// Total scheduled duration, nanoseconds.
    pub horizon_ns: u64,
}

/// Exact per-kind totals (equality-gated in CI).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `Rec` arrivals.
    pub queries: u64,
    /// `Follow` + `Unfollow` arrivals.
    pub changes: u64,
    /// `Rotate` arrivals.
    pub rotates: u64,
    /// `Refresh` arrivals.
    pub refreshes: u64,
}

impl Schedule {
    /// Total arrivals.
    pub fn submitted(&self) -> u64 {
        self.arrivals.len() as u64
    }

    /// Exact per-kind totals.
    pub fn counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for a in &self.arrivals {
            match a.op {
                Op::Rec { .. } => c.queries += 1,
                Op::Follow { .. } | Op::Unfollow { .. } => c.changes += 1,
                Op::Rotate => c.rotates += 1,
                Op::Refresh => c.refreshes += 1,
            }
        }
        c
    }
}

/// Zipf sampler over a seeded permutation of `[0, n)`.
struct ZipfUsers {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl ZipfUsers {
    fn new(n: u32, s: f64, rng: &mut SeededRng) -> ZipfUsers {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 1..=n as u64 {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        // Fisher–Yates permutation so hot ranks land on scattered ids.
        let mut perm: Vec<u32> = (0..n).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        ZipfUsers { cdf, perm }
    }

    fn sample(&self, rng: &mut SeededRng) -> u32 {
        let total = *self.cdf.last().expect("nonempty cdf");
        let u = rng.f64() * total;
        let rank = self.cdf.partition_point(|&c| c < u);
        self.perm[rank.min(self.perm.len() - 1)]
    }
}

/// Inverse CDF of a linear rate profile `a → b` over `[0, horizon]`:
/// maps uniform `u ∈ [0,1)` to an arrival offset with density
/// proportional to the instantaneous rate. Exact for `a == b`
/// (uniform) and uses only `sqrt` otherwise.
fn ramp_inverse(u: f64, a: f64, b: f64, horizon: f64) -> f64 {
    if (a - b).abs() < 1e-12 {
        return u * horizon;
    }
    let c = (b - a) / (2.0 * horizon);
    let mass = a * horizon + c * horizon * horizon;
    let rhs = u * mass;
    let disc = a * a + 4.0 * c * rhs;
    // The `-a + sqrt` root is the one inside [0, horizon] for both
    // rising (c > 0) and decaying (c < 0) ramps.
    let t = (-a + disc.max(0.0).sqrt()) / (2.0 * c);
    t.clamp(0.0, horizon)
}

/// Compiles a spec into its schedule. Pure function of the spec.
pub fn build_schedule(spec: &WorkloadSpec) -> Schedule {
    assert!(spec.users > 1, "need at least two users for churn");
    assert!(spec.topics >= 1 && spec.topics <= Topic::ALL.len());
    let mut rng = SeededRng::new(spec.seed ^ 0x10AD_CAFE);
    let zipf = ZipfUsers::new(spec.users, spec.zipf_s, &mut rng);

    // Pass 1: integer-exact arrival instants per phase.
    let mut instants: Vec<(u64, usize)> = Vec::new();
    let mut phase_start = 0.0f64;
    for (pi, ph) in spec.phases.iter().enumerate() {
        let mean_rate = 0.5 * (ph.rate_start + ph.rate_end);
        let count = (mean_rate * ph.secs).round() as u64;
        for _ in 0..count {
            let t = ramp_inverse(rng.f64(), ph.rate_start, ph.rate_end, ph.secs);
            let at_ns = ((phase_start + t) * 1e9) as u64;
            instants.push((at_ns, pi));
        }
        phase_start += ph.secs;
    }
    instants.sort_unstable();
    let horizon_ns = (phase_start * 1e9) as u64;

    // Pass 2: operations. Control cadences consume arrivals in
    // place (the op mix stays a function of the seed alone).
    let mut arrivals = Vec::with_capacity(instants.len());
    let mut next_rotate = spec.rotate_every_s;
    let mut next_refresh = spec.refresh_every_s;
    let topics = &Topic::ALL[..spec.topics];
    for (at_ns, phase) in instants {
        let t_s = at_ns as f64 / 1e9;
        let op = if spec.rotate_every_s > 0.0 && t_s >= next_rotate {
            next_rotate += spec.rotate_every_s;
            Op::Rotate
        } else if spec.refresh_every_s > 0.0 && t_s >= next_refresh {
            next_refresh += spec.refresh_every_s;
            Op::Refresh
        } else if rng.chance(spec.change_frac) {
            let follower = zipf.sample(&mut rng);
            let followee =
                (follower + 1 + rng.below(u64::from(spec.users) - 1) as u32) % spec.users;
            if rng.chance(0.25) {
                Op::Unfollow { follower, followee }
            } else {
                let mut names = String::from(rng.pick(topics).name());
                if rng.chance(0.3) {
                    names.push(',');
                    names.push_str(rng.pick(topics).name());
                }
                Op::Follow {
                    follower,
                    followee,
                    topics: names,
                }
            }
        } else {
            Op::Rec {
                user: zipf.sample(&mut rng),
                topic: rng.pick(topics).name(),
                top_n: if rng.chance(0.2) { 5 } else { spec.top_n },
            }
        };
        arrivals.push(Arrival { at_ns, phase, op });
    }

    Schedule {
        arrivals,
        phases: spec.phases.clone(),
        horizon_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            seed: 0xEDB7,
            phases: vec![
                Phase {
                    name: "ramp",
                    secs: 1.0,
                    rate_start: 0.0,
                    rate_end: 1000.0,
                    overload: false,
                },
                Phase {
                    name: "flash",
                    secs: 0.5,
                    rate_start: 4000.0,
                    rate_end: 4000.0,
                    overload: true,
                },
            ],
            users: 500,
            zipf_s: 1.1,
            topics: 6,
            top_n: 10,
            change_frac: 0.05,
            rotate_every_s: 0.4,
            refresh_every_s: 0.7,
        }
    }

    #[test]
    fn counts_are_integer_exact() {
        let s = build_schedule(&spec());
        // round(500 * 1.0) + round(4000 * 0.5)
        assert_eq!(s.submitted(), 500 + 2000);
        let c = s.counts();
        assert_eq!(
            c.queries + c.changes + c.rotates + c.refreshes,
            s.submitted()
        );
        assert!(c.rotates >= 2, "rotate cadence must fire: {c:?}");
        assert!(c.refreshes >= 1, "refresh cadence must fire: {c:?}");
        assert!(c.changes > 0 && c.queries > c.changes);
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let a = build_schedule(&spec());
        let b = build_schedule(&spec());
        assert_eq!(a.submitted(), b.submitted());
        for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
            assert_eq!(x.at_ns, y.at_ns);
            assert_eq!(x.op, y.op);
        }
        assert!(a.arrivals.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.arrivals.last().expect("nonempty").at_ns <= a.horizon_ns);
    }

    #[test]
    fn zipf_concentrates_mass_on_few_users() {
        let s = build_schedule(&spec());
        let mut hits = std::collections::HashMap::new();
        let mut queries = 0u64;
        for a in &s.arrivals {
            if let Op::Rec { user, .. } = a.op {
                *hits.entry(user).or_insert(0u64) += 1;
                queries += 1;
            }
        }
        let mut tallies: Vec<u64> = hits.values().copied().collect();
        tallies.sort_unstable_by(|x, y| y.cmp(x));
        let top10: u64 = tallies.iter().take(10).sum();
        assert!(
            top10 as f64 > 0.3 * queries as f64,
            "zipf skew too flat: top10={top10} of {queries}"
        );
    }
}
