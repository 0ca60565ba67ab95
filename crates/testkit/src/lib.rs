//! **fui-testkit** — the workspace's correctness harness: seeded
//! generators, a differential oracle, metamorphic invariants and a
//! mutation sanity check.
//!
//! The paper's value proposition is that three independent
//! computations of `σ(u, v, t)` agree:
//!
//! 1. the **exhaustive** path-sum of Definition 1
//!    ([`fui_core::exhaustive::enumerate`]),
//! 2. the **iterative propagation** of Proposition 1
//!    ([`fui_core::Propagator`]),
//! 3. the **landmark composition** of Proposition 4
//!    ([`fui_landmarks::ApproxRecommender`]).
//!
//! This crate turns that agreement from a handful of hand-written
//! spot checks into a systematic harness every future perf PR runs
//! against:
//!
//! * [`rng`] / [`gen`] — seeded, shrinkable instance generators
//!   (wrapping the vendored proptest RNG) for labeled graphs and
//!   [`fui_core::ScoreParams`];
//! * [`corpus`] — named presets (`star`, `chain`, `dag`,
//!   `dense-community`, `random`) spanning the shapes the engine must
//!   survive, all self-loop-free by construction;
//! * [`oracle`] — the differential oracle: fixed-depth
//!   exhaustive-vs-propagate equality on every instance, a full
//!   three-way check on DAG instances with an **exact-cover landmark
//!   placement** (every out-neighbour of the query node is a
//!   landmark, so Proposition 4's approximation error is provably
//!   zero — see [`oracle::check_three_way`]), and the paper's
//!   lower-bound guarantee on cyclic instances;
//! * [`invariants`] — reusable metamorphic assertions: monotonicity
//!   of σ in `α` and `β`, Katz monotonicity under edge addition,
//!   node-relabeling permutation invariance, Wu–Palmer sanity
//!   (`sim(t,t) = 1`, symmetry), and width-independent bit-equality
//!   through the [`fui_exec`] pool;
//! * [`mod@reference`] — an independent re-derivation of the authority
//!   normalizer, compared bit for bit, plus deliberate
//!   [`reference::Mutation`]s (off-by-ones and a reassociation),
//!   proving the oracle has teeth (the injected bug **must** be
//!   caught);
//! * [`fuzz`] — deterministic byte-corruption helpers (truncation,
//!   bit flips, over-length field splices) for decoder robustness
//!   tests;
//! * [`chaos`] — the crash/recovery conformance invariant: kill a
//!   seeded durable-serving interleaving (optionally tearing the
//!   newest snapshot mid-write or the journal tail mid-append),
//!   warm-restart from disk, and bit-compare every post-recovery
//!   answer against an uninterrupted twin — plus corrupt-snapshot
//!   fixture builders for the warm-start fallback corpus;
//! * [`seedlog`] — per-case seed logging mirrored into `fui-obs`
//!   counters and written as a JSON run manifest, so any failing case
//!   can be reproduced from its `(preset, seed)` pair alone.
//!
//! Every check returns `Result<(), String>` instead of panicking, so
//! the harness can greedily shrink a failing instance
//! ([`gen::minimize`]) before reporting it.

#![warn(missing_docs)]

pub mod chaos;
pub mod corpus;
pub mod fuzz;
pub mod gen;
pub mod invariants;
pub mod oracle;
pub mod reference;
pub mod rng;
pub mod seedlog;

pub use corpus::Preset;
pub use gen::GraphCase;
pub use rng::SeededRng;
pub use seedlog::SeedLog;
