//! The **Tr** recommendation score of *Finding Users of Interest in
//! Micro-blogging Systems* (Constantin, Dahimene, Grossetti, du Mouza —
//! EDBT 2016): topological + contextual user recommendation over a
//! topic-labeled follow graph.
//!
//! # The score
//!
//! For a user `u`, a candidate `v` and a topic `t` (Definition 1):
//!
//! ```text
//! σ(u, v, t) = Σ_{p ∈ P(u,v)} β^|p| · ω̄_p(t)
//! ω̄_p(t)    = Σ_{e ∈ p} ε_e(t) · auth(end(e), t)        (Eq. 4)
//! ε_e(t)     = α^d · max_{t' ∈ label(e)} sim(t', t)       (Eq. 3)
//! auth(v, t) = (|Γv(t)|/|Γv|) · log(1+|Γv(t)|)/log(1+max_w |Γw(t)|)
//! ```
//!
//! summing over **all** walks from `u` to `v` (the matrix formulation
//! of Eq. 6 operates on the adjacency matrix, i.e. walks), with the
//! path decay `β` favouring short connections and the edge decay `α`
//! discounting edges far from `u` (`d` is the edge's 1-based position
//! on the path, per Example 2 of the paper).
//!
//! # The computation
//!
//! [`propagate::Propagator`] implements the iterative computation of
//! Proposition 1 as level-synchronous frontier propagation: level `k`
//! holds the score mass of walks of length exactly `k`, pushed along
//! out-edges with the recurrences
//!
//! ```text
//! topo_β^{k+1}[v]  += β  · topo_β^k[u]
//! topo_αβ^{k+1}[v] += αβ · topo_αβ^k[u]
//! σ^{k+1}[v][t]    += β · σ^k[u][t] + topo_αβ^k[u] · (βα · maxsim(u→v, t) · auth(v, t))
//! ```
//!
//! until the new level's mass is negligible (the paper's Algorithm 1).
//! Note the paper initialises `σ(u,u,t) = 1`; the consistent
//! initialisation — the one under which Proposition 1's proof and the
//! brute-force path sum agree — is `σ = 0`, `topo(u,u) = 1` (the empty
//! walk), which is what this crate uses and what the property tests
//! pin down.
//!
//! Convergence is guaranteed for `β < 1/σ_max(A)` (Proposition 3);
//! [`params::ScoreParams::validate`] checks the bound via the power
//! iteration of `fui_graph::spectral`.
//!
//! # Crate layout
//!
//! * [`params`] — `α`, `β`, tolerance, depth caps (paper defaults
//!   β = 0.0005, α = 0.85);
//! * [`authority`] — the per-(node, topic) authority index;
//! * [`relevance`] — edge relevance `ε` helpers;
//! * [`path`] — per-path scores and the composition law of Prop. 2;
//! * [`propagate`] — the frontier engine (exact scores, ablation
//!   variants, landmark pruning);
//! * [`recommend`] — exact top-n recommendation and multi-topic
//!   queries;
//! * [`exhaustive`] — brute-force walk enumeration used as the oracle
//!   in tests (exported for downstream property tests).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod authority;
pub mod exhaustive;
pub mod params;
pub mod path;
pub mod propagate;
pub mod recommend;
pub mod relevance;
pub mod topk;

pub use authority::AuthorityIndex;
pub use params::{ScoreParams, ScoreVariant};
pub use propagate::{PropWorkspace, PropagateOpts, Propagation, Propagator, SimRowCache};
pub use recommend::{RecommendOpts, Recommendation, TrRecommender};
