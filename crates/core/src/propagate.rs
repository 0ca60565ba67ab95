//! The iterative score computation (Proposition 1 / Algorithm 1) as
//! level-synchronous frontier propagation.
//!
//! Level `k` holds the mass of walks of length exactly `k` out of the
//! source. One pass over the out-edges of the current frontier pushes
//! level `k` into level `k+1`:
//!
//! ```text
//! topo_β^{k+1}[v]  += β  · topo_β^k[u]                        (Eq. 2 mass)
//! topo_αβ^{k+1}[v] += αβ · topo_αβ^k[u]
//! σ^{k+1}[v][t]    += β · σ^k[u][t] + topo_αβ^k[u] · ω_{u→v}(t)   (Eq. 5)
//! ```
//!
//! with `ω_{u→v}(t) = βα · maxsim(label(u→v), t) · auth(v, t)`. The
//! accumulated sums over all levels are exactly `topo_β(u,v)`,
//! `topo_αβ(u,v)` and `σ(u,v,t)`.
//!
//! The engine serves three callers:
//!
//! * **exact recommendation** — run to convergence from a query node;
//! * **landmark preprocessing** (Algorithm 1) — run to convergence
//!   from each landmark, for all topics at once;
//! * **landmark queries** (Algorithm 2) — run at small depth with
//!   *pruning*: a frontier node flagged as a landmark is not expanded,
//!   "to avoid considering twice paths which pass through a landmark"
//!   (Section 5.4).
//!
//! Ablation variants (`Tr−auth`, `Tr−sim`, Katz) reuse the same sweep
//! with the corresponding factor replaced by 1 (or dropped), so the
//! Figure 4 comparisons measure scoring semantics, not implementation
//! differences.
//!
//! # The zero-allocation path
//!
//! A propagation reaches a vanishing fraction of a large graph (a
//! depth-2 query ~1–3k nodes, a landmark preprocessing run tens), so
//! its scratch is **reach-sparse**: the only per-node arena is one
//! epoch-stamped `node → slot` word (8 B/node, allocated zeroed, so a
//! cold workspace costs a `calloc`, not a memset), and every
//! accumulator, level buffer and σ row lives in compact arrays indexed
//! by slot = first-reached order, grown as nodes are discovered. The
//! hot entry point is [`Propagator::propagate_into`], which runs inside
//! a caller-owned [`PropWorkspace`]:
//!
//! * membership is **epoch-stamped** — `stamp[v] = run_epoch << 32 |
//!   slot` compared against the workspace's current epoch — so starting
//!   a run is O(1) instead of an O(n) `memset`;
//! * the compact arrays are `clear()`ed between runs and keep their
//!   capacity, so a workspace costs O(nodes) + O(largest reached set),
//!   never O(nodes × topics);
//! * frontier vectors, the reached list and the per-run topic tables
//!   are reused in place.
//!
//! Slots are handed out in the order nodes are first queued, which is
//! the order a node-dense sweep would first fold them — every
//! floating-point operation happens in the same order, and the
//! conformance suite pins the kernel bit for bit against a dense
//! re-derivation (`fui-testkit::reference`). A workspace-reused run is
//! bit-identical to a fresh one; the classic [`Propagator::propagate`]
//! signature survives as a thin wrapper that spins up a one-shot
//! workspace and moves its buffers into the returned [`Propagation`].
//! Batched callers hold one workspace per [`fui_exec`] worker
//! (`fui_exec::WorkerLocal`), collapsing `propagate.workspace.allocs`
//! (stamp-array allocations) to the worker count.

use std::sync::{Arc, OnceLock};

use fui_graph::{NodeId, SocialGraph, TopicSet};
use fui_obs as obs;
use fui_taxonomy::{SimMatrix, Topic, NUM_TOPICS};

use crate::authority::AuthorityIndex;
use crate::params::{ScoreParams, ScoreVariant};
use crate::topk;

/// Interned metric handles for the propagation engine. Counts are
/// accumulated in locals during a run and flushed here once per
/// propagation, so the per-edge hot loop never touches an atomic.
struct PropMetrics {
    calls: obs::Counter,
    edges_relaxed: obs::Counter,
    levels: obs::Counter,
    pruned_at: obs::Counter,
    stop_converged: obs::Counter,
    stop_depth_cap: obs::Counter,
    stop_frontier_empty: obs::Counter,
    workspace_reuses: obs::Counter,
    workspace_allocs: obs::Counter,
    sparse_cleared: obs::Counter,
    simrows_built: obs::Counter,
    frontier_peak: obs::Gauge,
    residual: obs::Gauge,
    workspace_peak_bytes: obs::Gauge,
    frontier_size: obs::Hist,
}

fn prop_metrics() -> &'static PropMetrics {
    static METRICS: OnceLock<PropMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PropMetrics {
        calls: obs::counter("propagate.calls"),
        edges_relaxed: obs::counter("propagate.edges_relaxed"),
        levels: obs::counter("propagate.levels"),
        pruned_at: obs::counter("landmark.pruned_at"),
        stop_converged: obs::counter("propagate.stop.converged"),
        stop_depth_cap: obs::counter("propagate.stop.depth_cap"),
        stop_frontier_empty: obs::counter("propagate.stop.frontier_empty"),
        workspace_reuses: obs::counter("propagate.workspace.reuses"),
        workspace_allocs: obs::counter("propagate.workspace.allocs"),
        sparse_cleared: obs::counter("propagate.sparse_cleared"),
        simrows_built: obs::counter("propagate.simrows.built"),
        frontier_peak: obs::gauge("propagate.frontier_peak"),
        residual: obs::gauge("propagate.residual"),
        workspace_peak_bytes: obs::gauge("propagate.workspace.peak_bytes"),
        frontier_size: obs::hist("propagate.frontier_size"),
    })
}

/// Why a propagation run stopped (mirrored into stop-reason counters).
#[derive(Clone, Copy)]
enum StopReason {
    Converged,
    DepthCap,
    FrontierEmpty,
}

/// Options of a single propagation run.
#[derive(Clone, Copy, Default)]
pub struct PropagateOpts<'a> {
    /// Additional depth cap on top of `ScoreParams::max_depth`
    /// (0 keeps only the source; `None` means params-only).
    pub max_depth: Option<u32>,
    /// Dense landmark mask: frontier nodes (other than the source)
    /// flagged `true` are collected but not expanded.
    pub prune: Option<&'a [bool]>,
}

/// Sentinel in the topic→column table: topic not queried.
const COL_UNQUERIED: u32 = u32::MAX;

/// Builds the topic→sigma-column table for a run: each queried topic
/// maps to the column of its *first* occurrence (matching the linear
/// scan it replaces); unqueried topics map to [`COL_UNQUERIED`].
fn build_topic_cols(topics: &[Topic]) -> [u32; NUM_TOPICS] {
    let mut cols = [COL_UNQUERIED; NUM_TOPICS];
    for (ti, t) in topics.iter().enumerate() {
        let slot = &mut cols[t.index()];
        if *slot == COL_UNQUERIED {
            *slot = ti as u32;
        }
    }
    cols
}

/// Per-reached-node record of a run, indexed by slot. `tb` / `tab` are
/// the two level buffers of the topological masses; the level being
/// folded is `levels & 1`, the one being built the other.
#[derive(Clone, Copy, Debug, Default)]
struct SlotState {
    acc_tb: f64,
    acc_tab: f64,
    tb: [f64; 2],
    tab: [f64; 2],
    /// `== levels + 1` ⇔ already queued for the next frontier (slots
    /// are fresh every run, so the stamp restarts at 0).
    in_next: u32,
}

/// Rows of `tc` sigma columns a slot owns in the sigma arena: the
/// accumulator, then the two level buffers.
const SIGMA_ROWS: usize = 3;
const SIGMA_ACC: usize = 0;

/// Offset of `slot`'s sigma row `row` (`SIGMA_ACC`, or `1 + parity` for
/// a level buffer) in an arena of `tc` columns.
#[inline]
fn sigma_row(tc: usize, slot: usize, row: usize) -> usize {
    (slot * SIGMA_ROWS + row) * tc
}

/// Reusable scratch arena for propagation runs.
///
/// Holds the compact state of the run in flight (what [`PropRun`]
/// reads), the two frontier vectors and the per-run topic table. The
/// one per-node arena is the epoch-stamped `node → slot` word; all
/// float state is indexed by slot and `clear()`ed between runs, so a
/// workspace costs 8 B/node plus O(largest reached set) and starting a
/// run is O(1).
///
/// A workspace is cheap to create empty and grows to its largest run;
/// batched callers keep one per [`fui_exec`] worker. Reusing one
/// workspace across runs of *different* graphs or topic sets is
/// supported and bit-exact.
#[derive(Clone, Debug, Default)]
pub struct PropWorkspace {
    run: Propagation,
    /// Current and next frontier, as slots in first-queued order.
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
}

impl PropWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> PropWorkspace {
        PropWorkspace::default()
    }

    /// Prepares the workspace for a run over `n` nodes and `tc` sigma
    /// columns: empties the compact arrays, (re)allocates the stamp
    /// array if the graph outgrew it, advances the run epoch and
    /// installs the topic tables.
    fn begin_run(&mut self, n: usize, tc: usize, topics: &[Topic], metrics: &PropMetrics) {
        let run = &mut self.run;
        // The previous run's reached count: what a node-dense layout
        // would have had to zero here.
        metrics.sparse_cleared.add(run.reached.len() as u64);
        run.reached.clear();
        run.slots.clear();
        run.sigma.clear();
        self.frontier.clear();
        self.next_frontier.clear();

        if run.stamp.len() < n {
            metrics.workspace_allocs.incr();
            // Fresh zeroed pages rather than a copying `resize`: epoch 0
            // is never current, so nothing needs carrying over.
            run.stamp = vec![0; n];
        } else {
            metrics.workspace_reuses.incr();
        }

        // O(1) membership reset: bump the generation. On the (rare)
        // wrap back to 0 the stamps are rewound so no stale word can
        // collide with the fresh epoch.
        run.run_epoch = run.run_epoch.wrapping_add(1);
        if run.run_epoch == 0 {
            run.stamp.fill(0);
            run.run_epoch = 1;
        }

        run.topics.clear();
        run.topics.extend_from_slice(topics);
        run.topic_cols = build_topic_cols(topics);
        run.tc = tc;
    }

    /// Bytes currently held by the workspace arenas (the stamp array,
    /// slot records, sigma arena, frontier and topic tables). The
    /// high-water mark over all runs is mirrored into the
    /// `propagate.workspace.peak_bytes` gauge.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        let run = &self.run;
        run.stamp.capacity() * size_of::<u64>()
            + run.slots.capacity() * size_of::<SlotState>()
            + run.sigma.capacity() * size_of::<f64>()
            + run.reached.capacity() * size_of::<NodeId>()
            + run.topics.capacity() * size_of::<Topic>()
            + (self.frontier.capacity() + self.next_frontier.capacity()) * size_of::<u32>()
    }

    /// Converts the last run into an owned [`Propagation`], consuming
    /// the workspace (buffers are moved out, not copied). Intended for
    /// one-shot workspaces; reuse paths read through [`PropRun`]
    /// instead.
    pub fn into_propagation(self) -> Propagation {
        self.run
    }
}

/// Read-only view of the run a [`PropWorkspace`] holds — the
/// zero-allocation counterpart of an owned [`Propagation`], to whose
/// readouts (`sigma_at`, `topo_beta`, `top_n_sigma`, …) it derefs.
pub struct PropRun<'a> {
    run: &'a Propagation,
}

impl std::ops::Deref for PropRun<'_> {
    type Target = Propagation;

    fn deref(&self) -> &Propagation {
        self.run
    }
}

impl PropRun<'_> {
    /// The query topics, in sigma column order.
    pub fn topics(&self) -> &[Topic] {
        &self.run.topics
    }

    /// Nodes with any accumulated mass, source first, in first-reached
    /// order.
    pub fn reached(&self) -> &[NodeId] {
        &self.run.reached
    }

    /// Source node of the run.
    pub fn source(&self) -> NodeId {
        self.run.source
    }

    /// Number of levels propagated.
    pub fn levels(&self) -> u32 {
        self.run.levels
    }

    /// Whether the tolerance criterion was met.
    pub fn converged(&self) -> bool {
        self.run.converged
    }
}

/// Result of a propagation: accumulated scores over every reached
/// node, held in the compact layout the run produced them in. A node
/// the run did not reach reads `0.0` from every score readout.
#[derive(Clone, Debug, Default)]
pub struct Propagation {
    /// The query topics, in sigma column order.
    pub topics: Vec<Topic>,
    /// Topic→sigma-column lookup (first occurrence wins), so per-node
    /// readouts by [`Topic`] cost O(1) instead of a linear scan.
    topic_cols: [u32; NUM_TOPICS],
    /// `run_epoch << 32 | slot` per graph node; `v` was reached by this
    /// run iff the high half equals `run_epoch`.
    stamp: Vec<u64>,
    run_epoch: u32,
    /// One record per reached node, parallel to `reached`.
    slots: Vec<SlotState>,
    /// Per slot `[acc | level 0 | level 1] × tc`; `acc` is
    /// `σ(source, v, topics[..])`.
    sigma: Vec<f64>,
    /// Sigma columns of the run (0 under `TopoOnly`, whatever `topics`
    /// holds).
    tc: usize,
    /// Nodes with any accumulated mass, source first, in first-reached
    /// order.
    pub reached: Vec<NodeId>,
    /// Source node.
    pub source: NodeId,
    /// Number of levels propagated (max walk length considered).
    pub levels: u32,
    /// Whether the tolerance criterion was met (vs. hitting the depth
    /// cap).
    pub converged: bool,
}

impl Propagation {
    /// Slot of `v`, if the run reached it.
    #[inline]
    fn slot(&self, v: NodeId) -> Option<usize> {
        let w = self.stamp[v.index()];
        ((w >> 32) as u32 == self.run_epoch).then_some(w as u32 as usize)
    }

    /// Slot of `v`, handing out the next one (all-zero state) the first
    /// time the run meets it.
    #[inline]
    fn slot_or_insert(&mut self, v: NodeId) -> usize {
        if let Some(slot) = self.slot(v) {
            return slot;
        }
        let slot = self.slots.len();
        self.stamp[v.index()] = u64::from(self.run_epoch) << 32 | slot as u64;
        self.reached.push(v);
        self.slots.push(SlotState::default());
        // Zeroed rows up to where the next slot's will start.
        let end = sigma_row(self.tc, self.slots.len(), SIGMA_ACC);
        self.sigma.resize(end, 0.0);
        slot
    }

    #[inline]
    fn sigma_of(&self, slot: usize, ti: usize) -> f64 {
        debug_assert!(ti < self.topics.len(), "topic column out of range");
        match self.tc {
            // Uniform result shape under `TopoOnly`: zeros for every
            // requested topic.
            0 => 0.0,
            tc => self.sigma[sigma_row(tc, slot, SIGMA_ACC) + ti],
        }
    }

    /// `σ(source, v, topics[ti])`.
    #[inline]
    pub fn sigma_at(&self, v: NodeId, ti: usize) -> f64 {
        self.slot(v).map_or(0.0, |s| self.sigma_of(s, ti))
    }

    /// `σ(source, v, t)`; 0 for a topic that was not queried.
    #[inline]
    pub fn sigma(&self, v: NodeId, t: Topic) -> f64 {
        match self.topic_cols[t.index()] {
            COL_UNQUERIED => 0.0,
            ti => self.sigma_at(v, ti as usize),
        }
    }

    /// `topo_β(source, v)` — the Katz score (the source's own entry
    /// includes the empty walk's 1).
    #[inline]
    pub fn topo_beta(&self, v: NodeId) -> f64 {
        self.slot(v).map_or(0.0, |s| self.slots[s].acc_tb)
    }

    /// `topo_αβ(source, v)`.
    #[inline]
    pub fn topo_alphabeta(&self, v: NodeId) -> f64 {
        self.slot(v).map_or(0.0, |s| self.slots[s].acc_tab)
    }

    /// The recommendation vector `R_{u,v}` of Table 1: the score of
    /// `v` on every queried topic, packed into a [`fui_taxonomy::TopicWeights`]
    /// (unqueried topics read 0).
    pub fn recommendation_vector(&self, v: NodeId) -> fui_taxonomy::TopicWeights {
        let mut w = fui_taxonomy::TopicWeights::zero();
        for (ti, &t) in self.topics.iter().enumerate() {
            w.set(t, self.sigma_at(v, ti));
        }
        w
    }

    /// Shared top-n readout over the reached set by a per-slot score
    /// (score desc, ties by id, source excluded, zero scores dropped) —
    /// partial heap selection, not a full sort.
    fn top_n_by(&self, n: usize, score: impl Fn(usize) -> f64) -> Vec<(NodeId, f64)> {
        topk::select_top_k(
            n,
            self.reached
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != self.source)
                .map(|(slot, &v)| (v, score(slot)))
                .filter(|&(_, s)| s > 0.0),
        )
    }

    /// Top-`n` nodes by `σ(·, topics[ti])`, excluding the source,
    /// highest first (ties by node id).
    pub fn top_n_sigma(&self, ti: usize, n: usize) -> Vec<(NodeId, f64)> {
        self.top_n_by(n, |slot| self.sigma_of(slot, ti))
    }

    /// Top-`n` nodes by `topo_β`, excluding the source.
    pub fn top_n_topo(&self, n: usize) -> Vec<(NodeId, f64)> {
        self.top_n_by(n, |slot| self.slots[slot].acc_tb)
    }
}

/// The `maxsim` similarity rows of a graph: one row per entry of its
/// interned label table ([`SocialGraph::label_sets`]), read in the
/// kernel with the `u16` label id every out-edge already carries. The
/// rows are a function of that table and the similarity matrix alone —
/// not of score parameters or variant — so the full scorer and every
/// ablation variant over the same graph (`Tr−auth`, `Tr−sim`, Katz)
/// read the same values. Building costs `O(label sets × topics)`,
/// independent of the edge count.
pub struct SimRowCache {
    /// The label table the rows were derived from.
    label_sets: Vec<TopicSet>,
    /// `maxsim(label_sets[id], ·)` per label id.
    sim_rows: Vec<[f64; NUM_TOPICS]>,
}

impl SimRowCache {
    /// Derives the row of each of `graph`'s distinct edge label sets.
    pub fn build(graph: &SocialGraph, sim: &SimMatrix) -> SimRowCache {
        prop_metrics().simrows_built.incr();
        let label_sets = graph.label_sets().to_vec();
        let sim_rows = label_sets
            .iter()
            .map(|&labels| std::array::from_fn(|t| sim.max_sim(labels, Topic::from_index(t))))
            .collect();
        SimRowCache {
            label_sets,
            sim_rows,
        }
    }

    /// Number of rows — the label-table length of the graph they were
    /// built for.
    pub fn num_rows(&self) -> usize {
        self.sim_rows.len()
    }
}

/// Shared per-graph scoring state: the similarity rows (one
/// `maxsim(labels, ·)` row per distinct edge label set) and the
/// authority index.
pub struct Propagator<'g> {
    graph: &'g SocialGraph,
    authority: &'g AuthorityIndex,
    params: ScoreParams,
    variant: ScoreVariant,
    /// Similarity rows by label id (see [`SimRowCache`]).
    rows: Arc<SimRowCache>,
    /// All-ones row used to neutralise a factor under ablations.
    ones: [f64; NUM_TOPICS],
}

impl<'g> Propagator<'g> {
    /// Builds a propagator, deriving the graph's similarity rows.
    pub fn new(
        graph: &'g SocialGraph,
        authority: &'g AuthorityIndex,
        sim: &SimMatrix,
        params: ScoreParams,
        variant: ScoreVariant,
    ) -> Propagator<'g> {
        Self::with_sim_cache(
            graph,
            authority,
            Arc::new(SimRowCache::build(graph, sim)),
            params,
            variant,
        )
    }

    /// Builds a propagator over rows already derived for `graph` — a
    /// serving snapshot holds one [`SimRowCache`] beside its graph and
    /// every propagator over that snapshot borrows it.
    ///
    /// # Panics
    ///
    /// Panics if the rows were built for a graph with a different
    /// label table, or the parameters are out of range.
    pub fn with_sim_cache(
        graph: &'g SocialGraph,
        authority: &'g AuthorityIndex,
        rows: Arc<SimRowCache>,
        params: ScoreParams,
        variant: ScoreVariant,
    ) -> Propagator<'g> {
        params.check_ranges().expect("invalid score parameters");
        assert!(
            rows.label_sets == graph.label_sets(),
            "sim rows do not match this graph's label table"
        );
        Propagator {
            graph,
            authority,
            params,
            variant,
            rows,
            ones: [1.0; NUM_TOPICS],
        }
    }

    /// The graph being scored.
    pub fn graph(&self) -> &SocialGraph {
        self.graph
    }

    /// The score parameters.
    pub fn params(&self) -> &ScoreParams {
        &self.params
    }

    /// The score variant.
    pub fn variant(&self) -> ScoreVariant {
        self.variant
    }

    /// The similarity rows this propagator reads (clone the `Arc` to
    /// build sibling variants over the same graph).
    pub fn sim_cache(&self) -> &Arc<SimRowCache> {
        &self.rows
    }

    /// Runs the iterative computation from `source` for the given
    /// query topics (empty slice is valid and yields a pure Katz run).
    ///
    /// Thin wrapper over [`propagate_into`](Self::propagate_into) with
    /// a one-shot workspace; batched callers should reuse a
    /// [`PropWorkspace`] instead.
    pub fn propagate(
        &self,
        source: NodeId,
        topics: &[Topic],
        opts: PropagateOpts<'_>,
    ) -> Propagation {
        let mut ws = PropWorkspace::new();
        self.propagate_into(&mut ws, source, topics, opts);
        ws.into_propagation()
    }

    /// Runs the iterative computation inside a reusable workspace —
    /// the allocation-free entry point. Returns a [`PropRun`] view of
    /// the results, valid until the workspace's next run.
    ///
    /// Bit-equality guarantee: for the same propagator, source, topics
    /// and options, the scores read through the returned view are
    /// bit-identical to a fresh [`propagate`](Self::propagate) call,
    /// whatever ran in the workspace before.
    pub fn propagate_into<'w>(
        &self,
        ws: &'w mut PropWorkspace,
        source: NodeId,
        topics: &[Topic],
        opts: PropagateOpts<'_>,
    ) -> PropRun<'w> {
        let n = self.graph.num_nodes();
        assert!(source.index() < n, "source not in graph");
        let tc = if self.variant == ScoreVariant::TopoOnly {
            0
        } else {
            topics.len()
        };
        let beta = self.params.beta;
        let ab = self.params.alpha * beta;
        let depth_cap = self
            .params
            .max_depth
            .min(opts.max_depth.unwrap_or(u32::MAX));

        let metrics = prop_metrics();
        ws.begin_run(n, tc, topics, metrics);
        let PropWorkspace {
            run,
            frontier,
            next_frontier,
        } = &mut *ws;

        // The source is slot 0, carrying the empty walk's unit mass.
        let s0 = run.slot_or_insert(source);
        run.slots[s0].tb[0] = 1.0;
        run.slots[s0].tab[0] = 1.0;
        frontier.push(s0 as u32);

        let mut acc_tb_total = 0.0f64;
        let mut levels = 0u32;
        let mut converged = false;

        // Observability locals, flushed to the registry once at the end.
        let mut edges_relaxed = 0u64;
        let mut pruned_at = 0u64;
        let mut frontier_peak = 0u64;
        let mut residual = 0.0f64;
        let stop_reason;

        loop {
            frontier_peak = frontier_peak.max(frontier.len() as u64);
            metrics.frontier_size.record(frontier.len() as u64);
            // Level parity picks the buffer being folded and the one
            // being built; nothing is swapped but the frontier lists.
            let cur = (levels & 1) as usize;
            let next = cur ^ 1;

            // Fold the current level into the accumulators.
            let mut level_tb = 0.0f64;
            for &us in frontier.iter() {
                let us = us as usize;
                let s = &mut run.slots[us];
                s.acc_tb += s.tb[cur];
                s.acc_tab += s.tab[cur];
                level_tb += s.tb[cur];
                let acc = sigma_row(tc, us, SIGMA_ACC);
                let lvl = sigma_row(tc, us, 1 + cur);
                for ti in 0..tc {
                    run.sigma[acc + ti] += run.sigma[lvl + ti];
                }
            }
            acc_tb_total += level_tb;
            if acc_tb_total > 0.0 {
                residual = level_tb / acc_tb_total;
            }

            // Convergence: the level's topological mass (the slowest
            // decaying of the three) is negligible relative to the
            // accumulated mass.
            if levels > 0 && level_tb < self.params.tolerance * acc_tb_total {
                converged = true;
                stop_reason = StopReason::Converged;
                break;
            }
            if levels >= depth_cap {
                stop_reason = StopReason::DepthCap;
                break;
            }

            // Expand the frontier. A node met for the first time gets
            // the next slot; it is queued in the same step, so slot
            // order is first-folded order.
            let level_stamp = levels + 1;
            next_frontier.clear();
            for &us in frontier.iter() {
                let us = us as usize;
                let u = run.reached[us];
                if u != source {
                    if let Some(mask) = opts.prune {
                        if mask[u.index()] {
                            pruned_at += 1;
                            continue;
                        }
                    }
                }
                let tb_u = run.slots[us].tb[cur];
                let tab_u = run.slots[us].tab[cur];
                let u_lvl = sigma_row(tc, us, 1 + cur);
                for (label, v) in self.graph.out_edges_by_label_id(u) {
                    edges_relaxed += 1;
                    let vs = run.slot_or_insert(v);
                    let s = &mut run.slots[vs];
                    if s.in_next != level_stamp {
                        s.in_next = level_stamp;
                        next_frontier.push(vs as u32);
                    }
                    s.tb[next] += beta * tb_u;
                    s.tab[next] += ab * tab_u;
                    if tc > 0 {
                        let (sim_row, with_auth): (&[f64], bool) = match self.variant {
                            ScoreVariant::Full => (&self.rows.sim_rows[label as usize], true),
                            ScoreVariant::NoAuthority => {
                                (&self.rows.sim_rows[label as usize], false)
                            }
                            ScoreVariant::NoSimilarity => (&self.ones, true),
                            ScoreVariant::TopoOnly => unreachable!("tc == 0"),
                        };
                        let v_lvl = sigma_row(tc, vs, 1 + next);
                        for (ti, &t) in topics.iter().enumerate() {
                            let t_idx = t.index();
                            let auth = if with_auth {
                                self.authority.auth(v, t)
                            } else {
                                self.ones[t_idx]
                            };
                            let w = ab * sim_row[t_idx] * auth;
                            run.sigma[v_lvl + ti] += beta * run.sigma[u_lvl + ti] + tab_u * w;
                        }
                    }
                }
            }

            // Clear the folded level's buffers (they become the next
            // level's write target) and advance.
            for &us in frontier.iter() {
                let us = us as usize;
                let s = &mut run.slots[us];
                s.tb[cur] = 0.0;
                s.tab[cur] = 0.0;
                let lvl = sigma_row(tc, us, 1 + cur);
                run.sigma[lvl..lvl + tc].fill(0.0);
            }
            std::mem::swap(frontier, next_frontier);

            levels += 1;
            if frontier.is_empty() {
                converged = true;
                stop_reason = StopReason::FrontierEmpty;
                break;
            }
        }

        // Flush the batched observability locals.
        metrics.calls.incr();
        metrics.edges_relaxed.add(edges_relaxed);
        metrics.levels.add(levels as u64);
        metrics.pruned_at.add(pruned_at);
        metrics.frontier_peak.record_max(frontier_peak as f64);
        metrics.residual.set(residual);
        match stop_reason {
            StopReason::Converged => metrics.stop_converged.incr(),
            StopReason::DepthCap => metrics.stop_depth_cap.incr(),
            StopReason::FrontierEmpty => metrics.stop_frontier_empty.incr(),
        }

        run.source = source;
        run.levels = levels;
        run.converged = converged;
        metrics
            .workspace_peak_bytes
            .record_max(ws.size_bytes() as f64);
        PropRun { run: &ws.run }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fui_graph::GraphBuilder;

    fn diamond() -> SocialGraph {
        // 0 -> {1, 2} -> 3, labels all technology.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(TopicSet::empty())).collect();
        let l = TopicSet::single(Topic::Technology);
        b.add_edge(n[0], n[1], l);
        b.add_edge(n[0], n[2], l);
        b.add_edge(n[1], n[3], l);
        b.add_edge(n[2], n[3], l);
        b.build()
    }

    fn params() -> ScoreParams {
        ScoreParams {
            alpha: 0.7,
            beta: 0.3,
            tolerance: 1e-12,
            max_depth: 30,
        }
    }

    #[test]
    fn topo_counts_all_walks() {
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let r = p.propagate(NodeId(0), &[Topic::Technology], PropagateOpts::default());
        // topo_beta(0, 3) = 2 walks of length 2 = 2 * 0.09.
        assert!((r.topo_beta(NodeId(3)) - 2.0 * 0.09).abs() < 1e-12);
        assert!((r.topo_beta(NodeId(1)) - 0.3).abs() < 1e-12);
        // Source includes the empty walk.
        assert!((r.topo_beta(NodeId(0)) - 1.0).abs() < 1e-12);
        assert!(r.converged);
    }

    #[test]
    fn sigma_on_single_edge() {
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let r = p.propagate(NodeId(0), &[Topic::Technology], PropagateOpts::default());
        // σ(0,1,tech): walk 0→1 only. ω = βα·sim·auth(1). Node 1 has
        // one follower on tech; node 3 has two (the per-topic max).
        let auth1 = idx.auth(NodeId(1), Topic::Technology);
        let expected = 0.3 * 0.7 * 1.0 * auth1;
        assert!((r.sigma(NodeId(1), Topic::Technology) - expected).abs() < 1e-12);
    }

    #[test]
    fn depth_cap_limits_walks() {
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let r = p.propagate(
            NodeId(0),
            &[Topic::Technology],
            PropagateOpts {
                max_depth: Some(1),
                ..Default::default()
            },
        );
        assert_eq!(r.topo_beta(NodeId(3)), 0.0);
        assert!(!r.reached.contains(&NodeId(3)));
        assert!((r.topo_beta(NodeId(1)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn depth_zero_keeps_only_the_source() {
        // `max_depth: Some(0)` is the degenerate-but-legal query "the
        // source and nothing else": one level folded, no expansion.
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let r = p.propagate(
            NodeId(0),
            &[Topic::Technology],
            PropagateOpts {
                max_depth: Some(0),
                ..Default::default()
            },
        );
        assert_eq!(r.reached, vec![NodeId(0)]);
        assert_eq!(r.levels, 0);
        assert!(!r.converged, "a depth-cap stop is not convergence");
        // Only the empty walk: topo mass 1 at the source, nothing else.
        assert_eq!(r.topo_beta(NodeId(0)), 1.0);
        assert_eq!(r.topo_alphabeta(NodeId(0)), 1.0);
        for v in [NodeId(1), NodeId(2), NodeId(3)] {
            assert_eq!(r.topo_beta(v), 0.0);
            assert_eq!(r.sigma(v, Topic::Technology), 0.0);
        }
        assert_eq!(r.sigma(NodeId(0), Topic::Technology), 0.0);
        assert!(r.top_n_topo(10).is_empty());
    }

    #[test]
    fn pruning_stops_expansion() {
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let mut mask = vec![false; 4];
        mask[1] = true;
        mask[2] = true;
        let r = p.propagate(
            NodeId(0),
            &[Topic::Technology],
            PropagateOpts {
                prune: Some(&mask),
                ..Default::default()
            },
        );
        // Both intermediate nodes are landmarks: their scores exist but
        // node 3 is never reached.
        assert!(r.topo_beta(NodeId(1)) > 0.0);
        assert_eq!(r.topo_beta(NodeId(3)), 0.0);
    }

    #[test]
    fn source_flagged_as_landmark_still_expands() {
        // Section 5.4's exception: the query node itself may be a
        // landmark, but pruning must never stop the exploration at the
        // source — otherwise no query from a landmark would see its
        // own neighbourhood.
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let mask = vec![true; 4]; // every node flagged, source included
        let r = p.propagate(
            NodeId(0),
            &[Topic::Technology],
            PropagateOpts {
                prune: Some(&mask),
                ..Default::default()
            },
        );
        // The source expanded (neighbours reached with full one-hop
        // mass) but the flagged neighbours did not.
        assert!((r.topo_beta(NodeId(1)) - 0.3).abs() < 1e-12);
        assert!((r.topo_beta(NodeId(2)) - 0.3).abs() < 1e-12);
        assert!(r.sigma(NodeId(1), Topic::Technology) > 0.0);
        assert_eq!(r.topo_beta(NodeId(3)), 0.0);
        assert!(!r.reached.contains(&NodeId(3)));
        // And the unpruned run strictly dominates at the blocked node.
        let unpruned = p.propagate(NodeId(0), &[Topic::Technology], PropagateOpts::default());
        assert!(unpruned.topo_beta(NodeId(3)) > 0.0);
    }

    #[test]
    fn cycles_converge() {
        // 0 <-> 1 two-cycle plus 1 -> 2.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(TopicSet::empty())).collect();
        let l = TopicSet::single(Topic::Social);
        b.add_edge(n[0], n[1], l);
        b.add_edge(n[1], n[0], l);
        b.add_edge(n[1], n[2], l);
        let g = b.build();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let r = p.propagate(NodeId(0), &[Topic::Social], PropagateOpts::default());
        assert!(r.converged);
        // Geometric series over the 2-cycle: topo(0,1) = β + β³ + β⁵ ...
        let b2 = 0.3f64 * 0.3;
        let expected = 0.3 / (1.0 - b2);
        assert!((r.topo_beta(NodeId(1)) - expected).abs() < 1e-9);
    }

    #[test]
    fn topo_only_variant_has_zero_sigma() {
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::TopoOnly);
        let r = p.propagate(NodeId(0), &[Topic::Technology], PropagateOpts::default());
        assert_eq!(r.sigma(NodeId(3), Topic::Technology), 0.0);
        assert!(r.topo_beta(NodeId(3)) > 0.0);
    }

    #[test]
    fn recommendation_vector_packs_queried_topics() {
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let r = p.propagate(
            NodeId(0),
            &[Topic::Technology, Topic::Business],
            PropagateOpts::default(),
        );
        let v = r.recommendation_vector(NodeId(3));
        assert_eq!(
            v.get(Topic::Technology),
            r.sigma(NodeId(3), Topic::Technology)
        );
        assert_eq!(v.get(Topic::Business), r.sigma(NodeId(3), Topic::Business));
        assert_eq!(v.get(Topic::War), 0.0);
        assert!(v.get(Topic::Technology) > 0.0);
    }

    #[test]
    fn top_n_excludes_source_and_sorts() {
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let r = p.propagate(NodeId(0), &[Topic::Technology], PropagateOpts::default());
        let top = r.top_n_topo(10);
        assert!(!top.iter().any(|&(v, _)| v == NodeId(0)));
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn unreached_nodes_absent() {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(TopicSet::empty())).collect();
        b.add_edge(n[0], n[1], TopicSet::single(Topic::War));
        // Node 2 is isolated.
        let g = b.build();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let r = p.propagate(NodeId(0), &[Topic::War], PropagateOpts::default());
        assert!(!r.reached.contains(&NodeId(2)));
        assert_eq!(r.topo_beta(NodeId(2)), 0.0);
    }

    /// Asserts two runs over `g` agree in shape and in every score bit.
    fn assert_same_bits(g: &SocialGraph, a: &Propagation, b: &Propagation) {
        assert_eq!(a.reached, b.reached);
        assert_eq!((a.levels, a.converged), (b.levels, b.converged));
        for v in g.nodes() {
            assert_eq!(a.topo_beta(v).to_bits(), b.topo_beta(v).to_bits(), "{v}");
            assert_eq!(
                a.topo_alphabeta(v).to_bits(),
                b.topo_alphabeta(v).to_bits(),
                "{v}"
            );
            for ti in 0..a.topics.len() {
                let (x, y) = (a.sigma_at(v, ti), b.sigma_at(v, ti));
                assert_eq!(x.to_bits(), y.to_bits(), "{v} col {ti}");
            }
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_runs() {
        // One workspace across runs that change source, topic count
        // (sigma layout!), depth and pruning — every reused run must
        // reproduce the fresh-buffer run bit for bit.
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let mut mask = vec![false; 4];
        mask[2] = true;
        let depth = |d| PropagateOpts {
            max_depth: Some(d),
            ..Default::default()
        };
        let pruned = PropagateOpts {
            prune: Some(&mask),
            ..Default::default()
        };
        let specs: Vec<(NodeId, Vec<Topic>, PropagateOpts<'_>)> = vec![
            (NodeId(0), vec![Topic::Technology], PropagateOpts::default()),
            (
                NodeId(1),
                vec![Topic::Technology, Topic::Business, Topic::War],
                PropagateOpts::default(),
            ),
            (NodeId(0), vec![], depth(2)),
            (NodeId(0), vec![Topic::Social], pruned),
            (NodeId(3), vec![Topic::Technology], depth(0)),
        ];
        let mut ws = PropWorkspace::new();
        for (i, (source, topics, opts)) in specs.iter().enumerate() {
            if i == 1 {
                // Force the epoch wrap right after a run stamped at
                // epoch 1: the next run lands on 1 again and would alias
                // those stale words were the stamps not rewound.
                ws.run.run_epoch = u32::MAX;
            }
            let fresh = p.propagate(*source, topics, *opts);
            let reused = p.propagate_into(&mut ws, *source, topics, *opts);
            assert_same_bits(&g, &reused, &fresh);
        }
        assert_eq!(ws.run.run_epoch, 4, "wrapped through 0 to 1 and on");
    }

    /// `n`-node ring with chords: everything reaches everything.
    fn ring(n: usize) -> SocialGraph {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..n).map(|_| b.add_node(TopicSet::empty())).collect();
        for i in 0..n {
            let l = TopicSet::single(Topic::ALL[i % NUM_TOPICS]);
            b.add_edge(v[i], v[(i + 1) % n], l);
            b.add_edge(v[i], v[(i * 7 + 3) % n], l);
        }
        b.build()
    }

    #[test]
    fn one_workspace_across_graph_sizes_and_sigma_layouts() {
        // 50 ↔ 5 000 nodes and tc 18 → 1 → 0: the stamp array is sized
        // for the larger graph and carries stale words of the other
        // one, the sigma stride changes under the slots.
        let sim = SimMatrix::opencalais();
        let graphs = [ring(50), ring(5_000)];
        let auths = graphs.each_ref().map(AuthorityIndex::build);
        let mut ws = PropWorkspace::new();
        for round in 0..6 {
            let (g, idx) = (&graphs[(round + 1) % 2], &auths[(round + 1) % 2]);
            let p = Propagator::new(g, idx, &sim, params(), ScoreVariant::Full);
            let topics: &[Topic] = [&Topic::ALL[..], &[Topic::Social], &[]][round % 3];
            let source = NodeId(round as u32 * 7);
            let fresh = p.propagate(source, topics, PropagateOpts::default());
            let reused = p.propagate_into(&mut ws, source, topics, PropagateOpts::default());
            assert_same_bits(g, &reused, &fresh);
        }
    }

    #[test]
    fn node_reached_only_by_the_previous_run_reads_zero() {
        // Run A reaches 1, 2, 3 and leaves their stamp words and slot
        // numbers behind; run B from the sink reaches only itself and
        // must not alias them (slot 0 is B's source, mass 1).
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let mut ws = PropWorkspace::new();
        let a = p.propagate_into(&mut ws, NodeId(0), &Topic::ALL, PropagateOpts::default());
        assert!(a.topo_beta(NodeId(1)) > 0.0 && a.sigma(NodeId(3), Topic::Technology) > 0.0);
        let b = p.propagate_into(&mut ws, NodeId(3), &Topic::ALL, PropagateOpts::default());
        assert_eq!(b.reached(), &[NodeId(3)]);
        assert_eq!(b.topo_beta(NodeId(3)), 1.0);
        for v in [NodeId(0), NodeId(1), NodeId(2)] {
            assert_eq!(b.topo_beta(v), 0.0);
            assert_eq!(b.topo_alphabeta(v), 0.0);
            assert_eq!(b.sigma(v, Topic::Technology), 0.0);
            assert_eq!(b.recommendation_vector(v).get(Topic::Technology), 0.0);
        }
    }

    #[test]
    fn sigma_lookup_matches_linear_scan() {
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let p = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        // Duplicate topic: the cached lookup must keep first-occurrence
        // semantics, like the `position` scan it replaces.
        let topics = [Topic::Technology, Topic::Business, Topic::Technology];
        let r = p.propagate(NodeId(0), &topics, PropagateOpts::default());
        for v in g.nodes() {
            for t in Topic::ALL {
                let scanned = match topics.iter().position(|&q| q == t) {
                    Some(ti) => r.sigma_at(v, ti),
                    None => 0.0,
                };
                assert_eq!(r.sigma(v, t).to_bits(), scanned.to_bits(), "{v} {t}");
            }
        }
    }

    #[test]
    fn sim_cache_is_shareable_across_variants() {
        let g = diamond();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let cache = Arc::new(SimRowCache::build(&g, &sim));
        assert_eq!(cache.num_rows(), g.num_label_sets());
        let full =
            Propagator::with_sim_cache(&g, &idx, Arc::clone(&cache), params(), ScoreVariant::Full);
        let fresh = Propagator::new(&g, &idx, &sim, params(), ScoreVariant::Full);
        let a = full.propagate(NodeId(0), &[Topic::Technology], PropagateOpts::default());
        let b = fresh.propagate(NodeId(0), &[Topic::Technology], PropagateOpts::default());
        for v in g.nodes() {
            assert_eq!(
                a.sigma(v, Topic::Technology).to_bits(),
                b.sigma(v, Topic::Technology).to_bits()
            );
        }
        // The ablation sharing the cache still neutralises its factor.
        let no_sim = Propagator::with_sim_cache(
            &g,
            &idx,
            Arc::clone(&cache),
            params(),
            ScoreVariant::NoSimilarity,
        );
        let c = no_sim.propagate(NodeId(0), &[Topic::Technology], PropagateOpts::default());
        assert!(c.sigma(NodeId(1), Topic::Technology) > 0.0);
    }

    #[test]
    #[should_panic(expected = "do not match this graph")]
    fn mismatched_sim_cache_is_rejected() {
        let g = diamond();
        let mut b = GraphBuilder::new();
        let x = b.add_node(TopicSet::empty());
        let y = b.add_node(TopicSet::empty());
        b.add_edge(x, y, TopicSet::single(Topic::War));
        b.add_edge(y, x, TopicSet::single(Topic::Health));
        let other = b.build();
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let cache = Arc::new(SimRowCache::build(&other, &sim));
        let _ = Propagator::with_sim_cache(&g, &idx, cache, params(), ScoreVariant::Full);
    }

    #[test]
    #[should_panic(expected = "do not match this graph")]
    fn sim_cache_of_an_equally_long_label_table_is_rejected() {
        let g = diamond();
        let mut b = GraphBuilder::new();
        let x = b.add_node(TopicSet::empty());
        let y = b.add_node(TopicSet::empty());
        b.add_edge(x, y, TopicSet::single(Topic::War));
        let other = b.build();
        assert_eq!(other.num_label_sets(), g.num_label_sets());
        let idx = AuthorityIndex::build(&g);
        let sim = SimMatrix::opencalais();
        let cache = Arc::new(SimRowCache::build(&other, &sim));
        let _ = Propagator::with_sim_cache(&g, &idx, cache, params(), ScoreVariant::Full);
    }
}
