//! Seeded differential conformance suite.
//!
//! Drives `fui-testkit`'s oracle over every corpus preset: each case
//! computes σ exhaustively, via the propagation engine, and (on
//! acyclic instances) via an exact-cover landmark placement, and the
//! three must agree to 1e-9 with identical top-k orderings.
//!
//! Every case seed derives from one run seed, overridable with
//! `FUI_TESTKIT_SEED` (decimal or `0x`-hex). Outcomes are logged to a
//! `BENCH_conformance*.json` manifest under `target/conformance/`
//! *before* any assertion fires, so a red run always ships the exact
//! seeds needed to replay it:
//!
//! ```text
//! FUI_TESTKIT_SEED=0x1234 cargo test --test conformance
//! ```

use std::path::PathBuf;

use fui_testkit::corpus::{self, Preset};
use fui_testkit::rng::derive_seed;
use fui_testkit::{gen, invariants, oracle, reference, SeedLog};

/// Default run seed; CI overrides via `FUI_TESTKIT_SEED` when hunting.
const DEFAULT_RUN_SEED: u64 = 0xF01D_1FFE_DB20_1600;

/// Differential cases per preset; 5 presets × 48 = 240 total cases,
/// above the 200-case floor the suite promises.
const CASES_PER_PRESET: u64 = 48;

fn manifest_dir() -> PathBuf {
    PathBuf::from("target").join("conformance")
}

/// Runs `check` over `cases_per_preset` seeded cases per preset,
/// minimizing any failure and writing the seed-log manifest before
/// panicking.
fn run_suite(
    suite: &str,
    cases_per_preset: u64,
    check: impl Fn(&gen::GraphCase) -> Result<(), String>,
) -> usize {
    let run_seed = fui_testkit::seedlog::run_seed_from_env(DEFAULT_RUN_SEED);
    let mut log = SeedLog::new(suite, run_seed);
    for (stream, &preset) in Preset::ALL.iter().enumerate() {
        for i in 0..cases_per_preset {
            let seed = derive_seed(run_seed, stream as u64, i);
            let case = corpus::generate(preset, seed);
            let mut result = check(&case);
            if let Err(full) = &result {
                // Shrink to the smallest failing instance; report both
                // the original and the minimized divergence.
                let (small, small_err) = gen::minimize(&case, &check);
                result = Err(format!(
                    "{full}\nminimized to {} nodes / {} edges ({}): {small_err}",
                    small.num_nodes,
                    small.edges.len(),
                    small.repro(),
                ));
            }
            log.record(&case, &result);
        }
    }
    let path = log
        .write_manifest(&manifest_dir())
        .expect("write conformance manifest");
    let failures = log.failures();
    assert!(
        failures.is_empty(),
        "{suite}: {}/{} cases diverged (run_seed={run_seed:#018x}, \
         replay keys: {}; manifest: {}):\n{}",
        failures.len(),
        log.len(),
        log.failing_keys(),
        path.display(),
        failures[0].error.as_deref().unwrap_or(""),
    );
    log.len()
}

/// The tentpole: 240 seeded three-way differential cases.
#[test]
fn differential_oracle_240_cases() {
    let cases = run_suite("conformance", CASES_PER_PRESET, oracle::run_case_checks);
    assert!(cases >= 200, "suite shrank below the 200-case floor");
}

/// Metamorphic invariants on a second, independent sweep: σ monotone
/// in α and β, Katz monotone under edge addition, permutation
/// invariance of node relabeling.
#[test]
fn metamorphic_invariants() {
    run_suite("conformance_invariants", CASES_PER_PRESET, |case| {
        invariants::check_sigma_monotone_alpha(case)?;
        invariants::check_sigma_monotone_beta(case)?;
        invariants::check_katz_monotone_edge_addition(case)?;
        invariants::check_permutation_invariance(case)
    });
}

/// Taxonomy axioms: `sim(t,t) = 1`, Wu–Palmer symmetry, range [0,1].
#[test]
fn similarity_axioms() {
    invariants::check_similarity_axioms().unwrap();
}

/// Serial vs parallel landmark preprocessing must byte-match, and
/// `par_map` σ computations must be bit-identical across widths.
/// (The CI conformance job additionally runs the whole suite under
/// `FUI_THREADS=1` and `FUI_THREADS=4`.)
#[test]
fn pool_width_invariance() {
    run_suite("conformance_width", 12, |case| {
        invariants::check_pool_width_invariance(case, 4)
    });
}

/// Zero-allocation path conformance: propagation through a reused
/// `PropWorkspace` must be bit-identical to fresh-buffer runs, and
/// workspace-pooled batched queries must equal serial ones, on every
/// corpus preset. The CI conformance matrix runs this whole binary at
/// `FUI_THREADS=1` and `FUI_THREADS=4`.
#[test]
fn workspace_reuse_bit_equality() {
    run_suite("conformance_workspace", 12, |case| {
        invariants::check_workspace_reuse_matches_fresh(case)
    });
}

/// The propagation kernel against the *old* kernel, not against
/// itself: production runs must equal `reference::dense_propagate` —
/// the level sweep over plain node-dense buffers — bit for bit over
/// every preset × `tc ∈ {0, 1, 3, 18}` × pruned/unpruned × depth
/// {0, 2, cap, converge}. The CI conformance matrix runs this binary
/// at `FUI_THREADS=1` and `FUI_THREADS=4`.
#[test]
fn kernel_matches_dense_reference() {
    run_suite("conformance_dense", 12, |case| {
        invariants::check_kernel_matches_dense_reference(case)
    });
}

/// The one graph edit against its definition: seeded churn (in-order
/// `apply_changes` with later-wins runs, insert-after-remove, unions
/// into existing edges, empty-label inserts) through the sorted merge
/// must equal `reference::rebuild_with_changes` — the resulting edge
/// set packed from scratch — arena for arena, four chained rounds per
/// case. 16 cases per preset × 5 presets = 80 seeded cases; the CI
/// conformance matrix runs this binary at `FUI_THREADS=1` and
/// `FUI_THREADS=4`.
#[test]
fn edit_matches_rebuild() {
    let cases = run_suite("conformance_edit", 16, |case| {
        invariants::check_edit_matches_rebuild(case)
    });
    assert!(cases >= 64, "edit suite shrank below the 64-case floor");
}

/// The authority index a fleet publishes after seeded churn and a
/// rotate — wide labels, an unfollow of a topic's maximum holder — is
/// the index a build over the rotated graph makes, bitwise, at 1, 2 and
/// 4 shards. The contract a per-delta patch of the counts must keep.
#[test]
fn rotated_authority_matches_build() {
    run_suite("conformance_authority", 8, |case| {
        invariants::check_rotated_authority_matches_build(case)
    });
}

/// Serving-layer conformance: under seeded interleavings of queries,
/// edge updates, snapshot rotations, landmark refreshes and
/// submit/pump bursts, every reply must be bit-identical to a fresh
/// uncached recommender on the currently published snapshot, every
/// accepted request must be answered, and sheds must be explicit. The
/// CI conformance matrix runs this binary at `FUI_THREADS=1` and
/// `FUI_THREADS=4`.
#[test]
fn serving_cache_is_invisible() {
    run_suite("conformance_service", 12, |case| {
        invariants::check_cached_matches_uncached(case)
    });
}

/// Sharding invisibility: the same seeded serving interleavings driven
/// through the unsharded engine and through 2- and 4-shard
/// scatter/gather fleets (partition strategy alternating by seed
/// parity) must produce bit-identical reply fingerprints — epochs,
/// node orderings, score bits, rotation epochs, refresh counts — plus
/// a tie-heavy star coda pinning the id-ascending merge cut. 24 cases
/// per preset × 5 presets = 120 seeded interleavings, and the CI
/// conformance matrix runs this binary at `FUI_THREADS=1` and
/// `FUI_THREADS=4`.
#[test]
fn sharding_is_invisible() {
    run_suite("conformance_shard", 24, |case| {
        invariants::check_sharded_matches_unsharded(case)
    });
}

/// Tracing invisibility: the same seeded serving interleaving replayed
/// at `FUI_TRACE_SAMPLE` 0.0 / 0.5 / 1.0 (obs level forced to `Full`
/// so capture is live) must produce bit-identical reply fingerprints —
/// node ids, score bits, cached flags, epochs and shed patterns. The
/// CI conformance matrix runs this binary at `FUI_THREADS=1` and
/// `FUI_THREADS=4`, covering both widths.
#[test]
fn tracing_is_invisible() {
    run_suite("conformance_trace", 12, |case| {
        invariants::check_tracing_is_invisible(case)
    });
}

/// Transport conformance: the same seeded sequence of queries,
/// follow/unfollow churn, rotations, refreshes, snapshot/restore
/// requests and deliberately invalid requests driven over live
/// sockets to a line listener and an HTTP listener of the `fui-net`
/// event loop (identically built services behind each) must produce
/// byte-identical reply lines — including exact `f64` score text and
/// error strings — with HTTP statuses agreeing with the reply class.
/// The CI conformance matrix runs this binary at `FUI_THREADS=1` and
/// `FUI_THREADS=4`.
#[test]
fn http_frontend_matches_line_protocol() {
    run_suite("conformance_http", 12, |case| {
        invariants::check_http_matches_line_protocol(case)
    });
}

/// Mutation sanity: a deliberate bug injected into a copy of the
/// authority normalizer — an off-by-one, or the same formula
/// reassociated — must be *caught* by the bitwise oracle on every
/// instance where it is observable, on the corpus graph and on its
/// widened twin (edges over the whole vocabulary, one node unfollowed)
/// — proof the harness has teeth.
#[test]
fn mutation_check_has_teeth() {
    run_suite("conformance_mutation", 24, |case| {
        reference::check_mutations_are_caught(&case.graph())?;
        reference::check_mutations_are_caught(&case.widened().graph())
    });
}
