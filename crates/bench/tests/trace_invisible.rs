//! Tracing is inert when unsampled and bit-invisible when sampled.
//! What it costs is measured at 1M nodes by the benchmark's
//! `obs.trace_overhead_frac`, not asserted here.
//!
//! One test function on purpose — it mutates the process-global obs
//! level and trace sample rate, and integration-test binaries run
//! their tests in parallel threads; a single `#[test]` serialises
//! everything while still running as its own process, isolated from
//! the other test binaries.

use fui_bench::datasets::ExperimentScale;
use fui_bench::experiments::serve_micro;

#[test]
fn tracing_is_inert_unsampled_and_bit_invisible_sampled() {
    let scale = ExperimentScale::smoke();

    // --- Part 1: sample rate 0 performs zero ring writes. ---
    fui_obs::set_level(fui_obs::Level::Full);
    fui_obs::trace::set_sample(0.0);
    fui_obs::trace::clear();
    let captured = fui_obs::counter("trace.captured");
    let committed = fui_obs::counter("trace.committed");
    let (cap0, com0) = (captured.get(), committed.get());
    let baseline_checksum = serve_micro::measure(&scale).checksum;
    assert_eq!(
        fui_obs::trace::commit_count(),
        0,
        "sample rate 0 must add zero ring writes"
    );
    assert_eq!(fui_obs::trace::ring_len(), 0);
    assert_eq!(captured.get(), cap0, "no capture at sample rate 0");
    assert_eq!(committed.get(), com0);

    // --- Part 2: fully-sampled tracing is bit-invisible. ---
    fui_obs::trace::set_sample(1.0);
    let traced_checksum = serve_micro::measure(&scale).checksum;
    assert_eq!(
        traced_checksum.to_bits(),
        baseline_checksum.to_bits(),
        "tracing must not move the served bits"
    );
    assert!(
        fui_obs::trace::commit_count() > 0,
        "fully-sampled run must commit traces"
    );
}
