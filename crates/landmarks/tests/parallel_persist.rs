//! The determinism acceptance test of the parallel runtime: a
//! landmark index preprocessed on the pool must **byte-match** the
//! serial loop (`build_parallel(.., 1)`) through the `persist`
//! round-trip, for every pool width and for `build` at the width
//! `FUI_THREADS` configures. CI runs this under `FUI_THREADS=1` and
//! `FUI_THREADS=4` to prove the property in the pipeline, not just
//! locally.

use fui_core::{AuthorityIndex, Propagator, ScoreParams, ScoreVariant};
use fui_datagen::{label_direct, twitter, TwitterConfig};
use fui_graph::NodeId;
use fui_landmarks::{persist, LandmarkIndex};
use fui_taxonomy::SimMatrix;

fn fixture() -> (fui_datagen::LabeledDataset, AuthorityIndex) {
    let d = label_direct(twitter::generate(&TwitterConfig::tiny()));
    let idx = AuthorityIndex::build(&d.graph);
    (d, idx)
}

#[test]
fn parallel_index_bytes_match_serial_at_every_width() {
    let (d, auth) = fixture();
    let sim = SimMatrix::opencalais();
    let p = Propagator::new(
        &d.graph,
        &auth,
        &sim,
        ScoreParams::default(),
        ScoreVariant::Full,
    );
    let landmarks: Vec<NodeId> = (0..12).map(|i| NodeId(i * 29 % 400)).collect();
    let n = d.graph.num_nodes();

    let serial = LandmarkIndex::build_parallel(&p, landmarks.clone(), 40, 1);
    let serial_bytes = persist::encode(&serial, n);

    let pooled = LandmarkIndex::build(&p, landmarks.clone(), 40);
    assert!(
        serial_bytes.as_ref() == persist::encode(&pooled, n).as_ref(),
        "build at the configured width differs from the serial loop"
    );
    for width in [2usize, 8] {
        let parallel = LandmarkIndex::build_parallel(&p, landmarks.clone(), 40, width);
        let parallel_bytes = persist::encode(&parallel, n);
        assert_eq!(
            serial_bytes.len(),
            parallel_bytes.len(),
            "snapshot size drifted at width {width}"
        );
        assert!(
            serial_bytes.as_ref() == parallel_bytes.as_ref(),
            "persisted index bytes differ from serial at width {width}"
        );
    }
}

#[test]
fn pool_width_from_env_round_trips_through_persist() {
    // Whatever FUI_THREADS the pipeline sets, build must decode
    // back to the serial loop's index exactly.
    let (d, auth) = fixture();
    let sim = SimMatrix::opencalais();
    let p = Propagator::new(
        &d.graph,
        &auth,
        &sim,
        ScoreParams::default(),
        ScoreVariant::Full,
    );
    let landmarks: Vec<NodeId> = (0..9).map(|i| NodeId(i * 41 % 400)).collect();
    let n = d.graph.num_nodes();

    let pooled = LandmarkIndex::build(&p, landmarks.clone(), 25);
    let (decoded, n2) = persist::decode(persist::encode(&pooled, n)).expect("round trip");
    assert_eq!(n, n2);

    let serial = LandmarkIndex::build_parallel(&p, landmarks, 25, 1);
    assert_eq!(decoded.landmarks(), serial.landmarks());
    assert_eq!(decoded.top_n(), serial.top_n());
    for (slot, &l) in serial.landmarks().iter().enumerate() {
        let (a, b) = (serial.entry_at(slot), decoded.entry(l).expect("entry"));
        assert_eq!(a.topo.len(), b.topo.len());
        for (x, y) in a.topo.iter().zip(&b.topo) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.sigma.to_bits(), y.sigma.to_bits());
            assert_eq!(x.topo.to_bits(), y.topo.to_bits());
        }
        for (la, lb) in a.recs.iter().zip(&b.recs) {
            assert_eq!(la.len(), lb.len());
            for (x, y) in la.iter().zip(lb) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.sigma.to_bits(), y.sigma.to_bits());
                assert_eq!(x.topo.to_bits(), y.topo.to_bits());
            }
        }
    }
}
