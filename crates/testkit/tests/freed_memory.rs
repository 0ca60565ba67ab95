//! Memory the engine frees leaves the process: a `Service` built over
//! a 200k-node streamed graph, dropped, built again and dropped again
//! leaves the resident set (`VmRSS`) where it was before the first
//! build, within 5 % of the bytes the engine accounts for (graph,
//! authority index, landmark index and the one propagation workspace
//! the probe batch surely used).
//!
//! One test function on purpose — it reads the process's resident
//! set, and integration-test binaries run their tests in parallel
//! threads; a single `#[test]` in its own binary keeps every other
//! allocation out of the reading.

#[cfg(target_os = "linux")]
#[test]
fn a_dropped_engine_returns_its_memory() {
    use fui_core::{ScoreParams, ScoreVariant};
    use fui_datagen::{generate_streaming, StreamConfig};
    use fui_graph::NodeId;
    use fui_service::{Reply, Request, Service, ServiceConfig};
    use fui_taxonomy::{SimMatrix, Topic};

    /// `VmRSS` of this process, bytes.
    fn vm_rss() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
        let kb: usize = status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .expect("a VmRSS line");
        kb * 1024
    }

    /// Builds an engine over `nodes` nodes, answers a probe batch and
    /// drops it; returns the bytes it accounted for.
    fn engine(nodes: usize) -> usize {
        let cfg = StreamConfig {
            nodes,
            avg_out_degree: 8.0,
            seed: 0xF4EE_D00D,
            ..StreamConfig::default()
        };
        let graph = generate_streaming(&cfg).graph;
        let stride = (nodes / 48) as u32;
        let landmarks = (0..48).map(|i| NodeId(i * stride)).collect();
        let svc = Service::new(
            graph,
            SimMatrix::opencalais(),
            ScoreParams::default(),
            ScoreVariant::Full,
            landmarks,
            128,
            ServiceConfig::default(),
        );
        let reqs: Vec<Request> = (0..64)
            .map(|i| Request {
                user: NodeId(i * (nodes as u32 / 64)),
                topic: Topic::ALL[i as usize % Topic::ALL.len()],
                top_n: 10,
            })
            .collect();
        for reply in svc.call_many(&reqs) {
            assert!(matches!(reply, Reply::Result(_)), "{reply:?}");
        }
        let snap = svc.snapshot();
        let workspace = 8 * nodes;
        snap.graph.size_bytes()
            + snap.authority.size_bytes()
            + snap.index.resident_bytes()
            + workspace
    }

    // The pool's threads, their allocator arenas and the process-wide
    // tables and metric handles an engine creates on first use are not
    // the engine's: a small engine starts them before the first
    // reading.
    engine(20_000);
    let before = vm_rss();
    engine(200_000);
    let accounted = engine(200_000);
    let after = vm_rss();
    let kept = after.saturating_sub(before);
    assert!(
        kept * 20 <= accounted,
        "VmRSS {before} B before the first build, {after} B after the second drop: \
         {kept} B kept, more than 5 % of the engine's {accounted} B"
    );
}
