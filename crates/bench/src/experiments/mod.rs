//! One runner per table/figure of the paper's evaluation section.
//!
//! | runner | paper artifact |
//! |---|---|
//! | [`table2::run`] | Table 2 — dataset topological properties |
//! | [`fig3::run`] | Figure 3 — distribution of edges per topic |
//! | [`linkpred::fig4_5`] | Figures 4 & 5 — recall@N and precision/recall (Twitter) |
//! | [`linkpred::fig6_7`] | Figures 6 & 7 — recall@N and precision/recall (DBLP) |
//! | [`fig8::run`] | Figure 8 — recall w.r.t. account popularity |
//! | [`fig9::run`] | Figure 9 — recall w.r.t. topic popularity |
//! | [`fig10::run`] | Figure 10 — simulated user validation (Twitter) |
//! | [`table3::run`] | Table 3 — simulated user validation (DBLP) |
//! | [`landmark_tables::run`] | Tables 5 & 6 — landmark selection cost and approximate-query quality |
//! | [`sweep::run`] | extra ablation — β against the Prop. 3 convergence bound |
//! | [`dynamic::run`] | extra — landmark staleness + refresh policy under follow churn (the paper's future work) |
//! | [`trank_dt::run`] | extra — TwitterRank DT-source ablation (classifier vs LDA vs ground truth) |
//! | [`sig::run`] | extra — paired-bootstrap significance of the Figure-4 orderings |
//! | [`popularity::run`] | extra — PageRank vs TwitterRank vs Tr popularity decomposition |
//! | [`propagate_micro::run`] | extra — zero-allocation propagation micro-cell gated by CI (`bench_gate.py gate`) |
//! | [`serve_micro::run`] | extra — online serving closed loop (queries × updates × rotations) gated by CI (`bench_gate.py gate`) |
//! | [`table5_large::run`] | extra — paper-scale (1M+ node) streamed-CSR preprocess/query cell gated by CI (`bench_gate.py gate`); not part of `all` |
//! | [`warmstart::run`] | extra — durable cold-build vs warm-restart cell on the table5 graph gated by CI (`bench_gate.py gate`); not part of `all` |
//! | [`load_micro::run`] | extra — open-loop HTTP serving cell (fui-load against the fui-net event loop) gated by CI (`bench_gate.py gate`); not part of `all` |

pub mod dynamic;
pub mod fig10;
pub mod fig3;
pub mod fig8;
pub mod fig9;
pub mod landmark_tables;
pub mod linkpred;
pub mod load_micro;
pub mod popularity;
pub mod propagate_micro;
pub mod serve_micro;
pub mod sig;
pub mod sweep;
pub mod table2;
pub mod table3;
pub mod table5_large;
pub mod trank_dt;
pub mod warmstart;
mod workload;
