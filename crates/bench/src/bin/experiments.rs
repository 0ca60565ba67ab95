//! Experiment driver: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! Run `experiments --help` (or see [`fui_bench::cli::USAGE`]) for the
//! id list and flags. With `--manifest PATH` the driver switches the
//! fui-obs registry to full recording and, after each requested id,
//! writes a JSON run manifest (`BENCH_<id>.json`) capturing every
//! counter, gauge, histogram and span timing the run produced.

use std::path::Path;
use std::process::ExitCode;

use fui_bench::cli::{self, CliOptions, CliOutcome};
use fui_bench::datasets::ExperimentScale;
use fui_bench::experiments as exp;
use fui_obs as obs;

fn run_one(id: &str, scale: &ExperimentScale) -> Vec<(String, String)> {
    match id {
        "table2" => vec![("table2".into(), exp::table2::run(scale))],
        "fig3" => vec![("fig3".into(), exp::fig3::run(scale))],
        // Figures 4/5 and 6/7 come from one protocol run each.
        "fig4" | "fig5" | "fig4_5" => {
            vec![("fig4_5".into(), exp::linkpred::fig4_5(scale))]
        }
        "fig6" | "fig7" | "fig6_7" => {
            vec![("fig6_7".into(), exp::linkpred::fig6_7(scale))]
        }
        "fig8" => vec![("fig8".into(), exp::fig8::run(scale))],
        "fig9" => vec![("fig9".into(), exp::fig9::run(scale))],
        "fig10" => vec![("fig10".into(), exp::fig10::run(scale))],
        "table3" => vec![("table3".into(), exp::table3::run(scale))],
        // Tables 5 and 6 come from one measurement pass.
        "table5" | "table6" | "table5_6" => {
            vec![("table5_6".into(), exp::landmark_tables::run(scale))]
        }
        "sweep" => vec![("sweep".into(), exp::sweep::run(scale))],
        "dynamic" => vec![("dynamic".into(), exp::dynamic::run(scale))],
        "trank_dt" => vec![("trank_dt".into(), exp::trank_dt::run(scale))],
        "sig" => vec![("sig".into(), exp::sig::run(scale))],
        "popularity" => vec![("popularity".into(), exp::popularity::run(scale))],
        "propagate_micro" => {
            vec![("propagate_micro".into(), exp::propagate_micro::run(scale))]
        }
        "serve_micro" => vec![("serve_micro".into(), exp::serve_micro::run(scale))],
        // Paper-scale cell: explicit opt-in only — a 1M+-node build
        // has no place in the laptop-friendly `all` sweep.
        "table5_large" => vec![("table5_large".into(), exp::table5_large::run(scale))],
        // Durable warm-restart cell: rides the same streamed graph —
        // explicit opt-in only, for the same reason.
        "warmstart" => vec![("warmstart".into(), exp::warmstart::run(scale))],
        // Sharded-serving speedup cell: also rides the streamed graph
        // (twice, in fact) — explicit opt-in only.
        "shard_micro" => vec![("shard_micro".into(), exp::shard_micro::run(scale))],
        // Open-loop HTTP serving cell: ~6 wall-seconds of scheduled
        // traffic plus drain — explicit opt-in only.
        "load_micro" => vec![("load_micro".into(), exp::load_micro::run(scale))],
        "all" => {
            let ids = [
                "table2",
                "fig3",
                "fig4_5",
                "fig6_7",
                "fig8",
                "fig9",
                "fig10",
                "table3",
                "table5_6",
                "sweep",
                "dynamic",
                "trank_dt",
                "sig",
                "popularity",
                "propagate_micro",
                "serve_micro",
            ];
            ids.iter().flat_map(|i| run_one(i, scale)).collect()
        }
        // cli::parse validated the id against cli::KNOWN_IDS.
        other => unreachable!("id {other:?} passed validation but has no runner"),
    }
}

fn manifest_for(id: &str, scale: &ExperimentScale) -> obs::RunManifest {
    obs::RunManifest::new(id)
        .param_int("exec_threads", fui_exec::threads() as i64)
        .param_int("twitter_nodes", scale.twitter_nodes as i64)
        .param_float("twitter_avg_out", scale.twitter_avg_out)
        .param_int("dblp_nodes", scale.dblp_nodes as i64)
        .param_float("dblp_avg_out", scale.dblp_avg_out)
        .param_int("test_size", scale.test_size as i64)
        .param_int("landmarks", scale.landmarks as i64)
        .param_int("query_nodes", scale.query_nodes as i64)
        .param_int("trials", scale.trials as i64)
        .param_int("large_nodes", scale.large_nodes as i64)
        .param_float("large_avg_out", scale.large_avg_out)
        .param_str("seed", format!("{:#x}", scale.seed))
}

fn run(opts: &CliOptions) -> ExitCode {
    let scale = &opts.scale;
    if opts.manifest.is_some() && std::env::var_os("FUI_OBS").is_none() {
        // Manifests want span timings and histograms, not just the
        // cheap counters — default to full recording. An explicitly
        // set FUI_OBS wins: the CI trace gate compares a
        // `FUI_OBS=full` run against a `FUI_OBS=counters` one, both
        // with manifests.
        obs::set_level(obs::Level::Full);
    }
    eprintln!(
        "# scale: twitter {}x{:.0}, dblp {}x{:.0}, T={}, landmarks={}, queries={}, seed={:#x}",
        scale.twitter_nodes,
        scale.twitter_avg_out,
        scale.dblp_nodes,
        scale.dblp_avg_out,
        scale.test_size,
        scale.landmarks,
        scale.query_nodes,
        scale.seed
    );
    for id in &opts.ids {
        if opts.manifest.is_some() {
            // One manifest per requested id: drop metrics accumulated
            // by earlier ids so each file describes its own run only.
            obs::reset();
        }
        for (name, block) in run_one(id, scale) {
            println!("{block}");
            if let Some(dir) = &opts.out_dir {
                if let Err(e) = std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(format!("{dir}/{name}.txt"), &block))
                {
                    eprintln!("error: cannot write {dir}/{name}.txt: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        if let Some(target) = &opts.manifest {
            match manifest_for(id, scale).write(Path::new(target)) {
                Ok(path) => eprintln!("# manifest: {}", path.display()),
                Err(e) => {
                    eprintln!("error: cannot write manifest for {id} to {target}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match cli::parse(std::env::args().skip(1)) {
        Ok(CliOutcome::Help) => {
            println!("{}", cli::USAGE);
            ExitCode::SUCCESS
        }
        Ok(CliOutcome::Run(opts)) => run(&opts),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}
