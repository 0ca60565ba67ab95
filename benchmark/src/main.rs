//! The repo's benchmark: four workloads over the 1M-node serving
//! stack, measured end to end (untraced) and layer by layer (traced).
//!
//! ```text
//! fui-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One run builds the service from generated inputs, drives it,
//! checks the answers, prints every metric as a `name value unit`
//! line, writes `benchmark/out/<workload>.json` (and, traced,
//! `<workload>.trace.json`), and ends with the one-line JSON result.
//! The exit code is non-zero if any output check failed.

mod batch;
mod fixture;
mod http;
mod layers;
mod loadgen;
mod proc_stat;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use fixture::Scale;

/// The workloads (why each exists is in `BENCHMARK.json` and the README).
const WORKLOADS: &[&str] = &["steady_cold", "steady_hot", "churn_mixed", "batch_restart"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated graph and schedule.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: u64,
    /// Traced run: per-layer metrics and the trace file.
    pub trace: bool,
    /// Development scale (20k nodes); results are not written.
    pub smoke: bool,
    /// How many times set-up is repeated for the `setup_s` median.
    pub setup_reps: usize,
}

fn usage() -> String {
    format!(
        "usage: fui-benchmark --workload <{}> [--seed <n>] [--seconds <1..60>] [--trace <0|1>] [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: fixture::DEFAULT_SEED,
        seconds: 15,
        trace: false,
        smoke: false,
        setup_reps: 3,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.smoke {
        if !seconds_given {
            args.seconds = 2;
        }
        args.setup_reps = 1;
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    // The program's environment is pinned: cheap counters untraced,
    // full registry (histograms, span stats) traced, no request
    // sampling either way, pool width from the host.
    std::env::set_var("FUI_OBS", if args.trace { "full" } else { "counters" });
    std::env::set_var("FUI_TRACE_SAMPLE", "0");
    std::env::remove_var("FUI_THREADS");

    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let result = match args.workload.as_str() {
        "steady_cold" => http::run(&http::STEADY_COLD, &args, scale, process_start),
        "steady_hot" => http::run(&http::STEADY_HOT, &args, scale, process_start),
        "churn_mixed" => http::run(&http::CHURN_MIXED, &args, scale, process_start),
        _ => batch::run(&args, scale, process_start),
    };

    println!(
        "# workload {} seed {} seconds {} trace {} nodes {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        scale.nodes,
        fui_exec::threads()
    );
    report::print_report(&result, args.trace);
    if !args.smoke {
        // Smoke numbers are for development and never recorded.
        let dir = layers::out_dir();
        let name = if args.trace {
            format!("{}.traced.json", args.workload)
        } else {
            format!("{}.json", args.workload)
        };
        let text =
            report::result_file(&result, &args.workload, args.seed, args.seconds, args.trace);
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(&name), text))
        {
            eprintln!("could not write {}: {e}", dir.join(&name).display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report::result_line(&result, args.trace));
    if result.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload churn_mixed --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn_mixed", 42, 10, true)
        );
        let d = parse_args(&argv("--workload steady_hot")).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.setup_reps),
            (0xEDB7_2016, 15, false, 3)
        );
        let s = parse_args(&argv("--workload steady_hot --smoke --seed 0xff")).unwrap();
        assert_eq!((s.seed, s.seconds, s.setup_reps), (255, 2, 1));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload steady_hot --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload steady_hot --trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }
}
