//! Argument parsing for the `experiments` binary, separated from the
//! binary so the parser is unit-testable and failures surface as
//! printable errors (usage + nonzero exit) rather than panics.

use crate::datasets::ExperimentScale;

/// Experiment ids the driver understands (aliases included).
pub const KNOWN_IDS: &[&str] = &[
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "fig4_5",
    "fig6",
    "fig7",
    "fig6_7",
    "fig8",
    "fig9",
    "fig10",
    "table3",
    "table5",
    "table6",
    "table5_6",
    "sweep",
    "dynamic",
    "trank_dt",
    "sig",
    "popularity",
    "propagate_micro",
    "serve_micro",
    "table5_large",
    "warmstart",
    "shard_micro",
    "load_micro",
    "all",
];

/// Usage text printed by `--help` and on argument errors.
pub const USAGE: &str = "\
usage: experiments [<id>...] [flags]

ids:    table2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
        table3 table5 table6 sweep dynamic trank_dt sig
        popularity propagate_micro serve_micro all   (default: all)
        table5_large   paper-scale 1M+-node streamed-CSR cell
                       (explicit only — never part of `all`)
        warmstart      durable cold-build vs warm-restart cell on the
                       table5 graph (explicit only — never part of `all`)
        shard_micro    sharded scatter/gather serving cell on the table5
                       graph: one shard vs a 4-shard fleet, bit for bit
                       (explicit only — never part of `all`)
        load_micro     open-loop HTTP serving cell: fui-load drives
                       100k+ scheduled requests through the fui-net
                       event loop (explicit only — never part of
                       `all`)

flags:  --full            paper-shaped densities (slow)
        --smoke           tiny smoke-test scale
        --trials K        average the link-prediction figures over K trials
        --nodes N         Twitter-like node count
        --tests T         link-prediction test-set size
        --landmarks L     landmarks per strategy
        --queries Q       query nodes for Tables 5/6
        --seed S          master seed
        --out DIR         also write each block to DIR/<id>.txt
        --manifest PATH   write a JSON run manifest per id: counters,
                          gauges, histograms, span timings and the
                          trace summary from the fui-obs registry. PATH
                          ending in .json is the file; otherwise a
                          directory receiving BENCH_<id>.json
                          (defaults observability to full recording;
                          an explicitly set FUI_OBS env wins)
        --help            this text";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct CliOptions {
    /// Experiment ids to run, in order (never empty).
    pub ids: Vec<String>,
    /// Scale knobs assembled from the flags.
    pub scale: ExperimentScale,
    /// `--out` directory for the rendered text blocks.
    pub out_dir: Option<String>,
    /// `--manifest` target for JSON run manifests.
    pub manifest: Option<String>,
}

/// What the binary should do after parsing.
#[derive(Clone, Debug)]
pub enum CliOutcome {
    /// Run the experiments.
    Run(CliOptions),
    /// `--help` requested: print [`USAGE`] and exit 0.
    Help,
}

/// A reportable argument error (print message + usage, exit nonzero).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn value_of(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    args.next()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

fn usize_of(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, CliError> {
    let raw = value_of(args, flag)?;
    raw.parse()
        .map_err(|_| CliError(format!("{flag} needs an integer, got {raw:?}")))
}

/// Parses the argument list (without the program name).
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CliOutcome, CliError> {
    let mut args = args.into_iter();
    let mut scale = ExperimentScale::default();
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir = None;
    let mut manifest = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(CliOutcome::Help),
            "--full" => scale = ExperimentScale::full(),
            "--smoke" => scale = ExperimentScale::smoke(),
            "--nodes" => scale.twitter_nodes = usize_of(&mut args, "--nodes")?,
            "--tests" => scale.test_size = usize_of(&mut args, "--tests")?,
            "--landmarks" => scale.landmarks = usize_of(&mut args, "--landmarks")?,
            "--queries" => scale.query_nodes = usize_of(&mut args, "--queries")?,
            "--trials" => scale.trials = usize_of(&mut args, "--trials")?,
            "--seed" => scale.seed = usize_of(&mut args, "--seed")? as u64,
            "--out" => out_dir = Some(value_of(&mut args, "--out")?),
            "--manifest" => manifest = Some(value_of(&mut args, "--manifest")?),
            other if other.starts_with('-') => {
                return Err(CliError(format!("unknown flag {other}")));
            }
            id if KNOWN_IDS.contains(&id) => ids.push(id.to_owned()),
            other => {
                return Err(CliError(format!(
                    "unknown experiment id {other:?} (try `all`)"
                )));
            }
        }
    }
    if ids.is_empty() {
        ids.push("all".to_owned());
    }
    Ok(CliOutcome::Run(CliOptions {
        ids,
        scale,
        out_dir,
        manifest,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn defaults_to_all() {
        let CliOutcome::Run(o) = parse(argv("")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.ids, vec!["all"]);
        assert!(o.out_dir.is_none() && o.manifest.is_none());
    }

    #[test]
    fn flags_and_ids_combine() {
        let CliOutcome::Run(o) =
            parse(argv("table5 --smoke --seed 7 --manifest results/ dynamic")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(o.ids, vec!["table5", "dynamic"]);
        assert_eq!(o.scale.seed, 7);
        assert_eq!(o.manifest.as_deref(), Some("results/"));
    }

    #[test]
    fn help_wins() {
        assert!(matches!(
            parse(argv("table5 --help")).unwrap(),
            CliOutcome::Help
        ));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(parse(argv("--nodes")).is_err());
        assert!(parse(argv("--nodes abc")).is_err());
        assert!(parse(argv("--frobnicate")).is_err());
        assert!(parse(argv("not_an_experiment")).is_err());
    }

    #[test]
    fn every_documented_id_is_known() {
        for id in KNOWN_IDS {
            assert!(
                USAGE.contains(id) || *id == "fig4_5" || *id == "fig6_7" || *id == "table5_6",
                "{id} missing from usage text"
            );
        }
    }
}
