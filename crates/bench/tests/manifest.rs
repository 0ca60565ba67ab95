//! End-to-end check of the `experiments` binary's observability
//! surface: `table5 --smoke --manifest` must exit cleanly and write a
//! `BENCH_table5.json` that is well-formed JSON carrying nonzero
//! propagation/landmark counters and the per-phase span timings.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fui_bench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Minimal recursive-descent JSON validity checker (the workspace has
/// no serde): returns the rest of the input after one JSON value.
fn json_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    match chars.next().map(|(_, c)| c) {
        Some('{') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix('}') {
                return Ok(r);
            }
            loop {
                rest = json_string(rest)?.trim_start();
                rest = rest
                    .strip_prefix(':')
                    .ok_or_else(|| format!("expected ':' at {:.20}", rest))?;
                rest = json_value(rest)?.trim_start();
                match rest.chars().next() {
                    Some(',') => rest = rest[1..].trim_start(),
                    Some('}') => return Ok(&rest[1..]),
                    other => return Err(format!("bad object separator {other:?}")),
                }
            }
        }
        Some('[') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return Ok(r);
            }
            loop {
                rest = json_value(rest)?.trim_start();
                match rest.chars().next() {
                    Some(',') => rest = rest[1..].trim_start(),
                    Some(']') => return Ok(&rest[1..]),
                    other => return Err(format!("bad array separator {other:?}")),
                }
            }
        }
        Some('"') => json_string(s),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(s.len());
            s[..end]
                .parse::<f64>()
                .map_err(|e| format!("bad number {:?}: {e}", &s[..end]))?;
            Ok(&s[end..])
        }
        _ => ["true", "false", "null"]
            .iter()
            .find_map(|lit| s.strip_prefix(lit))
            .ok_or_else(|| format!("unexpected token at {:.20}", s)),
    }
}

fn json_string(s: &str) -> Result<&str, String> {
    let body = s
        .strip_prefix('"')
        .ok_or_else(|| format!("expected string at {:.20}", s))?;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match (escaped, c) {
            (true, _) => escaped = false,
            (false, '\\') => escaped = true,
            (false, '"') => return Ok(&body[i + 1..]),
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn assert_valid_json(text: &str) {
    let rest = json_value(text).expect("manifest must be valid JSON");
    assert!(rest.trim().is_empty(), "trailing garbage: {rest:.40}");
}

/// Extracts `"name": <integer>` from the flat counter section.
fn counter_value(json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("counter {name} missing from manifest"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("counter {name} is not an integer"))
}

#[test]
fn table5_smoke_manifest_is_valid_and_populated() {
    let dir = scratch_dir("table5");
    let out = Command::new(BIN)
        .args(["table5", "--smoke", "--manifest"])
        .arg(&dir)
        .output()
        .expect("spawn experiments binary");
    assert!(
        out.status.success(),
        "exit {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );

    let path = dir.join("BENCH_table5.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("manifest {} not written: {e}", path.display()));
    assert_valid_json(&json);

    assert!(json.contains("\"id\": \"table5\""));
    assert!(json.contains("\"seed\": \"0x"));
    assert!(
        counter_value(&json, "propagate.edges_relaxed") > 0,
        "propagation ran"
    );
    assert!(
        counter_value(&json, "landmark.pruned_at") > 0,
        "landmark queries pruned at landmarks"
    );
    assert!(counter_value(&json, "landmark.query.landmarks_met") > 0);
    // Per-phase spans of the experiment itself.
    for phase in ["table5.selection", "table5.preprocess", "table5.query"] {
        assert!(
            json.contains(&format!("\"path\": \"{phase}\"")),
            "span {phase} missing"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_smoke_manifest_is_valid_and_populated() {
    let dir = scratch_dir("serve");
    let out = Command::new(BIN)
        .args(["serve_micro", "--smoke", "--manifest"])
        .arg(&dir)
        .output()
        .expect("spawn experiments binary");
    assert!(
        out.status.success(),
        "exit {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );

    let path = dir.join("BENCH_serve_micro.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("manifest {} not written: {e}", path.display()));
    assert_valid_json(&json);

    assert!(json.contains("\"id\": \"serve_micro\""));
    // The acceptance workload: 10k+ queries, 1k+ updates, 10+
    // rotations, every accepted request answered.
    let queries = counter_value(&json, "serve_micro.queries");
    let answered = counter_value(&json, "serve_micro.answered");
    let requests = counter_value(&json, "service.requests");
    let shed = counter_value(&json, "service.shed");
    assert!(queries >= 10_000, "got {queries} queries");
    assert!(counter_value(&json, "serve_micro.updates") >= 1_000);
    assert!(counter_value(&json, "service.snapshot.rotations") >= 10);
    assert_eq!(answered + shed, queries, "no request may vanish");
    assert_eq!(requests, answered, "service answered what the loop saw");
    assert!(counter_value(&json, "service.cache.hits") > 0);
    assert!(counter_value(&json, "service.cache.misses") > 0);
    assert!(counter_value(&json, "landmarks.dynamic.records") >= 1_000);
    // Latency histogram + the drive spans.
    assert!(json.contains("\"service.request_latency\""));
    for span in [
        "serve_micro.drive",
        "serve_micro.drive/service.request",
        "serve_micro.drive/service.rotate",
    ] {
        assert!(
            json.contains(&format!("\"path\": \"{span}\"")),
            "span {span} missing"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = Command::new(BIN).arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: experiments"));
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    for args in [&["--frobnicate"][..], &["not_an_experiment"], &["--nodes"]] {
        let out = Command::new(BIN).args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "args {args:?}: {err}");
        assert!(err.contains("usage: experiments"), "args {args:?}");
    }
}
