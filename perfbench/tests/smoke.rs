//! Smoke test of the benchmark binary: every workload at tiny scale,
//! untraced and traced, must print a result line carrying exactly the
//! metrics `BENCHMARK.json` names; a corrupted reference must show up
//! as failed operations; a set `DISE_*` variable must be refused.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["paper-eval", "observer-replay", "session-service"];

fn perfbench(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs")
}

/// Run one workload at tiny scale and return its result line.
fn result_line(workload: &str, trace: &str, extra: &[&str]) -> String {
    let mut args =
        vec!["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace, "--tiny"];
    args.extend_from_slice(extra);
    let out = perfbench(&args);
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = spec.find(&format!("\"{section}\"")).expect("section present");
    let body = &spec[start..start + spec[start..].find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn reported(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Each chunk but the last ends with `"<name>": `.
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk.trim_end().trim_end_matches(':').trim_end_matches('"'))
        .map(|head| head.rsplit('"').next().expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = declared(section);
        assert!(!names.is_empty(), "{section} declares metrics");
        for w in WORKLOADS {
            let line = result_line(w, trace, &[]);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{w}: {line}");
            assert!(line.contains("\"failed\": 0,"), "{w}: {line}");
            assert_eq!(reported(&line), names, "{w} --trace {trace}");
        }
    }
}

#[test]
fn a_corrupted_reference_yields_failures() {
    for w in WORKLOADS {
        let line = result_line(w, "0", &["--corrupt-reference"]);
        assert!(line.starts_with("{\"correct\": false"), "{w}: {line}");
        assert!(!line.contains("\"failed\": 0,"), "{w}: error_rate must be > 0: {line}");
    }
}

#[test]
fn a_dise_variable_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "paper-eval", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .env("DISE_JOBS", "1")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
}
