//! `perfbench` — the repository's benchmark: host time of the DISE
//! simulator on three workloads, end to end and per layer.
//!
//! ```text
//! perfbench --workload <paper-eval|observer-replay|session-service>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process on at most two worker
//! threads, with every knob passed explicitly (`run_overhead_grid_with`,
//! `serve`); the benchmark refuses to start when a `DISE_*` variable is
//! set, so it always measures the default configuration. Times are host
//! time. Simulated results (cycles, instructions, transitions,
//! overheads) are deterministic and serve only as the correctness check
//! against each workload's reference.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is the
//! separate traced run: it records spans around the benchmark's calls
//! into each layer, counts allocations, and prints the per-layer
//! metrics, a per-layer profile table and the tracing overhead. The
//! span log and the profile are also written under `.bench_work/`.
//! The last line of standard output is always one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--tiny` shrinks every workload to smoke-test scale and
//! `--corrupt-reference` falsifies one reference result; the smoke test
//! uses both.

mod alloc;
mod common;
mod gridwork;
mod layers;
mod measure;
mod observer_replay;
mod paper_eval;
mod probes;
mod session_service;
mod span;

use std::fmt::Write as _;
use std::path::PathBuf;

use common::Metric;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub corrupt_reference: bool,
}

/// Scratch directory for trace stores, span logs and profiles.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

const WORKLOADS: [&str; 3] = ["paper-eval", "observer-replay", "session-service"];

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut corrupt_reference) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--tiny" => tiny = true,
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        corrupt_reference,
    })
}

fn main() {
    if let Some((key, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("DISE_"))
    {
        fail(&format!(
            "{} is set; the benchmark measures the default configuration only — unset every DISE_* variable",
            key.to_string_lossy()
        ));
    }
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    if args.trace {
        span::set_enabled(true);
        alloc::enable();
    }
    std::fs::create_dir_all(work_dir())
        .unwrap_or_else(|e| fail(&format!("cannot create .bench_work: {e}")));

    let outcome = match args.workload.as_str() {
        "paper-eval" => paper_eval::run(&args),
        "observer-replay" => observer_replay::run(&args),
        _ => session_service::run(&args),
    };

    let mut text = String::new();
    for line in &outcome.notes {
        let _ = writeln!(text, "# {line}");
    }
    for line in &outcome.invariants.0 {
        let _ = writeln!(text, "# invariant failed: {line}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let _ = writeln!(
        text,
        "{:<34} {error_rate:>16.6} ratio ({} failed of {} attempted)",
        "error_rate", outcome.failed, outcome.attempted
    );
    for (name, unit, value) in &outcome.metrics {
        let _ = writeln!(text, "{name:<34} {value:>16.6} {unit}");
    }
    if args.trace {
        let spans = span::spans();
        let table = span::profile_table(&spans);
        text.push_str(&table);
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let dir = work_dir();
        let written = span::dump(&dir.join(format!("spans-{stem}.jsonl")), &spans)
            .and_then(|()| std::fs::write(dir.join(format!("profile-{stem}.txt")), &table));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write the span log: {e}");
        }
    }
    print!("{text}");
    for broken in &outcome.invariants.0 {
        eprintln!("perfbench: invariant failed: {broken}");
    }
    let correct = outcome.invariants.0.is_empty() && outcome.failed == 0;
    println!("{}", result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics));
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "{name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}
