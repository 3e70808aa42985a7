//! `session-service`: one burst of seeded `session_server` jobs, all
//! submitted to `dise_bench::server::serve` at t = 0 — an open loop in
//! which every arrival is due at once — on two workers with a slice
//! well below `DEFAULT_SLICE`, so most sessions are preempted. Each
//! session's latency runs from t = 0 to its completion callback. With
//! sessions this short, per-session set-up (assembly, `Timing::new`,
//! engine install, a cold block cache) and scheduler slicing dominate,
//! which the grid workloads spread over long runs.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use dise_bench::server::{parse_jobs, serve, JobSpec, ServeOutcome};
use dise_workloads::all;

use crate::common::{measure, median_wall, set_up, timed_pass, Invariants, Outcome, WORKERS};
use crate::layers::{slice_overhead_us, wall, Layers};
use crate::measure::{median, Rng};
use crate::{probes, span, Args};

/// Scheduler slice (instructions per grant): a sixteenth of
/// `DEFAULT_SLICE`, so most sessions are preempted several times.
const SLICE: u64 = 4096;

const KERNELS: [&str; 6] = ["bzip2", "crafty", "gcc", "mcf", "twolf", "vortex"];
const WATCHES: [&str; 6] = ["hot", "warm1", "warm2", "cold", "indirect", "range"];

/// The seeded job list, in the `session_server` grammar. Sessions are
/// drawn without replacement from a fixed population that crosses the
/// six kernels, six watch kinds and six backends in fixed shares with
/// `iters` spread over 20–80 (single-stepping is rare, 2%, and short,
/// `iters` 20–25). The seed decides each session's draw — so its name,
/// its place in the burst and what it waits on — and which 30% override
/// the transition cost and which 10% wait on an earlier job. Every seed
/// thus serves the same total work in a different order.
pub fn job_list(seed: u64, sessions: usize) -> String {
    let mut rng = Rng::new(seed);
    let draws = rng.permutation(sessions);
    let cost = stratified(&mut rng, sessions, &[(true, 30), (false, 70)]);
    let after = stratified(&mut rng, sessions, &[(true, 10), (false, 90)]);
    let mut text = String::new();
    for (i, &p) in draws.iter().enumerate() {
        let (kernel, watch, backend, iters) = population_member(p, sessions);
        let _ =
            write!(text, "s{i:04} kernel={kernel} watch={watch} backend={backend} iters={iters}");
        if cost[i] {
            let _ = write!(text, " cost={}", [100_000, 290_000, 513_000][rng.below(3) as usize]);
        }
        if after[i] && i > 0 {
            let _ = write!(text, " after=s{:04}", rng.below(i as u64));
        }
        text.push('\n');
    }
    text
}

/// Member `p` of the session population of size `n`: kernels and watch
/// kinds cycle through every pairing, backends follow their shares in
/// an order coprime to that cycle, and `iters` sweeps 20–80.
fn population_member(p: usize, n: usize) -> (&'static str, &'static str, &'static str, usize) {
    let kernel = KERNELS[p % 6];
    let watch = WATCHES[(p / 6) % 6];
    let backend = match (p * 37) % 100 {
        0..=1 => "step",
        2..=14 => "rewrite",
        15..=39 => "dise",
        40..=59 => "cmp",
        60..=79 => "vm",
        _ => "hw",
    };
    let iters = 20 + p * 61 / n;
    (kernel, watch, backend, if backend == "step" { 20 + iters % 6 } else { iters })
}

/// `n` values in the given integer shares (largest remainder first),
/// in seeded random order.
fn stratified<T: Copy>(rng: &mut Rng, n: usize, shares: &[(T, usize)]) -> Vec<T> {
    let total: usize = shares.iter().map(|s| s.1).sum();
    let mut counts: Vec<usize> = shares.iter().map(|s| n * s.1 / total).collect();
    let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
    by_remainder.sort_by_key(|&i| std::cmp::Reverse(n * shares[i].1 % total));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let pool: Vec<T> =
        shares.iter().zip(&counts).flat_map(|(s, &c)| std::iter::repeat_n(s.0, c)).collect();
    rng.permutation(n).into_iter().map(|i| pool[i]).collect()
}

/// The per-session lines of a transcript (banner and total dropped).
fn session_lines(transcript: &str) -> Vec<&str> {
    transcript.lines().filter(|l| l.starts_with("done ") || l.starts_with("error ")).collect()
}

/// One `serve` call at `slice`, with each completion's time since t = 0.
fn serve_timed(jobs: &[JobSpec], workers: usize, slice: u64) -> (ServeOutcome, Vec<f64>) {
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    let t0 = Instant::now();
    let outcome = serve(jobs, workers, slice, |_| {
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        done.lock().expect("completion log poisoned").push(ms);
    });
    (outcome, done.into_inner().expect("completion log poisoned"))
}

pub fn run(args: &Args) -> Outcome {
    let sessions = if args.tiny { 30 } else { 1000 };
    let (jobs, setup_times) = set_up(3, |_| {
        parse_jobs(&job_list(args.seed, sessions)).expect("generated job list parses")
    });
    let n = jobs.len();

    // Reference: one worker, no slicing.
    let reference = serve(&jobs, 1, u64::MAX, |_| {}).transcript;
    let mut reference: Vec<String> =
        session_lines(&reference).into_iter().map(String::from).collect();
    let instructions: u64 = reference
        .iter()
        .filter_map(|l| l.split_whitespace().find_map(|t| t.strip_prefix("instructions=")))
        .map(|v| v.parse::<u64>().expect("transcript instruction counts are integers"))
        .sum();
    let mut inv = Invariants::default();
    inv.check(reference.len() == n, || {
        format!("reference has {} sessions, expected {n}", reference.len())
    });
    if args.corrupt_reference {
        reference[0].push_str(" corrupt");
    }

    let check = |(outcome, mut latencies): (ServeOutcome, Vec<f64>), wall: f64| {
        let lines = session_lines(&outcome.transcript);
        let differ = lines.iter().zip(&reference).filter(|(a, b)| **a != b.as_str()).count();
        let failed = differ + n.saturating_sub(lines.len());
        latencies.resize(n, wall * 1e3);
        (failed as u64, latencies)
    };
    let passes = measure(args.seconds, 2, || {
        timed_pass(n as u64, || serve_timed(&jobs, WORKERS, SLICE), check)
    });
    let counters = inv.repeated_counters(&passes);
    let mut outcome = Outcome::untraced(&setup_times, &passes, instructions, inv);
    outcome.notes.extend([
        format!("session-service: {n} sessions due at t=0, slice {SLICE}, seed {}", args.seed),
        format!("simulated instructions per pass: {instructions}"),
        format!("latency samples per pass: {n} (p99 leaves {} beyond it)", n / 100),
    ]);
    if !args.trace {
        return outcome;
    }

    span::set_pass(1);
    let ((served, latencies), traced_wall) =
        wall(|| span::record("server.serve", || serve_timed(&jobs, WORKERS, SLICE)));
    let stats = served.stats;
    outcome.tally(n as u64, check((served, latencies), traced_wall).0);
    let untraced_wall = median_wall(&passes);
    span::set_pass(2);
    let mut layers =
        Layers::new(counters, probes::kernel_probes(&all(50)), traced_wall, untraced_wall);
    layers.max_wait_slices = stats.max_wait_slices;
    layers.max_in_flight = stats.max_in_flight;
    layers.slice_overhead_us = slice_overhead_us(untraced_wall, counters.slices, || {
        serve(&jobs, WORKERS, u64::MAX, |_| {});
    });
    let mut task_build_s = 0.0;
    let mut service_ms = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let (task, t) = span::timed("server.task_build", || job.task());
        task_build_s += t;
        // A quarter of the sessions, each run alone, give the service
        // time; latency minus it is time spent waiting.
        if i % 4 == 0 {
            let (_, t) = span::timed("debug.session", || task.run_to_completion());
            service_ms.push(t * 1e3);
        }
    }
    layers.task_build_ms = task_build_s * 1e3;
    layers.session_service_ms = median(&service_ms);
    outcome.traced(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_draws_keep_exact_shares() {
        let mut rng = Rng::new(3);
        let v = stratified(&mut rng, 1000, &[("a", 2), ("b", 13), ("c", 85)]);
        let count = |x| v.iter().filter(|&&y| y == x).count();
        assert_eq!((count("a"), count("b"), count("c")), (20, 130, 850));
        let odd = stratified(&mut rng, 7, &[(0, 1), (1, 1), (2, 1)]);
        assert_eq!(odd.len(), 7);
    }

    #[test]
    fn every_seed_draws_the_same_population() {
        let sorted = |seed| {
            let mut jobs: Vec<_> = parse_jobs(&job_list(seed, 300))
                .expect("generated list parses")
                .into_iter()
                .map(|j| (j.kernel, format!("{:?}{:?}", j.watch, j.backend), j.iters))
                .collect();
            jobs.sort();
            jobs
        };
        assert_eq!(sorted(1), sorted(2));
        let backends: std::collections::BTreeSet<String> = parse_jobs(&job_list(1, 1000))
            .expect("generated list parses")
            .iter()
            .map(|j| format!("{:?}", j.backend).chars().take(6).collect())
            .collect();
        assert_eq!(backends.len(), 6, "all six backends appear: {backends:?}");
    }

    #[test]
    fn job_list_parses_and_depends_on_the_seed() {
        let a = job_list(5, 200);
        assert_eq!(a, job_list(5, 200));
        assert_ne!(a, job_list(6, 200));
        let jobs = parse_jobs(&a).expect("generated list parses");
        assert_eq!(jobs.len(), 200);
        assert!(jobs.iter().all(|j| (20..=80).contains(&j.iters)));
        assert_eq!(jobs.iter().filter(|j| j.cost.is_some()).count(), 60);
    }
}
