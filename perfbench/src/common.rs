//! What every workload shares: counter snapshots, the timed-pass loop,
//! and the metric record a run reports.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::layers::Layers;
use crate::measure::{median, peak_rss_mb, percentile, reset_peak_rss, trim_heap, Clock};
use crate::span;

/// Worker threads every workload runs on.
pub const WORKERS: usize = 2;

/// One reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The process-global work counters of `dise-debug`, read as a
/// snapshot so a pass can be charged its own before/after delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub functional_passes: u64,
    pub image_loads: u64,
    pub checkpoint_forks: u64,
    pub fanout_chunks: u64,
    pub chunks_skipped: u64,
    pub chunks_scanned: u64,
    pub trace_records: u64,
    pub trace_replays: u64,
    pub slices: u64,
    pub preemptions: u64,
}

impl Counters {
    pub fn now() -> Counters {
        Counters {
            functional_passes: dise_debug::functional_passes(),
            image_loads: dise_debug::image_loads(),
            checkpoint_forks: dise_debug::checkpoint_forks(),
            fanout_chunks: dise_debug::fanout_chunks(),
            chunks_skipped: dise_debug::fanout_chunks_skipped(),
            chunks_scanned: dise_debug::fanout_chunks_scanned(),
            trace_records: dise_debug::trace_records(),
            trace_replays: dise_debug::trace_replays(),
            slices: dise_debug::slices_granted(),
            preemptions: dise_debug::preemptions(),
        }
    }

    /// Work done since `before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            functional_passes: self.functional_passes - before.functional_passes,
            image_loads: self.image_loads - before.image_loads,
            checkpoint_forks: self.checkpoint_forks - before.checkpoint_forks,
            fanout_chunks: self.fanout_chunks - before.fanout_chunks,
            chunks_skipped: self.chunks_skipped - before.chunks_skipped,
            chunks_scanned: self.chunks_scanned - before.chunks_scanned,
            trace_records: self.trace_records - before.trace_records,
            trace_replays: self.trace_replays - before.trace_replays,
            slices: self.slices - before.slices,
            preemptions: self.preemptions - before.preemptions,
        }
    }
}

/// One timed pass: host times, operations, the ones that failed their
/// reference check, each operation's completion latency, and the
/// counter delta of the pass alone.
pub struct Pass {
    pub wall: f64,
    pub cpu: f64,
    pub ops: u64,
    pub failed: u64,
    pub latencies_ms: Vec<f64>,
    pub counters: Counters,
    /// Resident-set high-water mark during the pass (MB).
    pub peak_rss_mb: f64,
}

/// Time `work` (the pass itself) and then `check` its output against
/// the reference outside the timed interval. `check` returns the
/// number of failed operations and each operation's completion latency
/// in ms. A panic anywhere in the pass fails all `ops` operations.
pub fn timed_pass<T>(
    ops: u64,
    work: impl FnOnce() -> T,
    check: impl FnOnce(T, f64) -> (u64, Vec<f64>),
) -> Pass {
    reset_peak_rss();
    let before = Counters::now();
    let clock = Clock::start();
    let out = catch_unwind(AssertUnwindSafe(work));
    let (wall, cpu) = clock.stop();
    let counters = Counters::now().since(before);
    let peak_rss_mb = peak_rss_mb();
    let (failed, latencies_ms) = match out {
        Ok(out) => catch_unwind(AssertUnwindSafe(|| check(out, wall)))
            .unwrap_or_else(|_| (ops, vec![wall * 1e3; ops as usize])),
        Err(_) => (ops, vec![wall * 1e3; ops as usize]),
    };
    Pass { wall, cpu, ops, failed, latencies_ms, counters, peak_rss_mb }
}

/// Run passes until `seconds` of measuring have elapsed (at least
/// `min_passes`). Timed passes are never traced.
pub fn measure(seconds: f64, min_passes: usize, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let tracing = span::enabled();
    span::set_enabled(false);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass());
    }
    span::set_enabled(tracing);
    passes
}

/// Repeat a workload's set-up `reps` times; returns the last result and
/// every repetition's time.
pub fn set_up<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        trim_heap();
        let t = Instant::now();
        last = Some(f(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// The end-to-end metrics of a run, in `BENCHMARK.json` order.
/// `instructions` is the simulated work of one pass.
fn end_to_end(setup_s: f64, passes: &[Pass], instructions: u64) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    vec![
        ("setup_s", "s", setup_s),
        ("wall_s", "s", per(&|p| p.wall)),
        ("cpu_s", "s", per(&|p| p.cpu)),
        ("sim_mips", "Minstr/s", per(&|p| instructions as f64 / p.wall / 1e6)),
        ("peak_rss_mb", "MB", per(&|p| p.peak_rss_mb)),
        (
            "sessions_per_s",
            "1/s",
            per(&|p| {
                let makespan = p.latencies_ms.iter().copied().fold(0.0, f64::max) / 1e3;
                (p.ops - p.failed) as f64 / makespan.max(f64::MIN_POSITIVE)
            }),
        ),
        ("session_p50_ms", "ms", per(&|p| percentile(&p.latencies_ms, 50.0))),
        ("session_p99_ms", "ms", per(&|p| percentile(&p.latencies_ms, 99.0))),
    ]
}

/// The median wall time of the timed passes.
pub fn median_wall(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(|p| p.wall).collect::<Vec<_>>())
}

/// Notes listing every set-up's time and every pass's wall time and
/// peak RSS, so run-to-run noise can be told from pass-to-pass noise.
fn pass_notes(setup_times: &[f64], passes: &[Pass]) -> Vec<String> {
    let list = |f: &dyn Fn(&Pass) -> String| passes.iter().map(f).collect::<Vec<_>>().join(" ");
    let setups: Vec<String> = setup_times.iter().map(|t| format!("{t:.3}")).collect();
    vec![
        format!("set-up times (s): {}", setups.join(" ")),
        format!("pass wall times (s): {}", list(&|p| format!("{:.3}", p.wall))),
        format!("pass peak RSS (MB): {}", list(&|p| format!("{:.0}", p.peak_rss_mb))),
    ]
}

/// What a workload run hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Internal invariants (exact counts repeating, chunk conservation,
    /// …); any failure makes the run incorrect.
    pub invariants: Invariants,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The outcome of an untraced run: its end-to-end metrics and the
    /// operations of every timed pass.
    pub fn untraced(
        setup_times: &[f64],
        passes: &[Pass],
        instructions: u64,
        invariants: Invariants,
    ) -> Outcome {
        let mut outcome = Outcome {
            metrics: end_to_end(median(setup_times), passes, instructions),
            invariants,
            notes: pass_notes(setup_times, passes),
            ..Outcome::default()
        };
        for p in passes {
            outcome.tally(p.ops, p.failed);
        }
        outcome
    }

    /// Count `ops` more operations, `failed` of them failed.
    pub fn tally(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
    }

    /// Turn this into the outcome of a traced run: the per-layer
    /// metrics replace the end-to-end ones.
    pub fn traced(mut self, layers: Layers) -> Outcome {
        self.metrics = layers.metrics();
        self.notes.push(layers.overhead_note());
        self
    }
}

/// Internal invariants of a run; each failure is kept as a message.
#[derive(Default)]
pub struct Invariants(pub Vec<String>);

impl Invariants {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// The exact counters must repeat in every pass; returns the first.
    pub fn repeated_counters(&mut self, passes: &[Pass]) -> Counters {
        let first = passes[0].counters;
        for (i, p) in passes.iter().enumerate() {
            self.check(p.counters == first, || {
                format!("pass {i} counters {:?} differ from pass 0 {first:?}", p.counters)
            });
        }
        first
    }
}
