//! The grid runner's contract with the experiments: parallel execution
//! must be invisible in the output. Tables/figures are rendered under a
//! serial pool (`workers = 1`) and a parallel pool (`workers = 8`) and
//! compared byte for byte.
//!
//! The full ten-experiment sweep simulates a few hundred sessions
//! (~3 min in the dev profile), so it is `#[ignore]`d by default and
//! run explicitly by CI (`-- --include-ignored`); a light three-
//! experiment variant keeps every `cargo test -q` on the parallel path.

use dise_bench::{
    batch_session_jobs_with, run_grid_with, run_overhead_grid_with, CellGroup, Experiment,
    SessionJob, DEFAULT_SLICE,
};
use dise_cpu::CpuConfig;
use dise_debug::{BackendKind, BaselineCache};
use dise_workloads::{all, transition_cost_sweep, WatchKind};

type Render = fn(&Experiment) -> String;

fn ctx(workers: usize) -> Experiment {
    Experiment::new(10, CpuConfig::default()).with_workers(workers)
}

fn assert_deterministic(experiments: &[(&str, Render)]) {
    let serial = ctx(1);
    let parallel = ctx(8);
    for (name, render) in experiments {
        assert_eq!(render(&serial), render(&parallel), "{name} output depends on worker count");
    }
}

fn assert_batching_invisible(experiments: &[(&str, Render)]) {
    // Worker count intentionally comes from `DISE_JOBS` (CI runs this
    // under both 1 and 4), so the batched/unbatched comparison covers
    // the serial and pooled grid paths.
    let batched = Experiment::new(10, CpuConfig::default());
    let unbatched = Experiment::new(10, CpuConfig::default()).with_batching(false);
    for (name, render) in experiments {
        assert_eq!(
            render(&batched),
            render(&unbatched),
            "{name} output depends on multi-config batching"
        );
    }
}

/// A cheap slice of the sweep, always on: one table, one per-workload
/// report grid, one session grid.
#[test]
fn light_experiments_are_deterministic_across_worker_counts() {
    assert_deterministic(&[
        ("table1", dise_bench::table1),
        ("fig9", dise_bench::fig9),
        ("baseline_table", dise_bench::baseline_table),
    ]);
}

/// Single-pass batching must be invisible in the output: the
/// experiments with batchable cells (fig8's multithreading pair shares
/// a functional pass; the sensitivity grid batches its transition
/// costs, observing backends *and* — via the watchpoint-set sweep —
/// whole watchpoint sets into one pass per kernel) render
/// byte-identically with batching disabled. Cheap enough to stay on
/// everywhere: batching itself removes the redundant functional passes
/// this test re-adds.
#[test]
fn batched_and_unbatched_experiments_are_byte_identical() {
    assert_batching_invisible(&[
        ("fig8", dise_bench::fig8),
        ("sensitivity", dise_bench::sensitivity),
        ("watchpoint_sets", dise_bench::watchpoint_sets),
    ]);
}

/// Every experiment produces identical bytes under a 1-thread and an
/// 8-thread pool (the `DISE_JOBS=1` vs `DISE_JOBS=8` acceptance bar).
#[test]
#[ignore = "simulates every figure twice (~3 min dev profile); CI runs it with --include-ignored"]
fn all_experiments_are_deterministic_across_worker_counts() {
    assert_deterministic(&[
        ("table1", dise_bench::table1),
        ("table2", dise_bench::table2),
        ("fig3", dise_bench::fig3),
        ("fig4", dise_bench::fig4),
        ("fig5", dise_bench::fig5),
        ("fig6", dise_bench::fig6),
        ("fig7", dise_bench::fig7),
        ("fig8", dise_bench::fig8),
        ("fig9", dise_bench::fig9),
        ("sensitivity", dise_bench::sensitivity),
        ("watchpoint_sets", dise_bench::watchpoint_sets),
        ("baseline_table", dise_bench::baseline_table),
    ]);
}

/// The full batched-vs-unbatched sweep over every overhead experiment
/// (tables have no session cells; they are covered by the worker-count
/// sweep above). With per-workload observer batching, fig3/fig4's
/// virtual-memory, hardware-register and DISE-comparator columns —
/// across *all six watchpoint kinds* — now share one functional pass
/// per kernel, as do the sensitivity and watchpoint-set grids' observing
/// rows — this sweep is the byte-identity bar for that sharing across
/// every table and figure.
#[test]
#[ignore = "simulates every figure twice (~3 min dev profile); CI runs it with --include-ignored"]
fn all_experiments_are_batching_invariant() {
    assert_batching_invisible(&[
        ("fig3", dise_bench::fig3),
        ("fig4", dise_bench::fig4),
        ("fig6", dise_bench::fig6),
        ("fig7", dise_bench::fig7),
        ("fig8", dise_bench::fig8),
        ("fig9", dise_bench::fig9),
        ("sensitivity", dise_bench::sensitivity),
        ("watchpoint_sets", dise_bench::watchpoint_sets),
    ]);
}

/// The copy-on-write fork contract at grid level: a perturbing sweep
/// spanning two workloads, two perturbing backends and two engine
/// capacities renders byte-identical overheads with fork grouping on
/// and off, under a serial and a pooled worker count alike. The
/// partition shape is passed explicitly so both shapes are exercised in
/// one process.
#[test]
fn forked_and_unforked_grids_are_byte_identical_across_worker_counts() {
    let workloads = all(10);
    let small_engine = CpuConfig {
        engine: dise_engine::EngineConfig { pattern_entries: 8, replacement_entries: 64 },
        ..CpuConfig::default()
    };
    let mut jobs = Vec::new();
    for w in workloads.iter().take(2) {
        for backend in [BackendKind::dise_default(), BackendKind::SingleStep] {
            for engine_cpu in [CpuConfig::default(), small_engine] {
                for (_, cpu) in transition_cost_sweep(engine_cpu).into_iter().take(2) {
                    jobs.push(SessionJob::new(
                        w.clone(),
                        vec![w.watchpoint(WatchKind::Hot)],
                        backend,
                        cpu,
                    ));
                }
            }
        }
    }

    let render = |cow_fork: bool, workers: usize| -> Vec<Option<f64>> {
        let baselines = BaselineCache::new();
        let groups = batch_session_jobs_with(&jobs, cow_fork);
        let grouped = run_grid_with(&groups, workers, |g: &CellGroup| {
            g.overheads_from(g.task().run_to_completion(), &baselines)
        });
        let mut out = vec![None; jobs.len()];
        for tagged in grouped {
            for (cell, o) in tagged {
                out[cell] = o;
            }
        }
        out
    };
    let reference = render(false, 1);
    for (cow_fork, workers) in [(false, 8), (true, 1), (true, 8)] {
        assert_eq!(
            render(cow_fork, workers),
            reference,
            "cow_fork={cow_fork} workers={workers} diverged"
        );
    }
}

/// The persistent trace store's contract at grid level: a grid run cold
/// (observer groups *record* their shared passes into the store) and
/// then warm (the same groups *replay* from the store, executing zero
/// functional passes) renders byte-identical overheads — against the
/// traceless reference, across slice budgets (unsliced grants and two
/// slice sizes) and across worker counts 1 and 4. The knobs are passed
/// explicitly so one process pins every combination without racing
/// the environment.
#[test]
fn traced_grids_are_byte_identical_cold_and_warm() {
    let workloads = all(10);
    let mut jobs = Vec::new();
    for w in workloads.iter().take(2) {
        // Observing cells route through the store; the perturbing DISE
        // cells prove traced and untraced groups coexist in one grid.
        for backend in [
            BackendKind::VirtualMemory,
            BackendKind::hw4(),
            BackendKind::DiseComparators,
            BackendKind::dise_default(),
        ] {
            for (_, cpu) in transition_cost_sweep(CpuConfig::default()).into_iter().take(2) {
                jobs.push(SessionJob::new(
                    w.clone(),
                    vec![w.watchpoint(WatchKind::Hot)],
                    backend,
                    cpu,
                ));
            }
        }
    }

    let dir = std::env::temp_dir().join(format!("dise-grid-determinism-{}", std::process::id()));
    let baselines = BaselineCache::new();
    let reference = run_overhead_grid_with(&jobs, 1, &baselines, true, None, None);

    // Cold: first traced run records each workload's shared pass.
    let cold = run_overhead_grid_with(&jobs, 1, &baselines, true, None, Some(&dir));
    assert_eq!(cold, reference, "recording must be invisible in the output");
    let stored = std::fs::read_dir(&dir).expect("store exists").count();
    assert_eq!(stored, 2, "one trace per workload, whatever the member count");

    // Warm: every later run replays, across the scheduler × worker
    // matrix.
    for (sched, workers) in [(None, 1), (None, 4), (Some(DEFAULT_SLICE), 1), (Some(777), 4)] {
        let warm = run_overhead_grid_with(&jobs, workers, &baselines, true, sched, Some(&dir));
        assert_eq!(warm, reference, "sched={sched:?} workers={workers} warm replay diverged");
    }

    // A damaged store fails the grid loudly — it never silently
    // re-records or replays wrong bytes.
    let victim = std::fs::read_dir(&dir)
        .expect("store exists")
        .next()
        .expect("a stored trace")
        .expect("dir entry")
        .path();
    let mut bytes = std::fs::read(&victim).expect("trace readable");
    bytes[40] ^= 0x01;
    std::fs::write(&victim, &bytes).expect("rewrite");
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_overhead_grid_with(&jobs, 1, &baselines, true, None, Some(&dir))
    }))
    .expect_err("a corrupt stored trace must fail the grid, not be papered over");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_else(|| {
        panic.downcast_ref::<&str>().map(ToString::to_string).unwrap_or_default()
    });
    assert!(msg.contains("trace"), "the panic names the trace store: {msg}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `run_grid_with(.., 1, ..)` is exactly the serial map, including for
/// real session jobs against a shared baseline cache.
#[test]
fn single_worker_matches_serial_session_runs() {
    let w = &all(25)[0];
    let cells: Vec<SessionJob> = [BackendKind::dise_default(), BackendKind::hw4()]
        .into_iter()
        .map(|b| {
            SessionJob::new(w.clone(), vec![w.watchpoint(WatchKind::Hot)], b, CpuConfig::default())
        })
        .collect();

    let baselines = BaselineCache::new();
    let pooled = run_grid_with(&cells, 1, |job| job.overhead(&baselines));
    let serial: Vec<Option<f64>> = cells.iter().map(|job| job.overhead(&baselines)).collect();
    assert_eq!(pooled, serial);
    assert_eq!(baselines.len(), 1, "one kernel, one cached baseline");
}
