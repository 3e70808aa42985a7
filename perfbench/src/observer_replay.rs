//! `observer-replay`: every observing cell of the watchpoint-set sweep
//! crossed with the transition-cost sweep (6 kernels × 3 sets ×
//! {VirtMem, HwRegs, DISE-Cmp} × 3 costs = 162 cells in 6 observer
//! groups), at a kernel scale several times `paper-eval`'s so each
//! stored trace is megabytes long. Set-up records the trace store and
//! computes the baselines; every timed pass replays from the store, so
//! it runs no functional pass, no engine and no fork — its time is trace
//! decode, chunked fan-out and shared timing groups.

use std::path::{Path, PathBuf};

use dise_bench::{batch_session_jobs, run_grid_with, CellGroup, SessionJob, DEFAULT_SLICE};
use dise_cpu::{replay_timing, CpuConfig, TraceReader, TraceStats};
use dise_debug::{app_fingerprint, record_session, BackendKind, BaselineCache};
use dise_workloads::{all, transition_cost_sweep, watchpoint_set_sweep, Workload};

use crate::common::{measure, median_wall, set_up, timed_pass, Invariants, Outcome, WORKERS};
use crate::gridwork::{mismatches, Grid};
use crate::layers::{slice_overhead_us, wall, Layers, TraceFigures};
use crate::measure::Rng;
use crate::{probes, span, work_dir, Args};

/// Kernel scale: three times `paper-eval`'s.
const ITERS: u32 = 1200;

fn grid(iters: u32, seed: u64) -> Grid {
    let workloads: Vec<Workload> = all(iters);
    let costs = transition_cost_sweep(CpuConfig::default());
    let mut cells = Vec::new();
    for w in &workloads {
        for (_, wps) in watchpoint_set_sweep(w) {
            for backend in
                [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::DiseComparators]
            {
                for (_, cpu) in &costs {
                    cells.push(SessionJob::new(w.clone(), wps.clone(), backend, *cpu));
                }
            }
        }
    }
    // The seed permutes the order of the kernels' blocks of cells. It
    // keeps each kernel's cells in canonical order: observer members
    // share a timing group only when their configurations arrive in the
    // same order, so shuffling cells within a kernel changes the
    // simulator's work (up to 1.6x in host time), not just its order.
    let per_kernel = cells.len() / workloads.len();
    let order = Rng::new(seed)
        .permutation(workloads.len())
        .into_iter()
        .flat_map(|k| k * per_kernel..(k + 1) * per_kernel)
        .collect();
    Grid::new(workloads, cells, order)
}

/// One set-up: build the grid, record every kernel's functional stream
/// into a fresh store and compute the baselines.
struct SetUp {
    grid: Grid,
    store: PathBuf,
    baselines: BaselineCache,
    /// (trace stats, recording seconds) per kernel.
    recorded: Vec<(TraceStats, f64)>,
    baseline_s: f64,
}

fn set_up_once(iters: u32, seed: u64, store: PathBuf) -> SetUp {
    let grid = grid(iters, seed);
    let groups = batch_session_jobs(&grid.submitted);
    let baselines = BaselineCache::new();
    let parent = span::current();
    let per_group = run_grid_with(&groups, WORKERS, |g| {
        span::adopt(parent, || {
            let CellGroup::Observe(o) = g else { unreachable!("every cell observes") };
            let path = o.trace_path(&store).expect("kernel assembles");
            let (stats, record_s) = span::timed("trace.record", || {
                record_session(o.workload.app(), &path).expect("trace store is writable")
            });
            let (_, baseline_s) = span::timed("grid.baseline", || {
                baselines.get_or_run(o.workload.name(), o.workload.app(), CpuConfig::default())
            });
            ((stats, record_s), baseline_s)
        })
    });
    let baseline_s = per_group.iter().map(|(_, b)| b).sum();
    let recorded = per_group.into_iter().map(|(r, _)| r).collect();
    SetUp { grid, store, baselines, recorded, baseline_s }
}

pub fn run(args: &Args) -> Outcome {
    let iters = if args.tiny { 20 } else { ITERS };
    let root = work_dir().join(format!("store-{}", std::process::id()));
    let (s, setup_times) = set_up(3, |rep| {
        if rep > 0 {
            let _ = std::fs::remove_dir_all(root.join(format!("rep{}", rep - 1)));
        }
        set_up_once(iters, args.seed, root.join(format!("rep{rep}")))
    });
    let SetUp { grid, store, baselines, recorded, baseline_s } = s;
    let n = grid.cells.len();

    // Reference: the same cells run live, without the store.
    let live = grid.run(&baselines, DEFAULT_SLICE, None);
    // Observers run the unmodified kernel, so every admitted cell's
    // report counts exactly its kernel's baseline instructions.
    let instructions: u64 = grid
        .cells
        .iter()
        .zip(&live)
        .filter(|(_, o)| o.is_some())
        .map(|(c, _)| {
            let w = &c.workload;
            baselines
                .get_or_run(w.name(), w.app(), CpuConfig::default())
                .expect("kernel assembles")
                .instructions
        })
        .sum();
    let mut reference = live.clone();
    if args.corrupt_reference {
        reference[0] = Some(-1.0);
    }

    let check =
        |out: Vec<Option<f64>>, wall: f64| (mismatches(&out, &reference), vec![wall * 1e3; n]);
    let passes = measure(args.seconds, 2, || {
        timed_pass(n as u64, || grid.run(&baselines, DEFAULT_SLICE, Some(&store)), check)
    });
    let mut inv = Invariants::default();
    let counters = inv.repeated_counters(&passes);
    inv.check(counters.functional_passes == 0, || {
        format!("{} functional passes in a replayed pass", counters.functional_passes)
    });
    let records: u64 = recorded.iter().map(|(r, _)| r.records).sum();
    let file_bytes: u64 = recorded.iter().map(|(r, _)| r.file_bytes).sum();
    let mut outcome = Outcome::untraced(&setup_times, &passes, instructions, inv);
    outcome.notes.extend([
        format!("observer-replay: {n} cells, kernel scale {iters}, seed {}", args.seed),
        format!("simulated instructions per pass: {instructions}"),
        format!("trace store: {records} records, {file_bytes} bytes"),
        format!("latency samples per pass: {n} (every cell is returned when the grid returns)"),
    ]);
    if !args.trace {
        let _ = std::fs::remove_dir_all(&root);
        return outcome;
    }

    let exact = grid.decompose(&baselines, Some(&store));
    let inv = &mut outcome.invariants;
    inv.check(exact.conservation_ok, || "chunk skips + scans != members x chunks".into());
    inv.check(mismatches(&exact.overheads, &live) == 0, || {
        "groups replayed alone differ from the live grid".into()
    });
    inv.check(exact.instructions == instructions, || {
        format!("reports count {} instructions, baselines {instructions}", exact.instructions)
    });
    span::set_pass(1);
    let ((out, stats), traced_wall) =
        wall(|| grid.run_traced(&baselines, DEFAULT_SLICE, Some(&store), false));
    outcome.tally(n as u64, check(out, traced_wall).0);
    let untraced_wall = median_wall(&passes);
    span::set_pass(2);
    let mut layers =
        Layers::new(counters, probes::kernel_probes(&grid.workloads), traced_wall, untraced_wall);
    layers.baseline_s = baseline_s;
    layers.partition_ms = grid.partition_ms();
    layers.groups = exact;
    layers.max_wait_slices = stats.max_wait_slices;
    layers.max_in_flight = stats.max_in_flight;
    layers.slice_overhead_us = slice_overhead_us(untraced_wall, counters.slices, || {
        grid.run(&baselines, u64::MAX, Some(&store));
    });
    layers.trace = trace_probes(&grid, &store, &recorded);
    let _ = std::fs::remove_dir_all(&root);
    outcome.traced(layers)
}

/// Recording figures from set-up, and the store read back two ways: a
/// `TraceReader` drained with no consumer, and `replay_timing`.
fn trace_probes(grid: &Grid, store: &Path, recorded: &[(TraceStats, f64)]) -> TraceFigures {
    let (mut decoded, mut decode_s, mut replayed, mut replay_s) = (0u64, 0.0, 0u64, 0.0);
    for g in batch_session_jobs(&grid.submitted) {
        let CellGroup::Observe(o) = g else { unreachable!("every cell observes") };
        let fp = app_fingerprint(o.workload.app()).expect("kernel assembles");
        let path = o.trace_path(store).expect("kernel assembles");
        let (n, t) = span::timed("trace.decode", || {
            let mut reader = TraceReader::open(&path, Some(fp)).expect("stored trace opens");
            let mut n = 0u64;
            while reader.next().expect("stored trace decodes").is_some() {
                n += 1;
            }
            n
        });
        decoded += n;
        decode_s += t;
        let (stats, t) = span::timed("trace.replay_timing", || {
            let mut reader = TraceReader::open(&path, Some(fp)).expect("stored trace opens");
            replay_timing(&mut reader, &[CpuConfig::default()]).expect("stored trace replays")
        });
        replayed += stats[0].instructions;
        replay_s += t;
    }
    let records: u64 = recorded.iter().map(|(r, _)| r.records).sum();
    let record_s: f64 = recorded.iter().map(|(_, t)| t).sum();
    let file_bytes: u64 = recorded.iter().map(|(r, _)| r.file_bytes).sum();
    TraceFigures {
        record_mrec_per_s: records as f64 / record_s / 1e6,
        bytes_per_record: file_bytes as f64 / records.max(1) as f64,
        file_mb: file_bytes as f64 / (1024.0 * 1024.0),
        decode_mrec_per_s: decoded as f64 / decode_s / 1e6,
        replay_timing_mrec_per_s: replayed as f64 / replay_s / 1e6,
    }
}
