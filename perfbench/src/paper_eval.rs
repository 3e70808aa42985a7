//! `paper-eval`: the Figure 3 grid (6 kernels × 6 watchpoint kinds × 5
//! backends = 180 cells at kernel scale 400), run the way the `fig3`
//! binary runs it: batching on, the scheduler at `DEFAULT_SLICE`, two
//! workers, no trace store, and a fresh baseline cache every pass. The
//! seed permutes the order in which cells are submitted; results
//! scatter back by cell index, so the reference does not change.

use dise_bench::{Experiment, DEFAULT_SLICE};
use dise_cpu::CpuConfig;
use dise_debug::{BackendKind, BaselineCache};
use dise_workloads::{all, WatchKind, Workload};

use crate::common::{measure, median_wall, set_up, timed_pass, Invariants, Outcome, WORKERS};
use crate::gridwork::{fmt_over, same, Grid};
use crate::layers::{slice_overhead_us, wall, Layers};
use crate::measure::Rng;
use crate::{probes, span, Args};

/// The five backends of the figure, in column order.
fn backends() -> [BackendKind; 5] {
    [
        BackendKind::SingleStep,
        BackendKind::VirtualMemory,
        BackendKind::hw4(),
        BackendKind::dise_default(),
        BackendKind::DiseComparators,
    ]
}

fn grid(iters: u32, seed: u64) -> Grid {
    let workloads: Vec<Workload> = all(iters);
    let mut cells = Vec::new();
    for w in &workloads {
        for kind in WatchKind::ALL {
            for backend in backends() {
                cells.push(dise_bench::SessionJob::new(
                    w.clone(),
                    vec![w.watchpoint(kind)],
                    backend,
                    CpuConfig::default(),
                ));
            }
        }
    }
    let order = Rng::new(seed).permutation(cells.len());
    Grid::new(workloads, cells, order)
}

/// The cells of the `fig3` table, row-major: each row is a 20-column
/// label followed by five 8-column cells.
fn table_cells(table: &str) -> Vec<String> {
    table
        .lines()
        .skip(1)
        .flat_map(|row| {
            let cells = row.get(20..).unwrap_or("");
            (0..cells.len() / 8).map(move |i| cells[i * 8..(i + 1) * 8].to_string())
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let iters = if args.tiny { 20 } else { 400 };
    let (grid, setup_times) = set_up(5, |_| grid(iters, args.seed));
    let n = grid.cells.len();

    // References: the fig3 table at the same scale, and the exact
    // per-cell results of every group run alone.
    let table =
        dise_bench::fig3(&Experiment::new(iters, CpuConfig::default()).with_workers(WORKERS));
    let mut reference = table_cells(&table);
    let exact_baselines = BaselineCache::new();
    let baseline_instructions = grid.warm_baselines(&exact_baselines);
    let exact = grid.decompose(&exact_baselines, None);
    if args.corrupt_reference {
        reference[0] = "corrupt!".to_string();
    }
    let mut inv = Invariants::default();
    inv.check(reference.len() == n, || {
        format!("fig3 table has {} cells, expected {n}", reference.len())
    });
    inv.check(exact.conservation_ok, || "chunk skips + scans != members x chunks".into());
    let instructions = exact.instructions + baseline_instructions;

    let check = |out: Vec<Option<f64>>, wall: f64| {
        let failed = (0..n)
            .filter(|&c| fmt_over(out[c]) != reference[c] || !same(out[c], exact.overheads[c]))
            .count();
        (failed as u64, vec![wall * 1e3; n])
    };
    let pass = || {
        let baselines = BaselineCache::new();
        grid.warm_baselines(&baselines);
        grid.run(&baselines, DEFAULT_SLICE, None)
    };
    let passes = measure(args.seconds, 2, || timed_pass(n as u64, pass, check));
    let counters = inv.repeated_counters(&passes);
    let mut outcome = Outcome::untraced(&setup_times, &passes, instructions, inv);
    outcome.notes.extend([
        format!("paper-eval: {n} cells, kernel scale {iters}, seed {}", args.seed),
        format!("simulated instructions per pass: {instructions} (baselines included)"),
        format!("latency samples per pass: {n} (every cell is returned when the grid returns)"),
    ]);
    if !args.trace {
        return outcome;
    }

    span::set_pass(1);
    let baselines = BaselineCache::new();
    let ((out, stats), traced_wall) =
        wall(|| grid.run_traced(&baselines, DEFAULT_SLICE, None, true));
    outcome.tally(n as u64, check(out, traced_wall).0);
    let untraced_wall = median_wall(&passes);
    span::set_pass(2);
    let mut layers =
        Layers::new(counters, probes::kernel_probes(&grid.workloads), traced_wall, untraced_wall);
    layers.baseline_s = span::spans()
        .iter()
        .filter(|s| s.pass == 1 && s.name == "grid.baseline")
        .map(|s| s.secs())
        .sum();
    layers.partition_ms = grid.partition_ms();
    layers.groups = exact;
    layers.max_wait_slices = stats.max_wait_slices;
    layers.max_in_flight = stats.max_in_flight;
    layers.slice_overhead_us = slice_overhead_us(untraced_wall, counters.slices, || {
        let baselines = BaselineCache::new();
        grid.warm_baselines(&baselines);
        grid.run(&baselines, u64::MAX, None);
    });
    outcome.traced(layers)
}
