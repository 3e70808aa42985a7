//! The two grid workloads (`paper-eval`, `observer-replay`) share one
//! shape: a canonical cell list, a seeded submission order, and passes
//! through `dise_bench::run_overhead_grid_with`. This module holds that
//! shape plus the traced decompositions both use.

use std::path::Path;

use dise_bench::{
    batch_session_jobs, run_grid_with, run_overhead_grid_with, CellGroup, SessionJob,
};
use dise_cpu::CpuConfig;
use dise_debug::{BackendKind, BaselineCache, SchedStats, Scheduler, TaskOutput};
use dise_workloads::Workload;

use crate::common::{Counters, Metric, WORKERS};
use crate::measure::median;
use crate::span;

/// A grid workload: its kernels, its cells in canonical order, and the
/// seeded order in which they are submitted.
pub struct Grid {
    pub workloads: Vec<Workload>,
    /// Cells in canonical (figure) order — the order references use.
    pub cells: Vec<SessionJob>,
    /// `submitted[i]` is `cells[order[i]]`.
    pub order: Vec<usize>,
    pub submitted: Vec<SessionJob>,
}

impl Grid {
    /// A grid submitted in `order` (a permutation of the cell indices).
    pub fn new(workloads: Vec<Workload>, cells: Vec<SessionJob>, order: Vec<usize>) -> Grid {
        let submitted = order.iter().map(|&c| cells[c].clone()).collect();
        Grid { workloads, cells, order, submitted }
    }

    /// Put per-submission results back in canonical order.
    pub fn scatter<T: Clone>(&self, submitted: &[T]) -> Vec<T> {
        let mut out = submitted.to_vec();
        for (i, &c) in self.order.iter().enumerate() {
            out[c] = submitted[i].clone();
        }
        out
    }

    /// Compute every kernel's baseline into `baselines`, on the worker
    /// pool, the way the figure harness warms its cache before a grid.
    pub fn warm_baselines(&self, baselines: &BaselineCache) -> u64 {
        let parent = span::current();
        run_grid_with(&self.workloads, WORKERS, |w| {
            span::adopt(parent, || {
                span::record("grid.baseline", || {
                    baselines
                        .get_or_run(w.name(), w.app(), CpuConfig::default())
                        .expect("kernel assembles")
                        .instructions
                })
            })
        })
        .into_iter()
        .sum()
    }

    /// One grid pass at `slice`, through `store` (`None`: every
    /// observer group executes live), results in canonical order.
    pub fn run(
        &self,
        baselines: &BaselineCache,
        slice: u64,
        store: Option<&Path>,
    ) -> Vec<Option<f64>> {
        let out =
            run_overhead_grid_with(&self.submitted, WORKERS, baselines, true, Some(slice), store);
        self.scatter(&out)
    }

    /// The pass of [`Grid::run`] taken apart through the public pieces
    /// `run_overhead_grid_with` is built from, with a span around each:
    /// baselines (when `warm`), partition, scheduler drain, scatter.
    /// Returns the results in canonical order and the scheduler's
    /// statistics.
    pub fn run_traced(
        &self,
        baselines: &BaselineCache,
        slice: u64,
        store: Option<&Path>,
        warm: bool,
    ) -> (Vec<Option<f64>>, SchedStats) {
        span::record("grid.pass", || {
            if warm {
                self.warm_baselines(baselines);
            }
            let groups = span::record("grid.partition", || batch_session_jobs(&self.submitted));
            let scheduler = Scheduler::new(slice);
            for g in &groups {
                scheduler.spawn(g.task_traced(store));
            }
            let outputs = span::record("sched.drain", || scheduler.drain(WORKERS));
            let out = span::record("grid.scatter", || {
                let mut out = vec![None; self.submitted.len()];
                for (id, output) in outputs {
                    for (cell, o) in groups[id].overheads_from(output, baselines) {
                        out[cell] = o;
                    }
                }
                out
            });
            (self.scatter(&out), scheduler.stats())
        })
    }

    /// Run every group of the partition alone, one after another, each
    /// inside a span named for its kind (through `store`, as
    /// [`Grid::run`]): the exact per-cell results, the simulated
    /// instructions of every report, and the split of group time by
    /// kind that a scheduled pass hides.
    pub fn decompose(&self, baselines: &BaselineCache, store: Option<&Path>) -> Decomposition {
        let groups = batch_session_jobs(&self.submitted);
        let mut d = Decomposition {
            overheads: vec![None; self.submitted.len()],
            conservation_ok: true,
            ..Decomposition::default()
        };
        for g in &groups {
            let before = Counters::now();
            let (output, secs) =
                span::timed(group_span(g), || g.task_traced(store).run_to_completion());
            let delta = Counters::now().since(before);
            let instructions = report_instructions(&output);
            d.instructions += instructions;
            match g {
                CellGroup::Observe(_) => {
                    d.groups_observe += 1;
                    d.observe_s += secs;
                    // Members refused at admission (an unsupported
                    // watchpoint) never join the fan-out.
                    let (members, cells) = admitted(&output);
                    // Every admitted cell times the shared stream once.
                    d.fanout_records += instructions / cells.max(1) * members;
                    d.chunks_skipped += delta.chunks_skipped;
                    d.chunks_scanned += delta.chunks_scanned;
                    if delta.chunks_skipped + delta.chunks_scanned != members * delta.fanout_chunks
                    {
                        d.conservation_ok = false;
                    }
                }
                CellGroup::Fork(f) => {
                    d.groups_fork += 1;
                    d.fork_s += secs;
                    match f.backend {
                        BackendKind::Dise(_) => d.fork_dise_s += secs,
                        BackendKind::SingleStep => d.fork_single_step_s += secs,
                        _ => {}
                    }
                }
                CellGroup::Replay(_) => d.groups_replay += 1,
            }
            for (cell, o) in g.overheads_from(output, baselines) {
                d.overheads[cell] = o;
            }
        }
        d.overheads = self.scatter(&d.overheads);
        d
    }

    /// Median time of `batch_session_jobs` over the submitted cells.
    pub fn partition_ms(&self) -> f64 {
        let t: Vec<f64> = (0..5)
            .map(|_| span::timed("grid.partition", || batch_session_jobs(&self.submitted)).1 * 1e3)
            .collect();
        median(&t)
    }
}

fn group_span(g: &CellGroup) -> &'static str {
    match g {
        CellGroup::Observe(_) => "debug.observe_group",
        CellGroup::Fork(f) => match f.backend {
            BackendKind::Dise(_) => "debug.fork_group_dise",
            BackendKind::SingleStep => "debug.fork_group_single_step",
            _ => "debug.fork_group",
        },
        CellGroup::Replay(_) => "debug.replay_group",
    }
}

/// (members, cells) of an observer output that passed admission.
fn admitted(output: &TaskOutput) -> (u64, u64) {
    let TaskOutput::Observe(Ok(members)) = output else { return (0, 0) };
    let ok: Vec<_> = members.iter().filter_map(|m| m.as_ref().ok()).collect();
    (ok.len() as u64, ok.iter().map(|rs| rs.len() as u64).sum())
}

/// Simulated instructions summed over every report in a task output.
fn report_instructions(output: &TaskOutput) -> u64 {
    let sum = |reports: &[dise_debug::SessionReport]| -> u64 {
        reports.iter().map(|r| r.run.instructions).sum()
    };
    match output {
        TaskOutput::Batch(r) => r.as_ref().map_or(0, |rs| sum(rs)),
        TaskOutput::Group(r) | TaskOutput::Observe(r) => r
            .as_ref()
            .map_or(0, |members| members.iter().map(|m| m.as_ref().map_or(0, |rs| sum(rs))).sum()),
    }
}

/// What [`Grid::decompose`] measured.
#[derive(Default)]
pub struct Decomposition {
    /// Exact per-cell results, canonical order.
    pub overheads: Vec<Option<f64>>,
    /// Simulated instructions over every session report.
    pub instructions: u64,
    pub groups_observe: u64,
    pub groups_fork: u64,
    pub groups_replay: u64,
    pub observe_s: f64,
    /// Records delivered to observer members: stream length × members.
    pub fanout_records: u64,
    pub fork_s: f64,
    pub fork_dise_s: f64,
    pub fork_single_step_s: f64,
    pub chunks_skipped: u64,
    pub chunks_scanned: u64,
    /// `skipped + scanned == members × chunks` held for every group.
    pub conservation_ok: bool,
}

impl Decomposition {
    pub fn metrics(&self) -> Vec<Metric> {
        let decided = self.chunks_skipped + self.chunks_scanned;
        vec![
            ("grid.groups_observe", "count", self.groups_observe as f64),
            ("grid.groups_fork", "count", self.groups_fork as f64),
            ("grid.groups_replay", "count", self.groups_replay as f64),
            ("debug.observe_group_s", "s", self.observe_s),
            (
                "debug.fanout_mrec_per_s",
                "Mrec/s",
                if self.observe_s > 0.0 {
                    self.fanout_records as f64 / self.observe_s / 1e6
                } else {
                    0.0
                },
            ),
            ("debug.fork_group_s", "s", self.fork_s),
            ("debug.fork_group_dise_s", "s", self.fork_dise_s),
            ("debug.fork_group_single_step_s", "s", self.fork_single_step_s),
            (
                "debug.chunk_skip_ratio",
                "ratio",
                if decided > 0 { self.chunks_skipped as f64 / decided as f64 } else { 0.0 },
            ),
        ]
    }
}

/// Render one overhead the way the figure tables print it.
pub fn fmt_over(o: Option<f64>) -> String {
    match o {
        None => "      --".to_string(),
        Some(v) if v >= 1000.0 => format!("{v:>8.0}"),
        Some(v) => format!("{v:>8.2}"),
    }
}

/// Two cell results agree bit for bit.
pub fn same(a: Option<f64>, b: Option<f64>) -> bool {
    a.map(f64::to_bits) == b.map(f64::to_bits)
}

/// Cells whose result differs bit for bit from the reference.
pub fn mismatches(got: &[Option<f64>], reference: &[Option<f64>]) -> u64 {
    let differ = got.iter().zip(reference).filter(|(a, b)| !same(**a, **b)).count();
    (differ + got.len().abs_diff(reference.len())) as u64
}
