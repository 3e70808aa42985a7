//! # dise-bench — the evaluation harness
//!
//! One function per table/figure of the paper's §5, each returning the
//! formatted rows the paper reports. Binary wrappers (`table1`, `fig3`,
//! …, `all_experiments`) print them; `all_experiments` also rewrites
//! `EXPERIMENTS.md` with measured-vs-paper notes.
//!
//! Scale: the paper simulates full SPEC functions (up to 1.8 G
//! instructions); we run the calibrated kernels for
//! [`Experiment::default`]'s iteration count (override with the
//! `DISE_ITERS` environment variable). Every reported quantity is a
//! ratio, so the *shape* — who wins, by what order of magnitude, where
//! the crossovers fall — is what these harnesses reproduce.
//!
//! Execution: each table/figure is decomposed into independent
//! [`SessionJob`] grid cells, grouped into single-functional-pass
//! [`CellGroup`]s, and run on the cooperative [`dise_debug::Scheduler`]
//! drained by `DISE_JOBS` worker threads (default: available
//! parallelism), with results reassembled in cell order so output is
//! byte-identical for any worker count. A group is a [`SessionBatch`]
//! when its cells differ only in timing configuration
//! ([`dise_debug::run_session_batch`]), an [`ObserverGroup`] when their
//! backends all *observe* without perturbing execution — one shared
//! pass of the unmodified application across backend × timing
//! simultaneously ([`dise_debug::ObserverBatch`]) — or a
//! [`PerturbGroup`] when perturbing cells differ in DISE engine
//! capacities: they can never share a pass, but they share an *image*,
//! every sub-batch forking copy-on-write from one loaded template
//! machine ([`dise_debug::run_perturbing_group`]) — K engine
//! configurations cost 1 image load + K forks instead of K loads. All
//! of these are byte-identical to the unbatched path, enforced by the
//! grid determinism tests, and the pass/load savings are pinned by
//! execution-count assertions (`tests/execution_counts.rs`).
//!
//! Every group is a resumable [`dise_debug::SessionTask`], granted
//! `DISE_SLICE`-instruction slices with least-progress-first priority,
//! so the worker pool never pins one group to one thread. Output stays
//! byte-identical across every worker count and every slice budget
//! (`tests/scheduler.rs`), and the [`server`] module serves arbitrary
//! job lists through the same machinery (`session_server` bin).

mod experiments;
pub mod grid;
pub mod paper;
pub mod server;

pub use experiments::{
    baseline_table, fig3, fig4, fig5, fig6, fig7, fig8, fig9, sensitivity, table1, table2,
    watchpoint_sets, Experiment,
};
pub use grid::{
    batch_session_jobs, batch_session_jobs_with, configured_workers, run_grid, run_grid_with,
    run_overhead_grid, run_overhead_grid_with, slice_from_env, trace_dir_from_env, CellGroup,
    ObserverGroup, ObserverMember, PerturbGroup, PerturbSubBatch, SessionBatch, SessionJob,
    DEFAULT_SLICE,
};

/// Render one figure/table section with a heading.
pub fn section(title: &str, body: &str) -> String {
    format!("## {title}\n\n{body}\n")
}
