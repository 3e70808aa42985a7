//! The job-grid subsystem: every table/figure is a grid of independent
//! debugging sessions (kernel × watchpoint-set × backend × config).
//! This module decomposes a grid into [`SessionJob`] values, groups
//! them into [`CellGroup`]s that share functional work, runs every
//! group as a resumable [`SessionTask`] on the cooperative
//! [`Scheduler`], and reassembles the per-cell results in submission
//! order, so parallel output is byte-identical to serial.
//!
//! Worker count comes from the `DISE_JOBS` environment variable
//! (default: the machine's available parallelism); `DISE_JOBS=1` drains
//! every task inline on the calling thread.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dise_cpu::CpuConfig;
use dise_debug::{
    app_fingerprint, run_session, BackendKind, BaselineCache, DebugError, Scheduler, SessionReport,
    SessionTask, TaskOutput, Watchpoint,
};
use dise_env::env_number;
use dise_workloads::Workload;

/// One cell of an experiment grid: a kernel, the watchpoints to plant,
/// the backend implementing them, and the machine configuration.
#[derive(Clone, Debug)]
pub struct SessionJob {
    /// The kernel to debug.
    pub workload: Workload,
    /// The watchpoints to plant.
    pub watchpoints: Vec<Watchpoint>,
    /// The backend implementing them.
    pub backend: BackendKind,
    /// Machine configuration (per-cell override).
    pub cpu: CpuConfig,
}

impl SessionJob {
    /// A cell under the given configuration.
    pub fn new(
        workload: Workload,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        cpu: CpuConfig,
    ) -> SessionJob {
        SessionJob { workload, watchpoints, backend, cpu }
    }

    /// Run the session; `Err` carries the paper's "no experiment" bars.
    ///
    /// # Errors
    ///
    /// As [`dise_debug::run_session`].
    pub fn report(&self) -> Result<SessionReport, DebugError> {
        run_session(self.workload.app(), self.watchpoints.clone(), self.backend, self.cpu)
    }

    /// Overhead (normalised execution time) of the session against the
    /// kernel's baseline from the shared cache, or `None` when the
    /// backend cannot implement the watchpoints (or the watchpoint is
    /// ill-formed) — the paper's "no experiment" bars.
    ///
    /// # Panics
    ///
    /// Panics if the session reports an execution error (the calibrated
    /// kernels must run clean).
    pub fn overhead(&self, baselines: &BaselineCache) -> Option<f64> {
        self.overhead_of(self.report(), baselines)
    }

    /// The resumable form of this cell: a [`SessionTask`] whose output
    /// [`SessionJob::overhead_of`] converts exactly as
    /// [`SessionJob::overhead`] would.
    pub fn task(&self) -> SessionTask {
        SessionTask::session(self.workload.app(), self.watchpoints.clone(), self.backend, self.cpu)
    }

    /// Convert a session result (from [`SessionJob::report`] or a
    /// drained [`SessionTask`]) into this cell's overhead — the one
    /// conversion the private reference and the scheduled grid share.
    ///
    /// # Panics
    ///
    /// As [`SessionJob::overhead`].
    pub fn overhead_of(
        &self,
        report: Result<SessionReport, DebugError>,
        baselines: &BaselineCache,
    ) -> Option<f64> {
        let base = baselines
            .get_or_run(self.workload.name(), self.workload.app(), self.cpu)
            .expect("kernel assembles");
        match report {
            Ok(report) => {
                assert_eq!(report.error, None, "{}: session must run clean", self.workload.name());
                Some(report.overhead_vs(&base))
            }
            Err(DebugError::Unsupported { .. } | DebugError::InvalidWatchpoint { .. }) => None,
            Err(e) => panic!("{}: {e}", self.workload.name()),
        }
    }
}

/// A group of grid cells that share one functional execution: same
/// kernel, same watchpoints, same *functional* backend — the cells
/// differ only in timing configuration, so
/// [`dise_debug::run_session_batch`] replays a single `Exec` stream
/// through one timing model per member.
#[derive(Clone, Debug)]
pub struct SessionBatch {
    /// The kernel to debug.
    pub workload: Workload,
    /// The watchpoints to plant.
    pub watchpoints: Vec<Watchpoint>,
    /// The functional backend (timing-only knobs already folded into
    /// `cpus` by [`BackendKind::split_timing`]).
    pub backend: BackendKind,
    /// Per-member effective machine configurations, in member order.
    pub cpus: Vec<CpuConfig>,
    /// Original grid-cell index of each member, parallel to `cpus`.
    pub cells: Vec<usize>,
}

/// One member of an [`ObserverGroup`]: an observing backend with its
/// own watchpoint set, the effective timing configurations of its
/// cells, and the original cell indices they scatter back to.
#[derive(Clone, Debug)]
pub struct ObserverMember {
    /// The observing backend (see [`BackendKind::observation_only`]).
    pub backend: BackendKind,
    /// The member's own watchpoints — members of one group may watch
    /// entirely different things.
    pub watchpoints: Vec<Watchpoint>,
    /// Per-cell effective machine configurations, in member order.
    pub cpus: Vec<CpuConfig>,
    /// Original grid-cell index of each configuration, parallel to
    /// `cpus`.
    pub cells: Vec<usize>,
}

/// A group of grid cells that share one functional execution **across
/// watchpoint sets and backends**: same kernel, every backend observing
/// (never perturbing) — so a single pass of the unmodified application
/// feeds all members' transition detectors and timing models via
/// [`dise_debug::ObserverBatch`]. The group key is the *workload
/// alone*: observers' watchpoints steer only what the debugger traps
/// on, never what the application executes, so cells that differ in
/// watchpoint set still merge. Unlike [`SessionBatch`], members need
/// not agree on DISE engine capacities either: observers install no
/// productions, so the engine is functionally inert.
#[derive(Clone, Debug)]
pub struct ObserverGroup {
    /// The kernel to debug.
    pub workload: Workload,
    /// The observing (backend, watchpoint-set) members sharing the
    /// pass, in first-appearance order.
    pub members: Vec<ObserverMember>,
}

impl ObserverGroup {
    /// The resumable form of this group: one shared pass of the
    /// unmodified application fanned out to every member.
    pub fn task(&self) -> SessionTask {
        SessionTask::observer(self.workload.app(), self.member_specs())
    }

    /// [`ObserverGroup::task`] through the persistent trace store at
    /// `trace` (`None` is exactly [`ObserverGroup::task`] — see
    /// [`trace_dir_from_env`]): the group's shared pass is **replayed**
    /// from the store when a trace for this kernel (keyed by name +
    /// program fingerprint) already exists — zero functional passes —
    /// and recorded into the store on miss, so the next run replays. A
    /// stale or corrupt stored trace fails the task loudly
    /// ([`DebugError::Trace`]) — it is never silently re-recorded,
    /// because a trace that stops matching its fingerprinted kernel
    /// means the store is being misused.
    pub fn task_traced(&self, trace: Option<&Path>) -> SessionTask {
        let Some(path) = trace.and_then(|dir| self.trace_path(dir)) else {
            return self.task();
        };
        if path.exists() {
            SessionTask::observer_replay(self.workload.app(), self.member_specs(), &path)
        } else {
            SessionTask::observer_recorded(self.workload.app(), self.member_specs(), &path)
        }
    }

    /// Where this group's shared pass lives inside the trace store at
    /// `dir`: keyed by kernel name *and* program fingerprint, so two
    /// scales of one kernel — or any edit to it — never collide, and a
    /// recorded trace is valid forever. `None` when the kernel fails to
    /// assemble (the normal, traceless path reports that error in the
    /// shape callers expect). Creates `dir` on first use.
    pub fn trace_path(&self, dir: &Path) -> Option<PathBuf> {
        let fp = app_fingerprint(self.workload.app()).ok()?;
        // A missing store directory is "first recording", not an error;
        // if creation truly failed, recording into it fails loudly.
        let _ = std::fs::create_dir_all(dir);
        Some(dir.join(format!("{}-{fp:016x}.dtrc", self.workload.name())))
    }

    fn member_specs(&self) -> Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)> {
        self.members.iter().map(|m| (m.backend, m.watchpoints.clone(), m.cpus.clone())).collect()
    }
}

/// One engine-configuration sub-batch of a [`PerturbGroup`]: the cells
/// sharing a functional stream (their configurations agree on DISE
/// engine capacities), each with its own timing configuration.
#[derive(Clone, Debug)]
pub struct PerturbSubBatch {
    /// Per-cell effective machine configurations, in member order.
    pub cpus: Vec<CpuConfig>,
    /// Original grid-cell index of each configuration, parallel to
    /// `cpus`.
    pub cells: Vec<usize>,
}

/// A group of perturbing grid cells that share one *image*: same
/// kernel, same watchpoints, same perturbing backend — the cells differ
/// in engine capacities (one functional stream per sub-batch) and
/// timing configuration. [`dise_debug::run_perturbing_group`] assembles
/// and loads the backend-transformed program once and forks every
/// sub-batch's machine from it copy-on-write: K sub-batches cost 1
/// image load + K forks instead of K loads.
#[derive(Clone, Debug)]
pub struct PerturbGroup {
    /// The kernel to debug.
    pub workload: Workload,
    /// The watchpoints to plant.
    pub watchpoints: Vec<Watchpoint>,
    /// The perturbing backend (timing-only knobs already folded into
    /// the sub-batch configurations by [`BackendKind::split_timing`]).
    pub backend: BackendKind,
    /// Engine-configuration sub-batches, in first-appearance order.
    pub batches: Vec<PerturbSubBatch>,
}

/// A grid group sharing functional work: a single perturbing backend
/// replayed under many timing configurations ([`SessionBatch`]), many
/// observing backends fanned off one pass of the unmodified application
/// ([`ObserverGroup`]), or a perturbing backend's engine-configuration
/// sub-batches forked copy-on-write from one loaded image
/// ([`PerturbGroup`]).
#[derive(Clone, Debug)]
pub enum CellGroup {
    /// A perturbing backend's private replay (timing-only batching).
    Replay(SessionBatch),
    /// Observing backends sharing the application's own pass.
    Observe(ObserverGroup),
    /// A perturbing backend's sub-batches forked from one shared image.
    Fork(PerturbGroup),
}

impl CellGroup {
    /// The resumable form of this group — the unit the grid spawns.
    pub fn task(&self) -> SessionTask {
        match self {
            CellGroup::Replay(b) => {
                SessionTask::batch(b.workload.app(), b.watchpoints.clone(), b.backend, &b.cpus)
            }
            CellGroup::Observe(g) => g.task(),
            CellGroup::Fork(g) => {
                let cpus: Vec<Vec<CpuConfig>> = g.batches.iter().map(|b| b.cpus.clone()).collect();
                SessionTask::perturbing_group(
                    g.workload.app(),
                    g.watchpoints.clone(),
                    g.backend,
                    &cpus,
                )
            }
        }
    }

    /// [`CellGroup::task`] through the persistent trace store — what
    /// the grid spawns: observer groups record on miss and replay on hit
    /// (see [`ObserverGroup::task_traced`]); perturbing groups change
    /// the functional stream and always execute, trace or no trace.
    pub fn task_traced(&self, trace: Option<&Path>) -> SessionTask {
        match self {
            CellGroup::Observe(g) => g.task_traced(trace),
            CellGroup::Replay(_) | CellGroup::Fork(_) => self.task(),
        }
    }

    /// Scatter a drained [`SessionTask`] output back to per-cell
    /// overheads tagged with original cell indices — the entry for cell
    /// `c` is byte-identical to `jobs[c].overhead(baselines)`.
    ///
    /// # Panics
    ///
    /// Panics when `output`'s shape does not match this group (a caller
    /// bug: the output must come from this group's
    /// [`CellGroup::task`]), and as [`SessionJob::overhead`].
    pub fn overheads_from(
        &self,
        output: TaskOutput,
        baselines: &BaselineCache,
    ) -> Vec<(usize, Option<f64>)> {
        // One (cells, reports) part per functional stream.
        type Part<'a> = (&'a [usize], Result<Vec<SessionReport>, DebugError>);
        let (workload, cpu, parts): (&Workload, CpuConfig, Vec<Part<'_>>) = match self {
            CellGroup::Replay(b) => (&b.workload, b.cpus[0], vec![(&b.cells, output.into_batch())]),
            CellGroup::Observe(g) => {
                // The outer error is an assembly failure; watchpoint
                // problems (ill-formed, unsupported) come back per
                // member, exactly as when each cell runs alone.
                let results =
                    output.into_observe().unwrap_or_else(|e| panic!("{}: {e}", g.workload.name()));
                let cells = g.members.iter().map(|m| &m.cells[..]);
                (&g.workload, g.members[0].cpus[0], cells.zip(results).collect())
            }
            CellGroup::Fork(g) => {
                let cells = g.batches.iter().map(|b| &b.cells[..]);
                let parts = match output.into_group() {
                    Ok(per_batch) => cells.zip(per_batch).collect(),
                    // A group-wide error (no sub-batch could run) is
                    // every sub-batch's error.
                    Err(e) => cells.map(|c| (c, Err(e.clone()))).collect(),
                };
                (&g.workload, g.batches[0].cpus[0], parts)
            }
        };
        let base =
            baselines.get_or_run(workload.name(), workload.app(), cpu).expect("kernel assembles");
        let mut out = Vec::new();
        for (cells, result) in parts {
            match result {
                Ok(reports) => {
                    for (&cell, r) in cells.iter().zip(&reports) {
                        assert_eq!(r.error, None, "{}: session must run clean", workload.name());
                        out.push((cell, Some(r.overhead_vs(&base))));
                    }
                }
                Err(DebugError::Unsupported { .. } | DebugError::InvalidWatchpoint { .. }) => {
                    out.extend(cells.iter().map(|&c| (c, None)));
                }
                Err(e) => panic!("{}: {e}", workload.name()),
            }
        }
        out
    }

    /// Original cell indices covered by this group.
    pub fn cells(&self) -> Vec<usize> {
        match self {
            CellGroup::Replay(b) => b.cells.clone(),
            CellGroup::Observe(g) => g.members.iter().flat_map(|m| m.cells.clone()).collect(),
            CellGroup::Fork(g) => g.batches.iter().flat_map(|b| b.cells.clone()).collect(),
        }
    }
}

/// Group grid cells for single-pass execution — the cell-key lattice
/// generalising [`BackendKind::split_timing`] across watchpoint sets
/// and backends:
///
/// * every cell's backend is first split into its functional core and
///   folded timing knobs;
/// * cells whose functional core **observes** (virtual memory, hardware
///   registers, DISE comparators) group by (kernel) alone into an
///   [`ObserverGroup`] — one pass of the unmodified application serves
///   every watchpoint set, every observing backend and every timing
///   configuration at once; within a group, cells sharing a
///   (backend, watchpoints) pair share one member (and one detector);
/// * cells whose functional core **perturbs** (single-stepping,
///   rewriting, DISE production injection) group by (kernel,
///   watchpoints, backend, DISE engine capacities) into a
///   [`SessionBatch`] — one private pass per distinct functional
///   stream, replayed under each member's timing configuration.
///
/// Kernel identity is the full workload (not just its name — two scales
/// of the same kernel are different programs). Groups appear in
/// first-appearance order and members keep cell order; grouping looks
/// only at the jobs, so the partition — and with it the reassembled
/// output — is identical for any worker count.
///
/// Engine-divergent perturbing cells of one (kernel, watchpoints,
/// backend) merge into a [`PerturbGroup`] and fork from one loaded
/// image — [`batch_session_jobs_with`]`(jobs, true)`.
pub fn batch_session_jobs(jobs: &[SessionJob]) -> Vec<CellGroup> {
    batch_session_jobs_with(jobs, true)
}

/// Parse the `DISE_TRACE_DIR` knob: the persistent trace-store
/// directory, `None` (no store — every observer group executes its own
/// pass) when unset or empty. With a store configured, the grid
/// **records** each observer group's shared functional pass on first
/// encounter and **replays** it from disk ever after — zero functional
/// passes, zero image loads, byte-identical output, with stale or
/// corrupt traces rejected loudly rather than silently re-run (see
/// [`ObserverGroup::task_traced`]).
///
/// # Panics
///
/// Panics on a non-unicode value ([`dise_env::env_string`]).
pub fn trace_dir_from_env() -> Option<PathBuf> {
    dise_env::env_string("DISE_TRACE_DIR").map(PathBuf::from)
}

/// Default scheduler slice budget (dynamic instructions per grant):
/// large enough that slicing overhead is noise, small enough that a
/// full grid still preempts hundreds of times.
pub const DEFAULT_SLICE: u64 = 65_536;

/// Parse the `DISE_SLICE` knob: the scheduler's per-grant instruction
/// budget, [`DEFAULT_SLICE`] when unset. Results are byte-identical
/// for every value (the determinism suite sweeps it); the knob trades
/// scheduling overhead against fairness granularity.
///
/// # Panics
///
/// Panics on an unparsable or zero value ([`dise_env::env_number`];
/// the [`Scheduler`] rejects zero-instruction slices).
pub fn slice_from_env() -> u64 {
    env_number("DISE_SLICE", DEFAULT_SLICE)
}

/// [`batch_session_jobs`] with the copy-on-write fork grouping chosen
/// explicitly: `cow_fork: false` keeps each engine configuration in its
/// own [`SessionBatch`] loading its own image — the unforked partition
/// the tests pin the forked one against, byte for byte.
pub fn batch_session_jobs_with(jobs: &[SessionJob], cow_fork: bool) -> Vec<CellGroup> {
    let mut groups: Vec<CellGroup> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let (backend, cpu) = job.backend.split_timing(job.cpu);
        if backend.observation_only() {
            let existing = groups.iter_mut().find_map(|g| match g {
                CellGroup::Observe(o) if o.workload == job.workload => Some(o),
                _ => None,
            });
            let group = match existing {
                Some(o) => o,
                None => {
                    groups.push(CellGroup::Observe(ObserverGroup {
                        workload: job.workload.clone(),
                        members: Vec::new(),
                    }));
                    let Some(CellGroup::Observe(o)) = groups.last_mut() else { unreachable!() };
                    o
                }
            };
            match group
                .members
                .iter_mut()
                .find(|m| m.backend == backend && m.watchpoints == job.watchpoints)
            {
                Some(m) => {
                    m.cpus.push(cpu);
                    m.cells.push(i);
                }
                None => group.members.push(ObserverMember {
                    backend,
                    watchpoints: job.watchpoints.clone(),
                    cpus: vec![cpu],
                    cells: vec![i],
                }),
            }
        } else if cow_fork {
            let existing = groups.iter_mut().find_map(|g| match g {
                CellGroup::Fork(p)
                    if p.backend == backend
                        && p.workload == job.workload
                        && p.watchpoints == job.watchpoints =>
                {
                    Some(p)
                }
                _ => None,
            });
            let group = match existing {
                Some(p) => p,
                None => {
                    groups.push(CellGroup::Fork(PerturbGroup {
                        workload: job.workload.clone(),
                        watchpoints: job.watchpoints.clone(),
                        backend,
                        batches: Vec::new(),
                    }));
                    let Some(CellGroup::Fork(p)) = groups.last_mut() else { unreachable!() };
                    p
                }
            };
            match group.batches.iter_mut().find(|b| b.cpus[0].engine == cpu.engine) {
                Some(b) => {
                    b.cpus.push(cpu);
                    b.cells.push(i);
                }
                None => {
                    group.batches.push(PerturbSubBatch { cpus: vec![cpu], cells: vec![i] });
                }
            }
        } else {
            let existing = groups.iter_mut().find_map(|g| match g {
                CellGroup::Replay(b)
                    if b.backend == backend
                        && b.workload == job.workload
                        && b.watchpoints == job.watchpoints
                        && b.cpus[0].engine == cpu.engine =>
                {
                    Some(b)
                }
                _ => None,
            });
            match existing {
                Some(b) => {
                    b.cpus.push(cpu);
                    b.cells.push(i);
                }
                None => groups.push(CellGroup::Replay(SessionBatch {
                    workload: job.workload.clone(),
                    watchpoints: job.watchpoints.clone(),
                    backend,
                    cpus: vec![cpu],
                    cells: vec![i],
                })),
            }
        }
    }
    groups
}

/// Run a whole overhead grid on `workers` scheduler threads, grouping
/// cells into single functional passes wherever the lattice allows —
/// across timing configurations for perturbing backends, and across
/// backend × timing simultaneously for observing ones (`batching:
/// false` runs every cell independently — the reference path the
/// determinism suite compares against). The slice budget comes from
/// `DISE_SLICE` and the trace store from `DISE_TRACE_DIR`. Results come
/// back in cell order either way, byte-identical to the serial
/// unbatched map.
pub fn run_overhead_grid(
    cells: &[SessionJob],
    workers: usize,
    baselines: &BaselineCache,
    batching: bool,
) -> Vec<Option<f64>> {
    let trace = trace_dir_from_env();
    run_overhead_grid_with(
        cells,
        workers,
        baselines,
        batching,
        Some(slice_from_env()),
        trace.as_deref(),
    )
}

/// [`run_overhead_grid`] with the scheduler and trace-store knobs
/// passed explicitly: the grid's groups (or bare cells when batching is
/// off) run as [`SessionTask`] continuations on one [`Scheduler`]
/// drained by `workers` threads, granted `sched: Some(slice)`
/// instructions per slice, or one unsliced grant per task with
/// `sched: None`; `trace: Some(dir)` routes every observer group
/// through the persistent trace store at `dir` (record on miss, replay
/// on hit — see [`trace_dir_from_env`]). Output is byte-identical for
/// every combination — the determinism suite pins cold-vs-warm store
/// runs against the traceless reference across slice budgets and
/// worker counts.
pub fn run_overhead_grid_with(
    cells: &[SessionJob],
    workers: usize,
    baselines: &BaselineCache,
    batching: bool,
    sched: Option<u64>,
    trace: Option<&Path>,
) -> Vec<Option<f64>> {
    // Task ids are spawn order, so the drained outputs scatter back
    // deterministically regardless of worker count, slice budget, or
    // completion order.
    let scheduler = Scheduler::new(sched.unwrap_or(u64::MAX));
    let mut out = vec![None; cells.len()];
    if !batching {
        for job in cells {
            scheduler.spawn(job.task());
        }
        for (id, output) in scheduler.drain(workers) {
            out[id] = cells[id].overhead_of(
                output
                    .into_batch()
                    .map(|mut reports| reports.pop().expect("a session task is a batch of one")),
                baselines,
            );
        }
    } else {
        let groups = batch_session_jobs(cells);
        for group in &groups {
            scheduler.spawn(group.task_traced(trace));
        }
        for (id, output) in scheduler.drain(workers) {
            for (cell, o) in groups[id].overheads_from(output, baselines) {
                out[cell] = o;
            }
        }
    }
    out
}

/// Worker-pool size from the `DISE_JOBS` environment variable, or the
/// machine's available parallelism when unset.
///
/// # Panics
///
/// Panics on an unparsable or zero `DISE_JOBS` — a typo must fail
/// loudly, not silently serialise the grid.
pub fn configured_workers() -> usize {
    let default = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = env_number("DISE_JOBS", default);
    assert!(workers > 0, "DISE_JOBS must be >= 1");
    workers
}

/// Run `f` over every job on the configured worker pool (see
/// [`configured_workers`]) and return the results in job order.
pub fn run_grid<J, R, F>(jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    run_grid_with(jobs, configured_workers(), f)
}

/// Run `f` over every job on a pool of exactly `workers` threads and
/// return the results in job order — byte-identical to the serial
/// `jobs.iter().map(f)` regardless of scheduling.
///
/// With `workers == 1` (or one job) everything runs inline on the
/// calling thread. A panic in any job is propagated to the caller once
/// all workers have drained.
///
/// # Panics
///
/// Panics if `workers == 0`, and re-raises the first job panic.
pub fn run_grid_with<J, R, F>(jobs: &[J], workers: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    assert!(workers > 0, "worker pool needs at least one thread");
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let panic = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                match catch_unwind(AssertUnwindSafe(|| f(job))) {
                    Ok(r) => *results[i].lock().expect("result slot poisoned") = Some(r),
                    Err(cause) => {
                        // Record the first panic (by job order) and keep
                        // draining, so the scope joins cleanly and the
                        // caller sees a deterministic failure.
                        let mut p = panic.lock().expect("panic slot poisoned");
                        match *p {
                            Some((j, _)) if j < i => {}
                            _ => *p = Some((i, cause)),
                        }
                    }
                }
            });
        }
    });
    if let Some((_, cause)) = panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(cause);
    }
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned").expect("job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_debug::{DiseStrategy, Step};
    use dise_workloads::{all, transition_cost_sweep, WatchKind};

    #[test]
    fn timing_only_cells_group_into_one_batch() {
        let w = &all(10)[0];
        let wp = vec![w.watchpoint(WatchKind::Hot)];
        let mt = BackendKind::Dise(DiseStrategy {
            multithreaded_calls: true,
            ..DiseStrategy::default()
        });
        let jobs: Vec<SessionJob> = [
            (BackendKind::dise_default(), CpuConfig::default()),
            (mt, CpuConfig::default()),
            (BackendKind::hw4(), CpuConfig::default()),
        ]
        .into_iter()
        .map(|(b, c)| SessionJob::new(w.clone(), wp.clone(), b, c))
        .collect();
        let groups = batch_session_jobs_with(&jobs, false);
        assert_eq!(groups.len(), 2, "the two DISE cells differ only in timing");
        let CellGroup::Replay(dise) = &groups[0] else {
            panic!("DISE perturbs: must be a private replay")
        };
        assert_eq!(dise.cells, vec![0, 1]);
        assert!(dise.cpus[1].multithreaded_dise_calls, "mt knob folded into the config");
        assert_eq!(groups[1].cells(), vec![2]);

        // With copy-on-write forking the same cells form one perturbing
        // group holding a single engine sub-batch.
        let groups = batch_session_jobs_with(&jobs, true);
        assert_eq!(groups.len(), 2);
        let CellGroup::Fork(dise) = &groups[0] else {
            panic!("DISE perturbs: must fork from a shared image")
        };
        assert_eq!(dise.batches.len(), 1, "identical engines share one functional stream");
        assert_eq!(dise.batches[0].cells, vec![0, 1]);
    }

    /// The lattice's new axis: cells that differ in *backend* — as long
    /// as every backend observes — share one group, and therefore one
    /// functional pass, alongside their timing spread.
    #[test]
    fn observing_backends_group_across_backend_and_timing() {
        let w = &all(10)[0];
        let wp = vec![w.watchpoint(WatchKind::Warm1)];
        let mut jobs = Vec::new();
        for (_, cpu) in transition_cost_sweep(CpuConfig::default()) {
            for backend in [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::SingleStep]
            {
                jobs.push(SessionJob::new(w.clone(), wp.clone(), backend, cpu));
            }
        }
        let groups = batch_session_jobs_with(&jobs, false);
        assert_eq!(groups.len(), 2, "VM+HW share a pass; single-stepping replays privately");
        let CellGroup::Observe(o) = &groups[0] else { panic!("first group must observe") };
        assert_eq!(o.members.len(), 2);
        assert_eq!(o.members[0].backend, BackendKind::VirtualMemory);
        assert_eq!(o.members[0].cells, vec![0, 3, 6]);
        assert_eq!(o.members[1].backend, BackendKind::hw4());
        assert_eq!(o.members[1].cells, vec![1, 4, 7]);
        let CellGroup::Replay(ss) = &groups[1] else { panic!("single-step must replay") };
        assert_eq!(ss.cells, vec![2, 5, 8]);
    }

    /// The lattice's final axis: observing cells that differ in
    /// *watchpoint set* — and in backend, and in timing — all collapse
    /// into one per-workload group, one member per distinct
    /// (backend, watchpoints) pair. A perturbing cell never joins.
    #[test]
    fn observing_backends_group_across_watchpoint_sets() {
        let w = &all(10)[0];
        let sets = [
            vec![w.watchpoint(WatchKind::Hot)],
            vec![w.watchpoint(WatchKind::Warm1), w.watchpoint(WatchKind::Cold)],
            vec![w.watchpoint(WatchKind::Range)],
        ];
        let mut jobs = Vec::new();
        for set in &sets {
            for backend in
                [BackendKind::VirtualMemory, BackendKind::DiseComparators, BackendKind::hw4()]
            {
                for (_, cpu) in transition_cost_sweep(CpuConfig::default()).into_iter().take(2) {
                    jobs.push(SessionJob::new(w.clone(), set.clone(), backend, cpu));
                }
            }
            jobs.push(SessionJob::new(
                w.clone(),
                set.clone(),
                BackendKind::dise_default(),
                CpuConfig::default(),
            ));
        }
        let groups = batch_session_jobs_with(&jobs, false);
        // One observer group for the whole workload; DISE replays
        // privately, one batch per watchpoint set.
        assert_eq!(groups.len(), 1 + sets.len(), "{groups:#?}");
        let CellGroup::Observe(o) = &groups[0] else { panic!("first group must observe") };
        assert_eq!(o.members.len(), 9, "3 sets x 3 observing backends");
        for m in &o.members {
            assert_eq!(m.cpus.len(), 2, "each member carries its two timing configs");
        }
        assert!(sets.iter().all(|s| o.members.iter().any(|m| &m.watchpoints == s)));
        for g in &groups[1..] {
            let CellGroup::Replay(b) = g else { panic!("DISE must replay privately") };
            assert_eq!(b.backend, BackendKind::dise_default());
        }
    }

    /// Observer groups ignore DISE engine capacities (observers install
    /// no productions), so engine-divergent cells still merge — while
    /// the perturbing replay path keeps them apart.
    #[test]
    fn observer_groups_merge_across_engine_configs() {
        let w = &all(10)[0];
        let wp = vec![w.watchpoint(WatchKind::Warm1)];
        let small_engine = CpuConfig {
            engine: dise_engine::EngineConfig { pattern_entries: 8, replacement_entries: 64 },
            ..CpuConfig::default()
        };
        let jobs = [
            SessionJob::new(
                w.clone(),
                wp.clone(),
                BackendKind::VirtualMemory,
                CpuConfig::default(),
            ),
            SessionJob::new(w.clone(), wp.clone(), BackendKind::VirtualMemory, small_engine),
        ];
        let groups = batch_session_jobs(&jobs);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].cells(), vec![0, 1]);
    }

    #[test]
    fn same_name_different_scale_workloads_stay_separate() {
        // Two scales of the same kernel share a name but are different
        // programs; merging them would run only the first one's app.
        let small = &all(10)[0];
        let large = &all(20)[0];
        assert_eq!(small.name(), large.name());
        let jobs = [small, large].map(|w| {
            SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Hot)],
                BackendKind::dise_default(),
                CpuConfig::default(),
            )
        });
        assert_eq!(batch_session_jobs(&jobs).len(), 2);
    }

    #[test]
    fn functionally_different_cells_stay_separate() {
        let w = &all(10)[0];
        let small_engine = CpuConfig {
            engine: dise_engine::EngineConfig { pattern_entries: 8, replacement_entries: 64 },
            ..CpuConfig::default()
        };
        let jobs = [
            SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Hot)],
                BackendKind::dise_default(),
                CpuConfig::default(),
            ),
            // Different watchpoint.
            SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Cold)],
                BackendKind::dise_default(),
                CpuConfig::default(),
            ),
            // Different engine capacity: functional, must not merge.
            SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Hot)],
                BackendKind::dise_default(),
                small_engine,
            ),
        ];
        assert_eq!(batch_session_jobs_with(&jobs, false).len(), 3);
        // With forking, the engine-divergent cells 0 and 2 share one
        // image (one group, two sub-batches — two functional streams,
        // one load); the different watchpoint still stands alone.
        let groups = batch_session_jobs_with(&jobs, true);
        assert_eq!(groups.len(), 2);
        let CellGroup::Fork(p) = &groups[0] else { panic!("perturbing cells must fork") };
        assert_eq!(p.batches.len(), 2, "one sub-batch per engine configuration");
        assert_eq!(p.batches[0].cells, vec![0]);
        assert_eq!(p.batches[1].cells, vec![2]);
    }

    /// The acceptance bar: a grid containing batchable cells (a
    /// transition-cost sweep plus an unsupported combination) produces
    /// byte-identical overheads batched and unbatched, serial and
    /// pooled.
    #[test]
    fn batched_overheads_match_unbatched_cell_for_cell() {
        let w = &all(10)[0];
        let mut jobs = Vec::new();
        for (_, cpu) in transition_cost_sweep(CpuConfig::default()) {
            for backend in [BackendKind::hw4(), BackendKind::dise_default()] {
                jobs.push(SessionJob::new(
                    w.clone(),
                    vec![w.watchpoint(WatchKind::Warm1)],
                    backend,
                    cpu,
                ));
            }
        }
        // An unsupported cell: INDIRECT under virtual memory. It merges
        // into the workload's observer group (the group key no longer
        // carries watchpoints) and fails there per-member.
        jobs.push(SessionJob::new(
            w.clone(),
            vec![w.watchpoint(WatchKind::Indirect)],
            BackendKind::VirtualMemory,
            CpuConfig::default(),
        ));
        assert_eq!(
            batch_session_jobs(&jobs).len(),
            2,
            "one per-workload observer group (incl. the unsupported member), one DISE sweep"
        );

        let baselines = BaselineCache::new();
        let unbatched = run_overhead_grid(&jobs, 1, &baselines, false);
        for workers in [1, 4] {
            let batched = run_overhead_grid(&jobs, workers, &baselines, true);
            assert_eq!(batched, unbatched, "workers={workers}");
        }
        assert_eq!(unbatched[6], None, "unsupported cell renders the no-experiment bar");
    }

    /// The copy-on-write acceptance bar: a perturbing sweep spanning
    /// *engine capacities* (cells that can never share a functional
    /// stream) produces byte-identical overheads whether each engine
    /// configuration loads its own image (fork off) or every sub-batch
    /// forks from one shared image (fork on) — and both match the
    /// cell-by-cell unbatched reference.
    #[test]
    fn forked_overheads_match_unforked_cell_for_cell() {
        let w = &all(10)[0];
        let wp = vec![w.watchpoint(WatchKind::Warm1)];
        let small_engine = CpuConfig {
            engine: dise_engine::EngineConfig { pattern_entries: 8, replacement_entries: 64 },
            ..CpuConfig::default()
        };
        let mut jobs = Vec::new();
        for engine_cpu in [CpuConfig::default(), small_engine] {
            for (_, cpu) in transition_cost_sweep(engine_cpu).into_iter().take(2) {
                for backend in [BackendKind::dise_default(), BackendKind::BinaryRewrite] {
                    jobs.push(SessionJob::new(w.clone(), wp.clone(), backend, cpu));
                }
            }
        }
        // An unsupported perturbing cell: a multi-watchpoint set under
        // inline evaluation renders the no-experiment bar through the
        // fork path too.
        jobs.push(SessionJob::new(
            w.clone(),
            vec![w.watchpoint(WatchKind::Hot), w.watchpoint(WatchKind::Cold)],
            BackendKind::Dise(DiseStrategy::evaluate_inline(true)),
            CpuConfig::default(),
        ));

        let scatter = |groups: Vec<CellGroup>, baselines: &BaselineCache| {
            let mut out = vec![None; jobs.len()];
            for g in &groups {
                for (cell, o) in g.overheads_from(g.task().run_to_completion(), baselines) {
                    out[cell] = o;
                }
            }
            out
        };
        let baselines = BaselineCache::new();
        let unbatched: Vec<Option<f64>> = jobs.iter().map(|job| job.overhead(&baselines)).collect();
        let forked = scatter(batch_session_jobs_with(&jobs, true), &baselines);
        let unforked = scatter(batch_session_jobs_with(&jobs, false), &baselines);
        assert_eq!(forked, unbatched, "forked grid diverged from cell-by-cell reference");
        assert_eq!(unforked, unbatched, "unforked grid diverged from cell-by-cell reference");
        assert_eq!(unbatched[8], None, "unsupported cell renders the no-experiment bar");
    }

    /// An observer recording abandoned partway publishes nothing, and
    /// the next traced task for that kernel therefore records — a
    /// replay would fail to open the missing trace — rather than
    /// replaying a partial stream.
    #[test]
    fn abandoned_recording_publishes_nothing_and_the_next_run_records() {
        let w = &all(10)[0];
        let jobs: Vec<SessionJob> = [BackendKind::VirtualMemory, BackendKind::hw4()]
            .into_iter()
            .map(|b| {
                SessionJob::new(
                    w.clone(),
                    vec![w.watchpoint(WatchKind::Warm1)],
                    b,
                    CpuConfig::default(),
                )
            })
            .collect();
        let groups = batch_session_jobs(&jobs);
        let [CellGroup::Observe(group)] = groups.as_slice() else {
            panic!("observing cells share one group: {groups:#?}")
        };
        let dir =
            std::env::temp_dir().join(format!("dise-abandoned-recording-{}", std::process::id()));
        let path = group.trace_path(&dir).expect("kernel assembles");

        let members = group
            .members
            .iter()
            .map(|m| (m.backend, m.watchpoints.clone(), m.cpus.clone()))
            .collect();
        let mut task = SessionTask::observer_recorded(w.app(), members, &path);
        assert!(matches!(task.poll(1_000), Step::Yielded(_)), "abandoned mid-recording");
        drop(task);
        assert!(!path.exists(), "an abandoned recording publishes no trace");
        let leftovers = std::fs::read_dir(&dir).expect("store exists").count();
        assert_eq!(leftovers, 0, "nor any staged partial file");

        let baselines = BaselineCache::new();
        let run =
            |task: SessionTask| groups[0].overheads_from(task.run_to_completion(), &baselines);
        let reference = run(group.task());
        let recorded = run(group.task_traced(Some(&dir)));
        assert_eq!(recorded, reference, "the next traced run records the whole pass");
        assert!(path.exists(), "and publishes it on completion");
        let replayed = run(group.task_traced(Some(&dir)));
        assert_eq!(replayed, reference, "which the run after replays");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 8, 200] {
            assert_eq!(run_grid_with(&jobs, workers, |j| j * j), serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u64> = run_grid_with(&Vec::<u64>::new(), 8, |j| *j);
        assert!(out.is_empty());
    }

    #[test]
    fn panic_in_job_propagates() {
        let jobs: Vec<u64> = (0..32).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_grid_with(&jobs, 4, |j| {
                if *j == 17 {
                    panic!("job 17 exploded");
                }
                *j
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 17 exploded");
    }

    #[test]
    fn first_panic_by_job_order_wins() {
        let jobs: Vec<u64> = (0..32).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_grid_with(&jobs, 8, |j| {
                if *j >= 3 {
                    panic!("job {j} exploded");
                }
                *j
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "job 3 exploded");
    }
}
