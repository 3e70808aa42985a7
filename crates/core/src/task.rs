//! Resumable session execution: every debugging-session shape as a
//! [`SessionTask`] state machine that can be driven one bounded slice
//! at a time.
//!
//! A task is a *continuation*: [`SessionTask::poll`] advances it by at
//! most `budget` dynamic instructions and reports
//! [`Step::Yielded`] (more to do), [`Step::Blocked`] (parked on an
//! external gate), or [`Step::Done`] (the finished [`TaskOutput`]).
//! Because the simulator is deterministic and budgeted stepping is
//! slicing-invariant, a task polled under *any* sequence of budgets
//! produces the byte-identical `Exec` stream, reports, and
//! instrumentation counters as one `u64::MAX` run — which is what lets
//! [`crate::Scheduler`] multiplex thousands of sessions over a few
//! worker threads without perturbing a single result (the grid
//! determinism suites in `dise-bench` hold it to that).
//!
//! There is one implementation per session shape. A perturbing pass is a
//! `Pass` — the same type [`crate::Session`] wraps with its checkpoint
//! ring — admitted by one function whether it serves a lone session, a
//! timing batch, or a copy-on-write sub-batch of a perturbing group. An
//! observer pass is one `ObserveRun` over a stream source: a live
//! machine (optionally recording to a trace) or a stored trace with a
//! shadow memory. The run-to-completion entry points
//! ([`crate::run_session_batch`], [`crate::run_perturbing_group`],
//! [`crate::ObserverBatch::run`]) are [`SessionTask::run_to_completion`]
//! over these tasks.
//!
//! ## Lifecycle
//!
//! ```text
//! spawn ──▶ Pending ──(first poll: admission)──▶ Running ──▶ Done
//!              │                                    ▲
//!              └── gate set ──▶ Blocked ──unblock───┘
//! ```
//!
//! Admission — watchpoint validation, backend instantiation,
//! `build_program`, the image load — is *lazy*: it happens at the first
//! granted slice, not at construction. A spawned-but-unstarted task is
//! just plain data (an [`Application`] and some configurations), which
//! is how a scheduler holds >1000 concurrently in-flight sessions
//! cheaply on a single core.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dise_asm::Program;
use dise_cpu::{
    program_fingerprint, CpuConfig, Event, Exec, ExecError, Executor, RunStats, TimingBatch,
    TraceReader, TraceWriter, MAX_BLOCK_STEPS,
};
use dise_mem::Memory;
use dise_trace::TraceError;

use crate::backend::{BackendImpl, ObserverImpl};
use crate::session::{
    validate_watchpoints, DebugError, SessionReport, CHECKPOINT_FORKS, FUNCTIONAL_PASSES,
    IMAGE_LOADS,
};
use crate::trace::{TRACE_RECORDS, TRACE_REPLAYS};
use crate::{Application, BackendKind, TransitionStats, WatchFilter, WatchState, Watchpoint};

/// Chunks dispatched by the observer fan-out, live and replayed alike:
/// every clean chunk, and every dirty record as a chunk of its own.
pub(crate) static FANOUT_CHUNKS: AtomicU64 = AtomicU64::new(0);
/// Per-member skip decisions: a clean chunk reaches the member's timing
/// as one slice and its `observe` never runs. Every member skips every
/// clean chunk.
pub(crate) static FANOUT_CHUNKS_SKIPPED: AtomicU64 = AtomicU64::new(0);
/// Per-member scan decisions: every member observes every dirty record.
/// `skipped + scanned == members × chunks`, always, and each is a
/// multiple of the member count.
pub(crate) static FANOUT_CHUNKS_SCANNED: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of chunks dispatched by the observer fan-out.
pub fn fanout_chunks() -> u64 {
    FANOUT_CHUNKS.load(Ordering::Relaxed)
}

/// Process-wide count of per-member whole-chunk skips (clean chunks).
pub fn fanout_chunks_skipped() -> u64 {
    FANOUT_CHUNKS_SKIPPED.load(Ordering::Relaxed)
}

/// Process-wide count of per-member observations of a dirty record.
pub fn fanout_chunks_scanned() -> u64 {
    FANOUT_CHUNKS_SCANNED.load(Ordering::Relaxed)
}

/// What one [`SessionTask::poll`] call reports.
#[derive(Debug)]
pub enum Step {
    /// The budget ran out with work remaining; poll again to continue.
    Yielded(TaskProgress),
    /// The task is parked behind a gate ([`SessionTask::block`] /
    /// `Scheduler::spawn_after`) and consumed none of the budget; it
    /// must be unblocked before it can run.
    Blocked(String),
    /// The task finished; it must not be polled again.
    Done(TaskOutput),
}

/// Virtual progress of a yielded task — the scheduler's priority key
/// (least-progressed first, so long sessions cannot starve short ones).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskProgress {
    /// Dynamic instructions this task has retired so far, across every
    /// machine it has driven (a perturbing group accumulates over its
    /// sub-batch forks).
    pub instructions: u64,
}

/// The finished result of a [`SessionTask`], shaped exactly like the
/// run-to-completion entry point the task wraps.
#[derive(Debug)]
pub enum TaskOutput {
    /// From [`SessionTask::batch`] / [`SessionTask::session`]: what
    /// [`crate::run_session_batch`] returns.
    Batch(Result<Vec<SessionReport>, DebugError>),
    /// From [`SessionTask::perturbing_group`]: what
    /// [`crate::run_perturbing_group`] returns.
    Group(Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError>),
    /// From [`SessionTask::observer`]: what
    /// [`crate::ObserverBatch::run`] returns.
    Observe(Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError>),
}

impl TaskOutput {
    /// Unwrap a [`TaskOutput::Batch`].
    ///
    /// # Panics
    ///
    /// Panics when the task was not constructed by
    /// [`SessionTask::batch`] or [`SessionTask::session`] — a shape
    /// mismatch is a caller bug, never data-dependent.
    pub fn into_batch(self) -> Result<Vec<SessionReport>, DebugError> {
        match self {
            TaskOutput::Batch(r) => r,
            other => panic!("expected a batch task output, got {}", other.shape()),
        }
    }

    /// Unwrap a [`TaskOutput::Group`].
    ///
    /// # Panics
    ///
    /// Panics when the task was not constructed by
    /// [`SessionTask::perturbing_group`].
    pub fn into_group(self) -> Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError> {
        match self {
            TaskOutput::Group(r) => r,
            other => panic!("expected a perturbing-group task output, got {}", other.shape()),
        }
    }

    /// Unwrap a [`TaskOutput::Observe`].
    ///
    /// # Panics
    ///
    /// Panics when the task was not constructed by
    /// [`SessionTask::observer`].
    pub fn into_observe(self) -> Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError> {
        match self {
            TaskOutput::Observe(r) => r,
            other => panic!("expected an observer task output, got {}", other.shape()),
        }
    }

    fn shape(&self) -> &'static str {
        match self {
            TaskOutput::Batch(_) => "batch",
            TaskOutput::Group(_) => "perturbing group",
            TaskOutput::Observe(_) => "observer",
        }
    }
}

/// A resumable debugging-session continuation: one of the three
/// run-to-completion shapes ([`crate::run_session_batch`],
/// [`crate::run_perturbing_group`], [`crate::ObserverBatch`]) driven a
/// bounded number of instructions per [`SessionTask::poll`].
pub struct SessionTask {
    gate: Option<String>,
    progress: u64,
    state: State,
}

enum State {
    PendingBatch(PerturbSpec, Vec<CpuConfig>),
    Batch(Box<Pass>),
    PendingGroup(PerturbSpec, Vec<Vec<CpuConfig>>),
    Group(Box<GroupRun>),
    PendingObserve(ObserveSpec),
    Observe(Box<ObserveRun>),
    Finished,
}

/// The session a perturbing task admits: the application, its
/// watchpoints, and the backend implementing them.
struct PerturbSpec {
    app: Application,
    watchpoints: Vec<Watchpoint>,
    backend: BackendKind,
}

struct ObserveSpec {
    app: Application,
    members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
    stream: Stream,
    fanout: Fanout,
}

/// How an observer pass fans its shared `Exec` stream out to its
/// members. Neither value changes a single report byte — only speed —
/// so they exist for the references the identity tests and the fan-out
/// ablation compare against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fanout {
    /// Clean records buffered before timing consumes them as one
    /// slice; `1` is the per-record fan-out.
    pub chunk: usize,
    /// Members with identical `CpuConfig` lists share one copy-on-write
    /// timing group; `false` gives every member private timing models.
    pub share_timing: bool,
}

impl Default for Fanout {
    /// Chunks aligned with the block cache's [`MAX_BLOCK_STEPS`],
    /// timing shared.
    fn default() -> Fanout {
        Fanout { chunk: MAX_BLOCK_STEPS, share_timing: true }
    }
}

/// Where an observer task takes its shared `Exec` stream from.
enum Stream {
    /// Execute the unmodified application.
    Execute,
    /// Execute it and persist the stream to this trace file as a side
    /// effect ([`SessionTask::observer_recorded`]).
    Record(PathBuf),
    /// Replay the stream stored at this trace file
    /// ([`SessionTask::observer_replay`]).
    Replay(PathBuf),
}

/// One perturbing functional pass: the machine, its fanned-out timing
/// models, the backend, and the debugger bookkeeping, owned so it
/// survives between polls. A batch task drives one, a perturbing group
/// one per sub-batch, and [`crate::Session`] wraps one with its
/// checkpoint ring.
pub(crate) struct Pass {
    pub(crate) exec: Executor,
    pub(crate) timings: TimingBatch,
    pub(crate) backend: Box<dyn BackendImpl>,
    pub(crate) watch: WatchState,
    pub(crate) stats: TransitionStats,
    pub(crate) error: Option<ExecError>,
    pub(crate) text_bytes: u64,
    /// One functional pass is counted per pass however many times it is
    /// driven (budgeted slices, checkpoint chunking).
    counted: bool,
}

impl Pass {
    /// The one admission of a perturbing pass, shared by
    /// [`crate::Session::with_config`], batch tasks and every
    /// perturbing-group sub-batch: fold the backend's timing knobs into
    /// `cpus`, obtain the machine for their functional configuration
    /// from `machine` (a fresh image load, or a fork of a group's
    /// template), and configure the backend on it. `Ok(None)` is the
    /// empty-configuration batch (no pass to run).
    ///
    /// # Panics
    ///
    /// Panics when the configurations disagree on the DISE engine
    /// capacities — such cells are functionally different and must not
    /// be batched.
    pub(crate) fn admit(
        mut backend: Box<dyn BackendImpl>,
        watchpoints: &[Watchpoint],
        cpus: &[CpuConfig],
        text_bytes: u64,
        machine: impl FnOnce(CpuConfig) -> Result<Executor, DebugError>,
    ) -> Result<Option<Pass>, DebugError> {
        let cfgs: Vec<CpuConfig> = cpus.iter().map(|&c| backend.cpu_config(c)).collect();
        let Some((first, rest)) = cfgs.split_first() else {
            return Ok(None);
        };
        assert!(
            rest.iter().all(|c| c.engine == first.engine),
            "batched sessions must agree on the functional (DISE engine) configuration"
        );
        let mut exec = machine(*first)?;
        backend.configure(&mut exec, watchpoints)?;
        Ok(Some(Pass {
            watch: WatchState::new(watchpoints, exec.mem()),
            timings: TimingBatch::new(&cfgs),
            exec,
            backend,
            stats: TransitionStats::default(),
            error: None,
            text_bytes,
            counted: false,
        }))
    }

    /// Drive at most `budget` further instructions through the machine
    /// and the backend, fanning every record out to the timing models;
    /// returns how many retired (the caller's progress/budget
    /// accounting).
    pub(crate) fn drive_budget(&mut self, budget: u64) -> u64 {
        if !self.counted {
            self.counted = true;
            FUNCTIONAL_PASSES.fetch_add(1, Ordering::Relaxed);
        }
        let Pass { exec, timings, backend, watch, stats, error, .. } = self;
        let mut n = 0u64;
        while n < budget && !exec.is_halted() {
            let e = exec.step();
            n += 1;
            timings.consume(&e);
            if let Some(t) = backend.observe(&e, exec, watch, stats) {
                stats.count(t);
                if t.is_spurious() {
                    // A spurious transition is a full application→
                    // debugger→application round trip perceived as
                    // latency; user transitions are masked (zero cost).
                    // Each model charges its own configured cost.
                    timings.debugger_stall();
                }
            }
            if let Some(Event::Error(err)) = e.event {
                // The machine halts on its first error, so at most one
                // record ever carries one.
                *error = Some(err);
            }
        }
        n
    }

    fn done(&self) -> bool {
        self.exec.is_halted()
    }

    fn finish(self) -> Vec<SessionReport> {
        let (stats, error, text_bytes) = (self.stats, self.error, self.text_bytes);
        self.timings
            .finish()
            .into_iter()
            .map(|run| SessionReport { run, transitions: stats, error, text_bytes })
            .collect()
    }
}

/// The static half of admitting a perturbing session: validate the
/// watchpoints, instantiate the backend, and build the program it runs.
fn build(
    app: &Application,
    watchpoints: &[Watchpoint],
    backend: BackendKind,
) -> Result<(Box<dyn BackendImpl>, Program), DebugError> {
    validate_watchpoints(watchpoints)?;
    let mut built = backend.instantiate();
    let prog = built.build_program(app, watchpoints)?;
    Ok((built, prog))
}

/// Admission for a batch task and for [`crate::Session`]: build, load
/// a fresh image, and admit the pass.
pub(crate) fn admit_batch(
    app: &Application,
    watchpoints: &[Watchpoint],
    backend: BackendKind,
    cpus: &[CpuConfig],
) -> Result<Option<Pass>, DebugError> {
    let (backend, prog) = build(app, watchpoints, backend)?;
    Pass::admit(backend, watchpoints, cpus, prog.text_bytes(), |cfg| {
        IMAGE_LOADS.fetch_add(1, Ordering::Relaxed);
        Ok(Executor::from_program(&prog, cfg))
    })
}

/// The perturbing-group continuation: the built backend and program
/// (static work, done once at admission), the warmed copy-on-write
/// template, and the cursor over sub-batches, each admitted and driven
/// as its own [`Pass`].
struct GroupRun {
    built: Box<dyn BackendImpl>,
    prog: Program,
    watchpoints: Vec<Watchpoint>,
    batches: Vec<Vec<CpuConfig>>,
    /// The warmed template: image loaded, PC at entry, SP set, never
    /// stepped. Its engine configuration is irrelevant — every
    /// sub-batch forks with its own capacities.
    template: Option<Executor>,
    next: usize,
    current: Option<Pass>,
    out: Vec<Result<Vec<SessionReport>, DebugError>>,
}

impl GroupRun {
    /// Advance by at most `budget` instructions; `Some(results)` when
    /// the whole group has finished.
    fn advance(
        &mut self,
        mut budget: u64,
        progress: &mut u64,
    ) -> Option<Vec<Result<Vec<SessionReport>, DebugError>>> {
        loop {
            if let Some(pass) = self.current.as_mut() {
                let ran = pass.drive_budget(budget);
                *progress += ran;
                budget -= ran;
                if !pass.done() {
                    return None; // budget exhausted mid-sub-batch
                }
                let pass = self.current.take().expect("current pass present");
                self.out.push(Ok(pass.finish()));
            }
            let GroupRun { built, prog, watchpoints, batches, template, next, .. } = self;
            let Some(cpus) = batches.get(*next) else {
                return Some(std::mem::take(&mut self.out));
            };
            *next += 1;
            let admitted =
                Pass::admit(built.boxed_clone(), watchpoints, cpus, prog.text_bytes(), |cfg| {
                    let template = template.get_or_insert_with(|| {
                        IMAGE_LOADS.fetch_add(1, Ordering::Relaxed);
                        Executor::from_program(prog, cfg)
                    });
                    let exec = template.fork_with_config(cfg)?;
                    CHECKPOINT_FORKS.fetch_add(1, Ordering::Relaxed);
                    Ok(exec)
                });
            match admitted {
                Ok(Some(pass)) => self.current = Some(pass),
                Ok(None) => self.out.push(Ok(Vec::new())),
                Err(e) => self.out.push(Err(e)),
            }
        }
    }
}

/// One admitted member of an observer pass: its replayable detector and
/// private accounting, fed the shared `Exec` stream. `filter` is the
/// member's precomputed store-footprint filter; the fan-out rebuilds it
/// (for dynamic filters only) after every dirty record.
struct LiveObserver {
    member: usize,
    observer: Box<dyn ObserverImpl>,
    watch: WatchState,
    filter: WatchFilter,
    timing: MemberTiming,
    stats: TransitionStats,
}

/// Where a member's timing models live: in a shared copy-on-write
/// [`TimingGroup`], or privately once the member's cycle stream has
/// diverged from its group's.
///
/// Timing is a pure function of the record stream and the member's
/// *spurious-stall* sequence (non-spurious transitions touch statistics,
/// never cycles). Members admitted with identical `CpuConfig` lists
/// therefore hold bit-identical timing state until the first spurious
/// transition — so the fan-out consumes each chunk **once per group**
/// instead of once per member, and a member forks its private copy of
/// the group state (exactly as of the preceding record) at the moment it
/// first needs to interleave a stall. [`Fanout::share_timing`] `false`
/// disables the sharing; every report is byte-identical either way.
enum MemberTiming {
    Shared(usize),
    Private(TimingBatch),
}

impl MemberTiming {
    /// The member is about to interleave a stall with its consumes:
    /// detach from the shared group (which has *not* consumed the
    /// current record yet) and return the private models.
    fn fork<'a>(&'a mut self, groups: &mut [TimingGroup]) -> &'a mut TimingBatch {
        if let MemberTiming::Shared(g) = *self {
            groups[g].members -= 1;
            *self = MemberTiming::Private(groups[g].timings.clone());
        }
        match self {
            MemberTiming::Private(t) => t,
            MemberTiming::Shared(_) => unreachable!("just forked"),
        }
    }
}

/// One shared timing state per distinct `CpuConfig` list across the
/// batch's members.
struct TimingGroup {
    timings: TimingBatch,
    cfgs: Vec<CpuConfig>,
    /// Members still on the group; once every one has forked off, the
    /// group stops consuming.
    members: usize,
}

/// Must `e` leave the clean bulk path? A record is dirty when it
/// carries an event (every member must classify it at exact memory) or
/// its store touches some member's filter (that member must observe it
/// at exact memory — and for an indirect watch the filter includes the
/// pointer cell, so a retargeting store is always dirty and the filters
/// never go stale inside a clean chunk).
fn record_is_dirty(live: &[LiveObserver], e: &Exec) -> bool {
    if e.event.is_some() {
        return true;
    }
    match e.mem {
        Some(m) if m.is_store => live.iter().any(|l| l.filter.hits_store(m.addr, m.width)),
        _ => false,
    }
}

/// The observer fan-out, shared verbatim by the live pass and the trace
/// replay. A clean record is invisible to every member — its store, if
/// any, misses every filter, and it carries no event — so:
///
/// - clean records buffer into `chunk` (up to `cap`), and a flush hands
///   them to every member's timing as one slice, with no `observe` call;
/// - a dirty record flushes the clean prefix and is then observed by
///   every member on its own, at memory exactly as of that record, with
///   the scalar loop's consume/observe/stall order.
///
/// Byte-identity for every chunk size follows: `observe` only ever runs
/// against memory exactly as of its record, and every record it could
/// react to is dispatched that way.
struct FanOut {
    chunk: Vec<Exec>,
    cap: usize,
    groups: Vec<TimingGroup>,
}

impl FanOut {
    fn new(groups: Vec<TimingGroup>, cap: usize) -> FanOut {
        FanOut { chunk: Vec::with_capacity(cap), cap, groups }
    }

    /// Buffer one clean record, flushing the chunk once it is full.
    fn push_clean(&mut self, e: Exec, live: &mut [LiveObserver]) {
        self.chunk.push(e);
        if self.chunk.len() == self.cap {
            self.flush(live);
        }
    }

    /// Hand the buffered clean records to every member's timing as one
    /// slice — once per private member and once per group still shared
    /// — and reset the chunk. No-op on an empty chunk.
    fn flush(&mut self, live: &mut [LiveObserver]) {
        if self.chunk.is_empty() {
            return;
        }
        FANOUT_CHUNKS.fetch_add(1, Ordering::Relaxed);
        FANOUT_CHUNKS_SKIPPED.fetch_add(live.len() as u64, Ordering::Relaxed);
        for l in live.iter_mut() {
            if let MemberTiming::Private(t) = &mut l.timing {
                t.consume_slice(&self.chunk);
            }
        }
        for g in self.groups.iter_mut().filter(|g| g.members > 0) {
            g.timings.consume_slice(&self.chunk);
        }
        self.chunk.clear();
    }

    /// Flush the clean prefix, then dispatch one dirty record to every
    /// member with `mem` exactly as of `e`. A spurious transition forks
    /// the member off its timing group (state before `e`) and stalls
    /// after `e` is consumed; any other transition only touches
    /// statistics, so the member's timing stays with its group, which
    /// consumes `e` last. A dynamic filter is rebuilt afterwards — the
    /// record may have moved an indirect watch's target. Returns the
    /// execution error the record carries, if any.
    fn dispatch_dirty(
        &mut self,
        e: &Exec,
        live: &mut [LiveObserver],
        mem: &Memory,
    ) -> Option<ExecError> {
        self.flush(live);
        FANOUT_CHUNKS.fetch_add(1, Ordering::Relaxed);
        FANOUT_CHUNKS_SCANNED.fetch_add(live.len() as u64, Ordering::Relaxed);
        for l in live.iter_mut() {
            let transition = l.observer.observe(e, mem, &mut l.watch, &mut l.stats);
            if let Some(t) = transition {
                l.stats.count(t);
            }
            if transition.is_some_and(|t| t.is_spurious()) {
                let timings = l.timing.fork(&mut self.groups);
                timings.consume(e);
                timings.debugger_stall();
            } else if let MemberTiming::Private(t) = &mut l.timing {
                t.consume(e);
            }
            if l.filter.is_dynamic() {
                l.filter = l.observer.filter(&l.watch, mem);
            }
        }
        for g in self.groups.iter_mut().filter(|g| g.members > 0) {
            g.timings.consume(e);
        }
        match e.event {
            Some(Event::Error(err)) => Some(err),
            _ => None,
        }
    }
}

/// Where an observer run's `Exec` stream comes from. (One per run,
/// inside the boxed run state, so the variants' size difference costs
/// nothing.)
#[allow(clippy::large_enum_variant)]
enum Source {
    /// A live machine executing the unmodified application, with an
    /// optional persistent-trace writer fed every stepped record — the
    /// "record on miss" half of the trace economy.
    Live { exec: Executor, writer: Option<TraceWriter> },
    /// A stored trace, with a shadow [`Memory`] kept exact by applying
    /// each record's store effect — so `WatchState` re-evaluation reads
    /// the same bytes it would have read live. No functional pass, no
    /// image load; the counters prove it.
    Replay { reader: TraceReader, mem: Memory, exhausted: bool },
}

impl Source {
    /// The next record of the stream, `None` at its end. A live record
    /// is teed to the trace writer, if any. A replayed record's store is
    /// applied to the shadow memory before the record is returned,
    /// mirroring the live order: the machine performs a store before
    /// observers see its record.
    ///
    /// # Errors
    ///
    /// A replayed record that fails to decode ([`TraceReader::next`]).
    fn next(&mut self) -> Result<Option<Exec>, TraceError> {
        match self {
            Source::Live { exec, writer } => {
                if exec.is_halted() {
                    return Ok(None);
                }
                let e = exec.step();
                if let Some(w) = writer {
                    w.record(&e);
                }
                Ok(Some(e))
            }
            Source::Replay { reader, mem, exhausted } => {
                let next = reader.next()?;
                match next {
                    Some(e) => {
                        if let Some(m) = e.mem.filter(|m| m.is_store) {
                            mem.write_u(m.addr, m.width, m.new_value);
                        }
                    }
                    None => *exhausted = true,
                }
                Ok(next)
            }
        }
    }

    /// Memory exactly as of the last record delivered.
    fn mem(&self) -> &Memory {
        match self {
            Source::Live { exec, .. } => exec.mem(),
            Source::Replay { mem, .. } => mem,
        }
    }

    fn done(&self) -> bool {
        match self {
            Source::Live { exec, .. } => exec.is_halted(),
            Source::Replay { exhausted, .. } => *exhausted,
        }
    }
}

/// The observer-batch continuation: one shared stream source and every
/// admitted member's detector — `ObserverBatch::run`'s loop with the
/// stream cursor lifted out, live and replayed alike.
struct ObserveRun {
    source: Source,
    live: Vec<LiveObserver>,
    fan: FanOut,
    results: Vec<Result<Vec<SessionReport>, DebugError>>,
    error: Option<ExecError>,
    /// The replayed stream failed to decode partway through; the run
    /// stops and every admitted member fails with it.
    trace_error: Option<TraceError>,
    text_bytes: u64,
}

impl ObserveRun {
    fn drive_budget(&mut self, budget: u64) -> u64 {
        let ObserveRun { source, live, fan, error, trace_error, .. } = self;
        let mut n = 0u64;
        while n < budget {
            let e = match source.next() {
                Ok(Some(e)) => e,
                Ok(None) => break,
                // `TraceReader::open` validated every CRC eagerly, so
                // this is damaged bytes that still satisfied their
                // checksum: stop, never deliver a silently wrong replay.
                Err(e) => {
                    *trace_error = Some(e);
                    break;
                }
            };
            n += 1;
            if record_is_dirty(live, &e) {
                if let Some(err) = fan.dispatch_dirty(&e, live, source.mem()) {
                    *error = Some(err);
                }
            } else {
                fan.push_clean(e, live);
            }
        }
        // Nothing buffers across polls: a yielded task is exactly as
        // dispatched as a run-to-completion one.
        fan.flush(live);
        n
    }

    fn done(&self) -> bool {
        self.trace_error.is_some() || self.source.done()
    }

    /// Seal the recording, if any, and scatter the finished members
    /// into their result slots. Each timing group's models are finished
    /// **once**; every member still on the group reports those same
    /// stats — bit-identical to the private models it never needed
    /// (cloning the whole model state instead would cost thousands of
    /// cache-set allocations per member). After a mid-stream decode
    /// failure every admitted member reports that [`DebugError::Trace`].
    fn finish(self) -> Vec<Result<Vec<SessionReport>, DebugError>> {
        if let Source::Live { writer: Some(writer), .. } = self.source {
            // A recording the caller asked for must either be sealed or
            // fail loudly — a silently missing trace would re-pay the
            // functional pass forever without anyone noticing.
            if let Err(e) = writer.finish() {
                panic!("failed to persist the recorded session trace: {e}");
            }
        }
        let (error, text_bytes, mut results) = (self.error, self.text_bytes, self.results);
        if let Some(e) = self.trace_error {
            for l in &self.live {
                results[l.member] = Err(DebugError::Trace(e.clone()));
            }
            return results;
        }
        let group_runs: Vec<Vec<RunStats>> =
            self.fan.groups.into_iter().map(|g| g.timings.finish()).collect();
        for l in self.live {
            let runs = match l.timing {
                MemberTiming::Private(t) => t.finish(),
                MemberTiming::Shared(g) => group_runs[g].clone(),
            };
            results[l.member] = Ok(runs
                .into_iter()
                .map(|run| SessionReport { run, transitions: l.stats, error, text_bytes })
                .collect());
        }
        results
    }
}

impl SessionTask {
    /// A task for one session under one timing configuration — a batch
    /// of one, exactly as [`crate::Session`] is internally.
    pub fn session(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        cpu: CpuConfig,
    ) -> SessionTask {
        SessionTask::batch(app, watchpoints, backend, &[cpu])
    }

    /// A task that will perform [`crate::run_session_batch`]: one
    /// functional pass under `backend`, accounted against all of `cpus`.
    pub fn batch(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        cpus: &[CpuConfig],
    ) -> SessionTask {
        let spec = PerturbSpec { app: app.clone(), watchpoints, backend };
        SessionTask::pending(State::PendingBatch(spec, cpus.to_vec()))
    }

    /// A task that will perform [`crate::run_perturbing_group`]: one
    /// image load, one copy-on-write fork per engine-configuration
    /// sub-batch.
    pub fn perturbing_group(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        batches: &[Vec<CpuConfig>],
    ) -> SessionTask {
        let spec = PerturbSpec { app: app.clone(), watchpoints, backend };
        SessionTask::pending(State::PendingGroup(spec, batches.to_vec()))
    }

    /// A task that will perform [`crate::ObserverBatch::run`]: one
    /// shared functional pass fanned out to every `(backend,
    /// watchpoints, cpus)` member.
    ///
    /// # Panics
    ///
    /// Panics when a member backend is perturbing, as
    /// [`crate::ObserverBatch::member`] does.
    pub fn observer(
        app: &Application,
        members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
    ) -> SessionTask {
        SessionTask::observe(app, members, Stream::Execute)
    }

    /// [`SessionTask::observer`], additionally persisting the shared
    /// functional pass to `trace` — the same single pass serves the
    /// members *and* every future replay. The trace appears atomically
    /// when the pass completes; an abandoned task publishes nothing.
    ///
    /// # Panics
    ///
    /// Panics when a member backend is perturbing, as
    /// [`SessionTask::observer`] does.
    pub fn observer_recorded(
        app: &Application,
        members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
        trace: &Path,
    ) -> SessionTask {
        SessionTask::observe(app, members, Stream::Record(trace.to_path_buf()))
    }

    /// An observer batch that runs entirely from the stored trace at
    /// `trace`: zero functional passes, zero image loads, results
    /// bit-identical to [`SessionTask::observer`] on the live machine.
    /// Admission fingerprints `app` and rejects a stale, corrupt, or
    /// truncated trace with [`DebugError::Trace`] — loudly, never a
    /// silently wrong replay.
    ///
    /// # Panics
    ///
    /// Panics when a member backend is perturbing, as
    /// [`SessionTask::observer`] does.
    pub fn observer_replay(
        app: &Application,
        members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
        trace: &Path,
    ) -> SessionTask {
        SessionTask::observe(app, members, Stream::Replay(trace.to_path_buf()))
    }

    fn observe(
        app: &Application,
        members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
        stream: Stream,
    ) -> SessionTask {
        for (backend, ..) in &members {
            assert!(
                backend.observation_only(),
                "{backend:?} perturbs the functional stream and must replay privately \
                 (run_session_batch)"
            );
        }
        SessionTask::pending(State::PendingObserve(ObserveSpec {
            app: app.clone(),
            members,
            stream,
            fanout: Fanout::default(),
        }))
    }

    /// Builder: fan an unstarted observer task's stream out as `fanout`
    /// says instead of [`Fanout::default`]. Reports are byte-identical
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics when the task is not an unstarted observer task, or when
    /// `fanout.chunk` is zero — both caller bugs.
    #[must_use]
    pub fn with_fanout(mut self, fanout: Fanout) -> SessionTask {
        assert!(fanout.chunk >= 1, "a fan-out chunk must hold at least one record");
        match &mut self.state {
            State::PendingObserve(spec) => spec.fanout = fanout,
            _ => panic!("with_fanout applies only to an unstarted observer task"),
        }
        self
    }

    fn pending(state: State) -> SessionTask {
        SessionTask { gate: None, progress: 0, state }
    }

    /// Builder form of [`SessionTask::block`]: the task starts parked.
    #[must_use]
    pub fn gated(mut self, reason: impl Into<String>) -> SessionTask {
        self.block(reason);
        self
    }

    /// Park the task: until [`SessionTask::unblock`], every poll
    /// reports [`Step::Blocked`] without consuming budget. How a
    /// scheduler expresses "run session B only after session A" without
    /// burning slices on B.
    pub fn block(&mut self, reason: impl Into<String>) {
        self.gate = Some(reason.into());
    }

    /// Open the gate set by [`SessionTask::block`].
    pub fn unblock(&mut self) {
        self.gate = None;
    }

    /// True while the task is parked behind a gate.
    pub fn is_blocked(&self) -> bool {
        self.gate.is_some()
    }

    /// Dynamic instructions retired so far — the virtual-progress
    /// priority key.
    pub fn progress(&self) -> u64 {
        self.progress
    }

    /// Advance by at most `budget` dynamic instructions.
    ///
    /// Admission (validation, backend build, image load) happens lazily
    /// at the first unblocked poll and is not charged against the
    /// budget; instrumentation counters tick at exactly the points the
    /// wrapped run-to-completion path would tick them. Any slicing of
    /// budgets yields byte-identical results and counters to a single
    /// `poll(u64::MAX)`.
    ///
    /// # Panics
    ///
    /// Panics when called again after [`Step::Done`] — a completed
    /// continuation has no state left to run.
    pub fn poll(&mut self, budget: u64) -> Step {
        if let Some(reason) = &self.gate {
            return Step::Blocked(reason.clone());
        }
        let state = match std::mem::replace(&mut self.state, State::Finished) {
            State::PendingBatch(spec, cpus) => {
                match admit_batch(&spec.app, &spec.watchpoints, spec.backend, &cpus) {
                    Ok(Some(pass)) => State::Batch(Box::new(pass)),
                    Ok(None) => return Step::Done(TaskOutput::Batch(Ok(Vec::new()))),
                    Err(e) => return Step::Done(TaskOutput::Batch(Err(e))),
                }
            }
            State::PendingGroup(spec, batches) => match admit_group(spec, batches) {
                Ok(run) => State::Group(Box::new(run)),
                Err(e) => return Step::Done(TaskOutput::Group(Err(e))),
            },
            State::PendingObserve(spec) => match admit_observe(spec) {
                Ok(Admitted::Live(run)) => State::Observe(run),
                Ok(Admitted::Settled(results)) => {
                    return Step::Done(TaskOutput::Observe(Ok(results)))
                }
                Err(e) => return Step::Done(TaskOutput::Observe(Err(e))),
            },
            State::Finished => panic!("SessionTask polled after completion"),
            running => running,
        };
        self.state = match state {
            State::Batch(mut pass) => {
                self.progress += pass.drive_budget(budget);
                if pass.done() {
                    return Step::Done(TaskOutput::Batch(Ok(pass.finish())));
                }
                State::Batch(pass)
            }
            State::Group(mut run) => match run.advance(budget, &mut self.progress) {
                Some(out) => return Step::Done(TaskOutput::Group(Ok(out))),
                None => State::Group(run),
            },
            State::Observe(mut run) => {
                self.progress += run.drive_budget(budget);
                if run.done() {
                    return Step::Done(TaskOutput::Observe(Ok(run.finish())));
                }
                State::Observe(run)
            }
            _ => unreachable!("pending states were admitted above"),
        };
        Step::Yielded(TaskProgress { instructions: self.progress })
    }

    /// Drive the task to completion in unbounded slices — what the
    /// run-to-completion entry points call.
    ///
    /// # Panics
    ///
    /// Panics when the task is gated: nothing here can unblock it.
    pub fn run_to_completion(mut self) -> TaskOutput {
        loop {
            match self.poll(u64::MAX) {
                Step::Done(out) => return out,
                Step::Yielded(_) => {}
                Step::Blocked(reason) => {
                    panic!("cannot run a gated task to completion: blocked on {reason}")
                }
            }
        }
    }
}

/// Admission for a perturbing group: the group-wide static work
/// (validation, instantiation, `build_program`). The image load and
/// per-sub-batch forks happen as the run reaches them.
fn admit_group(spec: PerturbSpec, batches: Vec<Vec<CpuConfig>>) -> Result<GroupRun, DebugError> {
    let (built, prog) = build(&spec.app, &spec.watchpoints, spec.backend)?;
    Ok(GroupRun {
        built,
        prog,
        watchpoints: spec.watchpoints,
        batches,
        template: None,
        next: 0,
        current: None,
        out: Vec::new(),
    })
}

enum Admitted {
    Live(Box<ObserveRun>),
    /// Every member failed admission (or there were none): the results
    /// are already final and no pass runs (or is counted).
    Settled(Vec<Result<Vec<SessionReport>, DebugError>>),
}

/// Per-member admission: validate and instantiate each member against
/// the stream's initial memory image, settling failures into their
/// result slots. Live and replayed runs admit through this one
/// function, so replayed results cannot diverge from live ones in
/// *shape*, not just content.
#[allow(clippy::type_complexity)]
fn admit_members(
    members: &[(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)],
    mem: &Memory,
    share: bool,
) -> (Vec<LiveObserver>, Vec<TimingGroup>, Vec<Result<Vec<SessionReport>, DebugError>>) {
    let mut results: Vec<Result<Vec<SessionReport>, DebugError>> =
        members.iter().map(|_| Ok(Vec::new())).collect();
    let mut live: Vec<LiveObserver> = Vec::new();
    let mut groups: Vec<TimingGroup> = Vec::new();
    for (i, (backend, watchpoints, cpus)) in members.iter().enumerate() {
        let admitted = validate_watchpoints(watchpoints)
            .and_then(|()| backend.instantiate_observer(watchpoints));
        match admitted {
            Ok(observer) => {
                let watch = WatchState::new(watchpoints, mem);
                let filter = observer.filter(&watch, mem);
                let timing = if share {
                    let g = groups.iter().position(|g| g.cfgs == *cpus).unwrap_or_else(|| {
                        groups.push(TimingGroup {
                            timings: TimingBatch::new(cpus),
                            cfgs: cpus.clone(),
                            members: 0,
                        });
                        groups.len() - 1
                    });
                    groups[g].members += 1;
                    MemberTiming::Shared(g)
                } else {
                    MemberTiming::Private(TimingBatch::new(cpus))
                };
                live.push(LiveObserver {
                    member: i,
                    observer,
                    watch,
                    filter,
                    timing,
                    stats: TransitionStats::default(),
                });
            }
            Err(e) => results[i] = Err(e),
        }
    }
    (live, groups, results)
}

/// Admission for an observer batch: `ObserverBatch::run` up to the
/// pass-counter tick, for every stream source. A live source loads the
/// machine (counted even if every member then fails, so a settled group
/// still shows its load); a replayed source opens and fully validates
/// the trace first (magic, version, CRCs, fingerprint against the
/// assembled program — every corruption class surfaces here as
/// [`DebugError::Trace`]) and builds the shadow memory, ticking neither
/// `FUNCTIONAL_PASSES` nor `IMAGE_LOADS`: nothing executes and no
/// machine is loaded.
fn admit_observe(spec: ObserveSpec) -> Result<Admitted, DebugError> {
    let prog = spec.app.program()?;
    let mut source = match &spec.stream {
        Stream::Replay(path) => {
            let reader = TraceReader::open(path, Some(program_fingerprint(&prog)))?;
            let mut mem = Memory::new();
            prog.load(&mut mem);
            Source::Replay { reader, mem, exhausted: false }
        }
        Stream::Execute | Stream::Record(_) => {
            // The executor's configuration only matters functionally
            // through its DISE engine capacities, and no observer
            // installs productions; any member's configuration (or the
            // default) loads the same machine.
            let cfg = spec
                .members
                .iter()
                .find_map(|(.., cpus)| cpus.first())
                .copied()
                .unwrap_or_default();
            IMAGE_LOADS.fetch_add(1, Ordering::Relaxed);
            Source::Live { exec: Executor::from_program(&prog, cfg), writer: None }
        }
    };
    let (live, groups, results) =
        admit_members(&spec.members, source.mem(), spec.fanout.share_timing);
    if live.is_empty() {
        // No pass runs, so nothing is recorded either: a group that
        // settles at admission stays settled — and cold — forever.
        return Ok(Admitted::Settled(results));
    }
    match (&mut source, &spec.stream) {
        (Source::Replay { .. }, _) => {
            TRACE_REPLAYS.fetch_add(1, Ordering::Relaxed);
        }
        (Source::Live { writer, .. }, stream) => {
            if let Stream::Record(path) = stream {
                *writer = Some(TraceWriter::create(path, program_fingerprint(&prog))?);
                TRACE_RECORDS.fetch_add(1, Ordering::Relaxed);
            }
            FUNCTIONAL_PASSES.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(Admitted::Live(Box::new(ObserveRun {
        source,
        live,
        fan: FanOut::new(groups, spec.fanout.chunk),
        results,
        error: None,
        trace_error: None,
        text_bytes: prog.text_bytes(),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_perturbing_group, run_session_batch, WatchExpr};
    use dise_asm::{parse_asm, Layout};
    use dise_isa::Width;

    fn app(iters: u32) -> Application {
        let src = format!(
            "start:  la r1, watched
                     lda r4, {iters}(zero)
             loop:   .stmt
                     stq r4, 0(r1)
                     subq r4, 1, r4
                     bgt r4, loop
                     halt
             .data
             watched: .quad 0
            "
        );
        Application::new(parse_asm(&src).unwrap(), Layout::default())
    }

    fn wp(app: &Application) -> Watchpoint {
        let addr = app.program().unwrap().symbol("watched").unwrap();
        Watchpoint::new(WatchExpr::Scalar { addr, width: Width::Q })
    }

    /// Scheduler workers hand tasks across threads between slices.
    #[test]
    fn session_tasks_are_send() {
        fn is_send<T: Send>() {}
        is_send::<SessionTask>();
        is_send::<TaskOutput>();
        is_send::<Step>();
    }

    /// The tentpole invariant: any budget slicing yields byte-identical
    /// reports to the run-to-completion path, for all three shapes.
    #[test]
    fn sliced_polls_match_run_to_completion_for_every_shape() {
        let a = app(20);
        let cpus = [CpuConfig::default(), CpuConfig { commit_width: 2, ..CpuConfig::default() }];
        let budgets = [1u64, 7, 23, 97, 512];

        let reference_batch =
            run_session_batch(&a, vec![wp(&a)], BackendKind::dise_default(), &cpus).unwrap();
        let batches = vec![cpus.to_vec(), cpus.to_vec()];
        let reference_group =
            run_perturbing_group(&a, vec![wp(&a)], BackendKind::dise_default(), &batches).unwrap();
        let members = vec![(BackendKind::VirtualMemory, vec![wp(&a)], cpus.to_vec())];
        let reference_obs =
            SessionTask::observer(&a, members.clone()).run_to_completion().into_observe().unwrap();

        for (i, &budget) in budgets.iter().enumerate() {
            let mut task = SessionTask::batch(&a, vec![wp(&a)], BackendKind::dise_default(), &cpus);
            let out = poll_until_done(&mut task, budget);
            assert_eq!(out.into_batch().unwrap(), reference_batch, "batch, budget {budget}");

            let mut task = SessionTask::perturbing_group(
                &a,
                vec![wp(&a)],
                BackendKind::dise_default(),
                &batches,
            );
            let out = poll_until_done(&mut task, budgets[budgets.len() - 1 - i]);
            assert_eq!(out.into_group().unwrap(), reference_group, "group, budget {budget}");

            let mut task = SessionTask::observer(&a, members.clone());
            let out = poll_until_done(&mut task, budget);
            assert_eq!(out.into_observe().unwrap(), reference_obs, "observe, budget {budget}");
        }
    }

    fn poll_until_done(task: &mut SessionTask, budget: u64) -> TaskOutput {
        let mut yields = 0u64;
        loop {
            match task.poll(budget) {
                Step::Done(out) => {
                    assert!(yields > 0 || budget >= task.progress(), "small budgets must yield");
                    return out;
                }
                Step::Yielded(p) => {
                    yields += 1;
                    assert_eq!(p.instructions, task.progress());
                }
                Step::Blocked(reason) => panic!("ungated task reported blocked: {reason}"),
            }
        }
    }

    /// Progress is monotone and counts real retired instructions.
    #[test]
    fn progress_tracks_retired_instructions() {
        let a = app(10);
        let mut task = SessionTask::session(
            &a,
            vec![wp(&a)],
            BackendKind::VirtualMemory,
            CpuConfig::default(),
        );
        let mut last = 0;
        loop {
            match task.poll(16) {
                Step::Yielded(p) => {
                    assert!(p.instructions > last, "each slice makes progress");
                    assert!(p.instructions <= last + 16, "never exceeds the budget");
                    last = p.instructions;
                }
                Step::Done(out) => {
                    let reports = out.into_batch().unwrap();
                    assert_eq!(reports[0].run.instructions, task.progress());
                    break;
                }
                Step::Blocked(reason) => panic!("ungated task reported blocked: {reason}"),
            }
        }
    }

    /// A gated task consumes no budget and does no admission work until
    /// unblocked. Asserted on the task's own state — the process-global
    /// pass counter is ticked concurrently by sibling tests.
    #[test]
    fn gated_tasks_block_without_progress() {
        let a = app(5);
        let mut task = SessionTask::session(
            &a,
            vec![wp(&a)],
            BackendKind::VirtualMemory,
            CpuConfig::default(),
        )
        .gated("after warmup");
        assert!(task.is_blocked());
        match task.poll(u64::MAX) {
            Step::Blocked(reason) => assert_eq!(reason, "after warmup"),
            _ => panic!("gated task must report Blocked"),
        }
        assert_eq!(task.progress(), 0);
        assert!(matches!(task.state, State::PendingBatch(..)), "no admission while gated");
        task.unblock();
        assert!(matches!(task.poll(u64::MAX), Step::Done(_)));
    }

    #[test]
    #[should_panic(expected = "polled after completion")]
    fn polling_a_finished_task_panics() {
        let a = app(2);
        let mut task = SessionTask::session(
            &a,
            vec![wp(&a)],
            BackendKind::VirtualMemory,
            CpuConfig::default(),
        );
        while !matches!(task.poll(u64::MAX), Step::Done(_)) {}
        let _ = task.poll(1);
    }

    /// Satellite regression: the `ForkConfigError` → `DebugError`
    /// conversion both exists and renders usefully.
    #[test]
    fn fork_config_error_converts_to_debug_error() {
        let err: DebugError = dise_cpu::ForkConfigError { instructions: 7 }.into();
        assert_eq!(err, DebugError::Fork(dise_cpu::ForkConfigError { instructions: 7 }));
        let msg = err.to_string();
        assert!(msg.contains("retired 7 instructions"), "{msg}");
    }

    /// An invalid watchpoint settles a task at admission, identically
    /// to the eager path.
    #[test]
    fn admission_errors_settle_the_task() {
        let a = app(3);
        let addr = a.program().unwrap().symbol("watched").unwrap();
        let bad = Watchpoint::new(WatchExpr::Range { base: addr, len: 0 });
        let mut task =
            SessionTask::session(&a, vec![bad], BackendKind::VirtualMemory, CpuConfig::default());
        match task.poll(u64::MAX) {
            Step::Done(out) => {
                assert!(matches!(out.into_batch(), Err(DebugError::InvalidWatchpoint { .. })));
            }
            _ => panic!("invalid watchpoints settle at the first poll"),
        }
    }
}
