//! The acceptance bar for observer batching, argued the only way that
//! is meaningful on a single-core CI container: **execution-count
//! assertions**, not timings. `dise_debug::functional_passes()` counts
//! every driven functional pass; a grid over one workload must pay one
//! pass per *functional stream* — one shared pass for **all watchpoint
//! sets × observing backends × timing configs** of that workload, one
//! private replay per perturbing (backend, watchpoints, engine) stream
//! — not one per cell.
//!
//! The same bar extends to the copy-on-write image economy:
//! `dise_debug::image_loads()` counts every assemble-and-load of a
//! program image and `dise_debug::checkpoint_forks()` every
//! copy-on-write fork off a loaded template — a perturbing group over K
//! engine configurations must pay 1 load + K forks, not K loads.
//!
//! And to the persistent trace store: `dise_debug::trace_records()` /
//! `trace_replays()` count recordings and stored-stream replays — a
//! grid run against a warm `DISE_TRACE_DIR` must perform **zero**
//! functional passes and zero image loads, with byte-identical output.
//!
//! This file deliberately holds a single `#[test]`: the counters are
//! process-global, and sibling tests in the same binary would race the
//! deltas.

use dise_bench::{
    batch_session_jobs_with, run_overhead_grid, run_overhead_grid_with, CellGroup, SessionJob,
    DEFAULT_SLICE,
};
use dise_cpu::CpuConfig;
use dise_debug::{
    checkpoint_forks, fanout_chunks, fanout_chunks_scanned, fanout_chunks_skipped,
    functional_passes, image_loads, trace_records, trace_replays, BackendKind, BaselineCache,
    DiseStrategy,
};
use dise_workloads::{all, transition_cost_sweep, watchpoint_set_sweep, WatchKind};

#[test]
fn grids_execute_once_per_functional_stream_not_once_per_cell() {
    let w = &all(10)[0];
    let wp = vec![w.watchpoint(WatchKind::Warm1)];

    // One scenario, the paper's four standard backends plus the
    // pure-observation DISE comparators, three transition costs:
    // 15 cells.
    let mut cells = Vec::new();
    for (_, cpu) in transition_cost_sweep(CpuConfig::default()) {
        for backend in [
            BackendKind::SingleStep,
            BackendKind::VirtualMemory,
            BackendKind::hw4(),
            BackendKind::dise_default(),
            BackendKind::DiseComparators,
        ] {
            cells.push(SessionJob::new(w.clone(), wp.clone(), backend, cpu));
        }
    }
    assert_eq!(cells.len(), 15);

    // Unbatched reference: every cell replays the workload privately.
    let baselines = BaselineCache::new();
    let before = functional_passes();
    let unbatched = run_overhead_grid(&cells, 1, &baselines, false);
    assert_eq!(functional_passes() - before, 15, "unbatched: one pass per cell");

    // Batched: VM, HW and the DISE comparators share a single pass of
    // the unmodified application across all three backends and all
    // three timing configs; single-stepping and production-injecting
    // DISE each keep one private replay. 15 cells, 3 functional
    // executions — the comparator column is literally free.
    let before = functional_passes();
    let batched = run_overhead_grid(&cells, 1, &baselines, true);
    assert_eq!(
        functional_passes() - before,
        3,
        "batched: one observer pass (VM+HW+Cmp x 3 costs) + two private replays"
    );
    assert_eq!(batched, unbatched, "sharing passes must not change a single byte");

    // The tentpole: the watchpoint axis. Three watchpoint *sets* x two
    // observing backends x two timing configs = 12 cells over one
    // workload. Per-(workload, watchpoints) batching (the previous
    // lattice) would pay one pass per set — 3; the per-workload batch
    // pays exactly 1.
    let sets = watchpoint_set_sweep(w);
    assert_eq!(sets.len(), 3);
    let costs: Vec<CpuConfig> =
        transition_cost_sweep(CpuConfig::default()).into_iter().take(2).map(|(_, c)| c).collect();
    let mut observer_cells = Vec::new();
    for (_, wps) in &sets {
        for backend in [BackendKind::VirtualMemory, BackendKind::DiseComparators] {
            for cpu in &costs {
                observer_cells.push(SessionJob::new(w.clone(), wps.clone(), backend, *cpu));
            }
        }
    }
    assert_eq!(observer_cells.len(), 12);
    let before = functional_passes();
    let unbatched = run_overhead_grid(&observer_cells, 1, &baselines, false);
    assert_eq!(functional_passes() - before, 12, "unbatched watchpoint axis: one pass per cell");
    let before = functional_passes();
    let (fc0, fs0, fk0) = (fanout_chunks(), fanout_chunks_scanned(), fanout_chunks_skipped());
    let batched = run_overhead_grid(&observer_cells, 1, &baselines, true);
    assert_eq!(
        functional_passes() - before,
        1,
        "batched: ONE pass per workload across watchpoint sets x backends x timing"
    );
    assert_eq!(batched, unbatched, "the watchpoint axis must not change a single byte");

    // The chunked fan-out conservation bar: every (member, chunk) pair
    // is skipped (a clean chunk reaches only timing) or scanned (a
    // dirty record is observed) — never both, never neither. The
    // shared pass carries 6 members (3 watchpoint sets x 2 observing
    // backends; timing configs ride *inside* a member's TimingBatch
    // and do not multiply the fan-out). Every chunk is decided alike
    // for all members — a clean chunk is skipped by each, a dirty
    // record observed by each — so both counts are whole multiples of
    // the member count.
    let (fc, fs, fk) =
        (fanout_chunks() - fc0, fanout_chunks_scanned() - fs0, fanout_chunks_skipped() - fk0);
    assert!(fc > 0, "the shared observer pass must be chunked");
    assert_eq!(fs + fk, 6 * fc, "skipped + scanned == members x chunks");
    assert_eq!(fs % 6, 0, "every member observes every dirty record");
    assert_eq!(fk % 6, 0, "every member skips every clean chunk");

    // Solo member: the invariant in its literal per-member form,
    // `skipped + scanned == chunks`.
    let solo =
        [SessionJob::new(w.clone(), wp.clone(), BackendKind::VirtualMemory, CpuConfig::default())];
    let (fc0, fs0, fk0) = (fanout_chunks(), fanout_chunks_scanned(), fanout_chunks_skipped());
    run_overhead_grid(&solo, 1, &baselines, true);
    assert_eq!(
        (fanout_chunks_scanned() - fs0) + (fanout_chunks_skipped() - fk0),
        fanout_chunks() - fc0,
        "solo member: skipped + scanned == chunks"
    );

    // Perturbing cells are unchanged by the new axis: adding a DISE
    // cell per watchpoint set costs exactly one private replay per set
    // on top of the single observer pass (12 + 3 cells -> 1 + 3
    // passes), and an unsupported observing cell (RANGE under hardware
    // registers, in set 3) joins the group without costing anything.
    let mut mixed = observer_cells.clone();
    for (_, wps) in &sets {
        mixed.push(SessionJob::new(
            w.clone(),
            wps.clone(),
            BackendKind::dise_default(),
            CpuConfig::default(),
        ));
    }
    mixed.push(SessionJob::new(
        w.clone(),
        sets[2].1.clone(), // RANGE: hardware registers decline it
        BackendKind::hw4(),
        CpuConfig::default(),
    ));
    let before = functional_passes();
    let out = run_overhead_grid(&mixed, 1, &baselines, true);
    assert_eq!(
        functional_passes() - before,
        1 + sets.len() as u64,
        "one observer pass + one private DISE replay per watchpoint set"
    );
    assert_eq!(out[mixed.len() - 1], None, "the unsupported member renders the no-experiment bar");
    assert!(out[..observer_cells.len()].iter().all(Option::is_some));

    // The fig8 shape: two DISE cells differing only in the
    // multithreading timing knob still collapse to one pass.
    let mt = BackendKind::Dise(DiseStrategy { multithreaded_calls: true, ..Default::default() });
    let pair = [
        SessionJob::new(w.clone(), wp.clone(), BackendKind::dise_default(), CpuConfig::default()),
        SessionJob::new(w.clone(), wp.clone(), mt, CpuConfig::default()),
    ];
    let before = functional_passes();
    run_overhead_grid(&pair, 1, &baselines, true);
    assert_eq!(functional_passes() - before, 1, "timing-only DISE pair shares one pass");

    // An unsupported observer member (INDIRECT under virtual memory)
    // must not charge a pass when no member survives.
    let lone = [SessionJob::new(
        w.clone(),
        vec![w.watchpoint(WatchKind::Indirect)],
        BackendKind::VirtualMemory,
        CpuConfig::default(),
    )];
    let before = functional_passes();
    let out = run_overhead_grid(&lone, 1, &baselines, true);
    assert_eq!(out, vec![None], "the no-experiment bar");
    assert_eq!(functional_passes() - before, 0, "nothing observable, nothing executed");

    // The copy-on-write image economy. A perturbing sweep over K = 3
    // DISE engine capacities (x 2 timing configs each) can never share
    // a functional stream — every sub-batch rightly pays its own pass —
    // but it can share its *image*. The partition shape is passed
    // explicitly so both shapes are pinned in one process.
    let engines = [(32usize, 256usize), (16, 128), (8, 64)].map(|(p, r)| CpuConfig {
        engine: dise_engine::EngineConfig { pattern_entries: p, replacement_entries: r },
        ..CpuConfig::default()
    });
    let mut fork_cells = Vec::new();
    for engine_cpu in engines {
        for (_, cpu) in transition_cost_sweep(engine_cpu).into_iter().take(2) {
            fork_cells.push(SessionJob::new(
                w.clone(),
                wp.clone(),
                BackendKind::dise_default(),
                cpu,
            ));
        }
    }
    assert_eq!(fork_cells.len(), 6);
    let overheads_via = |groups: &[CellGroup]| {
        let mut out = vec![None; fork_cells.len()];
        for g in groups {
            for (cell, o) in g.overheads_from(g.task().run_to_completion(), &baselines) {
                out[cell] = o;
            }
        }
        out
    };

    let unforked_groups = batch_session_jobs_with(&fork_cells, false);
    assert_eq!(unforked_groups.len(), 3, "one private batch per engine configuration");
    let (p0, l0, f0) = (functional_passes(), image_loads(), checkpoint_forks());
    let unforked = overheads_via(&unforked_groups);
    assert_eq!(functional_passes() - p0, 3, "unforked: one pass per engine configuration");
    assert_eq!(image_loads() - l0, 3, "unforked: every engine configuration loads its own image");
    assert_eq!(checkpoint_forks() - f0, 0, "unforked: nothing forks");

    let forked_groups = batch_session_jobs_with(&fork_cells, true);
    assert_eq!(forked_groups.len(), 1, "one group, one shared image");
    let (p0, l0, f0) = (functional_passes(), image_loads(), checkpoint_forks());
    let forked = overheads_via(&forked_groups);
    assert_eq!(functional_passes() - p0, 3, "forked: still one honest pass per engine config");
    assert_eq!(image_loads() - l0, 1, "forked: ONE image load for the whole group");
    assert_eq!(checkpoint_forks() - f0, 3, "forked: one copy-on-write fork per sub-batch");
    assert_eq!(forked, unforked, "sharing the image must not change a single byte");

    // The persistent-trace economy: the 12-cell observer grid from
    // above, run through a trace store. Cold, the shared pass is
    // recorded as it executes (still exactly one pass, one load, plus
    // one trace record); warm, the grid performs **zero** functional
    // passes and zero image loads — the stream comes from the file —
    // and renders byte-identical output, unsliced and sliced alike.
    let dir = std::env::temp_dir().join(format!("dise-exec-counts-{}", std::process::id()));
    let (p0, l0, r0, y0) = (functional_passes(), image_loads(), trace_records(), trace_replays());
    let cold = run_overhead_grid_with(&observer_cells, 1, &baselines, true, None, Some(&dir));
    assert_eq!(functional_passes() - p0, 1, "cold store: recording is the one honest pass");
    assert_eq!(image_loads() - l0, 1, "cold store: recording loads the image once");
    assert_eq!(trace_records() - r0, 1, "cold store: one trace recorded for the workload");
    assert_eq!(trace_replays() - y0, 0, "cold store: nothing to replay yet");
    assert_eq!(cold, batched, "recording must not change a single byte");

    let (p0, l0, r0, y0) = (functional_passes(), image_loads(), trace_records(), trace_replays());
    let warm = run_overhead_grid_with(&observer_cells, 1, &baselines, true, None, Some(&dir));
    assert_eq!(functional_passes() - p0, 0, "warm store: ZERO functional passes");
    assert_eq!(image_loads() - l0, 0, "warm store: ZERO image loads");
    assert_eq!(trace_records() - r0, 0, "warm store: nothing re-recorded");
    assert_eq!(trace_replays() - y0, 1, "warm store: the stored stream replayed once");
    assert_eq!(warm, batched, "replaying must not change a single byte");

    let (p0, y0) = (functional_passes(), trace_replays());
    let warm_sched = run_overhead_grid_with(
        &observer_cells,
        2,
        &baselines,
        true,
        Some(DEFAULT_SLICE),
        Some(&dir),
    );
    assert_eq!(functional_passes() - p0, 0, "scheduled warm store: still zero passes");
    assert_eq!(trace_replays() - y0, 1, "scheduled warm store: still one replay");
    assert_eq!(warm_sched, batched, "the scheduled warm grid must not change a single byte");
    let _ = std::fs::remove_dir_all(&dir);
}
