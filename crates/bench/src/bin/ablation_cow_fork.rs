//! Copy-on-write checkpoint/fork ablation: what forking a warmed
//! machine costs, how much of the image stays shared over a debugging
//! session, and what the one-load-plus-K-forks economy saves on a
//! perturbing grid group compared with re-assembling and re-loading the
//! image per engine configuration (the `batch_session_jobs_with(..,
//! false)` partition). The outputs are byte-identical either way (the
//! determinism, conformance and property suites prove that); this
//! harness shows the counters and the wall-clock deltas, honestly — on
//! small kernels the assembly and load being amortised are themselves
//! small, so the relative win tracks image size, not simulation length.

use std::time::Instant;

use dise_cpu::{CpuConfig, Executor};
use dise_debug::{
    checkpoint_forks, image_loads, run_perturbing_group, run_session_batch, BackendKind,
};
use dise_mem::PAGE_SIZE;
use dise_workloads::{all, transition_cost_sweep, WatchKind};

fn main() {
    let iters: u32 = dise_env::env_number("DISE_ITERS", 2_000);
    let workloads = all(iters);

    // 1. Fork latency and page sharing, per kernel: load the image,
    //    fork a child, drive the child to completion, and report what
    //    the copy-on-write page table did. `pages_copied +
    //    shared_pages == pages_shared` holds throughout because the
    //    parent never writes.
    println!("Copy-on-write fork ablation ({iters}-iteration kernels)\n");
    println!(
        "{:<14}{:>12}{:>12}{:>9}{:>9}{:>9}{:>10}",
        "kernel", "fork ns", "resident B", "pages", "shared", "copied", "instrs"
    );
    for w in &workloads {
        let prog = w.app().program().expect("kernel assembles");
        let mut parent = Executor::from_program(&prog, CpuConfig::default());
        // Median-ish fork latency over enough forks to defeat timer
        // granularity; children are dropped unused, so this is the pure
        // O(page-table) capture cost.
        let reps = 1_000;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(parent.fork());
        }
        let fork_ns = t.elapsed().as_nanos() as f64 / f64::from(reps);
        let resident = parent.mem().resident_bytes();
        let mut child = parent.fork();
        while !child.is_halted() {
            child.step();
        }
        let cow = child.mem().cow_stats();
        assert_eq!(
            cow.pages_copied as usize + child.mem().shared_pages(),
            cow.pages_shared as usize,
            "with an idle parent, every starting page is still shared or was copied once"
        );
        println!(
            "{:<14}{:>12.0}{:>12}{:>9}{:>9}{:>9}{:>10}",
            w.name(),
            fork_ns,
            resident,
            resident / PAGE_SIZE,
            child.mem().shared_pages(),
            cow.pages_copied,
            child.instructions(),
        );
    }

    // 2. The grid economy: K engine-capacity sub-batches (x 3 timing
    //    configs each) of one perturbing backend, run as K private
    //    batches (assemble + load per sub-batch) vs one forked group
    //    (one load, K copy-on-write forks). Same reports, fewer loads.
    let engines = [(32usize, 256usize), (16, 128), (8, 64)].map(|(p, r)| CpuConfig {
        engine: dise_engine::EngineConfig { pattern_entries: p, replacement_entries: r },
        ..CpuConfig::default()
    });
    println!(
        "\nPerturbing-group economy: {} engine configs x {} timing configs, DISE backend",
        engines.len(),
        transition_cost_sweep(CpuConfig::default()).len()
    );
    println!("{:<22}{:>10}{:>8}{:>8}{:>12}", "shape", "seconds", "loads", "forks", "cells");
    for w in &workloads {
        let wp = vec![w.watchpoint(WatchKind::Hot)];
        let batches: Vec<Vec<CpuConfig>> = engines
            .iter()
            .map(|&e| transition_cost_sweep(e).into_iter().map(|(_, c)| c).collect())
            .collect();
        let cells: usize = batches.iter().map(Vec::len).sum();

        let (l0, f0) = (image_loads(), checkpoint_forks());
        let t = Instant::now();
        let per_batch: Vec<_> = batches
            .iter()
            .map(|cpus| {
                run_session_batch(w.app(), wp.clone(), BackendKind::dise_default(), cpus)
                    .expect("kernel runs")
            })
            .collect();
        let unforked_secs = t.elapsed().as_secs_f64();
        let (unforked_loads, unforked_forks) = (image_loads() - l0, checkpoint_forks() - f0);

        let (l0, f0) = (image_loads(), checkpoint_forks());
        let t = Instant::now();
        let grouped =
            run_perturbing_group(w.app(), wp.clone(), BackendKind::dise_default(), &batches)
                .expect("kernel runs");
        let forked_secs = t.elapsed().as_secs_f64();
        let (forked_loads, forked_forks) = (image_loads() - l0, checkpoint_forks() - f0);

        for (private, shared) in per_batch.iter().zip(&grouped) {
            let shared = shared.as_ref().expect("sub-batch runs");
            assert_eq!(private, shared, "{}: fork must be invisible", w.name());
        }
        println!(
            "{:<22}{:>10.3}{:>8}{:>8}{:>12}",
            format!("{}: per-batch", w.name()),
            unforked_secs,
            unforked_loads,
            unforked_forks,
            cells
        );
        println!(
            "{:<22}{:>10.3}{:>8}{:>8}{:>12}",
            format!("{}: forked", w.name()),
            forked_secs,
            forked_loads,
            forked_forks,
            cells
        );
    }

    println!(
        "\nThe fork column is the tentpole: every engine sub-batch after the \
         first skips assembly and image loading, paying an O(page-table) \
         fork instead — microseconds against the load's linear copy. The \
         functional passes themselves are untouched (perturbing backends \
         genuinely differ per engine config), so the end-to-end delta is \
         the static work amortised, which on these calibrated kernels is \
         small next to simulation time; the counter columns, not the \
         seconds, are the honest measure of what forking removes."
    );
}
