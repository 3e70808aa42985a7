//! Direct calls into the layers a pass cannot split from outside:
//! assembly, the functional executor, the cycle model and the memory
//! hierarchy, run on the same kernels the workload uses.

use std::hint::black_box;

use dise_cpu::{CpuConfig, Exec, Executor, Timing};
use dise_mem::MemSystem;
use dise_workloads::Workload;

use crate::alloc;
use crate::common::Metric;
use crate::measure::median;
use crate::span;

/// What [`kernel_probes`] measured.
pub struct KernelFigures {
    assemble_ms: f64,
    functional_mips: f64,
    block_cache_hit_ratio: f64,
    timing_mips: f64,
    timing_new_us: f64,
    timing_new_allocs: f64,
    timing_clone_us: f64,
    data_access_ns: f64,
}

impl KernelFigures {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            ("asm.assemble_ms", "ms", self.assemble_ms),
            ("cpu.functional_mips", "Minstr/s", self.functional_mips),
            ("cpu.block_cache_hit_ratio", "ratio", self.block_cache_hit_ratio),
            ("cpu.timing_mips", "Minstr/s", self.timing_mips),
            ("cpu.timing_new_us", "us", self.timing_new_us),
            ("cpu.timing_new_allocs", "count", self.timing_new_allocs),
            ("cpu.timing_clone_us", "us", self.timing_clone_us),
            ("mem.data_access_ns", "ns", self.data_access_ns),
        ]
    }
}

/// Records captured per kernel for the timing and memory probes, so the
/// captured stream stays a few tens of MB at any kernel scale.
const CAPTURE: usize = 250_000;

/// `Timing::new` / `clone` calls timed one by one.
const CONSTRUCTIONS: usize = 64;

/// Time the assembler, executor, cycle model and memory hierarchy on
/// `workloads`.
pub fn kernel_probes(workloads: &[Workload]) -> KernelFigures {
    let cpu = CpuConfig::default();
    let mut assemble_s = 0.0;
    let programs: Vec<_> = workloads
        .iter()
        .map(|w| {
            let (prog, t) =
                span::timed("asm.assemble", || w.app().program().expect("kernel assembles"));
            assemble_s += t;
            prog
        })
        .collect();

    let (mut steps, mut functional_s, mut hits, mut lookups) = (0u64, 0.0, 0u64, 0u64);
    for prog in &programs {
        let ((n, stats), t) = span::timed("cpu.functional", || {
            let mut exec = Executor::from_program(prog, cpu);
            let mut n = 0u64;
            while !exec.is_halted() {
                black_box(exec.step());
                n += 1;
            }
            (n, exec.block_cache_stats())
        });
        steps += n;
        functional_s += t;
        hits += stats.hits;
        lookups += stats.lookups;
    }

    let (mut timed_records, mut timing_s, mut accesses, mut access_s) = (0u64, 0.0, 0u64, 0.0);
    for prog in &programs {
        let stream: Vec<Exec> = span::record("cpu.capture", || {
            let mut exec = Executor::from_program(prog, cpu);
            let mut stream = Vec::new();
            while !exec.is_halted() && stream.len() < CAPTURE {
                stream.push(exec.step());
            }
            stream
        });
        let (_, t) = span::timed("cpu.timing", || {
            let mut timing = Timing::new(cpu);
            for e in &stream {
                timing.consume(e);
            }
            black_box(timing.finish())
        });
        timed_records += stream.len() as u64;
        timing_s += t;
        let addrs: Vec<(u64, bool)> =
            stream.iter().filter_map(|e| e.mem.map(|m| (m.addr, m.is_store))).collect();
        let (_, t) = span::timed("mem.data_access", || {
            let mut mem = MemSystem::new(cpu.mem);
            addrs.iter().map(|&(addr, store)| mem.data_access(addr, store)).sum::<u64>()
        });
        accesses += addrs.len() as u64;
        access_s += t;
    }

    // Allocations are counted apart from the timed calls, whose span
    // log grows as they run.
    let allocs_before = alloc::allocations();
    for _ in 0..CONSTRUCTIONS {
        black_box(Timing::new(cpu));
    }
    let new_allocs = (alloc::allocations() - allocs_before) as f64 / CONSTRUCTIONS as f64;
    let new_us: Vec<f64> = (0..CONSTRUCTIONS)
        .map(|_| span::timed("cpu.timing_new", || black_box(Timing::new(cpu))).1 * 1e6)
        .collect();
    let model = Timing::new(cpu);
    let clone_us: Vec<f64> = (0..CONSTRUCTIONS)
        .map(|_| span::timed("cpu.timing_clone", || black_box(model.clone())).1 * 1e6)
        .collect();

    KernelFigures {
        assemble_ms: assemble_s * 1e3,
        functional_mips: steps as f64 / functional_s / 1e6,
        block_cache_hit_ratio: hits as f64 / lookups.max(1) as f64,
        timing_mips: timed_records as f64 / timing_s / 1e6,
        timing_new_us: median(&new_us),
        timing_new_allocs: new_allocs,
        timing_clone_us: median(&clone_us),
        data_access_ns: access_s * 1e9 / accesses.max(1) as f64,
    }
}
