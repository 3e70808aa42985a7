//! The per-layer metrics of a traced run, gathered in one record so
//! every workload reports the same names in the same order — with zero
//! where a workload gives a layer no work.

use std::time::Instant;

use crate::common::{Counters, Metric};
use crate::gridwork::Decomposition;
use crate::probes::KernelFigures;
use crate::{alloc, span};

/// The trace store's figures (`observer-replay` only).
#[derive(Default)]
pub struct TraceFigures {
    pub record_mrec_per_s: f64,
    pub bytes_per_record: f64,
    pub file_mb: f64,
    pub decode_mrec_per_s: f64,
    pub replay_timing_mrec_per_s: f64,
}

pub struct Layers {
    /// Summed `BaselineCache::get_or_run` time.
    pub baseline_s: f64,
    pub partition_ms: f64,
    pub groups: Decomposition,
    /// Counter delta of one timed pass.
    pub counters: Counters,
    pub max_wait_slices: u64,
    pub max_in_flight: usize,
    pub slice_overhead_us: f64,
    pub task_build_ms: f64,
    pub session_service_ms: f64,
    pub kernels: KernelFigures,
    pub trace: TraceFigures,
    /// Wall time of the traced pass and the median untraced pass.
    pub traced_wall: f64,
    pub untraced_wall: f64,
}

impl Layers {
    /// A workload's per-layer record with only the figures every
    /// workload measures; the rest read zero until set.
    pub fn new(
        counters: Counters,
        kernels: KernelFigures,
        traced_wall: f64,
        untraced_wall: f64,
    ) -> Layers {
        Layers {
            baseline_s: 0.0,
            partition_ms: 0.0,
            groups: Decomposition::default(),
            counters,
            max_wait_slices: 0,
            max_in_flight: 0,
            slice_overhead_us: 0.0,
            task_build_ms: 0.0,
            session_service_ms: 0.0,
            kernels,
            trace: TraceFigures::default(),
            traced_wall,
            untraced_wall,
        }
    }

    /// Every per-layer metric, in `BENCHMARK.json` order. Layer self
    /// times come from every span recorded so far.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counters;
        let t = &self.trace;
        let mut m = vec![
            ("grid.baseline_s", "s", self.baseline_s),
            ("grid.partition_ms", "ms", self.partition_ms),
        ];
        m.extend(self.groups.metrics());
        m.extend([
            ("debug.functional_passes", "count", c.functional_passes as f64),
            ("debug.image_loads", "count", c.image_loads as f64),
            ("debug.checkpoint_forks", "count", c.checkpoint_forks as f64),
            ("debug.trace_replays", "count", c.trace_replays as f64),
            ("sched.slices", "count", c.slices as f64),
            ("sched.preemptions", "count", c.preemptions as f64),
            ("sched.max_wait_slices", "count", self.max_wait_slices as f64),
            ("sched.max_in_flight", "count", self.max_in_flight as f64),
            ("sched.overhead_us_per_slice", "us", self.slice_overhead_us),
            ("server.task_build_ms", "ms", self.task_build_ms),
            ("server.session_service_ms", "ms", self.session_service_ms),
        ]);
        m.extend(self.kernels.metrics());
        m.extend([
            ("trace.record_mrec_per_s", "Mrec/s", t.record_mrec_per_s),
            ("trace.bytes_per_record", "B/rec", t.bytes_per_record),
            ("trace.file_mb", "MB", t.file_mb),
            ("trace.decode_mrec_per_s", "Mrec/s", t.decode_mrec_per_s),
            ("trace.replay_timing_mrec_per_s", "Mrec/s", t.replay_timing_mrec_per_s),
        ]);
        let selfs = span::layer_self_seconds(&span::spans());
        for (layer, name) in [
            ("grid", "grid.self_s"),
            ("server", "server.self_s"),
            ("sched", "sched.self_s"),
            ("debug", "debug.self_s"),
            ("trace", "trace.self_s"),
            ("cpu", "cpu.self_s"),
        ] {
            m.push((name, "s", selfs.get(layer).copied().unwrap_or(0.0)));
        }
        m.push(("tracing.overhead_s", "s", self.traced_wall - self.untraced_wall));
        m.push(("alloc.peak_live_mb", "MB", alloc::peak_live_mb()));
        m
    }

    pub fn overhead_note(&self) -> String {
        format!(
            "tracing overhead: {:.4} s (traced pass {:.4} s - median untraced pass {:.4} s)",
            self.traced_wall - self.untraced_wall,
            self.traced_wall,
            self.untraced_wall
        )
    }
}

/// Host time per extra scheduler slice: (wall of a pass at the
/// workload's slice − wall of `unsliced`, the same pass with one slice
/// per task) / the extra slices.
pub fn slice_overhead_us(sliced_wall: f64, sliced_slices: u64, unsliced: impl FnOnce()) -> f64 {
    let before = Counters::now();
    let clock = Instant::now();
    unsliced();
    let wall = clock.elapsed().as_secs_f64();
    let extra = sliced_slices.saturating_sub(Counters::now().since(before).slices).max(1);
    (sliced_wall - wall) / extra as f64 * 1e6
}

/// Run `f` and return its result with its wall time in seconds.
pub fn wall<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let clock = Instant::now();
    let r = f();
    (r, clock.elapsed().as_secs_f64())
}
