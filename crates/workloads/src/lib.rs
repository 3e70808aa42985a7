//! # dise-workloads — SPEC2000-integer-like benchmark kernels
//!
//! The paper evaluates on one "statically large and long running"
//! function from each of six SPEC2000 integer benchmarks (Table 1).
//! SPEC sources and Alpha binaries are not redistributable, so this
//! crate provides hand-written kernels in the `dise-isa` instruction set
//! that mimic each function's *algorithmic character* and are calibrated
//! toward the paper's workload statistics: store density (Table 1) and
//! per-watchpoint write frequency, including silent-store fractions
//! (Table 2). What the experiments actually exercise is the store
//! address/value stream, which these kernels reproduce in shape.
//!
//! | kernel | models | character |
//! |--------|--------|-----------|
//! | `bzip2` | `generateMTFValues` | move-to-front transform, byte shifting |
//! | `crafty` | `InitializeAttackBoards` | bitboard mask generation, shift/or chains |
//! | `gcc` | `regclass` | cost-table scans with per-class accumulation |
//! | `mcf` | `write_circs` | pointer-chasing list walk, cache-hostile |
//! | `twolf` | `uloop` | cell-swap annealing loop, conditional updates |
//! | `vortex` | `BMT_TraverseSets` | object-set traversal, status rewrites |
//!
//! Every kernel exposes the paper's six watchpoints: `HOT`, `WARM1`,
//! `WARM2`, `COLD` scalars, `INDIRECT` (a pointer to the same storage as
//! `HOT`), and `RANGE` (a small array).
//!
//! ```
//! use dise_workloads::{Workload, WatchKind};
//! use dise_debug::{run_baseline, Session, BackendKind};
//!
//! let w = Workload::bzip2(200);
//! let base = run_baseline(w.app(), Default::default())?;
//! let report = Session::new(w.app(), vec![w.watchpoint(WatchKind::Hot)],
//!                           BackendKind::dise_default())?.run();
//! assert!(report.overhead_vs(&base) < 3.0);
//! # Ok::<(), dise_debug::DebugError>(())
//! ```

mod kernels;
mod sweeps;
pub mod synthetic;
mod workload;

pub use sweeps::{transition_cost_sweep, watchpoint_set_sweep};
pub use workload::{WatchKind, Workload};

/// Default iteration count giving tens of thousands of dynamic
/// instructions per kernel — large enough for stable statistics, small
/// enough that the full experiment grid runs in minutes.
pub const DEFAULT_ITERS: u32 = 1500;

/// Build all six kernels at the given scale.
pub fn all(iters: u32) -> Vec<Workload> {
    vec![
        Workload::bzip2(iters),
        Workload::crafty(iters),
        Workload::gcc(iters),
        Workload::mcf(iters),
        Workload::twolf(iters),
        Workload::vortex(iters),
    ]
}

/// The six kernels' benchmark names, in [`all`]'s order: exactly the
/// names [`by_name`] resolves, so a name can be checked without
/// building its kernel.
pub const KERNEL_NAMES: [&str; 6] = ["bzip2", "crafty", "gcc", "mcf", "twolf", "vortex"];

/// Look up a kernel by benchmark name.
pub fn by_name(name: &str, iters: u32) -> Option<Workload> {
    match name {
        "bzip2" => Some(Workload::bzip2(iters)),
        "crafty" => Some(Workload::crafty(iters)),
        "gcc" => Some(Workload::gcc(iters)),
        "mcf" => Some(Workload::mcf(iters)),
        "twolf" => Some(Workload::twolf(iters)),
        "vortex" => Some(Workload::vortex(iters)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_are_exactly_what_by_name_resolves() {
        let names: Vec<&str> = all(1).iter().map(Workload::name).collect();
        assert_eq!(names, KERNEL_NAMES);
        for name in KERNEL_NAMES {
            assert_eq!(by_name(name, 1).map(|w| w.name()), Some(name));
        }
        assert!(by_name("spec", 1).is_none());
    }
}
