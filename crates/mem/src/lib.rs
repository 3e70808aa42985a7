//! # dise-mem — memory subsystem for the DISE reproduction
//!
//! Provides the three memory-related substrates the paper's evaluation
//! depends on:
//!
//! * [`Memory`] — a sparse, paged, 64-bit physical/virtual memory with
//!   per-page write protection. The `mprotect`-style interface
//!   ([`Memory::protect_page`]) is what the **virtual-memory watchpoint
//!   backend** uses to trap stores to watched pages.
//! * [`Cache`] — a parameterised set-associative cache with LRU
//!   replacement, used for the L1 instruction/data caches and the unified
//!   L2.
//! * [`Tlb`] and [`MemSystem`] — translation lookaside buffers and the
//!   composed hierarchy with the paper's configuration (32 KB 2-way L1s,
//!   1 MB 4-way L2, 64-entry 4-way TLBs, 100-cycle memory).
//!
//! ```
//! use dise_mem::{Memory, MemSystem, MemConfig};
//!
//! let mut mem = Memory::new();
//! mem.write_u(0x1000_0000, 8, 0xdead_beef);
//! assert_eq!(mem.read_u(0x1000_0000, 8), 0xdead_beef);
//!
//! let mut sys = MemSystem::new(MemConfig::default());
//! let cold = sys.data_access(0x1000_0000, false);
//! let warm = sys.data_access(0x1000_0000, false);
//! assert!(cold > warm, "second access hits the L1");
//! ```

mod cache;
mod memory;
mod system;
mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use memory::{AddrHasher, CowStats, Memory, ProtFault, PAGE_SIZE};
pub use system::{MemConfig, MemSystem};
pub use tlb::Tlb;
