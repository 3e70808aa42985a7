//! The functional half of the machine: architectural state, DISE
//! replacement context, and per-instruction execution records.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use dise_asm::Program;
use dise_engine::Engine;
use dise_isa::{decode, Instr, Reg, INSTR_BYTES};
use dise_mem::Memory;

use crate::CpuConfig;

/// Size of the physical register file (32 GPRs + 16 DISE registers).
pub const NUM_REGS: usize = Reg::NUM;

/// Why the pipeline must be flushed after an instruction.
///
/// All of these are implemented with the mis-prediction recovery
/// mechanism (§3 "DISE control flow"), so they share the refill cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushKind {
    /// A taken DISE branch (`d_beq`/`d_bne`): replacement sequences are
    /// expanded in full with DISE control transfers predicted not-taken.
    DiseBranch,
    /// A (taken) DISE call into a debugger-generated function.
    DiseCall,
    /// A `d_ret` back into the replacement sequence.
    DiseRet,
    /// A taken *conventional* control transfer inside a replacement
    /// sequence (to `⟨newPC:0⟩`), e.g. Fig. 2f's branch to the error
    /// handler. Not fetched, so not predicted, so it always flushes.
    ReplacementBranch,
}

/// Control-transfer classification, for the branch predictor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BranchKind {
    /// Conditional direct branch: direction predicted.
    Conditional,
    /// Unconditional direct branch or call: statically determined, never
    /// mispredicts (beyond BTB compulsory effects we do not model).
    Direct,
    /// Indirect jump through a register: target predicted by the BTB.
    Indirect,
    /// Call (direct or indirect, with link): pushes the RAS.
    Call,
    /// Return (`jmp (ra)` without link): target predicted by the RAS.
    Return,
}

/// A resolved control transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Branch {
    /// Classification for prediction.
    pub kind: BranchKind,
    /// Whether it was taken.
    pub taken: bool,
    /// The resolved target (next PC when taken).
    pub target: u64,
}

/// A resolved memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemOp {
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u64,
    /// True for stores.
    pub is_store: bool,
    /// For stores, the value previously in memory (silent-store
    /// detection); for loads, the value loaded.
    pub old_value: u64,
    /// For stores, the value written; for loads, equals `old_value`.
    pub new_value: u64,
}

impl MemOp {
    /// A store that overwrote a value with the same value
    /// ("silent store" — the common source of spurious *value*
    /// transitions, §2).
    pub fn is_silent_store(&self) -> bool {
        self.is_store && self.old_value == self.new_value
    }
}

/// Functional execution errors (all terminal).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// The PC pointed at an undecodable word.
    BadInstruction(u64),
    /// Conventionally fetched code used a DISE-only instruction or named
    /// a DISE register (the OS/controller protection of §3).
    DiseProtection(u64),
    /// `d_ret` executed with no DISE call outstanding.
    StrayDiseReturn(u64),
    /// A DISE branch left its replacement sequence.
    DiseBranchOutOfSequence(u64),
    /// Nested DISE call (DISE is disabled inside called functions;
    /// a second call cannot occur, so this flags a malformed handler).
    NestedDiseCall(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadInstruction(pc) => write!(f, "undecodable instruction at {pc:#x}"),
            ExecError::DiseProtection(pc) => {
                write!(f, "DISE-only resource used by conventional code at {pc:#x}")
            }
            ExecError::StrayDiseReturn(pc) => write!(f, "d_ret without DISE call at {pc:#x}"),
            ExecError::DiseBranchOutOfSequence(pc) => {
                write!(f, "DISE branch left its replacement sequence at {pc:#x}")
            }
            ExecError::NestedDiseCall(pc) => write!(f, "nested DISE call at {pc:#x}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The error [`Executor::fork_with_config`] returns when handed a
/// template that has already run: a mid-run machine's replacement
/// context and caches are tied to its own engine capacities and cannot
/// be re-capacitied, so sharing it cross-configuration would corrupt
/// the child. Callers that want a mid-run twin use [`Executor::fork`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ForkConfigError {
    /// Dynamic instructions the would-be template had already retired.
    pub instructions: u64,
}

impl fmt::Display for ForkConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fork_with_config shares pre-run templates only, but the parent has retired {} \
             instructions (use fork() for mid-run, same-configuration twins)",
            self.instructions
        )
    }
}

impl std::error::Error for ForkConfigError {}

/// Notable outcomes of one instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// `trap` (or a satisfied `ctrap`): control should pass to the
    /// debugger. The driver decides whether the transition is spurious.
    Trap,
    /// A store hit a write-protected page (virtual-memory watchpoints).
    /// The store is performed after the fault is recorded, as the
    /// debugger would re-execute it.
    ProtFault {
        /// The faulting address.
        addr: u64,
    },
    /// `halt` retired; the machine stops.
    Halted,
    /// A terminal execution error.
    Error(ExecError),
}

/// The record of one executed instruction — everything the timing model
/// and the debugger backends need to know.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Exec {
    /// PC of the instruction (for replacement instructions, the PC of
    /// their trigger).
    pub pc: u64,
    /// DISEPC: 0 for unexpanded instructions, else the 1-based index
    /// within the replacement sequence.
    pub disepc: u16,
    /// Executed inside a DISE-called function.
    pub in_dise_call: bool,
    /// The instruction.
    pub instr: Instr,
    /// True if this instruction came through fetch (consumes fetch
    /// bandwidth and I-cache); replacement instructions are generated at
    /// decode instead.
    pub fetched: bool,
    /// Control transfer, if any.
    pub branch: Option<Branch>,
    /// Memory access, if any.
    pub mem: Option<MemOp>,
    /// Pipeline flush caused by DISE mechanics, if any.
    pub flush: Option<FlushKind>,
    /// Debugger-visible event, if any.
    pub event: Option<Event>,
}

/// Saved resume point for a DISE call: the replacement sequence to
/// re-enter at `⟨trigger_pc : idx⟩`.
#[derive(Clone, Debug)]
struct CallReturn {
    trigger_pc: u64,
    seq: Vec<Instr>,
    idx: usize,
}

#[derive(Clone, Debug)]
enum Mode {
    /// Conventional fetch; DISE expansion armed.
    Normal,
    /// Inside a replacement sequence: executing `seq[idx]` for the
    /// trigger at `trigger_pc`.
    Replacing { trigger_pc: u64, seq: Vec<Instr>, idx: usize },
    /// Inside a DISE-called function: conventional fetch at `pc`, DISE
    /// expansion disabled, with the replacement context saved.
    InCall { ret: CallReturn },
}

/// Number of slots in the decoded-instruction cache (power of two).
const DECODED_SLOTS: usize = 4096;

/// Maximum decoded steps per cached block — and, aligned with that
/// block boundary, the default number of clean records the observer
/// fan-out buffers before handing them to timing as one slice.
pub const MAX_BLOCK_STEPS: usize = 64;

/// Granularity of the block invalidation index (power of two). A block
/// covers at most `MAX_BLOCK_STEPS * 4` bytes, so it spans at most two
/// regions.
const BLOCK_REGION_BYTES: u64 = 512;

/// Multiply-xor hasher for the PC-keyed block maps. These maps sit on
/// the per-instruction replay path, where SipHash alone would cost more
/// than the decode it replaces; PCs are word-aligned addresses, so a
/// single multiply spreads them fine.
#[derive(Default)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PcHasher is only used with u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type PcMap<V> = HashMap<u64, V, BuildHasherDefault<PcHasher>>;

/// One decoded step of a cached block.
#[derive(Clone, Debug)]
enum BlockStep {
    /// A conventionally decoded instruction.
    Plain { pc: u64, instr: Instr },
    /// A DISE trigger with its instantiated replacement sequence fused
    /// in at build time (always a block's last step — a trigger is an
    /// expansion boundary).
    Fused { pc: u64, seq: Vec<Instr> },
}

impl BlockStep {
    fn pc(&self) -> u64 {
        match self {
            BlockStep::Plain { pc, .. } | BlockStep::Fused { pc, .. } => *pc,
        }
    }
}

/// A decoded straight-line trace; its entry PC is the cache key.
#[derive(Clone, Debug)]
struct Block {
    /// Exclusive end of the instruction words the block decodes
    /// (`entry .. end` is the byte range store invalidation tests
    /// against).
    end: u64,
    steps: Vec<BlockStep>,
}

/// Counters for the block-level decoded-trace cache
/// ([`Executor::block_cache_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct BlockCacheStats {
    /// Entry-PC lookups: one per block *entered*, not per replayed step
    /// (so `hits + misses == lookups` always holds).
    pub lookups: u64,
    /// Lookups served by a cached block.
    pub hits: u64,
    /// Lookups that had to (re)build a block.
    pub misses: u64,
    /// Blocks dropped by overlapping stores, code patches, or engine
    /// reconfiguration (wholesale flushes via [`Executor::mem_mut`] or
    /// [`Executor::set_block_cache`] are not counted per block).
    pub invalidations: u64,
}

/// The functional machine: register file (GPRs + DISE registers), PC,
/// memory, the DISE engine, and the replacement-sequence context.
#[derive(Clone, Debug)]
pub struct Executor {
    regs: [u64; NUM_REGS],
    pc: u64,
    mem: Memory,
    engine: Engine,
    mode: Mode,
    halted: bool,
    instructions: u64,
    /// Decoded-instruction cache: a direct-mapped, PC-tagged store of
    /// `decode()` results, so warm fetches skip the memory read and the
    /// decoder. Entries are invalidated by stores that overlap them
    /// (self-modifying code) and the whole cache is dropped whenever a
    /// caller takes [`Executor::mem_mut`] (breakpoint patching).
    decoded: Vec<Option<(u64, Instr)>>,
    decode_hits: u64,
    decode_misses: u64,
    /// Block-level decoded-trace cache layered over `decoded`: decoded
    /// straight-line runs keyed by entry PC, with DISE expansions fused
    /// in at build time. Invalidated range-wise by overlapping stores
    /// and code patches, and flushed wholesale by [`Executor::mem_mut`]
    /// and [`Executor::engine_mut`] (production changes alter what a
    /// block would fuse). On by default; [`Executor::set_block_cache`]
    /// ablates it, and the `Exec` stream is byte-identical either way.
    block_cache: bool,
    /// Block arena: live blocks in `Some` slots, invalidated slots
    /// recycled through `free_blocks`. An arena rather than a map so
    /// the cursor continuation — the per-instruction hot path — is a
    /// bounds-checked index, not a hash probe.
    blocks: Vec<Option<Block>>,
    /// Entry PC → arena slot, consulted once per block *entered*.
    block_index: PcMap<u32>,
    free_blocks: Vec<u32>,
    /// Conservative byte range covered by any block ever cached since
    /// the last flush (`lo..hi`, never shrunk by invalidation), so the
    /// common store — data, nowhere near decoded text — skips block
    /// invalidation with two compares.
    block_bounds: (u64, u64),
    /// Region base → entry PCs of blocks overlapping that region, so a
    /// store invalidates by range without scanning every block. Stale
    /// entries (blocks already dropped via another region) are cleaned
    /// lazily.
    block_regions: PcMap<Vec<u64>>,
    /// Replay position: arena slot and next step of the block being
    /// executed. Validated against slot liveness and the current PC
    /// every step, so jumps, invalidations, and rebuilds simply drop
    /// it. (The PC check alone makes validation robust to slot reuse:
    /// any live step at the current PC decodes current memory.)
    cursor: Option<(u32, usize)>,
    block_stats: BlockCacheStats,
}

impl Executor {
    /// A machine with zeroed state and an empty engine.
    pub fn new(config: CpuConfig) -> Executor {
        Executor {
            regs: [0; NUM_REGS],
            pc: 0,
            mem: Memory::new(),
            engine: Engine::new(config.engine),
            mode: Mode::Normal,
            halted: false,
            instructions: 0,
            decoded: vec![None; DECODED_SLOTS],
            decode_hits: 0,
            decode_misses: 0,
            block_cache: true,
            blocks: Vec::new(),
            block_index: PcMap::default(),
            free_blocks: Vec::new(),
            block_bounds: (u64::MAX, 0),
            block_regions: PcMap::default(),
            cursor: None,
            block_stats: BlockCacheStats::default(),
        }
    }

    /// A machine with `prog` loaded, PC at its entry, and SP at its
    /// stack top.
    pub fn from_program(prog: &Program, config: CpuConfig) -> Executor {
        let mut e = Executor::new(config);
        prog.load(&mut e.mem);
        e.pc = prog.entry;
        e.regs[Reg::SP.index()] = prog.stack_top;
        e
    }

    /// Current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Set the PC (debugger "jump").
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Read a register (the zero register reads 0).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Write a register (writes to the zero register are discarded).
    /// The debugger uses this to load DISE registers like
    /// [`Reg::DAR`].
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The memory (for the debugger's expression evaluation).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory (loading, page protection).
    ///
    /// The caller may rewrite code behind the executor's back, so the
    /// decoded-instruction cache is dropped wholesale; use
    /// [`Executor::patch_code`] for single-word code patches instead.
    pub fn mem_mut(&mut self) -> &mut Memory {
        for slot in &mut self.decoded {
            *slot = None;
        }
        self.flush_blocks();
        &mut self.mem
    }

    /// Overwrite one code word (breakpoint planting/restoring),
    /// invalidating only the decoded-cache entries it overlaps — unlike
    /// [`Executor::mem_mut`], the rest of the warm cache survives.
    pub fn patch_code(&mut self, addr: u64, word: u32) {
        self.mem.write_u(addr, 4, word as u64);
        self.invalidate_decoded(addr, 4);
    }

    /// The DISE engine (production installation).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable DISE engine.
    ///
    /// Cached blocks bake in the engine's matching and instantiation
    /// decisions, so handing out mutable engine access (production
    /// installation, activation toggles) flushes them; the
    /// per-instruction decode cache is engine-independent and survives.
    pub fn engine_mut(&mut self) -> &mut Engine {
        self.flush_blocks();
        &mut self.engine
    }

    /// True once `halt` or an error has retired.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed (including replacement
    /// instructions).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// `(hits, misses)` of the decoded-instruction cache since
    /// construction. Replacement instructions never touch the cache
    /// (they are generated at decode, not fetched).
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (self.decode_hits, self.decode_misses)
    }

    /// Counters of the block-level decoded-trace cache since
    /// construction. All zero when the cache is disabled.
    pub fn block_cache_stats(&self) -> BlockCacheStats {
        self.block_stats
    }

    /// Enable/disable the block cache, dropping any cached blocks. The
    /// `Exec` stream is byte-identical in either state (the reference
    /// the block-cache tests compare against); only the counters and
    /// the work per step differ.
    pub fn set_block_cache(&mut self, enabled: bool) {
        self.block_cache = enabled;
        self.flush_blocks();
    }

    /// Fork a copy-on-write twin of this machine in O(page-table) time.
    ///
    /// The child is state-identical to `self` — registers, PC, DISE
    /// engine (productions and statistics), replacement context,
    /// instruction counter, and both decode caches (they describe the
    /// identical memory image and engine, so they remain valid as-is) —
    /// except that memory pages are shared copy-on-write and unshare on
    /// first write by either side. Page protections are deep-copied:
    /// the child protecting a page never protects the parent's, and
    /// vice versa. Takes `&mut self` only to account the fork in the
    /// parent's [`dise_mem::CowStats`]; no architectural state changes.
    pub fn fork(&mut self) -> Executor {
        let mem = self.mem.fork();
        let mut child = self.clone();
        child.mem = mem;
        child
    }

    /// Fork a machine that has not started running under a different
    /// configuration: copy-on-write memory, registers and PC from
    /// `self`; a fresh DISE engine with `config`'s capacities; cold
    /// caches. This is how one loaded image is shared across grid
    /// cells that disagree on [`CpuConfig::engine`] — a warmed engine
    /// or block cache would bake in the wrong capacities.
    ///
    /// # Errors
    ///
    /// Returns [`ForkConfigError`] if `self` has already executed
    /// instructions: a mid-run machine's replacement context and caches
    /// are tied to its own engine and cannot be re-capacitied. Use
    /// [`Executor::fork`] for same-configuration forks at any point of
    /// a run. (This used to be a debug-adjacent `assert!`; it is a
    /// recoverable error so misuse fails loudly on every build.)
    pub fn fork_with_config(&mut self, config: CpuConfig) -> Result<Executor, ForkConfigError> {
        if self.instructions != 0 {
            return Err(ForkConfigError { instructions: self.instructions });
        }
        let mut child = Executor::new(config);
        child.mem = self.mem.fork();
        child.regs = self.regs;
        child.pc = self.pc;
        Ok(child)
    }

    /// Snapshot the whole machine — O(page-table), not O(resident
    /// bytes), thanks to copy-on-write pages.
    pub fn checkpoint(&self) -> ExecutorCheckpoint {
        ExecutorCheckpoint { state: self.clone() }
    }

    /// Restore the machine to a checkpoint. The restored decode and
    /// block caches are the ones captured with it — they describe the
    /// restored memory image and engine exactly, so they come back
    /// revalidated rather than flushed, and re-running from the
    /// checkpoint replays the original `Exec` stream byte for byte.
    pub fn restore(&mut self, ck: &ExecutorCheckpoint) {
        *self = ck.state.clone();
    }

    #[inline]
    fn decoded_slot(pc: u64) -> usize {
        ((pc >> 2) as usize) & (DECODED_SLOTS - 1)
    }

    /// Drop cached decodes for the (≤ 3) instruction words a
    /// `width`-byte store at `addr` overlaps, plus every cached block
    /// whose decoded range the store overlaps. Both store execution and
    /// [`Executor::patch_code`] funnel through here.
    #[inline]
    fn invalidate_decoded(&mut self, addr: u64, width: u64) {
        let mut word = addr & !(INSTR_BYTES - 1);
        let last = addr.wrapping_add(width - 1) & !(INSTR_BYTES - 1);
        for _ in 0..3 {
            let slot = Self::decoded_slot(word);
            if matches!(self.decoded[slot], Some((tag, _)) if tag == word) {
                self.decoded[slot] = None;
            }
            if word == last {
                break;
            }
            word = word.wrapping_add(INSTR_BYTES);
        }
        self.invalidate_blocks(addr, width);
    }

    /// Drop every cached block whose `entry..end` range overlaps the
    /// `width`-byte store at `addr`. A patched instruction anywhere
    /// inside a block kills the whole block — replaying the untouched
    /// prefix would be correct, but the cursor's PC validation cannot
    /// distinguish a stale suffix, so invalidation is all-or-nothing
    /// per block.
    fn invalidate_blocks(&mut self, addr: u64, width: u64) {
        let end = addr.wrapping_add(width.max(1));
        if self.block_index.is_empty() || addr >= self.block_bounds.1 || end <= self.block_bounds.0
        {
            return;
        }
        let first = addr & !(BLOCK_REGION_BYTES - 1);
        let last = end.wrapping_sub(1) & !(BLOCK_REGION_BYTES - 1);
        let mut region = first;
        loop {
            if let Some(mut entries) = self.block_regions.remove(&region) {
                entries.retain(|&entry| match self.block_index.get(&entry) {
                    // Already dropped through another region.
                    None => false,
                    Some(&slot) => {
                        let b = self.blocks[slot as usize]
                            .as_ref()
                            .expect("indexed block slot is live");
                        if entry < end && addr < b.end {
                            self.blocks[slot as usize] = None;
                            self.free_blocks.push(slot);
                            self.block_index.remove(&entry);
                            self.block_stats.invalidations += 1;
                            false
                        } else {
                            true
                        }
                    }
                });
                if !entries.is_empty() {
                    self.block_regions.insert(region, entries);
                }
            }
            if region == last {
                break;
            }
            region = region.wrapping_add(BLOCK_REGION_BYTES);
        }
    }

    /// Drop all cached blocks (memory or engine changed wholesale).
    fn flush_blocks(&mut self) {
        self.blocks.clear();
        self.block_index.clear();
        self.free_blocks.clear();
        self.block_bounds = (u64::MAX, 0);
        self.block_regions.clear();
        self.cursor = None;
    }

    /// Register a block's byte range in the region index.
    fn index_block(&mut self, entry: u64, end: u64) {
        self.block_bounds.0 = self.block_bounds.0.min(entry);
        self.block_bounds.1 = self.block_bounds.1.max(end);
        let mut region = entry & !(BLOCK_REGION_BYTES - 1);
        let last = (end - 1) & !(BLOCK_REGION_BYTES - 1);
        loop {
            let list = self.block_regions.entry(region).or_default();
            if !list.contains(&entry) {
                list.push(entry);
            }
            if region == last {
                break;
            }
            region += BLOCK_REGION_BYTES;
        }
    }

    fn halt_with(&mut self, exec: &mut Exec, err: ExecError) {
        exec.event = Some(Event::Error(err));
        self.halted = true;
    }

    /// After finishing a replacement instruction at `idx`, advance the
    /// sequence or fall back to conventional fetch at `trigger_pc + 4`.
    fn advance_replacement(&mut self, trigger_pc: u64, seq: Vec<Instr>, next_idx: usize) {
        if next_idx >= seq.len() {
            self.mode = Mode::Normal;
            self.pc = trigger_pc + INSTR_BYTES;
        } else {
            self.mode = Mode::Replacing { trigger_pc, seq, idx: next_idx };
        }
    }

    /// One block-cache step in `Normal` mode: continue the block under
    /// the cursor, or look up / build a block at `pc` and execute its
    /// first step. Returns `None` when the block machinery did not
    /// handle the fetch (the word at `pc` is undecodable) — the caller
    /// falls through to the plain fetch path with no decode counted.
    fn try_block(&mut self, pc: u64) -> Option<Exec> {
        if let Some((slot, idx)) = self.cursor.take() {
            // Continuation: valid only if the slot is still live and
            // its next step sits exactly at the current PC (branches
            // out, `set_pc`, and invalidations all fail this check).
            // One arena index covers both the check and the fetch; the
            // `Plain` case — the per-instruction hot path — copies the
            // two words straight out and skips the generic replay.
            if let Some(b) = self.blocks[slot as usize].as_ref() {
                match b.steps.get(idx) {
                    Some(&BlockStep::Plain { pc: step_pc, instr }) if step_pc == pc => {
                        if idx + 1 < b.steps.len() {
                            self.cursor = Some((slot, idx + 1));
                        }
                        self.decode_hits += 1;
                        return Some(self.execute(pc, 0, false, instr, true, None));
                    }
                    Some(s @ BlockStep::Fused { .. }) if s.pc() == pc => {
                        let step = s.clone();
                        // A fused step is always a block's last; no
                        // continuation to record.
                        return Some(self.replay(step, None, true));
                    }
                    _ => {}
                }
            }
        }
        self.block_stats.lookups += 1;
        if let Some(&slot) = self.block_index.get(&pc) {
            self.block_stats.hits += 1;
            let b = self.blocks[slot as usize].as_ref().expect("indexed block slot is live");
            let step = b.steps[0].clone();
            let next = (b.steps.len() > 1).then_some((slot, 1));
            return Some(self.replay(step, next, true));
        }
        self.block_stats.misses += 1;
        let block = self.build_block(pc)?;
        self.index_block(pc, block.end);
        let step = block.steps[0].clone();
        let next = (block.steps.len() > 1).then_some(1usize);
        let slot = match self.free_blocks.pop() {
            Some(s) => {
                self.blocks[s as usize] = Some(block);
                s
            }
            None => {
                self.blocks.push(Some(block));
                (self.blocks.len() - 1) as u32
            }
        };
        self.block_index.insert(pc, slot);
        Some(self.replay(step, next.map(|i| (slot, i)), false))
    }

    /// Decode a straight-line run starting at `entry` into a block.
    /// Each word decodes through the per-instruction cache with normal
    /// hit/miss accounting. The run ends at control transfers, `halt`,
    /// `trap`, instructions that would fault under DISE protection, the
    /// first fused DISE expansion, `MAX_BLOCK_STEPS`, or an undecodable
    /// word. Returns `None` when even the first word is undecodable
    /// (the plain fetch path reports the error, uncounted, exactly as
    /// without the block cache).
    fn build_block(&mut self, entry: u64) -> Option<Block> {
        let mut steps = Vec::new();
        let mut at = entry;
        while steps.len() < MAX_BLOCK_STEPS {
            let slot = Self::decoded_slot(at);
            let instr = match self.decoded[slot] {
                Some((tag, i)) if tag == at => {
                    self.decode_hits += 1;
                    i
                }
                _ => match decode(self.mem.read_u(at, 4) as u32) {
                    Ok(i) => {
                        self.decode_misses += 1;
                        self.decoded[slot] = Some((at, i));
                        i
                    }
                    Err(_) => break,
                },
            };
            // Mirror the uncached step order: the expansion check comes
            // before execution, so a matching trigger is fused (with
            // its instantiated sequence) and ends the block.
            if let Some(seq) = self.engine.peek_expand(at, &instr) {
                steps.push(BlockStep::Fused { pc: at, seq });
                at += INSTR_BYTES;
                break;
            }
            // DISE-protected instructions are included (executing one
            // in Normal mode faults, same as uncached) but terminate
            // the run.
            let terminal = matches!(
                instr,
                Instr::Br { .. }
                    | Instr::CondBr { .. }
                    | Instr::Jmp { .. }
                    | Instr::Halt
                    | Instr::Trap
            ) || instr.is_dise_only()
                || instr.touches_dise_regs();
            steps.push(BlockStep::Plain { pc: at, instr });
            at += INSTR_BYTES;
            if terminal {
                break;
            }
        }
        if steps.is_empty() {
            return None;
        }
        Some(Block { end: at, steps })
    }

    /// Execute an already-fetched block step, leaving the cursor at
    /// `next`. `count_fetch` is false only for the step right after a
    /// build, whose decode `build_block` already accounted; replayed
    /// steps count as decode hits (the whole point of the cache).
    fn replay(&mut self, step: BlockStep, next: Option<(u32, usize)>, count_fetch: bool) -> Exec {
        self.cursor = next;
        if count_fetch {
            self.decode_hits += 1;
        }
        match step {
            BlockStep::Plain { pc, instr } => self.execute(pc, 0, false, instr, true, None),
            BlockStep::Fused { pc, seq } => {
                // The fused sequence was instantiated statistics-free at
                // build time; account for this replay so engine stats
                // match the uncached `expand` path exactly.
                self.engine.count_expansion(seq.len() as u64);
                let i = seq[0];
                self.execute(pc, 1, false, i, true, Some((pc, seq, 0)))
            }
        }
    }

    /// Execute one instruction and report what happened.
    ///
    /// # Panics
    ///
    /// Panics if called after the machine halted.
    pub fn step(&mut self) -> Exec {
        assert!(!self.halted, "step() on a halted machine");
        self.instructions += 1;

        // Select the instruction: replacement sequence, called function,
        // or conventional fetch (with expansion check).
        #[allow(clippy::type_complexity)]
        let (pc, disepc, in_call, instr, fetched, repl): (
            u64,
            u16,
            bool,
            Instr,
            bool,
            Option<(u64, Vec<Instr>, usize)>,
        );
        match std::mem::replace(&mut self.mode, Mode::Normal) {
            Mode::Replacing { trigger_pc, seq, idx } => {
                let i = seq[idx];
                pc = trigger_pc;
                disepc = (idx + 1) as u16;
                in_call = false;
                instr = i;
                fetched = false;
                repl = Some((trigger_pc, seq, idx));
            }
            m @ (Mode::Normal | Mode::InCall { .. }) => {
                pc = self.pc;
                in_call = matches!(m, Mode::InCall { .. });
                self.mode = m;
                // The decoded-trace fast path (Normal mode only: DISE
                // expansion is disabled inside called functions, and
                // handler code is short and rarely revisited).
                if self.block_cache && !in_call {
                    if let Some(exec) = self.try_block(pc) {
                        return exec;
                    }
                }
                let slot = Self::decoded_slot(pc);
                let decoded = match self.decoded[slot] {
                    Some((tag, i)) if tag == pc => {
                        self.decode_hits += 1;
                        i
                    }
                    _ => {
                        let word = self.mem.read_u(pc, 4) as u32;
                        match decode(word) {
                            Ok(i) => {
                                self.decode_misses += 1;
                                self.decoded[slot] = Some((pc, i));
                                i
                            }
                            Err(_) => {
                                let mut exec = Exec {
                                    pc,
                                    disepc: 0,
                                    in_dise_call: in_call,
                                    instr: Instr::Nop,
                                    fetched: true,
                                    branch: None,
                                    mem: None,
                                    flush: None,
                                    event: None,
                                };
                                self.halt_with(&mut exec, ExecError::BadInstruction(pc));
                                return exec;
                            }
                        }
                    }
                };
                // DISE expansion is armed only in Normal mode.
                if !in_call {
                    if let Some(seq) = self.engine.expand(pc, &decoded) {
                        // The trigger is *replaced*: begin the sequence.
                        let i = seq[0];
                        return self.execute(pc, 1, false, i, true, Some((pc, seq, 0)));
                    }
                }
                instr = decoded;
                disepc = 0;
                fetched = true;
                repl = None;
            }
        }
        self.execute(pc, disepc, in_call, instr, fetched, repl)
    }

    /// Execute `instr` in the established context.
    #[allow(clippy::too_many_lines)]
    fn execute(
        &mut self,
        pc: u64,
        disepc: u16,
        in_call: bool,
        instr: Instr,
        fetched: bool,
        repl: Option<(u64, Vec<Instr>, usize)>,
    ) -> Exec {
        let mut exec = Exec {
            pc,
            disepc,
            in_dise_call: in_call,
            instr,
            fetched,
            branch: None,
            mem: None,
            flush: None,
            event: None,
        };
        let in_replacement = repl.is_some();

        // Protection: conventional application code may not use DISE
        // resources; DISE-called functions access DISE registers only
        // through d_mfr/d_mtr.
        if !in_replacement {
            let legal_in_call = matches!(
                instr,
                Instr::DRet | Instr::DMfr { .. } | Instr::DMtr { .. } | Instr::CTrap { .. }
            );
            let allowed = in_call && legal_in_call;
            if !allowed && (instr.is_dise_only() || instr.touches_dise_regs()) {
                self.halt_with(&mut exec, ExecError::DiseProtection(pc));
                return exec;
            }
        }

        // Helper: where conventional execution resumes if no transfer.
        // (For replacement instructions the sequence index advances
        // instead; `self.pc` is only meaningful outside replacements.)
        let next_pc = self.pc + INSTR_BYTES;

        // `advance`: what to do after a non-transfer instruction.
        macro_rules! advance {
            () => {
                match repl {
                    Some((tpc, seq, idx)) => self.advance_replacement(tpc, seq, idx + 1),
                    None => self.pc = next_pc,
                }
            };
        }

        match instr {
            Instr::Nop | Instr::Codeword(_) => advance!(),
            Instr::Halt => {
                exec.event = Some(Event::Halted);
                self.halted = true;
            }
            Instr::Trap => {
                exec.event = Some(Event::Trap);
                advance!();
            }
            Instr::CTrap { cond, rs } => {
                if cond.holds(self.reg(rs)) {
                    exec.event = Some(Event::Trap);
                }
                advance!();
            }
            Instr::Alu { op, rd, ra, rb } => {
                let b = match rb {
                    dise_isa::Operand::Reg(r) => self.reg(r),
                    dise_isa::Operand::Imm(i) => i as u64,
                };
                let v = op.apply(self.reg(ra), b);
                self.set_reg(rd, v);
                advance!();
            }
            Instr::Lda { rd, base, disp } => {
                let v = self.reg(base).wrapping_add(disp as i64 as u64);
                self.set_reg(rd, v);
                advance!();
            }
            Instr::Ldah { rd, base, disp } => {
                let v = self.reg(base).wrapping_add(((disp as i64) << 14) as u64);
                self.set_reg(rd, v);
                advance!();
            }
            Instr::Load { width, rd, base, disp } => {
                let addr = self.reg(base).wrapping_add(disp as i64 as u64);
                let w = width.bytes();
                let v = self.mem.read_u(addr, w);
                self.set_reg(rd, v);
                exec.mem =
                    Some(MemOp { addr, width: w, is_store: false, old_value: v, new_value: v });
                advance!();
            }
            Instr::Store { width, rs, base, disp } => {
                let addr = self.reg(base).wrapping_add(disp as i64 as u64);
                let w = width.bytes();
                let old = self.mem.read_u(addr, w);
                let new = self.reg(rs) & width_mask(w);
                if let Err(fault) = self.mem.write_checked(addr, w, new) {
                    exec.event = Some(Event::ProtFault { addr: fault.addr });
                    // The debugger services the fault and re-executes the
                    // store on the application's behalf.
                    self.mem.write_u(addr, w, new);
                }
                self.invalidate_decoded(addr, w);
                exec.mem =
                    Some(MemOp { addr, width: w, is_store: true, old_value: old, new_value: new });
                advance!();
            }
            Instr::Br { rd, disp } => {
                let ret = pc + INSTR_BYTES;
                let target = (pc as i64 + 4 + 4 * disp as i64) as u64;
                self.set_reg(rd, ret);
                exec.branch = Some(Branch {
                    kind: if rd.is_zero() { BranchKind::Direct } else { BranchKind::Call },
                    taken: true,
                    target,
                });
                if in_replacement {
                    exec.flush = Some(FlushKind::ReplacementBranch);
                    self.mode = Mode::Normal;
                }
                self.pc = target;
            }
            Instr::CondBr { cond, rs, disp } => {
                let taken = cond.holds(self.reg(rs));
                let target = (pc as i64 + 4 + 4 * disp as i64) as u64;
                exec.branch = Some(Branch { kind: BranchKind::Conditional, taken, target });
                if taken {
                    if in_replacement {
                        exec.flush = Some(FlushKind::ReplacementBranch);
                        self.mode = Mode::Normal;
                    }
                    self.pc = target;
                } else {
                    advance!();
                }
            }
            Instr::Jmp { rd, base } => {
                let target = self.reg(base) & !3;
                let ret = pc + INSTR_BYTES;
                let kind = if !rd.is_zero() {
                    BranchKind::Call
                } else if base == Reg::RA {
                    BranchKind::Return
                } else {
                    BranchKind::Indirect
                };
                self.set_reg(rd, ret);
                exec.branch = Some(Branch { kind, taken: true, target });
                if in_replacement {
                    exec.flush = Some(FlushKind::ReplacementBranch);
                    self.mode = Mode::Normal;
                }
                self.pc = target;
            }
            Instr::DBr { cond, rs, disp } => {
                let (tpc, seq, idx) = repl.expect("DBr only in replacement");
                if cond.holds(self.reg(rs)) {
                    exec.flush = Some(FlushKind::DiseBranch);
                    let next = idx as i64 + 1 + disp as i64;
                    if next < 0 || next as usize > seq.len() {
                        self.halt_with(&mut exec, ExecError::DiseBranchOutOfSequence(pc));
                        return exec;
                    }
                    self.advance_replacement(tpc, seq, next as usize);
                } else {
                    self.advance_replacement(tpc, seq, idx + 1);
                }
            }
            Instr::DCall { target } | Instr::DCCall { target, .. } => {
                let taken = match instr {
                    Instr::DCCall { cond, rs, .. } => cond.holds(self.reg(rs)),
                    _ => true,
                };
                let (tpc, seq, idx) = repl.expect("DISE call only in replacement");
                if taken {
                    if in_call {
                        self.halt_with(&mut exec, ExecError::NestedDiseCall(pc));
                        return exec;
                    }
                    exec.flush = Some(FlushKind::DiseCall);
                    let callee = self.reg(target);
                    self.mode =
                        Mode::InCall { ret: CallReturn { trigger_pc: tpc, seq, idx: idx + 1 } };
                    self.pc = callee;
                } else {
                    self.advance_replacement(tpc, seq, idx + 1);
                }
            }
            Instr::DRet => match std::mem::replace(&mut self.mode, Mode::Normal) {
                Mode::InCall { ret } => {
                    exec.flush = Some(FlushKind::DiseRet);
                    self.advance_replacement(ret.trigger_pc, ret.seq, ret.idx);
                }
                _ => {
                    self.halt_with(&mut exec, ExecError::StrayDiseReturn(pc));
                }
            },
            Instr::DMfr { rd, dr } => {
                let v = self.reg(dr);
                self.set_reg(rd, v);
                advance!();
            }
            Instr::DMtr { dr, rs } => {
                let v = self.reg(rs);
                self.set_reg(dr, v);
                advance!();
            }
        }
        exec
    }
}

/// A frozen snapshot of a whole [`Executor`] — architectural state,
/// memory (pages shared copy-on-write with the live machine), DISE
/// engine, replacement context, and decode/block caches. Taking and
/// restoring one is O(page-table); see [`Executor::checkpoint`] /
/// [`Executor::restore`].
#[derive(Clone, Debug)]
pub struct ExecutorCheckpoint {
    state: Executor,
}

impl ExecutorCheckpoint {
    /// Dynamic instructions the machine had executed when captured.
    pub fn instructions(&self) -> u64 {
        self.state.instructions
    }

    /// The captured PC.
    pub fn pc(&self) -> u64 {
        self.state.pc
    }
}

#[inline]
fn width_mask(bytes: u64) -> u64 {
    if bytes == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * bytes)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_asm::{parse_asm, Layout};
    use dise_engine::{Pattern, Production, TemplateInst};
    use dise_isa::Cond;
    use dise_isa::{AluOp, OpClass, Width};

    fn machine(src: &str) -> Executor {
        let prog = parse_asm(src).unwrap().assemble(Layout::default()).unwrap();
        Executor::from_program(&prog, CpuConfig::default())
    }

    fn run(e: &mut Executor, max: u64) -> Vec<Exec> {
        let mut out = Vec::new();
        let mut n = 0;
        while !e.is_halted() {
            out.push(e.step());
            n += 1;
            assert!(n < max, "did not halt in {max} steps");
        }
        out
    }

    #[test]
    fn countdown_loop_executes() {
        let mut m = machine(
            "start: lda r1, 3(zero)
             loop:  subq r1, 1, r1
                    bgt r1, loop
                    halt",
        );
        let trace = run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(1)), 0);
        // lda + 3*(subq+bgt) + halt
        assert_eq!(trace.len(), 1 + 6 + 1);
        assert!(matches!(trace.last().unwrap().event, Some(Event::Halted)));
    }

    #[test]
    fn memory_round_trip_and_memop_record() {
        let mut m = machine(
            "start: la r1, v
                    ldq r2, 0(r1)
                    addq r2, 5, r2
                    stq r2, 0(r1)
                    halt
             .data
             v: .quad 37",
        );
        let trace = run(&mut m, 100);
        let store = trace.iter().find(|e| e.mem.is_some_and(|m| m.is_store)).unwrap();
        let mo = store.mem.unwrap();
        assert_eq!(mo.old_value, 37);
        assert_eq!(mo.new_value, 42);
        assert!(!mo.is_silent_store());
        let addr = mo.addr;
        assert_eq!(m.mem().read_u(addr, 8), 42);
    }

    #[test]
    fn silent_store_detected() {
        let mut m = machine(
            "start: la r1, v
                    ldq r2, 0(r1)
                    stq r2, 0(r1)
                    halt
             .data
             v: .quad 9",
        );
        let trace = run(&mut m, 100);
        let store = trace.iter().find(|e| e.mem.is_some_and(|m| m.is_store)).unwrap();
        assert!(store.mem.unwrap().is_silent_store());
    }

    #[test]
    fn calls_and_returns() {
        let mut m = machine(
            "start: bsr ra, f
                    halt
             f:     lda r5, 7(zero)
                    ret",
        );
        let trace = run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(5)), 7);
        let kinds: Vec<_> = trace.iter().filter_map(|e| e.branch.map(|b| b.kind)).collect();
        assert_eq!(kinds, vec![BranchKind::Call, BranchKind::Return]);
    }

    #[test]
    fn trap_event_and_resume() {
        let mut m = machine("start: trap\n lda r1, 1(zero)\n halt");
        let trace = run(&mut m, 10);
        assert!(matches!(trace[0].event, Some(Event::Trap)));
        assert_eq!(m.reg(Reg::gpr(1)), 1, "execution resumed after trap");
    }

    #[test]
    fn prot_fault_reported_and_store_lands() {
        let mut m = machine(
            "start: la r1, v
                    lda r2, 9(zero)
                    stq r2, 0(r1)
                    halt
             .data
             v: .quad 1",
        );
        let v = 0x0100_0000;
        m.mem_mut().protect_page(v, true);
        let trace = run(&mut m, 100);
        let st = trace.iter().find(|e| e.mem.is_some_and(|m| m.is_store)).unwrap();
        assert!(matches!(st.event, Some(Event::ProtFault { addr }) if addr == v));
        assert_eq!(m.mem().read_u(v, 8), 9, "store performed after fault");
    }

    #[test]
    fn app_code_cannot_touch_dise_state() {
        // `d_ret` in conventional code.
        let mut m = machine("start: d_ret\n halt");
        let trace = run(&mut m, 10);
        assert!(matches!(trace[0].event, Some(Event::Error(ExecError::DiseProtection(_)))));

        // ALU naming a DISE register in conventional code.
        let mut m = machine("start: addq dr1, 1, dr1\n halt");
        let trace = run(&mut m, 10);
        assert!(matches!(trace[0].event, Some(Event::Error(ExecError::DiseProtection(_)))));
    }

    /// Install the paper's Fig. 2a naive watchpoint production.
    fn install_fig2a(m: &mut Executor) {
        let dr1 = Reg::dise(1);
        m.engine_mut()
            .install(Production::new(
                "fig2a",
                Pattern::opclass(OpClass::Store),
                vec![
                    TemplateInst::Trigger,
                    TemplateInst::Load {
                        width: Width::Q,
                        rd: dise_engine::TReg::Lit(dr1),
                        base: dise_engine::TReg::Lit(Reg::DAR),
                        disp: dise_engine::TDisp::Lit(0),
                    },
                    TemplateInst::Alu {
                        op: AluOp::CmpEq,
                        rd: dise_engine::TReg::Lit(dr1),
                        ra: dise_engine::TReg::Lit(dr1),
                        rb: dise_engine::TOperand::Reg(dise_engine::TReg::Lit(Reg::DPV)),
                    },
                    TemplateInst::Fixed(Instr::DBr { cond: Cond::Ne, rs: dr1, disp: 1 }),
                    TemplateInst::Fixed(Instr::Trap),
                ],
            ))
            .unwrap();
    }

    #[test]
    fn fig2a_expansion_traps_on_value_change() {
        let mut m = machine(
            "start: la r1, w
                    lda r2, 5(zero)
                    stq r2, 0(r1)       # changes w: should trap
                    halt
             .data
             w: .quad 0",
        );
        let w = 0x0100_0000u64;
        install_fig2a(&mut m);
        m.set_reg(Reg::DAR, w);
        m.set_reg(Reg::DPV, 0); // previous value of w
        let trace = run(&mut m, 100);
        // Expansion: store(disepc1), ldq(2), cmpeq(3), d_bne(4) not taken, trap(5)
        let expanded: Vec<_> = trace.iter().filter(|e| e.disepc > 0).collect();
        assert_eq!(expanded.len(), 5);
        assert!(expanded.iter().all(|e| e.pc == expanded[0].pc), "same trigger PC");
        assert_eq!(expanded[0].disepc, 1);
        assert!(!expanded[1].fetched, "replacement instructions are not fetched");
        assert!(matches!(expanded[4].event, Some(Event::Trap)));
        // DISE branch not taken => no flush on it.
        assert_eq!(expanded[3].flush, None);
    }

    #[test]
    fn fig2a_dise_branch_skips_trap_when_value_unchanged() {
        let mut m = machine(
            "start: la r1, w
                    lda r2, 0(zero)
                    stq r2, 0(r1)       # silent store: w stays 0
                    halt
             .data
             w: .quad 0",
        );
        install_fig2a(&mut m);
        m.set_reg(Reg::DAR, 0x0100_0000);
        m.set_reg(Reg::DPV, 0);
        let trace = run(&mut m, 100);
        assert!(
            !trace.iter().any(|e| matches!(e.event, Some(Event::Trap))),
            "no trap for unchanged value"
        );
        // The taken DISE branch must flush.
        let dbr = trace.iter().find(|e| matches!(e.instr, Instr::DBr { .. })).unwrap();
        assert_eq!(dbr.flush, Some(FlushKind::DiseBranch));
        // 4 replacement instructions executed (trap skipped).
        assert_eq!(trace.iter().filter(|e| e.disepc > 0).count(), 4);
    }

    #[test]
    fn dise_call_runs_function_and_returns() {
        // Production: store => store; d_call (dhdlr). Handler: set r9=1,
        // d_ret. After the call, execution continues after the store.
        let mut m = machine(
            "start: la r1, v
                    lda r2, 3(zero)
                    stq r2, 0(r1)
                    lda r8, 1(zero)    # runs after the expansion finishes
                    halt
             handler:
                    lda r9, 1(zero)
                    d_ret
             .data
             v: .quad 0",
        );
        let handler = {
            // Resolve label: re-assemble to find it.
            let prog = parse_asm(
                "start: la r1, v
                    lda r2, 3(zero)
                    stq r2, 0(r1)
                    lda r8, 1(zero)
                    halt
             handler:
                    lda r9, 1(zero)
                    d_ret
             .data
             v: .quad 0",
            )
            .unwrap()
            .assemble(Layout::default())
            .unwrap();
            prog.symbol("handler").unwrap()
        };
        m.engine_mut()
            .install(Production::new(
                "call",
                Pattern::opclass(OpClass::Store),
                vec![
                    TemplateInst::Trigger,
                    TemplateInst::Fixed(Instr::DCall { target: Reg::DHDLR }),
                ],
            ))
            .unwrap();
        m.set_reg(Reg::DHDLR, handler);
        let trace = run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(9)), 1, "handler ran");
        assert_eq!(m.reg(Reg::gpr(8)), 1, "fall-through after expansion");
        assert_eq!(m.mem().read_u(0x0100_0000, 8), 3, "store retired");
        let flushes: Vec<_> = trace.iter().filter_map(|e| e.flush).collect();
        assert_eq!(flushes, vec![FlushKind::DiseCall, FlushKind::DiseRet]);
        // Handler instructions are conventional fetches inside the call.
        let in_call: Vec<_> = trace.iter().filter(|e| e.in_dise_call).collect();
        assert_eq!(in_call.len(), 2);
        assert!(in_call.iter().all(|e| e.fetched));
    }

    #[test]
    fn dise_disabled_inside_called_function() {
        // The handler itself contains a store; it must NOT re-expand.
        let src = "start: la r1, v
                    lda r2, 3(zero)
                    stq r2, 0(r1)
                    halt
             handler:
                    stq r2, 8(r1)
                    d_ret
             .data
             v: .quad 0
                .quad 0";
        let prog = parse_asm(src).unwrap().assemble(Layout::default()).unwrap();
        let handler = prog.symbol("handler").unwrap();
        let mut m = Executor::from_program(&prog, CpuConfig::default());
        m.engine_mut()
            .install(Production::new(
                "call",
                Pattern::opclass(OpClass::Store),
                vec![
                    TemplateInst::Trigger,
                    TemplateInst::Fixed(Instr::DCall { target: Reg::DHDLR }),
                ],
            ))
            .unwrap();
        m.set_reg(Reg::DHDLR, handler);
        let trace = run(&mut m, 100);
        // Exactly one DISE call, not two.
        let calls = trace.iter().filter(|e| e.flush == Some(FlushKind::DiseCall)).count();
        assert_eq!(calls, 1);
        assert_eq!(m.mem().read_u(0x0100_0008, 8), 3, "handler store executed plainly");
    }

    #[test]
    fn ctrap_fires_conditionally() {
        // ctrap in a replacement sequence (Fig. 2b): trap iff value
        // changed (cmpeq result 0).
        let dr1 = Reg::dise(1);
        let prod = Production::new(
            "fig2b",
            Pattern::opclass(OpClass::Store),
            vec![
                TemplateInst::Trigger,
                TemplateInst::Load {
                    width: Width::Q,
                    rd: dise_engine::TReg::Lit(dr1),
                    base: dise_engine::TReg::Lit(Reg::DAR),
                    disp: dise_engine::TDisp::Lit(0),
                },
                TemplateInst::Alu {
                    op: AluOp::CmpEq,
                    rd: dise_engine::TReg::Lit(dr1),
                    ra: dise_engine::TReg::Lit(dr1),
                    rb: dise_engine::TOperand::Reg(dise_engine::TReg::Lit(Reg::DPV)),
                },
                TemplateInst::Fixed(Instr::CTrap { cond: Cond::Eq, rs: dr1 }),
            ],
        );
        let mut m = machine(
            "start: la r1, w
                    lda r2, 5(zero)
                    stq r2, 0(r1)
                    halt
             .data
             w: .quad 0",
        );
        m.engine_mut().install(prod).unwrap();
        m.set_reg(Reg::DAR, 0x0100_0000);
        m.set_reg(Reg::DPV, 0);
        let trace = run(&mut m, 100);
        let traps = trace.iter().filter(|e| matches!(e.event, Some(Event::Trap))).count();
        assert_eq!(traps, 1);
        // No flush anywhere: ctrap avoids the DISE branch.
        assert!(trace.iter().all(|e| e.flush.is_none()));
    }

    #[test]
    fn decode_cache_hits_on_warm_loop() {
        let mut m = machine(
            "start: lda r1, 50(zero)
             loop:  subq r1, 1, r1
                    bgt r1, loop
                    halt",
        );
        // With the block cache off, every fetch does exactly one
        // per-instruction lookup, so hits + misses == instructions;
        // block building breaks that identity by decoding ahead.
        m.set_block_cache(false);
        run(&mut m, 200);
        let (hits, misses) = m.decode_cache_stats();
        assert_eq!(misses, 4, "each static instruction decodes once");
        assert_eq!(hits + misses, m.instructions());
        assert_eq!(m.block_cache_stats(), BlockCacheStats::default(), "disabled cache is inert");
    }

    #[test]
    fn block_cache_hits_dominate_on_warm_loop() {
        let mut m = machine(
            "start: lda r1, 50(zero)
             loop:  subq r1, 1, r1
                    bgt r1, loop
                    halt",
        );
        m.set_block_cache(true);
        run(&mut m, 200);
        let s = m.block_cache_stats();
        assert_eq!(s.hits + s.misses, s.lookups, "every lookup is a hit or a miss");
        assert!(s.hits > s.misses, "warm loop must replay cached blocks: {s:?}");
        assert_eq!(s.invalidations, 0, "nothing writes code here");
        // The loop body replays from the block cache, so replayed
        // fetches count as decode hits and each static instruction
        // still decodes (misses) exactly once.
        let (_, misses) = m.decode_cache_stats();
        assert_eq!(misses, 4);
    }

    #[test]
    fn exec_streams_identical_with_block_cache_on_and_off() {
        // A DISE-expanding loop with a trap: the fused replay must
        // reproduce the uncached stream byte for byte, including
        // engine statistics and instruction counts.
        let src = "start: la r1, w
                    lda r9, 3(zero)
             loop:  stq r9, 0(r1)
                    subq r9, 1, r9
                    bgt r9, loop
                    halt
             .data
             w: .quad 0";
        let mk = |enabled: bool| {
            let mut m = machine(src);
            install_fig2a(&mut m);
            m.set_reg(Reg::DAR, 0x0100_0000);
            m.set_reg(Reg::DPV, 0);
            m.set_block_cache(enabled);
            m
        };
        let mut off = mk(false);
        let mut on = mk(true);
        let trace_off = run(&mut off, 200);
        let trace_on = run(&mut on, 200);
        assert_eq!(trace_off, trace_on, "Exec streams must be byte-identical");
        assert_eq!(off.engine().stats(), on.engine().stats(), "fused replays count as triggers");
        assert_eq!(off.instructions(), on.instructions());
        assert!(on.block_cache_stats().lookups > 0, "the cache actually engaged");
    }

    #[test]
    fn self_modifying_store_invalidates_decoded_cache() {
        // Pass 1 executes `slot` (caching its decode) and then patches it
        // with `lda r5, 77(zero)`; pass 2 must see the new instruction.
        let patched = dise_isa::encode(&Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 77 });
        let mut m = machine(&format!(
            "start: la r1, slot
                    la r3, patch
                    ldl r2, 0(r3)
                    lda r9, 2(zero)
             slot:  lda r5, 111(zero)
                    subq r9, 1, r9
                    beq r9, done
                    stl r2, 0(r1)      # self-modify: overwrite slot
                    br slot
             done:  halt
             .data
             patch: .quad {patched}"
        ));
        run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(5)), 77, "stale decode served after self-modification");
    }

    /// Regression for the store-overlap boundary audit: an unaligned
    /// 8-byte store that *starts in the word before* a cached
    /// instruction and straddles into it (and one byte beyond) must
    /// invalidate the cached decode — the invalidation walks every
    /// instruction word the store's byte range overlaps, up to three.
    #[test]
    fn straddling_store_invalidates_decoded_cache_across_word_boundaries() {
        let nop = dise_isa::encode(&Instr::Nop) as u64;
        let patched =
            dise_isa::encode(&Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 77 }) as u64;
        // The stq at `slot - 3` rewrites: the last 3 bytes of the nop
        // word before `slot` (with their original bytes), all 4 bytes of
        // `slot`, and the first byte of the nop word after it (also with
        // its original byte). Only `slot` actually changes.
        let value = (nop >> 8) | (patched << 24) | ((nop & 0xff) << 56);
        let mut m = machine(&format!(
            "start: la r1, slot
                    la r3, patch
                    ldq r2, 0(r3)
                    lda r9, 2(zero)
             loop:  nop
             slot:  lda r5, 111(zero)
                    nop
                    subq r9, 1, r9
                    beq r9, done
                    stq r2, -3(r1)     # straddles into slot's word
                    br loop
             done:  halt
             .data
             patch: .quad {value}"
        ));
        run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(5)), 77, "stale decode served after boundary-straddling store");
    }

    /// Block-cache counterpart of the straddling-store regression: a
    /// `patch_code` patch (the breakpoint path) landing in the *middle*
    /// of a cached block must invalidate the whole block, not just the
    /// patched word's decode slot — the block is keyed by its entry PC,
    /// which the patch does not touch.
    #[test]
    fn patch_code_invalidates_whole_cached_block() {
        let src = "start: lda r9, 4(zero)
             loop:  nop
             slot:  lda r5, 111(zero)
                    subq r9, 1, r9
                    bgt r9, loop
                    halt";
        let prog = parse_asm(src).unwrap().assemble(Layout::default()).unwrap();
        let slot = prog.symbol("slot").unwrap();
        let mut m = Executor::from_program(&prog, CpuConfig::default());
        m.set_block_cache(true);
        // Three loop iterations: the second builds a block keyed at
        // `loop` — with `slot` in its *middle* — and the third replays
        // it from cache.
        for _ in 0..13 {
            m.step();
        }
        assert!(m.block_cache_stats().hits > 0, "the `loop` block replayed from cache");
        m.patch_code(
            slot,
            dise_isa::encode(&Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 77 }),
        );
        assert!(m.block_cache_stats().invalidations > 0, "patch dropped the enclosing block(s)");
        run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(5)), 77, "stale block replayed after a mid-block patch");
    }

    /// Cached blocks bake in expansion decisions, so installing a
    /// production through `engine_mut` after a block is warm must drop
    /// it — the store must expand on the next pass.
    #[test]
    fn engine_changes_flush_cached_blocks() {
        let mut m = machine(
            "start: la r1, v
                    lda r9, 2(zero)
             loop:  stq r9, 0(r1)
                    subq r9, 1, r9
                    bgt r9, loop
                    halt
             .data
             v: .quad 0",
        );
        m.set_block_cache(true);
        // First iteration: the store's block caches it as a plain step
        // (no productions installed yet).
        for _ in 0..5 {
            m.step();
        }
        m.engine_mut()
            .install(Production::new(
                "pad",
                Pattern::opclass(OpClass::Store),
                vec![TemplateInst::Trigger, TemplateInst::Fixed(Instr::Nop)],
            ))
            .unwrap();
        let trace = run(&mut m, 100);
        assert!(
            trace.iter().any(|e| e.disepc > 0),
            "second pass must expand the store after the engine changed"
        );
    }

    #[test]
    fn mem_mut_drops_decoded_cache() {
        let mut m = machine(
            "start: lda r5, 1(zero)
                    halt",
        );
        let first = m.step();
        assert_eq!(first.instr, Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 1 });
        // Patch the next word (the halt) behind the executor's back, as
        // the breakpoint backend does, then re-point the PC at it.
        let pc = m.pc();
        m.mem_mut().write_u(pc, 4, dise_isa::encode(&Instr::Nop) as u64);
        let e = m.step();
        assert_eq!(e.instr, Instr::Nop, "patched word must be re-decoded");
    }

    #[test]
    fn zero_register_discards_writes() {
        let mut m = machine("start: lda r31, 5(zero)\n halt");
        run(&mut m, 10);
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn alu_immediate_and_register_forms() {
        let mut m = machine(
            "start: lda r1, 10(zero)
                    addq r1, 5, r2
                    addq r2, r2, r3
                    halt",
        );
        run(&mut m, 10);
        assert_eq!(m.reg(Reg::gpr(2)), 15);
        assert_eq!(m.reg(Reg::gpr(3)), 30);
    }

    #[test]
    fn instruction_count_includes_expansions() {
        let mut m = machine(
            "start: la r1, v
                    stq r2, 0(r1)
                    halt
             .data
             v: .quad 0",
        );
        m.engine_mut()
            .install(Production::new(
                "pad",
                Pattern::opclass(OpClass::Store),
                vec![TemplateInst::Trigger, TemplateInst::Fixed(Instr::Nop)],
            ))
            .unwrap();
        run(&mut m, 100);
        // la(2) + store-expansion(2) + halt(1)
        assert_eq!(m.instructions(), 5);
    }

    /// A self-modifying countdown: each iteration stores a changing
    /// value over data *and* patches its own loop body — the worst case
    /// for anything sharing pages or cached decodes across a fork.
    fn self_modifying_src() -> &'static str {
        "start: lda r1, 6(zero)
                la r2, v
                la r3, patch
                ldq r4, 0(r3)
         loop:  stq r1, 0(r2)
         patch: addq r1, 0, r5
                stq r4, 0(r3)      # rewrite the addq with itself... or not
                addq r4, 1, r4     # drift the stored word (stays decodable: imm grows)
                subq r1, 1, r1
                bgt r1, loop
                halt
         .data
         v: .quad 0"
    }

    /// Forked continuation == fresh continuation, byte for byte — even
    /// with self-modifying stores landing on still-shared pages.
    #[test]
    fn fork_is_invisible_mid_run() {
        let src = self_modifying_src();
        let reference = {
            let mut m = machine(src);
            run(&mut m, 1000)
        };
        for fork_at in [0usize, 1, 7, 13, 26] {
            let mut parent = machine(src);
            for _ in 0..fork_at.min(reference.len()) {
                parent.step();
            }
            let mut child = parent.fork();
            assert_eq!(child.pc(), parent.pc());
            assert_eq!(child.instructions(), parent.instructions());
            // The child continues exactly as the unforked run did...
            let tail = run(&mut child, 1000);
            assert_eq!(tail, reference[fork_at.min(reference.len())..], "fork at {fork_at}");
            // ...and so does the parent, whose pages the child wrote.
            let parent_tail = run(&mut parent, 1000);
            assert_eq!(parent_tail, tail, "parent diverged after fork at {fork_at}");
        }
    }

    /// The fork shares pages instead of copying them, and the parent's
    /// memory is untouched by child stores.
    #[test]
    fn fork_shares_memory_copy_on_write() {
        let mut parent = machine(self_modifying_src());
        let resident = parent.mem().resident_pages();
        let mut child = parent.fork();
        assert_eq!(parent.mem().cow_stats().forks, 1);
        assert_eq!(child.mem().cow_stats().pages_shared, resident as u64);
        assert_eq!(child.mem().shared_pages(), resident);
        run(&mut child, 1000);
        let cs = child.mem().cow_stats();
        assert!(cs.pages_copied >= 1, "child stores must unshare pages");
        assert!(cs.pages_copied <= cs.pages_shared, "only shared pages can be copied");
        assert_eq!(
            cs.pages_copied + child.mem().shared_pages() as u64,
            cs.pages_shared,
            "copied + still-shared == shared-at-fork while the parent is idle"
        );
        assert_eq!(parent.mem().cow_stats().pages_copied, 0, "parent never wrote");
    }

    /// Checkpoint → run → restore → run replays the identical stream,
    /// with the warm caches revalidated rather than rebuilt.
    #[test]
    fn checkpoint_restore_replays_identically() {
        let mut m = machine(self_modifying_src());
        for _ in 0..9 {
            m.step();
        }
        let ck = m.checkpoint();
        assert_eq!(ck.instructions(), 9);
        assert_eq!(ck.pc(), m.pc());
        let first = run(&mut m, 1000);
        let stats_first = (m.decode_cache_stats(), m.block_cache_stats(), m.engine().stats());
        m.restore(&ck);
        assert_eq!(m.instructions(), 9);
        let second = run(&mut m, 1000);
        assert_eq!(second, first, "restored run must replay the stream byte for byte");
        let stats_second = (m.decode_cache_stats(), m.block_cache_stats(), m.engine().stats());
        assert_eq!(
            stats_second, stats_first,
            "counters rewind with the machine and re-accumulate identically"
        );
    }

    /// Cross-configuration forks share the loaded image but get fresh
    /// engine capacities, and refuse mid-run templates.
    #[test]
    fn fork_with_config_shares_image_with_fresh_engine() {
        let mut template = machine(
            "start: la r1, v
                    stq r2, 0(r1)
                    halt
             .data
             v: .quad 0",
        );
        let mut small = CpuConfig::default();
        small.engine.replacement_entries = 2;
        let mut child = template.fork_with_config(small).expect("pre-run template forks");
        assert_eq!(child.pc(), template.pc());
        assert_eq!(child.reg(Reg::SP), template.reg(Reg::SP));
        assert_eq!(child.mem().read_u(child.pc(), 4), template.mem().read_u(template.pc(), 4));
        assert_eq!(child.engine().config().replacement_entries, 2);
        let err = Production::new(
            "pad",
            Pattern::opclass(OpClass::Store),
            vec![
                TemplateInst::Trigger,
                TemplateInst::Fixed(Instr::Nop),
                TemplateInst::Fixed(Instr::Nop),
            ],
        );
        assert!(child.engine_mut().install(err).is_err(), "small capacity is really in force");
        run(&mut child, 100);

        // Regression: a mid-run template is refused with a recoverable
        // error naming how far the parent had run, not a debug assert.
        template.step();
        let err = template.fork_with_config(small).unwrap_err();
        assert_eq!(err, ForkConfigError { instructions: 1 });
        assert!(err.to_string().contains("retired 1 instructions"), "{err}");
    }
}
