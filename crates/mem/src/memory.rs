//! Sparse paged memory with per-page write protection and
//! copy-on-write forking.
//!
//! Pages are reference-counted (`Arc`) so cloning or forking a
//! [`Memory`] is O(page-table), not O(resident bytes):
//! both sides share every page until one of them writes, at which point
//! [`Arc::make_mut`] unshares just the written page. The protection set
//! is a plain per-`Memory` page-number set, deep-copied on fork, so a
//! forked child protecting a page never protects its parent's.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A multiply-fold hasher for `u64` address-like keys (page numbers
/// here, store-dependence quads in `dise-cpu`). Every simulated memory
/// access resolves at least one page, and the default SipHash dominates
/// the functional simulator's profile; simulator addresses need spread,
/// not DoS resistance.
#[derive(Clone, Copy, Default, Debug)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type Page = [u8; PAGE_SIZE as usize];
type PageMap = HashMap<u64, Arc<Page>, BuildHasherDefault<AddrHasher>>;
type PageSet = HashSet<u64, BuildHasherDefault<AddrHasher>>;

/// Page size in bytes (4 KB, "on the small end for real systems" per the
/// paper's virtual-memory discussion).
pub const PAGE_SIZE: u64 = 4096;

/// A write hit a write-protected page.
///
/// Carries the faulting address so the debugger can decide whether the
/// store touched watched data or merely shares the page with it (a
/// *spurious address transition*).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProtFault {
    /// The faulting byte address.
    pub addr: u64,
}

impl std::fmt::Display for ProtFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "write to protected page at {:#x}", self.addr)
    }
}

impl std::error::Error for ProtFault {}

/// Copy-on-write bookkeeping for one [`Memory`].
///
/// `pages_shared` is the number of resident pages at the most recent
/// fork; `pages_copied` counts every page this memory had to unshare
/// before writing, over its whole lifetime; `forks` counts how many
/// children were forked *from* this memory. For a fresh fork child
/// whose parent has not been written since the fork, `pages_copied +
/// shared_pages() == pages_shared` holds at every point of the child's
/// run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CowStats {
    /// Resident pages at the most recent fork (all shared then).
    pub pages_shared: u64,
    /// Lifetime count of pages unshared (physically copied) by writes.
    pub pages_copied: u64,
    /// Number of children forked from this memory.
    pub forks: u64,
}

/// Sparse 64-bit byte-addressable memory.
///
/// Pages are allocated on first touch and zero-filled. Reads never fault;
/// checked writes ([`Memory::write_checked`]) fault on write-protected
/// pages while plain writes ([`Memory::write_u`]) bypass protection (the
/// debugger's own accesses use the latter).
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: PageMap,
    write_protected: PageSet,
    cow: CowStats,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    #[inline]
    fn page_of(addr: u64) -> u64 {
        addr / PAGE_SIZE
    }

    /// The page-aligned base address containing `addr`.
    #[inline]
    pub fn page_base(addr: u64) -> u64 {
        addr & !(PAGE_SIZE - 1)
    }

    /// Read one byte (zero if the page was never written).
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&Self::page_of(addr)) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Resolve page number `pn` for writing: allocate a zero page on
    /// first touch, unshare (physically copy) a page still shared with
    /// a fork or checkpoint.
    #[inline]
    fn page_mut(&mut self, pn: u64) -> &mut Page {
        let page = self.pages.entry(pn).or_insert_with(|| Arc::new([0; PAGE_SIZE as usize]));
        if Arc::strong_count(page) > 1 {
            self.cow.pages_copied += 1;
        }
        Arc::make_mut(page)
    }

    /// Write one byte, ignoring protection.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let page = self.page_mut(Self::page_of(addr));
        page[(addr % PAGE_SIZE) as usize] = val;
    }

    /// Read `width` bytes (1, 2, 4 or 8) little-endian, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn read_u(&self, addr: u64, width: u64) -> u64 {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        let off = (addr % PAGE_SIZE) as usize;
        // Fast path: the access lies within one page, resolved once.
        if off + width as usize <= PAGE_SIZE as usize {
            return match self.pages.get(&Self::page_of(addr)) {
                Some(p) => {
                    let mut v = 0u64;
                    for i in 0..width as usize {
                        v |= (p[off + i] as u64) << (8 * i);
                    }
                    v
                }
                None => 0,
            };
        }
        let mut v = 0u64;
        for i in 0..width {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Write the low `width` bytes of `val` little-endian, ignoring
    /// protection.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn write_u(&mut self, addr: u64, width: u64, val: u64) {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        let off = (addr % PAGE_SIZE) as usize;
        // Fast path: the access lies within one page, resolved once.
        if off + width as usize <= PAGE_SIZE as usize {
            let page = self.page_mut(Self::page_of(addr));
            for i in 0..width as usize {
                page[off + i] = (val >> (8 * i)) as u8;
            }
            return;
        }
        for i in 0..width {
            self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }

    /// Write with protection checking, as the application's stores do.
    ///
    /// # Errors
    ///
    /// Returns [`ProtFault`] — without performing any part of the write —
    /// if any byte of the access lies on a write-protected page.
    pub fn write_checked(&mut self, addr: u64, width: u64, val: u64) -> Result<(), ProtFault> {
        // Protection is per-page and accesses are ≤ 8 bytes, so at most
        // two pages need probing; the common no-protection case pays
        // only the emptiness check.
        if !self.write_protected.is_empty() {
            if self.write_protected.contains(&Self::page_of(addr)) {
                return Err(ProtFault { addr });
            }
            let last = addr.wrapping_add(width - 1);
            if Self::page_of(last) != Self::page_of(addr)
                && self.write_protected.contains(&Self::page_of(last))
            {
                return Err(ProtFault { addr: Self::page_base(last) });
            }
        }
        self.write_u(addr, width, val);
        Ok(())
    }

    /// True if a `width`-byte write at `addr` would fault.
    pub fn write_would_fault(&self, addr: u64, width: u64) -> bool {
        !self.write_protected.is_empty()
            && (0..width)
                .any(|i| self.write_protected.contains(&Self::page_of(addr.wrapping_add(i))))
    }

    /// Set or clear write protection on the page containing `addr`
    /// (the debugger's `mprotect`).
    pub fn protect_page(&mut self, addr: u64, protected: bool) {
        if protected {
            self.write_protected.insert(Self::page_of(addr));
        } else {
            self.write_protected.remove(&Self::page_of(addr));
        }
    }

    /// True if the page containing `addr` is write-protected.
    pub fn page_is_protected(&self, addr: u64) -> bool {
        self.write_protected.contains(&Self::page_of(addr))
    }

    /// Remove all page protections.
    pub fn clear_protections(&mut self) {
        self.write_protected.clear();
    }

    /// Copy a byte slice into memory, ignoring protection (loader use).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        // Per-page chunks: one lookup (and at most one unshare) per
        // page instead of one per byte.
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr + done as u64;
            let off = (a % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min(bytes.len() - done);
            let page = self.page_mut(Self::page_of(a));
            page[off..off + take].copy_from_slice(&bytes[done..done + take]);
            done += take;
        }
    }

    /// Read `len` bytes into a fresh vector.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        let end = addr + len as u64;
        // Per-page chunks: one lookup per page instead of one per byte.
        while a < end {
            let off = (a % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize - off) as u64).min(end - a) as usize;
            match self.pages.get(&Self::page_of(a)) {
                Some(p) => out.extend_from_slice(&p[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
            a += take as u64;
        }
        out
    }

    /// Number of distinct pages that have been touched by writes.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Pages currently shared with at least one fork or clone.
    ///
    /// O(page-table); intended for tests, not hot paths.
    pub fn shared_pages(&self) -> usize {
        self.pages.values().filter(|p| Arc::strong_count(p) > 1).count()
    }

    /// Copy-on-write counters for this memory (see [`CowStats`]).
    pub fn cow_stats(&self) -> CowStats {
        self.cow
    }

    /// Fork a copy-on-write child in O(page-table) time.
    ///
    /// The child shares every resident page with `self`; either side
    /// copies a page only when it first writes it. The protection set
    /// is deep-copied: protections the child adds or removes after the
    /// fork never affect the parent (and vice versa). The child starts
    /// with fresh [`CowStats`] (`pages_shared` = resident pages now);
    /// the parent's `forks` counter is bumped and its `pages_shared`
    /// re-anchored to the same value.
    pub fn fork(&mut self) -> Memory {
        let n = self.pages.len() as u64;
        self.cow.forks += 1;
        self.cow.pages_shared = n;
        Memory {
            pages: self.pages.clone(),
            write_protected: self.write_protected.clone(),
            cow: CowStats { pages_shared: n, pages_copied: 0, forks: 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_on_first_read() {
        let m = Memory::new();
        assert_eq!(m.read_u(0x4000, 8), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
    }

    #[test]
    fn widths_round_trip() {
        let mut m = Memory::new();
        for (w, v) in [(1u64, 0xab), (2, 0xabcd), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)] {
            m.write_u(0x100, w, v);
            assert_eq!(m.read_u(0x100, w), v);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u(0x10, 4, 0x0403_0201);
        assert_eq!(m.read_u8(0x10), 1);
        assert_eq!(m.read_u8(0x13), 4);
        assert_eq!(m.read_u(0x10, 2), 0x0201);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 4;
        m.write_u(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn protection_faults_checked_writes_only() {
        let mut m = Memory::new();
        m.write_u(0x2000, 8, 7);
        m.protect_page(0x2000, true);
        assert!(m.page_is_protected(0x2fff));
        assert!(!m.page_is_protected(0x3000));

        let err = m.write_checked(0x2008, 8, 9).unwrap_err();
        assert_eq!(err.addr, 0x2008);
        assert_eq!(m.read_u(0x2008, 8), 0, "faulting write must not land");

        // Unchecked writes (debugger) bypass protection.
        m.write_u(0x2008, 8, 9);
        assert_eq!(m.read_u(0x2008, 8), 9);

        m.protect_page(0x2000, false);
        m.write_checked(0x2010, 8, 11).unwrap();
        assert_eq!(m.read_u(0x2010, 8), 11);
    }

    #[test]
    fn protection_catches_partial_overlap_from_prior_page() {
        let mut m = Memory::new();
        m.protect_page(PAGE_SIZE, true);
        // A quad starting 4 bytes before the protected page spills into it.
        let err = m.write_checked(PAGE_SIZE - 4, 8, 1).unwrap_err();
        assert_eq!(err.addr, PAGE_SIZE);
        assert!(m.write_would_fault(PAGE_SIZE - 1, 2));
        assert!(!m.write_would_fault(PAGE_SIZE - 2, 2));
    }

    #[test]
    fn bytes_helpers() {
        let mut m = Memory::new();
        m.write_bytes(0x500, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(0x500, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.read_bytes(0x4fe, 3), vec![0, 0, 1]);
    }

    #[test]
    fn fork_shares_pages_and_unshares_on_write() {
        let mut parent = Memory::new();
        parent.write_u(0x1000, 8, 0x1111);
        parent.write_u(0x5000, 8, 0x5555);
        let mut child = parent.fork();

        assert_eq!(parent.cow_stats().forks, 1);
        assert_eq!(child.cow_stats(), CowStats { pages_shared: 2, pages_copied: 0, forks: 0 });
        assert_eq!(child.shared_pages(), 2);
        assert_eq!(child.resident_pages(), 2);

        // Child write unshares exactly one page; the parent's copy is
        // untouched.
        child.write_u(0x1000, 8, 0x2222);
        assert_eq!(child.cow_stats().pages_copied, 1);
        assert_eq!(child.shared_pages(), 1);
        assert_eq!(parent.read_u(0x1000, 8), 0x1111);
        assert_eq!(child.read_u(0x1000, 8), 0x2222);

        // Coherence across the fork's lifetime (parent unwritten):
        // copied + still-shared == shared-at-fork.
        let cs = child.cow_stats();
        assert_eq!(cs.pages_copied + child.shared_pages() as u64, cs.pages_shared);

        // A second write to the now-private page copies nothing more;
        // a write to a fresh page allocates without copying.
        child.write_u(0x1008, 8, 7);
        child.write_u(0x9000, 8, 9);
        assert_eq!(child.cow_stats().pages_copied, 1);
        assert_eq!(parent.read_u(0x9000, 8), 0);
    }

    #[test]
    fn parent_writes_do_not_leak_into_child() {
        let mut parent = Memory::new();
        parent.write_u(0x2000, 8, 1);
        let child = parent.fork();
        parent.write_u(0x2000, 8, 2);
        assert_eq!(parent.cow_stats().pages_copied, 1);
        assert_eq!(child.read_u(0x2000, 8), 1);
    }

    #[test]
    fn fork_protection_sets_are_independent() {
        let mut parent = Memory::new();
        parent.write_u(0x3000, 8, 3);
        parent.protect_page(0x3000, true);
        let mut child = parent.fork();

        // Child inherits the protections that existed at the fork...
        assert!(child.page_is_protected(0x3000));
        // ...but later changes are fully isolated, both directions.
        child.protect_page(0x7000, true);
        assert!(!parent.page_is_protected(0x7000));
        child.protect_page(0x3000, false);
        assert!(parent.page_is_protected(0x3000));
        parent.protect_page(0x8000, true);
        assert!(!child.page_is_protected(0x8000));

        // And protection stays per-memory even for still-shared pages.
        child.write_checked(0x3000, 8, 4).unwrap();
        assert!(parent.write_checked(0x3000, 8, 5).is_err());
        // A faulted write never unshares: the check runs before the
        // copy-on-write path touches the page.
        assert_eq!(parent.cow_stats().pages_copied, 0);
    }

    #[test]
    fn clear_protections() {
        let mut m = Memory::new();
        m.protect_page(0x1000, true);
        m.protect_page(0x9000, true);
        m.clear_protections();
        assert!(!m.page_is_protected(0x1000));
        assert!(!m.page_is_protected(0x9000));
    }
}
