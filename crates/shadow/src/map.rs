//! Direct-mapped shadow memory.
//!
//! For every aligned 8-byte granule of application memory, the shadow
//! holds `slots` 64-bit cells ("shadow states" in Archer's terminology —
//! Archer keeps four per granule; ARBALEST reserves bits inside them,
//! §V-B). Cells are `AtomicU64`, updated with compare-and-swap, so the
//! analysis is fully concurrent and lock-free on the hot path, as the
//! paper requires (§IV-C).
//!
//! # Page table
//!
//! Shadow pages (one per 4 KiB of application memory) hang off a fixed
//! three-level table of `AtomicPtr`s — root, mid and leaf levels indexed
//! by address bits 36–43, 24–35 and 12–23 — in the manner of the LLVM
//! sanitizer direct maps. It covers the low 2^44 bytes of the logical
//! address space: the host window and the first fourteen device windows.
//! Every level and every page is materialised on first touch and
//! installed once by CAS; a thread that loses the race frees its
//! candidate and adopts the winner, so a lookup is three dependent
//! atomic loads with no lock and no reference count. Addresses above
//! the direct range (high device windows) fall back to a locked side
//! map, a slow path no detector workload takes.
//!
//! Installed pages stay put until the shadow is evicted or restored.
//! Both operations take `&mut self`: freeing a page while another thread
//! may still hold a reference to it is impossible by construction, and
//! callers that share a shadow must provide that exclusivity (the server
//! runs each session on one shard thread). Resident shadow bytes — pages
//! only, not the table levels — are tracked for the Fig. 9 space
//! measurement.

use arbalest_sync::RwLock;
use std::collections::HashMap;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Log2 of the application bytes covered by one shadow page: page index
/// `i` of [`ShadowMemory::snapshot_pages`] starts at address
/// `i << APP_PAGE_SHIFT`.
pub const APP_PAGE_SHIFT: u32 = 12;
/// Application bytes covered per shadow page.
const APP_PAGE_BYTES: u64 = 1 << APP_PAGE_SHIFT;
/// Granules per shadow page.
const GRANULES_PER_PAGE: usize = (APP_PAGE_BYTES / 8) as usize;

/// Address bits resolved by each table level, leaf first.
const LEAF_BITS: u32 = 12;
const MID_BITS: u32 = 12;
const ROOT_BITS: u32 = 8;
const LEAF_LEN: usize = 1 << LEAF_BITS;
const MID_LEN: usize = 1 << MID_BITS;
const ROOT_LEN: usize = 1 << ROOT_BITS;
/// Addresses below `1 << DIRECT_SHIFT` resolve through the table.
const DIRECT_SHIFT: u32 = APP_PAGE_SHIFT + LEAF_BITS + MID_BITS + ROOT_BITS;

/// Leaf level: one pointer to the first cell of each page.
type Leaf = [AtomicPtr<AtomicU64>; LEAF_LEN];
/// Mid level: one pointer per leaf.
type Mid = [AtomicPtr<Leaf>; MID_LEN];

#[inline]
fn leaf_index(addr: u64) -> usize {
    ((addr >> APP_PAGE_SHIFT) as usize) & (LEAF_LEN - 1)
}

#[inline]
fn mid_index(addr: u64) -> usize {
    ((addr >> (APP_PAGE_SHIFT + LEAF_BITS)) as usize) & (MID_LEN - 1)
}

#[inline]
fn root_index(addr: u64) -> usize {
    (addr >> (APP_PAGE_SHIFT + LEAF_BITS + MID_BITS)) as usize
}

/// A heap-allocated all-null table level.
fn new_level<T, const N: usize>() -> Box<[AtomicPtr<T>; N]> {
    let entries: Box<[AtomicPtr<T>]> = (0..N).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
    match entries.try_into() {
        Ok(level) => level,
        Err(_) => unreachable!("level built with exactly N entries"),
    }
}

/// Return the pointer in `slot`, installing `make()` first if it is
/// null. The first CAS wins; a loser hands its candidate to `free` and
/// adopts the winner. The flag is true when this call installed. The
/// winning CAS releases the candidate's initialised contents to every
/// `Acquire` load that later finds it.
#[inline]
fn install<T>(
    slot: &AtomicPtr<T>,
    make: impl FnOnce() -> *mut T,
    free: impl FnOnce(*mut T),
) -> (*mut T, bool) {
    let cur = slot.load(Ordering::Acquire);
    if !cur.is_null() {
        return (cur, false);
    }
    let fresh = make();
    match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => (fresh, true),
        Err(winner) => {
            free(fresh);
            (winner, false)
        }
    }
}

/// CAS loop on one cell: `(old, new, failed attempts)` of the write that
/// committed.
#[inline]
fn cas(cell: &AtomicU64, mut f: impl FnMut(u64) -> u64) -> (u64, u64, u32) {
    let mut cur = cell.load(Ordering::Relaxed);
    let mut retries = 0u32;
    loop {
        let next = f(cur);
        match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return (cur, next, retries),
            Err(c) => {
                cur = c;
                retries = retries.saturating_add(1);
            }
        }
    }
}

/// Granules from `addr` (stepping by 8) that stay inside its page.
#[inline]
fn granules_left_in_page(addr: u64) -> u64 {
    (APP_PAGE_BYTES - (addr & (APP_PAGE_BYTES - 1))).div_ceil(8)
}

/// Sparse direct-mapped shadow over the logical address space.
pub struct ShadowMemory {
    slots: usize,
    root: Box<[AtomicPtr<Mid>; ROOT_LEN]>,
    /// Pages above the direct range, keyed by page index. Boxed so a
    /// page's address is stable while the map rehashes.
    side: RwLock<HashMap<u64, Box<[AtomicU64]>>>,
    page_count: AtomicUsize,
}

impl ShadowMemory {
    /// Create a shadow with `slots` 64-bit cells per 8-byte granule.
    pub fn new(slots: usize) -> ShadowMemory {
        assert!(slots >= 1);
        ShadowMemory {
            slots,
            root: new_level(),
            side: RwLock::new(HashMap::new()),
            page_count: AtomicUsize::new(0),
        }
    }

    /// Cells per granule.
    pub fn slots(&self) -> usize {
        self.slots
    }

    #[inline]
    fn page_cells(&self) -> usize {
        GRANULES_PER_PAGE * self.slots
    }

    /// Resident shadow bytes (Fig. 9 accounting).
    pub fn resident_bytes(&self) -> u64 {
        (self.page_count.load(Ordering::Relaxed) * self.page_cells() * 8) as u64
    }

    fn zero_page(&self) -> Box<[AtomicU64]> {
        (0..self.page_cells()).map(|_| AtomicU64::new(0)).collect()
    }

    /// Free a page installed from [`zero_page`](Self::zero_page).
    ///
    /// # Safety
    /// `cells` came from `Box::into_raw` of a page of this shadow and is
    /// referenced by no one else.
    unsafe fn free_page(&self, cells: *mut AtomicU64) {
        drop(Box::from_raw(ptr::slice_from_raw_parts_mut(cells, self.page_cells())));
    }

    /// The page holding `addr`, materialised on first touch.
    #[inline]
    fn page(&self, addr: u64) -> &[AtomicU64] {
        if addr >> DIRECT_SHIFT != 0 {
            return self.side_page(addr);
        }
        // SAFETY: every installed pointer came from `Box::into_raw` and is
        // freed only through `&mut self` (`clear`), so it outlives `&self`.
        // A candidate that lost its CAS was never published, so the `free`
        // closures drop memory no one else can reach.
        unsafe {
            let (mid, _) = install(
                &self.root[root_index(addr)],
                || Box::into_raw(new_level::<Leaf, MID_LEN>()),
                |p| drop(Box::from_raw(p)),
            );
            let (leaf, _) = install(
                &(*mid)[mid_index(addr)],
                || Box::into_raw(new_level::<AtomicU64, LEAF_LEN>()),
                |p| drop(Box::from_raw(p)),
            );
            let (cells, fresh) = install(
                &(*leaf)[leaf_index(addr)],
                || Box::into_raw(self.zero_page()).cast::<AtomicU64>(),
                |p| self.free_page(p),
            );
            if fresh {
                self.page_count.fetch_add(1, Ordering::Relaxed);
            }
            std::slice::from_raw_parts(cells, self.page_cells())
        }
    }

    /// The page holding `addr` if it is resident; never materialises.
    #[inline]
    fn resident(&self, addr: u64) -> Option<&[AtomicU64]> {
        if addr >> DIRECT_SHIFT != 0 {
            let p = self.side.read().get(&(addr >> APP_PAGE_SHIFT)).map(|c| c.as_ptr())?;
            // SAFETY: side pages are boxed (stable addresses) and only
            // dropped through `&mut self`, so they outlive `&self`.
            return Some(unsafe { std::slice::from_raw_parts(p, self.page_cells()) });
        }
        // SAFETY: installed levels and pages are freed only through
        // `&mut self`, so they outlive this `&self` borrow.
        unsafe {
            let mid = self.root[root_index(addr)].load(Ordering::Acquire);
            if mid.is_null() {
                return None;
            }
            let leaf = (*mid)[mid_index(addr)].load(Ordering::Acquire);
            if leaf.is_null() {
                return None;
            }
            let cells = (*leaf)[leaf_index(addr)].load(Ordering::Acquire);
            if cells.is_null() {
                return None;
            }
            Some(std::slice::from_raw_parts(cells, self.page_cells()))
        }
    }

    /// Slow path for addresses above the direct range.
    #[cold]
    fn side_page(&self, addr: u64) -> &[AtomicU64] {
        let idx = addr >> APP_PAGE_SHIFT;
        let found = self.side.read().get(&idx).map(|c| c.as_ptr());
        let p = match found {
            Some(p) => p,
            None => self
                .side
                .write()
                .entry(idx)
                .or_insert_with(|| {
                    self.page_count.fetch_add(1, Ordering::Relaxed);
                    self.zero_page()
                })
                .as_ptr(),
        };
        // SAFETY: boxed side pages have stable addresses and are only
        // dropped through `&mut self`.
        unsafe { std::slice::from_raw_parts(p, self.page_cells()) }
    }

    /// Free every page and table level, leaving the all-zero shadow.
    fn clear(&mut self) {
        let page_cells = self.page_cells();
        for mid in self.root.iter_mut() {
            let mid = std::mem::replace(mid.get_mut(), ptr::null_mut());
            if mid.is_null() {
                continue;
            }
            // SAFETY: every non-null pointer in the table came from
            // `Box::into_raw` in `page` with the layout it is rebuilt with
            // here, and `&mut self` means no reference into the table is
            // live, so each is freed exactly once.
            let mut mid = unsafe { Box::from_raw(mid) };
            for leaf in mid.iter_mut().map(AtomicPtr::get_mut).filter(|p| !p.is_null()) {
                // SAFETY: as for `mid`.
                let mut leaf = unsafe { Box::from_raw(*leaf) };
                for cells in leaf.iter_mut().map(AtomicPtr::get_mut).filter(|p| !p.is_null()) {
                    // SAFETY: as for `mid`; a page holds `page_cells` cells.
                    drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(*cells, page_cells)) });
                }
            }
        }
        self.side.get_mut().clear();
        *self.page_count.get_mut() = 0;
    }

    /// Drop every resident shadow page, returning the bytes freed.
    ///
    /// Evicted granules read back as the all-zero word, so callers that
    /// interpret shadow state must switch to a conservative ("May") mode
    /// after eviction rather than trusting the reset state. This is the
    /// memory-pressure escape hatch for long-lived analysis sessions. It
    /// takes `&mut self` because it frees pages other threads could
    /// otherwise still be reading.
    pub fn evict_all(&mut self) -> u64 {
        let freed = self.resident_bytes();
        self.clear();
        freed
    }

    #[inline]
    fn cell_index(&self, addr: u64, slot: usize) -> usize {
        debug_assert!(slot < self.slots);
        let granule = ((addr & (APP_PAGE_BYTES - 1)) >> 3) as usize;
        granule * self.slots + slot
    }

    /// Relaxed load of a shadow cell. Untouched shadow reads as zero.
    #[inline]
    pub fn load(&self, addr: u64, slot: usize) -> u64 {
        match self.resident(addr) {
            Some(cells) => cells[self.cell_index(addr, slot)].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Unconditional store to a shadow cell.
    #[inline]
    pub fn store(&self, addr: u64, slot: usize, value: u64) {
        self.page(addr)[self.cell_index(addr, slot)].store(value, Ordering::Relaxed);
    }

    /// Lock-free read-modify-write of a shadow cell via CAS, the paper's
    /// update discipline. `f` maps the current value to the desired value;
    /// returns the (old, new) pair that finally committed.
    #[inline]
    pub fn update(&self, addr: u64, slot: usize, f: impl FnMut(u64) -> u64) -> (u64, u64) {
        let (old, new, _) = self.update_counted(addr, slot, f);
        (old, new)
    }

    /// [`update`](Self::update) that also reports how many CAS attempts
    /// failed before the write committed (0 on the uncontended fast
    /// path). The detector's observability layer counts these retries.
    #[inline]
    pub fn update_counted(
        &self,
        addr: u64,
        slot: usize,
        f: impl FnMut(u64) -> u64,
    ) -> (u64, u64, u32) {
        cas(&self.page(addr)[self.cell_index(addr, slot)], f)
    }

    /// The `slots` cells of the granule holding `addr`, materialising its
    /// page: three dependent atomic loads once the page is resident.
    #[inline]
    pub fn granule(&self, addr: u64) -> &[AtomicU64] {
        let first = self.cell_index(addr, 0);
        &self.page(addr)[first..first + self.slots]
    }

    /// Call `run(first, cells)` once per page that the granules of
    /// `[addr, addr + len)` touch, in address order, materialising each
    /// page. `first` is the address of the run's first granule and
    /// `cells` holds the run's granules back to back, `slots` cells each,
    /// so a ranged operation resolves each page once, not once per
    /// granule.
    pub fn for_each_run(&self, addr: u64, len: u64, mut run: impl FnMut(u64, &[AtomicU64])) {
        let mut a = addr & !7;
        let end = addr.saturating_add(len);
        while a < end {
            let granules = (end - a).div_ceil(8).min(granules_left_in_page(a));
            let first = self.cell_index(a, 0);
            run(a, &self.page(a)[first..first + granules as usize * self.slots]);
            a = a.saturating_add(granules * 8);
        }
    }

    /// Apply `f` to every granule cell in `[addr, addr + len)` (8-byte
    /// aligned range), slot fixed.
    pub fn update_range(&self, addr: u64, len: u64, slot: usize, f: impl FnMut(u64) -> u64) {
        self.update_range_counted(addr, len, slot, f, |_, _, _| {});
    }

    /// [`update_range`](Self::update_range) reporting every committed
    /// `(old, new, failed attempts)` to `committed`, in address order.
    pub fn update_range_counted(
        &self,
        addr: u64,
        len: u64,
        slot: usize,
        mut f: impl FnMut(u64) -> u64,
        mut committed: impl FnMut(u64, u64, u32),
    ) {
        self.for_each_run(addr, len, |_, cells| {
            for granule in cells.chunks_exact(self.slots) {
                let (old, new, retries) = cas(&granule[slot], &mut f);
                committed(old, new, retries);
            }
        });
    }

    /// Copy slot contents for a range from another shadow (used for
    /// definedness propagation across memcpy-style transfers). Every
    /// destination page is materialised, as a store would; an absent
    /// source page copies as zeros.
    pub fn copy_range_from(&self, src: &ShadowMemory, src_addr: u64, dst_addr: u64, len: u64, slot: usize) {
        let granules = len.div_ceil(8);
        let mut g = 0;
        while g < granules {
            let (s, d) = (src_addr + g * 8, dst_addr + g * 8);
            let n = (granules - g).min(granules_left_in_page(s)).min(granules_left_in_page(d));
            let from = src.resident(s);
            let to = self.page(d);
            for k in 0..n {
                let v = from.map_or(0, |c| c[src.cell_index(s + k * 8, slot)].load(Ordering::Relaxed));
                to[self.cell_index(d + k * 8, slot)].store(v, Ordering::Relaxed);
            }
            g += n;
        }
    }

    /// Dump every resident page as a `(page_index, cells)` pair, sorted by
    /// page index so two dumps of identical shadow state are identical
    /// byte-for-byte. Cell layout inside a page is `granule * slots +
    /// slot`, the same order [`restore_pages`](Self::restore_pages)
    /// expects back.
    pub fn snapshot_pages(&self) -> Vec<(u64, Vec<u64>)> {
        let dump = |cells: &[AtomicU64]| -> Vec<u64> {
            cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        let mut out = Vec::new();
        // Table order is address order; side pages all lie above it.
        for (r, mid) in self.root.iter().enumerate() {
            let mid = mid.load(Ordering::Acquire);
            if mid.is_null() {
                continue;
            }
            // SAFETY: installed levels and pages are freed only through
            // `&mut self`, so they outlive this `&self` borrow.
            for (m, leaf) in unsafe { &*mid }.iter().enumerate() {
                let leaf = leaf.load(Ordering::Acquire);
                if leaf.is_null() {
                    continue;
                }
                // SAFETY: as for `mid`.
                for (l, cells) in unsafe { &*leaf }.iter().enumerate() {
                    let cells = cells.load(Ordering::Acquire);
                    if cells.is_null() {
                        continue;
                    }
                    let idx = (((r << MID_BITS) | m) << LEAF_BITS | l) as u64;
                    // SAFETY: as for `mid`; a page holds `page_cells` cells.
                    let page = unsafe { std::slice::from_raw_parts(cells, self.page_cells()) };
                    out.push((idx, dump(page)));
                }
            }
        }
        let mut side: Vec<(u64, Vec<u64>)> =
            self.side.read().iter().map(|(&idx, cells)| (idx, dump(cells))).collect();
        side.sort_unstable_by_key(|&(idx, _)| idx);
        out.extend(side);
        out
    }

    /// Replace all resident state with pages dumped by
    /// [`snapshot_pages`](Self::snapshot_pages). Returns `false` (leaving
    /// the shadow evicted-to-zero) if any page's cell count does not match
    /// this shadow's `slots` layout — a snapshot from a different
    /// configuration must never be installed as wrong state. Exclusive,
    /// like [`evict_all`](Self::evict_all).
    pub fn restore_pages(&mut self, dump: &[(u64, Vec<u64>)]) -> bool {
        self.clear();
        if dump.iter().any(|(_, cells)| cells.len() != self.page_cells()) {
            return false;
        }
        for (idx, cells) in dump {
            let page = self.page(idx << APP_PAGE_SHIFT);
            for (cell, &v) in page.iter().zip(cells) {
                cell.store(v, Ordering::Relaxed);
            }
        }
        true
    }
}

impl Drop for ShadowMemory {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_zero_and_store_load() {
        let s = ShadowMemory::new(1);
        assert_eq!(s.load(0x1000, 0), 0);
        assert_eq!(s.resident_bytes(), 0);
        s.store(0x1000, 0, 77);
        assert_eq!(s.load(0x1000, 0), 77);
        assert!(s.resident_bytes() > 0);
    }

    #[test]
    fn slots_are_independent() {
        let s = ShadowMemory::new(3);
        s.store(0x2000, 0, 1);
        s.store(0x2000, 1, 2);
        s.store(0x2000, 2, 3);
        assert_eq!(s.load(0x2000, 0), 1);
        assert_eq!(s.load(0x2000, 1), 2);
        assert_eq!(s.load(0x2000, 2), 3);
    }

    #[test]
    fn granules_are_independent_within_a_page() {
        let s = ShadowMemory::new(2);
        s.store(0x3000, 0, 10);
        s.store(0x3008, 0, 20);
        s.store(0x3000, 1, 11);
        assert_eq!(s.load(0x3000, 0), 10);
        assert_eq!(s.load(0x3008, 0), 20);
        assert_eq!(s.load(0x3008, 1), 0);
    }

    #[test]
    fn sub_granule_addresses_share_a_cell() {
        let s = ShadowMemory::new(1);
        s.store(0x4003, 0, 5);
        assert_eq!(s.load(0x4000, 0), 5);
        assert_eq!(s.load(0x4007, 0), 5);
        assert_eq!(s.load(0x4008, 0), 0);
    }

    #[test]
    fn update_is_atomic_under_contention() {
        let s = std::sync::Arc::new(ShadowMemory::new(1));
        let mut handles = vec![];
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.update(0x5000, 0, |v| v + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.load(0x5000, 0), 80_000);
    }

    #[test]
    fn update_range_touches_every_granule() {
        let s = ShadowMemory::new(1);
        s.update_range(0x6000, 64, 0, |v| v + 1);
        for g in 0..8 {
            assert_eq!(s.load(0x6000 + g * 8, 0), 1);
        }
        assert_eq!(s.load(0x6040, 0), 0);
    }

    #[test]
    fn update_range_partial_tail_rounds_to_granule() {
        let s = ShadowMemory::new(1);
        s.update_range(0x7000, 12, 0, |_| 9);
        assert_eq!(s.load(0x7000, 0), 9);
        assert_eq!(s.load(0x7008, 0), 9);
        assert_eq!(s.load(0x7010, 0), 0);
    }

    #[test]
    fn copy_range_from_propagates() {
        let a = ShadowMemory::new(1);
        let b = ShadowMemory::new(1);
        a.store(0x100, 0, 42);
        a.store(0x108, 0, 43);
        b.copy_range_from(&a, 0x100, 0x900, 16, 0);
        assert_eq!(b.load(0x900, 0), 42);
        assert_eq!(b.load(0x908, 0), 43);
    }

    #[test]
    fn snapshot_restore_round_trips_and_is_sorted() {
        let s = ShadowMemory::new(2);
        s.store(0x9000, 0, 7);
        s.store(0x9000, 1, 8);
        s.store(0x1000, 0, 9);
        let dump = s.snapshot_pages();
        assert_eq!(dump.len(), 2);
        assert!(dump[0].0 < dump[1].0, "pages must be sorted by index");
        let mut t = ShadowMemory::new(2);
        assert!(t.restore_pages(&dump));
        assert_eq!(t.load(0x9000, 0), 7);
        assert_eq!(t.load(0x9000, 1), 8);
        assert_eq!(t.load(0x1000, 0), 9);
        assert_eq!(t.resident_bytes(), s.resident_bytes());
        assert_eq!(t.snapshot_pages(), dump);
    }

    #[test]
    fn restore_rejects_mismatched_layout() {
        let s = ShadowMemory::new(1);
        s.store(0x1000, 0, 1);
        let dump = s.snapshot_pages();
        let mut t = ShadowMemory::new(2);
        assert!(!t.restore_pages(&dump));
        assert_eq!(t.resident_bytes(), 0, "failed restore must leave zero state");
    }

    #[test]
    fn resident_accounting_scales_with_slots() {
        let s1 = ShadowMemory::new(1);
        let s4 = ShadowMemory::new(4);
        s1.store(0x1000, 0, 1);
        s4.store(0x1000, 0, 1);
        assert_eq!(s4.resident_bytes(), 4 * s1.resident_bytes());
    }

    #[test]
    fn concurrent_first_touch_installs_exactly_one_page() {
        // Eight threads race to materialise the same fresh page (and its
        // table levels): exactly one install may win, and no CAS update
        // may land on a losing candidate.
        for round in 0..16u64 {
            let s = ShadowMemory::new(1);
            let base = 0x10_0000 + round * APP_PAGE_BYTES;
            let go = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let (s, go) = (&s, &go);
                    scope.spawn(move || {
                        go.wait();
                        for i in 0..1_000u64 {
                            s.update(base + ((t + i) % 16) * 8, 0, |v| v + 1);
                        }
                    });
                }
            });
            let total: u64 = (0..16).map(|g| s.load(base + g * 8, 0)).sum();
            assert_eq!(total, 8_000, "lost CAS updates");
            assert_eq!(s.resident_bytes(), APP_PAGE_BYTES, "exactly one page resident");
            assert_eq!(s.snapshot_pages().len(), 1);
        }
    }

    #[test]
    fn addresses_above_the_direct_range_round_trip() {
        // A high device window (DeviceId 100 under the 1 TiB-per-device
        // logical layout) lies beyond the table and uses the side map.
        let high = 101u64 << 40;
        assert!(high >> DIRECT_SHIFT != 0);
        let s = ShadowMemory::new(2);
        assert_eq!(s.load(high, 1), 0);
        assert_eq!(s.resident_bytes(), 0, "a load never materialises");
        s.store(high + 8, 1, 0xABCD);
        s.update(high + 8, 0, |v| v + 5);
        assert_eq!(s.load(high + 8, 1), 0xABCD);
        assert_eq!(s.load(high + 8, 0), 5);
        assert_eq!(s.load(high, 1), 0);
        s.store(0x2000, 0, 1);
        assert_eq!(s.resident_bytes(), 2 * 2 * APP_PAGE_BYTES);
        // Snapshots stay sorted with side pages after the direct ones.
        let dump = s.snapshot_pages();
        assert_eq!(dump.iter().map(|p| p.0).collect::<Vec<_>>(), vec![2, high >> APP_PAGE_SHIFT]);
        let mut t = ShadowMemory::new(2);
        assert!(t.restore_pages(&dump));
        assert_eq!(t.load(high + 8, 1), 0xABCD);
        assert_eq!(t.snapshot_pages(), dump);
    }

    #[test]
    fn evict_then_restore_round_trips() {
        let mut s = ShadowMemory::new(1);
        s.update_range(0x5000, 3 * APP_PAGE_BYTES, 0, |v| v + 3);
        s.store(0x40_0000_0000, 0, 9);
        let dump = s.snapshot_pages();
        let resident = s.resident_bytes();
        assert_eq!(s.evict_all(), resident);
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.load(0x5000, 0), 0, "evicted granules read as zero");
        assert!(s.snapshot_pages().is_empty());
        assert!(s.restore_pages(&dump));
        assert_eq!(s.resident_bytes(), resident);
        assert_eq!(s.load(0x5000 + 2 * APP_PAGE_BYTES, 0), 3);
        assert_eq!(s.load(0x40_0000_0000, 0), 9);
        assert_eq!(s.snapshot_pages(), dump);
        // Evicted shadow keeps working.
        assert_eq!(s.evict_all(), resident);
        s.store(0x5000, 0, 4);
        assert_eq!(s.load(0x5000, 0), 4);
    }

    #[test]
    fn page_runs_cover_each_granule_once() {
        let s = ShadowMemory::new(2);
        let (mut seen, mut runs) = (Vec::new(), 0);
        s.for_each_run(0x1ff3, 0x1010, |first, cells| {
            runs += 1;
            for (i, g) in cells.chunks_exact(2).enumerate() {
                seen.push(first + 8 * i as u64);
                g[1].fetch_add(1, Ordering::Relaxed);
            }
        });
        let want: Vec<u64> = (0x1ff0..0x1ff3 + 0x1010).step_by(8).collect();
        assert_eq!(seen, want);
        assert_eq!(runs, 3, "one run per page touched");
        for &g in &want {
            assert_eq!(s.granule(g + 5)[1].load(Ordering::Relaxed), 1);
            assert_eq!(s.load(g, 1), 1);
            assert_eq!(s.load(g, 0), 0);
        }
        // The top of the address space ends the walk instead of wrapping.
        let mut granules = 0;
        s.for_each_run(u64::MAX - 20, 40, |_, cells| granules += cells.len() / 2);
        assert_eq!(granules, 3);
    }

    #[test]
    fn ranged_ops_match_per_granule_ops_across_pages() {
        // Ranges straddling page boundaries, with source and destination
        // at different page offsets, against the granule-by-granule rule.
        let src = ShadowMemory::new(1);
        for g in 0..1200u64 {
            src.store(0x8000 + g * 8, 0, g + 1);
        }
        let ranged = ShadowMemory::new(1);
        ranged.copy_range_from(&src, 0x8ff4, 0x2_0010, 5000, 0);
        ranged.update_range(0x2_0ff9, 4100, 0, |v| v * 2);
        let naive = ShadowMemory::new(1);
        for g in 0..5000u64.div_ceil(8) {
            naive.store(0x2_0010 + g * 8, 0, src.load(0x8ff4 + g * 8, 0));
        }
        let mut a = 0x2_0ff9u64 & !7;
        while a < 0x2_0ff9 + 4100 {
            naive.update(a, 0, |v| v * 2);
            a += 8;
        }
        assert_eq!(ranged.snapshot_pages(), naive.snapshot_pages());
        // An absent source copies as zeros but still materialises the
        // destination, as a store would.
        let empty = ShadowMemory::new(1);
        let dst = ShadowMemory::new(1);
        dst.copy_range_from(&empty, 0x1000, 0x3000, 16, 0);
        assert_eq!(dst.resident_bytes(), APP_PAGE_BYTES);
        assert_eq!(dst.load(0x3000, 0), 0);
    }
}
