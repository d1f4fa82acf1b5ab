//! The FastTrack engine.
//!
//! Read/write checks follow Flanagan & Freund's FastTrack rules: each
//! location keeps the last-write epoch and either a last-read epoch or —
//! after concurrent reads — a read vector clock. Most checks and updates
//! are O(1) epoch comparisons; only concurrent-read promotion pays O(T).
//!
//! Tasks map to 12-bit thread slots (Table II's TID field). Slots are
//! assigned monotonically; if more than 4096 tasks ever exist, slots wrap
//! with a per-slot monotone clock floor — the same pragmatic compromise
//! production TSan makes, trading a bounded risk of false negatives in
//! extremely long runs for bounded shadow state.
//!
//! # Shadow cells
//!
//! Per-granule state sits in a direct-mapped [`ShadowMemory`] with two
//! 64-bit cells per 8-byte granule — the same page table the detector's
//! VSM shadow uses — so a point check resolves its granule with three
//! atomic loads and a range check resolves each 4 KiB page once:
//!
//! ```text
//!          63       62..51  50..43  42..0
//! write    lock     tid     bytes   clock
//! read     shared   tid     bytes   clock
//! ```
//!
//! `bytes` is the mask of the granule's bytes accessed at that epoch; an
//! access at the stored epoch ORs its bytes in, so two halves of a word
//! written in one epoch both stay recorded. Clocks above 2^43 − 1
//! saturate, which can only hide a race, never invent one. When
//! concurrent reads promote a granule, its read word keeps only the
//! shared flag and the union of the bytes read, and the read vector
//! clock moves to a small side map keyed by granule; the next write
//! drops it.
//!
//! Bit 63 of the write word is the granule's lock. A check takes it with
//! one CAS, reads and rewrites the read word (and the side map), and
//! releases it with the store that publishes the new write word, so the
//! checks on one granule are linearisable and checks on different
//! granules never contend. The holder runs no code that can panic; were
//! it to unwind anyway, its guard restores the word it locked. Pages are
//! freed only by [`RaceEngine::evict_history`], which takes `&mut self`.
//!
//! # Clock views
//!
//! A task's vector clock changes only at sync events (fork, join, lock
//! acquire and release), so each task holds an immutable
//! `Arc<VectorClock>` that those events replace. Accesses read it
//! through a thread-local view keyed by (engine id, task) and stamped
//! with the engine's generation counter, which every clock-changing sync
//! event bumps: while the generation is unchanged the view is current
//! and the access path takes neither the `tasks` mutex nor a heap clone
//! — FastTrack's epoch fast path. Any bump invalidates every view, which
//! costs one refresh per thread after each sync event.

use crate::clock::{Epoch, VectorClock, MAX_TIDS};
use arbalest_shadow::map::APP_PAGE_SHIFT;
use arbalest_shadow::ShadowMemory;
use arbalest_sync::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Clock bits of a cell word.
const CLOCK_BITS: u32 = 43;
const CLOCK_MAX: u64 = (1 << CLOCK_BITS) - 1;
const MASK_SHIFT: u32 = CLOCK_BITS;
const TID_SHIFT: u32 = CLOCK_BITS + 8;
const TID_MASK: u64 = MAX_TIDS as u64 - 1;
/// Bit 63: the granule lock in a write word, "shared" in a read word.
const FLAG: u64 = 1 << 63;

/// The bytes of its 8-byte granule that an access of `size` bytes at
/// `addr` touches, as a mask (bit i = byte i), clipped to the granule.
pub fn byte_mask(addr: u64, size: u8) -> u8 {
    let lo = (addr & 7) as u32;
    let hi = (lo + u32::from(size)).min(8);
    ((1u32 << hi) - (1u32 << lo)) as u8
}

/// Details of the prior access involved in a detected race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceInfo {
    /// Thread slot of the prior access.
    pub prev_tid: u16,
    /// Scalar clock of the prior access.
    pub prev_clock: u64,
    /// Whether the prior access was a write.
    pub prev_was_write: bool,
}

/// One recorded access: its epoch and the granule bytes it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Access {
    epoch: Epoch,
    mask: u8,
}

impl Access {
    #[inline]
    fn unpack(word: u64) -> Access {
        Access {
            epoch: Epoch { tid: ((word >> TID_SHIFT) & TID_MASK) as u16, clock: word & CLOCK_MAX },
            mask: (word >> MASK_SHIFT) as u8,
        }
    }

    #[inline]
    fn pack(self) -> u64 {
        (u64::from(self.epoch.tid) & TID_MASK) << TID_SHIFT
            | u64::from(self.mask) << MASK_SHIFT
            | self.epoch.clock.min(CLOCK_MAX)
    }

    /// Whether this prior access races with an access of `mask` by a task
    /// at `vc`: it was recorded, overlaps those bytes, and is not ordered
    /// before the task.
    #[inline]
    fn races(self, vc: &VectorClock, mask: u8) -> bool {
        !self.epoch.is_zero() && self.mask & mask != 0 && !self.epoch.leq(vc)
    }

    fn info(self, was_write: bool) -> RaceInfo {
        let Epoch { tid, clock } = self.epoch;
        RaceInfo { prev_tid: tid, prev_clock: clock, prev_was_write: was_write }
    }
}

/// The epoch a task at `vc` stamps on a cell, saturated as a cell stores it.
#[inline]
fn stamp(tid: u16, vc: &VectorClock) -> Epoch {
    Epoch { tid, clock: vc.get(tid).min(CLOCK_MAX) }
}

/// The first reader in a shared read clock not ordered before `vc`.
fn shared_race(rvc: &VectorClock, vc: &VectorClock) -> Option<RaceInfo> {
    rvc.slot_values().iter().zip(0u16..).find(|&(&c, t)| c > vc.get(t)).map(|(&c, t)| RaceInfo {
        prev_tid: t,
        prev_clock: c,
        prev_was_write: false,
    })
}

/// One granule's two cells.
#[derive(Clone, Copy)]
struct Granule<'a> {
    addr: u64,
    write: &'a AtomicU64,
    read: &'a AtomicU64,
}

impl<'a> Granule<'a> {
    #[inline]
    fn of(addr: u64, cells: &'a [AtomicU64]) -> Granule<'a> {
        Granule { addr, write: &cells[0], read: &cells[1] }
    }

    /// Take the granule lock: one CAS setting bit 63 of the write word.
    /// Its `Acquire` pairs with the `Release` store that unlocked the
    /// granule last, so the holder sees both words as that check left
    /// them.
    #[inline]
    fn lock(self) -> Locked<'a> {
        let mut spins = 0u32;
        let mut cur = self.write.load(Ordering::Relaxed);
        loop {
            if cur & FLAG == 0 {
                match self.write.compare_exchange_weak(
                    cur,
                    cur | FLAG,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Locked { granule: self, write: cur },
                    Err(now) => cur = now,
                }
                continue;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            cur = self.write.load(Ordering::Relaxed);
        }
    }
}

/// A held granule lock. [`publish`](Self::publish) releases it; dropping
/// it instead (only on unwind) restores the write word it locked.
struct Locked<'a> {
    granule: Granule<'a>,
    /// The write word as it was when locked.
    write: u64,
}

impl Locked<'_> {
    /// Store the read word, then unlock with the `Release` store of the
    /// write word, which publishes both to the next holder.
    #[inline]
    fn publish(self, write: u64, read: u64) {
        self.granule.read.store(read, Ordering::Relaxed);
        self.granule.write.store(write & !FLAG, Ordering::Release);
        std::mem::forget(self);
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        self.granule.write.store(self.write, Ordering::Release);
    }
}

struct TaskState {
    tid: u16,
    /// Replaced, never mutated while shared: views may hold the old one.
    vc: Arc<VectorClock>,
    ended: bool,
}

/// Apply `f` to a task clock. The clock is edited in place when no view
/// shares it, and otherwise copied at its full capacity first, so the
/// result — allocation included — is what an in-place edit would give.
fn edit_clock(vc: &mut Arc<VectorClock>, f: impl FnOnce(&mut VectorClock)) {
    match Arc::get_mut(vc) {
        Some(own) => f(own),
        None => {
            let mut copy = vc.clone_with_capacity();
            f(&mut copy);
            *vc = Arc::new(copy);
        }
    }
}

/// One thread's cached clock of one task of one engine.
struct ClockView {
    engine: u64,
    task: u32,
    generation: u64,
    tid: u16,
    vc: Arc<VectorClock>,
}

thread_local! {
    static VIEW: RefCell<Option<ClockView>> = const { RefCell::new(None) };
}

/// Source of [`RaceEngine`] ids, so two engines used from one thread
/// never share a view.
static NEXT_ENGINE: AtomicU64 = AtomicU64::new(0);

/// One task's clock state in a [`RaceSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSnapshot {
    /// Task id.
    pub task: u32,
    /// Assigned 12-bit thread slot.
    pub tid: u16,
    /// Raw vector-clock slots ([`VectorClock::slot_values`]).
    pub clock: Vec<u64>,
    /// Whether the task has ended.
    pub ended: bool,
}

/// Read side of one location in a [`RaceSnapshot`] (FastTrack's
/// epoch-or-shared-clock alternative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadSnapshot {
    /// Single last-read epoch with the bytes it read.
    Epoch {
        /// Reader's thread slot.
        tid: u16,
        /// Reader's scalar clock.
        clock: u64,
        /// Granule bytes read at this epoch ([`byte_mask`]).
        mask: u8,
    },
    /// Promoted concurrent-read vector clock.
    Shared {
        /// Raw clock slots ([`VectorClock::slot_values`]).
        clock: Vec<u64>,
        /// Union of the granule bytes read since promotion.
        mask: u8,
    },
}

/// One location's FastTrack state in a [`RaceSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocSnapshot {
    /// Last-write thread slot.
    pub write_tid: u16,
    /// Last-write scalar clock.
    pub write_clock: u64,
    /// Granule bytes written at that epoch ([`byte_mask`]).
    pub write_mask: u8,
    /// Read state.
    pub read: ReadSnapshot,
}

/// Complete serializable state of a [`RaceEngine`], produced by
/// [`RaceEngine::to_snapshot`] with every map sorted by key so equal
/// engine states yield equal (hence byte-identical, once encoded)
/// snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSnapshot {
    /// Task clocks, sorted by task id.
    pub tasks: Vec<TaskSnapshot>,
    /// Per-slot monotone clock floors (slot wrap-around support).
    pub slot_floor: Vec<u64>,
    /// Next raw slot number to allocate.
    pub next_slot: u64,
    /// Every granule with recorded state, sorted by granule address.
    pub locs: Vec<(u64, LocSnapshot)>,
    /// Lock release clocks, sorted by lock id.
    pub locks: Vec<(u64, Vec<u64>)>,
}

/// A happens-before race detection engine.
pub struct RaceEngine {
    /// Process-unique id keying thread-local clock views.
    id: u64,
    /// Bumped after every task-clock change; views of older generations
    /// are refreshed before use.
    generation: AtomicU64,
    tasks: Mutex<HashMap<u32, TaskState>>,
    /// Per-slot monotone clock floors for slot wrap-around.
    slot_floor: Mutex<Vec<u64>>,
    next_slot: AtomicU64,
    /// Two cells per granule: the write word and the read word.
    cells: ShadowMemory,
    /// Read vector clocks of granules whose read word is shared.
    shared_reads: Mutex<HashMap<u64, VectorClock>>,
    /// Release clocks of lock objects (`omp critical` support).
    locks: Mutex<HashMap<u64, VectorClock>>,
}

impl Default for RaceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RaceEngine {
    /// Create an engine with task 0 (the host) already registered.
    pub fn new() -> Self {
        let engine = RaceEngine::empty(vec![0; MAX_TIDS], 0);
        engine.register_root(0);
        engine
    }

    fn empty(slot_floor: Vec<u64>, next_slot: u64) -> RaceEngine {
        RaceEngine {
            id: NEXT_ENGINE.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            tasks: Mutex::new(HashMap::new()),
            slot_floor: Mutex::new(slot_floor),
            next_slot: AtomicU64::new(next_slot),
            cells: ShadowMemory::new(2),
            shared_reads: Mutex::new(HashMap::new()),
            locks: Mutex::new(HashMap::new()),
        }
    }
    fn register_root(&self, task: u32) {
        let tid = self.alloc_slot();
        let mut vc = VectorClock::new();
        vc.tick(tid);
        self.tasks.lock().insert(task, TaskState { tid, vc: Arc::new(vc), ended: false });
    }

    /// Invalidate every thread's clock view; called after a clock change.
    #[inline]
    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    fn alloc_slot(&self) -> u16 {
        let raw = self.next_slot.fetch_add(1, Ordering::Relaxed);
        (raw % MAX_TIDS as u64) as u16
    }

    /// The (tid, clock) epoch a task would stamp on its next access —
    /// what ARBALEST stores in the shadow word's TID/clock fields.
    pub fn epoch_of(&self, task: u32) -> Epoch {
        self.with_view(task, |tid, vc| vc.epoch(tid))
    }

    /// Fork: `child` begins, ordered after everything `parent` did so far.
    pub fn fork(&self, parent: u32, child: u32) {
        let tid = self.alloc_slot();
        let mut tasks = self.tasks.lock();
        let mut vc = tasks.get(&parent).map(|t| VectorClock::clone(&t.vc)).unwrap_or_default();
        let floor = {
            let floors = self.slot_floor.lock();
            floors[tid as usize]
        };
        let start = vc.get(tid).max(floor) + 1;
        vc.set(tid, start);
        tasks.insert(child, TaskState { tid, vc: Arc::new(vc), ended: false });
        // Parent ticks so its post-fork work is not ordered before the
        // child's view of it.
        if let Some(p) = tasks.get_mut(&parent) {
            let ptid = p.tid;
            edit_clock(&mut p.vc, |vc| {
                vc.tick(ptid);
            });
        }
        self.bump();
    }

    /// Task end: freeze the task's final clock.
    pub fn end(&self, task: u32) {
        let mut tasks = self.tasks.lock();
        if let Some(t) = tasks.get_mut(&task) {
            t.ended = true;
            let (tid, clk) = (t.tid, t.vc.get(t.tid));
            drop(tasks);
            let mut floors = self.slot_floor.lock();
            let f = &mut floors[tid as usize];
            *f = (*f).max(clk);
        }
    }

    /// Lock acquire: the task continues ordered after the lock's last
    /// release (FastTrack's `acquire` rule).
    pub fn acquire(&self, task: u32, lock: u64) {
        let lock_vc = self.locks.lock().get(&lock).cloned();
        if let Some(lock_vc) = lock_vc {
            let mut tasks = self.tasks.lock();
            if let Some(t) = tasks.get_mut(&task) {
                edit_clock(&mut t.vc, |vc| vc.join(&lock_vc));
                self.bump();
            }
        }
    }

    /// Lock release: publish the task's clock into the lock and tick.
    pub fn release(&self, task: u32, lock: u64) {
        let mut tasks = self.tasks.lock();
        if let Some(t) = tasks.get_mut(&task) {
            let snapshot = VectorClock::clone(&t.vc);
            let tid = t.tid;
            edit_clock(&mut t.vc, |vc| {
                vc.tick(tid);
            });
            self.bump();
            drop(tasks);
            self.locks.lock().insert(lock, snapshot);
        }
    }

    /// Join: `waiter` continues, ordered after all of `joined`.
    pub fn join(&self, waiter: u32, joined: u32) {
        let mut tasks = self.tasks.lock();
        let joined_vc = match tasks.get(&joined) {
            Some(t) => t.vc.clone(),
            None => return,
        };
        if let Some(w) = tasks.get_mut(&waiter) {
            let wtid = w.tid;
            edit_clock(&mut w.vc, |vc| {
                vc.join(&joined_vc);
                vc.tick(wtid);
            });
            self.bump();
        }
    }

    /// Run `f` on the task's current `(tid, clock)` through this thread's
    /// view, refreshing the view under the `tasks` mutex only when it
    /// belongs to another engine or task or predates the last clock
    /// change. An unknown task reads as slot 0 with the empty clock.
    #[inline]
    fn with_view<R>(&self, task: u32, f: impl FnOnce(u16, &VectorClock) -> R) -> R {
        // Read the generation before the clock: a change racing with the
        // refresh leaves the view stamped older, so it is refreshed again.
        let generation = self.generation.load(Ordering::Acquire);
        VIEW.with(|cell| {
            let mut view = cell.borrow_mut();
            let current = matches!(&*view, Some(v)
                if v.engine == self.id && v.task == task && v.generation == generation);
            if !current {
                *view = Some(self.fresh_view(task, generation));
            }
            let v = view.as_ref().expect("view installed above");
            f(v.tid, &v.vc)
        })
    }

    #[cold]
    fn fresh_view(&self, task: u32, generation: u64) -> ClockView {
        let (tid, vc) = match self.tasks.lock().get(&task) {
            Some(t) => (t.tid, t.vc.clone()),
            None => (0, Arc::new(VectorClock::new())),
        };
        ClockView { engine: self.id, task, generation, tid, vc }
    }

    /// FastTrack read check at `addr` (byte address; `size` ∈ 1..=8).
    /// Returns the racing prior write, if any.
    pub fn check_read(&self, task: u32, addr: u64, size: u8) -> Option<RaceInfo> {
        self.check_access(task, addr, size, false).0
    }

    /// FastTrack write check.
    pub fn check_write(&self, task: u32, addr: u64, size: u8) -> Option<RaceInfo> {
        self.check_access(task, addr, size, true).0
    }

    /// One access by `task`: the read or write check of
    /// [`check_read`](Self::check_read) / [`check_write`](Self::check_write)
    /// together with the epoch of [`epoch_of`](Self::epoch_of), from one
    /// clock-view lookup.
    pub fn check_access(
        &self,
        task: u32,
        addr: u64,
        size: u8,
        is_write: bool,
    ) -> (Option<RaceInfo>, Epoch) {
        self.with_view(task, |tid, vc| {
            let granule = Granule::of(addr & !7, self.cells.granule(addr));
            let (me, mask) = (stamp(tid, vc), byte_mask(addr, size));
            let race = if is_write {
                self.write_at(granule, vc, me, mask)
            } else {
                self.read_at(granule, vc, me, mask)
            };
            (race, vc.epoch(tid))
        })
    }

    /// Read `mask` of granule `g` as epoch `me` of a task at `vc`.
    #[inline]
    fn read_at(&self, g: Granule<'_>, vc: &VectorClock, me: Epoch, mask: u8) -> Option<RaceInfo> {
        let held = g.lock();
        let read = g.read.load(Ordering::Relaxed);
        let next = if read & FLAG != 0 {
            let mut shared = self.shared_reads.lock();
            let rvc = shared.entry(g.addr).or_default();
            rvc.set(me.tid, me.clock.max(rvc.get(me.tid)));
            read | u64::from(mask) << MASK_SHIFT
        } else {
            let last = Access::unpack(read);
            if last.epoch == me {
                Access { epoch: me, mask: last.mask | mask }.pack()
            } else if last.epoch.is_zero() || last.epoch.leq(vc) {
                Access { epoch: me, mask }.pack()
            } else {
                // Concurrent reads: promote to a read vector clock.
                let mut rvc = VectorClock::new();
                rvc.set(last.epoch.tid, last.epoch.clock);
                rvc.set(me.tid, me.clock);
                self.shared_reads.lock().insert(g.addr, rvc);
                FLAG | u64::from(last.mask | mask) << MASK_SHIFT
            }
        };
        let locked = held.write;
        held.publish(locked, next);
        let write = Access::unpack(locked);
        write.races(vc, mask).then(|| write.info(true))
    }

    /// Write `mask` of granule `g` as epoch `me` of a task at `vc`.
    #[inline]
    fn write_at(&self, g: Granule<'_>, vc: &VectorClock, me: Epoch, mask: u8) -> Option<RaceInfo> {
        let held = g.lock();
        let read = g.read.load(Ordering::Relaxed);
        let shared = if read & FLAG != 0 { self.shared_reads.lock().remove(&g.addr) } else { None };
        let write = Access::unpack(held.write);
        let written = if write.epoch == me { write.mask | mask } else { mask };
        held.publish(Access { epoch: me, mask: written }.pack(), 0);
        if write.races(vc, mask) {
            return Some(write.info(true));
        }
        let last = Access::unpack(read);
        match shared {
            Some(rvc) if last.mask & mask != 0 => shared_race(&rvc, vc),
            Some(_) => None,
            None => last.races(vc, mask).then(|| last.info(false)),
        }
    }

    /// Apply a granule check to every granule of `[addr, addr + len)` as
    /// a whole-granule access, resolving each page once; returns the
    /// first race found.
    fn check_range(
        &self,
        task: u32,
        addr: u64,
        len: u64,
        check: impl Fn(&Self, Granule<'_>, &VectorClock, Epoch, u8) -> Option<RaceInfo>,
    ) -> Option<RaceInfo> {
        self.with_view(task, |tid, vc| {
            let me = stamp(tid, vc);
            let mut first = None;
            self.cells.for_each_run(addr, len, |base, cells| {
                for (i, g) in cells.chunks_exact(2).enumerate() {
                    let granule = Granule::of(base + 8 * i as u64, g);
                    if let Some(r) = check(self, granule, vc, me, 0xFF) {
                        first.get_or_insert(r);
                    }
                }
            });
            first
        })
    }

    /// Range write check: used for transfers, which behave like writes of
    /// the destination range and reads of the source range by the
    /// transferring task. Returns the first race found.
    pub fn check_write_range(&self, task: u32, addr: u64, len: u64) -> Option<RaceInfo> {
        self.check_range(task, addr, len, Self::write_at)
    }

    /// Range read check (see [`Self::check_write_range`]).
    pub fn check_read_range(&self, task: u32, addr: u64, len: u64) -> Option<RaceInfo> {
        self.check_range(task, addr, len, Self::read_at)
    }

    /// Drop the recorded per-location access history — the bulk of the
    /// engine's footprint — keeping task clocks and lock release clocks.
    /// Frees every cell page, hence `&mut self`, as the VSM shadow's
    /// eviction does.
    ///
    /// Losing prior-access records can only *miss* races (a race needs a
    /// recorded unordered prior access), never invent one, so eviction is
    /// safe in the no-false-positive direction. Task and lock clocks are
    /// small and retaining them keeps every happens-before edge intact
    /// for accesses made after the eviction.
    pub fn evict_history(&mut self) {
        self.cells.evict_all();
        *self.shared_reads.get_mut() = HashMap::new();
    }

    /// Dump the complete engine state as plain data for durable session
    /// snapshots. Every map is emitted sorted by key so two dumps of
    /// identical state are identical, independent of hash iteration order.
    pub fn to_snapshot(&self) -> RaceSnapshot {
        let tasks = self.tasks.lock();
        let mut task_dump: Vec<TaskSnapshot> = tasks
            .iter()
            .map(|(&task, t)| TaskSnapshot {
                task,
                tid: t.tid,
                clock: t.vc.slot_values().to_vec(),
                ended: t.ended,
            })
            .collect();
        drop(tasks);
        task_dump.sort_unstable_by_key(|t| t.task);
        let shared = self.shared_reads.lock();
        let mut locs: Vec<(u64, LocSnapshot)> = Vec::new();
        for (page, cells) in self.cells.snapshot_pages() {
            for (i, g) in cells.chunks_exact(2).enumerate() {
                let (write, read) = (g[0] & !FLAG, g[1]);
                if write | read == 0 {
                    continue;
                }
                let granule = (page << APP_PAGE_SHIFT) + 8 * i as u64;
                let (w, r) = (Access::unpack(write), Access::unpack(read));
                let read = if read & FLAG != 0 {
                    let clock = shared.get(&granule).map(|vc| vc.slot_values().to_vec());
                    ReadSnapshot::Shared { clock: clock.unwrap_or_default(), mask: r.mask }
                } else {
                    ReadSnapshot::Epoch { tid: r.epoch.tid, clock: r.epoch.clock, mask: r.mask }
                };
                locs.push((
                    granule,
                    LocSnapshot {
                        write_tid: w.epoch.tid,
                        write_clock: w.epoch.clock,
                        write_mask: w.mask,
                        read,
                    },
                ));
            }
        }
        drop(shared);
        let mut locks: Vec<(u64, Vec<u64>)> = self
            .locks
            .lock()
            .iter()
            .map(|(&l, vc)| (l, vc.slot_values().to_vec()))
            .collect();
        locks.sort_unstable_by_key(|&(l, _)| l);
        RaceSnapshot {
            tasks: task_dump,
            slot_floor: self.slot_floor.lock().clone(),
            next_slot: self.next_slot.load(Ordering::Relaxed),
            locs,
            locks,
        }
    }

    /// Rebuild an engine from a [`RaceSnapshot`]. The root task is NOT
    /// re-registered — the snapshot already carries it — so slot
    /// assignment resumes exactly where the dumped engine left off.
    pub fn from_snapshot(snap: &RaceSnapshot) -> RaceEngine {
        let mut floors = snap.slot_floor.clone();
        floors.resize(MAX_TIDS, 0);
        let mut engine = RaceEngine::empty(floors, snap.next_slot);
        engine.tasks.get_mut().extend(snap.tasks.iter().map(|t| {
            let vc = Arc::new(VectorClock::from_slots(t.clock.clone()));
            (t.task, TaskState { tid: t.tid, vc, ended: t.ended })
        }));
        for (addr, loc) in &snap.locs {
            let g = Granule::of(addr & !7, engine.cells.granule(*addr));
            let epoch = Epoch { tid: loc.write_tid, clock: loc.write_clock };
            g.write.store(Access { epoch, mask: loc.write_mask }.pack(), Ordering::Relaxed);
            let read = match &loc.read {
                ReadSnapshot::Epoch { tid, clock, mask } => {
                    Access { epoch: Epoch { tid: *tid, clock: *clock }, mask: *mask }.pack()
                }
                ReadSnapshot::Shared { clock, mask } => {
                    let rvc = VectorClock::from_slots(clock.clone());
                    engine.shared_reads.lock().insert(g.addr, rvc);
                    FLAG | u64::from(*mask) << MASK_SHIFT
                }
            };
            g.read.store(read, Ordering::Relaxed);
        }
        engine.locks.get_mut().extend(
            snap.locks.iter().map(|(l, slots)| (*l, VectorClock::from_slots(slots.clone()))),
        );
        engine
    }

    /// Approximate bytes held (Fig. 9): task and lock clocks, resident
    /// cell pages, and the shared read clocks.
    pub fn approx_bytes(&self) -> u64 {
        let task_bytes: u64 =
            self.tasks.lock().values().map(|t| t.vc.approx_bytes() + 32).sum();
        let shared_bytes: u64 = self
            .shared_reads
            .lock()
            .values()
            .map(|vc| vc.approx_bytes() + std::mem::size_of::<(u64, VectorClock)>() as u64)
            .sum();
        let lock_bytes: u64 =
            self.locks.lock().values().map(|v| v.approx_bytes() + 16).sum();
        task_bytes + self.cells.resident_bytes() + shared_bytes + lock_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Task ids for readability.
    const HOST: u32 = 0;

    #[test]
    fn ordered_accesses_do_not_race() {
        let e = RaceEngine::new();
        assert!(e.check_write(HOST, 0x100, 8).is_none());
        e.fork(HOST, 1);
        // Child write after parent write: ordered by fork.
        assert!(e.check_write(1, 0x100, 8).is_none());
        e.end(1);
        e.join(HOST, 1);
        // Parent read after join: ordered.
        assert!(e.check_read(HOST, 0x100, 8).is_none());
    }

    #[test]
    fn concurrent_write_write_races() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        assert!(e.check_write(1, 0x200, 8).is_none());
        let race = e.check_write(2, 0x200, 8).expect("siblings race");
        assert!(race.prev_was_write);
    }

    #[test]
    fn concurrent_read_write_races_but_read_read_does_not() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        assert!(e.check_read(1, 0x300, 8).is_none());
        assert!(e.check_read(2, 0x300, 8).is_none(), "read-read is fine");
        let race = e.check_write(2, 0x300, 8);
        // Reader 1 is concurrent with writer 2.
        assert!(race.is_some());
        assert!(!race.unwrap().prev_was_write);
    }

    #[test]
    fn racing_write_then_read_detected() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        assert!(e.check_write(1, 0x400, 8).is_none());
        // Host never joined task 1 → host read races child write.
        let race = e.check_read(HOST, 0x400, 8).expect("unordered read");
        assert!(race.prev_was_write);
    }

    #[test]
    fn join_orders_subsequent_accesses() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.check_write(1, 0x500, 8);
        e.end(1);
        e.join(HOST, 1);
        assert!(e.check_write(HOST, 0x500, 8).is_none());
    }

    #[test]
    fn disjoint_bytes_in_one_granule_do_not_race() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        assert!(e.check_write(1, 0x600, 4).is_none());
        assert!(e.check_write(2, 0x604, 4).is_none(), "different halves of the word");
        // Same half does race (fresh granule so the last-write range is 1's).
        assert!(e.check_write(1, 0x610, 4).is_none());
        assert!(e.check_write(2, 0x610, 4).is_some());
    }

    #[test]
    fn transitive_ordering_via_intermediate_join() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.check_write(1, 0x700, 8);
        e.end(1);
        // Task 2 joins 1, then writes: ordered after 1.
        e.fork(HOST, 2);
        e.join(2, 1);
        assert!(e.check_write(2, 0x700, 8).is_none());
    }

    #[test]
    fn shared_read_promotion_then_ordered_write() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.check_read(1, 0x800, 8);
        e.check_read(2, 0x800, 8);
        e.end(1);
        e.end(2);
        e.join(HOST, 1);
        e.join(HOST, 2);
        // After joining both readers the host write is ordered.
        assert!(e.check_write(HOST, 0x800, 8).is_none());
    }

    #[test]
    fn range_checks_cover_every_granule() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        assert!(e.check_write(1, 0x918, 8).is_none());
        // Host range-write over [0x900, 0x940) hits granule 0x918.
        let race = e.check_write_range(HOST, 0x900, 0x40);
        assert!(race.is_some());
    }

    #[test]
    fn critical_sections_order_siblings() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        // Task 1 writes inside the critical section, then releases.
        e.acquire(1, 99);
        assert!(e.check_write(1, 0xA00, 8).is_none());
        e.release(1, 99);
        // Task 2 acquires the same lock: ordered after task 1's write.
        e.acquire(2, 99);
        assert!(e.check_write(2, 0xA00, 8).is_none(), "lock ordering suppresses the race");
        e.release(2, 99);
    }

    #[test]
    fn different_locks_do_not_order() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.acquire(1, 1);
        e.check_write(1, 0xB00, 8);
        e.release(1, 1);
        e.acquire(2, 2); // a different lock
        let race = e.check_write(2, 0xB00, 8);
        assert!(race.is_some(), "disjoint locks provide no ordering");
    }

    #[test]
    fn snapshot_restores_identical_behaviour_and_state() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.check_read(1, 0x800, 8);
        e.check_read(2, 0x800, 8); // promotes to a shared read clock
        e.check_write(1, 0x900, 4);
        e.acquire(1, 99);
        e.release(1, 99);
        e.end(2);
        let snap = e.to_snapshot();
        let r = RaceEngine::from_snapshot(&snap);
        // State round trip is exact: re-snapshotting yields equal data.
        assert_eq!(r.to_snapshot(), snap);
        // Behaviour matches the live engine on the next events.
        assert_eq!(e.epoch_of(HOST), r.epoch_of(HOST));
        assert_eq!(e.epoch_of(1), r.epoch_of(1));
        let live = e.check_write(HOST, 0x800, 8);
        let rec = r.check_write(HOST, 0x800, 8);
        assert_eq!(live, rec, "shared-read race must survive the snapshot");
        assert!(live.is_some());
        // Slot allocation resumes identically (no double-registered root).
        e.fork(HOST, 3);
        r.fork(HOST, 3);
        assert_eq!(e.epoch_of(3), r.epoch_of(3));
    }

    #[test]
    fn cached_view_is_refreshed_after_every_sync_event() {
        // Each step primes this thread's view of a task right before the
        // sync event that changes its clock; the next check must see the
        // new clock, not the cached one.
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);

        // Fork ticks the parent.
        let h = e.epoch_of(HOST);
        e.fork(HOST, 3);
        assert_eq!(e.epoch_of(HOST).clock, h.clock + 1);

        // Release ticks the releaser; acquire orders the acquirer.
        assert!(e.check_write(1, 0xA00, 8).is_none());
        let before = e.epoch_of(1);
        e.release(1, 7);
        assert_eq!(e.epoch_of(1).clock, before.clock + 1);
        assert!(e.check_read(2, 0xA08, 8).is_none()); // view of task 2 cached
        e.acquire(2, 7);
        assert!(e.check_write(2, 0xA00, 8).is_none(), "acquire must refresh task 2's view");

        // Join orders the waiter after the joined task.
        assert!(e.check_write(3, 0xB00, 8).is_none());
        e.end(3);
        assert!(e.check_read(HOST, 0xB08, 8).is_none()); // view of the host cached
        e.join(HOST, 3);
        assert!(e.check_read(HOST, 0xB00, 8).is_none(), "join must refresh the host's view");

        // A task unknown to the engine reads as the zero epoch.
        assert_eq!(e.epoch_of(99), Epoch::ZERO);
    }

    #[test]
    fn engines_sharing_a_thread_never_share_a_view() {
        // Two sessions' engines on one thread (a server shard hosts many)
        // with equal task ids and equal generation counts but different
        // clocks.
        let a = RaceEngine::new();
        let b = RaceEngine::new();
        a.fork(HOST, 1);
        b.fork(HOST, 1);
        assert!(a.check_write(1, 0x100, 8).is_none());
        assert!(b.check_write(1, 0x100, 8).is_none());
        b.end(1);
        b.join(HOST, 1);
        a.fork(HOST, 2); // same number of clock changes on both engines
        assert_eq!(a.generation.load(Ordering::Relaxed), b.generation.load(Ordering::Relaxed));
        for _ in 0..3 {
            assert_eq!(a.epoch_of(HOST).clock, 3);
            assert_eq!(b.epoch_of(HOST).clock, 3);
            assert_ne!(a.epoch_of(1), b.epoch_of(2));
            // In `a` the host never joined task 1, so its read races; in
            // `b` the join orders it.
            assert!(a.check_read(HOST, 0x100, 8).is_some(), "view leaked from b into a");
            assert!(b.check_read(HOST, 0x100, 8).is_none(), "view leaked from a into b");
        }
    }

    #[test]
    fn clock_edits_keep_capacity_while_views_share_the_clock() {
        // A view holding the task's clock forces a copy on the next sync
        // event; the copy must keep the footprint of an in-place edit.
        let shared = RaceEngine::new();
        let alone = RaceEngine::new();
        for (i, e) in [&shared, &alone].into_iter().enumerate() {
            for child in 1..40 {
                if i == 0 {
                    let _ = e.epoch_of(HOST); // cache a view before each fork
                }
                e.fork(HOST, child);
            }
        }
        assert_eq!(shared.approx_bytes(), alone.approx_bytes());
        assert_eq!(shared.to_snapshot(), alone.to_snapshot());
    }

    /// Every granule lock of `e` is free.
    fn no_lock_held(e: &RaceEngine) -> bool {
        let pages = e.cells.snapshot_pages();
        pages.iter().all(|(_, cells)| cells.iter().step_by(2).all(|w| w & FLAG == 0))
    }

    #[test]
    fn byte_masks_clip_to_the_granule() {
        assert_eq!(byte_mask(0x100, 8), 0xFF);
        assert_eq!(byte_mask(0x104, 4), 0xF0);
        assert_eq!(byte_mask(0x102, 2), 0x0C);
        assert_eq!(byte_mask(0x107, 8), 0x80, "an access past the granule keeps its first bytes");
        assert_eq!(byte_mask(0x103, 0), 0);
        assert_eq!(byte_mask(0x100, u8::MAX), 0xFF);
    }

    #[test]
    fn cell_words_round_trip() {
        for a in [
            Access { epoch: Epoch::ZERO, mask: 0 },
            Access { epoch: Epoch { tid: 4095, clock: CLOCK_MAX }, mask: 0xFF },
            Access { epoch: Epoch { tid: 17, clock: 123_456 }, mask: 0x3C },
        ] {
            assert_eq!(Access::unpack(a.pack()), a);
            assert_eq!(a.pack() & FLAG, 0, "packing never sets the lock or shared bit");
        }
        let big = Access { epoch: Epoch { tid: 1, clock: u64::MAX }, mask: 1 };
        assert_eq!(Access::unpack(big.pack()).epoch.clock, CLOCK_MAX, "clocks saturate");
    }

    #[test]
    fn same_epoch_sub_granule_writes_accumulate() {
        // T1 writes both halves of a word in one epoch; T2's unordered
        // write to either half races whichever half T1 wrote last.
        for (first, second) in [(0x1000u64, 0x1004u64), (0x1004, 0x1000)] {
            for target in [0x1000u64, 0x1004] {
                let e = RaceEngine::new();
                e.fork(HOST, 1);
                e.fork(HOST, 2);
                assert!(e.check_write(1, first, 4).is_none());
                assert!(e.check_write(1, second, 4).is_none());
                let race = e.check_write(2, target, 4).expect("T2 races T1's write");
                assert!(race.prev_was_write);
                assert_eq!(race.prev_tid, e.epoch_of(1).tid);
            }
        }
    }

    #[test]
    fn same_epoch_sub_granule_reads_accumulate() {
        for (first, second) in [(0x2000u64, 0x2004u64), (0x2004, 0x2000)] {
            for target in [0x2000u64, 0x2004] {
                let e = RaceEngine::new();
                e.fork(HOST, 1);
                e.fork(HOST, 2);
                assert!(e.check_read(1, first, 4).is_none());
                assert!(e.check_read(1, second, 4).is_none());
                let race = e.check_write(2, target, 4).expect("T2 races T1's read");
                assert!(!race.prev_was_write);
            }
        }
    }

    #[test]
    fn shared_reads_keep_the_bytes_they_read() {
        let e = RaceEngine::new();
        for t in 1..=3 {
            e.fork(HOST, t);
        }
        // Two concurrent reads of the low half promote the read word.
        for g in [0x3000u64, 0x3008] {
            assert!(e.check_read(1, g, 4).is_none());
            assert!(e.check_read(2, g, 4).is_none());
        }
        assert!(e.check_write(3, 0x3004, 4).is_none(), "the high half was never read");
        let race = e.check_write(3, 0x3008, 4).expect("the low half was");
        assert!(!race.prev_was_write);
    }

    #[test]
    fn range_checks_equal_per_granule_checks() {
        // Prior state on both sides of a page boundary, then ranges that
        // straddle it and end inside a granule.
        let prime = |e: &RaceEngine| {
            e.fork(HOST, 1);
            e.fork(HOST, 2);
            e.check_write(1, 0x1ff8, 4);
            e.check_read(1, 0x2000, 8);
            e.check_read(2, 0x2000, 8);
            e.check_read(1, 0x2010, 2);
        };
        for (addr, len) in [(0x1fe0u64, 0x45u64), (0x1ff3, 0x16), (0x2000, 0x11)] {
            for write in [false, true] {
                let ranged = RaceEngine::new();
                let naive = RaceEngine::new();
                prime(&ranged);
                prime(&naive);
                let r = if write {
                    ranged.check_write_range(HOST, addr, len)
                } else {
                    ranged.check_read_range(HOST, addr, len)
                };
                let mut first = None;
                let mut g = addr & !7;
                while g < addr + len {
                    let n = if write {
                        naive.check_write(HOST, g, 8)
                    } else {
                        naive.check_read(HOST, g, 8)
                    };
                    first = first.or(n);
                    g += 8;
                }
                assert_eq!(r, first, "range {addr:#x}+{len:#x} write={write}");
                assert_eq!(ranged.to_snapshot(), naive.to_snapshot());
            }
        }
    }

    #[test]
    fn snapshot_round_trips_shared_and_zero_epoch_granules() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.check_read(1, 0x4000, 2);
        e.check_read(2, 0x4002, 2); // shared, bytes 0..4
        e.check_write(77, 0x4010, 4); // task unknown to the engine
        let snap = e.to_snapshot();
        let loc = |g: u64| snap.locs.iter().find(|(a, _)| *a == g).map(|(_, l)| l.clone());
        match loc(0x4000).expect("shared granule").read {
            ReadSnapshot::Shared { clock, mask } => {
                assert_eq!(mask, 0x0F);
                assert_eq!(clock.iter().filter(|&&c| c > 0).count(), 2, "both readers");
            }
            other => panic!("expected a shared read clock, got {other:?}"),
        }
        let zero = loc(0x4010).expect("zero-epoch granule");
        assert_eq!((zero.write_clock, zero.write_mask), (0, 0x0F));
        let r = RaceEngine::from_snapshot(&snap);
        assert_eq!(r.to_snapshot(), snap);
        for engine in [&e, &r] {
            assert!(engine.check_write(1, 0x4010, 4).is_none(), "a zero epoch never races");
            assert!(engine.check_write(HOST, 0x4000, 1).is_some());
        }
        assert_eq!(r.to_snapshot(), e.to_snapshot());
    }

    #[test]
    fn eviction_leaves_only_task_and_lock_clocks() {
        let mut e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.acquire(1, 5);
        e.release(1, 5);
        let clocks_only = e.approx_bytes();
        e.check_write_range(1, 0x10_0000, 3 * 4096);
        e.check_read(1, 0x20_0000, 8);
        e.check_read(2, 0x20_0000, 8);
        assert!(e.approx_bytes() > clocks_only + 3 * 8192);
        e.evict_history();
        assert_eq!(e.approx_bytes(), clocks_only);
        assert!(e.to_snapshot().locs.is_empty());
        // Clocks survive: the sibling race is still seen after eviction.
        assert!(e.check_write(1, 0x20_0000, 8).is_none());
        assert!(e.check_write(2, 0x20_0000, 8).is_some());
    }

    #[test]
    fn a_stalled_lock_holder_excludes_other_checks() {
        // Holding the side map stalls a write to a shared-read granule
        // inside its critical section; a second write to that granule
        // must wait for it, then see it.
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        const G: u64 = 0x7000;
        let e = RaceEngine::new();
        for t in 1..=4 {
            e.fork(HOST, t);
        }
        e.check_read(1, G, 8);
        e.check_read(2, G, 8);
        let side = e.shared_reads.lock();
        let second_done = AtomicBool::new(false);
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| e.check_write(3, G, 8));
            let deadline = Instant::now() + Duration::from_secs(5);
            let write = &e.cells.granule(G)[0];
            while write.load(Ordering::Acquire) & FLAG == 0 {
                assert!(Instant::now() < deadline, "the first write never took the granule lock");
                std::thread::yield_now();
            }
            let second = scope.spawn(|| {
                let r = e.check_write(4, G, 8);
                second_done.store(true, Ordering::Release);
                r
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(!second_done.load(Ordering::Acquire), "the second write ran under the lock");
            drop(side);
            (first.join().unwrap(), second.join().unwrap())
        });
        assert!(!first.expect("the first write races the shared reads").prev_was_write);
        let second = second.expect("the second write races the first");
        assert!(second.prev_was_write);
        assert_eq!(second.prev_tid, e.epoch_of(3).tid);
        assert!(no_lock_held(&e));
    }

    #[test]
    fn a_panicking_lock_holder_releases_the_granule() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.check_write(1, 0x5000, 8);
        let before = e.to_snapshot();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = Granule::of(0x5000, e.cells.granule(0x5000)).lock();
            panic!("holder unwinds");
        }));
        assert!(unwound.is_err());
        assert!(no_lock_held(&e));
        assert_eq!(e.to_snapshot(), before);
        assert!(e.check_write(2, 0x5000, 8).is_some());
    }

    #[test]
    fn extreme_inputs_never_leave_a_granule_locked() {
        // Every branch of the locked sections under odd sizes, offsets,
        // unknown tasks, the highest slot and a saturating clock.
        let mut snap = RaceEngine::new().to_snapshot();
        let mut clock = vec![0; MAX_TIDS];
        clock[MAX_TIDS - 1] = u64::MAX;
        snap.tasks.push(TaskSnapshot { task: 9, tid: 4095, clock, ended: false });
        let e = RaceEngine::from_snapshot(&snap);
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        for task in [HOST, 1, 2, 9, 1234] {
            for off in 0..8u64 {
                for size in [0u8, 1, 3, 8, 9, u8::MAX] {
                    let a = 0x6000 + off;
                    e.check_read(task, a, size);
                    e.check_read(task, a + 64, size);
                    e.check_write(task, a + 128, size);
                    e.check_access(task, a + 64, size, true);
                }
            }
            e.check_read_range(task, 0x6ffd, 9);
            e.check_write_range(task, 0x7003, 0);
            e.check_write_range(task, u64::MAX - 20, 40);
        }
        assert!(no_lock_held(&e));
        let r = RaceEngine::from_snapshot(&e.to_snapshot());
        assert_eq!(r.to_snapshot(), e.to_snapshot());
    }

    #[test]
    fn epoch_of_reflects_progress() {
        let e = RaceEngine::new();
        let e0 = e.epoch_of(HOST);
        e.fork(HOST, 1);
        let e1 = e.epoch_of(HOST);
        assert!(e1.clock > e0.clock, "fork ticks the parent");
        assert_eq!(e0.tid, e1.tid);
        let c = e.epoch_of(1);
        assert_ne!(c.tid, e0.tid);
    }
}
