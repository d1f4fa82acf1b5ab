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
//! costs one refresh per thread after each sync event. Per-granule
//! access state stays in mutex-sharded maps.

use crate::clock::{Epoch, VectorClock, MAX_TIDS};
use arbalest_sync::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byte range of an access within its granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ByteRange {
    offset: u8,
    size: u8,
}

impl ByteRange {
    #[inline]
    fn overlaps(self, other: ByteRange) -> bool {
        let a0 = self.offset;
        let a1 = self.offset + self.size;
        let b0 = other.offset;
        let b1 = other.offset + other.size;
        a0 < b1 && b0 < a1
    }
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

#[derive(Debug, Clone)]
enum ReadState {
    Epoch(Epoch, ByteRange),
    Shared(VectorClock),
}

#[derive(Debug, Clone)]
struct LocState {
    write: Epoch,
    write_range: ByteRange,
    read: ReadState,
}

impl LocState {
    fn new() -> Self {
        LocState {
            write: Epoch::ZERO,
            write_range: ByteRange { offset: 0, size: 8 },
            read: ReadState::Epoch(Epoch::ZERO, ByteRange { offset: 0, size: 8 }),
        }
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

const SHARDS: usize = 64;

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
    /// Single last-read epoch with its byte range.
    Epoch {
        /// Reader's thread slot.
        tid: u16,
        /// Reader's scalar clock.
        clock: u64,
        /// Byte offset of the read within its granule.
        offset: u8,
        /// Byte size of the read.
        size: u8,
    },
    /// Promoted concurrent-read vector clock (raw slots).
    Shared(Vec<u64>),
}

/// One location's FastTrack state in a [`RaceSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocSnapshot {
    /// Last-write thread slot.
    pub write_tid: u16,
    /// Last-write scalar clock.
    pub write_clock: u64,
    /// Byte offset of the last write within its granule.
    pub write_offset: u8,
    /// Byte size of the last write.
    pub write_size: u8,
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
    /// Per-granule location states, sorted by granule address.
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
    shards: Vec<Mutex<HashMap<u64, LocState>>>,
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
        let engine = RaceEngine {
            id: NEXT_ENGINE.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            tasks: Mutex::new(HashMap::new()),
            slot_floor: Mutex::new(vec![0; MAX_TIDS]),
            next_slot: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            locks: Mutex::new(HashMap::new()),
        };
        engine.register_root(0);
        engine
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

    #[inline]
    fn shard(&self, granule: u64) -> &Mutex<HashMap<u64, LocState>> {
        // Mix the granule index so consecutive granules spread over shards.
        let g = granule >> 3;
        let h = g.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 58) as usize % SHARDS]
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
        self.with_view(task, |tid, vc| self.read_with(tid, vc, addr, size))
    }

    fn read_with(&self, tid: u16, vc: &VectorClock, addr: u64, size: u8) -> Option<RaceInfo> {
        let range = ByteRange { offset: (addr & 7) as u8, size };
        let granule = addr & !7;
        let mut shard = self.shard(granule).lock();
        let loc = shard.entry(granule).or_insert_with(LocState::new);
        let mut race = None;
        if !loc.write.is_zero() && !loc.write.leq(vc) && range.overlaps(loc.write_range) {
            race = Some(RaceInfo {
                prev_tid: loc.write.tid,
                prev_clock: loc.write.clock,
                prev_was_write: true,
            });
        }
        // Update read state per FastTrack.
        let me = vc.epoch(tid);
        match &mut loc.read {
            ReadState::Epoch(e, r) => {
                if e.is_zero() || e.leq(vc) {
                    *e = me;
                    *r = range;
                } else {
                    // Concurrent reads: promote to a read vector clock.
                    let mut rvc = VectorClock::new();
                    rvc.set(e.tid, e.clock);
                    rvc.set(me.tid, me.clock);
                    loc.read = ReadState::Shared(rvc);
                }
            }
            ReadState::Shared(rvc) => {
                rvc.set(me.tid, me.clock.max(rvc.get(me.tid)));
            }
        }
        race
    }

    /// FastTrack write check.
    pub fn check_write(&self, task: u32, addr: u64, size: u8) -> Option<RaceInfo> {
        self.with_view(task, |tid, vc| self.write_with(tid, vc, addr, size))
    }

    fn write_with(&self, tid: u16, vc: &VectorClock, addr: u64, size: u8) -> Option<RaceInfo> {
        let range = ByteRange { offset: (addr & 7) as u8, size };
        let granule = addr & !7;
        let mut shard = self.shard(granule).lock();
        let loc = shard.entry(granule).or_insert_with(LocState::new);
        let mut race = None;
        if !loc.write.is_zero() && !loc.write.leq(vc) && range.overlaps(loc.write_range) {
            race = Some(RaceInfo {
                prev_tid: loc.write.tid,
                prev_clock: loc.write.clock,
                prev_was_write: true,
            });
        }
        if race.is_none() {
            match &loc.read {
                ReadState::Epoch(e, r) => {
                    if !e.is_zero() && !e.leq(vc) && range.overlaps(*r) {
                        race = Some(RaceInfo {
                            prev_tid: e.tid,
                            prev_clock: e.clock,
                            prev_was_write: false,
                        });
                    }
                }
                ReadState::Shared(rvc) => {
                    if !rvc.leq(vc) {
                        // Find one offending reader for the report.
                        let mut offender = Epoch::ZERO;
                        for t in 0..MAX_TIDS as u16 {
                            let c = rvc.get(t);
                            if c > vc.get(t) {
                                offender = Epoch { tid: t, clock: c };
                                break;
                            }
                        }
                        race = Some(RaceInfo {
                            prev_tid: offender.tid,
                            prev_clock: offender.clock,
                            prev_was_write: false,
                        });
                    }
                }
            }
        }
        loc.write = vc.epoch(tid);
        loc.write_range = range;
        loc.read = ReadState::Epoch(Epoch::ZERO, range);
        race
    }

    /// Range write check: used for transfers, which behave like writes of
    /// the destination range and reads of the source range by the
    /// transferring task. Returns the first race found.
    pub fn check_write_range(&self, task: u32, addr: u64, len: u64) -> Option<RaceInfo> {
        self.with_view(task, |tid, vc| {
            let mut first = None;
            for g in (addr & !7..addr + len).step_by(8) {
                if let Some(r) = self.write_with(tid, vc, g, 8) {
                    first.get_or_insert(r);
                }
            }
            first
        })
    }

    /// Range read check (see [`Self::check_write_range`]).
    pub fn check_read_range(&self, task: u32, addr: u64, len: u64) -> Option<RaceInfo> {
        self.with_view(task, |tid, vc| {
            let mut first = None;
            for g in (addr & !7..addr + len).step_by(8) {
                if let Some(r) = self.read_with(tid, vc, g, 8) {
                    first.get_or_insert(r);
                }
            }
            first
        })
    }

    /// Drop the recorded per-location access history — the bulk of the
    /// engine's footprint — keeping task clocks and lock release clocks.
    ///
    /// Losing prior-access records can only *miss* races (a race needs a
    /// recorded unordered prior access), never invent one, so eviction is
    /// safe in the no-false-positive direction. Task and lock clocks are
    /// small and retaining them keeps every happens-before edge intact
    /// for accesses made after the eviction.
    pub fn evict_history(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
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
        let mut locs: Vec<(u64, LocSnapshot)> = Vec::new();
        for s in &self.shards {
            for (&granule, loc) in s.lock().iter() {
                locs.push((
                    granule,
                    LocSnapshot {
                        write_tid: loc.write.tid,
                        write_clock: loc.write.clock,
                        write_offset: loc.write_range.offset,
                        write_size: loc.write_range.size,
                        read: match &loc.read {
                            ReadState::Epoch(e, r) => ReadSnapshot::Epoch {
                                tid: e.tid,
                                clock: e.clock,
                                offset: r.offset,
                                size: r.size,
                            },
                            ReadState::Shared(vc) => {
                                ReadSnapshot::Shared(vc.slot_values().to_vec())
                            }
                        },
                    },
                ));
            }
        }
        locs.sort_unstable_by_key(|&(g, _)| g);
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
        let engine = RaceEngine {
            id: NEXT_ENGINE.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            tasks: Mutex::new(HashMap::new()),
            slot_floor: Mutex::new(floors),
            next_slot: AtomicU64::new(snap.next_slot),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            locks: Mutex::new(HashMap::new()),
        };
        {
            let mut tasks = engine.tasks.lock();
            for t in &snap.tasks {
                tasks.insert(
                    t.task,
                    TaskState {
                        tid: t.tid,
                        vc: Arc::new(VectorClock::from_slots(t.clock.clone())),
                        ended: t.ended,
                    },
                );
            }
        }
        for (granule, loc) in &snap.locs {
            engine.shard(*granule).lock().insert(
                *granule,
                LocState {
                    write: Epoch { tid: loc.write_tid, clock: loc.write_clock },
                    write_range: ByteRange { offset: loc.write_offset, size: loc.write_size },
                    read: match &loc.read {
                        ReadSnapshot::Epoch { tid, clock, offset, size } => ReadState::Epoch(
                            Epoch { tid: *tid, clock: *clock },
                            ByteRange { offset: *offset, size: *size },
                        ),
                        ReadSnapshot::Shared(slots) => {
                            ReadState::Shared(VectorClock::from_slots(slots.clone()))
                        }
                    },
                },
            );
        }
        {
            let mut locks = engine.locks.lock();
            for (l, slots) in &snap.locks {
                locks.insert(*l, VectorClock::from_slots(slots.clone()));
            }
        }
        engine
    }

    /// Approximate bytes held by clocks and location states (Fig. 9).
    pub fn approx_bytes(&self) -> u64 {
        let tasks = self.tasks.lock();
        let task_bytes: u64 = tasks.values().map(|t| t.vc.approx_bytes() + 32).sum();
        let loc_bytes: u64 = self
            .shards
            .iter()
            .map(|s| (s.lock().len() * (std::mem::size_of::<LocState>() + 16)) as u64)
            .sum();
        let lock_bytes: u64 =
            self.locks.lock().values().map(|v| v.approx_bytes() + 16).sum();
        task_bytes + loc_bytes + lock_bytes
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
