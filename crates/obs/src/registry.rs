//! The metrics registry and its scalar handles.

use std::any::{Any, TypeId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::hist::{HistCore, Histogram};
use crate::snapshot::{MetricId, Snapshot};
use crate::span::{FlightRecorder, Span, SpanContext, SpanEvent, SpanName};

/// Key under which a metric is deduplicated: name plus sorted labels.
pub(crate) type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Vec<(String, String)> =
        labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    l.sort();
    (name.to_string(), l)
}

#[derive(Default)]
pub(crate) struct Tables {
    pub(crate) counters: BTreeMap<Key, Arc<CounterCell>>,
    pub(crate) gauges: BTreeMap<Key, Arc<AtomicU64>>,
    pub(crate) hists: BTreeMap<Key, Arc<HistCore>>,
}

/// Shared state of one counter series: the fallback cell plus its
/// process-wide arena slot (`usize::MAX` when the arena is exhausted).
#[derive(Debug)]
pub(crate) struct CounterCell {
    shared: AtomicU64,
    slot: usize,
}

// ---------------------------------------------------------------------
// Per-thread counter arena.
//
// A locked RMW on a shared cache line costs an order of magnitude more
// than a plain store once several kernel threads hammer the same
// counters, and the detector increments three of them per analysed
// access. So counter cells live in *per-thread blocks*: each recording
// thread owns one block (single writer → `load; add; store` with no
// `lock` prefix), readers sum the slot across all blocks. Blocks are
// never freed — an exiting thread returns its block to a pool for the
// next thread, so memory is bounded by the peak number of concurrently
// recording threads (128 KiB each), and totals survive thread exit.
// Slots are allocated process-wide and never reused; a counter past the
// last slot falls back to `fetch_add` on its shared cell.
// ---------------------------------------------------------------------

/// Counter slots per arena block (128 KiB of cells).
const ARENA_SLOTS: usize = 16 * 1024;

#[derive(Debug)]
struct Block {
    cells: Box<[AtomicU64]>,
}

impl Block {
    fn new() -> Arc<Block> {
        Arc::new(Block { cells: (0..ARENA_SLOTS).map(|_| AtomicU64::new(0)).collect() })
    }
}

struct Arena {
    /// Every block ever handed out; never shrinks, so raw block pointers
    /// cached in TLS stay valid for the process lifetime.
    blocks: Mutex<Vec<Arc<Block>>>,
    /// Blocks whose owning thread exited, ready for reuse (not zeroed —
    /// they stay in `blocks`, so their totals keep counting).
    pool: Mutex<Vec<Arc<Block>>>,
}

fn arena() -> &'static Arena {
    static ARENA: OnceLock<Arena> = OnceLock::new();
    ARENA.get_or_init(|| Arena { blocks: Mutex::new(Vec::new()), pool: Mutex::new(Vec::new()) })
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

fn alloc_slot() -> usize {
    let s = NEXT_SLOT.fetch_add(1, Relaxed);
    if s < ARENA_SLOTS {
        s
    } else {
        usize::MAX
    }
}

thread_local! {
    /// This thread's block, cached as a raw pointer so the hot path is a
    /// plain const-init TLS load. Null until acquired, and nulled again
    /// when the guard drops during thread teardown. Neither key has a
    /// destructor of its own, so reading them is always safe.
    static BLOCK_PTR: std::cell::Cell<*const Block> = const { std::cell::Cell::new(std::ptr::null()) };
}
thread_local! {
    /// Keeps the block owned for the thread's lifetime; its drop returns
    /// the block to the pool.
    static BLOCK_GUARD: std::cell::RefCell<Option<BlockGuard>> = const { std::cell::RefCell::new(None) };
}

struct BlockGuard(Arc<Block>);

impl Drop for BlockGuard {
    fn drop(&mut self) {
        // After this, later increments on the dying thread (from other
        // TLS destructors) take the shared-cell path.
        BLOCK_PTR.with(|p| p.set(std::ptr::null()));
        arena().pool.lock().unwrap().push(self.0.clone());
    }
}

/// Slow path: adopt a pooled block or allocate one. Returns null when
/// the thread is already tearing down its TLS.
#[cold]
fn acquire_block() -> *const Block {
    let a = arena();
    let block = {
        let pooled = a.pool.lock().unwrap().pop();
        pooled.unwrap_or_else(|| {
            let b = Block::new();
            a.blocks.lock().unwrap().push(b.clone());
            b
        })
    };
    let ptr = Arc::as_ptr(&block);
    let installed = BLOCK_GUARD
        .try_with(|g| {
            *g.borrow_mut() = Some(BlockGuard(block.clone()));
        })
        .is_ok();
    if !installed {
        a.pool.lock().unwrap().push(block);
        return std::ptr::null();
    }
    BLOCK_PTR.with(|p| p.set(ptr));
    ptr
}

/// Sum `slot` across every block ever issued.
fn arena_total(slot: usize) -> u64 {
    arena()
        .blocks
        .lock()
        .unwrap()
        .iter()
        .fold(0u64, |acc, b| acc.wrapping_add(b.cells[slot].load(Relaxed)))
}

pub(crate) struct Inner {
    pub(crate) enabled: bool,
    pub(crate) tables: Mutex<Tables>,
    /// Span timestamps are reported relative to this.
    pub(crate) epoch: Instant,
    /// Interned `'static` span names; `SpanName.0` indexes this.
    pub(crate) names: Mutex<Vec<&'static str>>,
    /// Flight-recorder ring, allocated on first span.
    pub(crate) recorder: OnceLock<FlightRecorder>,
    /// Per-registry cache of instrument packs (see [`Registry::state`]).
    pub(crate) extensions: Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
}

/// Handle registry for counters, gauges, histograms, and spans.
///
/// Cloning is cheap (`Arc` bump) and every clone addresses the same
/// underlying tables, so a registry can be threaded through detector,
/// runtime, and server while all exporters see one set of cells.
///
/// A registry is either *enabled* or *disabled* for its whole lifetime;
/// handles registered on a disabled registry are permanent no-ops backed
/// by private cells that never appear in snapshots.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("enabled", &self.inner.enabled).finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    fn with_enabled(enabled: bool) -> Self {
        Registry {
            inner: Arc::new(Inner {
                enabled,
                tables: Mutex::new(Tables::default()),
                epoch: Instant::now(),
                names: Mutex::new(Vec::new()),
                recorder: OnceLock::new(),
                extensions: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// An enabled registry: handles record, snapshots observe.
    pub fn new() -> Self {
        Registry::with_enabled(true)
    }

    /// A disabled registry: every handle is a single-branch no-op and
    /// `snapshot()` is always empty. This is the default wiring so that
    /// uninstrumented runs pay (almost) nothing.
    pub fn disabled() -> Self {
        Registry::with_enabled(false)
    }

    /// Whether handles registered here record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Get (or build once) this registry's cached instance of `T`.
    ///
    /// Subsystems that bundle their handles into a struct (an *instrument
    /// pack*) register each series exactly once per registry and then
    /// share the pack: constructing a fresh detector or runtime per work
    /// item costs one map lookup instead of re-registering dozens of
    /// series. The handles inside the pack address shared cells anyway,
    /// so sharing the pack is semantically identical — just cheaper.
    pub fn state<T: Send + Sync + 'static>(&self, build: impl FnOnce(&Registry) -> T) -> Arc<T> {
        if let Some(v) = self.inner.extensions.lock().unwrap().get(&TypeId::of::<T>()) {
            return v.clone().downcast::<T>().expect("extension slot holds its TypeId's type");
        }
        // Build outside the lock: `build` re-enters the registry to
        // register series (a different mutex, but keep the critical
        // section minimal). A concurrent builder loses the race below and
        // adopts the winner's pack; both registered the same cells.
        let built = Arc::new(build(self));
        self.inner
            .extensions
            .lock()
            .unwrap()
            .entry(TypeId::of::<T>())
            .or_insert(built)
            .clone()
            .downcast::<T>()
            .expect("extension slot holds its TypeId's type")
    }

    /// Register (or re-open) a counter. Same `(name, labels)` → same cell.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        if !self.inner.enabled {
            return Counter {
                on: false,
                slot: usize::MAX,
                cell: Arc::new(CounterCell { shared: AtomicU64::new(0), slot: usize::MAX }),
            };
        }
        let mut t = self.inner.tables.lock().unwrap();
        let cell = t
            .counters
            .entry(key(name, labels))
            .or_insert_with(|| {
                Arc::new(CounterCell { shared: AtomicU64::new(0), slot: alloc_slot() })
            })
            .clone();
        Counter { on: true, slot: cell.slot, cell }
    }

    /// Register (or re-open) a gauge. Same `(name, labels)` → same cell.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        if !self.inner.enabled {
            return Gauge { on: false, cell: Arc::new(AtomicU64::new(0)) };
        }
        let mut t = self.inner.tables.lock().unwrap();
        let cell = t.gauges.entry(key(name, labels)).or_default().clone();
        Gauge { on: true, cell }
    }

    /// Register (or re-open) a histogram. Same `(name, labels)` → same cells.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        if !self.inner.enabled {
            return Histogram { on: false, core: Arc::new(HistCore::new()) };
        }
        let mut t = self.inner.tables.lock().unwrap();
        let core = t
            .hists
            .entry(key(name, labels))
            .or_insert_with(|| Arc::new(HistCore::new()))
            .clone();
        Histogram { on: true, core }
    }

    /// Intern a span name once (at setup time); the returned id makes
    /// starting a span allocation- and lock-free.
    pub fn span_name(&self, name: &'static str) -> SpanName {
        let mut names = self.inner.names.lock().unwrap();
        if let Some(i) = names.iter().position(|&n| n == name) {
            return SpanName(i as u32);
        }
        names.push(name);
        SpanName((names.len() - 1) as u32)
    }

    /// Start a root span (fresh trace id); its wall time lands in the
    /// flight recorder when the guard drops. No-op (and no
    /// `Instant::now()`) when disabled.
    pub fn span(&self, name: SpanName) -> Span {
        Span::start(self, name, None)
    }

    /// Start a span that additionally records its duration (nanoseconds)
    /// into `hist` on drop — one `Instant` pair serves both sinks.
    pub fn span_with(&self, name: SpanName, hist: &Histogram) -> Span {
        Span::start(self, name, Some(hist.clone()))
    }

    /// Start a child span of `parent`: same trace id, fresh span id,
    /// parent link to `parent`'s span. This is the cross-thread (and
    /// cross-process) handoff: pass the parent's [`SpanContext`] by
    /// value and start the continuation wherever the work resumed. If
    /// `parent` is untraced, the span becomes a fresh root instead.
    pub fn span_child(&self, name: SpanName, parent: SpanContext) -> Span {
        let ctx = if parent.is_traced() { Some(parent.child()) } else { None };
        Span::start_with(self, name, None, ctx)
    }

    /// Start a span with an *exact* context — trace, span, and parent id
    /// taken verbatim. Used when recording a span on behalf of a remote
    /// peer that already minted the ids (the server materialises the
    /// client's submit span from the context stamped on the wire).
    pub fn span_at(&self, name: SpanName, ctx: SpanContext) -> Span {
        Span::start_with(self, name, None, Some(ctx))
    }

    /// Drain the flight recorder: returns buffered span events sorted by
    /// start time and resets the ring. Concurrent recording may tear
    /// individual slots; this is a diagnostic stream, not an audit log.
    /// Records lost to ring overwrite since the last drain are folded
    /// into the `arbalest_obs_dropped_spans_total` counter.
    pub fn drain_spans(&self) -> Vec<SpanEvent> {
        let Some(rec) = self.inner.recorder.get() else {
            return Vec::new();
        };
        let (events, lost) = {
            let names = self.inner.names.lock().unwrap();
            rec.drain(&names)
        };
        if lost > 0 {
            self.counter("arbalest_obs_dropped_spans_total", &[]).add(lost);
        }
        events
    }

    /// Span records lost to ring overwrite so far (drained or not). A
    /// nonzero value means a span dump is incomplete: the flight
    /// recorder keeps only the most recent 1024 records between
    /// drains.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.recorder.get().map(FlightRecorder::dropped).unwrap_or(0)
    }

    pub(crate) fn inner(&self) -> &Arc<Inner> {
        &self.inner
    }

    /// Point-in-time copy of every registered metric, sorted by
    /// `(name, labels)` so output is deterministic.
    pub fn snapshot(&self) -> Snapshot {
        let t = self.inner.tables.lock().unwrap();
        // One arena pass for all counters: hold the block list once and
        // sum each cell's slot across it on top of the shared fallback.
        let blocks = arena().blocks.lock().unwrap();
        Snapshot {
            counters: t
                .counters
                .iter()
                .map(|(k, c)| {
                    let mut v = c.shared.load(Relaxed);
                    if c.slot != usize::MAX {
                        for b in blocks.iter() {
                            v = v.wrapping_add(b.cells[c.slot].load(Relaxed));
                        }
                    }
                    (MetricId::from_key(k), v)
                })
                .collect(),
            gauges: t
                .gauges
                .iter()
                .map(|(k, v)| (MetricId::from_key(k), v.load(Relaxed)))
                .collect(),
            histograms: t
                .hists
                .iter()
                .map(|(k, h)| (MetricId::from_key(k), h.snapshot()))
                .collect(),
        }
    }
}

/// Monotonically increasing counter handle. Cloning shares the cell.
///
/// Increments land in the calling thread's arena block — a single-writer
/// cell, so recording is a plain load/add/store with no locked RMW and
/// no cross-thread cache-line traffic. Reads sum the slot across all
/// blocks; they are monotone and exact once writers have quiesced (e.g.
/// after a `join`), which is when snapshots and tests look.
#[derive(Clone, Debug)]
pub struct Counter {
    pub(crate) on: bool,
    /// Copy of `cell.slot` so the fast path needs no pointer chase
    /// through the `Arc` (`usize::MAX` when disabled or arena-less).
    pub(crate) slot: usize,
    pub(crate) cell: Arc<CounterCell>,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.on {
            return;
        }
        if self.slot != usize::MAX {
            let mut p = BLOCK_PTR.with(std::cell::Cell::get);
            if p.is_null() {
                p = acquire_block();
            }
            if !p.is_null() {
                // Single writer per block: a plain read-modify-write
                // store cannot lose concurrent updates. In-bounds by
                // construction: a slot other than `usize::MAX` came from
                // `alloc_slot`, which only returns values < ARENA_SLOTS,
                // and every block holds exactly ARENA_SLOTS cells.
                debug_assert!(self.slot < ARENA_SLOTS);
                let block = unsafe { &*p };
                let c = unsafe { block.cells.get_unchecked(self.slot) };
                c.store(c.load(Relaxed).wrapping_add(n), Relaxed);
                return;
            }
        }
        self.cell.shared.fetch_add(n, Relaxed);
    }

    /// Current value (0 forever on a disabled registry).
    pub fn get(&self) -> u64 {
        let mut v = self.cell.shared.load(Relaxed);
        if self.on && self.slot != usize::MAX {
            v = v.wrapping_add(arena_total(self.slot));
        }
        v
    }
}

/// Last-write-wins gauge handle. Cloning shares the cell.
#[derive(Clone, Debug)]
pub struct Gauge {
    pub(crate) on: bool,
    pub(crate) cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        if self.on {
            self.cell.store(v, Relaxed);
        }
    }

    /// Current value (0 forever on a disabled registry).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_one_cell() {
        let r = Registry::new();
        let a = r.counter("arbalest_test_total", &[("kind", "x")]);
        // Label order must not matter for identity.
        let b = r.counter("arbalest_test_total", &[("kind", "x")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].1, 4);
    }

    #[test]
    fn label_sets_are_distinct_series() {
        let r = Registry::new();
        r.counter("c", &[("k", "a")]).inc();
        r.counter("c", &[("k", "b")]).add(2);
        r.counter("c", &[]).add(10);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 3);
        assert_eq!(snap.counter("c", &[("k", "a")]), Some(1));
        assert_eq!(snap.counter("c", &[("k", "b")]), Some(2));
        assert_eq!(snap.counter("c", &[]), Some(10));
        assert_eq!(snap.counter("c", &[("k", "z")]), None);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        let c = r.counter("c", &[]);
        let g = r.gauge("g", &[]);
        let h = r.histogram("h", &[]);
        c.add(5);
        g.set(9);
        h.record(3);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
        assert!(r.drain_spans().is_empty());
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let r = Registry::new();
        let c = r.counter("arbalest_test_concurrent_total", &[]);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(
            r.snapshot().counter("arbalest_test_concurrent_total", &[]),
            Some(THREADS as u64 * PER_THREAD)
        );
    }

    #[test]
    fn counts_survive_thread_exit_and_block_reuse() {
        let r = Registry::new();
        let c = r.counter("arbalest_test_arena_exit_total", &[]);
        // Two generations of short-lived threads: the second generation
        // reuses pooled blocks from the first without clobbering its
        // counts.
        for _ in 0..2 {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let c = c.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        }
        assert_eq!(c.get(), 8_000);
        assert_eq!(r.snapshot().counter("arbalest_test_arena_exit_total", &[]), Some(8_000));
    }

    #[test]
    fn state_builds_once_and_shares_the_pack() {
        struct Pack {
            c: Counter,
        }
        let r = Registry::new();
        let a = r.state(|reg| Pack { c: reg.counter("arbalest_test_pack_total", &[]) });
        let b = r.state::<Pack>(|_| unreachable!("second call must reuse the cached pack"));
        a.c.inc();
        assert_eq!(b.c.get(), 1);
        // A different registry builds its own pack with its own cells.
        let other = Registry::new();
        let c = other.state(|reg| Pack { c: reg.counter("arbalest_test_pack_total", &[]) });
        assert_eq!(c.c.get(), 0);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let r = Registry::new();
        let g = r.gauge("depth", &[("shard", "0")]);
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(r.snapshot().gauge("depth", &[("shard", "0")]), Some(3));
    }
}
