//! Span timing, causal span trees, and the lock-free flight recorder.
//!
//! A [`Span`] is an RAII guard: it captures one `Instant` at start and
//! one at drop (or at an explicit [`Span::end`]), writes a fixed-size
//! record into the registry's ring buffer, and optionally feeds the
//! same duration into a histogram. The ring is written with relaxed
//! atomics and a `fetch_add` head, so recording never blocks; a drain
//! racing a writer may observe a torn slot, which is acceptable for a
//! diagnostic flight recorder.
//!
//! Since the causal-tracing layer, every span also carries a
//! [`SpanContext`]: a 128-bit trace id shared by every span of one
//! logical request, a 64-bit span id, and the parent's span id (0 for a
//! root). Contexts are plain `Copy` values, so handing a trace across a
//! thread — or across the wire to the analysis server — is passing three
//! integers and starting a child with [`Registry::span_child`].
//! Ring overwrites are counted in a `dropped_spans` counter so a drain
//! that lost history says so instead of silently looking complete.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use crate::registry::{Inner, Registry};

/// Slots in the ring; the recorder keeps the most recent writes.
const RING_SLOTS: usize = 1024;

/// Interned span name (see [`Registry::span_name`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanName(pub(crate) u32);

/// Causal identity of one span: which trace it belongs to, which span it
/// is, and which span caused it.
///
/// A context is nine words of plain data — `Copy`, `Send`, and cheap to
/// stamp onto a wire frame. The zero context ([`SpanContext::NONE`])
/// means "untraced" and is what disabled registries hand out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// 128-bit trace id shared by every span of one causal tree.
    pub trace: u128,
    /// This span's 64-bit id (unique within the process that minted it).
    pub span: u64,
    /// The parent span's id; 0 for a trace root.
    pub parent: u64,
}

impl SpanContext {
    /// The untraced context: all-zero ids.
    pub const NONE: SpanContext = SpanContext { trace: 0, span: 0, parent: 0 };

    /// Whether this context carries a real trace id.
    pub fn is_traced(&self) -> bool {
        self.trace != 0
    }

    /// Mint a fresh root context: new trace id, new span id, no parent.
    pub fn new_root() -> SpanContext {
        SpanContext { trace: fresh_trace_id(), span: fresh_span_id(), parent: 0 }
    }

    /// Mint a child context of `self`: same trace, fresh span id,
    /// parented to this span.
    pub fn child(&self) -> SpanContext {
        SpanContext { trace: self.trace, span: fresh_span_id(), parent: self.span }
    }
}

/// Process-wide id generation: a per-process random-ish seed (boot time
/// entropy — std-only, no RNG crate) mixed with a monotone counter
/// through splitmix64, so ids are unique within a process and almost
/// surely distinct across processes.
fn id_seed() -> u64 {
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SEED.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        let pid = u64::from(std::process::id());
        // Address-space layout contributes a few extra bits.
        let aslr = &SEED as *const _ as u64;
        t ^ pid.rotate_left(32) ^ aslr.rotate_left(17)
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh nonzero 64-bit span id.
fn fresh_span_id() -> u64 {
    loop {
        let n = NEXT_ID.fetch_add(1, Relaxed);
        let id = splitmix64(id_seed() ^ n);
        if id != 0 {
            return id;
        }
    }
}

/// A fresh nonzero 128-bit trace id.
fn fresh_trace_id() -> u128 {
    loop {
        let id = (u128::from(fresh_span_id()) << 64) | u128::from(fresh_span_id());
        if id != 0 {
            return id;
        }
    }
}

/// Process-wide small integer id for the current thread.
fn current_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    }
    TID.with(|t| {
        let mut id = t.get();
        if id == u32::MAX {
            id = NEXT.fetch_add(1, Relaxed);
            t.set(id);
        }
        id
    })
}

#[derive(Debug)]
struct Slot {
    /// `name_id << 32 | tid`.
    meta: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    trace_hi: AtomicU64,
    trace_lo: AtomicU64,
    span_id: AtomicU64,
    parent_id: AtomicU64,
}

/// The ring buffer holding the most recent span records of one
/// registry, allocated when its first span finishes. One ring, not one
/// per thread: spans are per construct, rare enough that writers share
/// the head cheaply, and a registry whose spans come from many
/// short-lived threads allocates 56 KiB once rather than a ring per
/// thread stripe.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    /// Records written since the last drain; slot index is
    /// `head % RING_SLOTS`.
    head: AtomicU64,
    slots: Box<[Slot]>,
    /// Records lost to ring overwrite, folded in at each drain.
    dropped: AtomicU64,
}

impl FlightRecorder {
    pub(crate) fn new() -> Self {
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..RING_SLOTS)
                .map(|_| Slot {
                    meta: AtomicU64::new(0),
                    start_ns: AtomicU64::new(0),
                    dur_ns: AtomicU64::new(0),
                    trace_hi: AtomicU64::new(0),
                    trace_lo: AtomicU64::new(0),
                    span_id: AtomicU64::new(0),
                    parent_id: AtomicU64::new(0),
                })
                .collect(),
            dropped: AtomicU64::new(0),
        }
    }

    fn record(&self, name: u32, ctx: SpanContext, start_ns: u64, dur_ns: u64) {
        let tid = current_tid();
        let i = self.head.fetch_add(1, Relaxed) as usize % RING_SLOTS;
        let slot = &self.slots[i];
        slot.meta.store(u64::from(name) << 32 | u64::from(tid), Relaxed);
        slot.start_ns.store(start_ns, Relaxed);
        slot.dur_ns.store(dur_ns, Relaxed);
        slot.trace_hi.store((ctx.trace >> 64) as u64, Relaxed);
        slot.trace_lo.store(ctx.trace as u64, Relaxed);
        slot.span_id.store(ctx.span, Relaxed);
        slot.parent_id.store(ctx.parent, Relaxed);
    }

    /// Overwrites so far: the folded total plus any not-yet-drained
    /// excess sitting in the ring right now.
    pub(crate) fn dropped(&self) -> u64 {
        let pending = self.head.load(Relaxed).saturating_sub(RING_SLOTS as u64);
        self.dropped.load(Relaxed).wrapping_add(pending)
    }

    /// Drain the ring; returns the events plus how many records this
    /// drain lost to overwrite.
    pub(crate) fn drain(&self, names: &[&'static str]) -> (Vec<SpanEvent>, u64) {
        let written = self.head.swap(0, Relaxed);
        let live = (written as usize).min(RING_SLOTS);
        let lost = written.saturating_sub(RING_SLOTS as u64);
        if lost > 0 {
            self.dropped.fetch_add(lost, Relaxed);
        }
        let mut out = Vec::with_capacity(live);
        for slot in &self.slots[..live] {
            let meta = slot.meta.load(Relaxed);
            let name_id = (meta >> 32) as usize;
            let Some(&name) = names.get(name_id) else { continue };
            out.push(SpanEvent {
                name,
                tid: meta as u32,
                start_ns: slot.start_ns.load(Relaxed),
                dur_ns: slot.dur_ns.load(Relaxed),
                trace: (u128::from(slot.trace_hi.load(Relaxed)) << 64)
                    | u128::from(slot.trace_lo.load(Relaxed)),
                span: slot.span_id.load(Relaxed),
                parent: slot.parent_id.load(Relaxed),
            });
        }
        out.sort_by_key(|e| e.start_ns);
        (out, lost)
    }
}

/// One completed span drained from the flight recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Interned span name.
    pub name: &'static str,
    /// Small process-wide id of the recording thread.
    pub tid: u32,
    /// Start time in nanoseconds since the registry's epoch.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// 128-bit trace id (0 for pre-tracing flat spans).
    pub trace: u128,
    /// This span's 64-bit id.
    pub span: u64,
    /// Parent span id; 0 for a trace root.
    pub parent: u64,
}

impl SpanEvent {
    /// End time in nanoseconds since the registry's epoch (saturating).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    /// The event's causal identity as a [`SpanContext`] — hand this to
    /// [`Registry::span_child`] to keep building the tree.
    pub fn context(&self) -> SpanContext {
        SpanContext { trace: self.trace, span: self.span, parent: self.parent }
    }
}

/// RAII timing guard; records on drop or at an explicit [`Span::end`].
/// Obtained from [`Registry::span`], [`Registry::span_with`],
/// [`Registry::span_child`], or [`Registry::span_at`].
pub struct Span {
    /// `None` on a disabled registry — the whole guard is then inert.
    armed: Option<Armed>,
    /// The causal identity; [`SpanContext::NONE`] when inert.
    ctx: SpanContext,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span").field("armed", &self.armed.is_some()).field("ctx", &self.ctx).finish()
    }
}

struct Armed {
    inner: std::sync::Arc<Inner>,
    name: u32,
    start: Instant,
    hist: Option<crate::Histogram>,
}

impl Span {
    pub(crate) fn start(reg: &Registry, name: SpanName, hist: Option<crate::Histogram>) -> Span {
        Span::start_with(reg, name, hist, None)
    }

    pub(crate) fn start_with(
        reg: &Registry,
        name: SpanName,
        hist: Option<crate::Histogram>,
        ctx: Option<SpanContext>,
    ) -> Span {
        if !reg.is_enabled() {
            return Span { armed: None, ctx: SpanContext::NONE };
        }
        Span {
            armed: Some(Armed {
                inner: reg.inner().clone(),
                name: name.0,
                start: Instant::now(),
                hist,
            }),
            ctx: ctx.unwrap_or_else(SpanContext::new_root),
        }
    }

    /// The span's causal identity — stamp it on work handed to another
    /// thread (or serialized onto the wire) and start the continuation
    /// with [`Registry::span_child`]. [`SpanContext::NONE`] when inert.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Explicitly end the span now, returning the recorded event (so a
    /// caller can tee it into its own buffer). `None` on a disabled
    /// registry. Dropping the guard records the same event without
    /// returning it.
    pub fn end(mut self) -> Option<SpanEvent> {
        let a = self.armed.take()?;
        Some(finish(a, self.ctx))
    }
}

/// Record the completed span into the recorder (and histogram), and
/// materialise the event.
fn finish(a: Armed, ctx: SpanContext) -> SpanEvent {
    let dur = a.start.elapsed();
    let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    let start_ns =
        u64::try_from(a.start.duration_since(a.inner.epoch).as_nanos()).unwrap_or(u64::MAX);
    a.inner.recorder.get_or_init(FlightRecorder::new).record(a.name, ctx, start_ns, dur_ns);
    if let Some(h) = a.hist {
        h.record(dur_ns);
    }
    let name = a.inner.names.lock().unwrap().get(a.name as usize).copied().unwrap_or("");
    SpanEvent {
        name,
        tid: current_tid(),
        start_ns,
        dur_ns,
        trace: ctx.trace,
        span: ctx.span,
        parent: ctx.parent,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.armed.take() else { return };
        let _ = finish(a, self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_in_the_recorder_and_histogram() {
        let r = Registry::new();
        let h = r.histogram("arbalest_test_span_nanos", &[]);
        let name = r.span_name("test.work");
        for _ in 0..3 {
            let _s = r.span_with(name, &h);
            std::hint::black_box(0u64);
        }
        {
            let _plain = r.span(r.span_name("test.other"));
        }
        let events = r.drain_spans();
        assert_eq!(events.len(), 4);
        assert_eq!(events.iter().filter(|e| e.name == "test.work").count(), 3);
        assert_eq!(events.iter().filter(|e| e.name == "test.other").count(), 1);
        // Sorted by start time.
        assert!(events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert_eq!(h.snapshot().count, 3);
        // Every top-level span is its own root trace.
        assert!(events.iter().all(|e| e.trace != 0 && e.span != 0 && e.parent == 0));
        // Drain resets.
        assert!(r.drain_spans().is_empty());
    }

    #[test]
    fn child_spans_share_the_trace_and_link_to_their_parent() {
        let r = Registry::new();
        let root = r.span(r.span_name("root"));
        let rctx = root.context();
        assert!(rctx.is_traced());
        {
            let child = r.span_child(r.span_name("child"), rctx);
            let cctx = child.context();
            assert_eq!(cctx.trace, rctx.trace);
            assert_eq!(cctx.parent, rctx.span);
            assert_ne!(cctx.span, rctx.span);
            // Grandchild through an explicit cross-thread handoff.
            let handoff = cctx;
            std::thread::scope(|s| {
                let r2 = r.clone();
                s.spawn(move || {
                    let g = r2.span_child(r2.span_name("grandchild"), handoff);
                    assert_eq!(g.context().trace, handoff.trace);
                    assert_eq!(g.context().parent, handoff.span);
                });
            });
        }
        drop(root);
        let events = r.drain_spans();
        assert_eq!(events.len(), 3);
        let root_ev = events.iter().find(|e| e.name == "root").unwrap();
        let child_ev = events.iter().find(|e| e.name == "child").unwrap();
        let grand_ev = events.iter().find(|e| e.name == "grandchild").unwrap();
        assert_eq!(root_ev.trace, child_ev.trace);
        assert_eq!(child_ev.trace, grand_ev.trace);
        assert_eq!(child_ev.parent, root_ev.span);
        assert_eq!(grand_ev.parent, child_ev.span);
    }

    #[test]
    fn span_at_records_the_exact_given_context() {
        let r = Registry::new();
        let ctx = SpanContext { trace: 42, span: 7, parent: 3 };
        let ev = r.span_at(r.span_name("exact"), ctx).end().unwrap();
        assert_eq!((ev.trace, ev.span, ev.parent), (42, 7, 3));
        let drained = r.drain_spans();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].context(), ctx);
    }

    #[test]
    fn explicit_end_returns_the_event() {
        let r = Registry::new();
        let s = r.span(r.span_name("ended"));
        let ctx = s.context();
        let ev = s.end().expect("enabled registry records");
        assert_eq!(ev.name, "ended");
        assert_eq!(ev.context(), ctx);
        assert!(ev.end_ns() >= ev.start_ns);
        // end() already recorded; the drain sees exactly one event.
        assert_eq!(r.drain_spans().len(), 1);
    }

    #[test]
    fn ring_overflow_keeps_most_recent_and_counts_drops() {
        let r = Registry::new();
        let name = r.span_name("test.many");
        for _ in 0..3000 {
            let _s = r.span(name);
        }
        // Overwrites are visible before the drain...
        assert_eq!(r.dropped_spans(), 3000 - RING_SLOTS as u64);
        let events = r.drain_spans();
        // Single thread → one ring → capped at the ring size.
        assert_eq!(events.len(), RING_SLOTS);
        // ...and stay counted after it.
        assert_eq!(r.dropped_spans(), 3000 - RING_SLOTS as u64);
        // The drain exported the loss as a metric.
        assert_eq!(
            r.snapshot().counter("arbalest_obs_dropped_spans_total", &[]),
            Some(3000 - RING_SLOTS as u64)
        );
    }

    #[test]
    fn interning_is_stable() {
        let r = Registry::new();
        let a = r.span_name("x");
        let b = r.span_name("y");
        let a2 = r.span_name("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_registry_spans_are_inert() {
        let r = Registry::disabled();
        let name = r.span_name("noop");
        let s = r.span(name);
        assert_eq!(s.context(), SpanContext::NONE);
        assert!(s.end().is_none());
        drop(r.span_child(name, SpanContext { trace: 1, span: 2, parent: 0 }));
        assert!(r.drain_spans().is_empty());
        assert_eq!(r.dropped_spans(), 0);
    }

    #[test]
    fn fresh_ids_are_nonzero_and_distinct() {
        let a = SpanContext::new_root();
        let b = SpanContext::new_root();
        assert!(a.is_traced() && b.is_traced());
        assert_ne!(a.trace, b.trace);
        assert_ne!(a.span, b.span);
        let c = a.child();
        assert_eq!(c.trace, a.trace);
        assert_eq!(c.parent, a.span);
        assert_ne!(c.span, a.span);
    }
}
