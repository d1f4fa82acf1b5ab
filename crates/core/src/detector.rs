//! The ARBALEST detector (§IV–V).
//!
//! Per aligned 8-byte granule of every tracked host variable, ARBALEST
//! keeps one Table II shadow word, updated with lock-free compare-and-swap
//! so analysis runs fully concurrently with the program (§IV-C). Kernel
//! accesses land on CV device addresses; an interval tree resolves them
//! back to the OV's shadow in O(log m) and doubles as the §IV-D
//! mapping-related buffer-overflow detector. A FastTrack engine (ARBALEST
//! is built on Archer) supplies the happens-before side: data races are
//! reported and the Table II TID/clock fields are stamped from the racing
//! task's epoch.
//!
//! Reports are deduplicated per (kind, buffer, source line). Which access
//! of a parallel loop reaches a faulting line first depends on the thread
//! schedule, so each key keeps a canonical winner — the candidate with
//! the lowest address, then the lowest previous access — and
//! [`reports`](Tool::reports) lists keys in source order. Two runs of the
//! same program therefore print the same reports at any team size.

use crate::vsm::{self, StorageLoc, ViolationKind, VsmOp};
use arbalest_offload::addr::DeviceId;
use arbalest_offload::buffer::{BufferId, BufferInfo};
use arbalest_offload::events::{
    AccessEvent, DataOpEvent, DataOpKind, SrcLoc, SyncEvent, Tool, TransferEvent, TransferKind,
};
use arbalest_offload::report::{hints, PrevAccess, ProvenanceStep, Report, ReportKind};
use arbalest_offload::sections;
use arbalest_race::RaceEngine;
use arbalest_shadow::{IntervalTree, Layout, ShadowMemory};
use arbalest_sync::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deduplication key: (file, line, kind, buffer). Its order is the order
/// [`Tool::reports`] lists findings in.
type ReportKey = (&'static str, u32, ReportKind, Option<u32>);

/// Order of the candidates for one key; the least wins: lowest address,
/// then lowest previous access. The trailing fields only make the order
/// total.
fn rank(a: &Report, b: &Report) -> std::cmp::Ordering {
    let key = |r: &Report| (r.addr, r.prev.map(|p| (p.tid, p.clock, p.is_write)), r.size, r.device);
    key(a).cmp(&key(b)).then_with(|| a.message.cmp(&b.message))
}

/// Edges kept per buffer when provenance capture is on. A mapping-issue
/// story is short (map, transfer, a few accesses); the ring only has to
/// outlive the window between the decisive edges and the faulting read.
const PROV_RING_CAP: usize = 16;

/// Interval payload: which buffer a CV belongs to and where its OV lives.
#[derive(Debug, Clone, Copy)]
struct CvInfo {
    buffer: BufferId,
    ov_addr: u64,
}

/// One thread's view of one detector's interval tree.
struct TreeView {
    detector: u64,
    generation: u64,
    tree: Arc<IntervalTree<CvInfo>>,
    /// Lookups made through this view, for depth sampling.
    lookups: u32,
}

/// One lookup in this many records its depth (the first through each
/// view always does): the histogram's shared atomics would otherwise
/// cost more than the stab itself.
const DEPTH_SAMPLE_EVERY: u32 = 64;

thread_local! {
    static TREE_VIEW: RefCell<Option<TreeView>> = const { RefCell::new(None) };
}

/// Source of detector ids, so detectors sharing a thread never share a
/// tree view.
static NEXT_DETECTOR: AtomicU64 = AtomicU64::new(0);

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct ArbalestConfig {
    /// Number of accelerators the analysed program may use (≤ 7 for the
    /// multi-device shadow encoding). Chooses the shadow layout.
    pub accelerators: u16,
    /// Run the integrated happens-before race detection (Archer side).
    /// Disable only for ablation measurements.
    pub check_races: bool,
    /// Stop recording after this many distinct reports.
    pub max_reports: usize,
    /// Capture per-buffer VSM edge provenance and attach the causal chain
    /// to UUM/USD reports (the `arbalest explain` feed). Off by default:
    /// recording allocates per edge, and default-config reports must stay
    /// byte-identical with or without the feature compiled in.
    pub provenance: bool,
}

impl Default for ArbalestConfig {
    fn default() -> Self {
        ArbalestConfig {
            accelerators: 1,
            check_races: true,
            max_reports: 1024,
            provenance: false,
        }
    }
}

/// Live operation counters (§IV-C's amortisation claims, measurable).
///
/// Since the observability layer, these are registry-backed
/// [`Counter`](arbalest_obs::Counter) handles: the same cells appear in
/// metric snapshots under `arbalest_detector_*`, so exporters and these
/// accessors can never disagree.
#[derive(Debug)]
pub struct ArbalestStats {
    /// Memory accesses analysed (`arbalest_detector_accesses_total`).
    pub accesses: arbalest_obs::Counter,
    /// The `(from,op)` transition matrix the total is derived from.
    metrics: std::sync::Arc<DetectorMetrics>,
}

impl ArbalestStats {
    fn new(reg: &arbalest_obs::Registry, metrics: std::sync::Arc<DetectorMetrics>) -> ArbalestStats {
        ArbalestStats {
            accesses: reg.counter("arbalest_detector_accesses_total", &[]),
            metrics,
        }
    }

    /// VSM transitions applied — accesses + per-granule range ops.
    ///
    /// Every committed transition counts exactly one edge of
    /// `arbalest_detector_vsm_transition_pairs_total{from,op}`, so the
    /// total is the sum of that family, read here instead of paying a
    /// second hot-path RMW per transition.
    pub fn vsm_transitions(&self) -> u64 {
        self.metrics.transitions_total()
    }
}

/// VSM state labels for the `(from_state, event)` transition counters,
/// indexed by [`vsm::NamedState`] discriminant order.
const VSM_STATE_LABELS: [&str; 4] = ["invalid", "host", "target", "consistent"];

/// VSM event labels, indexed by [`vsm_op_index`].
const VSM_OP_LABELS: [&str; 10] = [
    "read_host",
    "read_target",
    "write_host",
    "write_target",
    "update_target",
    "update_host",
    "alloc",
    "release",
    "flush",
    "device_to_device",
];

fn vsm_state_index(s: vsm::NamedState) -> usize {
    match s {
        vsm::NamedState::Invalid => 0,
        vsm::NamedState::Host => 1,
        vsm::NamedState::Target => 2,
        vsm::NamedState::Consistent => 3,
    }
}

fn vsm_op_index(op: VsmOp) -> usize {
    match op {
        VsmOp::Read(StorageLoc::Host) => 0,
        VsmOp::Read(StorageLoc::Device(_)) => 1,
        VsmOp::Write(StorageLoc::Host) => 2,
        VsmOp::Write(StorageLoc::Device(_)) => 3,
        VsmOp::UpdateToDevice(_) => 4,
        VsmOp::UpdateFromDevice(_) => 5,
        VsmOp::Allocate(_) => 6,
        VsmOp::Release(_) => 7,
        VsmOp::Flush(_) => 8,
        VsmOp::UpdateDeviceToDevice { .. } => 9,
    }
}

/// Pre-registered observability handles beyond the public
/// [`ArbalestStats`] counters; all no-ops on a disabled registry.
#[derive(Debug)]
struct DetectorMetrics {
    /// `arbalest_detector_vsm_transition_pairs_total{from,op}`, indexed
    /// `[from_state][op]`; every access commits one edge, from whichever
    /// kernel thread made it. Fixed arrays: the per-access edge increment
    /// must not pay `Vec` double indirection.
    vsm_pairs: [[arbalest_obs::Counter; VSM_OP_LABELS.len()]; VSM_STATE_LABELS.len()],
    /// Failed shadow-word CAS attempts
    /// (`arbalest_detector_shadow_cas_retries_total`).
    cas_retries: arbalest_obs::Counter,
    /// Nodes visited per successful interval stab, sampled
    /// (`arbalest_detector_lookup_depth`).
    lookup_depth: arbalest_obs::Histogram,
    /// `arbalest_detector_present_ops_total{op}`: [cv_alloc, cv_delete].
    present_ops: [arbalest_obs::Counter; 2],
}

impl DetectorMetrics {
    fn new(reg: &arbalest_obs::Registry) -> DetectorMetrics {
        let vsm_pairs = std::array::from_fn(|f| {
            std::array::from_fn(|o| {
                reg.counter(
                    "arbalest_detector_vsm_transition_pairs_total",
                    &[("from", VSM_STATE_LABELS[f]), ("op", VSM_OP_LABELS[o])],
                )
            })
        });
        DetectorMetrics {
            vsm_pairs,
            cas_retries: reg.counter("arbalest_detector_shadow_cas_retries_total", &[]),
            lookup_depth: reg.histogram("arbalest_detector_lookup_depth", &[]),
            present_ops: [
                reg.counter("arbalest_detector_present_ops_total", &[("op", "cv_alloc")]),
                reg.counter("arbalest_detector_present_ops_total", &[("op", "cv_delete")]),
            ],
        }
    }

    /// Count one committed transition from the *post-commit* old word, so
    /// CAS retries never double-count an edge.
    #[inline]
    fn note_transition(&self, from: vsm::NamedState, op: VsmOp, retries: u32) {
        self.vsm_pairs[vsm_state_index(from)][vsm_op_index(op)].inc();
        if retries > 0 {
            self.cas_retries.add(u64::from(retries));
        }
    }

    /// Batched form for range operations: one counter add per occupied
    /// from-state instead of one per granule.
    fn note_transitions(&self, op: VsmOp, by_from: &[u64; 4], retries: u64) {
        let o = vsm_op_index(op);
        for (f, &count) in by_from.iter().enumerate() {
            if count > 0 {
                self.vsm_pairs[f][o].add(count);
            }
        }
        if retries > 0 {
            self.cas_retries.add(retries);
        }
    }

    /// Total committed transitions: the sum of the pair matrix.
    fn transitions_total(&self) -> u64 {
        self.vsm_pairs.iter().flatten().map(arbalest_obs::Counter::get).sum()
    }
}

/// One entry of the CV→OV interval tree in a [`DetectorSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CvInterval {
    /// CV range start (inclusive).
    pub lo: u64,
    /// CV range end (exclusive).
    pub hi: u64,
    /// Owning buffer id.
    pub buffer: u32,
    /// OV address the CV range shadows.
    pub ov_addr: u64,
}

/// One deduplication key from the detector's `seen` set. Serialized
/// separately from the reports themselves: the key holds the buffer *id*
/// while a [`Report`] holds only the buffer *name*, so the set cannot be
/// reconstructed from the report list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeenKey {
    /// Report kind.
    pub kind: ReportKind,
    /// Buffer id, when the report named one.
    pub buffer: Option<u32>,
    /// Source file of the reporting site ("" when unknown).
    pub file: String,
    /// Source line of the reporting site (0 when unknown).
    pub line: u32,
}

/// Complete serializable state of an [`Arbalest`] detector, produced by
/// [`Arbalest::to_snapshot`]. All collections are sorted: shadow pages by
/// page index, intervals by lo, buffers by id, seen keys lexicographically,
/// and `reports` in the canonical order [`Tool::reports`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorSnapshot {
    /// [`ArbalestConfig::accelerators`].
    pub accelerators: u16,
    /// [`ArbalestConfig::check_races`].
    pub check_races: bool,
    /// [`ArbalestConfig::max_reports`].
    pub max_reports: u64,
    /// Resident shadow pages ([`ShadowMemory::snapshot_pages`]).
    pub shadow_pages: Vec<(u64, Vec<u64>)>,
    /// CV→OV present-table intervals, sorted by `lo`.
    pub intervals: Vec<CvInterval>,
    /// Registered buffers, sorted by id.
    pub buffers: Vec<BufferInfo>,
    /// Findings so far, in canonical order.
    pub reports: Vec<Report>,
    /// Deduplication keys, sorted; one per report.
    pub seen: Vec<SeenKey>,
    /// Whether [`Arbalest::evict_to_may`] has run.
    pub degraded: bool,
    /// Race-engine state when race checking is on.
    pub race: Option<arbalest_race::RaceSnapshot>,
}

/// Why a [`DetectorSnapshot`] could not be installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// Shadow pages in the snapshot do not match this build's page layout.
    ShadowLayout,
    /// `check_races` and the presence of race state disagree.
    RaceMismatch,
    /// The snapshot's accelerator count exceeds the shadow encoding limit.
    TooManyAccelerators,
    /// The snapshot's reports and deduplication keys do not pair up.
    SeenMismatch,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ShadowLayout => write!(f, "snapshot shadow pages do not fit this build's page layout"),
            RestoreError::RaceMismatch => write!(f, "snapshot race state disagrees with its check_races flag"),
            RestoreError::TooManyAccelerators => write!(f, "snapshot accelerator count exceeds the 7-device shadow encoding"),
            RestoreError::SeenMismatch => write!(f, "snapshot reports do not match its deduplication keys"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// The ARBALEST tool.
pub struct Arbalest {
    cfg: ArbalestConfig,
    layout: Layout,
    shadow: ShadowMemory,
    /// CV→OV intervals. The tree is copied on write, never edited while
    /// a thread's view shares it, so lookups read it without a lock.
    intervals: Mutex<Arc<IntervalTree<CvInfo>>>,
    /// Bumped after every interval change; older tree views are refreshed.
    interval_generation: AtomicU64,
    /// Process-unique id keying thread-local tree views.
    id: u64,
    race: Option<RaceEngine>,
    buffers: RwLock<HashMap<u32, BufferInfo>>,
    /// The canonical winner per deduplication key.
    reports: Mutex<BTreeMap<ReportKey, Report>>,
    /// Per-buffer bounded rings of VSM edges, recorded only when
    /// [`ArbalestConfig::provenance`] is on; cloned into UUM/USD reports.
    prov: Mutex<HashMap<u32, std::collections::VecDeque<ProvenanceStep>>>,
    /// Logical clock stamped on provenance edges (event order, not time).
    prov_clock: std::sync::atomic::AtomicU64,
    stats: ArbalestStats,
    metrics: std::sync::Arc<DetectorMetrics>,
    registry: arbalest_obs::Registry,
    /// Set once [`evict_to_may`](Self::evict_to_may) has run: shadow state
    /// was reset, so VSM violations can no longer be asserted.
    degraded: std::sync::atomic::AtomicBool,
}

impl Default for Arbalest {
    fn default() -> Self {
        Arbalest::new(ArbalestConfig::default())
    }
}

impl Arbalest {
    /// Create a detector with a private (enabled) metrics registry, so
    /// [`stats`](Self::stats) counts as it always has.
    pub fn new(cfg: ArbalestConfig) -> Arbalest {
        Arbalest::with_registry(cfg, arbalest_obs::Registry::new())
    }

    /// Create a detector recording into `reg` — share one registry across
    /// detector, runtime, and server to get a unified metric namespace,
    /// or pass [`Registry::disabled`](arbalest_obs::Registry::disabled)
    /// to strip instrumentation down to single-branch no-ops.
    pub fn with_registry(cfg: ArbalestConfig, reg: arbalest_obs::Registry) -> Arbalest {
        assert!(cfg.accelerators <= 7, "multi-device shadow word supports up to 7 accelerators");
        let layout = Layout::for_accelerators(cfg.accelerators);
        // The pack is cached per registry: detectors sharing a registry
        // share cells anyway, so re-registering every series per detector
        // would buy nothing and cost setup time.
        let metrics = reg.state(DetectorMetrics::new);
        Arbalest {
            layout,
            shadow: ShadowMemory::new(1),
            intervals: Mutex::new(Arc::new(IntervalTree::new())),
            interval_generation: AtomicU64::new(0),
            id: NEXT_DETECTOR.fetch_add(1, Ordering::Relaxed),
            race: if cfg.check_races { Some(RaceEngine::new()) } else { None },
            buffers: RwLock::new(HashMap::new()),
            reports: Mutex::new(BTreeMap::new()),
            prov: Mutex::new(HashMap::new()),
            prov_clock: std::sync::atomic::AtomicU64::new(0),
            stats: ArbalestStats::new(&reg, metrics.clone()),
            metrics,
            registry: reg,
            cfg,
            degraded: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Shed side-table memory under resource pressure: drop every resident
    /// shadow page and the race engine's per-location access history,
    /// returning the approximate bytes freed. Freeing shadow pages needs
    /// exclusive access, hence `&mut self`: no event may be in flight.
    ///
    /// The detector keeps running afterwards in *May mode*: evicted shadow
    /// words read back as the initial state, so VSM violations (UUM/USD)
    /// can no longer be asserted and are suppressed — only claims that do
    /// not depend on evicted state (mapping-overflow checks against the
    /// retained interval tree and buffer table, and races between two
    /// post-eviction accesses) are still reported. Reports recorded before
    /// the eviction are retained. The transition is one-way.
    pub fn evict_to_may(&mut self) -> u64 {
        let before = self.side_table_bytes();
        self.shadow.evict_all();
        if let Some(r) = &mut self.race {
            r.evict_history();
        }
        self.degraded.store(true, std::sync::atomic::Ordering::Release);
        before.saturating_sub(self.side_table_bytes())
    }

    /// Whether [`evict_to_may`](Self::evict_to_may) has run on this
    /// detector, i.e. VSM findings are now May-only and suppressed.
    pub fn degraded(&self) -> bool {
        self.degraded.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Dump the complete detector state as plain data for durable session
    /// snapshots. Two detectors holding identical analysis state dump
    /// equal snapshots (every map is emitted sorted by key), and
    /// [`from_snapshot`](Self::from_snapshot) of the dump behaves
    /// identically to this detector on every subsequent event — the
    /// recovered-session byte-identical-`Finish` invariant rests on this.
    pub fn to_snapshot(&self) -> DetectorSnapshot {
        let mut intervals: Vec<CvInterval> = self
            .intervals
            .lock()
            .iter_ordered()
            .into_iter()
            .map(|(lo, hi, info)| CvInterval { lo, hi, buffer: info.buffer.0, ov_addr: info.ov_addr })
            .collect();
        intervals.sort_unstable_by_key(|iv| iv.lo);
        let mut buffers: Vec<BufferInfo> = self.buffers.read().values().cloned().collect();
        buffers.sort_unstable_by_key(|b| b.id.0);
        let reports = self.reports.lock();
        let mut seen: Vec<SeenKey> = reports
            .keys()
            .map(|&(file, line, kind, buffer)| SeenKey { kind, buffer, file: file.to_string(), line })
            .collect();
        seen.sort_unstable_by(|a, b| {
            (a.kind, a.buffer, &a.file, a.line).cmp(&(b.kind, b.buffer, &b.file, b.line))
        });
        DetectorSnapshot {
            accelerators: self.cfg.accelerators,
            check_races: self.cfg.check_races,
            max_reports: self.cfg.max_reports as u64,
            shadow_pages: self.shadow.snapshot_pages(),
            intervals,
            buffers,
            reports: reports.values().cloned().collect(),
            seen,
            degraded: self.degraded(),
            race: self.race.as_ref().map(|r| r.to_snapshot()),
        }
    }

    /// Rebuild a detector from a [`DetectorSnapshot`], recording metrics
    /// into `reg`; it resumes exactly where the dumped detector stopped.
    /// Reports may come in any order (older snapshots kept insertion
    /// order): each is paired with its deduplication key by kind, buffer
    /// name and source line.
    pub fn from_snapshot(
        snap: &DetectorSnapshot,
        reg: arbalest_obs::Registry,
    ) -> Result<Arbalest, RestoreError> {
        if snap.accelerators > 7 {
            return Err(RestoreError::TooManyAccelerators);
        }
        if snap.check_races != snap.race.is_some() {
            return Err(RestoreError::RaceMismatch);
        }
        let cfg = ArbalestConfig {
            accelerators: snap.accelerators,
            check_races: snap.check_races,
            max_reports: snap.max_reports as usize,
            // Provenance rings are transient working memory, deliberately
            // excluded from snapshots (the feature is off on every durable
            // path); a restored detector restarts with capture off.
            provenance: false,
        };
        let layout = Layout::for_accelerators(cfg.accelerators);
        let metrics = reg.state(DetectorMetrics::new);
        let mut shadow = ShadowMemory::new(1);
        if !shadow.restore_pages(&snap.shadow_pages) {
            return Err(RestoreError::ShadowLayout);
        }
        let mut intervals = IntervalTree::new();
        for iv in &snap.intervals {
            intervals.insert(
                iv.lo,
                iv.hi,
                CvInfo { buffer: BufferId(iv.buffer), ov_addr: iv.ov_addr },
            );
        }
        let buffers: HashMap<u32, BufferInfo> =
            snap.buffers.iter().map(|b| (b.id.0, b.clone())).collect();
        let reports = pair_reports(&snap.reports, &snap.seen, &buffers)?;
        Ok(Arbalest {
            layout,
            shadow,
            intervals: Mutex::new(Arc::new(intervals)),
            interval_generation: AtomicU64::new(0),
            id: NEXT_DETECTOR.fetch_add(1, Ordering::Relaxed),
            race: snap.race.as_ref().map(RaceEngine::from_snapshot),
            buffers: RwLock::new(buffers),
            reports: Mutex::new(reports),
            prov: Mutex::new(HashMap::new()),
            prov_clock: std::sync::atomic::AtomicU64::new(0),
            stats: ArbalestStats::new(&reg, metrics.clone()),
            metrics,
            registry: reg,
            cfg,
            degraded: std::sync::atomic::AtomicBool::new(snap.degraded),
        })
    }

    /// Live operation counters.
    pub fn stats(&self) -> &ArbalestStats {
        &self.stats
    }

    /// The metrics registry this detector records into.
    pub fn registry(&self) -> &arbalest_obs::Registry {
        &self.registry
    }

    /// The shadow layout in use (Table II vs multi-device).
    pub fn layout(&self) -> Layout {
        self.layout
    }

    fn buffer_name(&self, id: Option<BufferId>) -> Option<String> {
        let id = id?;
        self.buffers.read().get(&id.0).map(|b| b.name.clone())
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        kind: ReportKind,
        message: String,
        buffer: Option<BufferId>,
        device: DeviceId,
        addr: u64,
        size: usize,
        loc: Option<SrcLoc>,
        prev: Option<PrevAccess>,
        suggested_fix: Option<String>,
        provenance: Vec<ProvenanceStep>,
    ) {
        let key = (
            loc.map(|l| l.file).unwrap_or(""),
            loc.map(|l| l.line).unwrap_or(0),
            kind,
            buffer.map(|b| b.0),
        );
        let mut report = Report {
            tool: "arbalest",
            kind,
            message,
            buffer: None,
            device,
            addr,
            size,
            loc,
            prev,
            suggested_fix,
            provenance: Vec::new(),
        };
        let mut reports = self.reports.lock();
        let full = reports.len() >= self.cfg.max_reports;
        report.provenance = match reports.get_mut(&key) {
            Some(winner) if rank(winner, &report).is_le() => return,
            // The chain stays the key's first one: recorded closest to the
            // decisive edges, it tells the story best. Chains are never
            // rendered and depend on the schedule in any case.
            Some(winner) => std::mem::take(&mut winner.provenance),
            None if full => return,
            None => provenance,
        };
        report.buffer = self.buffer_name(buffer);
        reports.insert(key, report);
    }

    /// Record one VSM edge in the buffer's provenance ring (bounded at
    /// [`PROV_RING_CAP`] — old edges fall off the front). No-op unless
    /// [`ArbalestConfig::provenance`] is on.
    fn prov_note(
        &self,
        buffer: Option<BufferId>,
        op: VsmOp,
        from: vsm::NamedState,
        to: vsm::NamedState,
        loc: Option<SrcLoc>,
        tid: u16,
    ) {
        if !self.cfg.provenance {
            return;
        }
        let Some(buffer) = buffer else { return };
        let clock = self.prov_clock.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let step = ProvenanceStep {
            op: VSM_OP_LABELS[vsm_op_index(op)].to_string(),
            from: VSM_STATE_LABELS[vsm_state_index(from)].to_string(),
            to: VSM_STATE_LABELS[vsm_state_index(to)].to_string(),
            loc,
            tid,
            clock,
        };
        let mut prov = self.prov.lock();
        let ring = prov.entry(buffer.0).or_default();
        if ring.len() >= PROV_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(step);
    }

    /// The buffer's current provenance chain, oldest edge first; empty
    /// when capture is off or nothing was recorded.
    fn prov_chain(&self, buffer: Option<BufferId>) -> Vec<ProvenanceStep> {
        if !self.cfg.provenance {
            return Vec::new();
        }
        let Some(buffer) = buffer else { return Vec::new() };
        self.prov
            .lock()
            .get(&buffer.0)
            .map(|ring| ring.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Resolve a device (CV) address to its owning interval through this
    /// thread's view of the tree, refreshed under the lock only after an
    /// interval change.
    fn lookup(&self, addr: u64) -> Option<(u64, u64, CvInfo)> {
        // Generation first: a change racing with the refresh leaves the
        // view stamped older, so it is refreshed again.
        let generation = self.interval_generation.load(Ordering::Acquire);
        TREE_VIEW.with(|cell| {
            let mut view = cell.borrow_mut();
            if !matches!(&*view, Some(v) if v.detector == self.id && v.generation == generation) {
                let tree = self.intervals.lock().clone();
                *view = Some(TreeView { detector: self.id, generation, tree, lookups: 0 });
            }
            let view = view.as_mut().expect("view installed above");
            let (lo, hi, info, depth) = view.tree.stab_with_depth(addr)?;
            if view.lookups % DEPTH_SAMPLE_EVERY == 0 {
                self.metrics.lookup_depth.record(u64::from(depth));
            }
            view.lookups = view.lookups.wrapping_add(1);
            Some((lo, hi, *info))
        })
    }

    /// Edit the interval tree (copying it if a view shares it) and
    /// invalidate every thread's view.
    fn edit_intervals(&self, f: impl FnOnce(&mut IntervalTree<CvInfo>)) {
        let mut tree = self.intervals.lock();
        f(Arc::make_mut(&mut tree));
        self.interval_generation.fetch_add(1, Ordering::Release);
    }

    /// Apply a VSM operation to one granule's shadow word, stamping the
    /// Table II epoch fields with the access's `epoch`; returns the
    /// violation and the *previous* word's recorded access for the report.
    fn vsm_step(
        &self,
        key: u64,
        op: VsmOp,
        ev: &AccessEvent,
        epoch: arbalest_race::Epoch,
    ) -> (Option<vsm::Violation>, PrevAccess) {
        let mut violation = None;
        // The closure may re-run on CAS contention, so per-edge counting
        // happens *after* commit, from the old word that actually won.
        let (old, new, retries) = self.shadow.update_counted(key & !7, 0, |w| {
            let state = self.layout.decode(w);
            let (mut next, v) = vsm::apply(state, op);
            violation = v;
            next.tid = epoch.tid;
            next.clock = epoch.clock;
            next.is_write = ev.is_write;
            next.access_size = ev.size as u8;
            next.addr_offset = (ev.addr & 7) as u8;
            self.layout.encode(next)
        });
        let old_state = self.layout.decode(old);
        self.metrics.note_transition(vsm::named(old_state), op, retries);
        if self.cfg.provenance {
            self.prov_note(
                ev.buffer,
                op,
                vsm::named(old_state),
                vsm::named(self.layout.decode(new)),
                Some(ev.loc),
                epoch.tid,
            );
        }
        let prev =
            PrevAccess { tid: old_state.tid, clock: old_state.clock, is_write: old_state.is_write };
        (violation, prev)
    }

    /// Apply a VSM operation across a granule range; returns the first
    /// granule's `(from, to)` named states (the representative edge for
    /// provenance capture), or `None` for an empty range.
    fn vsm_range(
        &self,
        ov_addr: u64,
        len: u64,
        op: VsmOp,
    ) -> Option<(vsm::NamedState, vsm::NamedState)> {
        // Accumulate locally and flush once: range ops dominate transition
        // volume, and per-granule counter traffic is what the ≤5%
        // observability budget cannot afford.
        let mut by_from = [0u64; 4];
        let mut retries_total = 0u64;
        let mut first_edge = None;
        self.shadow.update_range_counted(
            ov_addr,
            len,
            0,
            |w| self.layout.encode(vsm::apply(self.layout.decode(w), op).0),
            |old, new, retries| {
                let from = vsm::named(self.layout.decode(old));
                by_from[vsm_state_index(from)] += 1;
                first_edge.get_or_insert_with(|| (from, vsm::named(self.layout.decode(new))));
                retries_total += u64::from(retries);
            },
        );
        self.metrics.note_transitions(op, &by_from, retries_total);
        first_edge
    }

    /// Race-check one access and return the epoch its shadow word is
    /// stamped with (zero without a race engine).
    fn race_access(&self, ev: &AccessEvent) -> arbalest_race::Epoch {
        let Some(engine) = &self.race else { return arbalest_race::Epoch::ZERO };
        if ev.atomic {
            // `omp atomic` accesses are synchronised by definition.
            return engine.epoch_of(ev.task.0);
        }
        let (info, epoch) = engine.check_access(ev.task.0, ev.addr, ev.size as u8, ev.is_write);
        if let Some(r) = info {
            self.report(
                ReportKind::DataRace,
                format!(
                    "{} of size {} races with a previous {} by T{}",
                    if ev.is_write { "write" } else { "read" },
                    ev.size,
                    if r.prev_was_write { "write" } else { "read" },
                    r.prev_tid
                ),
                ev.buffer,
                ev.device,
                ev.addr,
                ev.size,
                Some(ev.loc),
                Some(PrevAccess { tid: r.prev_tid, clock: r.prev_clock, is_write: r.prev_was_write }),
                Some(hints::ORDER_ACCESSES.into()),
                Vec::new(),
            );
        }
        epoch
    }
}

/// Pair snapshot reports with their deduplication keys. Keys name the
/// buffer by id and reports by name, so both sides are matched on
/// (kind, buffer name, file, line).
fn pair_reports(
    reports: &[Report],
    seen: &[SeenKey],
    buffers: &HashMap<u32, BufferInfo>,
) -> Result<BTreeMap<ReportKey, Report>, RestoreError> {
    if reports.len() != seen.len() {
        return Err(RestoreError::SeenMismatch);
    }
    let mut keys: HashMap<(ReportKind, Option<&str>, &str, u32), Vec<ReportKey>> = HashMap::new();
    for k in seen.iter().rev() {
        let name = k.buffer.and_then(|id| buffers.get(&id)).map(|b| b.name.as_str());
        // Re-intern the file path so the key's &'static str compares
        // identically to keys made by future reports.
        let file = SrcLoc::intern(&k.file, 0, 0).file;
        keys.entry((k.kind, name, &k.file, k.line)).or_default().push((file, k.line, k.kind, k.buffer));
    }
    let mut out = BTreeMap::new();
    for r in reports {
        let id = (r.kind, r.buffer.as_deref(), r.loc.map_or("", |l| l.file), r.loc.map_or(0, |l| l.line));
        let key = keys.get_mut(&id).and_then(Vec::pop).ok_or(RestoreError::SeenMismatch)?;
        out.insert(key, r.clone());
    }
    Ok(out)
}

impl Tool for Arbalest {
    fn name(&self) -> &'static str {
        "arbalest"
    }

    fn on_buffer_registered(&self, info: &BufferInfo) {
        // Shadow defaults to the all-zero word — VSM `invalid`, exactly
        // the paper's initial state for a fresh variable.
        self.buffers.write().insert(info.id.0, info.clone());
    }

    fn on_data_op(&self, ev: &DataOpEvent) {
        let d = ev.device.0 as u8;
        match ev.kind {
            DataOpKind::CvAlloc => {
                self.metrics.present_ops[0].inc();
                self.edit_intervals(|tree| {
                    tree.insert(
                        ev.cv_base,
                        ev.cv_base + ev.len,
                        CvInfo { buffer: ev.buffer, ov_addr: ev.ov_addr },
                    );
                });
                let op = VsmOp::Allocate(d);
                if let Some((from, to)) = self.vsm_range(ev.ov_addr, ev.len, op) {
                    self.prov_note(Some(ev.buffer), op, from, to, None, ev.task.0 as u16);
                }
            }
            DataOpKind::CvDelete => {
                self.metrics.present_ops[1].inc();
                self.edit_intervals(|tree| {
                    tree.remove(ev.cv_base);
                });
                let op = VsmOp::Release(d);
                if let Some((from, to)) = self.vsm_range(ev.ov_addr, ev.len, op) {
                    self.prov_note(Some(ev.buffer), op, from, to, None, ev.task.0 as u16);
                }
            }
        }
    }

    fn on_transfer(&self, ev: &TransferEvent) {
        let (ov_addr, device) = match ev.kind {
            TransferKind::ToDevice => (ev.src_addr, ev.dst_device),
            TransferKind::FromDevice => (ev.dst_addr, ev.src_device),
            TransferKind::DeviceToDevice => {
                // Resolve the shadow anchor through the source CV's
                // interval; both CVs shadow the same OV range.
                let Some((lo, _hi, info)) = self.lookup(ev.src_addr) else { return };
                (info.ov_addr + (ev.src_addr - lo), ev.dst_device)
            }
        };
        let d = device.0 as u8;

        // Mapping-related buffer overflow in the *transfer* itself: the
        // array section walks outside the original variable (§IV-D).
        if let Some(info) = self.buffers.read().get(&ev.buffer.0) {
            if ov_addr < info.ov_base || ov_addr + ev.len > info.ov_end() {
                self.report(
                    ReportKind::MappingOverflow,
                    format!(
                        "mapped array section [{:#x}, {:#x}) exceeds variable '{}' [{:#x}, {:#x})",
                        ov_addr,
                        ov_addr + ev.len,
                        info.name,
                        info.ov_base,
                        info.ov_end()
                    ),
                    Some(ev.buffer),
                    device,
                    ov_addr,
                    ev.len as usize,
                    None,
                    None,
                    Some(hints::shrink_section(&info.name)),
                    Vec::new(),
                );
            }
        }

        // Happens-before: a transfer reads its source range and writes its
        // destination range on the transferring task. Fig. 2's exit
        // transfer racing a nowait kernel is caught here. Unified flushes
        // move no data and are skipped.
        if !ev.unified {
            if let Some(engine) = &self.race {
                let read_race = engine.check_read_range(ev.task.0, ev.src_addr, ev.len);
                let write_race = engine.check_write_range(ev.task.0, ev.dst_addr, ev.len);
                if let Some(r) = read_race.or(write_race) {
                    self.report(
                        ReportKind::DataRace,
                        format!(
                            "implicit data transfer of '{}' races with a concurrent {} by T{}",
                            self.buffer_name(Some(ev.buffer)).unwrap_or_default(),
                            if r.prev_was_write { "write" } else { "read" },
                            r.prev_tid
                        ),
                        Some(ev.buffer),
                        device,
                        ov_addr,
                        ev.len as usize,
                        None,
                        Some(PrevAccess {
                            tid: r.prev_tid,
                            clock: r.prev_clock,
                            is_write: r.prev_was_write,
                        }),
                        Some(hints::SYNC_BEFORE_TRANSFER.into()),
                        Vec::new(),
                    );
                }
            }
        }

        // VSM range update. Clamp to the variable's extent so a
        // transfer-overflow does not scribble on a neighbour's shadow.
        let clamped = match self.buffers.read().get(&ev.buffer.0) {
            Some(info) => {
                sections::intersect(ov_addr, ov_addr + ev.len, info.ov_base, info.ov_end())
            }
            None if ev.len > 0 => Some((ov_addr, ov_addr + ev.len)),
            None => None,
        };
        if let Some((lo, hi)) = clamped {
            let op = if ev.unified {
                VsmOp::Flush(d)
            } else {
                match ev.kind {
                    TransferKind::ToDevice => VsmOp::UpdateToDevice(d),
                    TransferKind::FromDevice => VsmOp::UpdateFromDevice(d),
                    TransferKind::DeviceToDevice => VsmOp::UpdateDeviceToDevice {
                        src: ev.src_device.0 as u8,
                        dst: ev.dst_device.0 as u8,
                    },
                }
            };
            if let Some((from, to)) = self.vsm_range(lo, hi - lo, op) {
                self.prov_note(Some(ev.buffer), op, from, to, None, ev.task.0 as u16);
            }
        }
    }

    fn on_access(&self, ev: &AccessEvent) {
        self.stats.accesses.inc();
        let epoch = self.race_access(ev);

        let (key, loc) = if ev.device.is_host() {
            (ev.addr, StorageLoc::Host)
        } else {
            if !ev.mapped {
                self.report(
                    ReportKind::MappingOverflow,
                    "kernel accessed a variable absent from the device data environment (missing map clause)".into(),
                    ev.buffer,
                    ev.device,
                    ev.addr,
                    ev.size,
                    Some(ev.loc),
                    None,
                    Some(hints::ADD_MAP.into()),
                    Vec::new(),
                );
                return;
            }
            match self.lookup(ev.addr) {
                None => {
                    self.report(
                        ReportKind::MappingOverflow,
                        "kernel access outside every mapped corresponding variable".into(),
                        ev.buffer,
                        ev.device,
                        ev.addr,
                        ev.size,
                        Some(ev.loc),
                        None,
                        Some(hints::CHECK_BOUNDS.into()),
                        Vec::new(),
                    );
                    return;
                }
                Some((lo, _hi, info)) => {
                    if let Some(b) = ev.buffer {
                        if b != info.buffer {
                            // The access landed inside a *different*
                            // variable's CV — the undefined-behaviour case
                            // of §IV-D.
                            self.report(
                                ReportKind::MappingOverflow,
                                format!(
                                    "kernel access to '{}' overflowed into the corresponding variable of '{}'",
                                    self.buffer_name(ev.buffer).unwrap_or_default(),
                                    self.buffer_name(Some(info.buffer)).unwrap_or_default()
                                ),
                                ev.buffer,
                                ev.device,
                                ev.addr,
                                ev.size,
                                Some(ev.loc),
                                None,
                                Some(hints::CHECK_SECTION.into()),
                                Vec::new(),
                            );
                            return;
                        }
                    }
                    (info.ov_addr + (ev.addr - lo), StorageLoc::Device(ev.device.0 as u8))
                }
            }
        };

        let op = if ev.is_write { VsmOp::Write(loc) } else { VsmOp::Read(loc) };
        let (violation, prev) = self.vsm_step(key, op, ev, epoch);
        // In May mode the shadow was evicted: decoded states are no longer
        // trustworthy, so a Must claim derived from them would be a false
        // positive. Transitions still commit (re-warming the shadow keeps
        // the accounting honest); only the violation verdict is dropped.
        if self.degraded() {
            return;
        }
        if let Some(v) = violation {
            let (kind, what, fix) = match v.kind {
                ViolationKind::Uum => (
                    ReportKind::MappingUum,
                    "use of uninitialized memory",
                    hints::for_read(ReportKind::MappingUum, ev.device),
                ),
                ViolationKind::Usd => (
                    ReportKind::MappingUsd,
                    "use of stale data",
                    hints::for_read(ReportKind::MappingUsd, ev.device),
                ),
            };
            self.report(
                kind,
                format!(
                    "{what}: read of '{}' on {} did not observe the last write",
                    self.buffer_name(ev.buffer).unwrap_or_default(),
                    ev.device
                ),
                ev.buffer,
                ev.device,
                ev.addr,
                ev.size,
                Some(ev.loc),
                Some(prev),
                Some(fix.to_string()),
                self.prov_chain(ev.buffer),
            );
        }
    }

    fn on_sync(&self, ev: &SyncEvent) {
        let Some(engine) = &self.race else { return };
        match ev {
            SyncEvent::TaskCreate { parent, child } => engine.fork(parent.0, child.0),
            SyncEvent::TaskEnd { task } => engine.end(task.0),
            SyncEvent::TaskJoin { waiter, joined } => engine.join(waiter.0, joined.0),
            SyncEvent::Acquire { task, lock } => engine.acquire(task.0, *lock),
            SyncEvent::Release { task, lock } => engine.release(task.0, *lock),
        }
    }

    fn reports(&self) -> Vec<Report> {
        self.reports.lock().values().cloned().collect()
    }

    fn side_table_bytes(&self) -> u64 {
        let mut bytes = self.shadow.resident_bytes() + self.intervals.lock().approx_bytes();
        if let Some(r) = &self.race {
            bytes += r.approx_bytes();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_offload::prelude::*;
    use std::sync::Arc;

    fn harness(cfg: ArbalestConfig) -> (Runtime, Arc<Arbalest>) {
        let tool = Arc::new(Arbalest::new(cfg));
        let rt = Runtime::with_tool(Config::default(), tool.clone());
        (rt, tool)
    }

    fn kinds(tool: &Arbalest) -> Vec<ReportKind> {
        let mut v: Vec<ReportKind> = tool.reports().iter().map(|r| r.kind).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn clean_program_produces_no_reports() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_with::<f64>("a", 64, |i| i as f64);
        let b = rt.alloc::<f64>("b", 64);
        rt.target().map(Map::to(&a)).map(Map::from(&b)).run(move |k| {
            k.par_for(0..64, |k, i| {
                let v = k.read(&a, i);
                k.write(&b, i, 2.0 * v);
            });
        });
        let sum: f64 = (0..64).map(|i| rt.read(&b, i)).sum();
        assert_eq!(sum, 2.0 * (63.0 * 64.0 / 2.0));
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
    }

    #[test]
    fn figure1_alloc_instead_of_to_is_uum() {
        // DRACC_OMP_022 shape: map(alloc: b) then read b in the kernel.
        let (rt, tool) = harness(ArbalestConfig::default());
        let b = rt.alloc_with::<f64>("b", 32, |_| 1.0);
        let c = rt.alloc_with::<f64>("c", 32, |_| 0.0);
        rt.target().map(Map::alloc(&b)).map(Map::tofrom(&c)).run(move |k| {
            k.for_each(0..32, |k, i| {
                let v = k.read(&b, i); // UUM: CV of b allocated, never filled
                k.write(&c, i, v);
            });
        });
        assert_eq!(kinds(&tool), vec![ReportKind::MappingUum]);
        let r = &tool.reports()[0];
        assert_eq!(r.buffer.as_deref(), Some("b"));
        assert!(r.suggested_fix.is_some());
    }

    #[test]
    fn figure2_map_to_stale_host_read_is_usd() {
        // Fig. 2 lines 1–5: map(to: a); kernel writes a; host reads a.
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_init::<i64>("a", &[1]);
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..1, |k, _| {
                let v = k.read(&a, 0);
                k.write(&a, 0, v + 1);
            });
        });
        let _stale = rt.read(&a, 0);
        assert_eq!(kinds(&tool), vec![ReportKind::MappingUsd]);
        assert!(tool.reports()[0].suggested_fix.as_deref().unwrap().contains("tofrom"));
    }

    #[test]
    fn provenance_chain_tells_the_uum_story() {
        // Figure 1 shape with provenance capture on: the report must carry
        // the causal VSM walk — alloc (invalid stays invalid on the read
        // path) followed by the faulting device read.
        let (rt, tool) =
            harness(ArbalestConfig { provenance: true, ..Default::default() });
        let b = rt.alloc_with::<f64>("b", 32, |_| 1.0);
        let c = rt.alloc_with::<f64>("c", 32, |_| 0.0);
        rt.target().map(Map::alloc(&b)).map(Map::tofrom(&c)).run(move |k| {
            k.for_each(0..32, |k, i| {
                let v = k.read(&b, i);
                k.write(&c, i, v);
            });
        });
        let reports = tool.reports();
        let r = reports.iter().find(|r| r.kind == ReportKind::MappingUum).unwrap();
        assert!(!r.provenance.is_empty(), "provenance chain missing");
        let ops: Vec<&str> = r.provenance.iter().map(|s| s.op.as_str()).collect();
        assert!(ops.contains(&"alloc"), "{ops:?}");
        assert!(ops.contains(&"read_target"), "{ops:?}");
        // Edges are in causal order (clock strictly increases) and use the
        // stable state vocabulary.
        for w in r.provenance.windows(2) {
            assert!(w[0].clock < w[1].clock);
        }
        for s in &r.provenance {
            assert!(VSM_STATE_LABELS.contains(&s.from.as_str()), "{s:?}");
            assert!(VSM_STATE_LABELS.contains(&s.to.as_str()), "{s:?}");
        }
        // The faulting read's edge carries its source location.
        let last = r.provenance.last().unwrap();
        assert_eq!(last.op, "read_target");
        assert!(last.loc.is_some());
    }

    #[test]
    fn provenance_chain_tells_the_usd_story() {
        // Figure 2 shape: the chain must show the device write followed by
        // the stale host read, matching the USD hint's vocabulary.
        let (rt, tool) =
            harness(ArbalestConfig { provenance: true, ..Default::default() });
        let a = rt.alloc_init::<i64>("a", &[1]);
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..1, |k, _| {
                let v = k.read(&a, 0);
                k.write(&a, 0, v + 1);
            });
        });
        let _stale = rt.read(&a, 0);
        let reports = tool.reports();
        let r = reports.iter().find(|r| r.kind == ReportKind::MappingUsd).unwrap();
        let ops: Vec<&str> = r.provenance.iter().map(|s| s.op.as_str()).collect();
        assert!(ops.contains(&"update_target"), "{ops:?}");
        assert!(ops.contains(&"write_target"), "{ops:?}");
        assert_eq!(ops.last(), Some(&"read_host"), "{ops:?}");
        // The decisive edge: the device write left the fresh value on the
        // target, which is exactly what the USD_HOST hint says.
        let w = r.provenance.iter().find(|s| s.op == "write_target").unwrap();
        assert_eq!(w.to, "target");
        assert!(r.suggested_fix.as_deref().unwrap().contains("update from"));
    }

    #[test]
    fn provenance_off_leaves_reports_untouched() {
        // The same buggy trace with capture off and on: identical reports
        // except for the chain itself (off ⇒ empty).
        let run = |provenance: bool| {
            let (rt, tool) = harness(ArbalestConfig { provenance, ..Default::default() });
            let b = rt.alloc_with::<f64>("b", 32, |_| 1.0);
            rt.target().map(Map::alloc(&b)).run(move |k| {
                k.for_each(0..32, |k, i| {
                    let _ = k.read(&b, i);
                });
            });
            tool.reports()
        };
        let off = run(false);
        let on = run(true);
        assert!(off.iter().all(|r| r.provenance.is_empty()));
        assert!(on.iter().any(|r| !r.provenance.is_empty()));
        let mut stripped = on.clone();
        for r in &mut stripped {
            r.provenance.clear();
        }
        assert_eq!(off, stripped);
        // render() ignores the chain entirely.
        assert_eq!(off[0].render(), on[0].render());
    }

    #[test]
    fn provenance_ring_is_bounded() {
        let (rt, tool) =
            harness(ArbalestConfig { provenance: true, ..Default::default() });
        let a = rt.alloc_init::<i64>("a", &[1]);
        // Far more edges than the ring holds: repeated map/unmap churn.
        for _ in 0..PROV_RING_CAP * 4 {
            rt.target().map(Map::to(&a)).run(move |k| {
                k.for_each(0..1, |k, _| {
                    let _ = k.read(&a, 0);
                });
            });
        }
        let _stale_check = rt.read(&a, 0);
        for r in tool.reports() {
            assert!(r.provenance.len() <= PROV_RING_CAP, "{}", r.provenance.len());
        }
    }

    #[test]
    fn kernel_overflow_into_neighbour_cv_is_mapping_bo() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_with::<f64>("a", 8, |_| 1.0);
        let b = rt.alloc_with::<f64>("b", 8, |_| 2.0);
        rt.target().map(Map::to(&a)).map(Map::to(&b)).run(move |k| {
            k.for_each(0..1, |k, _| {
                // a[12] lands beyond a's CV. With bump allocation b's CV is
                // nearby; either way it is a mapping-related overflow.
                let _ = k.read(&a, 12);
            });
        });
        assert_eq!(kinds(&tool), vec![ReportKind::MappingOverflow]);
    }

    #[test]
    fn oversized_section_flagged_at_transfer() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_with::<f64>("a", 8, |_| 1.0);
        // map(to: a[0:12]) — section exceeds the variable.
        rt.target().map(Map::to_section(&a, 0, 12)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let _ = k.read(&a, i);
            });
        });
        assert!(kinds(&tool).contains(&ReportKind::MappingOverflow));
    }

    #[test]
    fn missing_map_is_reported() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_with::<f64>("a", 8, |_| 1.0);
        let b = rt.alloc_with::<f64>("b", 8, |_| 0.0);
        rt.target().map(Map::tofrom(&b)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let v = k.read(&a, i); // `a` never mapped
                k.write(&b, i, v);
            });
        });
        let reports = tool.reports();
        assert!(reports.iter().any(|r| r.kind == ReportKind::MappingOverflow
            && r.message.contains("missing map clause")));
    }

    #[test]
    fn update_constructs_restore_consistency() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_init::<i64>("a", &[5; 8]);
        rt.target_data().map(Map::to(&a)).scope(|rt| {
            rt.target().map(Map::to(&a)).run(move |k| {
                k.for_each(0..8, |k, i| {
                    let v = k.read(&a, i);
                    k.write(&a, i, v * 2);
                });
            });
            rt.update_from(&a); // pulls the device values back
            for i in 0..8 {
                assert_eq!(rt.read(&a, i), 10);
            }
        });
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
    }

    #[test]
    fn nowait_exit_transfer_race_is_detected_in_serial_mode() {
        // Fig. 2 lines 7–16, run under Theorem-1 serialization: the VSM
        // sees a deterministic schedule while the race engine still sees
        // the unordered host write vs kernel write.
        let tool = Arc::new(Arbalest::new(ArbalestConfig::default()));
        let rt = Runtime::with_tool(Config::default().serialize(true), tool.clone());
        let a = rt.alloc_init::<i64>("a", &[1]);
        rt.target_data().map(Map::tofrom(&a)).scope(|rt| {
            rt.target().nowait().run(move |k| {
                k.for_each(0..1, |k, _| k.write(&a, 0, 3));
            });
            rt.write(&a, 0, rt.read(&a, 0) + 1); // races with the kernel
        });
        rt.taskwait();
        assert!(
            tool.reports().iter().any(|r| r.kind == ReportKind::DataRace),
            "expected a data race report: {:?}",
            tool.reports()
        );
    }

    #[test]
    fn unified_memory_flushes_prevent_false_positives() {
        // §III-B: under unified memory, a data-race-free program is free of
        // mapping issues even with map(to) only — the implicit flushes at
        // region boundaries synchronise the views. ARBALEST must not
        // report USD here.
        let tool = Arc::new(Arbalest::new(ArbalestConfig::default()));
        let rt = Runtime::with_tool(Config::default().unified(true), tool.clone());
        let a = rt.alloc_init::<i64>("a", &[1]);
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..1, |k, _| {
                let v = k.read(&a, 0);
                k.write(&a, 0, v + 1);
            });
        });
        assert_eq!(rt.read(&a, 0), 2, "unified memory shares storage");
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
    }

    #[test]
    fn multi_device_stale_second_accelerator() {
        let tool = Arc::new(Arbalest::new(ArbalestConfig { accelerators: 2, ..Default::default() }));
        assert_eq!(tool.layout(), Layout::MultiDevice);
        let rt = Runtime::with_tool(Config::default().accelerators(2), tool.clone());
        let a = rt.alloc_init::<i64>("a", &[7; 4]);
        let d0 = DeviceId(1);
        let d1 = DeviceId(2);
        // Map to both devices, write on device 0, then read on device 1:
        // device 1's CV is stale.
        rt.target_enter_data(d0, &[Map::to(&a)]);
        rt.target_enter_data(d1, &[Map::to(&a)]);
        rt.target().on_device(d0).map(Map::to(&a)).run(move |k| {
            k.for_each(0..4, |k, i| k.write(&a, i, 100));
        });
        rt.target().on_device(d1).map(Map::to(&a)).run(move |k| {
            k.for_each(0..4, |k, i| {
                let _ = k.read(&a, i); // stale
            });
        });
        assert!(kinds(&tool).contains(&ReportKind::MappingUsd));
    }

    #[test]
    fn reports_deduplicate_per_site() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc::<f64>("a", 128);
        // 128 faulting reads from one source line → one report.
        for i in 0..128 {
            let _ = rt.read(&a, i);
        }
        assert_eq!(tool.reports().len(), 1);
        assert_eq!(tool.reports()[0].kind, ReportKind::MappingUum);
    }

    #[test]
    fn dedup_keeps_the_canonical_winner_whatever_the_arrival_order() {
        // Faulting reads from one site in two orders, as two schedules of
        // a parallel loop would deliver them: the lowest address wins.
        let run = |order: &[usize]| {
            let (rt, tool) = harness(ArbalestConfig::default());
            let a = rt.alloc::<f64>("a", 8);
            for &i in order {
                let _ = rt.read(&a, i);
            }
            tool.reports()
        };
        let first = run(&[5, 2, 7]);
        assert_eq!(first.len(), 1);
        assert_eq!(first, run(&[7, 5, 2]));
        assert_eq!(first, run(&[2]), "the read of a[2] must win");
    }

    #[test]
    fn snapshot_pairs_reports_with_keys_in_any_order() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc::<f64>("a", 8);
        let b = rt.alloc::<f64>("b", 8);
        let _ = rt.read(&b, 0);
        let _ = rt.read(&a, 0);
        rt.target().map(Map::to_section(&a, 0, 12)).run(|_| {});
        let snap = tool.to_snapshot();
        assert!(snap.reports.len() >= 3, "{:?}", snap.reports);
        // Older snapshots kept insertion order; any order must restore to
        // the same keyed state.
        let mut shuffled = snap.clone();
        shuffled.reports.reverse();
        let back = Arbalest::from_snapshot(&shuffled, arbalest_obs::Registry::disabled()).unwrap();
        assert_eq!(back.to_snapshot(), snap);
        let mut orphan = snap.clone();
        orphan.seen.pop();
        assert_eq!(
            Arbalest::from_snapshot(&orphan, arbalest_obs::Registry::disabled()).err(),
            Some(RestoreError::SeenMismatch)
        );
    }

    #[test]
    fn transition_pairs_and_lookup_depth_are_recorded() {
        let reg = arbalest_obs::Registry::new();
        let tool = Arc::new(Arbalest::with_registry(ArbalestConfig::default(), reg.clone()));
        let rt = Runtime::with_tool(Config::default(), tool.clone());
        let a = rt.alloc_with::<f64>("a", 16, |i| i as f64);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.for_each(0..16, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1.0);
            });
        });
        rt.taskwait();
        let snap = reg.snapshot();
        // The per-pair breakdown sums to the aggregate transition count.
        assert_eq!(
            snap.counter_sum("arbalest_detector_vsm_transition_pairs_total"),
            tool.stats().vsm_transitions()
        );
        // map(tofrom) allocates CVs: alloc edges must exist (from the
        // `host` state — the buffer was host-initialised before mapping).
        let allocs: u64 = snap
            .counters_named("arbalest_detector_vsm_transition_pairs_total")
            .filter(|(labels, _)| labels.iter().any(|(k, v)| k == "op" && v == "alloc"))
            .map(|(_, v)| v)
            .sum();
        assert!(allocs > 0, "no alloc transition edges recorded");
        // Device reads resolved through the interval tree record a depth.
        let depth = snap.histogram("arbalest_detector_lookup_depth", &[]).unwrap();
        assert!(depth.count > 0);
        assert!(depth.min >= 1);
        // One CV allocated and deleted through the present table.
        assert_eq!(
            snap.counter("arbalest_detector_present_ops_total", &[("op", "cv_alloc")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("arbalest_detector_present_ops_total", &[("op", "cv_delete")]),
            Some(1)
        );
    }

    #[test]
    fn disabled_registry_detector_still_detects() {
        let reg = arbalest_obs::Registry::disabled();
        let tool = Arc::new(Arbalest::with_registry(ArbalestConfig::default(), reg.clone()));
        let rt = Runtime::with_tool(Config::default(), tool.clone());
        let b = rt.alloc_with::<f64>("b", 8, |_| 1.0);
        rt.target().map(Map::alloc(&b)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let _ = k.read(&b, i); // UUM
            });
        });
        assert_eq!(kinds(&tool), vec![ReportKind::MappingUum]);
        // No metrics recorded, and the stats counters read zero.
        assert!(reg.snapshot().counters.is_empty());
        assert_eq!(tool.stats().accesses.get(), 0);
    }

    #[test]
    fn evict_to_may_sheds_memory_and_suppresses_vsm_claims() {
        // Eviction is exclusive, so drive the detector from a recorded
        // trace rather than from a live runtime sharing it.
        let rec = Arc::new(arbalest_offload::trace::TraceRecorder::new());
        let rt = Runtime::with_tool(Config::default(), rec.clone());
        let a = rt.alloc_with::<f64>("a", 100_000, |_| 0.0);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.for_each(0..100_000, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1.0);
            });
        });
        let _ = rt.read(&a, 0);
        let trace = rec.take();
        let (last_read, program) = trace.split_last().unwrap();
        let mut tool = Arbalest::new(ArbalestConfig::default());
        arbalest_offload::trace::replay(program, &tool);
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
        let before = tool.side_table_bytes();
        let freed = tool.evict_to_may();
        assert!(tool.degraded());
        assert!(freed > 0, "eviction freed nothing");
        assert!(tool.side_table_bytes() < before, "side tables did not shrink");
        // Post-eviction the granule reads back as the initial state, which
        // would be a UUM claim on a fresh detector; May mode suppresses it.
        arbalest_offload::trace::apply(last_read, &tool);
        assert!(tool.reports().is_empty(), "May mode asserted a violation: {:?}", tool.reports());
    }

    #[test]
    fn side_tables_grow_with_footprint() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let base = tool.side_table_bytes();
        let a = rt.alloc_with::<f64>("a", 100_000, |_| 0.0);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.for_each(0..100_000, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1.0);
            });
        });
        assert!(tool.side_table_bytes() > base + 100_000, "shadow must be resident");
    }
}
