//! Benchmark-side tools: a null tool (the dispatch rung of the ladder) and
//! a probe that forwards every callback to an inner tool while counting
//! events per kind and the time the inner tool spent on them.
//!
//! The probe aggregates instead of recording a span per callback: accesses
//! fire hundreds of thousands of times per pass, and one span each would
//! cost more than the detector work being measured.

use arbalest_offload::buffer::BufferInfo;
use arbalest_offload::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A tool that accepts every event and does nothing: what the runtime
/// pays to dispatch events at all.
pub struct NullTool;

impl Tool for NullTool {
    fn name(&self) -> &'static str {
        "null"
    }
}

/// Calls and inner busy time of one callback kind.
#[derive(Default)]
pub struct KindStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl KindStats {
    /// Callbacks delivered.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Seconds the inner tool spent in them, summed over threads.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Relaxed) as f64 * 1e-9
    }
}

/// Counters shared by every probe of a pass (one probe per runtime).
#[derive(Default)]
pub struct ProbeStats {
    timed: bool,
    kinds: [KindStats; 4],
    transfer_bytes: AtomicU64,
    kernel_threads: AtomicU64,
}

impl ProbeStats {
    /// Fresh counters; `timed` also measures the inner tool's busy time.
    pub fn new(timed: bool) -> ProbeStats {
        ProbeStats {
            timed,
            ..ProbeStats::default()
        }
    }

    /// Counters of callback kind `i`: access, transfer, data op, sync.
    pub fn kind(&self, i: usize) -> &KindStats {
        &self.kinds[i]
    }

    /// Bytes moved by transfers.
    pub fn transfer_bytes(&self) -> u64 {
        self.transfer_bytes.load(Relaxed)
    }

    /// Team threads forked inside target regions (`par_for`, `par_reduce`,
    /// `teams`); divided by the team size this counts kernel launches.
    pub fn kernel_threads(&self) -> u64 {
        self.kernel_threads.load(Relaxed)
    }
}

/// Forwarding tool that counts into shared [`ProbeStats`].
pub struct Probe {
    inner: Arc<dyn Tool>,
    stats: Arc<ProbeStats>,
    /// Target-region tasks of this runtime (task ids are per runtime).
    target_tasks: Mutex<HashSet<u32>>,
}

impl Probe {
    /// Wrap `inner`, counting into `stats`.
    pub fn new(inner: Arc<dyn Tool>, stats: Arc<ProbeStats>) -> Probe {
        Probe {
            inner,
            stats,
            target_tasks: Mutex::new(HashSet::new()),
        }
    }

    #[inline]
    fn run(&self, i: usize, f: impl FnOnce()) {
        let k = &self.stats.kinds[i];
        k.calls.fetch_add(1, Relaxed);
        if self.stats.timed {
            let t = Instant::now();
            f();
            k.busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        } else {
            f();
        }
    }
}

impl Tool for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_buffer_registered(&self, info: &BufferInfo) {
        self.inner.on_buffer_registered(info);
    }
    fn on_host_free(&self, info: &BufferInfo) {
        self.inner.on_host_free(info);
    }
    fn on_pool_alloc(&self, device: DeviceId, base: u64, len: u64) {
        self.inner.on_pool_alloc(device, base, len);
    }
    fn on_data_op(&self, ev: &DataOpEvent) {
        self.run(2, || self.inner.on_data_op(ev));
    }
    fn on_transfer(&self, ev: &TransferEvent) {
        self.stats.transfer_bytes.fetch_add(ev.len, Relaxed);
        self.run(1, || self.inner.on_transfer(ev));
    }
    fn on_access(&self, ev: &AccessEvent) {
        self.run(0, || self.inner.on_access(ev));
    }
    fn on_sync(&self, ev: &SyncEvent) {
        if let SyncEvent::TaskCreate { parent, .. } = ev {
            if self
                .target_tasks
                .lock()
                .expect("probe lock poisoned")
                .contains(&parent.0)
            {
                self.stats.kernel_threads.fetch_add(1, Relaxed);
            }
        }
        self.run(3, || self.inner.on_sync(ev));
    }
    fn on_construct(&self, ev: &ConstructEvent) {
        if let ConstructEvent::TargetBegin { task, .. } = ev {
            self.target_tasks
                .lock()
                .expect("probe lock poisoned")
                .insert(task.0);
        }
        self.inner.on_construct(ev);
    }
    fn reports(&self) -> Vec<Report> {
        self.inner.reports()
    }
    fn side_table_bytes(&self) -> u64 {
        self.inner.side_table_bytes()
    }
}
