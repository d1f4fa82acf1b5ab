//! The traced run's span recorder.
//!
//! Spans mark the boundaries the benchmark's own code crosses when it
//! calls into a layer: a pass, one program, runtime and detector
//! construction, and each phase of a `serve` session. Every span carries
//! the id of the pass or session it belongs to and the id of the span that
//! caused it. Spans are kept in memory and written out once at exit; self
//! times (a span's duration minus the part its children cover) are derived
//! from them. A disabled recorder records nothing, so the untraced run
//! pays one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// The pass or session this span belongs to.
    pub group: u64,
    /// This span's id (never 0).
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    /// Boundary name.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// An open span; pass it to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    group: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// Id to use as the parent of child spans (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-name aggregate derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by direct children, seconds.
    pub self_s: f64,
}

/// In-memory span store.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    done: Mutex<Vec<SpanRec>>,
}

impl Spans {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id for a pass or session.
    pub fn group(&self) -> u64 {
        self.next.fetch_add(1, Relaxed)
    }

    /// Open a span named `name` in `group`, caused by span `parent`.
    pub fn begin(&self, group: u64, parent: u64, name: &'static str) -> Open {
        if !self.enabled {
            return Open {
                group,
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        let id = self.next.fetch_add(1, Relaxed);
        Open {
            group,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close `open`.
    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.done
            .lock()
            .expect("span store poisoned")
            .push(SpanRec {
                group: open.group,
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Copy of every closed span.
    pub fn records(&self) -> Vec<SpanRec> {
        self.done.lock().expect("span store poisoned").clone()
    }

    /// Per-name count, total and self time. Children of one span run one
    /// after another, so their durations do not overlap.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let recs = self.records();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &recs {
            if r.parent != 0 {
                *child_ns.entry(r.parent).or_default() += r.end_ns - r.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for r in &recs {
            let dur = r.end_ns - r.start_ns;
            let own = dur.saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
            let e = out.entry(r.name).or_default();
            e.count += 1;
            e.total_s += dur as f64 * 1e-9;
            e.self_s += own as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in self.records() {
            writeln!(
                out,
                "{{\"group\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.group, r.id, r.parent, r.name, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let s = Spans::new(true);
        let g = s.group();
        let p = s.begin(g, 0, "pass");
        let c = s.begin(g, p.id(), "program");
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.end(c);
        s.end(p);
        let t = s.self_times();
        assert_eq!(t["pass"].count, 1);
        assert!(t["pass"].self_s < t["program"].total_s);
        assert!(t["program"].self_s >= 0.005);
        let recs = s.records();
        assert!(recs.iter().all(|r| r.group == g));
    }

    #[test]
    fn disabled_records_nothing() {
        let s = Spans::new(false);
        let o = s.begin(1, 0, "pass");
        s.end(o);
        assert!(s.records().is_empty());
    }
}
