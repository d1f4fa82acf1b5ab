//! Single-thread layer replays of recorded traces.
//!
//! Each replay feeds a recorded event stream straight into one layer's
//! public calls, without the detector around it, and reports nanoseconds
//! per call with the call count as its base:
//!
//! * `shadow` — [`ShadowMemory::update`] with a trivial closure for every
//!   granule the detector would touch, and [`IntervalTree::stab`] for every
//!   device address it would resolve;
//! * `race` — [`RaceEngine`] point checks, range checks and sync calls;
//! * `wire` — [`encode_events`] and [`decode_events`];
//! * `core` — [`AnalysisSession::feed_batch`], the whole detector on one
//!   thread, to compare with the live run's team threads.

use crate::stats::{repeat, time};
use arbalest_core::{AnalysisSession, ArbalestConfig};
use arbalest_offload::prelude::*;
use arbalest_offload::trace::TraceEvent;
use arbalest_offload::wire::{decode_events, encode_events, Cursor};
use arbalest_race::RaceEngine;
use arbalest_shadow::{IntervalTree, ShadowMemory};
use std::hint::black_box;
use std::time::Duration;

/// Medians of a layer replay over several repetitions.
#[derive(Debug, Clone, Copy)]
pub struct LayerTimes {
    /// Nanoseconds per call.
    pub ns: f64,
    /// Calls per repetition (the base of `ns`).
    pub calls: u64,
}

fn per_call(total_s: f64, calls: u64) -> LayerTimes {
    LayerTimes {
        ns: if calls == 0 {
            0.0
        } else {
            total_s * 1e9 / calls as f64
        },
        calls,
    }
}

/// One shadow operation the detector would perform.
enum ShadowOp {
    Granule(u64),
    Range(u64, u64),
}

/// Resolve every trace to the shadow operations the detector would apply
/// (device accesses mapped back to their original variable).
fn shadow_ops(traces: &[Vec<TraceEvent>]) -> (Vec<Vec<ShadowOp>>, u64) {
    let mut granules = 0u64;
    let all = traces
        .iter()
        .map(|events| {
            let mut tree: IntervalTree<u64> = IntervalTree::new();
            let mut ops = Vec::new();
            for ev in events {
                match ev {
                    TraceEvent::DataOp(d) => {
                        match d.kind {
                            DataOpKind::CvAlloc => {
                                tree.insert(d.cv_base, d.cv_base + d.len, d.ov_addr);
                            }
                            DataOpKind::CvDelete => {
                                tree.remove(d.cv_base);
                            }
                        }
                        ops.push(ShadowOp::Range(d.ov_addr, d.len));
                        granules += d.len.div_ceil(8);
                    }
                    TraceEvent::Transfer(t) => {
                        let ov = if t.kind == TransferKind::FromDevice {
                            t.dst_addr
                        } else {
                            t.src_addr
                        };
                        ops.push(ShadowOp::Range(ov, t.len));
                        granules += t.len.div_ceil(8);
                    }
                    TraceEvent::Access(a) => {
                        let key = if a.device.is_host() {
                            Some(a.addr)
                        } else {
                            tree.stab(a.addr).map(|(lo, _, ov)| ov + (a.addr - lo))
                        };
                        if let Some(k) = key {
                            ops.push(ShadowOp::Granule(k));
                            granules += 1;
                        }
                    }
                    _ => {}
                }
            }
            ops
        })
        .collect();
    (all, granules)
}

/// Shadow layer: `(update, stab, resident_bytes)`.
pub fn shadow(traces: &[Vec<TraceEvent>], budget: Duration) -> (LayerTimes, LayerTimes, u64) {
    let (ops, granules) = shadow_ops(traces);
    let mut resident = 0u64;
    let update_s = repeat(budget / 2, 3, || {
        let mut bytes = 0;
        let t = time(|| {
            for trace_ops in &ops {
                let shadow = ShadowMemory::new(1);
                for op in trace_ops {
                    match *op {
                        ShadowOp::Granule(a) => {
                            black_box(shadow.update(a & !7, 0, |w| w.wrapping_add(1)));
                        }
                        ShadowOp::Range(a, len) => {
                            shadow.update_range(a, len, 0, |w| w.wrapping_add(1))
                        }
                    }
                }
                bytes += shadow.resident_bytes();
            }
        });
        resident = bytes;
        t
    });
    let mut stabs = 0u64;
    let stab_s = repeat(budget / 2, 3, || {
        stabs = 0;
        time(|| {
            for events in traces {
                let mut tree: IntervalTree<u64> = IntervalTree::new();
                for ev in events {
                    match ev {
                        TraceEvent::DataOp(d) if d.kind == DataOpKind::CvAlloc => {
                            tree.insert(d.cv_base, d.cv_base + d.len, d.ov_addr);
                        }
                        TraceEvent::DataOp(d) => {
                            tree.remove(d.cv_base);
                        }
                        TraceEvent::Access(a) if !a.device.is_host() => {
                            black_box(tree.stab(a.addr));
                            stabs += 1;
                        }
                        _ => {}
                    }
                }
            }
        })
    });
    (
        per_call(update_s, granules),
        per_call(stab_s, stabs),
        resident,
    )
}

/// Which race-engine calls a replay makes.
#[derive(Clone, Copy, PartialEq)]
enum RaceCalls {
    Sync,
    SyncRange,
    All,
}

fn race_replay(traces: &[Vec<TraceEvent>], calls: RaceCalls) -> (f64, [u64; 3], u64) {
    let mut counts = [0u64; 3];
    let mut bytes = 0;
    let t = time(|| {
        for events in traces {
            let engine = RaceEngine::new();
            for ev in events {
                match ev {
                    TraceEvent::Sync(s) => {
                        counts[2] += 1;
                        match *s {
                            SyncEvent::TaskCreate { parent, child } => {
                                engine.fork(parent.0, child.0)
                            }
                            SyncEvent::TaskEnd { task } => engine.end(task.0),
                            SyncEvent::TaskJoin { waiter, joined } => {
                                engine.join(waiter.0, joined.0)
                            }
                            SyncEvent::Acquire { task, lock } => engine.acquire(task.0, lock),
                            SyncEvent::Release { task, lock } => engine.release(task.0, lock),
                        }
                    }
                    TraceEvent::Transfer(x) if !x.unified && calls != RaceCalls::Sync => {
                        counts[1] += 2;
                        black_box(engine.check_read_range(x.task.0, x.src_addr, x.len));
                        black_box(engine.check_write_range(x.task.0, x.dst_addr, x.len));
                    }
                    TraceEvent::Access(a) if !a.atomic && calls == RaceCalls::All => {
                        counts[0] += 1;
                        black_box(if a.is_write {
                            engine.check_write(a.task.0, a.addr, a.size as u8)
                        } else {
                            engine.check_read(a.task.0, a.addr, a.size as u8)
                        });
                    }
                    _ => {}
                }
            }
            bytes += engine.approx_bytes();
        }
    });
    (t, counts, bytes)
}

/// Race layer: `(point check, range check, sync, approx_bytes)`. Sync
/// calls are timed alone; range checks as the time they add to sync;
/// point checks as the time they add to both, because a check's cost
/// depends on the clocks the sync calls built.
pub fn race(
    traces: &[Vec<TraceEvent>],
    budget: Duration,
) -> (LayerTimes, LayerTimes, LayerTimes, u64) {
    let mut counts = [0u64; 3];
    let mut bytes = 0;
    let sync_s = repeat(budget / 3, 3, || race_replay(traces, RaceCalls::Sync).0);
    let range_s = repeat(budget / 3, 3, || {
        race_replay(traces, RaceCalls::SyncRange).0
    });
    let all_s = repeat(budget / 3, 3, || {
        let (t, c, b) = race_replay(traces, RaceCalls::All);
        counts = c;
        bytes = b;
        t
    });
    (
        per_call((all_s - range_s).max(0.0), counts[0]),
        per_call((range_s - sync_s).max(0.0), counts[1]),
        per_call(sync_s, counts[2]),
        bytes,
    )
}

/// Wire layer: `(encode ns/event, decode ns/event, bytes/event, events)`.
pub fn wire(traces: &[Vec<TraceEvent>], budget: Duration) -> (f64, f64, f64, u64) {
    let events: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let encoded: Vec<Vec<u8>> = traces.iter().map(|t| encode_events(t)).collect();
    for (bytes, trace) in encoded.iter().zip(traces) {
        let back = decode_events(&mut Cursor::new(bytes)).expect("recorded trace decodes");
        assert!(back == *trace, "wire round trip changed a recorded trace");
    }
    let bytes: u64 = encoded.iter().map(|b| b.len() as u64).sum();
    let enc = repeat(budget / 2, 3, || {
        time(|| traces.iter().map(|t| encode_events(t).len()).sum::<usize>())
    });
    let dec = repeat(budget / 2, 3, || {
        time(|| {
            encoded
                .iter()
                .map(|b| {
                    decode_events(&mut Cursor::new(b))
                        .map(|v| v.len())
                        .unwrap_or(0)
                })
                .sum::<usize>()
        })
    });
    let n = events.max(1) as f64;
    (enc * 1e9 / n, dec * 1e9 / n, bytes as f64 / n, events)
}

/// Whole detector fed on one thread: median seconds to analyse every trace.
pub fn core_session(traces: &[Vec<TraceEvent>], budget: Duration) -> f64 {
    repeat(budget, 3, || {
        time(|| {
            for events in traces {
                let s = AnalysisSession::new(ArbalestConfig::default());
                s.feed_batch(events);
                black_box(s.finish());
            }
        })
    })
}
