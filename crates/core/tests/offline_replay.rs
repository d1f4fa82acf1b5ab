//! Offline analysis: record an execution trace once, replay it into
//! detectors afterwards. Verifies that ARBALEST's findings are a function
//! of the event stream (live == replayed), which is what makes traces a
//! usable regression corpus.

use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{replay, TraceRecorder};
use std::sync::Arc;

fn record(buggy: bool) -> Vec<arbalest_offload::trace::TraceEvent> {
    let rec = Arc::new(TraceRecorder::new());
    let rt = Runtime::with_tool(Config::default(), rec.clone());
    let a = rt.alloc_init::<i64>("a", &[1; 16]);
    let map = if buggy { Map::to(&a) } else { Map::tofrom(&a) };
    rt.target().map(map).run(move |k| {
        k.for_each(0..16, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v + 1);
        });
    });
    let _ = rt.read(&a, 5);
    rec.take()
}

#[test]
fn replayed_bug_matches_live_detection() {
    let trace = record(true);

    // Live run for the ground truth.
    let live = Arc::new(Arbalest::new(ArbalestConfig::default()));
    let rt = Runtime::with_tool(Config::default(), live.clone());
    let a = rt.alloc_init::<i64>("a", &[1; 16]);
    rt.target().map(Map::to(&a)).run(move |k| {
        k.for_each(0..16, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v + 1);
        });
    });
    let _ = rt.read(&a, 5);

    // Offline replay into a fresh detector.
    let offline = Arbalest::new(ArbalestConfig::default());
    replay(&trace, &offline);

    let live_kinds: Vec<ReportKind> = live.reports().iter().map(|r| r.kind).collect();
    let offline_kinds: Vec<ReportKind> = offline.reports().iter().map(|r| r.kind).collect();
    assert_eq!(live_kinds, offline_kinds);
    assert_eq!(offline_kinds, vec![ReportKind::MappingUsd]);
}

#[test]
fn replayed_clean_trace_is_clean() {
    let trace = record(false);
    let offline = Arbalest::new(ArbalestConfig::default());
    replay(&trace, &offline);
    assert!(offline.reports().is_empty(), "{:?}", offline.reports());
}

#[test]
fn one_trace_many_detector_configs() {
    let trace = record(true);
    // Race detection on and off agree on the VSM finding.
    for races in [true, false] {
        let tool = Arbalest::new(ArbalestConfig { check_races: races, ..Default::default() });
        replay(&trace, &tool);
        assert_eq!(
            tool.reports().iter().filter(|r| r.kind == ReportKind::MappingUsd).count(),
            1,
            "races={races}"
        );
    }
}
