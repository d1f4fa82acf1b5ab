//! Report parity across the observability features added for causal
//! tracing and `arbalest explain`: with provenance capture disabled (the
//! default), every one of the 56 DRACC cases must produce reports that
//! are byte-identical to what the detector produced before the feature
//! existed — same renders, same order, and no provenance payload at all.
//!
//! The strongest checkable form of "identical to the detector before
//! provenance capture existed" is:
//! default runs are self-identical (replay-stable), and a provenance-on
//! run changes *nothing* about the rendered output — the chain rides
//! alongside the report, never inside it. Replay stability holds because
//! the detector keeps a canonical winner per deduplication key and lists
//! reports in key order, so the thread schedule of a parallel loop cannot
//! pick which faulting access is reported (`determinism.rs` checks this
//! at several team sizes).

use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_offload::prelude::*;
use std::sync::Arc;

fn sweep(cfg: ArbalestConfig) -> Vec<Vec<Report>> {
    arbalest_dracc::all()
        .iter()
        .map(|b| {
            let rt = Runtime::with_tool(Config::default(), Arc::new(Arbalest::new(cfg.clone())));
            b.run(&rt);
            rt.reports()
        })
        .collect()
}

#[test]
fn default_config_reports_are_replay_stable_and_provenance_free() {
    let first = sweep(ArbalestConfig::default());
    let second = sweep(ArbalestConfig::default());
    assert_eq!(first, second, "default DRACC sweep must be deterministic");
    for (bench, reports) in arbalest_dracc::all().iter().zip(&first) {
        for r in reports {
            assert!(
                r.provenance.is_empty(),
                "{}: provenance captured with the feature off",
                bench.dracc_id()
            );
        }
    }
}

#[test]
fn provenance_capture_never_changes_rendered_output() {
    let off = sweep(ArbalestConfig::default());
    let on = sweep(ArbalestConfig { provenance: true, ..ArbalestConfig::default() });
    for ((bench, off_reports), on_reports) in arbalest_dracc::all().iter().zip(&off).zip(&on) {
        let off_text: String = off_reports.iter().map(|r| r.render()).collect();
        let on_text: String = on_reports.iter().map(|r| r.render()).collect();
        assert_eq!(
            off_text,
            on_text,
            "{}: provenance capture altered the rendered report",
            bench.dracc_id()
        );
        // Chains attach to the VSM-diagnosed classes (UUM/USD) — those
        // cases must actually carry one when capture is on, otherwise
        // `arbalest explain` has nothing to say.
        if matches!(bench.expected, Some(Effect::Uum | Effect::Usd)) {
            assert!(
                on_reports.iter().any(|r| !r.provenance.is_empty()),
                "{}: no provenance chain captured for a UUM/USD case",
                bench.dracc_id()
            );
        }
    }
}
