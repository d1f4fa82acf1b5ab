//! Determinism gate: the rendered reports of the 56-case DRACC sweep
//! depend only on the program, never on the thread schedule. The sweep
//! runs three times at each team size, and every run at a size must
//! render byte-identically to the first. Team size 1 runs each parallel
//! loop on one thread; 4 and 8 let chunks race to the faulting lines.

use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_offload::prelude::*;
use std::sync::Arc;

const RUNS: usize = 3;

/// One sweep's renders, one string per case.
fn sweep(team_size: usize) -> Vec<String> {
    arbalest_dracc::all()
        .iter()
        .map(|b| {
            let tool = Arc::new(Arbalest::new(ArbalestConfig::default()));
            let rt = Runtime::with_tool(Config::default().team_size(team_size), tool);
            b.run(&rt);
            rt.reports().iter().map(Report::render).collect()
        })
        .collect()
}

#[test]
fn dracc_renders_are_identical_across_runs_at_every_team_size() {
    let ids: Vec<String> = arbalest_dracc::all().iter().map(|b| b.dracc_id()).collect();
    assert_eq!(ids.len(), 56);
    for team_size in [1, 4, 8] {
        let first = sweep(team_size);
        for run in 1..RUNS {
            let again = sweep(team_size);
            for ((id, a), b) in ids.iter().zip(&first).zip(&again) {
                assert_eq!(a, b, "{id}: run {run} at team size {team_size} rendered differently");
            }
        }
    }
}
