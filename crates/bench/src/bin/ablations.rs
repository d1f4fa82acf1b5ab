//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. race engine on/off — how much of ARBALEST's cost is Archer's
//!    (§VI-E: "ARBALEST's execution time is dominated by Archer's race
//!    detection routine");
//! 2. device plugin pooled vs per-CV allocations — flips the Valgrind
//!    model's UUM column (why LLVM 9 and LLVM 11 era tools differ);
//! 3. staged vs direct `target update` transfers — flips MSan on
//!    DRACC_OMP_034 (§VI-C's "lack of OMPT" miss).

use arbalest_baselines::{Memcheck, MemorySanitizer};
use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_offload::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 16384;

fn saxpy_run(tool: Arc<Arbalest>) -> f64 {
    let rt = Runtime::with_tool(Config::default().team_size(4), tool);
    let x = rt.alloc_with::<f64>("x", N, |i| i as f64);
    let y = rt.alloc_with::<f64>("y", N, |_| 1.0);
    let start = Instant::now();
    for _ in 0..4 {
        rt.target().map(Map::to(&x)).map(Map::tofrom(&y)).run(move |k| {
            k.par_for(0..N, |k, i| {
                let v = 2.0 * k.read(&x, i) + k.read(&y, i);
                k.write(&y, i, v);
            });
        });
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    println!("ABLATIONS (design-choice studies from DESIGN.md)\n");

    // 1: Arbalest cost decomposition.
    let t_full = saxpy_run(Arc::new(Arbalest::new(ArbalestConfig::default())));
    let t_norace = saxpy_run(Arc::new(Arbalest::new(ArbalestConfig {
        check_races: false,
        ..Default::default()
    })));
    println!("1. race engine:   full {:.3}s  vsm-only {:.3}s  -> races are {:.0}% of Arbalest's cost",
        t_full, t_norace, 100.0 * (t_full - t_norace).max(0.0) / t_full);

    // 2. Pooled vs per-CV plugin allocations: the Valgrind column flips.
    let detect_22 = |pooled: bool| -> bool {
        let tool = Arc::new(Memcheck::new());
        let rt = Runtime::with_tool(Config::default().pooled(pooled), tool.clone());
        arbalest_dracc::by_id(22).unwrap().run(&rt);
        tool.reports().iter().any(|r| r.kind == ReportKind::UninitRead)
    };
    println!(
        "2. plugin pooling: memcheck on DRACC_OMP_022 — pooled (LLVM-9 era): {}, per-CV (LLVM-11 era): {}",
        if detect_22(true) { "DETECTED" } else { "missed" },
        if detect_22(false) { "DETECTED" } else { "missed" },
    );

    // 3. Staged vs direct update transfers: MSan on DRACC_OMP_034 flips.
    let detect_34 = |staged: bool| -> bool {
        let tool = Arc::new(MemorySanitizer::new());
        let rt = Runtime::with_tool(Config::default().staged_updates(staged), tool.clone());
        arbalest_dracc::by_id(34).unwrap().run(&rt);
        tool.reports().iter().any(|r| r.kind == ReportKind::UninitRead)
    };
    println!(
        "3. update staging: msan on DRACC_OMP_034 — staged (real runtimes): {}, direct: {}",
        if detect_34(true) { "DETECTED" } else { "missed" },
        if detect_34(false) { "DETECTED" } else { "missed" },
    );

    // Sanity gates for CI use.
    assert!(t_norace < t_full, "race engine must cost something");
    assert!(!detect_22(true) && detect_22(false));
    assert!(!detect_34(true) && detect_34(false));
    println!("\nall ablation expectations hold");
}
