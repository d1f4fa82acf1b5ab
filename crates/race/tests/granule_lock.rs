//! The per-granule lock under real thread interleavings: `k` sibling
//! tasks on `k` OS threads each write the same granule once. Siblings
//! are pairwise unordered, so whichever order the writes land in, every
//! write but the first must see the one before it: exactly `k - 1`
//! races. A lost update (two writers both reading the pre-write state)
//! shows up as fewer.
//!
//! Each thread warms its clock view and the granule's page first, then
//! spins on a start flag, so the writes themselves start within a few
//! cache-line transfers of each other and meet inside the critical
//! window. The default test runs a few rounds; the ignored stress variant
//! runs 200 and is meant for release builds:
//!
//! ```text
//! cargo test --release -p arbalest-race --test granule_lock -- --ignored
//! ```

use arbalest_race::RaceEngine;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn sibling_writers(writers: u32, rounds: u64) {
    for round in 0..rounds {
        let engine = RaceEngine::new();
        for t in 1..=writers {
            engine.fork(0, t);
        }
        let addr = 0x10_0000 + 8 * (round % 512);
        engine.check_read(0, addr + 8, 8); // materialise the page
        let (ready, go, races) = (AtomicUsize::new(0), AtomicBool::new(false), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 1..=writers {
                let (engine, ready, go, races) = (&engine, &ready, &go, &races);
                scope.spawn(move || {
                    engine.epoch_of(t); // warm this thread's clock view
                    ready.fetch_add(1, Ordering::AcqRel);
                    while !go.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    if engine.check_write(t, addr, 8).is_some() {
                        races.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            while ready.load(Ordering::Acquire) < writers as usize {
                std::thread::yield_now();
            }
            go.store(true, Ordering::Release);
        });
        assert_eq!(races.into_inner(), writers as usize - 1, "round {round}");
    }
}

#[test]
fn sibling_writes_to_one_granule_race_k_minus_one_times() {
    sibling_writers(2, 20);
    sibling_writers(4, 5);
}

#[test]
#[ignore = "stress: 200 rounds, run in release"]
fn sibling_writes_to_one_granule_race_k_minus_one_times_stress() {
    sibling_writers(2, 200);
    sibling_writers(4, 200);
}
