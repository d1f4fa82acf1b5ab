//! Micro-benchmarks backing the paper's complexity claims (§IV-C):
//!
//! * `vsm_transition` — the per-access state transition is O(1).
//! * `shadow_cas`     — one lock-free shadow update per access.
//! * `interval_stab`  — CV→OV lookup is O(log m): sweep the number of
//!   mapped sections m and observe the flat/logarithmic curve.
//! * `word_codec`     — Table II encode/decode round-trip.
//! * `race_check`     — the FastTrack epoch comparison on the hot path, a
//!   transfer-sized range check, and a read of a shared-read granule.
//!
//! Self-contained timing harness (`harness = false`, no external crates):
//! each benchmark runs a short warm-up, then timed batches, and prints
//! the per-iteration latency in nanoseconds.

use arbalest_core::vsm::{self, StorageLoc, VsmOp};
use arbalest_race::RaceEngine;
use arbalest_shadow::{GranuleState, IntervalTree, Layout, ShadowMemory};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Run `f` under warm-up + measurement and print ns/iter.
fn bench(name: &str, mut f: impl FnMut()) {
    let warmup = Duration::from_millis(200);
    let measure = Duration::from_millis(800);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < warmup {
        f();
        iters += 1;
    }
    // Size batches off the warm-up rate so clock reads stay negligible.
    let batch = (iters / 20).max(1);
    let mut total_iters = 0u64;
    let mut elapsed = Duration::ZERO;
    while elapsed < measure {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        elapsed += t0.elapsed();
        total_iters += batch;
    }
    let ns = elapsed.as_nanos() as f64 / total_iters as f64;
    println!("{name:<40} {ns:>10.1} ns/iter  ({total_iters} iters)");
}

fn bench_vsm() {
    let states = [
        GranuleState::default(),
        GranuleState { valid_mask: 1, init_mask: 1, ..Default::default() },
        GranuleState { valid_mask: 2, init_mask: 2, ..Default::default() },
        GranuleState { valid_mask: 3, init_mask: 3, ..Default::default() },
    ];
    let mut i = 0usize;
    bench("vsm_transition/write_host", || {
        let s = states[i & 3];
        i += 1;
        black_box(vsm::apply(s, VsmOp::Write(StorageLoc::Host)));
    });
    let mut i = 0usize;
    bench("vsm_transition/read_device_checked", || {
        let s = states[i & 3];
        i += 1;
        black_box(vsm::apply(s, VsmOp::Read(StorageLoc::Device(1))));
    });
}

fn bench_shadow() {
    let shadow = ShadowMemory::new(1);
    let layout = Layout::TableII;
    let mut addr = 0x1000u64;
    bench("shadow_cas_update", || {
        addr = addr.wrapping_add(8) & 0xFFFF;
        shadow.update(0x10000 + addr, 0, |w| {
            let s = layout.decode(w);
            let (next, _) = vsm::apply(s, VsmOp::Write(StorageLoc::Host));
            layout.encode(next)
        });
    });
}

fn bench_interval() {
    for m in [1usize, 8, 64, 512, 4096] {
        let mut tree = IntervalTree::new();
        for i in 0..m as u64 {
            tree.insert(i * 1024, i * 1024 + 512, i);
        }
        let mut i = 0u64;
        bench(&format!("interval_stab/{m}"), || {
            i = (i + 7919) % m as u64;
            black_box(tree.stab(i * 1024 + 256));
        });
    }
}

fn bench_word() {
    let layout = Layout::TableII;
    let s = GranuleState {
        valid_mask: 0b11,
        init_mask: 0b11,
        tid: 42,
        clock: 123456,
        is_write: true,
        access_size: 8,
        addr_offset: 0,
    };
    bench("word_codec_roundtrip", || {
        black_box(layout.decode(layout.encode(black_box(s))));
    });
}

fn bench_race() {
    let engine = RaceEngine::new();
    engine.fork(0, 1);
    let mut addr = 0u64;
    bench("race_check_write", || {
        addr = addr.wrapping_add(8) & 0xFFFF;
        black_box(engine.check_write(1, 0x40000 + addr, 8));
    });
    // A transfer-sized range: 2048 granules over four pages.
    bench("race_check_write_range/16K", || {
        black_box(engine.check_write_range(1, 0x80000, 16 * 1024));
    });
    // Granules read by two unordered siblings hold a shared read clock.
    engine.fork(0, 2);
    for g in (0..0x10000).step_by(8) {
        engine.check_read(1, 0xC0000 + g, 8);
        engine.check_read(2, 0xC0000 + g, 8);
    }
    let mut addr = 0u64;
    bench("race_check_read_shared", || {
        addr = addr.wrapping_add(8) & 0xFFFF;
        black_box(engine.check_read(1, 0xC0000 + addr, 8));
    });
}

fn main() {
    bench_vsm();
    bench_shadow();
    bench_interval();
    bench_word();
    bench_race();
}
