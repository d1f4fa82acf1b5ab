//! Throughput of the analysis service under concurrent clients.
//!
//! Spins up an in-process `arbalest-serve` on a loopback TCP socket,
//! records one DRACC trace, then hammers the server with `K` concurrent
//! client threads each submitting the trace `R` times. Reports aggregate
//! events/second, per-session latency, and the server's own counters
//! (busy rejections show the backpressure path engaging at small queue
//! capacities).
//!
//! ```text
//! ARBALEST_CLIENTS=8 ARBALEST_ROUNDS=4 ARBALEST_SHARDS=4 \
//!     cargo run --release -p arbalest-bench --bin serve_throughput
//! ```

use arbalest_core::ArbalestConfig;
use arbalest_offload::prelude::*;
use arbalest_offload::trace::TraceRecorder;
use arbalest_server::{Client, ListenAddr, Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let clients = env_usize("ARBALEST_CLIENTS", 8);
    let rounds = env_usize("ARBALEST_ROUNDS", 4);
    let shards = env_usize("ARBALEST_SHARDS", 4);
    let queue_cap = env_usize("ARBALEST_QUEUE_CAP", 64);
    let bench_id = env_usize("ARBALEST_DRACC", 22) as u32;

    let bench = arbalest_dracc::by_id(bench_id).expect("unknown DRACC id");
    let recorder = Arc::new(TraceRecorder::new());
    let rt = Runtime::with_tool(Config::default(), recorder.clone());
    bench.run(&rt);
    let events = Arc::new(recorder.take());

    println!("SERVE THROUGHPUT: {} x{clients} client(s) x{rounds} round(s)", bench.dracc_id());
    println!(
        "trace = {} event(s), shards = {shards}, queue cap = {queue_cap}\n",
        events.len()
    );

    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig { shards, queue_cap, detector: ArbalestConfig::default(), ..ServerConfig::default() },
    )
    .expect("bind");
    let addr = server.local_addr().clone();

    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.clone();
            let events = events.clone();
            std::thread::spawn(move || {
                let mut session_secs: Vec<f64> = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    let t = Instant::now();
                    let mut client = Client::connect(&addr).expect("connect");
                    let reports = client.submit(&events).expect("submit");
                    session_secs.push(t.elapsed().as_secs_f64());
                    assert!(!reports.is_empty(), "expected findings from a buggy trace");
                }
                session_secs
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::new();
    for w in workers {
        latencies.extend(w.join().expect("client thread"));
    }
    let wall = start.elapsed().as_secs_f64();

    let mut stats_client = Client::connect(&addr).expect("connect");
    let stats = stats_client.stats().expect("stats");
    drop(stats_client);
    server.stop();

    latencies.sort_by(|a, b| a.total_cmp(b));
    let total_events = (events.len() * clients * rounds) as f64;
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    println!("wall time          {wall:>10.3} s");
    println!("events analysed    {:>10.0}", total_events);
    println!("throughput         {:>10.0} events/s", total_events / wall);
    println!("session latency    mean {:.3} ms   p50 {:.3} ms   max {:.3} ms",
        mean * 1e3,
        latencies[latencies.len() / 2] * 1e3,
        latencies.last().copied().unwrap_or(0.0) * 1e3,
    );
    println!(
        "server counters    {} session(s), {} event(s), {} busy rejection(s)",
        stats.sessions_finished, stats.events_received, stats.busy_rejections
    );
}
