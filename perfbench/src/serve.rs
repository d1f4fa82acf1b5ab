//! The `serve` workload: an in-process analysis server on loopback TCP
//! with 2 shards, driven by 2 closed-loop client threads. Each session
//! opens a fresh connection, as `arbalest submit` does, and submits one
//! recorded DRACC trace. Each client walks its own seeded permutation of
//! the 56 traces, so every run analyses the same mix in a seeded order.

use crate::live::{Live, Shape};
use crate::spans::Spans;
use crate::stats::Rng;
use arbalest_core::AnalysisSession;
use arbalest_offload::prelude::*;
use arbalest_offload::trace::TraceEvent;
use arbalest_offload::wire::encode_reports;
use arbalest_server::client::DEFAULT_CHUNK;
use arbalest_server::{Client, ListenAddr, Server, ServerConfig};
use std::time::{Duration, Instant};

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Analysis shards of the server.
pub const SHARDS: usize = 2;

/// Fewest sessions each client runs, however long they take.
pub const MIN_SESSIONS: usize = 5;

/// Session phase names, in order.
pub const PHASES: [&str; 4] = ["connect", "hello", "send", "finish"];

/// The recorded traces and what an in-process replay reports for each.
pub struct Corpus {
    /// One trace per DRACC program, in id order.
    pub traces: Vec<Vec<TraceEvent>>,
    /// Wire encoding of the reports an `AnalysisSession` replay yields.
    pub reference: Vec<Vec<u8>>,
    /// Detector side-table bytes at the end of each replay.
    pub side_bytes: Vec<u64>,
}

impl Corpus {
    /// Record every DRACC trace and its reference reports.
    pub fn record() -> Corpus {
        let traces = Live::new(Shape::Dracc).record();
        let (reference, side_bytes) = traces.iter().map(|t| reference(t)).unzip();
        Corpus {
            traces,
            reference,
            side_bytes,
        }
    }

    /// Whether `got` is byte-identical to the replay reference of trace `i`.
    pub fn matches(&self, i: usize, got: &[Report]) -> bool {
        encode_reports(got) == self.reference[i]
    }
}

/// What an in-process `AnalysisSession` replay of `trace` yields: the
/// wire encoding of its reports, and its detector side-table bytes.
pub fn reference(trace: &[TraceEvent]) -> (Vec<u8>, u64) {
    let s = AnalysisSession::default();
    s.feed_batch(trace);
    let bytes = s.side_table_bytes();
    (encode_reports(&s.finish()), bytes)
}

/// One finished (or failed) session.
#[derive(Debug, Clone)]
pub struct Session {
    /// Connect to reports received, seconds.
    pub latency: f64,
    /// Seconds per phase, in [`PHASES`] order.
    pub phases: [f64; 4],
    /// Events submitted.
    pub events: u64,
    /// Reports arrived and matched the reference.
    pub ok: bool,
}

/// Start the server the workload uses.
pub fn start_server() -> std::io::Result<Server> {
    Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            shards: SHARDS,
            ..ServerConfig::default()
        },
    )
}

/// Run one session of trace `i`. Any typed error, `Overloaded` included,
/// or a report mismatch marks it failed.
pub fn session(addr: &ListenAddr, corpus: &Corpus, i: usize, spans: &Spans) -> Session {
    let (mut s, result) = run_session(addr, &corpus.traces[i], spans);
    s.ok = matches!(&result, Ok(reports) if corpus.matches(i, reports));
    s
}

/// Submit `trace` in one session, split into the public `Client` calls
/// that `Client::submit` makes. Returns the session, not yet checked
/// (`ok` is false), and the reports or the error.
pub fn run_session(
    addr: &ListenAddr,
    trace: &[TraceEvent],
    spans: &Spans,
) -> (Session, Result<Vec<Report>, String>) {
    let group = spans.group();
    let root = spans.begin(group, 0, "session");
    let start = Instant::now();
    let mut phases = [0.0; 4];
    let mut mark = start;
    let mut lap = |k: usize, at: Instant| {
        phases[k] = at.duration_since(mark).as_secs_f64();
        mark = at;
    };
    let result = (|| -> Result<Vec<Report>, String> {
        let s = spans.begin(group, root.id(), PHASES[0]);
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        spans.end(s);
        lap(0, Instant::now());
        let s = spans.begin(group, root.id(), PHASES[1]);
        client.hello().map_err(|e| e.to_string())?;
        spans.end(s);
        lap(1, Instant::now());
        let s = spans.begin(group, root.id(), PHASES[2]);
        for batch in trace.chunks(DEFAULT_CHUNK) {
            client.send_events(batch).map_err(|e| e.to_string())?;
        }
        spans.end(s);
        lap(2, Instant::now());
        let s = spans.begin(group, root.id(), PHASES[3]);
        let reports = client.finish().map_err(|e| e.to_string())?;
        spans.end(s);
        lap(3, Instant::now());
        Ok(reports)
    })();
    let latency = start.elapsed().as_secs_f64();
    spans.end(root);
    let session = Session {
        latency,
        phases,
        events: trace.len() as u64,
        ok: false,
    };
    (session, result)
}

/// Closed loop: `CLIENTS` threads run sessions back to back until
/// `seconds` have passed. Returns every session and the loop's wall time.
pub fn closed_loop(
    addr: &ListenAddr,
    corpus: &Corpus,
    seed: u64,
    seconds: f64,
    spans: &Spans,
) -> (Vec<Session>, f64) {
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let order = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64))
                    .permutation(corpus.traces.len());
                s.spawn(move || {
                    let mut done = Vec::new();
                    for &i in order.iter().cycle() {
                        if start.elapsed() >= limit && done.len() >= MIN_SESSIONS {
                            break;
                        }
                        done.push(session(addr, corpus, i, spans));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
    });
    (all, start.elapsed().as_secs_f64())
}
