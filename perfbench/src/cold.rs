//! Cold set-ups: `setup_s` is the wall time of a process's first pass or
//! session, so each sample runs in a fresh process of the benchmark. Only
//! there are the process's one-time costs paid (lazy statics such as the
//! metrics arena, per-thread counter blocks, first-touch page faults).
//!
//! The measuring run starts the benchmark binary again with
//! `--cold 1` once per sample, waits for it, and takes the median. The
//! child times its first pass (live workloads) or `Server::start` plus
//! its first session (`serve`) and prints one line, `cold <seconds>
//! <ok>`. A `serve` child reads the wire-encoded trace to submit from
//! its standard input, so nothing in it runs the detector before the
//! timed session, and its first client arrives [`IDLE_GAP`] after the
//! server has started.

use crate::live::{Live, Rung};
use crate::serve;
use crate::spans::Spans;
use crate::stats::Rng;
use crate::Workload;
use arbalest_offload::wire::{decode_events, encode_events, encode_reports, Cursor};
use std::io::{Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The option that makes the benchmark binary run one cold set-up.
pub const FLAG: &str = "--cold";

/// How long after `Server::start` returns a `serve` child's first client
/// connects; the gap is not timed. The server accepts on a 20 ms poll, so
/// a client that connects at once races the accept thread's first poll
/// and waits either almost nothing or a whole period, depending on how
/// fast the machine wakes that thread. Arriving at an idle server after a
/// fixed gap, as a submit that follows `serve` does, makes the wait the
/// same in every run: here mid-period, the mean wait of an arrival at a
/// random time.
pub const IDLE_GAP: Duration = Duration::from_millis(50);

/// The child's side: one cold set-up of `w` in this fresh process. The
/// seed sets the DRACC case order. Returns the line to print.
pub fn child(w: Workload, seed: u64) -> String {
    let (wall, ok) = match w.shape() {
        Some(shape) => {
            let live = Live::new(shape);
            let order = Rng::new(seed).permutation(live.programs());
            let reg = arbalest_obs::Registry::new();
            let p = live.pass(Rung::Default, &reg, &order, &Spans::new(false), None, false);
            (p.wall, !live.failed(&p, live.native_checksum()))
        }
        None => serve_child(),
    };
    format!("cold {wall:?} {}", u8::from(ok))
}

fn serve_child() -> (f64, bool) {
    let mut bytes = Vec::new();
    let trace = match std::io::stdin()
        .read_to_end(&mut bytes)
        .map_err(|e| e.to_string())
        .and_then(|_| decode_events(&mut Cursor::new(&bytes)).map_err(|e| e.to_string()))
    {
        Ok(t) => t,
        Err(_) => return (0.0, false),
    };
    let start = Instant::now();
    let server = match serve::start_server() {
        Ok(s) => s,
        Err(_) => return (start.elapsed().as_secs_f64(), false),
    };
    let started = start.elapsed().as_secs_f64();
    std::thread::sleep(IDLE_GAP);
    let (session, result) = serve::run_session(server.local_addr(), &trace, &Spans::new(false));
    let wall = started + session.latency;
    server.stop();
    let ok =
        matches!(&result, Ok(reports) if encode_reports(reports) == serve::reference(&trace).0);
    (wall, ok)
}

/// The measuring run's side: one cold set-up of `w` in a fresh process of
/// `exe`, the benchmark binary. `input` is what the child reads (the
/// trace a `serve` child submits). Returns the child's seconds and
/// whether its output check passed; a child that fails to run counts as
/// failed, with no time.
pub fn run(exe: &Path, w: Workload, seed: u64, input: &[u8]) -> (Option<f64>, bool) {
    let spawned = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            FLAG,
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let Ok(mut proc) = spawned else {
        return (None, false);
    };
    // Dropping stdin after the write closes it, so the child sees the end.
    let written = proc
        .stdin
        .take()
        .is_some_and(|mut s| s.write_all(input).is_ok());
    let Ok(done) = proc.wait_with_output() else {
        return (None, false);
    };
    let text = String::from_utf8_lossy(&done.stdout);
    let parsed = text.lines().last().and_then(|l| {
        let mut f = l.strip_prefix("cold ")?.split(' ');
        Some((f.next()?.parse::<f64>().ok()?, f.next()? == "1"))
    });
    match parsed {
        Some((wall, ok)) if done.status.success() && written => (Some(wall), ok),
        _ => (None, false),
    }
}

/// What a `serve` child submits: trace `i` of the corpus, wire-encoded.
pub fn serve_input(corpus: &serve::Corpus, i: usize) -> Vec<u8> {
    encode_events(&corpus.traces[i])
}
