//! # arbalest-perfbench
//!
//! The repository's benchmark. It measures the detector from outside, by
//! calling the public APIs of `offload`, `core`, `shadow`, `race`, `obs`,
//! `offload::wire` and `server`, on four workloads:
//!
//! | Workload  | Load                                                     |
//! |-----------|----------------------------------------------------------|
//! | `stencil` | 503.postencil at `small`, team 2                         |
//! | `solver`  | 554.pcg at `small`, team 2                               |
//! | `serve`   | in-process server, 2 shards, 2 closed-loop clients       |
//! | `dracc`   | the 56 DRACC programs, seeded order, team 2              |
//!
//! `dracc` runs by hand but is not in `BENCHMARK.json`: each of its 56
//! programs builds and frees a runtime, so its pass time follows the
//! host's page-fault and scheduling contention, and one of six ten-seed
//! sets spread by 26%, more than any bound the result may carry. Its
//! layers are measured on the other workloads, and the `serve` traced run
//! counts its report stability.
//!
//! An untraced run ([`end_to_end`]) reports what a user sees; a traced
//! run ([`per_layer`]) splits the cost by layer. Both check outputs and
//! count failures without stopping.

pub mod cold;
pub mod layers;
pub mod live;
pub mod probe;
pub mod replay;
pub mod serve;
pub mod spans;
pub mod stats;

use live::{Live, Rung, Shape};
use spans::Spans;
use stats::{median, tail, Rng};
use std::path::Path;
use std::time::Instant;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The DRACC sweep.
    Dracc,
    /// 503.postencil.
    Stencil,
    /// 554.pcg.
    Solver,
    /// The analysis server.
    Serve,
}

impl Workload {
    /// Every workload: those in `BENCHMARK.json`, in its order, then
    /// `dracc`.
    pub const ALL: [Workload; 4] = [
        Workload::Stencil,
        Workload::Solver,
        Workload::Serve,
        Workload::Dracc,
    ];

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dracc => "dracc",
            Workload::Stencil => "stencil",
            Workload::Solver => "solver",
            Workload::Serve => "serve",
        }
    }

    pub(crate) fn shape(self) -> Option<Shape> {
        match self {
            Workload::Dracc => Some(Shape::Dracc),
            Workload::Stencil => Some(Shape::Stencil),
            Workload::Solver => Some(Shape::Solver),
            Workload::Serve => None,
        }
    }
}

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
/// On the live workloads a unit of work is a pass; on `serve` a session.
/// The tail latency, the error rate and `serve`'s event throughput are
/// printed as lines but are not metrics of the result: the tail's
/// run-to-run spread on a shared two-core machine exceeds any bound the
/// result may carry; the error rate is 0 on a correct build (`attempted`
/// and `failed` carry it); and every metric must be reported on every
/// workload, where on a live workload a throughput would only restate
/// `p50_s` over a fixed event count.
pub const END_TO_END: [(&str, &str); 3] = [("p50_s", "s"), ("tool_bytes", "B"), ("setup_s", "s")];

/// Fewest timed passes per live run, however long each takes, so the
/// median and tail always rest on several samples.
pub const MIN_PASSES: usize = 5;

/// Cold set-ups per run of a live workload, each in a fresh process;
/// `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Cold set-ups per `serve` run: a cold session takes milliseconds, so
/// more of them keep the median steady.
pub const SERVE_SETUPS: usize = 21;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Passes or sessions attempted.
    pub attempted: u64,
    /// Passes or sessions whose output check failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The run counts as correct when every output check passed and every
    /// metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (which also make the run incorrect)
/// print as 0 so the line stays parseable.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The tail line: value, the percentile it is, and the sample count.
fn tail_line(name: &str, samples: &[f64]) -> String {
    let (t, pct) = tail(samples);
    format!(
        "{name:<34} {t:>16.6} s  (p{pct} of {} samples)",
        samples.len()
    )
}

/// The untraced run: set up several times, each in a fresh process of
/// `exe` (the benchmark binary, see [`cold`]), then measure passes or
/// sessions for `seconds`, checking every output.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, exe: &Path) -> Outcome {
    match w.shape() {
        Some(shape) => live_end_to_end(w, shape, seed, seconds, exe),
        None => serve_end_to_end(seed, seconds, exe),
    }
}

/// Count the cold set-ups' checks into `out`; return the median of the
/// set-up times and a line saying what it rests on.
fn setup_median(out: &mut Outcome, setups: &[(Option<f64>, bool)]) -> (f64, String) {
    let mut walls = Vec::new();
    for &(wall, ok) in setups {
        out.attempted += 1;
        out.failed += u64::from(!ok);
        walls.extend(wall);
    }
    let line = format!(
        "setup_s is the median of {} cold processes of {}",
        walls.len(),
        setups.len()
    );
    (median(&walls), line)
}

fn live_end_to_end(w: Workload, shape: Shape, seed: u64, seconds: f64, exe: &Path) -> Outcome {
    let live = Live::new(shape);
    let mut rng = Rng::new(seed);
    let off = Spans::new(false);
    let mut out = Outcome::default();
    let setups: Vec<_> = (0..SETUPS)
        .map(|_| cold::run(exe, w, rng.next_u64(), &[]))
        .collect();
    let (setup_s, setup_line) = setup_median(&mut out, &setups);
    let native = live.native_checksum();

    let reg = arbalest_obs::Registry::new();
    let (mut walls, mut bytes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || walls.len() < MIN_PASSES {
        let order = rng.permutation(live.programs());
        let p = live.pass(Rung::Default, &reg, &order, &off, None, false);
        out.attempted += 1;
        out.failed += u64::from(live.failed(&p, native));
        walls.push(p.wall);
        bytes.push(p.tool_bytes as f64);
    }
    out.push("p50_s", median(&walls), "s");
    out.push("tool_bytes", median(&bytes), "B");
    out.push("setup_s", setup_s, "s");
    out.lines.push(format!(
        "{} passes of {} program(s), team {}",
        walls.len(),
        live.programs(),
        live::TEAM,
    ));
    out.lines.push(tail_line("detect_tail_s", &walls));
    out.lines.push(setup_line);
    out
}

fn serve_end_to_end(seed: u64, seconds: f64, exe: &Path) -> Outcome {
    let corpus = serve::Corpus::record();
    let mut rng = Rng::new(seed);
    let mut out = Outcome::default();
    let setups: Vec<_> = (0..SERVE_SETUPS)
        .map(|_| {
            let i = rng.permutation(corpus.traces.len())[0];
            cold::run(exe, Workload::Serve, seed, &cold::serve_input(&corpus, i))
        })
        .collect();
    let (setup_s, setup_line) = setup_median(&mut out, &setups);
    let server = match serve::start_server() {
        Ok(s) => s,
        Err(e) => {
            out.lines.push(format!("server failed to start: {e}"));
            out.attempted += 1;
            out.failed += 1;
            return out;
        }
    };
    let (sessions, wall) = serve::closed_loop(
        server.local_addr(),
        &corpus,
        seed,
        seconds,
        &Spans::new(false),
    );
    server.stop();
    out.attempted += sessions.len() as u64;
    out.failed += sessions.iter().filter(|s| !s.ok).count() as u64;
    let lat: Vec<f64> = sessions.iter().map(|s| s.latency).collect();
    let events: u64 = sessions.iter().filter(|s| s.ok).map(|s| s.events).sum();
    // `tool_bytes` here is the detector footprint of the submitted
    // corpus, from the in-process replays: the same sessions the shards
    // analyse, but not a figure the server reports.
    let side: Vec<f64> = corpus.side_bytes.iter().map(|&b| b as f64).collect();
    out.push("p50_s", median(&lat), "s");
    out.push(
        "tool_bytes",
        side.iter().sum::<f64>() / side.len() as f64,
        "B",
    );
    out.push("setup_s", setup_s, "s");
    out.lines.push(format!(
        "{} sessions from {} closed-loop clients on {} shards, {events} events",
        sessions.len(),
        serve::CLIENTS,
        serve::SHARDS,
    ));
    out.lines.push(tail_line("session_tail_s", &lat));
    out.lines.push(format!(
        "{:<34} {:>16.6} 1/s  ({events} events in {wall:.3} s)",
        "serve_events_per_s",
        events as f64 / wall
    ));
    out.lines.push(setup_line);
    out
}

/// The traced run: per-layer metrics, every name in [`layers::PER_LAYER`]
/// (0 where a layer is not on the workload's path). Spans are written to
/// `spans_out` at the end.
pub fn per_layer(
    w: Workload,
    seed: u64,
    seconds: f64,
    spans_out: Option<&std::path::Path>,
) -> Outcome {
    layers::run(w, seed, seconds, spans_out)
}
