//! The traced run: per-layer metrics from the benchmark's own spans and
//! counters around its calls into each layer.
//!
//! Live workloads climb the cost ladder (native → null tool → Arbalest
//! with metrics off → without race checks → default → with provenance),
//! timing adjacent rungs as order-alternating pairs; run a probe pass that
//! times every detector callback; and replay the recorded trace into the
//! `core`, `shadow`, `race` and `wire` layers on one thread. `serve`
//! splits each session into its client calls and replays the DRACC traces
//! it submits through the same single-thread layers.
//!
//! The budget of `seconds` is shared out between these phases; each phase
//! still runs a minimum number of repetitions.

use crate::live::{self, Live, Rung, Shape};
use crate::probe::ProbeStats;
use crate::serve::{self, Corpus, PHASES};
use crate::spans::Spans;
use crate::stats::{median, paired, Paired, Rng};
use crate::{replay, Outcome, Workload};
use arbalest_obs::Registry;
use arbalest_offload::trace::TraceEvent;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Every per-layer metric, `(name, unit)`, printed by every traced run.
/// A metric whose layer is not on a workload's path reads 0 there, as
/// does its base count.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("offload.ladder_pairs", "count"),
    ("offload.native_s", "s"),
    ("offload.dispatch_s", "s"),
    ("offload.kernel_launch_s", "s"),
    ("offload.kernels", "count"),
    ("offload.launch_share", "ratio"),
    ("offload.events.access", "count"),
    ("offload.events.transfer", "count"),
    ("offload.events.data_op", "count"),
    ("offload.events.sync", "count"),
    ("offload.transfer_bytes", "B"),
    ("core.on_access.calls", "count"),
    ("core.on_access.busy_s", "s"),
    ("core.on_transfer.calls", "count"),
    ("core.on_transfer.busy_s", "s"),
    ("core.on_data_op.calls", "count"),
    ("core.on_data_op.busy_s", "s"),
    ("core.on_sync.calls", "count"),
    ("core.on_sync.busy_s", "s"),
    ("core.detector_s", "s"),
    ("core.default_s", "s"),
    ("core.vsm_only_s", "s"),
    ("core.race_share", "ratio"),
    ("core.replay_s", "s"),
    ("core.live_over_replay", "ratio"),
    ("core.lookup.hits", "count"),
    ("core.lookup.misses", "count"),
    ("core.lookup.hit_rate", "ratio"),
    ("core.lookup.depth_mean", "nodes"),
    ("core.vsm.transitions", "count"),
    ("core.report.passes", "count"),
    ("core.report.distinct_renders", "count"),
    ("core.provenance_overhead", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("shadow.update_ns", "ns"),
    ("shadow.update_calls", "count"),
    ("shadow.stab_ns", "ns"),
    ("shadow.stab_calls", "count"),
    ("shadow.cas_retries", "count"),
    ("shadow.cas_retry_ratio", "ratio"),
    ("shadow.resident_bytes", "B"),
    ("race.check_ns", "ns"),
    ("race.check_calls", "count"),
    ("race.range_check_ns", "ns"),
    ("race.range_check_calls", "count"),
    ("race.sync_ns", "ns"),
    ("race.sync_calls", "count"),
    ("race.approx_bytes", "B"),
    ("wire.encode_ns_per_event", "ns"),
    ("wire.decode_ns_per_event", "ns"),
    ("wire.bytes_per_event", "B"),
    ("wire.events", "count"),
    ("server.sessions", "count"),
    ("server.connect_s", "s"),
    ("server.hello_s", "s"),
    ("server.send_s", "s"),
    ("server.finish_s", "s"),
    ("server.phase_sum_s", "s"),
    ("server.session_p50_s", "s"),
    ("server.busy_rejections", "count"),
    ("server.sessions_finished", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.passes", "count"),
    ("span.construct_s", "s"),
    ("span.run_s", "s"),
    ("span.program_self_s", "s"),
];

/// Per-callback metrics, in the probe's kind order.
const CALLBACKS: [(&str, &str); 4] = [
    ("core.on_access.calls", "core.on_access.busy_s"),
    ("core.on_transfer.calls", "core.on_transfer.busy_s"),
    ("core.on_data_op.calls", "core.on_data_op.busy_s"),
    ("core.on_sync.calls", "core.on_sync.busy_s"),
];

/// Measured per-layer values by name, later laid out in [`PER_LAYER`]
/// order.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.insert(name, v);
    }
}

/// Run the traced measurement of `w`.
pub fn run(w: Workload, seed: u64, seconds: f64, spans_out: Option<&std::path::Path>) -> Outcome {
    let spans = Spans::new(true);
    let mut v = Values::default();
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(seconds);
    match w.shape() {
        Some(shape) => live_layers(shape, seed, budget, &spans, &mut v, &mut out),
        None => serve_layers(seed, budget, &spans, &mut v, &mut out),
    }
    for (name, unit) in PER_LAYER {
        out.push(name, v.0.get(name).copied().unwrap_or(0.0), unit);
    }
    if let Some(path) = spans_out {
        match spans.write_jsonl(path) {
            Ok(()) => out
                .lines
                .push(format!("spans written to {}", path.display())),
            Err(e) => out
                .lines
                .push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    out
}

fn live_layers(
    shape: Shape,
    seed: u64,
    budget: Duration,
    spans: &Spans,
    v: &mut Values,
    out: &mut Outcome,
) {
    let live = Live::new(shape);
    let mut rng = Rng::new(seed);
    let off = Spans::new(false);
    let reg = Registry::new();
    let n = live.programs();
    let mut orders = std::iter::repeat_with(move || rng.permutation(n));
    let native_sum = live.native_checksum();
    let mut time_rung = |rung: Rung| -> f64 {
        let order = orders.next().expect("endless orders");
        let p = live.pass(rung, &reg, &order, &off, None, false);
        out.attempted += 1;
        out.failed += u64::from(live.failed(&p, native_sum));
        p.wall
    };

    // The ladder, one adjacent pair at a time.
    let pair_budget = budget.mul_f64(0.09);
    let ladder: [(Rung, Rung); 5] = [
        (Rung::Native, Rung::Null),
        (Rung::Null, Rung::RegOff),
        (Rung::RegOff, Rung::Default),
        (Rung::NoRace, Rung::Default),
        (Rung::Default, Rung::Prov),
    ];
    let mut results: Vec<Paired> = Vec::new();
    for (a, b) in ladder {
        results.push(paired(pair_budget, 4, |side| {
            time_rung(if side == 0 { a } else { b })
        }));
    }
    let [native, null_off, obs, norace, prov] =
        [results[0], results[1], results[2], results[3], results[4]];
    v.set(
        "offload.ladder_pairs",
        results.iter().map(|p| p.pairs).min().unwrap_or(0) as f64,
    );
    v.set("offload.native_s", native.a);
    v.set("offload.dispatch_s", native.diff);
    v.set("core.detector_s", null_off.diff);
    v.set("obs.overhead_ratio", obs.ratio);
    v.set("core.default_s", norace.b);
    v.set("core.vsm_only_s", norace.a);
    v.set("core.race_share", norace.diff / (norace.b - native.a));
    v.set("core.provenance_overhead", prov.ratio - 1.0);

    // Counting pass: events per kind and kernel launches.
    let counts = Arc::new(ProbeStats::new(false));
    let order: Vec<usize> = (0..n).collect();
    live.pass(
        Rung::Null,
        &Registry::disabled(),
        &order,
        &off,
        Some(&counts),
        false,
    );
    v.set("offload.events.access", counts.kind(0).calls() as f64);
    v.set("offload.events.transfer", counts.kind(1).calls() as f64);
    v.set("offload.events.data_op", counts.kind(2).calls() as f64);
    v.set("offload.events.sync", counts.kind(3).calls() as f64);
    v.set("offload.transfer_bytes", counts.transfer_bytes() as f64);
    let kernels = counts.kernel_threads() as f64 / live::TEAM as f64;
    let launch = live::kernel_launch_s(budget.mul_f64(0.04));
    v.set("offload.kernels", kernels);
    v.set("offload.kernel_launch_s", launch);
    v.set("offload.launch_share", launch * kernels / native.a);

    // Traced passes (probe around every callback, spans at every program
    // boundary) paired with untraced ones; each side on a fresh registry
    // so the detector counters read back per pass.
    let mut last: Option<(Arc<ProbeStats>, Registry)> = None;
    let mut traced_passes = 0usize;
    let trace_pair = paired(budget.mul_f64(0.15), 4, |side| {
        if side == 0 {
            return live
                .pass(Rung::Default, &Registry::new(), &order, &off, None, false)
                .wall;
        }
        let stats = Arc::new(ProbeStats::new(true));
        let r = Registry::new();
        let p = live.pass(Rung::Default, &r, &order, spans, Some(&stats), false);
        out.attempted += 1;
        out.failed += u64::from(live.failed(&p, native_sum));
        traced_passes += 1;
        last = Some((stats, r));
        p.wall
    });
    v.set("trace.overhead_ratio", trace_pair.ratio);
    v.set("trace.passes", traced_passes as f64);
    let (stats, r) = last.expect("at least one traced pass");
    for (i, (calls, busy)) in CALLBACKS.into_iter().enumerate() {
        v.set(calls, stats.kind(i).calls() as f64);
        v.set(busy, stats.kind(i).busy_s());
    }
    let snap = r.snapshot();
    let hits = snap
        .counter("arbalest_detector_lookup_cache_total", &[("result", "hit")])
        .unwrap_or(0);
    let misses = snap
        .counter(
            "arbalest_detector_lookup_cache_total",
            &[("result", "miss")],
        )
        .unwrap_or(0);
    let transitions = snap.counter_sum("arbalest_detector_vsm_transition_pairs_total");
    let retries = snap
        .counter("arbalest_detector_shadow_cas_retries_total", &[])
        .unwrap_or(0);
    v.set("core.lookup.hits", hits as f64);
    v.set("core.lookup.misses", misses as f64);
    v.set(
        "core.lookup.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.set(
        "core.lookup.depth_mean",
        snap.histogram("arbalest_detector_lookup_depth", &[])
            .map_or(0.0, |h| h.mean()),
    );
    v.set("core.vsm.transitions", transitions as f64);
    v.set("shadow.cas_retries", retries as f64);
    v.set(
        "shadow.cas_retry_ratio",
        retries as f64 / transitions.max(1) as f64,
    );
    let per_pass = |s: f64| s / traced_passes.max(1) as f64;
    let self_times = spans.self_times();
    let st = |name: &str| self_times.get(name).copied().unwrap_or_default();
    v.set("span.construct_s", per_pass(st("construct").total_s));
    v.set("span.run_s", per_pass(st("run").total_s));
    v.set("span.program_self_s", per_pass(st("program").self_s));

    if shape == Shape::Dracc {
        report_stability(v, out);
    }

    // Single-thread layer replays of the recorded trace.
    let traces = live.record();
    let replay_s = replay::core_session(&traces, budget.mul_f64(0.08));
    v.set("core.replay_s", replay_s);
    // Live detector cost (default rung minus the null tool, so native
    // compute and event dispatch drop out) over the same analysis on one
    // thread.
    v.set("core.live_over_replay", (norace.b - null_off.a) / replay_s);
    layer_replays(&traces, budget, v);
    out.lines.push(format!(
        "ladder medians over {} pairs: native {:.4} s, default {:.4} s; {} traced passes",
        results.iter().map(|p| p.pairs).min().unwrap_or(0),
        native.a,
        norace.b,
        traced_passes
    ));
}

/// Report stability: run the DRACC programs live several times and count
/// the cases whose rendered reports differ between passes.
fn report_stability(v: &mut Values, out: &mut Outcome) {
    let live = Live::new(Shape::Dracc);
    let reg = Registry::new();
    let order: Vec<usize> = (0..live.programs()).collect();
    let passes = 5;
    let mut seen: BTreeMap<u32, std::collections::BTreeSet<String>> = BTreeMap::new();
    for _ in 0..passes {
        let p = live.pass(Rung::Default, &reg, &order, &Spans::new(false), None, true);
        out.attempted += 1;
        out.failed += u64::from(live.failed(&p, None));
        for (id, text) in p.renders {
            seen.entry(id).or_default().insert(text);
        }
    }
    v.set("core.report.passes", passes as f64);
    v.set(
        "core.report.distinct_renders",
        seen.values().filter(|s| s.len() > 1).count() as f64,
    );
}

/// `shadow`, `race` and `wire` replays shared by every workload.
fn layer_replays(traces: &[Vec<TraceEvent>], budget: Duration, v: &mut Values) {
    let (update, stab, resident) = replay::shadow(traces, budget.mul_f64(0.08));
    v.set("shadow.update_ns", update.ns);
    v.set("shadow.update_calls", update.calls as f64);
    v.set("shadow.stab_ns", stab.ns);
    v.set("shadow.stab_calls", stab.calls as f64);
    v.set("shadow.resident_bytes", resident as f64);
    let (check, range, sync, bytes) = replay::race(traces, budget.mul_f64(0.12));
    v.set("race.check_ns", check.ns);
    v.set("race.check_calls", check.calls as f64);
    v.set("race.range_check_ns", range.ns);
    v.set("race.range_check_calls", range.calls as f64);
    v.set("race.sync_ns", sync.ns);
    v.set("race.sync_calls", sync.calls as f64);
    v.set("race.approx_bytes", bytes as f64);
    let (enc, dec, bpe, events) = replay::wire(traces, budget.mul_f64(0.06));
    v.set("wire.encode_ns_per_event", enc);
    v.set("wire.decode_ns_per_event", dec);
    v.set("wire.bytes_per_event", bpe);
    v.set("wire.events", events as f64);
}

fn serve_layers(seed: u64, budget: Duration, spans: &Spans, v: &mut Values, out: &mut Outcome) {
    let corpus = Corpus::record();
    let server = match serve::start_server() {
        Ok(s) => s,
        Err(e) => {
            out.lines.push(format!("server failed to start: {e}"));
            out.attempted += 1;
            out.failed += 1;
            return;
        }
    };
    let addr = server.local_addr().clone();
    // The closed loop again, now with a span per session phase.
    let (sessions, _) = serve::closed_loop(&addr, &corpus, seed, budget.as_secs_f64() * 0.4, spans);
    out.attempted += sessions.len() as u64;
    out.failed += sessions.iter().filter(|s| !s.ok).count() as u64;
    // Split the median session: mean phase times over the middle tenth of
    // sessions by latency, so the four phases add up to `session_p50_s`.
    let mut by_latency: Vec<&serve::Session> = sessions.iter().collect();
    by_latency.sort_by(|a, b| a.latency.total_cmp(&b.latency));
    let width = (by_latency.len() / 10).max(1);
    let lo = (by_latency.len() / 2).saturating_sub(width / 2);
    let band = &by_latency[lo..(lo + width).min(by_latency.len())];
    let names = [
        "server.connect_s",
        "server.hello_s",
        "server.send_s",
        "server.finish_s",
    ];
    let mut sum = 0.0;
    for (k, name) in names.into_iter().enumerate() {
        debug_assert!(name.ends_with(&format!("{}_s", PHASES[k])));
        let mean = band.iter().map(|s| s.phases[k]).sum::<f64>() / band.len().max(1) as f64;
        sum += mean;
        v.set(name, mean);
    }
    v.set("server.phase_sum_s", sum);
    v.set("server.sessions", sessions.len() as f64);
    v.set(
        "server.session_p50_s",
        median(&sessions.iter().map(|s| s.latency).collect::<Vec<_>>()),
    );

    // Tracing overhead: single sessions, traced and untraced, paired.
    let off = Spans::new(false);
    let mut rng = Rng::new(seed);
    let n = corpus.traces.len();
    let pair = paired(budget.mul_f64(0.15), 6, |side| {
        let i = rng.permutation(n)[0];
        let s = serve::session(&addr, &corpus, i, if side == 0 { &off } else { spans });
        out.attempted += 1;
        out.failed += u64::from(!s.ok);
        s.latency
    });
    v.set("trace.overhead_ratio", pair.ratio);
    v.set("trace.passes", sessions.len() as f64);
    match arbalest_server::Client::connect(&addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
    {
        Ok(stats) => {
            v.set("server.busy_rejections", stats.busy_rejections as f64);
            v.set("server.sessions_finished", stats.sessions_finished as f64);
        }
        Err(e) => {
            out.lines.push(format!("stats request failed: {e}"));
            out.failed += 1;
        }
    }
    server.stop();

    // The submitted traces come from the DRACC programs; their live
    // reports are the ones whose stability the report layer is judged on.
    report_stability(v, out);
    let replay_s = replay::core_session(&corpus.traces, budget.mul_f64(0.08));
    v.set("core.replay_s", replay_s);
    layer_replays(&corpus.traces, budget, v);
    out.lines.push(format!(
        "{} traced sessions; the median sessions' phases sum to {:.4} s",
        sessions.len(),
        sum
    ));
}
