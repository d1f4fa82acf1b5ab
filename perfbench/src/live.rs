//! The three live workloads: programs run on the offloading runtime with
//! a detector attached, team size 2.
//!
//! A pass is the unit the end-to-end metrics time: the 56-program DRACC
//! sweep in a seeded order, or one run of a SPEC-like program at the
//! `small` preset. Every program gets a fresh `Runtime` and a fresh
//! detector, built inside the timed pass because users pay for that too.

use crate::probe::{NullTool, Probe, ProbeStats};
use crate::spans::Spans;
use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_dracc::Benchmark;
use arbalest_obs::Registry;
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{TraceEvent, TraceRecorder};
use arbalest_spec::Preset;
use std::sync::Arc;
use std::time::Instant;

/// Kernel team size of every live run (the machine has two cores).
pub const TEAM: usize = 2;

/// Which programs a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The 56 DRACC programs.
    Dracc,
    /// 503.postencil at `small`.
    Stencil,
    /// 554.pcg at `small`.
    Solver,
}

/// One rung of the cost ladder, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// No tool attached.
    Native,
    /// A tool that ignores every event: event dispatch only.
    Null,
    /// Arbalest with metrics disabled in runtime and detector.
    RegOff,
    /// Arbalest without race detection (`check_races = false`).
    NoRace,
    /// Arbalest as the CLI runs it: shared enabled registry.
    Default,
    /// `Default` plus VSM provenance capture.
    Prov,
}

impl Rung {
    fn detector(self) -> Option<ArbalestConfig> {
        let base = ArbalestConfig::default();
        match self {
            Rung::Native | Rung::Null => None,
            Rung::RegOff | Rung::Default => Some(base),
            Rung::NoRace => Some(ArbalestConfig {
                check_races: false,
                ..base
            }),
            Rung::Prov => Some(ArbalestConfig {
                provenance: true,
                ..base
            }),
        }
    }

    /// Whether runtime and detector record into the shared registry.
    fn metered(self) -> bool {
        matches!(self, Rung::NoRace | Rung::Default | Rung::Prov)
    }
}

/// Report check of one program: a buggy DRACC case must report its seeded
/// effect; a correct program (DRACC or SPEC) must report nothing.
pub fn reports_ok(expected: Option<Effect>, reports: &[Report]) -> bool {
    match expected {
        Some(effect) => reports.iter().any(|r| r.kind.credits_effect(effect)),
        None => reports.is_empty(),
    }
}

/// Checksum check of one SPEC run: equal to the native run's within
/// fig8's relative tolerance.
pub fn checksum_ok(checksum: f64, native: f64) -> bool {
    (checksum - native).abs() <= 1e-6 * native.abs().max(1.0)
}

/// What one pass measured and found.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall time of the whole pass, seconds.
    pub wall: f64,
    /// `Runtime::tool_bytes()` at the end of each program, summed.
    pub tool_bytes: u64,
    /// Programs whose report check failed (only rungs with a detector
    /// are checked).
    pub failures: u32,
    /// SPEC checksum.
    pub checksum: Option<f64>,
    /// Rendered reports per DRACC case id, when asked for.
    pub renders: Vec<(u32, String)>,
}

/// A live workload's programs.
pub struct Live {
    shape: Shape,
    dracc: Vec<Benchmark>,
}

impl Live {
    /// Load the programs of `shape`.
    pub fn new(shape: Shape) -> Live {
        let dracc = if shape == Shape::Dracc {
            arbalest_dracc::all()
        } else {
            Vec::new()
        };
        Live { shape, dracc }
    }

    /// Programs in one pass.
    pub fn programs(&self) -> usize {
        if self.shape == Shape::Dracc {
            self.dracc.len()
        } else {
            1
        }
    }

    fn spec(&self) -> arbalest_spec::Workload {
        let name = if self.shape == Shape::Stencil {
            "postencil"
        } else {
            "pcg"
        };
        arbalest_spec::by_name(name).expect("workload exists")
    }

    fn runtime(&self, rung: Rung, reg: &Registry, probe: Option<&Arc<ProbeStats>>) -> Runtime {
        let metered = rung.metered();
        let reg = if metered {
            reg.clone()
        } else {
            Registry::disabled()
        };
        let cfg = Config::default().team_size(TEAM).metrics(reg.clone());
        let tool: Option<Arc<dyn Tool>> = match rung.detector() {
            Some(dcfg) => Some(Arc::new(Arbalest::with_registry(dcfg, reg))),
            None if rung == Rung::Null => Some(Arc::new(NullTool)),
            None => None,
        };
        let tool = match (tool, probe) {
            (Some(t), Some(stats)) => Some(Arc::new(Probe::new(t, stats.clone())) as Arc<dyn Tool>),
            (t, _) => t,
        };
        match tool {
            Some(t) => Runtime::with_tool(cfg, t),
            None => Runtime::new(cfg),
        }
    }

    /// Run one pass. `order` lists DRACC case indices (ignored for SPEC);
    /// `reg` is the shared registry of metered rungs.
    pub fn pass(
        &self,
        rung: Rung,
        reg: &Registry,
        order: &[usize],
        spans: &Spans,
        probe: Option<&Arc<ProbeStats>>,
        renders: bool,
    ) -> PassOut {
        let checked = rung.detector().is_some();
        let mut out = PassOut::default();
        let group = spans.group();
        let start = Instant::now();
        let pass = spans.begin(group, 0, "pass");
        let single = [0usize];
        let order = if self.shape == Shape::Dracc {
            order
        } else {
            &single[..]
        };
        for &i in order {
            let program = spans.begin(group, pass.id(), "program");
            let construct = spans.begin(group, program.id(), "construct");
            let rt = self.runtime(rung, reg, probe);
            spans.end(construct);
            let run = spans.begin(group, program.id(), "run");
            let checksum = match self.shape {
                Shape::Dracc => {
                    self.dracc[i].run(&rt);
                    None
                }
                _ => Some((self.spec().run)(&rt, Preset::Small)),
            };
            spans.end(run);
            out.tool_bytes += rt.tool_bytes();
            out.checksum = checksum;
            if checked {
                let reports = rt.reports();
                let case = (checksum.is_none()).then(|| &self.dracc[i]);
                out.failures += u32::from(!reports_ok(case.and_then(|b| b.expected), &reports));
                if let (Some(b), true) = (case, renders) {
                    let text: Vec<String> = reports.iter().map(Report::render).collect();
                    out.renders.push((b.id, text.join("")));
                }
            }
            drop(rt);
            spans.end(program);
        }
        spans.end(pass);
        out.wall = start.elapsed().as_secs_f64();
        out
    }

    /// Whether a pass failed its output checks, given the native checksum
    /// of a SPEC program.
    pub fn failed(&self, p: &PassOut, native: Option<f64>) -> bool {
        p.failures > 0 || matches!((p.checksum, native), (Some(c), Some(n)) if !checksum_ok(c, n))
    }

    /// Checksum of a pass on the native rung (`None` for DRACC).
    pub fn native_checksum(&self) -> Option<f64> {
        let off = Spans::new(false);
        self.pass(Rung::Native, &Registry::disabled(), &[], &off, None, false)
            .checksum
    }

    /// Record each program's event stream once (no detector attached).
    pub fn record(&self) -> Vec<Vec<TraceEvent>> {
        let run = |f: &dyn Fn(&Runtime)| {
            let rec = Arc::new(TraceRecorder::new());
            let rt = Runtime::with_tool(Config::default().team_size(TEAM), rec.clone());
            f(&rt);
            drop(rt);
            rec.take()
        };
        match self.shape {
            Shape::Dracc => self.dracc.iter().map(|b| run(&|rt| b.run(rt))).collect(),
            _ => vec![run(&|rt| {
                (self.spec().run)(rt, Preset::Small);
            })],
        }
    }
}

/// Median seconds of one kernel launch: an empty `target` region whose
/// body forks a team-wide `par_for`, on a runtime without tools.
pub fn kernel_launch_s(budget: std::time::Duration) -> f64 {
    let rt = Runtime::new(Config::default().team_size(TEAM));
    const BATCH: usize = 32;
    crate::stats::repeat(budget, 5, || {
        crate::stats::time(|| {
            for _ in 0..BATCH {
                rt.target().run(|k| k.par_for(0..TEAM, |_, _| {}));
            }
        }) / BATCH as f64
    })
}
