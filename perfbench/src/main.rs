//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <dracc|stencil|solver|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable lines, then the result as one JSON object on the
//! last line. `--trace 0` reports the end-to-end metrics; `--trace 1` the
//! per-layer metrics, and writes the recorded spans as JSON lines under
//! the build directory (`$CARGO_TARGET_DIR`, else `perfbench/target`).
//!
//! `--cold 1` is the benchmark's own: an untraced run starts the binary
//! again with it, once per `setup_s` sample (see the `cold` module).

use arbalest_perfbench::{cold, end_to_end, per_layer, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cold: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, 0u64, 10.0f64);
    let (mut trace, mut cold) = (false, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" | cold::FLAG => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, not '{value}'")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    cold = on;
                }
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        cold,
    })
}

/// What an end-to-end metric means on `w`: a pass on the live
/// workloads, a session on `serve`.
fn alias(w: Workload, metric: &str) -> Option<&'static str> {
    let serve = w == Workload::Serve;
    Some(match metric {
        "p50_s" if serve => "session_p50_s",
        "p50_s" => "detect_p50_s",
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.cold {
        println!("{}", cold::child(args.workload, args.seed));
        return ExitCode::SUCCESS;
    }
    let name = args.workload.name();
    let out = if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        let path = dir
            .join("perfbench-spans")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        per_layer(args.workload, args.seed, args.seconds, Some(&path))
    } else {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: cannot locate own binary: {e}");
                return ExitCode::from(2);
            }
        };
        end_to_end(args.workload, args.seed, args.seconds, &exe)
    };
    println!(
        "workload {name}, seed {}, {} s, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &out.lines {
        println!("  {line}");
    }
    for m in &out.metrics {
        let label = match alias(args.workload, &m.name) {
            Some(a) => format!("{a} ({})", m.name),
            None => m.name.clone(),
        };
        println!("  {label:<34} {:>16.6} {}", m.value, m.unit);
    }
    println!(
        "  {:<34} {:>16.6} ratio  ({} failed of {} attempted)",
        "error_rate",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    println!("{}", out.json());
    ExitCode::SUCCESS
}
