//! The benchmark's own self-test: short runs print every named metric,
//! finite and with its unit; the output checkers count a deliberately
//! wrong report set as a failure; and `BENCHMARK.json` names exactly the
//! metrics the program prints.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use arbalest_offload::json::Json;
use arbalest_offload::prelude::*;
use arbalest_perfbench::layers::PER_LAYER;
use arbalest_perfbench::live::{checksum_ok, reports_ok, Live, PassOut, Shape};
use arbalest_perfbench::serve::Corpus;
use arbalest_perfbench::{end_to_end, per_layer, Workload, END_TO_END};
use std::path::Path;

fn bogus_report(kind: ReportKind) -> Report {
    Report {
        tool: "arbalest",
        kind,
        message: "planted by the self-test".into(),
        buffer: Some("a".into()),
        device: DeviceId::HOST,
        addr: 0x1000,
        size: 8,
        loc: None,
        prev: None,
        suggested_fix: None,
        provenance: Vec::new(),
    }
}

#[test]
fn short_runs_print_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = end_to_end(w, 7, 0.2, Path::new(env!("CARGO_BIN_EXE_perfbench")));
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{}", w.name());
        for (m, (_, unit)) in out.metrics.iter().zip(END_TO_END) {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
            assert_eq!(m.unit, unit);
        }
        assert!(
            out.lines.iter().any(|l| l.contains("_tail_s")),
            "{}",
            w.name()
        );
        // Every set-up sample came back from its cold process.
        let setups = out
            .lines
            .iter()
            .find(|l| l.starts_with("setup_s is the median of"))
            .expect("set-up line");
        let counts: Vec<&str> = setups
            .split(' ')
            .filter(|t| t.parse::<u32>().is_ok())
            .collect();
        assert_eq!(counts.len(), 2, "{setups}");
        assert_eq!(counts[0], counts[1], "{setups}");
        if w == Workload::Serve {
            assert!(out
                .lines
                .iter()
                .any(|l| l.starts_with("serve_events_per_s")));
        }
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.lines);
        assert!(out.correct());
        let last = Json::parse(&out.json()).expect("result line is JSON");
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn short_traced_run_prints_every_per_layer_metric() {
    let out = per_layer(Workload::Serve, 7, 0.5, None);
    assert_eq!(out.metrics.len(), PER_LAYER.len());
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    assert!(out.get("server.hello_s").unwrap() > 0.0);
    assert!(out.get("wire.bytes_per_event").unwrap() > 0.0);
    assert_eq!(out.failed, 0);
}

#[test]
fn checkers_count_wrong_report_sets_as_failures() {
    // A buggy DRACC case with no report, or with one of the wrong effect.
    assert!(!reports_ok(Some(Effect::Uum), &[]));
    assert!(!reports_ok(
        Some(Effect::Bo),
        &[bogus_report(ReportKind::MappingUum)]
    ));
    assert!(reports_ok(
        Some(Effect::Uum),
        &[bogus_report(ReportKind::MappingUum)]
    ));
    // A correct program, DRACC or SPEC, with a report.
    assert!(!reports_ok(None, &[bogus_report(ReportKind::DataRace)]));
    // SPEC: a drifted checksum.
    assert!(!checksum_ok(184.6, 184.5));
    assert!(checksum_ok(184.5 + 1e-9, 184.5));
    // A pass carrying either fault counts as failed.
    let live = Live::new(Shape::Stencil);
    let native = live.native_checksum();
    assert!(!live.failed(
        &PassOut {
            checksum: native,
            ..PassOut::default()
        },
        native
    ));
    assert!(live.failed(
        &PassOut {
            checksum: native,
            failures: 1,
            ..PassOut::default()
        },
        native
    ));
    let drifted = native.map(|c| c * 1.001);
    assert!(live.failed(
        &PassOut {
            checksum: drifted,
            ..PassOut::default()
        },
        native
    ));

    // serve: a session must return exactly the replay's reports.
    let corpus = Corpus::record();
    let buggy = arbalest_dracc::all()
        .iter()
        .position(|b| b.expected.is_some())
        .unwrap();
    assert!(corpus.matches(buggy, &decode(&corpus.reference[buggy])));
    assert!(!corpus.matches(buggy, &[]));
    let mut extra = decode(&corpus.reference[buggy]);
    extra.push(bogus_report(ReportKind::DataRace));
    assert!(!corpus.matches(buggy, &extra));
}

fn decode(bytes: &[u8]) -> Vec<Report> {
    let mut cur = arbalest_offload::wire::Cursor::new(bytes);
    arbalest_offload::wire::decode_reports(&mut cur).expect("reference decodes")
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads[..], ours[..workloads.len()]);
}
