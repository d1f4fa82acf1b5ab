//! Connection-hardening and supervision behaviour over live sockets: a
//! peer that dies mid-frame, announces an oversized frame, idles
//! forever, or stalls mid-frame must always produce a typed error (or a
//! clean reap) — never a hang, a crash, or a partially-mutated session —
//! and the server must keep serving afterwards. Shard panics and budget
//! breaches must surface as typed `SessionFailed` replies.

use arbalest_offload::fault::FaultConfig;
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{TraceEvent, TraceRecorder};
use arbalest_server::{
    Client, Frame, ListenAddr, ProtoError, Server, ServerConfig, SessionFailure, WIRE_VERSION,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Suppress the default panic hook's backtrace spam for panics this test
/// binary injects on purpose; real panics still print.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected shard panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn record(bench: &arbalest_dracc::Benchmark) -> Vec<TraceEvent> {
    let recorder = Arc::new(TraceRecorder::new());
    let rt = Runtime::with_tool(Config::default(), recorder.clone());
    bench.run(&rt);
    recorder.take()
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), cfg).expect("bind")
}

fn tcp_addr(server: &Server) -> String {
    match server.local_addr() {
        ListenAddr::Tcp(a) => a.clone(),
        other => panic!("wanted tcp, got {other}"),
    }
}

fn prom_sum(prom: &str, name: &str) -> u64 {
    prom.lines()
        .filter(|l| l.starts_with(&format!("{name}{{")) || l.starts_with(&format!("{name} ")))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

#[test]
fn mid_frame_disconnect_is_counted_and_the_server_keeps_serving() {
    let server = start(ServerConfig { shards: 1, ..ServerConfig::default() });
    let addr = tcp_addr(&server);

    // Announce a 100-byte frame, deliver 10 bytes, vanish.
    {
        let mut raw = TcpStream::connect(&addr).expect("connect");
        raw.write_all(&100u32.to_le_bytes()).expect("len prefix");
        raw.write_all(&[0x02; 10]).expect("partial body");
        // Dropping the stream closes it mid-frame.
    }
    // The handler must notice the truncation promptly and move on; give it
    // a moment, then prove the server is still healthy.
    std::thread::sleep(Duration::from_millis(100));

    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);
    let mut client = Client::connect(server.local_addr()).expect("connect after disconnect");
    let reports = client.submit_chunked(&events, 64).expect("submit after disconnect");
    assert!(!reports.is_empty(), "DRACC 22 is a buggy case");

    let prom = client.metrics().expect("metrics");
    assert!(
        prom_sum(&prom, "arbalest_server_decode_errors_total") >= 1,
        "mid-frame disconnect not counted as a typed decode error:\n{prom}"
    );
    // No session state was mutated by the dead connection: only the good
    // session ever opened.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions_started, 1);
    assert_eq!(stats.sessions_finished, 1);
    server.stop();
}

#[test]
fn oversized_frame_announcement_is_refused_with_a_typed_error() {
    let server = start(ServerConfig { shards: 1, max_frame: 1024, ..ServerConfig::default() });
    let addr = tcp_addr(&server);

    let mut raw = TcpStream::connect(&addr).expect("connect");
    // Announce a frame far over the per-instance limit (but under the
    // protocol cap, so only the configured limit can refuse it).
    raw.write_all(&(1_000_000u32).to_le_bytes()).expect("len prefix");
    raw.flush().expect("flush");
    let reply = Frame::read_from(&mut raw, &mut || true).expect("server must answer, not hang");
    match reply {
        Frame::Error { message } => {
            assert!(message.contains("frame"), "unexpected refusal text: {message}")
        }
        other => panic!("wanted Error, got {other:?}"),
    }

    // The refusal closed only that connection; the server still serves.
    let mut client = Client::connect(server.local_addr()).expect("connect after refusal");
    client.hello().expect("hello after refusal");
    server.stop();
}

#[test]
fn idle_connections_are_reaped_with_a_typed_timeout() {
    let server = start(ServerConfig {
        shards: 1,
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = tcp_addr(&server);

    let mut raw = TcpStream::connect(&addr).expect("connect");
    // Send nothing. The reaper must close us with the typed reason rather
    // than holding the handler thread forever.
    let reply = Frame::read_from(&mut raw, &mut || true).expect("reap notice");
    assert!(
        matches!(reply, Frame::SessionFailed(SessionFailure::IdleTimeout { limit_ms: 300 })),
        "{reply:?}"
    );
    server.stop();
}

#[test]
fn stalled_mid_frame_sender_hits_the_request_deadline() {
    let server = start(ServerConfig {
        shards: 1,
        idle_timeout: Duration::from_secs(60),
        request_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = tcp_addr(&server);

    let mut raw = TcpStream::connect(&addr).expect("connect");
    // Start a frame (length prefix + first body byte), then stall.
    raw.write_all(&8u32.to_le_bytes()).expect("len prefix");
    raw.write_all(&[0x01]).expect("first byte");
    raw.flush().expect("flush");
    let reply = Frame::read_from(&mut raw, &mut || true).expect("deadline notice");
    assert!(
        matches!(reply, Frame::SessionFailed(SessionFailure::DeadlineExceeded { limit_ms: 300 })),
        "{reply:?}"
    );
    server.stop();
}

#[test]
fn shard_panic_surfaces_as_a_typed_failure_and_spares_other_sessions() {
    quiet_injected_panics();
    // Rate 1.0: every Events batch trips the injected panic.
    let server = start(ServerConfig {
        shards: 1,
        faults: FaultConfig::new(11, 1.0),
        ..ServerConfig::default()
    });
    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);

    // An innocent session is open on the same shard while the victim's
    // batch panics the worker.
    let mut innocent = Client::connect(server.local_addr()).expect("connect innocent");
    innocent.hello().expect("hello innocent");

    let mut victim = Client::connect(server.local_addr()).expect("connect victim");
    let err = victim.submit_chunked(&events, 64).expect_err("victim must fail typed");
    match err {
        ProtoError::Failed(SessionFailure::ShardPanic { message }) => {
            assert!(message.contains("injected shard panic"), "{message}")
        }
        other => panic!("wanted ShardPanic, got {other:?}"),
    }

    // The worker restarted; the innocent session (which never fed events,
    // so never tripped the fault) still finishes cleanly.
    let reports = innocent.finish().expect("innocent finish");
    assert!(reports.is_empty());
    server.stop();
}

#[test]
fn budget_breach_ends_the_session_with_a_typed_failure() {
    let server = start(ServerConfig {
        shards: 1,
        max_session_bytes: 1,
        ..ServerConfig::default()
    });
    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = client.submit_chunked(&events, 64).expect_err("1-byte budget must fail");
    assert!(
        matches!(err, ProtoError::Failed(SessionFailure::BudgetExceeded { budget_bytes: 1, .. })),
        "{err:?}"
    );

    // The budget is per session: an unconstrained follow-up session would
    // still fail here (budget applies to all), but the server itself is
    // healthy and answers stats.
    let mut admin = Client::connect(server.local_addr()).expect("connect admin");
    let stats = admin.stats().expect("stats");
    assert_eq!(stats.sessions_started, 1);
    server.stop();
}

#[test]
fn wire_version_mismatch_still_fails_fast() {
    // Hardening must not regress the version check's fail-fast behaviour.
    let server = start(ServerConfig { shards: 1, ..ServerConfig::default() });
    let addr = tcp_addr(&server);
    let mut raw = TcpStream::connect(&addr).expect("connect");
    Frame::Hello { version: WIRE_VERSION + 1, resume: None }.write_to(&mut raw).expect("hello");
    let reply = Frame::read_from(&mut raw, &mut || true).expect("reply");
    assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
    server.stop();
}

#[test]
fn fresh_connection_sessions_are_not_held_by_the_accept_thread() {
    // `arbalest submit` opens a fresh connection per session, so the
    // accept thread sits on every session's path: it must hand a new
    // connection over as soon as it arrives, not on a timer.
    let server = start(ServerConfig { shards: 1, ..ServerConfig::default() });
    let begun = Instant::now();
    for _ in 0..50 {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.hello().expect("hello");
        assert!(client.finish().expect("finish").is_empty());
    }
    let took = begun.elapsed();
    assert!(took < Duration::from_millis(500), "50 sessions took {took:?}");
    server.stop();
}

#[test]
fn stop_wakes_an_idle_accept_thread_on_every_listener_kind() {
    let unix = std::env::temp_dir().join(format!("arbalest-hardening-{}.sock", std::process::id()));
    for addr in [
        ListenAddr::Tcp("127.0.0.1:0".into()),
        // An unspecified bind address: the wake connection goes through
        // loopback.
        ListenAddr::Tcp("0.0.0.0:0".into()),
        ListenAddr::Unix(unix.clone()),
    ] {
        let metrics = arbalest_obs::Registry::new();
        let server = Server::start(
            &addr,
            ServerConfig { shards: 1, metrics: metrics.clone(), ..ServerConfig::default() },
        )
        .expect("bind");
        // Let the accept thread reach its blocking `accept`.
        std::thread::sleep(Duration::from_millis(50));
        let begun = Instant::now();
        server.stop();
        let took = begun.elapsed();
        assert!(took < Duration::from_secs(2), "stop on {addr} took {took:?}");
        assert_eq!(
            metrics.snapshot().counter("arbalest_server_forced_aborts_total", &[]),
            Some(0),
            "stop on {addr} gave up on the accept thread"
        );
    }
    assert!(!unix.exists(), "socket file not cleaned up");
}

#[test]
fn a_connection_after_shutdown_is_closed_without_a_session() {
    let metrics = arbalest_obs::Registry::new();
    let server = start(ServerConfig { shards: 1, metrics: metrics.clone(), ..ServerConfig::default() });
    let addr = tcp_addr(&server);
    Client::connect(server.local_addr())
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    server.wait_for_shutdown();

    // The late connection may be refused outright or accepted and then
    // closed; either way its Hello must not be answered with a session.
    if let Ok(mut raw) = TcpStream::connect(&addr) {
        raw.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        let _ = Frame::Hello { version: WIRE_VERSION, resume: None }.write_to(&mut raw);
        match Frame::read_from(&mut raw, &mut || false) {
            Err(ProtoError::ShuttingDown) => panic!("late connection was left open"),
            Err(_) => {}
            Ok(reply) => panic!("late connection was served: {reply:?}"),
        }
    }
    let begun = Instant::now();
    server.stop();
    assert!(begun.elapsed() < Duration::from_secs(2), "stop after Shutdown hung");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("arbalest_server_sessions_started_total", &[]), Some(0));
    assert_eq!(snap.counter("arbalest_server_forced_aborts_total", &[]), Some(0));
}
