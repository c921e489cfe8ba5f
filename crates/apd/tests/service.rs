//! End-to-end daemon tests: two concurrent clients, bit-identical results,
//! the shared cache, the HTTP surface and graceful shutdown.

use ap_apd::client::{http_get, Client};
use ap_apd::proto::{Outcome, Request, Response, WireSpec};
use ap_apd::{DaemonConfig, Server};
use ap_apps::{App, SystemKind};
use ap_bench::runner::{report_codec, RunSpec};
use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apd-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn points(app: App, sizes: &[f64]) -> Vec<WireSpec> {
    sizes
        .iter()
        .flat_map(|&pages| {
            [SystemKind::Conventional, SystemKind::Radram]
                .map(|kind| WireSpec::point(app, kind, pages))
        })
        .collect()
}

/// The encoded report an in-process run of `spec` produces — the reference
/// the daemon's bytes must match exactly.
fn local_encoded(spec: &WireSpec) -> String {
    let report =
        RunSpec::new(spec.app, spec.kind, spec.pages, spec.config()).with_mode(spec.mode).execute();
    (report_codec().encode)(&report)
}

/// Extracts a `name value` sample from Prometheus text.
fn metric(body: &str, name: &str) -> Option<u64> {
    body.lines().find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
}

/// The acceptance test: two concurrent clients submit overlapping sweeps
/// and get results bit-identical to in-process runs; a second pass over the
/// same specs is served from the shared cache, verified through the
/// `/metrics` cache-hit counters; shutdown drains and leaves a complete
/// manifest.
#[test]
fn two_clients_get_bit_identical_results_and_share_the_cache() {
    let dir = temp_dir("e2e");
    let manifest = dir.join("manifest.jsonl");
    let mut server = Server::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(2),
        queue_capacity: 3, // small, so the sweeps exercise busy-backpressure
        cache_dir: Some(dir.join("cache")),
        manifest: Some(manifest.clone()),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr();

    // Overlapping sweeps: both clients measure database at 0.5 and 1.0
    // pages; each also has points of its own.
    let sweep_a = points(App::Database, &[0.25, 0.5, 1.0]);
    let sweep_b = [points(App::Database, &[0.5, 1.0]), points(App::Median, &[0.25, 0.5])].concat();

    // Phase 1: submit both sweeps concurrently over independent connections.
    let (results_a, results_b) = std::thread::scope(|s| {
        let run = |specs: Vec<WireSpec>| {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.run_all(&specs).expect("sweep completes")
            })
        };
        let a = run(sweep_a.clone());
        let b = run(sweep_b.clone());
        (a.join().unwrap(), b.join().unwrap())
    });

    // Every point must be byte-identical to an in-process run of the same
    // spec (same cache key, same codec, same simulation).
    let mut expected: HashMap<String, String> = HashMap::new();
    for (specs, results) in [(&sweep_a, &results_a), (&sweep_b, &results_b)] {
        assert_eq!(specs.len(), results.len());
        for (spec, result) in specs.iter().zip(results.iter()) {
            assert_eq!(result.outcome, Outcome::Ok, "{}: {:?}", result.key, result.outcome);
            let reference =
                expected.entry(result.key.clone()).or_insert_with(|| local_encoded(spec));
            assert_eq!(
                result.report_text.as_deref(),
                Some(reference.as_str()),
                "daemon bytes differ from in-process bytes for {}",
                result.key
            );
        }
    }

    // Phase 2: a new client resubmits client A's whole sweep. Every point
    // is now in the shared cache, so every result must be a hit — and the
    // /metrics cache-hit counter must advance by exactly that many.
    let hits_before = metric(&http_get(addr, "/metrics").unwrap(), "apd_cache_hits").unwrap_or(0);
    let mut client = Client::connect(addr).expect("connect");
    let rerun = client.run_all(&sweep_a).expect("cached sweep completes");
    for (spec, result) in sweep_a.iter().zip(&rerun) {
        assert!(result.cache_hit, "{} must be served from the shared cache", result.key);
        assert_eq!(result.report_text.as_deref(), Some(expected[&result.key].as_str()));
        assert_eq!(result.report.as_ref().unwrap().app, spec.app.name());
    }
    let metrics = http_get(addr, "/metrics").unwrap();
    let hits_after = metric(&metrics, "apd_cache_hits").unwrap();
    assert_eq!(
        hits_after - hits_before,
        sweep_a.len() as u64,
        "every phase-2 point is a cache hit:\n{metrics}"
    );

    // The registry also carries absorbed per-job simulation sessions.
    assert!(metrics.contains("cpu_instructions"), "absorbed session counters missing");
    assert!(metrics.contains("apd_job_wall_ms_bucket"), "histogram rendering missing");
    // The shared page-worker pool is surfaced so operators can watch reuse.
    assert!(metrics.contains("ap_page_pool_batches"), "pool counters missing:\n{metrics}");
    assert!(metrics.contains("ap_page_pool_reuses"), "pool counters missing:\n{metrics}");
    // The manifest counts its committed lines and syncs: every accepted job
    // has its line by the time its result arrives.
    let accepted = metric(&metrics, "apd_jobs_accepted").unwrap();
    let lines = metric(&metrics, "ap_manifest_lines").expect("manifest line count missing");
    let syncs = metric(&metrics, "ap_manifest_syncs").expect("manifest sync count missing");
    assert_eq!(lines, accepted, "one committed line per accepted job:\n{metrics}");
    assert!((1..=lines).contains(&syncs), "{syncs} syncs for {lines} lines:\n{metrics}");

    // HTTP surface.
    assert_eq!(http_get(addr, "/healthz").unwrap(), "ok\n");
    let jobs = ap_apd::json::parse(&http_get(addr, "/jobs").unwrap()).unwrap();
    let listed = jobs.get("jobs").and_then(|j| j.as_arr().map(<[_]>::len)).unwrap();
    assert!(listed > 0, "job table must list completed jobs");
    assert!(http_get(addr, "/nonsense").is_err(), "unknown endpoints are 404");

    // Graceful shutdown over the protocol: drains, confirms, exits.
    client.shutdown().expect("daemon confirms shutdown");
    server.wait();

    // The committed manifest is complete: one line per accepted job, all ok.
    let total = (sweep_a.len() + sweep_b.len() + rerun.len()) as u64;
    let summary = ap_engine::manifest::summarize(&manifest).unwrap();
    assert_eq!(summary.total as u64, total, "one manifest line per accepted job");
    assert_eq!(summary.ok as u64, total);
    assert!(summary.cache_hits >= rerun.len(), "phase 2 hits are recorded");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol robustness over a raw socket: malformed frames get error
/// responses without killing the connection; oversized frames close it.
#[test]
fn protocol_errors_are_reported_and_survivable() {
    let mut server = Server::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(1),
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut roundtrip = |line: &str| -> Response {
        writeln!(stream, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::decode(reply.trim_end()).expect("daemon frames always decode")
    };

    // Malformed JSON → error, connection still usable.
    let r = roundtrip("this is not json");
    assert!(matches!(&r, Response::Error { message } if message.contains("malformed")), "{r:?}");
    // Unknown request type → error, connection still usable.
    let r = roundtrip("{\"type\":\"frobnicate\"}");
    assert!(matches!(&r, Response::Error { message } if message.contains("unknown")), "{r:?}");
    // Bad spec → error, connection still usable.
    let r = roundtrip(
        "{\"type\":\"submit\",\"spec\":{\"app\":\"nope\",\"system\":\"radram\",\"pages\":1}}",
    );
    assert!(matches!(&r, Response::Error { message } if message.contains("nope")), "{r:?}");
    // The connection survived all three: a ping still pongs.
    assert_eq!(roundtrip("{\"type\":\"ping\"}"), Response::Pong);

    // An oversized frame is answered with an error and the connection
    // closes (the stream is mid-frame, there is no way to resync).
    let huge = format!("{{\"type\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(ap_apd::MAX_FRAME));
    writeln!(stream, "{huge}").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let r = Response::decode(reply.trim_end()).unwrap();
    assert!(matches!(&r, Response::Error { message } if message.contains("exceeds")), "{r:?}");
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "connection closed after oversize");

    server.stop();
}

/// Per-job deadlines and cancellation flow through the protocol; the
/// daemon's fault isolation keeps serving afterwards.
#[test]
fn deadlines_and_cancellation_flow_through_the_protocol() {
    let mut server = Server::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(1),
        cache_dir: None, // a cache hit would defeat the deadline test
        ..DaemonConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // A 1 ms deadline on a real simulation point: the watchdog must fire.
    let slow = WireSpec::point(App::DynProg, SystemKind::Radram, 4.0);
    client.submit(&slow, Some(1), 0).unwrap();
    let result = client.collect().unwrap();
    assert!(matches!(result.outcome, Outcome::TimedOut(_)), "{:?}", result.outcome);

    // While the worker is busy, queued jobs can be cancelled. The first
    // submission occupies the single worker; the second sits in the queue.
    let busy = WireSpec::point(App::Database, SystemKind::Radram, 2.0);
    let victim = WireSpec::point(App::Database, SystemKind::Conventional, 2.0);
    let (_busy_id, _) = client.submit(&busy, None, 0).unwrap();
    let (victim_id, _) = client.submit(&victim, None, 0).unwrap();
    let cancelled = client.cancel(victim_id).unwrap();
    // Timing-dependent: the victim may already be running (not cancellable)
    // if the busy job finished first. Either way the protocol must agree
    // with itself: the cancel verdict matches the eventual outcomes.
    let mut outcomes = HashMap::new();
    for _ in 0..2 {
        let done = client.collect().unwrap();
        outcomes.insert(done.job, done.outcome);
    }
    if cancelled {
        assert_eq!(outcomes[&victim_id], Outcome::Cancelled);
    } else {
        assert_eq!(outcomes[&victim_id], Outcome::Ok);
    }

    // The daemon is still healthy after a timeout and a cancellation.
    client.ping().unwrap();
    let quick = WireSpec::point(App::Database, SystemKind::Radram, 0.25);
    client.submit(&quick, None, 0).unwrap();
    assert_eq!(client.collect().unwrap().outcome, Outcome::Ok);
    server.stop();
}

/// `status` reports pool shape; submits during drain are rejected with the
/// draining reason.
#[test]
fn status_and_draining_rejection() {
    let mut server = Server::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(2),
        ..DaemonConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (_, _, workers, draining) = client.status().unwrap();
    assert_eq!(workers, 2);
    assert!(!draining);

    server.stop(); // drains the pool; intake now rejects
    let mut raw = TcpStream::connect(server.addr());
    // The listener is down after stop; if the connect raced the shutdown,
    // a submit must be rejected as draining.
    if let Ok(stream) = &mut raw {
        let spec = WireSpec::point(App::Database, SystemKind::Radram, 0.25);
        let frame = Request::Submit { spec, deadline_ms: None }.encode();
        if writeln!(stream, "{frame}").is_ok() {
            let mut reply = String::new();
            if BufReader::new(stream).read_line(&mut reply).is_ok() && !reply.trim().is_empty() {
                let r = Response::decode(reply.trim_end()).unwrap();
                assert!(
                    matches!(&r, Response::Rejected { reason, .. } if reason == "draining"),
                    "{r:?}"
                );
            }
        }
    }
}

/// A long-lived client re-submitting one point: every cache hit answers in
/// well under the 40 ms delayed-ACK floor that small frames without
/// `TCP_NODELAY` would wait for.
#[test]
fn long_lived_client_hits_do_not_wait_for_delayed_acks() {
    let dir = temp_dir("nodelay");
    let mut server = Server::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(1),
        cache_dir: Some(dir.join("cache")),
        ..DaemonConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = WireSpec::point(App::Database, SystemKind::Radram, 0.25);
    let mut hits_ms = Vec::new();
    for round in 0..20 {
        let started = std::time::Instant::now();
        client.submit(&spec, None, 0).unwrap();
        let done = client.collect().unwrap();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(done.outcome, Outcome::Ok);
        assert_eq!(done.cache_hit, round > 0);
        if done.cache_hit {
            hits_ms.push(ms);
        }
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    hits_ms.sort_by(f64::total_cmp);
    let median = hits_ms[hits_ms.len() / 2];
    assert!(median < 10.0, "median hit latency {median:.2} ms; all: {hits_ms:?}");
}

/// Two clients submitting one uncached point at once share one
/// simulation: both get byte-identical reports, and `/metrics` counts a
/// single miss (the second request attaches to the running job, or, if it
/// is picked after the store, hits the cache).
#[test]
fn concurrent_duplicate_submits_simulate_once() {
    let dir = temp_dir("single-flight");
    let mut server = Server::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(2),
        cache_dir: Some(dir.join("cache")),
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let spec = WireSpec::point(App::Database, SystemKind::Radram, 1.0);
    let barrier = std::sync::Barrier::new(2);
    let texts: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    client.submit(&spec, None, 0).unwrap();
                    let done = client.collect().unwrap();
                    assert_eq!(done.outcome, Outcome::Ok);
                    done.report_text.unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(texts[0], texts[1], "both clients get the same bytes");
    let metrics = http_get(addr, "/metrics").unwrap();
    assert_eq!(metric(&metrics, "apd_cache_misses"), Some(1), "{metrics}");
    assert_eq!(metric(&metrics, "apd_cache_hits"), Some(1), "{metrics}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
