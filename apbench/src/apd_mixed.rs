//! `apd-mixed`: the `apctl point` path. An in-process `apd::Server` (two
//! workers, fresh cache, manifest on) serves two closed-loop clients, each
//! connecting, submitting and collecting one point at a time — a fresh
//! connection per point, as `apctl point` makes — from a seeded stream of
//! Figure 3 points of at most 8 pages, on both systems and both tiers.
//! Every point appears once as a cache miss and once more, later in the
//! same client's stream, as a cache hit — so serving cost (protocol, fair
//! queue, cache short-circuit, codec, diag) separates from simulation cost,
//! and the work per pass is the same for every seed.

use crate::fig3::{self, count_stats};
use crate::metrics::median;
use crate::probe;
use crate::run::{measure, Rng, Run, RunConfig, SETUPS};
use crate::trace::{us_since, Span};
use ap_apd::json::{self, Value};
use ap_apd::{Client, DaemonConfig, JobResult, Server, WireSpec};
use ap_apps::{App, ExecMode, SystemKind};
use ap_bench::runner::{report_codec, RunSpec};
use ap_bench::sweep::size_grid;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Concurrent clients: two, never more than the host has cores.
fn clients() -> usize {
    fig3::workers()
}

/// Busy-rejection retries per submit (a closed-loop client keeps at most
/// one job queued, so rejections mean a fault).
const RETRIES: usize = 3;

/// Every Figure 3 grid point of at most 8 pages (half a page when quick),
/// both systems and tiers.
fn pool(quick: bool) -> Vec<WireSpec> {
    let mut specs = Vec::new();
    for app in App::ALL {
        let largest = if quick { 0.5 } else { 8.0 };
        for pages in size_grid(app, quick).into_iter().filter(|&p| p <= largest) {
            for kind in [SystemKind::Conventional, SystemKind::Radram] {
                for mode in [ExecMode::Accurate, ExecMode::Fast] {
                    specs.push(WireSpec::point(app, kind, pages).with_mode(mode));
                }
            }
        }
    }
    specs
}

/// One client's stream: indices into the pool, each twice; the second
/// occurrence (a cache hit) always after the first (a miss).
fn stream(rng: &mut Rng, mut own: Vec<usize>) -> Vec<(usize, bool)> {
    own.reverse();
    let mut pending = Vec::new();
    let mut out = Vec::with_capacity(2 * own.len());
    while !own.is_empty() || !pending.is_empty() {
        if !pending.is_empty() && (own.is_empty() || rng.next() & 1 == 0) {
            out.push((pending.swap_remove(rng.below(pending.len())), true));
        } else {
            let u = own.pop().expect("a unique remains");
            pending.push(u);
            out.push((u, false));
        }
    }
    out
}

/// The served result of one request.
struct Served {
    result: JobResult,
    repeat: bool,
    start: Instant,
    latency: f64,
}

struct Apd {
    server: Server,
    cache: PathBuf,
    specs: Vec<WireSpec>,
    streams: Vec<Vec<(usize, bool)>>,
    warmup_failed: usize,
}

impl Drop for Apd {
    fn drop(&mut self) {
        self.server.stop();
    }
}

/// Starts the server on a fresh cache and manifest, generates the clients'
/// streams, and warms the daemon up with tiny points that are not in any
/// stream.
fn setup(cfg: &RunConfig) -> Apd {
    let dir = cfg.fresh_dir("apd-mixed");
    let cache = dir.join("cache");
    let server = Server::start(DaemonConfig {
        workers: Some(fig3::workers()),
        cache_dir: Some(cache.clone()),
        manifest: Some(dir.join("manifest.jsonl")),
        ..DaemonConfig::default()
    })
    .expect("apd server starts on a local port");
    let specs = pool(cfg.quick);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let mut rng = Rng::new(cfg.seed, 2);
    rng.shuffle(&mut order);
    let n = clients();
    let streams = (0..n)
        .map(|c| stream(&mut rng, order.iter().copied().skip(c).step_by(n).collect()))
        .collect();
    let warmup: Vec<WireSpec> = probe::tiny_specs(0.125, ExecMode::Accurate)
        .into_iter()
        .map(|s| WireSpec::point(s.app, s.kind, s.pages))
        .collect();
    let warmup_failed = match Client::connect(server.addr()).and_then(|mut c| c.run_all(&warmup)) {
        Ok(done) => done.iter().filter(|d| d.report.is_none()).count(),
        Err(_) => warmup.len(),
    };
    Apd { server, cache, specs, streams, warmup_failed }
}

impl Apd {
    /// One pass: the cache emptied (untimed), then every client runs its
    /// stream concurrently. Returns the pass seconds and each client's
    /// served requests in stream order; failures go to `bad`.
    fn pass(&mut self, bad: &mut Vec<String>) -> (f64, Vec<Vec<Served>>) {
        let _ = std::fs::remove_dir_all(&self.cache);
        let (specs, addr) = (&self.specs, self.server.addr());
        let t = Instant::now();
        let served: Vec<(Vec<Served>, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .map(|stream| {
                    scope.spawn(move || {
                        let mut served = Vec::with_capacity(stream.len());
                        let mut errors = Vec::new();
                        for &(i, repeat) in stream {
                            let start = Instant::now();
                            let done = Client::connect(addr).and_then(|mut client| {
                                client.submit(&specs[i], None, RETRIES)?;
                                client.collect()
                            });
                            match done {
                                Ok(result) => served.push(Served {
                                    result,
                                    repeat,
                                    start,
                                    latency: start.elapsed().as_secs_f64(),
                                }),
                                Err(e) => errors.push(format!("{:?}: {e}", specs[i])),
                            }
                        }
                        (served, errors)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let secs = t.elapsed().as_secs_f64();
        let mut out = Vec::new();
        for (s, errors) in served {
            bad.extend(errors);
            out.push(s);
        }
        (secs, out)
    }
}

/// Checks served requests against the hit/miss pattern and the in-process
/// oracle texts; returns the pass digest.
fn check(served: &[Vec<Served>], oracle: &HashMap<String, String>, bad: &mut Vec<String>) -> u64 {
    let mut texts = String::new();
    for s in served.iter().flatten() {
        let r = &s.result;
        let text = r.report_text.as_deref().unwrap_or_default();
        texts.push_str(text);
        if r.cache_hit != s.repeat || oracle.get(&r.key).map(String::as_str) != Some(text) {
            bad.push(format!("{} (hit {}, repeat {})", r.key, r.cache_hit, s.repeat));
        }
    }
    ap_engine::fnv1a(texts.as_bytes())
}

/// Runs the workload: set-ups, untraced passes, then the oracle —
/// every distinct point run in process with `RunSpec::execute` and encoded
/// with the report codec, which every served text must equal byte for byte.
pub fn run(cfg: &RunConfig) -> Run {
    let mut bad = Vec::new();
    let mut passes = Vec::new();
    let (mut apd, mut run) = measure(
        cfg,
        SETUPS,
        || setup(cfg),
        |a, run| {
            let (secs, served) = a.pass(&mut bad);
            for s in served.iter().flatten() {
                run.latencies_ms.push(s.latency * 1e3);
                run.ops += 1;
            }
            run.attempted += a.streams.iter().map(Vec::len).sum::<usize>() as u64;
            passes.push(served);
            secs
        },
    );
    let oracle = oracle(&apd.specs);
    let digests: Vec<u64> = passes.iter().map(|p| check(p, &oracle, &mut bad)).collect();
    run.gate("oracle", bad.len(), || format!("{} mismatches, first: {}", bad.len(), bad[0]));
    run.gate("warm-up", apd.warmup_failed, || "warm-up points failed".to_string());
    let differing = digests.iter().filter(|&&d| d != digests[0]).count();
    run.gate("passes-agree", differing, || format!("pass digests differ: {digests:x?}"));
    run.digest = digests[0];
    run.meta.push(("clients", json::n(apd.streams.len() as u64)));
    run.meta.push(("requests_per_pass", json::n(2 * apd.specs.len() as u64)));
    if cfg.trace {
        traced(cfg, &mut apd, &oracle, &mut run);
    }
    run
}

/// Encoded in-process reports of every distinct point, computed on as
/// many threads as there are clients.
fn oracle(specs: &[WireSpec]) -> HashMap<String, String> {
    let encode = report_codec().encode;
    let run_specs: Vec<RunSpec> = specs
        .iter()
        .map(|s| RunSpec::new(s.app, s.kind, s.pages, s.config()).with_mode(s.mode))
        .collect();
    let chunk = run_specs.len().div_ceil(clients());
    std::thread::scope(|scope| {
        let handles: Vec<_> = run_specs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter().map(|s| (s.key(), encode(&s.execute()))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread")).collect()
    })
}

/// The traced pass: per-request spans, and each request's client latency
/// split into the daemon's reported job wall and the residual (queueing,
/// transport, protocol and codec); then the layer probes.
fn traced(cfg: &RunConfig, apd: &mut Apd, oracle: &HashMap<String, String>, run: &mut Run) {
    let mut bad = Vec::new();
    let pool_before = active_pages::parallel::pool_stats();
    let origin = Instant::now();
    let (secs, served) = apd.pass(&mut bad);
    fig3::pool_layers(run, pool_before);
    let digest = check(&served, oracle, &mut bad);
    run.attempted += served.iter().map(Vec::len).sum::<usize>() as u64;
    let untraced = run.digest;
    run.gate("traced-oracle", bad.len() + usize::from(digest != untraced), || {
        format!("{} mismatches; digest {digest:016x} vs untraced {untraced:016x}", bad.len())
    });
    let decode = report_codec().decode;
    let (mut latency, mut server) = (0.0, 0.0);
    let mut hits = 0;
    let mut reports = Vec::new();
    for (client, requests) in served.iter().enumerate() {
        for s in requests {
            let r = &s.result;
            let wall = r.wall_ms as f64 * 1e-3;
            latency += s.latency;
            server += wall;
            hits += usize::from(r.cache_hit);
            if let Some(report) = r.report_text.as_deref().and_then(decode) {
                reports.push((r.cache_hit, report));
            }
            run.spans.push(Span {
                name: "request",
                tid: client as u64 + 1,
                start_us: us_since(origin, s.start),
                dur_us: s.latency * 1e6,
                args: vec![
                    ("key", json::s(r.key.clone())),
                    ("cache_hit", Value::Bool(r.cache_hit)),
                    ("server_ms", json::n(r.wall_ms)),
                ],
            });
        }
    }
    run.split(latency, &[("split.server_pct", server), ("split.serve_pct", latency - server)]);
    count_stats(run, reports.iter().filter(|(hit, _)| !hit).map(|(_, r)| &r.stats));
    let all = reports.iter().map(|(_, r)| r);
    run.layer("fast.cycle_err_max", fig3::cycle_err_max(all, &fig3::oracle()));
    run.layer("engine.jobs", served.iter().map(Vec::len).sum::<usize>() as f64);
    run.layer("engine.cache_hits", hits as f64);
    run.layer("bench.trace_overhead_frac", secs / median(&run.pass_secs) - 1.0);
    probe::run(cfg, run);
}
