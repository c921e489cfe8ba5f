//! The engine-path workloads: the Figure 3/4 grid run cold on each tier
//! (`fig3-accurate`, `fig3-fast`) and both grids replayed warm
//! (`sweep-warm`), all through `ap_bench::runner::Runner` the way
//! `experiments fig3 [--mode both]` runs them.

use crate::metrics::median;
use crate::probe::{self, MemCosts};
use crate::run::{measure, Run, RunConfig, SETUPS};
use crate::trace::{us_since, Span};
use ap_apd::json::{self, Value};
use ap_apps::{App, ExecMode, RunReport};
use ap_bench::runner::{harness_salt, report_codec, RunSpec, Runner};
use ap_bench::sweep::sweep_specs;
use ap_engine::{fnv1a, Codec, DiskCache, Engine, Job, JobOutcome};
use radram::{RadramConfig, SystemStats};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// The committed accurate-tier oracle: one line per Figure 3/4 grid point,
/// `app system pages checksum kernel_cycles` (regenerate with
/// `apbench reference`).
const REFERENCE: &str = include_str!("../oracle/fig3_reference.txt");

/// Point identity (`app/system/pages`) → (checksum, accurate kernel cycles).
pub type Oracle = HashMap<String, (u64, u64)>;

/// Engine workers: two, as `experiments` runs on the reference host, never
/// more than the host has cores.
pub fn workers() -> usize {
    crate::metrics::host_cores().min(2)
}

/// `app/system/pages` — a point's identity across tiers.
pub fn point(r: &RunReport) -> String {
    format!("{}/{}/{}", r.app, r.system, r.pages)
}

/// The committed oracle.
pub fn oracle() -> Oracle {
    REFERENCE
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let num = |i: usize| f[i].parse::<u64>().expect("oracle numbers are u64");
            (format!("{}/{}/{}", f[0], f[1], f[2]), (num(3), num(4)))
        })
        .collect()
}

/// The oracle file's contents for the current code: the full accurate grid.
pub fn reference_text() -> String {
    let runner = Runner::with_engine(Engine::new().with_workers(workers()).without_cache());
    let specs = sweep_specs(&App::ALL, &RadramConfig::reference(), false, ExecMode::Accurate);
    runner
        .run(specs)
        .into_iter()
        .map(|r| {
            let r = r.expect("reference points run");
            format!("{} {} {} {} {}\n", r.app, r.system, r.pages, r.checksum, r.kernel_cycles)
        })
        .collect()
}

/// Largest |relative kernel-cycle error| of `reports` against the oracle's
/// accurate kernel cycles.
pub fn cycle_err_max<'a>(reports: impl Iterator<Item = &'a RunReport>, oracle: &Oracle) -> f64 {
    reports
        .filter_map(|r| {
            let &(_, acc) = oracle.get(&point(r))?;
            Some((r.kernel_cycles as f64 - acc as f64).abs() / (acc as f64).max(1.0))
        })
        .fold(0.0, f64::max)
}

/// Records the simulated work in `stats` as per-layer counts.
pub fn count_stats<'a>(run: &mut Run, stats: impl Iterator<Item = &'a SystemStats>) {
    for s in stats {
        let m = &s.cpu.mem;
        run.add_layer("cpu.instructions", s.cpu.instructions as f64);
        run.add_layer("mem.l1d_accesses", (m.l1d.hits + m.l1d.misses) as f64);
        run.add_layer("mem.l1d_misses", m.l1d.misses as f64);
        run.add_layer("mem.l2_misses", m.l2.misses as f64);
        run.add_layer("mem.dram_fills", m.dram_fills as f64);
        run.add_layer("mem.dram_writebacks", m.dram_writebacks as f64);
        run.add_layer("radram.activations", s.activations as f64);
    }
}

/// `mem.model_est_pct`: the memory model's estimated share of kernel time.
pub fn model_estimate(run: &mut Run, mem: &MemCosts, reports: &[&RunReport], kernel_secs: f64) {
    let est: f64 = reports.iter().map(|r| mem.estimate_secs(r)).sum();
    run.layer("mem.model_est_pct", 100.0 * est / kernel_secs.max(1e-12));
}

/// One checked pass: its digest, decoded reports and oracle mismatches.
struct Checked {
    digest: u64,
    reports: Vec<RunReport>,
    mismatches: Vec<String>,
}

/// Checks one pass's outcomes against the oracle checksums and, for
/// replays, against the expected cache hits and report texts.
fn check_pass(
    run: &mut Run,
    outcomes: Vec<JobOutcome<RunReport>>,
    oracle: &Oracle,
    expected: Option<&[String]>,
) -> Checked {
    let encode = report_codec().encode;
    let mut c = Checked { digest: 0, reports: Vec::new(), mismatches: Vec::new() };
    let mut texts = String::new();
    for (i, o) in outcomes.into_iter().enumerate() {
        run.attempted += 1;
        run.latencies_ms.push(o.wall.as_secs_f64() * 1e3);
        let r = match o.result {
            Ok(r) => r,
            Err(e) => {
                c.mismatches.push(format!("{}: {e}", o.key));
                continue;
            }
        };
        let text = encode(&r);
        let checksum_ok = oracle.get(&point(&r)).is_some_and(|&(sum, _)| sum == r.checksum);
        let replay_ok = expected.is_none_or(|e| o.cache_hit && e[i] == text);
        if !(checksum_ok && replay_ok) {
            c.mismatches.push(o.key);
        }
        texts.push_str(&text);
        run.ops += 1;
        c.reports.push(r);
    }
    c.digest = fnv1a(texts.as_bytes());
    c
}

/// What the untraced passes of a grid workload leave for the checks.
#[derive(Default)]
struct Passes {
    digests: Vec<u64>,
    first: Vec<RunReport>,
    mismatches: Vec<String>,
}

impl Passes {
    fn add(&mut self, c: Checked) {
        self.digests.push(c.digest);
        if self.first.is_empty() {
            self.first = c.reports;
        }
        self.mismatches.extend(c.mismatches);
    }

    /// Records the gates, digest, checksums and cycle error on `run`.
    fn finish(self, run: &mut Run, grid: &Grid) {
        let Passes { digests, first, mismatches } = self;
        run.gate("oracle", mismatches.len(), || {
            format!("{} mismatches, first: {}", mismatches.len(), mismatches[0])
        });
        run.gate("warm-up", grid.warmup_failed, || "warm-up jobs failed".to_string());
        let differing = digests.iter().filter(|&&d| d != digests[0]).count();
        run.gate("passes-agree", differing, || format!("pass digests differ: {digests:x?}"));
        run.digest = digests[0];
        run.checksums = first.iter().map(|r| format!("{} {}", point(r), r.checksum)).collect();
        run.layer("fast.cycle_err_max", cycle_err_max(first.iter(), &grid.oracle));
        run.meta.push(("engine_workers", json::n(workers() as u64)));
        run.meta.push(("jobs_per_pass", json::n(grid.specs.len() as u64)));
    }
}

/// State a grid workload keeps between passes.
struct Grid {
    runner: Runner,
    cache: PathBuf,
    specs: Vec<RunSpec>,
    oracle: Oracle,
    warmup_failed: usize,
}

/// Set-up shared by the grid workloads: the spec list and oracle, a runner
/// over a fresh cache and manifest, and a warm-up batch of tiny points on
/// the same tiers so lazily built state (synthesized circuits, the page
/// pool) is ready before timing.
fn grid_setup(cfg: &RunConfig, name: &str, modes: &[ExecMode]) -> Grid {
    let dir = cfg.fresh_dir(name);
    let cache = dir.join("cache");
    let engine = Engine::new()
        .with_workers(workers())
        .with_cache_dir(&cache)
        .with_manifest(dir.join("manifest.jsonl"));
    let reference = RadramConfig::reference();
    let specs =
        modes.iter().flat_map(|&m| sweep_specs(&App::ALL, &reference, cfg.quick, m)).collect();
    let warmup = modes.iter().flat_map(|&m| probe::tiny_specs(0.125, m)).collect();
    let warm_runner = Runner::with_engine(Engine::new().with_workers(workers()).without_cache());
    let warmup_failed = warm_runner.run(warmup).iter().filter(|r| r.is_err()).count();
    Grid { runner: Runner::with_engine(engine), cache, specs, oracle: oracle(), warmup_failed }
}

/// `fig3-accurate` / `fig3-fast`: the whole grid on `mode`, cold cache
/// every pass.
pub fn run_grid(cfg: &RunConfig, mode: ExecMode) -> Run {
    let name = format!("fig3-{mode}");
    let mut passes = Passes::default();
    let (grid, mut run) = measure(
        cfg,
        SETUPS,
        || grid_setup(cfg, &name, &[mode]),
        |g, run| {
            let _ = std::fs::remove_dir_all(&g.cache);
            let specs = g.specs.clone();
            let t = Instant::now();
            let outcomes = g.runner.run_outcomes(specs);
            let secs = t.elapsed().as_secs_f64();
            passes.add(check_pass(run, outcomes, &g.oracle, None));
            secs
        },
    );
    passes.finish(&mut run, &grid);
    if cfg.trace {
        traced_grid(cfg, &grid, &mut run);
    }
    run
}

/// A job result with the host time of its closure and kernel regions.
struct Timed {
    report: RunReport,
    start: Instant,
    closure: f64,
    kernel: f64,
}

/// The report codec, lifted to [`Timed`] so the traced pass writes the
/// same cache entries and diag counts as `Runner`.
fn timed_codec() -> Codec<Timed> {
    Codec {
        encode: |t| (report_codec().encode)(&t.report),
        decode: |s| {
            (report_codec().decode)(s).map(|report| Timed {
                report,
                start: Instant::now(),
                closure: 0.0,
                kernel: 0.0,
            })
        },
        diag: Some(|t| (report_codec().diag.expect("report codec diag"))(&t.report)),
    }
}

/// The traced grid pass: the same jobs through the same engine path with
/// each closure timed from inside (total, and its kernel regions via
/// `radram::take_kernel_host_secs`), each report's diag replayed, then the
/// layer probes.
fn traced_grid(cfg: &RunConfig, grid: &Grid, run: &mut Run) {
    let dir = cfg.fresh_dir("traced");
    let engine = Engine::new()
        .with_workers(workers())
        .with_cache_dir(dir.join("cache"))
        .with_manifest(dir.join("manifest.jsonl"))
        .with_salt(harness_salt());
    let jobs: Vec<Job<Timed>> = grid
        .specs
        .iter()
        .cloned()
        .map(|spec| {
            Job::new(spec.key(), move || {
                let start = Instant::now();
                let _ = radram::take_kernel_host_secs();
                let report = spec.execute();
                let kernel = radram::take_kernel_host_secs();
                Timed { report, start, closure: start.elapsed().as_secs_f64(), kernel }
            })
        })
        .collect();
    let pool_before = active_pages::parallel::pool_stats();
    let origin = Instant::now();
    let outcomes = engine.run(jobs, Some(timed_codec()));
    let traced_secs = origin.elapsed().as_secs_f64();
    pool_layers(run, pool_before);

    let diag = report_codec().diag.expect("report codec diag");
    let encode = report_codec().encode;
    let (mut wall, mut closure, mut kernel, mut diag_secs) = (0.0, 0.0, 0.0, 0.0);
    let mut unnested = 0;
    let mut texts = String::new();
    let mut reports = Vec::new();
    for o in &outcomes {
        run.attempted += 1;
        let Ok(t) = &o.result else {
            run.failed += 1;
            continue;
        };
        let w = o.wall.as_secs_f64();
        let d = Instant::now();
        std::hint::black_box(diag(&t.report));
        diag_secs += d.elapsed().as_secs_f64();
        if !(t.kernel <= t.closure && t.closure <= w) {
            unnested += 1;
        }
        wall += w;
        closure += t.closure;
        kernel += t.kernel;
        texts.push_str(&encode(&t.report));
        run.spans.push(Span {
            name: "closure",
            tid: o.worker as u64 + 1,
            start_us: us_since(origin, t.start),
            dur_us: t.closure * 1e6,
            args: vec![
                ("key", json::s(o.key.clone())),
                ("kernel_ms", Value::Num(t.kernel * 1e3)),
                ("apps_ms", Value::Num((t.closure - t.kernel) * 1e3)),
                ("engine_ms", Value::Num((w - t.closure) * 1e3)),
            ],
        });
        reports.push(&t.report);
    }
    let engine_secs = wall - closure - diag_secs;
    let digest = fnv1a(texts.as_bytes());
    let untraced = run.digest;
    run.gate("traced-matches-untraced", usize::from(digest != untraced), || {
        format!("traced digest {digest:016x} != untraced {untraced:016x}")
    });
    run.gate("layer-split", unnested + usize::from(engine_secs < -0.05 * wall), || {
        format!("{unnested} jobs' spans do not nest; engine {engine_secs:.3}s of {wall:.3}s")
    });
    run.split(
        wall,
        &[
            ("split.apps_pct", closure - kernel),
            ("split.kernel_pct", kernel),
            ("split.diag_pct", diag_secs),
            ("split.engine_pct", engine_secs),
        ],
    );
    count_stats(run, reports.iter().map(|r| &r.stats));
    run.layer("engine.jobs", outcomes.len() as f64);
    run.layer("engine.cache_hits", outcomes.iter().filter(|o| o.cache_hit).count() as f64);
    run.layer("engine.worker_idle_frac", 1.0 - wall / (workers() as f64 * traced_secs));
    run.layer("bench.trace_overhead_frac", traced_secs / median(&run.pass_secs) - 1.0);
    let mem = probe::run(cfg, run);
    model_estimate(run, &mem, &reports, kernel);
}

/// Page-pool counter deltas since `before`, and the page-thread count a
/// batch would run at under the current budget.
pub fn pool_layers(run: &mut Run, before: active_pages::parallel::PoolStats) {
    let after = active_pages::parallel::pool_stats();
    run.layer("core.pool_batches", (after.batches - before.batches) as f64);
    run.layer("core.pool_reuses", (after.reuses - before.reuses) as f64);
    run.layer("core.pool_threads_spawned", (after.threads_spawned - before.threads_spawned) as f64);
    let threads =
        active_pages::parallel::effective_threads(active_pages::parallel::thread_budget());
    run.layer("core.effective_threads", threads as f64);
}

/// State `sweep-warm` keeps: the filled grid and the fill's report texts.
struct Warm {
    grid: Grid,
    fill: Vec<String>,
    fill_failed: usize,
}

/// `sweep-warm`: both tiers' grids filled into a fresh cache during set-up,
/// then replayed through `Runner` — the engine's read path with no
/// simulation.
pub fn run_warm(cfg: &RunConfig) -> Run {
    let encode = report_codec().encode;
    let mut passes = Passes::default();
    let (warm, mut run) = measure(
        cfg,
        2,
        || {
            let grid = grid_setup(cfg, "sweep-warm", &[ExecMode::Accurate, ExecMode::Fast]);
            let fill = grid.runner.run(grid.specs.clone());
            let fill_failed = fill.iter().filter(|r| r.is_err()).count();
            let fill = fill.iter().map(|r| r.as_ref().map(encode).unwrap_or_default()).collect();
            Warm { grid, fill, fill_failed }
        },
        |w, run| {
            let specs = w.grid.specs.clone();
            let t = Instant::now();
            let outcomes = w.grid.runner.run_outcomes(specs);
            let secs = t.elapsed().as_secs_f64();
            passes.add(check_pass(run, outcomes, &w.grid.oracle, Some(&w.fill)));
            secs
        },
    );
    passes.finish(&mut run, &warm.grid);
    run.gate("fill", warm.fill_failed, || "fill jobs failed".to_string());
    if cfg.trace {
        traced_warm(cfg, &warm, &mut run);
    }
    run
}

/// The traced replay: one more replay pass for job walls, then each key's
/// cache load (read plus decode) and diag hook replayed one at a time as
/// spans, splitting the per-key wall into diag and the rest of the engine.
fn traced_warm(cfg: &RunConfig, warm: &Warm, run: &mut Run) {
    let specs = warm.grid.specs.clone();
    let pool_before = active_pages::parallel::pool_stats();
    let t = Instant::now();
    let outcomes = warm.grid.runner.run_outcomes(specs);
    let traced_secs = t.elapsed().as_secs_f64();
    pool_layers(run, pool_before);
    let wall: f64 = outcomes.iter().map(|o| o.wall.as_secs_f64()).sum();
    let hits = outcomes.iter().filter(|o| o.cache_hit).count();

    let codec = report_codec();
    let diag = codec.diag.expect("report codec diag");
    let cache = DiskCache::new(&warm.grid.cache);
    let salt = harness_salt();
    let origin = Instant::now();
    let mut diag_secs = 0.0;
    let mut missing = 0;
    for spec in &warm.grid.specs {
        let key = spec.key();
        let t = Instant::now();
        let report = cache.load(&key, &salt, &codec);
        let loaded = Instant::now();
        let args = vec![("key", json::s(key))];
        run.spans.push(Span {
            name: "cache.load",
            tid: 0,
            start_us: us_since(origin, t),
            dur_us: us_since(t, loaded),
            args: args.clone(),
        });
        let Some(report) = report else {
            missing += 1;
            continue;
        };
        std::hint::black_box(diag(&report));
        let d = loaded.elapsed().as_secs_f64();
        diag_secs += d;
        run.spans.push(Span {
            name: "diag",
            tid: 0,
            start_us: us_since(origin, loaded),
            dur_us: d * 1e6,
            args,
        });
    }
    run.attempted += (outcomes.len() + warm.grid.specs.len()) as u64;
    run.gate("traced-replay", outcomes.len() - hits + missing, || {
        format!("{hits}/{} replay hits, {missing} keys missing from the cache", outcomes.len())
    });
    run.split(wall, &[("split.diag_pct", diag_secs), ("split.engine_pct", wall - diag_secs)]);
    run.layer("engine.jobs", outcomes.len() as f64);
    run.layer("engine.cache_hits", hits as f64);
    run.layer("engine.worker_idle_frac", 1.0 - wall / (workers() as f64 * traced_secs));
    run.layer("bench.trace_overhead_frac", traced_secs / median(&run.pass_secs) - 1.0);
    probe::run(cfg, run);
}
