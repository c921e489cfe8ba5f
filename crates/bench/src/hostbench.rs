//! Host-timing benches (`experiments --bench-wallclock`).
//!
//! The figures measure *simulated* cycles; these benches measure how long
//! the *host* takes, so the simulator's own performance is tracked across
//! changes. Three benches share one harness:
//!
//! * **page scaling** (`BENCH_page_scaling.json`) — one group activation of
//!   compute-dense pages over a page-count sweep, sequential oracle against
//!   the parallel page executor;
//! * **fast mode** (`BENCH_fastmode.json`) — every kernel on the accurate
//!   oracle against the counted fast tier, with the fast tier's cycle error
//!   per row and the ≥ 5x wall-clock gate on the Figure 3 database point;
//! * **batch scaling** (`BENCH_batch_scaling.json`) — the `database-xl`
//!   stream of brief 8-page batches over thousands of resident pages,
//!   sequential oracle against the persistent page-worker pool, with a
//!   pages axis and a threads axis.
//!
//! Every measured point is a set of named timed variants, the first of
//! which is the oracle. One timing loop runs the
//! variants interleaved, best of three: the variant that goes
//! first rotates every repetition, so first-touch page faults and slow drift
//! on a shared host bias none of them. On every repetition it asserts each
//! variant's digest equal to the oracle's, and the oracle's equal to its
//! first repetition, so a timing is only ever reported for a proven-identical
//! output. One writer, [`write()`], lays all three files out the same way.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use active_pages::{
    parallel, sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_apps::database::xl;
use ap_apps::{fnv_mix, App, ExecMode, RunReport, SystemKind};
use ap_trace::json::quote;
use radram::{take_kernel_host_secs, RadramConfig, System};

use crate::fastmode::{check_pair, CYCLE_ERROR_ENVELOPE};

/// Repetitions of every point; each variant keeps its fastest.
const REPS: usize = 3;

/// One timed run of one variant.
struct Sample<O> {
    /// Host seconds of each timed region. Most points time one region; the
    /// fast-mode rows also time the conventional component alone. The
    /// best-of-[`REPS`] loop keeps each region's minimum independently.
    secs: Vec<f64>,
    /// What the run produced; its digest is held against the oracle's.
    out: O,
}

/// One measured point: named timed variants and the digest every variant
/// must match the oracle (the first variant) on.
struct Point<R, G> {
    /// What is measured, for divergence messages.
    label: String,
    /// Variant names; the first is the oracle.
    variants: &'static [&'static str],
    /// Runs (and times) variant `i`.
    run: R,
    /// The part of a variant's output that must equal the oracle's.
    digest: G,
}

impl<R, G> Point<R, G> {
    /// Times every variant [`REPS`] times, interleaved, and returns each
    /// variant's best timings with its last output, in variant order.
    ///
    /// # Panics
    ///
    /// Panics if any variant's digest differs from the oracle's on any
    /// repetition, or the oracle's differs between repetitions.
    fn measure<O, D>(self) -> Vec<Sample<O>>
    where
        R: Fn(usize) -> Sample<O>,
        G: Fn(&O) -> D,
        D: PartialEq + std::fmt::Debug,
    {
        let n = self.variants.len();
        let mut best: Vec<Option<Sample<O>>> = (0..n).map(|_| None).collect();
        let mut oracle = None;
        for rep in 0..REPS {
            for k in 0..n {
                let v = (rep + k) % n;
                let s = (self.run)(v);
                best[v] = Some(match best[v].take() {
                    Some(b) => {
                        let secs = b.secs.iter().zip(&s.secs).map(|(a, b)| a.min(*b)).collect();
                        Sample { secs, out: s.out }
                    }
                    None => s,
                });
            }
            let digests: Vec<D> =
                best.iter().flatten().map(|sample| (self.digest)(&sample.out)).collect();
            for (name, d) in self.variants.iter().zip(&digests).skip(1) {
                assert_eq!(
                    d, &digests[0],
                    "{}: {name} diverged from the {} oracle",
                    self.label, self.variants[0]
                );
            }
            match &oracle {
                Some(first) => {
                    assert_eq!(first, &digests[0], "{}: a repeat run diverged", self.label)
                }
                None => oracle = digests.into_iter().next(),
            }
        }
        best.into_iter().flatten().collect()
    }
}

/// One bench's results, in the layout of its `BENCH_<name>.json` file.
#[derive(Debug, Clone)]
pub struct Bench {
    /// The `bench` field and file stem (`page_scaling`, ...).
    name: &'static str,
    /// The page-thread budget the bench ran under.
    page_threads: usize,
    /// Bench-specific header fields, values rendered as JSON.
    header: Vec<(&'static str, String)>,
    /// Name of the row array (`points` or `rows`).
    rows_key: &'static str,
    /// One object per measured row, values rendered as JSON.
    rows: Vec<Vec<(&'static str, String)>>,
}

impl Bench {
    /// Renders the bench: header fields one per line (every header records
    /// `host_cores`, `page_threads` and `effective_threads`), then one row
    /// object per line.
    pub fn render(&self) -> String {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = [
            ("host_cores", cores.to_string()),
            ("page_threads", self.page_threads.to_string()),
            ("effective_threads", parallel::effective_threads(self.page_threads).to_string()),
        ];
        let mut s = format!("{{\n  \"schema\": 1,\n  \"bench\": {},\n", quote(self.name));
        for (key, value) in self.header.iter().chain(&threads) {
            s.push_str(&format!("  \"{key}\": {value},\n"));
        }
        s.push_str(&format!("  \"{}\": [\n", self.rows_key));
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            s.push_str(&format!("    {}{comma}\n", object(row)));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// A one-line JSON object of pre-rendered values.
fn object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// `x` with `places` decimals (seconds and errors take 6, ratios 3).
fn dec(x: f64, places: usize) -> String {
    format!("{x:.places$}")
}

/// Runs the three benches: page scaling, fast mode, then batch scaling
/// (whose points also add an override point at `pages` / `threads`).
///
/// # Panics
///
/// Panics on any gate failure: a variant diverging from its oracle, a
/// repeat run diverging, a sanitizer finding on the smallest `database-xl`
/// point, a pool that never reused a worker on a multi-core host, fast and
/// accurate checksums differing, or a fast tier under 5x on the gate point.
pub fn run(quick: bool, pages: Option<usize>, threads: Option<usize>) -> Vec<Bench> {
    vec![page_scaling(quick), fastmode(quick), batch_scaling(quick, pages, threads)]
}

/// Writes every bench to `<results dir>/BENCH_<name>.json`, returning the
/// written paths (`None` where a write failed; see
/// [`crate::write_result_file`]).
pub fn write(benches: &[Bench]) -> Vec<Option<PathBuf>> {
    benches
        .iter()
        .map(|b| crate::write_result_file(&format!("BENCH_{}.json", b.name), &b.render()))
        .collect()
}

/// Command word that starts a hash sweep on a page.
const CMD_HASH: u32 = 1;

/// FNV passes per page: enough host work per page (~1 ms) that thread-pool
/// overhead is noise at every sweep size.
const PASSES: u32 = 4;

/// Compute-dense scaling kernel: FNV-mixes the whole page body [`PASSES`]
/// times, feeding each pass's running hash back into the body so the work is
/// data-dependent, and leaves the final hash in `RESULT`.
#[derive(Debug)]
struct BodyHashFn;

impl PageFunction for BodyHashFn {
    fn name(&self) -> &'static str {
        "bench-body-hash"
    }

    fn logic_elements(&self) -> u32 {
        32
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        debug_assert_eq!(page.ctrl(sync::CMD), CMD_HASH);
        let words = (PAGE_SIZE - sync::BODY_OFFSET) / 4;
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(page.info().index_in_group);
        for _ in 0..PASSES {
            for w in 0..words {
                let off = sync::BODY_OFFSET + 4 * w;
                h = (h ^ u64::from(page.read_u32(off))).wrapping_mul(0x100_0000_01b3);
                page.write_u32(off, h as u32);
            }
        }
        page.set_ctrl(sync::RESULT, h as u32);
        page.set_ctrl(sync::STATUS, sync::DONE);
        Execution::run(u64::from(PASSES) * words as u64)
    }

    fn footprint(&self) -> active_pages::StaticFootprint {
        ap_apps::whole_page_footprint()
    }
}

/// The page-scaling sweep's page counts; the full sweep ends at 1024.
fn scaling_pages(quick: bool) -> Vec<usize> {
    if quick {
        vec![8, 32]
    } else {
        vec![64, 256, 1024]
    }
}

/// Builds a fresh system of `pages` hash kernels (untimed), then times one
/// group activation and the waits on every page. The output is the clock,
/// the result checksum and the statistics.
fn hash_group(pages: usize, sequential: bool) -> Sample<(u64, u64, String)> {
    let cfg = RadramConfig::reference().with_ram_capacity((pages + 2) * PAGE_SIZE);
    let mut sys = System::radram(cfg);
    sys.set_sequential(sequential);
    let group = GroupId::new(1);
    let base = sys.ap_alloc_pages(group, pages);
    sys.ap_bind(group, Arc::new(BodyHashFn));
    let t = Instant::now();
    sys.activate_group(group, CMD_HASH);
    let mut checksum = 0u64;
    for p in 0..pages {
        let pb = base + (p * PAGE_SIZE) as u64;
        sys.wait_done(pb);
        checksum = fnv_mix(checksum, u64::from(sys.read_ctrl(pb, sync::RESULT)));
    }
    let secs = t.elapsed().as_secs_f64();
    Sample { secs: vec![secs], out: (sys.now(), checksum, format!("{:?}", sys.stats())) }
}

fn page_scaling(quick: bool) -> Bench {
    let rows = scaling_pages(quick)
        .into_iter()
        .map(|pages| {
            let t = Point {
                label: format!("page scaling at {pages} pages"),
                variants: &["sequential", "parallel"],
                run: |v| hash_group(pages, v == 0),
                digest: Clone::clone,
            }
            .measure();
            let (seq, par) = (t[0].secs[0], t[1].secs[0]);
            vec![
                ("pages", pages.to_string()),
                ("sequential_secs", dec(seq, 6)),
                ("parallel_secs", dec(par, 6)),
                ("speedup", dec(seq / par.max(1e-9), 3)),
            ]
        })
        .collect();
    Bench {
        name: "page_scaling",
        page_threads: parallel::thread_budget(),
        header: vec![(
            "kernel",
            quote(&format!("{PASSES}-pass FNV hash over the 512 KB page body")),
        )],
        rows_key: "points",
        rows,
    }
}

/// The Figure 3 database point the ≥ 5x wall-clock gate is scored on. The
/// gate compares the **conventional (oracle-simulation) component** of the
/// run: RADram page kernels execute in bulk on host slices in *both* tiers
/// (per-access hierarchy modelling exists only on the processor side), so
/// the processor-side scan is where the fast tier can — and must — win.
///
/// 16 pages (an 8 MB address book) is the largest point with headroom: past
/// that both tiers become bound by the *host's* memory bandwidth streaming
/// the same record heads, and the ratio converges toward ~5x regardless of
/// how little modelling the fast tier does (DESIGN.md §13).
fn gate_pages(quick: bool) -> f64 {
    if quick {
        8.0
    } else {
        16.0
    }
}

/// Runs `app` at `pages` on both systems on one tier, in-thread. Timed
/// regions: the kernel host seconds of both systems together, then of the
/// conventional run alone.
fn tier_run(
    app: App,
    pages: f64,
    cfg: &RadramConfig,
    mode: ExecMode,
) -> Sample<(RunReport, RunReport)> {
    let _ = take_kernel_host_secs(); // drain anything a previous caller left
    let conv = app.run_mode(SystemKind::Conventional, pages, cfg, mode);
    let conv_secs = take_kernel_host_secs();
    let rad = app.run_mode(SystemKind::Radram, pages, cfg, mode);
    Sample { secs: vec![conv_secs + take_kernel_host_secs(), conv_secs], out: (conv, rad) }
}

fn rel_err(fast: f64, accurate: f64) -> f64 {
    if accurate == 0.0 {
        return 0.0;
    }
    (fast - accurate) / accurate
}

fn fastmode(quick: bool) -> Bench {
    let cfg = RadramConfig::reference();
    let envelope_pages = if quick { 2.0 } else { 8.0 };
    let mut points: Vec<(App, f64)> = App::ALL.map(|app| (app, envelope_pages)).to_vec();
    points.push((App::Database, gate_pages(quick)));
    let (mut max_cycle_err, mut max_speedup_err) = (0.0f64, 0.0f64);
    let mut gate = None;
    let mut rows = Vec::new();
    for (app, pages) in points {
        let t = Point {
            label: format!("fast mode, {} at {pages} pages", app.name()),
            variants: &["accurate", "fast"],
            run: |v| tier_run(app, pages, &cfg, [ExecMode::Accurate, ExecMode::Fast][v]),
            digest: |(conv, rad): &(RunReport, RunReport)| (conv.checksum, rad.checksum),
        }
        .measure();
        let (acc, fast) = (&t[0], &t[1]);
        let conv_err = check_pair(app, pages, &acc.out.0, &fast.out.0).relative_error();
        let rad_err = check_pair(app, pages, &acc.out.1, &fast.out.1).relative_error();
        let speedup = |(conv, rad): &(RunReport, RunReport)| {
            conv.kernel_cycles as f64 / rad.kernel_cycles.max(1) as f64
        };
        let speedup_err = rel_err(speedup(&fast.out), speedup(&acc.out));
        let wall = acc.secs[0] / fast.secs[0].max(1e-9);
        let oracle = acc.secs[1] / fast.secs[1].max(1e-9);
        max_cycle_err = max_cycle_err.max(conv_err.abs()).max(rad_err.abs());
        max_speedup_err = max_speedup_err.max(speedup_err.abs());
        if app == App::Database && pages == gate_pages(quick) {
            gate = Some((pages, oracle, wall, acc.secs[1], fast.secs[1]));
        }
        rows.push(vec![
            ("app", quote(app.name())),
            ("pages", pages.to_string()),
            ("accurate_secs", dec(acc.secs[0], 6)),
            ("fast_secs", dec(fast.secs[0], 6)),
            ("accurate_conv_secs", dec(acc.secs[1], 6)),
            ("fast_conv_secs", dec(fast.secs[1], 6)),
            ("wall_speedup", dec(wall, 3)),
            ("oracle_wall_speedup", dec(oracle, 3)),
            ("conv_cycle_error", dec(conv_err, 6)),
            ("rad_cycle_error", dec(rad_err, 6)),
            ("speedup_error", dec(speedup_err, 6)),
        ]);
    }
    let (pages, oracle, wall, acc_secs, fast_secs) = gate.expect("gate row present");
    assert!(
        oracle >= 5.0,
        "fast tier must be >= 5x faster on the oracle-simulation (conventional) component of \
         the Figure 3 database point: got {oracle:.2}x (accurate {acc_secs:.4}s, fast \
         {fast_secs:.4}s)",
    );
    let gate = object(&[
        ("app", quote("database")),
        ("pages", pages.to_string()),
        ("oracle_wall_speedup", dec(oracle, 3)),
        ("combined_wall_speedup", dec(wall, 3)),
        ("required", "5.0".into()),
        ("scored_on", quote("conventional component")),
    ]);
    Bench {
        name: "fastmode",
        page_threads: parallel::thread_budget(),
        header: vec![
            ("quick", quick.to_string()),
            ("documented_cycle_error_envelope", CYCLE_ERROR_ENVELOPE.to_string()),
            ("max_cycle_error", dec(max_cycle_err, 6)),
            ("max_speedup_error", dec(max_speedup_err, 6)),
            ("gate", gate),
        ],
        rows_key: "rows",
        rows,
    }
}

/// The thread budget the batch-scaling pages axis runs at: every core the
/// host offers, floored at 4 so a small host still exercises a real pool.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get()).max(4)
}

/// Batch-scaling pages axis. The full sweep ends at the acceptance point:
/// 2048 pages = 1,048,576 resident records.
fn batch_pages(quick: bool) -> Vec<usize> {
    if quick {
        vec![64, 128]
    } else {
        vec![512, 1024, 2048]
    }
}

/// Batch-scaling threads axis, measured at the largest pages-axis size.
fn thread_axis(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 4]
    } else {
        vec![2, 4, 8]
    }
}

/// Runs the prepared `database-xl` workload once, timing the kernel region
/// only (host seconds drained via [`take_kernel_host_secs`]), so the
/// 128 MiB-scale staging both variants share stays out of the timing.
fn xl_run(wl: &xl::Workload, cfg: &RadramConfig, sequential: bool) -> Sample<RunReport> {
    radram::set_force_sequential(sequential);
    let _ = take_kernel_host_secs();
    let report = xl::run_prepared(SystemKind::Radram, wl, cfg, ExecMode::Accurate);
    let secs = take_kernel_host_secs();
    radram::set_force_sequential(false);
    Sample { secs: vec![secs], out: report }
}

fn report_digest(r: &RunReport) -> (u64, u64, u64, u64, String) {
    (r.kernel_cycles, r.total_cycles, r.dispatch_cycles, r.checksum, format!("{:?}", r.stats))
}

/// Measures `wl` at a page-thread budget of `threads`: sequential oracle
/// against the pooled executor. With `audit`, the pooled executor then
/// re-runs under the dynamic race sanitizer, which must come back clean
/// with the oracle's answer.
fn batch_point(wl: &xl::Workload, threads: usize, audit: bool) -> Vec<(&'static str, String)> {
    let cfg = RadramConfig::reference();
    let reuses_before = parallel::pool_stats().reuses;
    parallel::set_thread_budget(threads);
    let t = Point {
        label: format!("database-xl at {} pages, {threads} threads", wl.pages),
        variants: &["sequential", "pooled"],
        run: |v| xl_run(wl, &cfg, v == 0),
        digest: report_digest,
    }
    .measure();
    // The pool only engages helpers up to the host's core count (the budget
    // is a cap, not a target), so reuse is observable on >= 2 cores only.
    if parallel::effective_threads(threads) >= 2 && wl.queries.len() >= 2 {
        assert!(
            parallel::pool_stats().reuses > reuses_before,
            "pooled run should have reused persistent workers"
        );
    }
    if audit {
        radram::set_force_sanitize(true);
        let audited = xl_run(wl, &cfg, false).out;
        radram::set_force_sanitize(false);
        assert_eq!(audited.stats.race_errors, 0, "sanitizer found races in database-xl");
        assert_eq!(audited.stats.race_warnings, 0, "sanitizer warned on database-xl");
        assert_eq!(t[0].out.checksum, audited.checksum, "sanitized run changed the answer");
    }
    let (seq, pooled) = (t[0].secs[0], t[1].secs[0]);
    vec![
        ("pages", wl.pages.to_string()),
        ("records", (wl.pages * xl::RECORDS_PER_PAGE).to_string()),
        ("queries", wl.queries.len().to_string()),
        ("threads", threads.to_string()),
        ("effective_threads", parallel::effective_threads(threads).to_string()),
        ("sequential_secs", dec(seq, 6)),
        ("pooled_secs", dec(pooled, 6)),
        ("speedup_vs_sequential", dec(seq / pooled.max(1e-9), 3)),
    ]
}

/// The batch-scaling sweep: the pages axis at [`default_threads`] (or
/// `threads_override`), then the threads axis at the largest page count,
/// plus an override point at `pages_override` pages (rounded up to whole
/// tenants). The smallest point is also run under the sanitizer.
fn batch_scaling(
    quick: bool,
    pages_override: Option<usize>,
    threads_override: Option<usize>,
) -> Bench {
    let base_threads = threads_override.unwrap_or_else(default_threads);
    let mut sizes = batch_pages(quick);
    if let Some(p) = pages_override {
        let p = xl::shard_pages(p as f64);
        if !sizes.contains(&p) {
            sizes.push(p);
        }
    }
    sizes.sort_unstable();
    let mut rows = Vec::new();
    for (i, &pages) in sizes.iter().enumerate() {
        let wl = xl::Workload::new(pages, xl::queries_for(pages));
        rows.push(batch_point(&wl, base_threads, i == 0));
        if i + 1 == sizes.len() {
            for t in thread_axis(quick).into_iter().filter(|&t| t != base_threads) {
                rows.push(batch_point(&wl, t, false));
            }
        }
    }
    let pool = parallel::pool_stats();
    let pool = object(&[
        ("batches", pool.batches.to_string()),
        ("reuses", pool.reuses.to_string()),
        ("threads_spawned", pool.threads_spawned.to_string()),
    ]);
    Bench {
        name: "batch_scaling",
        page_threads: base_threads,
        header: vec![
            (
                "workload",
                quote(
                    "database-xl: multi-tenant shard queries, one 8-page activation batch per \
                     query",
                ),
            ),
            ("default_threads", default_threads().to_string()),
            ("pool", pool),
        ],
        rows_key: "points",
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_trace::json::{self, Value};
    use std::cell::RefCell;

    fn rows(bench: &Bench) -> Vec<Value> {
        let doc = json::parse(&bench.render()).expect("bench JSON parses");
        for key in ["schema", "bench", "host_cores", "page_threads", "effective_threads"] {
            assert!(doc.get(key).is_some(), "{} header lacks {key}", bench.name);
        }
        doc.get(bench.rows_key).and_then(Value::as_arr).expect("rows").to_vec()
    }

    fn num(row: &Value, key: &str) -> f64 {
        row.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn measure_rotates_order_and_keeps_each_regions_minimum() {
        let order = RefCell::new(Vec::new());
        let t = Point {
            label: "toy".into(),
            variants: &["oracle", "other"],
            run: |v| {
                order.borrow_mut().push(v);
                let rep = order.borrow().len() as f64;
                Sample { secs: vec![rep, 10.0 - rep], out: 7u64 }
            },
            digest: |o: &u64| *o,
        }
        .measure();
        assert_eq!(*order.borrow(), [0, 1, 1, 0, 0, 1]);
        assert_eq!(t[0].secs, [1.0, 5.0]);
        assert_eq!(t[1].secs, [2.0, 4.0]);
        assert_eq!(t[1].out, 7);
    }

    #[test]
    #[should_panic(expected = "toy: other diverged from the oracle oracle")]
    fn measure_rejects_a_divergent_variant() {
        Point {
            label: "toy".into(),
            variants: &["oracle", "other"],
            run: |v| Sample { secs: vec![0.0], out: 7 + v as u64 },
            digest: |o: &u64| *o,
        }
        .measure();
    }

    #[test]
    fn quick_page_scaling_is_deterministic_and_renders() {
        // Give the parallel executor real threads so the oracle comparison
        // exercises the parallel path wherever the host has two cores.
        parallel::set_thread_budget(4);
        let bench = page_scaling(true);
        let rows = rows(&bench);
        assert_eq!(rows.len(), scaling_pages(true).len());
        for row in &rows {
            assert!(num(row, "sequential_secs") > 0.0 && num(row, "parallel_secs") > 0.0);
            assert!(row.get("speedup").is_some());
        }
    }

    #[test]
    fn quick_batch_scaling_adds_the_sharded_override_point() {
        let bench = batch_scaling(true, Some(100), Some(3));
        let rows = rows(&bench);
        // 100 rounds up to 104 (13 shards), joining the quick sizes; the
        // threads axis runs at the largest size.
        assert!(rows.len() > batch_pages(true).len());
        assert!(rows.iter().any(|r| num(r, "pages") == 104.0 && num(r, "threads") == 3.0));
        for row in &rows {
            assert!(num(row, "sequential_secs") > 0.0 && num(row, "pooled_secs") > 0.0);
            assert_eq!(num(row, "records"), num(row, "pages") * xl::RECORDS_PER_PAGE as f64);
            assert!(row.get("speedup_vs_sequential").is_some());
        }
        assert!(bench.render().contains("\"pool\": {\"batches\""));
    }
}
