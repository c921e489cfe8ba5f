//! What one workload run is: its configuration, the set-up/pass loop every
//! workload shares, and the record it leaves behind.

use crate::metrics::{self, Kind, Value64, Values, METRICS};
use crate::trace::Span;
use ap_apd::json::Value;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads, in the order `apbench` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 3/4 grid on the accurate tier through `Runner`.
    Fig3Accurate,
    /// The same grid on the fast tier.
    Fig3Fast,
    /// A seeded closed-loop stream of activation batches on one `System`.
    PageBatch,
    /// Two closed-loop clients against an in-process `apd` server.
    ApdMixed,
    /// Both tiers' grids replayed from a warm engine cache.
    SweepWarm,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::Fig3Accurate,
        Workload::Fig3Fast,
        Workload::PageBatch,
        Workload::ApdMixed,
        Workload::SweepWarm,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Accurate => "fig3-accurate",
            Workload::Fig3Fast => "fig3-fast",
            Workload::PageBatch => "page-batch",
            Workload::ApdMixed => "apd-mixed",
            Workload::SweepWarm => "sweep-warm",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs this workload once under `cfg`.
    pub fn run(self, cfg: &RunConfig) -> Run {
        match self {
            Workload::Fig3Accurate => crate::fig3::run_grid(cfg, ap_apps::ExecMode::Accurate),
            Workload::Fig3Fast => crate::fig3::run_grid(cfg, ap_apps::ExecMode::Fast),
            Workload::SweepWarm => crate::fig3::run_warm(cfg),
            Workload::PageBatch => crate::page_batch::run(cfg),
            Workload::ApdMixed => crate::apd_mixed::run(cfg),
        }
    }
}

/// How long the untraced phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Repeat passes until this many seconds have elapsed (at least one).
    Seconds(f64),
    /// Exactly this many passes.
    Passes(usize),
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed for the inputs the benchmark generates itself.
    pub seed: u64,
    /// Length of the untraced phase.
    pub budget: Budget,
    /// Also run the traced pass and the layer probes.
    pub trace: bool,
    /// Shrunk inputs for smoke runs.
    pub quick: bool,
    /// Scratch directory for caches and manifests; removed afterwards.
    pub work: PathBuf,
}

impl RunConfig {
    /// A fresh subdirectory `name` of the scratch directory (emptied first).
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }
}

/// A pass/fail oracle check.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Mismatch detail (empty when `ok`).
    pub detail: String,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall seconds of each set-up.
    pub setup_secs: Vec<f64>,
    /// Wall seconds of each untraced pass.
    pub pass_secs: Vec<f64>,
    /// Operations the untraced passes completed (throughput numerator).
    pub ops: u64,
    /// Per-operation latency in ms over the untraced passes.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted, traced pass and oracle checks included.
    pub attempted: u64,
    /// Operations failed or rejected, oracle mismatches included.
    pub failed: u64,
    /// Oracle checks.
    pub gates: Vec<Gate>,
    /// FNV digest of the workload's outputs in submission order.
    pub digest: u64,
    /// Peak resident set (`VmHWM`) after the untraced passes, MB.
    pub peak_rss_mb: f64,
    /// Per-layer values (traced runs only).
    pub layers: Values,
    /// Host-time spans of the traced pass.
    pub spans: Vec<Span>,
    /// Functional results as `key checksum` lines, for cross-workload checks.
    pub checksums: Vec<String>,
    /// Workload-specific facts for `results.json`.
    pub meta: Vec<(&'static str, Value)>,
}

impl Run {
    /// Records a gate that found `mismatches` disagreements with its oracle;
    /// each counts as one failed operation.
    pub fn gate(&mut self, name: &'static str, mismatches: usize, detail: impl FnOnce() -> String) {
        self.failed += mismatches as u64;
        let ok = mismatches == 0;
        let detail = if ok { String::new() } else { detail() };
        self.gates.push(Gate { name, ok, detail });
    }

    /// True when every gate held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }

    /// Sets per-layer value `name`.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert_eq!(metrics::def(name).kind, Kind::PerLayer, "{name}");
        self.layers.insert(name, Value64::of(value));
    }

    /// Adds `value` to per-layer value `name`.
    pub fn add_layer(&mut self, name: &'static str, value: f64) {
        let old = self.layers.get(name).and_then(|v| v.value).unwrap_or(0.0);
        self.layer(name, old + value);
    }

    /// Sets the `split.*` shares from `(name, host seconds)` parts of `total`.
    pub fn split(&mut self, total: f64, parts: &[(&'static str, f64)]) {
        for &(name, secs) in parts {
            self.layer(name, 100.0 * secs / total.max(1e-12));
        }
    }

    /// The end-to-end values of this run.
    pub fn end_to_end(&self) -> Values {
        let mut v = Values::new();
        v.insert("setup_s", Value64::of(metrics::median(&self.setup_secs)));
        v.insert("wall_s", Value64::of(metrics::median(&self.pass_secs)));
        let busy: f64 = self.pass_secs.iter().sum();
        v.insert("throughput_per_s", Value64::of(self.ops as f64 / busy.max(1e-12)));
        v.insert("latency_ms_p50", metrics::percentile(&self.latencies_ms, 50.0));
        v.insert("latency_ms_p90", metrics::percentile(&self.latencies_ms, 90.0));
        v.insert("peak_rss_mb", Value64::of(self.peak_rss_mb));
        v
    }

    /// Every per-layer value; layers the workload does not reach are absent.
    pub fn per_layer(&self) -> Values {
        METRICS
            .iter()
            .filter(|d| d.kind == Kind::PerLayer)
            .map(|d| {
                let v = self.layers.get(d.name).cloned();
                (d.name, v.unwrap_or_else(|| Value64::absent("not on this workload's path")))
            })
            .collect()
    }
}

/// Set-ups per run for workloads whose set-up is cheap; the median of
/// several keeps `setup_s` steady.
pub const SETUPS: usize = 5;

/// Runs `setup` `setups` times — each from scratch, timed, the previous
/// state dropped first — then untraced passes on the last state until
/// `cfg.budget` is spent. `pass` returns the wall seconds of its timed
/// region (untimed housekeeping such as emptying a cache stays outside).
pub fn measure<S>(
    cfg: &RunConfig,
    setups: usize,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(&mut S, &mut Run) -> f64,
) -> (S, Run) {
    let mut run = Run::default();
    let mut state = None;
    for _ in 0..setups.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        run.setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    let started = Instant::now();
    loop {
        let secs = pass(&mut state, &mut run);
        run.pass_secs.push(secs);
        let done = match cfg.budget {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Passes(n) => run.pass_secs.len() >= n.max(1),
        };
        if done {
            break;
        }
    }
    run.peak_rss_mb = metrics::peak_rss_mb().unwrap_or(0.0);
    (state, run)
}

/// Seeded 64-bit generator (SplitMix64) for the inputs the benchmark builds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input `stream` (independent per stream).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
