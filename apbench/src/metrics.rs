//! The metric table, the statistics every workload reports through, and the
//! JSON the benchmark writes.
//!
//! `METRICS` is the single list of names: `BENCHMARK.json` must carry the
//! same end-to-end and per-layer names (a test checks it), every workload
//! emits every name, and `apbench compare` reads bounds for the end-to-end
//! ones from `BENCHMARK.json`.

use ap_apd::json::{self, Value};
use std::collections::BTreeMap;

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured on untraced passes (`--trace 0`).
    EndToEnd,
    /// Measured on the traced pass and the layer probes (`--trace 1`).
    PerLayer,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end or per-layer.
    pub kind: Kind,
    /// Deterministic: two runs of one commit must agree exactly.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better, kind: Kind::EndToEnd, exact: false }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better, kind: Kind::PerLayer, exact: false }
}

const fn count(name: &'static str, better: &'static str) -> Def {
    Def { name, unit: "count", better, kind: Kind::PerLayer, exact: true }
}

/// Every metric, end-to-end first. Per-layer metrics come in three groups:
/// layer probes (the same calibrated unit costs on every workload),
/// `split.*` shares of the workload's own traced operation time, and counts
/// and ratios of the traced pass.
pub const METRICS: &[Def] = &[
    e2e("setup_s", "s", "lower"),
    e2e("wall_s", "s", "lower"),
    e2e("throughput_per_s", "1/s", "higher"),
    e2e("latency_ms_p50", "ms", "lower"),
    e2e("latency_ms_p90", "ms", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
    // Layer probes.
    layer("mem.hier_l1_hit_ns", "ns", "lower"),
    layer("mem.hier_l2_hit_ns", "ns", "lower"),
    layer("mem.hier_dram_ns", "ns", "lower"),
    layer("mem.fast_access_ns", "ns", "lower"),
    layer("cpu.ns_per_inst", "ns", "lower"),
    layer("core.page_exec_us_scan", "us", "lower"),
    layer("core.page_exec_us_memmove", "us", "lower"),
    layer("radram.activate_us_p50", "us", "lower"),
    layer("radram.wait_us_p50", "us", "lower"),
    layer("engine.codec_encode_us", "us", "lower"),
    layer("engine.codec_decode_us", "us", "lower"),
    layer("engine.cache_store_us", "us", "lower"),
    layer("engine.cache_load_us", "us", "lower"),
    layer("bench.diag_ms_per_job", "ms", "lower"),
    layer("apd.hit_latency_ms_p50", "ms", "lower"),
    layer("apd.miss_latency_ms_p50", "ms", "lower"),
    // Shares of the traced pass's summed operation time.
    layer("split.apps_pct", "%", "lower"),
    layer("split.kernel_pct", "%", "lower"),
    layer("split.page_exec_pct", "%", "lower"),
    layer("split.batch_pct", "%", "lower"),
    layer("split.diag_pct", "%", "lower"),
    layer("split.engine_pct", "%", "lower"),
    layer("split.server_pct", "%", "lower"),
    layer("split.serve_pct", "%", "lower"),
    layer("mem.model_est_pct", "%", "lower"),
    // Counts and ratios of the traced pass.
    count("cpu.instructions", "lower"),
    count("mem.l1d_accesses", "lower"),
    count("mem.l1d_misses", "lower"),
    count("mem.l2_misses", "lower"),
    count("mem.dram_fills", "lower"),
    count("mem.dram_writebacks", "lower"),
    count("radram.activations", "lower"),
    count("engine.jobs", "lower"),
    count("engine.cache_hits", "higher"),
    layer("core.pool_batches", "count", "higher"),
    layer("core.pool_reuses", "count", "higher"),
    layer("core.pool_threads_spawned", "count", "lower"),
    layer("core.effective_threads", "count", "higher"),
    layer("engine.worker_idle_frac", "frac", "lower"),
    layer("radram.serial_frac", "frac", "lower"),
    layer("core.par_speedup", "x", "higher"),
    layer("core.par_speedup_1t", "x", "higher"),
    layer("bench.trace_overhead_frac", "frac", "lower"),
    Def {
        name: "fast.cycle_err_max",
        unit: "frac",
        better: "lower",
        kind: Kind::PerLayer,
        exact: true,
    },
];

/// The definition of `name`.
///
/// # Panics
///
/// Panics on a name missing from [`METRICS`] (a bug in this crate).
pub fn def(name: &str) -> &'static Def {
    METRICS.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// One reported value: `None` when the rule that guards it (a percentile's
/// sample count, a speed-up's thread count) says it cannot be reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Value64 {
    /// The number, if reportable.
    pub value: Option<f64>,
    /// Samples behind a percentile or median.
    pub samples: Option<usize>,
    /// Why `value` is absent.
    pub reason: Option<String>,
}

impl Value64 {
    /// A plain measured value.
    pub fn of(value: f64) -> Self {
        Value64 { value: Some(value), samples: None, reason: None }
    }

    /// An absent value with its reason.
    pub fn absent(reason: impl Into<String>) -> Self {
        Value64 { value: None, samples: None, reason: Some(reason.into()) }
    }
}

/// Metric name → value, in name order.
pub type Values = BTreeMap<&'static str, Value64>;

/// The `p`-th percentile (nearest rank) of `samples`, reported only when at
/// least ten samples lie beyond it: rank `r = ceil(p/100 · n)` needs
/// `n − r ≥ 10`.
pub fn percentile(samples: &[f64], p: f64) -> Value64 {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || n < rank + 10 {
        return Value64 {
            value: None,
            samples: Some(n),
            reason: Some(format!("p{p} needs 10 samples beyond it; have {n} samples")),
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Value64 { value: Some(sorted[rank - 1]), samples: Some(n), reason: None }
}

/// The median of `samples` (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// This process's peak resident set (`VmHWM`) in MB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host cores as the standard library reports them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A metric value as JSON: `{"value": v | null, "unit": u, ...}`.
fn metric_json(name: &str, v: &Value64) -> Value {
    let mut pairs =
        vec![("value", v.value.map_or(Value::Null, Value::Num)), ("unit", json::s(def(name).unit))];
    if let Some(n) = v.samples {
        pairs.push(("samples", json::n(n as u64)));
    }
    if let Some(reason) = &v.reason {
        pairs.push(("reason", json::s(reason.clone())));
    }
    json::obj(pairs)
}

/// The values as a JSON object, absent values as `null`.
pub fn values_json(values: &Values) -> Value {
    Value::Obj(values.iter().map(|(name, v)| (name.to_string(), metric_json(name, v))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).value, None, "rank 10 of 19 leaves 9 beyond");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).value, Some(10.0));
        assert_eq!(percentile(&v, 50.0).samples, Some(20));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0).value, None);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0).value, Some(90.0));
        assert!(percentile(&[], 50.0).value.is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let ok = |s: &str| s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        for (i, d) in METRICS.iter().enumerate() {
            assert!(ok(d.name) && d.name.len() <= 64, "{}", d.name);
            assert!(d.better == "lower" || d.better == "higher");
            assert!(METRICS[i + 1..].iter().all(|o| o.name != d.name), "duplicate {}", d.name);
        }
    }
}
