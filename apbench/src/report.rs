//! What the benchmark prints and writes: the per-workload result object,
//! the one-line summary the last line of a single-workload run carries,
//! `results.json`, and `apbench compare`.

use crate::metrics::{self, def, Kind, Values, METRICS};
use crate::run::Run;
use ap_apd::json::{self, Value};
use std::collections::BTreeMap;

/// The values a run reports: end-to-end always, per-layer when traced.
pub fn values(run: &Run, traced: bool) -> Values {
    let mut v = run.end_to_end();
    if traced {
        v.extend(run.per_layer());
    }
    v
}

/// `failed / attempted`.
pub fn failed_frac(run: &Run) -> f64 {
    run.failed as f64 / run.attempted.max(1) as f64
}

/// One workload's entry in `results.json`.
pub fn workload_json(run: &Run, traced: bool) -> Value {
    let gates = run
        .gates
        .iter()
        .map(|g| {
            json::obj([
                ("name", json::s(g.name)),
                ("ok", Value::Bool(g.ok)),
                ("detail", json::s(g.detail.clone())),
            ])
        })
        .collect();
    json::obj([
        ("correct", Value::Bool(run.correct())),
        ("attempted", json::n(run.attempted)),
        ("failed", json::n(run.failed)),
        ("failed_frac", Value::Num(failed_frac(run))),
        ("result_digest", json::s(format!("{:016x}", run.digest))),
        ("gates", Value::Arr(gates)),
        ("setups", json::n(run.setup_secs.len() as u64)),
        ("passes", json::n(run.pass_secs.len() as u64)),
        ("metrics", metrics::values_json(&values(run, traced))),
        ("meta", json::obj(run.meta.iter().cloned())),
    ])
}

/// The last stdout line of a single-workload run: `correct`, `attempted`,
/// `failed`, and the end-to-end (`traced == false`) or per-layer metrics
/// as `{"value", "unit"}` pairs. A value its rule withholds prints as 0.
pub fn result_line(run: &Run, traced: bool) -> String {
    let kind = if traced { Kind::PerLayer } else { Kind::EndToEnd };
    let metrics = values(run, traced)
        .into_iter()
        .filter(|(name, _)| def(name).kind == kind)
        .map(|(name, v)| {
            let pair = json::obj([
                ("value", Value::Num(v.value.unwrap_or(0.0))),
                ("unit", json::s(def(name).unit)),
            ]);
            (name.to_string(), pair)
        })
        .collect();
    json::obj([
        ("correct", Value::Bool(run.correct())),
        ("attempted", json::n(run.attempted)),
        ("failed", json::n(run.failed)),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_json()
}

/// String member `k` of `v`, or "".
fn text<'a>(v: &'a Value, k: &str) -> &'a str {
    v.get(k).and_then(Value::as_str).unwrap_or("")
}

/// Human-readable lines for a workload's result object: every metric with
/// its unit and sample count, the gates, and the totals.
pub fn summary(workload: &str, result: &Value) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, m) in result.get("metrics").and_then(Value::as_obj).into_iter().flatten() {
        let value = match m.get("value").and_then(Value::as_f64) {
            Some(x) => format!("{x:.6}"),
            None => format!("n/a ({})", text(m, "reason")),
        };
        let samples = m.get("samples").and_then(Value::as_u64).map(|n| format!("  [n={n}]"));
        let unit = text(m, "unit");
        lines.push(format!(
            "{workload:<14} {name:<28} {value} {unit}{}",
            samples.unwrap_or_default()
        ));
    }
    for g in result.get("gates").and_then(Value::as_arr).unwrap_or(&[]) {
        let verdict =
            if g.get("ok").and_then(Value::as_bool) == Some(true) { "ok" } else { "FAILED" };
        let (name, detail) = (text(g, "name"), text(g, "detail"));
        lines.push(format!("{workload:<14} gate {name:<23} {verdict} {detail}"));
    }
    let field = |k: &str| result.get(k).map(Value::to_json).unwrap_or_default();
    lines.push(format!(
        "{workload:<14} correct {} attempted {} failed {} failed_frac {} digest {}",
        field("correct"),
        field("attempted"),
        field("failed"),
        field("failed_frac"),
        field("result_digest")
    ));
    lines
}

/// `results.json`: run metadata, one entry per workload, and the
/// cross-workload checks.
pub fn results_json(
    meta: Value,
    workloads: BTreeMap<String, Value>,
    cross: Vec<(&str, bool, String)>,
) -> Value {
    let cross = cross
        .into_iter()
        .map(|(name, ok, detail)| {
            json::obj([
                ("name", json::s(name)),
                ("ok", Value::Bool(ok)),
                ("detail", json::s(detail)),
            ])
        })
        .collect();
    json::obj([
        ("schema", json::n(1)),
        ("bench", json::s("apbench")),
        ("meta", meta),
        ("workloads", Value::Obj(workloads)),
        ("cross_checks", Value::Arr(cross)),
    ])
}

/// End-to-end bounds from `BENCHMARK.json`: name → share of the baseline by
/// which the metric may worsen.
pub fn bounds(benchmark: &Value) -> Result<BTreeMap<String, f64>, String> {
    let list = benchmark.get("end_to_end").and_then(Value::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn metric_value(workload: &Value, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares results `b` against baseline `a`: every end-to-end metric
/// against its bound, and digests and deterministic per-layer values for
/// exact equality. Returns the report lines and the number of breaches.
pub fn compare(a: &Value, b: &Value, bounds: &BTreeMap<String, f64>) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut breaches = 0;
    let empty = BTreeMap::new();
    let wa = a.get("workloads").and_then(Value::as_obj).unwrap_or(&empty);
    let wb = b.get("workloads").and_then(Value::as_obj).unwrap_or(&empty);
    for (name, x) in wa {
        let Some(y) = wb.get(name) else {
            lines.push(format!("{name:<14} missing from the second results"));
            breaches += 1;
            continue;
        };
        for d in METRICS.iter().filter(|d| d.kind == Kind::EndToEnd) {
            let bound = bounds.get(d.name).copied().unwrap_or(0.0);
            let (Some(va), Some(vb)) = (metric_value(x, d.name), metric_value(y, d.name)) else {
                lines.push(format!("{name:<14} {:<20} n/a", d.name));
                continue;
            };
            let delta = (vb - va) / va.abs().max(1e-12);
            let worse = if d.better == "lower" { delta } else { -delta };
            let verdict = if worse > bound { "BREACH" } else { "ok" };
            breaches += usize::from(worse > bound);
            lines.push(format!(
                "{name:<14} {:<20} {va:>12.6} -> {vb:>12.6} {:>+8.2}% (bound {:.0}%) {verdict}",
                d.name,
                100.0 * delta,
                100.0 * bound
            ));
        }
        let mut exact = vec![("result_digest", x.get("result_digest"), y.get("result_digest"))];
        for d in METRICS.iter().filter(|d| d.exact) {
            let (mx, my) = (x.get("metrics"), y.get("metrics"));
            exact.push((d.name, mx.and_then(|m| m.get(d.name)), my.and_then(|m| m.get(d.name))));
        }
        for (what, va, vb) in exact {
            if va.is_some() && vb.is_some() && va != vb {
                breaches += 1;
                lines.push(format!("{name:<14} {what:<20} differs: {va:?} vs {vb:?} BREACH"));
            }
        }
    }
    (lines, breaches)
}
