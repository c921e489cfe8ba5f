//! Crate-level checks: the metric names against `BENCHMARK.json`, the
//! results round trip, `compare`, and a quick smoke of every workload with
//! its oracle gates.

use crate::metrics::{self, Kind, Value64, METRICS};
use crate::report;
use crate::run::{Budget, Run, RunConfig, Workload};
use ap_apd::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of a `BENCHMARK.json` metric list.
fn listed(bench: &Value, list: &str) -> Vec<(String, String, String)> {
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
    bench
        .get(list)
        .and_then(Value::as_arr)
        .expect(list)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn defined(kind: Kind) -> Vec<(String, String, String)> {
    METRICS
        .iter()
        .filter(|d| d.kind == kind)
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

/// A run with every metric set, as a traced run leaves it.
fn sample_run() -> Run {
    let mut run = Run {
        setup_secs: vec![0.5, 0.25, 0.75],
        pass_secs: vec![2.0, 2.5],
        ops: 450,
        latencies_ms: (1..=200).map(f64::from).collect(),
        attempted: 450,
        digest: 0x0123_4567_89ab_cdef,
        peak_rss_mb: 123.5,
        ..Run::default()
    };
    for d in METRICS.iter().filter(|d| d.kind == Kind::PerLayer) {
        run.layer(d.name, 1.5);
    }
    run.layers.insert("core.par_speedup", Value64::absent("one core"));
    run.gate("oracle", 0, String::new);
    run.meta.push(("clients", json::n(2)));
    run
}

#[test]
fn benchmark_json_names_match_the_metric_table() {
    let bench = benchmark_json();
    assert_eq!(listed(&bench, "end_to_end"), defined(Kind::EndToEnd));
    assert_eq!(listed(&bench, "per_layer"), defined(Kind::PerLayer));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    let ok = |s: &str| s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    assert!(workloads.iter().all(|w| ok(w)));
    assert!(METRICS.iter().all(|d| ok(d.name)));
    assert!(report::bounds(&bench).expect("bounds").values().all(|&b| (0.0..=0.25).contains(&b)));
}

#[test]
fn emitted_names_are_exactly_the_table() {
    let run = sample_run();
    for traced in [false, true] {
        let line = json::parse(&report::result_line(&run, traced)).expect("result line parses");
        let keys: BTreeSet<&str> =
            line.as_obj().expect("object").keys().map(String::as_str).collect();
        assert_eq!(keys, BTreeSet::from(["attempted", "correct", "failed", "metrics"]));
        let kind = if traced { Kind::PerLayer } else { Kind::EndToEnd };
        let names: BTreeSet<&str> = line
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics")
            .keys()
            .map(String::as_str)
            .collect();
        let want: BTreeSet<&str> =
            METRICS.iter().filter(|d| d.kind == kind).map(|d| d.name).collect();
        assert_eq!(names, want);
        for (name, m) in line.get("metrics").and_then(Value::as_obj).expect("metrics") {
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(metrics::def(name).unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} must be a number");
        }
    }
}

#[test]
fn results_json_round_trips_through_the_json_module() {
    let run = sample_run();
    let mut workloads = BTreeMap::new();
    workloads.insert("page-batch".to_string(), report::workload_json(&run, true));
    let meta = json::obj([("seed", json::n(7)), ("git_rev", json::s("unknown \"quoted\"\n"))]);
    let results = report::results_json(meta, workloads, vec![("cross", true, String::new())]);
    let text = results.to_json();
    let parsed = json::parse(&text).expect("results.json parses");
    assert_eq!(parsed, results);
    assert_eq!(parsed.to_json(), text);
    let m =
        |name: &str| parsed.get("workloads")?.get("page-batch")?.get("metrics")?.get(name).cloned();
    assert_eq!(m("wall_s").and_then(|v| v.get("value")?.as_f64()), Some(2.25));
    assert_eq!(m("latency_ms_p90").and_then(|v| v.get("samples")?.as_u64()), Some(200));
    let absent = m("core.par_speedup").expect("present as null");
    assert_eq!(absent.get("value"), Some(&Value::Null));
    assert_eq!(absent.get("reason").and_then(Value::as_str), Some("one core"));
}

#[test]
fn compare_flags_bounds_and_exact_values() {
    let bounds = report::bounds(&benchmark_json()).expect("bounds");
    let results = |run: &Run| {
        let w = BTreeMap::from([("fig3-fast".to_string(), report::workload_json(run, true))]);
        report::results_json(json::obj([]), w, Vec::new())
    };
    let base = sample_run();
    assert_eq!(report::compare(&results(&base), &results(&base), &bounds).1, 0);
    let mut slower = sample_run();
    slower.pass_secs = vec![3.0, 3.5];
    assert!(report::compare(&results(&base), &results(&slower), &bounds).1 >= 1);
    let mut other = sample_run();
    other.digest ^= 1;
    other.layer("cpu.instructions", 2.0);
    assert_eq!(report::compare(&results(&base), &results(&other), &bounds).1, 2);
}

#[test]
fn quick_smoke_of_every_workload_passes_its_gates() {
    for w in Workload::ALL {
        let cfg = RunConfig {
            seed: 3,
            budget: Budget::Passes(1),
            trace: true,
            quick: true,
            work: Path::new(".apbench").join(format!("test-{}-{}", w.name(), std::process::id())),
        };
        let run = w.run(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.work);
        let failed: Vec<_> = run.gates.iter().filter(|g| !g.ok).collect();
        assert!(run.correct(), "{}: failed {} gates {failed:?}", w.name(), run.failed);
        assert!(run.attempted > 0 && run.ops > 0, "{}", w.name());
        // Every time-valued per-layer metric is a probe, measured on every workload.
        let layers = run.per_layer();
        for d in METRICS.iter().filter(|d| ["ns", "us", "ms"].contains(&d.unit)) {
            if d.kind == Kind::PerLayer {
                let v = layers[d.name].value.unwrap_or(0.0);
                assert!(v > 0.0, "{}: probe {} must be measured, got {v}", w.name(), d.name);
            }
        }
    }
}
