//! Per-job trace artifacts: with `Engine::with_trace_dir` every fresh execution
//! exports a parseable Chrome trace containing its `job.run` span, cache
//! hits stay untraced, the manifest records which jobs carry traces, and
//! a traced run's filter ends with its jobs.

use ap_engine::{manifest, Codec, Engine, Job};
use ap_trace::{Filter, Subsystem};

#[test]
fn fresh_jobs_export_traces_and_cache_hits_do_not() {
    let base = std::env::temp_dir().join(format!("ap-engine-trace-test-{}", std::process::id()));
    let cache_dir = base.join("cache");
    let trace_dir = base.join("traces");
    let manifest_path = base.join("manifest.jsonl");
    let _ = std::fs::remove_dir_all(&base);

    let codec: Codec<u64> =
        Codec { encode: |v| v.to_string(), decode: |s| s.trim().parse().ok(), diag: None };
    let engine = Engine::new()
        .with_workers(2)
        .with_cache_dir(&cache_dir)
        .with_manifest(&manifest_path)
        .with_trace_dir(&trace_dir, Filter::ALL)
        .with_salt("trace-test-v1");

    let make_jobs = || -> Vec<Job<u64>> {
        (0..4u64)
            .map(|i| {
                Job::new(format!("traced/{i}"), move || {
                    // Emit a simulation-side event so the trace has content
                    // beyond the engine's own job.run span.
                    ap_trace::instant(Subsystem::Radram, "page.dispatch", 100 + i, i, 0);
                    i * 3
                })
            })
            .collect()
    };

    let cold = engine.run(make_jobs(), Some(codec));
    for outcome in &cold {
        assert!(!outcome.cache_hit);
        let path = outcome.trace.as_ref().expect("fresh job must carry a trace path");
        let text = std::fs::read_to_string(path).expect("trace file must exist");
        let events = ap_trace::chrome::parse(&text).expect("trace must parse");
        assert!(
            events.iter().any(|e| e.name == "job.run" && e.pid == ap_trace::chrome::PID_ENGINE),
            "missing job.run span in {}",
            path.display()
        );
        assert!(
            events.iter().any(|e| e.name == "page.dispatch"),
            "missing simulation event in {}",
            path.display()
        );
    }

    // Warm run: values come from the cache, nothing simulates, no traces.
    let warm = engine.run(make_jobs(), Some(codec));
    assert!(warm.iter().all(|o| o.cache_hit && o.trace.is_none()));

    // Manifest: 8 lines total, exactly the 4 fresh ones carry a trace.
    let summary = manifest::summarize(&manifest_path).unwrap();
    assert_eq!(summary.total, 8);
    assert_eq!(summary.cache_misses, 4);
    assert_eq!(summary.cache_hits, 4);
    assert_eq!(summary.traced, 4);

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn untraced_engines_attach_no_trace_paths() {
    let results = Engine::new().with_workers(1).run(vec![Job::new("plain", || 1u64)], None);
    assert!(results[0].trace.is_none());
}

#[test]
fn a_traced_run_leaves_later_runs_untraced() {
    let trace_dir =
        std::env::temp_dir().join(format!("ap-engine-trace-leak-{}", std::process::id()));
    let probe = || vec![Job::new("probe", || ap_trace::enabled(Subsystem::Mem))];

    let traced =
        Engine::new().with_workers(1).with_trace_dir(&trace_dir, Filter::ALL).run(probe(), None);
    assert_eq!(traced[0].result.as_ref().ok(), Some(&true), "the traced job records mem events");

    let untraced = Engine::new().with_workers(1).run(probe(), None);
    assert_eq!(
        untraced[0].result.as_ref().ok(),
        Some(&false),
        "tracing stayed on after the traced run ended"
    );
    let _ = std::fs::remove_dir_all(&trace_dir);
}
