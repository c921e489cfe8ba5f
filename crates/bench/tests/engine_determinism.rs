//! Determinism under parallelism, the engine's core contract: the quick
//! Figure 3/4 sweep must render byte-identical CSV at any worker count, and
//! a cache-warm re-run must return the identical bytes without re-simulating
//! a single point.

use ap_bench::runner::Runner;
use ap_bench::{experiments, render, ExecMode};
use ap_engine::{manifest, Engine};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ap-bench-determinism-{tag}-{}", std::process::id()))
}

#[test]
fn fig3_csv_is_byte_identical_across_worker_counts_and_cache_warmth() {
    let cache = temp_path("cache");
    let serial_manifest = temp_path("serial.jsonl");
    let parallel_manifest = temp_path("parallel.jsonl");
    let warm_manifest = temp_path("warm.jsonl");
    let _ = std::fs::remove_dir_all(&cache);
    for p in [&serial_manifest, &parallel_manifest, &warm_manifest] {
        let _ = std::fs::remove_file(p);
    }

    // One worker (AP_JOBS=1 equivalent), no cache: the reference output.
    let serial = Runner::with_engine(
        Engine::new().with_workers(1).without_cache().with_manifest(&serial_manifest),
    );
    let serial_csv = render::sweep_csv(&experiments::fig3_fig4(&serial, true, ExecMode::Accurate));

    // Four workers (AP_JOBS=4 equivalent), cold cache: must produce the same
    // bytes even though completion order differs, and fills the cache.
    let parallel = Runner::with_engine(
        Engine::new().with_workers(4).with_cache_dir(&cache).with_manifest(&parallel_manifest),
    );
    let parallel_csv =
        render::sweep_csv(&experiments::fig3_fig4(&parallel, true, ExecMode::Accurate));
    assert_eq!(serial_csv, parallel_csv, "CSV must not depend on the worker count");

    let serial_summary = manifest::summarize(&serial_manifest).unwrap();
    let cold_summary = manifest::summarize(&parallel_manifest).unwrap();
    assert!(serial_summary.total > 0);
    assert_eq!(serial_summary.total, cold_summary.total);
    assert_eq!(cold_summary.ok, cold_summary.total, "no point may fail");
    assert_eq!(cold_summary.cache_hits, 0, "cold run must simulate everything");

    // Warm run over the filled cache: identical bytes, zero simulations.
    let warm = Runner::with_engine(
        Engine::new().with_workers(4).with_cache_dir(&cache).with_manifest(&warm_manifest),
    );
    let warm_csv = render::sweep_csv(&experiments::fig3_fig4(&warm, true, ExecMode::Accurate));
    assert_eq!(serial_csv, warm_csv, "cache replay must reproduce the exact bytes");

    let warm_summary = manifest::summarize(&warm_manifest).unwrap();
    assert_eq!(warm_summary.total, cold_summary.total);
    assert_eq!(
        warm_summary.cache_hits, warm_summary.total,
        "warm run must re-simulate nothing: {warm_summary:?}"
    );
    assert_eq!(warm_summary.cache_misses, 0);

    let _ = std::fs::remove_dir_all(&cache);
    for p in [&serial_manifest, &parallel_manifest, &warm_manifest] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sensitivity_figures_are_worker_count_invariant() {
    let serial = Runner::with_engine(Engine::new().with_workers(1).without_cache());
    let parallel = Runner::with_engine(Engine::new().with_workers(3).without_cache());
    let csv_of = |r: &Runner| {
        format!(
            "{}\n{}",
            render::sensitivity_csv("latency_ns", &experiments::fig8(r, true)),
            render::fig5_csv(&experiments::fig5(r, true)),
        )
    };
    assert_eq!(csv_of(&serial), csv_of(&parallel));
}
