//! Where the codec's diag hook runs: only for manifest lines, and there on
//! cache misses and cache hits alike.

use ap_engine::manifest::DiagCounts;
use ap_engine::{Codec, Engine, Job};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Calls of [`counting_diag`]. Only the one test in this file uses it, so
/// no other test's batches move the count.
static DIAG_CALLS: AtomicUsize = AtomicUsize::new(0);

fn counting_diag(v: &u64) -> DiagCounts {
    DIAG_CALLS.fetch_add(1, Ordering::SeqCst);
    DiagCounts { errors: 0, warnings: *v as u32 % 3 }
}

fn codec() -> Codec<u64> {
    Codec {
        encode: |v| v.to_string(),
        decode: |s| s.trim().parse().ok(),
        diag: Some(counting_diag),
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ap-engine-diag-{tag}-{}", std::process::id()))
}

fn jobs() -> Vec<Job<u64>> {
    (0..6u64).map(|i| Job::new(format!("diag/{i}"), move || i)).collect()
}

#[test]
fn diag_runs_only_for_manifest_lines_on_misses_and_hits() {
    let cache_dir = temp_path("cache");
    let manifest = temp_path("manifest.jsonl");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_file(&manifest);

    // No manifest: neither the cold (miss) nor the warm (hit) batch calls
    // the hook.
    let engine = Engine::new().with_workers(2).with_cache_dir(&cache_dir);
    let cold = engine.run(jobs(), Some(codec()));
    let warm = engine.run(jobs(), Some(codec()));
    assert!(cold.iter().all(|o| !o.cache_hit) && warm.iter().all(|o| o.cache_hit));
    assert_eq!(DIAG_CALLS.load(Ordering::SeqCst), 0, "diag ran with no manifest");

    // With a manifest: one call per line, and every miss and hit line
    // carries the counts.
    let _ = std::fs::remove_dir_all(&cache_dir);
    let engine = engine.with_manifest(&manifest);
    let cold = engine.run(jobs(), Some(codec()));
    let warm = engine.run(jobs(), Some(codec()));
    assert!(cold.iter().all(|o| !o.cache_hit) && warm.iter().all(|o| o.cache_hit));
    assert_eq!(DIAG_CALLS.load(Ordering::SeqCst), 12);

    // Lines come in completion order: the first batch's six are misses,
    // the second batch's six are hits.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 12);
    for (n, line) in lines.iter().enumerate() {
        let i: u64 = line
            .split("\"key\":\"diag/")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .and_then(|digits| digits.parse().ok())
            .unwrap_or_else(|| panic!("no job key in {line}"));
        let cache = if n < 6 { "\"cache\":\"miss\"" } else { "\"cache\":\"hit\"" };
        let counts = format!("\"diag_errors\":0,\"diag_warnings\":{}", i % 3);
        assert!(line.contains(cache) && line.contains(&counts), "{line}");
    }
    let summary = ap_engine::manifest::summarize(&manifest).unwrap();
    assert_eq!((summary.cache_misses, summary.cache_hits), (6, 6));
    assert_eq!(summary.diag_warnings, 2 * (1 + 2 + 1 + 2));

    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_file(&manifest);
}
