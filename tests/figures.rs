//! Shape tests for the regenerated figures: the qualitative claims of the
//! paper's evaluation must hold in the reproduction.

use ap_apps::{App, ExecMode, SystemKind};
use ap_bench::experiments;
use ap_bench::runner::Runner;
use ap_bench::sweep::{run_pair, SweepPoint};
use radram::RadramConfig;

/// Both systems at one size, through a cache-less engine: the tests must
/// measure, not replay.
fn run_point(app: App, pages: f64, cfg: &RadramConfig) -> SweepPoint {
    let runner = active_pages::settings::scoped(|s| s.no_cache = true, Runner::from_env);
    run_pair(&runner, app, pages, cfg, ExecMode::Accurate)
}

#[test]
fn figure3_speedup_grows_through_the_scalable_region() {
    let cfg = RadramConfig::reference();
    for app in App::ALL {
        let s1 = run_point(app, 1.0, &cfg).speedup();
        let s8 = run_point(app, 8.0, &cfg).speedup();
        assert!(
            s8 > 1.3 * s1,
            "{}: speedup should grow with problem size ({s1:.2} -> {s8:.2})",
            app.name()
        );
    }
}

#[test]
fn figure4_matrix_non_overlap_falls_with_size() {
    let cfg = RadramConfig::reference();
    let small = run_point(App::MatrixSimplex, 1.0, &cfg).non_overlap_percent();
    let large = run_point(App::MatrixSimplex, 8.0, &cfg).non_overlap_percent();
    assert!(
        large < small,
        "matrix non-overlap should fall toward complete overlap ({small:.0}% -> {large:.0}%)"
    );
}

#[test]
fn figure4_array_primitives_keep_high_non_overlap() {
    // "for the array primitives ... the non-overlap percentage remains
    // relatively high" — they are memory-centric with little processor work.
    let cfg = RadramConfig::reference();
    let p = run_point(App::ArrayInsert, 4.0, &cfg);
    assert!(p.non_overlap_percent() > 80.0);
}

#[test]
fn figure8_zero_latency_helps_the_conventional_system() {
    // Cheaper misses shrink RADram's advantage on memory-bound kernels.
    let fast = RadramConfig::reference().with_miss_latency(0);
    let slow = RadramConfig::reference().with_miss_latency(600);
    let s_fast = run_point(App::Database, 4.0, &fast).speedup();
    let s_slow = run_point(App::Database, 4.0, &slow).speedup();
    assert!(
        s_slow > s_fast,
        "database speedup vs latency: {s_fast:.2} at 0ns, {s_slow:.2} at 600ns"
    );
}

#[test]
fn figure9_scalable_kernels_are_sensitive_to_logic_speed() {
    let fast = RadramConfig::reference().with_logic_divisor(2); // 500 MHz
    let slow = RadramConfig::reference().with_logic_divisor(100); // 10 MHz
    let s_fast = run_point(App::Database, 4.0, &fast).speedup();
    let s_slow = run_point(App::Database, 4.0, &slow).speedup();
    assert!(
        s_fast > 3.0 * s_slow,
        "database (scalable region) must track logic speed: {s_fast:.2} vs {s_slow:.2}"
    );
}

#[test]
fn figure9_saturated_kernels_are_less_sensitive() {
    // Matrix at 8 pages sits near saturation: the processor, not the logic,
    // is the bottleneck.
    let fast = RadramConfig::reference().with_logic_divisor(5);
    let slow = RadramConfig::reference().with_logic_divisor(20);
    let s_fast = run_point(App::MatrixSimplex, 8.0, &fast).speedup();
    let s_slow = run_point(App::MatrixSimplex, 8.0, &slow).speedup();
    let ratio = s_fast / s_slow;
    assert!(
        ratio < 3.0,
        "matrix near saturation should be comparatively insensitive (ratio {ratio:.2})"
    );
}

#[test]
fn figure5_radram_kernels_are_insensitive_to_l1_size() {
    // "all but one application was unaffected by the size of the level one
    // cache" for RADram kernels.
    for app in [App::Database, App::Median] {
        let small =
            app.run(SystemKind::Radram, 4.0, &RadramConfig::reference().with_l1d_size(32 * 1024));
        let large =
            app.run(SystemKind::Radram, 4.0, &RadramConfig::reference().with_l1d_size(256 * 1024));
        let ratio = small.kernel_cycles as f64 / large.kernel_cycles as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "{}: RADram kernel moved {ratio:.3}x across L1 sizes",
            app.name()
        );
    }
}

#[test]
fn table3_circuits_fit_and_clock_like_the_paper() {
    for row in experiments::table3() {
        assert!(row.les <= 256, "{}: over the per-page LE budget", row.name);
        assert!(row.speed_ns < 60.0, "{}: too slow for the 2001-era 100 MHz target", row.name);
        // Within a loose factor of the paper's synthesis results.
        let ratio = row.les as f64 / row.paper_les as f64;
        assert!((0.4..=2.0).contains(&ratio), "{}: LE ratio {ratio:.2}", row.name);
    }
}

#[test]
fn table4_correlations_echo_the_paper() {
    // Through the engine but cache-less: the test must measure, not replay.
    let runner = active_pages::settings::scoped(|s| s.no_cache = true, Runner::from_env);
    let rows = experiments::table4(&runner, true);
    assert_eq!(rows.len(), 8, "the paper's Table 4 has eight kernels");
    for r in &rows {
        assert!(
            r.correlation > 0.6,
            "{}: model correlation {:.3} too weak",
            r.app.name(),
            r.correlation
        );
    }
    let get = |a: App| rows.iter().find(|r| r.app == a).unwrap().correlation;
    assert!(
        get(App::MatrixBoeing) <= get(App::MatrixSimplex),
        "boeing's irregular fill must hurt the constant-parameter model most"
    );
}

#[test]
fn figure1_regions_from_calibrated_model() {
    let runner = active_pages::settings::scoped(|s| s.no_cache = true, Runner::from_env);
    let pts = experiments::fig1(&runner);
    let regions: Vec<&str> = pts.iter().map(|p| p.region).collect();
    assert!(regions.contains(&"sub-page"));
    assert!(regions.contains(&"scalable"));
    assert!(regions.contains(&"saturated"));
    // Speedup is (weakly) monotone until saturation.
    let scalable: Vec<f64> =
        pts.iter().filter(|p| p.region != "saturated").map(|p| p.speedup).collect();
    for w in scalable.windows(2) {
        assert!(w[1] >= w[0] * 0.99, "speedup dipped inside the scalable region");
    }
}
