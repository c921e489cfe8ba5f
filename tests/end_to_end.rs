//! End-to-end integration: every evaluation kernel computes identical
//! results on both memory systems, and the partitions behave the way the
//! paper reports.

use ap_apps::{speedup, App, ExecMode, SystemKind};
use radram::RadramConfig;

fn both(app: App, pages: f64) -> (ap_apps::RunReport, ap_apps::RunReport) {
    let cfg = RadramConfig::reference();
    let c = app.run(SystemKind::Conventional, pages, &cfg);
    let r = app.run(SystemKind::Radram, pages, &cfg);
    (c, r)
}

#[test]
fn every_kernel_agrees_functionally_at_small_size() {
    for app in App::ALL {
        let (c, r) = both(app, 0.4);
        assert_eq!(c.checksum, r.checksum, "{} diverged at sub-page size", app.name());
    }
}

#[test]
fn every_kernel_agrees_functionally_across_pages() {
    for app in App::ALL {
        let (c, r) = both(app, 2.6);
        assert_eq!(c.checksum, r.checksum, "{} diverged at multi-page size", app.name());
    }
}

#[test]
fn radram_wins_on_every_kernel_at_eight_pages() {
    // Figure 3: by eight pages every kernel is in (or past) the scalable
    // region and RADram is ahead.
    for app in App::ALL {
        let (c, r) = both(app, 8.0);
        let s = speedup(&c, &r);
        assert!(s > 1.0, "{}: speedup {s:.2} at 8 pages", app.name());
    }
}

#[test]
fn memory_centric_kernels_scale_strongly() {
    for app in [App::Database, App::Median, App::ArrayInsert] {
        let (c, r) = both(app, 8.0);
        let s = speedup(&c, &r);
        assert!(s > 3.0, "{}: expected strong scaling, got {s:.2}", app.name());
    }
}

#[test]
fn processor_centric_kernels_reach_high_overlap() {
    // Figure 4: matrix reaches near-complete processor-memory overlap.
    for app in [App::MatrixSimplex, App::MatrixBoeing] {
        let (_c, r) = both(app, 8.0);
        assert!(
            r.non_overlap_fraction() < 0.5,
            "{}: stalled {:.0}% — the gather partition should keep the CPU busy",
            app.name(),
            r.non_overlap_fraction() * 100.0
        );
    }
}

#[test]
fn array_delete_is_adaptive_in_the_sub_page_region() {
    let (c, r) = both(App::ArrayDelete, 0.3);
    // Below one page the adaptive algorithm falls back to the processor, so
    // both systems run the same code and the speedup is exactly 1.
    assert_eq!(r.stats.activations, 0);
    assert!((speedup(&c, &r) - 1.0).abs() < 0.05);
}

#[test]
fn radram_functions_as_conventional_memory_with_negligible_degradation() {
    // "RADram can also function as a conventional memory system with
    // negligible performance degradation": run the conventional kernel code
    // against a RADram system with no Active Pages allocated.
    let cfg = RadramConfig::reference();
    let conv = App::Database.run(SystemKind::Conventional, 1.0, &cfg);
    // A RADram machine whose pages are never used behaves identically for
    // ordinary loads/stores; compare plain-memory timing between the two
    // System constructors directly.
    let mut plain = radram::System::conventional_mode(cfg.clone(), ExecMode::Accurate);
    let mut rad = radram::System::radram(cfg);
    let a = plain.ram_alloc(1 << 16, 64);
    let b = rad.ram_alloc(1 << 16, 64);
    for i in 0..8192u64 {
        plain.store_u32(a + 4 * i, i as u32);
        rad.store_u32(b + 4 * i, i as u32);
    }
    for i in 0..8192u64 {
        assert_eq!(plain.load_u32(a + 4 * i), rad.load_u32(b + 4 * i));
    }
    assert_eq!(plain.now(), rad.now(), "unused Active-Page support must cost nothing");
    let _ = conv;
}

#[test]
fn dispatch_times_are_small_fractions_of_kernels() {
    // T_A is microseconds while kernels are milliseconds.
    for app in [App::Database, App::Median] {
        let (_c, r) = both(app, 4.0);
        assert!(r.dispatch_cycles > 0);
        assert!(
            r.dispatch_cycles < r.kernel_cycles / 10,
            "{}: dispatch {} vs kernel {}",
            app.name(),
            r.dispatch_cycles,
            r.kernel_cycles
        );
    }
}
