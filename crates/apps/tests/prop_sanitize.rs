//! Property test: with the access sanitizer forced on, every benchmark's
//! RADram run audits clean — the page functions' declared footprints really
//! do contain what their kernels touch (dynamic ⊆ static, RC204) and no two
//! batch participants collide (RC205) — on both execution tiers and across
//! problem sizes.

use active_pages::settings;
use ap_apps::{App, ExecMode, SystemKind};
use proptest::prelude::*;
use radram::RadramConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sanitized_runs_report_no_races(
        which in 0usize..9,
        fast in proptest::bool::ANY,
        half_pages in 1u32..5,
    ) {
        let app = App::ALL[which];
        let pages = f64::from(half_pages) * 0.5;
        let mode = if fast { ExecMode::Fast } else { ExecMode::Accurate };
        // Real worker threads even on a small host, so batches actually take
        // the parallel path the sanitizer audits.
        let report = settings::scoped(
            |s| (s.page_threads, s.sanitize) = (Some(4), true),
            || app.run_mode(SystemKind::Radram, pages, &RadramConfig::reference(), mode),
        );
        prop_assert_eq!(
            (report.stats.race_errors, report.stats.race_warnings),
            (0, 0),
            "{} at {} pages in {:?} mode reported race diagnostics",
            app.name(),
            pages,
            mode
        );
    }
}
