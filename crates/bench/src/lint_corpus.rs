//! The lint corpus: every paper circuit and kernel, statically verified.
//!
//! Two views of the same artifact set. [`all_reports`] lints the whole
//! corpus — seven Table 3 circuits, two Section 10 extension circuits, six
//! SS-lite kernels — for the `aplint` binary and the clean-corpus tests.
//! [`counts_for_app`] maps one application name (as carried by
//! `RunReport::app`) onto the diagnostic totals of the artifacts that
//! implement it, which is what the engine manifest records per job.

use ap_apps::App;
use ap_engine::manifest::DiagCounts;
use ap_lint::Report;
use ap_synth::circuits;
use std::sync::OnceLock;

/// Lints every synthesizable circuit: the seven Table 3 designs plus the
/// two Section 10 extension circuits, in that order.
pub fn circuit_reports() -> Vec<Report> {
    let mut reports: Vec<Report> =
        circuits::all().into_iter().map(|spec| ap_synth::lint::check(&(spec.build)())).collect();
    reports.push(ap_synth::lint::check(&circuits::data_primitives()));
    reports.push(ap_synth::lint::check(&circuits::entropy_decode()));
    reports
}

/// Lints the six paper workloads' SS-lite kernels.
pub fn kernel_reports() -> Vec<Report> {
    ap_risc::kernels::all()
        .into_iter()
        .map(|(name, _)| ap_risc::lint::check(name, &ap_risc::kernels::assemble_kernel(name)))
        .collect()
}

/// The full corpus: circuits first, then kernels.
pub fn all_reports() -> Vec<Report> {
    let mut reports = circuit_reports();
    reports.extend(kernel_reports());
    reports
}

/// Static race/footprint analysis (`aplint --race`) over the six SS-lite
/// kernels: one report per kernel, carrying any RC201/RC202/RC203 findings.
/// The paired footprint of each analysis is returned alongside so renderers
/// can show what was proven.
pub fn race_reports() -> Vec<(Report, ap_lint::footprint::StaticFootprint)> {
    ap_risc::kernels::all()
        .into_iter()
        .map(|(name, _)| {
            let analysis =
                ap_risc::footprint::analyze(name, &ap_risc::kernels::assemble_kernel(name));
            (analysis.report, analysis.footprint)
        })
        .collect()
}

/// The Table 3 circuit implementing `app`, if it has one (`median` is
/// processor-side only in Table 3).
fn circuit_for_app(app: &str) -> Option<fn() -> ap_synth::Netlist> {
    Some(match app {
        "array-insert" => circuits::array_insert,
        "array-delete" => circuits::array_delete,
        "array-find" => circuits::array_find,
        "database" => circuits::database,
        "dynamic-prog" => circuits::dynprog,
        "matrix-simplex" | "matrix-boeing" => circuits::matrix,
        "mpeg-mmx" => circuits::mpeg_mmx,
        _ => return None,
    })
}

/// The SS-lite kernel implementing `app`'s inner loop, if known.
fn kernel_for_app(app: &str) -> Option<&'static str> {
    Some(match app {
        "array-insert" | "array-delete" | "array-find" => "array",
        "database" => "database",
        "median" => "median",
        "dynamic-prog" => "dynamic-prog",
        "matrix-simplex" | "matrix-boeing" => "matrix",
        "mpeg-mmx" => "mpeg-mmx",
        _ => return None,
    })
}

/// One memo slot per [`App::ALL`] entry, in that order.
type Memo = [OnceLock<DiagCounts>; App::ALL.len()];

/// Diagnostic totals for the artifacts behind application `app`: its
/// Table 3 circuit (when it has one) plus its SS-lite kernel — the kernel
/// contributing both its structural lint and its static race/footprint
/// analysis. Unknown names have no artifacts and report zero.
///
/// Each [`App::ALL`] entry is analysed once per process; concurrent first
/// callers wait on that one computation. The artifacts and the lint code
/// are compiled in, so the totals cannot change while a process runs, and
/// the next process recomputes them. Names outside [`App::ALL`] (such as
/// `database-xl`) are analysed on every call.
pub fn counts_for_app(app: &str) -> DiagCounts {
    static MEMO: Memo = [const { OnceLock::new() }; App::ALL.len()];
    memoised(&MEMO, app)
}

fn memoised(memo: &Memo, app: &str) -> DiagCounts {
    match App::ALL.iter().position(|a| a.name() == app) {
        Some(i) => *memo[i].get_or_init(|| analyse(app)),
        None => analyse(app),
    }
}

fn analyse(app: &str) -> DiagCounts {
    let mut counts = DiagCounts::default();
    let mut add = |r: &Report| {
        counts.errors += r.errors();
        counts.warnings += r.warnings();
    };
    if let Some(build) = circuit_for_app(app) {
        add(&ap_synth::lint::check(&build()));
    }
    if let Some(kernel) = kernel_for_app(app) {
        let prog = ap_risc::kernels::assemble_kernel(kernel);
        add(&ap_risc::lint::check(kernel, &prog));
        add(&ap_risc::footprint::analyze(kernel, &prog).report);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_circuits_and_kernels() {
        let reports = all_reports();
        assert_eq!(reports.len(), 7 + 2 + 6);
    }

    #[test]
    fn every_app_has_at_least_a_kernel() {
        for app in App::ALL {
            assert!(kernel_for_app(app.name()).is_some(), "{}", app.name());
        }
    }

    #[test]
    fn unknown_apps_count_nothing() {
        assert_eq!(counts_for_app("nonesuch"), DiagCounts::default());
    }

    /// The memo returns what a fresh analysis returns, for every app, also
    /// when two threads ask for the same app first.
    #[test]
    fn memoised_counts_equal_a_fresh_analysis() {
        let memo: Memo = [const { OnceLock::new() }; App::ALL.len()];
        let start = std::sync::Barrier::new(2);
        for app in App::ALL.map(App::name) {
            let fresh = analyse(app);
            let first = std::thread::scope(|s| {
                let ask = || {
                    start.wait();
                    memoised(&memo, app)
                };
                let (a, b) = (s.spawn(ask), s.spawn(ask));
                [a.join().unwrap(), b.join().unwrap()]
            });
            assert_eq!(first, [fresh; 2], "{app}");
            assert_eq!(memoised(&memo, app), fresh, "{app}");
            assert_eq!(counts_for_app(app), fresh, "{app}");
        }
        assert!(memo.iter().all(|slot| slot.get().is_some()));
        assert_eq!(counts_for_app("database-xl"), analyse("database-xl"));
    }

    /// The footprint analyzer hard-codes the page geometry (ap-risc cannot
    /// depend on active-pages); this is the one place both crates are in
    /// scope, so pin the constants together here.
    #[test]
    fn footprint_analyzer_geometry_matches_simulator() {
        assert_eq!(ap_risc::footprint::PAGE_BYTES, active_pages::PAGE_SIZE as u64);
        assert_eq!(ap_risc::footprint::CTRL_BYTES, active_pages::sync::CTRL_SIZE as u64);
    }

    /// `aplint --race` acceptance: every SS-lite kernel analyzes clean and
    /// proves a page-local byte footprint.
    #[test]
    fn race_corpus_is_clean_and_page_local() {
        let reports = race_reports();
        assert_eq!(reports.len(), 6);
        for (report, footprint) in &reports {
            assert!(report.is_empty(), "{}", report.render_text());
            let fp = footprint
                .known()
                .unwrap_or_else(|| panic!("{}: footprint not statically known", report.subject()));
            let page = active_pages::PAGE_SIZE as u64;
            for &(_, end) in fp.reads.runs().iter().chain(fp.writes.runs()) {
                assert!(end <= page, "{}: run ends at {end}", report.subject());
            }
        }
    }
}
