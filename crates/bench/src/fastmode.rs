//! Two-tier execution audit: fast-vs-accurate cross-checks (DESIGN.md
//! §13). The `BENCH_fastmode.json` speed/error bench built on them lives in
//! [`crate::hostbench`].
//!
//! The fast tier (`ExecMode::Fast`) runs full application semantics but
//! replaces per-access hierarchy simulation with counted estimates, so it
//! must be audited on two axes:
//!
//! * **functional identity** — checksums must match the accurate tier bit
//!   for bit on every point ([`cross_check`] panics otherwise);
//! * **cycle fidelity** — kernel-cycle estimates must stay inside a
//!   documented error envelope ([`CYCLE_ERROR_ENVELOPE`]), in the style of
//!   the Ramulator 2.0 re-evaluation papers: the fast tier is only useful if
//!   its error is *quantified*, not merely assumed small.

use crate::sweep::SweepPoint;
use ap_apps::{App, RunReport, SystemKind};

/// Documented bound on the fast tier's signed relative kernel-cycle error,
/// per point, against the accurate oracle. The measured maximum over the
/// full Figure 3/4 sweep (170 runs) is 0.349 (see `BENCH_fastmode.json`);
/// the dominant contributors are the no-op `invalidate_range` and the
/// unmodelled branch predictor. CI and `--mode both` fail any point outside
/// this bound.
pub const CYCLE_ERROR_ENVELOPE: f64 = 0.40;

/// One fast-vs-accurate comparison of a single run.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// Application kernel.
    pub app: App,
    /// Which memory system.
    pub kind: SystemKind,
    /// Problem size in pages.
    pub pages: f64,
    /// Kernel cycles from the accurate oracle.
    pub accurate_cycles: u64,
    /// Kernel cycles from the fast tier.
    pub fast_cycles: u64,
}

impl CrossCheck {
    /// Signed relative kernel-cycle error of the fast tier:
    /// `(fast − accurate) / accurate`.
    pub fn relative_error(&self) -> f64 {
        if self.accurate_cycles == 0 {
            return 0.0;
        }
        (self.fast_cycles as f64 - self.accurate_cycles as f64) / self.accurate_cycles as f64
    }
}

/// Compares one accurate/fast report pair.
///
/// # Panics
///
/// Panics if the functional results (checksums) differ — the fast tier is
/// only allowed to approximate *time*, never *answers*.
pub fn check_pair(app: App, pages: f64, accurate: &RunReport, fast: &RunReport) -> CrossCheck {
    assert_eq!(accurate.system, fast.system);
    assert_eq!(
        accurate.checksum,
        fast.checksum,
        "fast tier diverged functionally: {} {} at {pages} pages",
        app.name(),
        accurate.system,
    );
    CrossCheck {
        app,
        kind: accurate.system,
        pages,
        accurate_cycles: accurate.kernel_cycles,
        fast_cycles: fast.kernel_cycles,
    }
}

/// Pairs up two sweeps of the same grid (accurate and fast) into per-run
/// cross-checks: two per sweep point (conventional and RADram).
///
/// # Panics
///
/// Panics if the sweeps cover different points or any checksum differs.
pub fn cross_check(
    accurate: &[(App, Vec<SweepPoint>)],
    fast: &[(App, Vec<SweepPoint>)],
) -> Vec<CrossCheck> {
    assert_eq!(accurate.len(), fast.len(), "sweeps cover different app sets");
    let mut checks = Vec::new();
    for ((app_a, pts_a), (app_f, pts_f)) in accurate.iter().zip(fast) {
        assert_eq!(app_a, app_f, "sweeps cover different app sets");
        assert_eq!(pts_a.len(), pts_f.len(), "{}: sweeps cover different sizes", app_a.name());
        for (a, f) in pts_a.iter().zip(pts_f) {
            assert_eq!(a.pages, f.pages, "{}: sweeps cover different sizes", app_a.name());
            checks.push(check_pair(*app_a, a.pages, &a.conventional, &f.conventional));
            checks.push(check_pair(*app_a, a.pages, &a.radram, &f.radram));
        }
    }
    checks
}

/// Largest absolute relative error over a set of cross-checks.
pub fn max_error(checks: &[CrossCheck]) -> f64 {
    checks.iter().map(|c| c.relative_error().abs()).fold(0.0, f64::max)
}

/// The checks that exceed the documented envelope (empty on a healthy run).
pub fn envelope_breaches(checks: &[CrossCheck]) -> Vec<&CrossCheck> {
    checks.iter().filter(|c| c.relative_error().abs() > CYCLE_ERROR_ENVELOPE).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_apps::ExecMode;
    use radram::RadramConfig;

    #[test]
    fn cross_check_accepts_identical_answers_and_scores_errors() {
        let cfg = RadramConfig::reference();
        let acc = App::Database.run_mode(SystemKind::Radram, 1.0, &cfg, ExecMode::Accurate);
        let fast = App::Database.run_mode(SystemKind::Radram, 1.0, &cfg, ExecMode::Fast);
        let check = check_pair(App::Database, 1.0, &acc, &fast);
        assert_eq!(check.accurate_cycles, acc.kernel_cycles);
        assert!(check.relative_error().abs() <= CYCLE_ERROR_ENVELOPE);
    }

    #[test]
    #[should_panic(expected = "diverged functionally")]
    fn cross_check_rejects_divergent_answers() {
        let cfg = RadramConfig::reference();
        let acc = App::Database.run_mode(SystemKind::Radram, 1.0, &cfg, ExecMode::Accurate);
        let mut fast = App::Database.run_mode(SystemKind::Radram, 1.0, &cfg, ExecMode::Fast);
        fast.checksum ^= 1;
        check_pair(App::Database, 1.0, &acc, &fast);
    }

    #[test]
    fn envelope_breach_detection_works() {
        let base = CrossCheck {
            app: App::Database,
            kind: SystemKind::Radram,
            pages: 1.0,
            accurate_cycles: 1000,
            fast_cycles: 1000,
        };
        let bad = CrossCheck { fast_cycles: 2000, ..base.clone() };
        let checks = vec![base, bad];
        assert_eq!(envelope_breaches(&checks).len(), 1);
        assert!((max_error(&checks) - 1.0).abs() < 1e-12);
    }
}
