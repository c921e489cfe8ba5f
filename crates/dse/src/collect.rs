//! Streaming collection of engine results into per-config design points.
//!
//! The engine returns one [`RunReport`] per [`crate::grid::DseSpec`]; a
//! [`Collector`] folds them back onto their originating
//! [`crate::grid::DseConfig`]s — conventional and RADram halves reunited —
//! regardless of arrival order. Configs missing either half (a failed or
//! skipped run) are counted, not silently dropped, so a sweep always
//! accounts for its whole grid.

use ap_apps::{speedup, RunReport, SystemKind};

use crate::grid::DseConfig;
use crate::pareto::ParetoPoint;

/// A fully-measured design point: one config with both system runs.
#[derive(Debug, Clone)]
pub struct ConfigPoint {
    /// The design-space cell.
    pub config: DseConfig,
    /// The conventional-system run.
    pub conventional: RunReport,
    /// The RADram run.
    pub radram: RunReport,
}

impl ConfigPoint {
    /// RADram speedup over conventional on kernel cycles.
    ///
    /// # Panics
    ///
    /// Panics if the two halves disagree on the functional result (see
    /// [`ap_apps::speedup`]).
    pub fn speedup(&self) -> f64 {
        speedup(&self.conventional, &self.radram)
    }

    /// Objective vector in [`crate::pareto::OBJECTIVES`] order:
    /// `[speedup, le_mhz, area_bytes]`.
    pub fn objectives(&self) -> Vec<f64> {
        vec![self.speedup(), self.config.le_mhz(), self.config.area_bytes() as f64]
    }
}

/// Folds per-spec run reports into per-config [`ConfigPoint`]s.
///
/// Spec indices follow the [`crate::grid::expand`] convention: spec `2k` is
/// config `k`'s conventional run, spec `2k + 1` its RADram run.
#[derive(Debug)]
pub struct Collector {
    configs: Vec<DseConfig>,
    conventional: Vec<Option<RunReport>>,
    radram: Vec<Option<RunReport>>,
}

impl Collector {
    /// A collector for the given expansion-ordered configs.
    pub fn new(configs: Vec<DseConfig>) -> Collector {
        let n = configs.len();
        Collector { configs, conventional: vec![None; n], radram: vec![None; n] }
    }

    /// Folds in the result of spec `spec_index`; `None` records a failed
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `spec_index` is out of range for the grid, if the report's
    /// system disagrees with the index parity, or if the slot was already
    /// filled.
    pub fn push(&mut self, spec_index: usize, report: Option<RunReport>) {
        let config = spec_index / 2;
        assert!(config < self.configs.len(), "spec index {spec_index} outside the grid");
        let (slot, expected) = if spec_index.is_multiple_of(2) {
            (&mut self.conventional[config], SystemKind::Conventional)
        } else {
            (&mut self.radram[config], SystemKind::Radram)
        };
        assert!(slot.is_none(), "spec index {spec_index} collected twice");
        if let Some(r) = report {
            assert_eq!(r.system, expected, "spec index {spec_index} has the wrong system");
            *slot = Some(r);
        }
    }

    /// Finishes the fold: complete points tagged with their config index
    /// (ascending), plus the number of configs left incomplete by failed or
    /// missing runs.
    pub fn finish(self) -> (Vec<(usize, ConfigPoint)>, usize) {
        let mut points = Vec::with_capacity(self.configs.len());
        let mut incomplete = 0;
        for (id, ((config, conv), rad)) in
            self.configs.into_iter().zip(self.conventional).zip(self.radram).enumerate()
        {
            match (conv, rad) {
                (Some(conventional), Some(radram)) => {
                    points.push((id, ConfigPoint { config, conventional, radram }));
                }
                _ => incomplete += 1,
            }
        }
        (points, incomplete)
    }
}

/// Lifts collected points into objective space. Pareto ids are the
/// *positions* in `points`, not the config ids — callers map a front id back
/// through `points[id]` to recover the config.
pub fn pareto_points(points: &[(usize, ConfigPoint)]) -> Vec<ParetoPoint> {
    points
        .iter()
        .enumerate()
        .map(|(pos, (_, point))| ParetoPoint::new(pos, point.objectives()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_apps::{App, ExecMode};
    use radram::SystemStats;

    fn config(app: App) -> DseConfig {
        DseConfig {
            app,
            pages: 2.0,
            l1d_size: 64 << 10,
            l1d_assoc: 2,
            l1d_block: 32,
            logic_divisor: 10,
        }
    }

    fn report(app: App, system: SystemKind, kernel_cycles: u64) -> RunReport {
        RunReport {
            app: app.name(),
            system,
            mode: ExecMode::Fast,
            pages: 2.0,
            kernel_cycles,
            total_cycles: kernel_cycles,
            dispatch_cycles: 0,
            checksum: 0xfeed,
            stats: SystemStats::default(),
        }
    }

    #[test]
    fn collector_reunites_halves_in_any_order() {
        let configs = vec![config(App::Database), config(App::Median)];
        let mut c = Collector::new(configs);
        c.push(3, Some(report(App::Median, SystemKind::Radram, 100)));
        c.push(0, Some(report(App::Database, SystemKind::Conventional, 900)));
        c.push(2, Some(report(App::Median, SystemKind::Conventional, 800)));
        c.push(1, Some(report(App::Database, SystemKind::Radram, 300)));
        let (points, incomplete) = c.finish();
        assert_eq!(incomplete, 0);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].0, 0);
        assert!((points[0].1.speedup() - 3.0).abs() < 1e-12);
        assert!((points[1].1.speedup() - 8.0).abs() < 1e-12);
        let pp = pareto_points(&points);
        assert_eq!(pp.len(), 2);
        assert_eq!(pp[1].id, 1, "pareto ids are positions");
        assert_eq!(pp[0].objectives.len(), crate::pareto::OBJECTIVES.len());
    }

    #[test]
    fn failed_runs_drop_only_their_config() {
        let configs = vec![config(App::Database), config(App::Median)];
        let mut c = Collector::new(configs);
        c.push(0, Some(report(App::Database, SystemKind::Conventional, 900)));
        c.push(1, None); // RADram half failed
        c.push(2, Some(report(App::Median, SystemKind::Conventional, 800)));
        c.push(3, Some(report(App::Median, SystemKind::Radram, 100)));
        let (points, incomplete) = c.finish();
        assert_eq!(incomplete, 1);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].0, 1, "the surviving point is the median config");
    }

    #[test]
    #[should_panic(expected = "wrong system")]
    fn mismatched_system_is_rejected() {
        let mut c = Collector::new(vec![config(App::Database)]);
        c.push(0, Some(report(App::Database, SystemKind::Radram, 1)));
    }

    #[test]
    #[should_panic(expected = "collected twice")]
    fn double_collection_is_rejected() {
        let mut c = Collector::new(vec![config(App::Database)]);
        c.push(0, Some(report(App::Database, SystemKind::Conventional, 1)));
        c.push(0, Some(report(App::Database, SystemKind::Conventional, 1)));
    }
}
