//! Problem-size sweeps shared by the figures.

use crate::runner::{RunSpec, Runner};
use ap_apps::{speedup, App, ExecMode, RunReport, SystemKind};
use radram::RadramConfig;

/// One problem size measured on both systems.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Problem size in Active Pages.
    pub pages: f64,
    /// Conventional-system run.
    pub conventional: RunReport,
    /// RADram run.
    pub radram: RunReport,
}

impl SweepPoint {
    /// RADram speedup over conventional (Figure 3's y-axis). Panics if the
    /// two runs' functional results diverged.
    pub fn speedup(&self) -> f64 {
        speedup(&self.conventional, &self.radram)
    }

    /// Percent of RADram kernel cycles the processor stalled (Figure 4).
    pub fn non_overlap_percent(&self) -> f64 {
        self.radram.non_overlap_fraction() * 100.0
    }
}

/// The Figure 3/4 problem-size grid for one application, in pages.
///
/// Heavier kernels sweep to 32 pages, lighter ones to 128, covering the
/// sub-page, scalable and (for the processor-centric apps) saturated
/// regions. `quick` shrinks the grid for smoke runs.
pub fn size_grid(app: App, quick: bool) -> Vec<f64> {
    if quick {
        return vec![0.5, 2.0, 8.0];
    }
    let mut sizes = vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
    match app {
        // Cheap kernels can afford the far end of the x-axis.
        App::Database | App::MatrixSimplex | App::MatrixBoeing | App::MpegMmx => {
            sizes.extend([64.0, 128.0]);
        }
        App::ArrayInsert | App::ArrayDelete | App::ArrayFind => {
            sizes.push(64.0);
        }
        App::Median | App::DynProg => {
            sizes.push(64.0);
        }
        // The scaling workload is swept by `hostbench`, not the figures;
        // a figure-style sweep of it gets the standard grid.
        App::DatabaseXl => {}
    }
    sizes
}

/// Runs `app` on both systems at one size as one engine batch on `runner`
/// (the single points: Figure 1's calibration, the Amdahl check, the
/// studies and `database-xl`).
///
/// # Panics
///
/// Panics if either run failed: a single point has no figure to degrade to.
pub fn run_pair(
    runner: &Runner,
    app: App,
    pages: f64,
    cfg: &RadramConfig,
    mode: ExecMode,
) -> SweepPoint {
    let specs = [SystemKind::Conventional, SystemKind::Radram]
        .map(|kind| RunSpec::new(app, kind, pages, cfg.clone()).with_mode(mode));
    let mut reports = runner
        .run(specs.to_vec())
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{} at {pages} pages failed: {e}", app.name())));
    let conventional = reports.next().expect("result per spec");
    SweepPoint { pages, conventional, radram: reports.next().expect("result per spec") }
}

/// The exact [`RunSpec`] batch behind the Figure 3/4 sweeps for `apps`:
/// conventional + RADram at every [`size_grid`] point on the given execution
/// tier, in submission order (app-major, size, conventional before RADram).
/// Shared between the in-process figures ([`run_sweeps`]) and the `apctl`
/// daemon client, so a sweep submitted to a running `apd` is point-for-point
/// the same batch — same keys, same cache entries — as a local `experiments`
/// run.
pub fn sweep_specs(apps: &[App], cfg: &RadramConfig, quick: bool, mode: ExecMode) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &app in apps {
        for pages in size_grid(app, quick) {
            for kind in [SystemKind::Conventional, SystemKind::Radram] {
                specs.push(RunSpec::new(app, kind, pages, cfg.clone()).with_mode(mode));
            }
        }
    }
    specs
}

/// Runs the size sweeps for several applications as **one** engine batch on
/// the given execution tier, so every point of every app shares the worker
/// pool. A point whose job failed (panic, deadline) is dropped with a
/// warning; the surviving points keep the figure usable.
pub fn run_sweeps(
    runner: &Runner,
    apps: &[App],
    cfg: &RadramConfig,
    quick: bool,
    mode: ExecMode,
) -> Vec<(App, Vec<SweepPoint>)> {
    let grids: Vec<(App, Vec<f64>)> =
        apps.iter().map(|&app| (app, size_grid(app, quick))).collect();
    let specs = sweep_specs(apps, cfg, quick, mode);
    let mut results = runner.run(specs).into_iter();
    grids
        .into_iter()
        .map(|(app, sizes)| {
            let points = sizes
                .into_iter()
                .filter_map(|pages| {
                    let conv = results.next().expect("result per spec");
                    let rad = results.next().expect("result per spec");
                    match (conv, rad) {
                        (Ok(conventional), Ok(radram)) => {
                            Some(SweepPoint { pages, conventional, radram })
                        }
                        (conv, rad) => {
                            for (kind, r) in [("conventional", conv), ("radram", rad)] {
                                if let Err(e) = r {
                                    eprintln!(
                                        "warning: dropping {} {kind} at {pages} pages: {e}",
                                        app.name()
                                    );
                                }
                            }
                            None
                        }
                    }
                })
                .collect();
            (app, points)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_ascending_and_cover_subpage() {
        for app in App::ALL {
            let g = size_grid(app, false);
            assert!(g[0] < 1.0, "{}: sub-page region missing", app.name());
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            assert!(g.len() >= 8);
        }
    }

    #[test]
    fn quick_grid_is_small() {
        assert!(size_grid(App::Median, true).len() <= 4);
    }

    #[test]
    fn point_speedup_consistent() {
        let cfg = RadramConfig::reference();
        let runner = Runner::with_engine(ap_engine::Engine::new().with_workers(2).without_cache());
        let p = run_pair(&runner, App::Database, 0.05, &cfg, ExecMode::Accurate);
        let s = p.speedup();
        assert!(s > 0.0);
        assert!(p.non_overlap_percent() >= 0.0 && p.non_overlap_percent() <= 100.0);
    }
}
