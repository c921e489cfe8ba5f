//! Drives the `ap-dse` design-space sweep (DESIGN.md §15). [`run`] is the
//! one pipeline; its clients differ only in the executor they pass:
//! `experiments dse` runs the grid on the engine-backed [`Runner`]
//! ([`on_runner`]), `apctl dse` submits it to an `apd` daemon.
//!
//! A sweep runs every grid point once, on one execution tier (accurate by
//! default, like the figures), and reports the exhaustive Pareto front.

use crate::runner::{RunSpec, Runner};
use ap_apps::{ExecMode, RunReport};
use ap_dse::collect::{pareto_points, Collector};
use ap_dse::grid::{expand, DseConfig, DseSpec, Grid};
use ap_dse::pareto::{front, OBJECTIVES};
use ap_dse::report::{DseReport, FrontRow};

/// Outcome of one design-space sweep: the analytical report plus the
/// engine telemetry the full `BENCH_dse.json` payload carries.
#[derive(Debug)]
pub struct DseRun {
    /// The analytical report (front and point counts).
    pub report: DseReport,
    /// Jobs served from the disk cache.
    pub cache_hits: usize,
    /// Jobs submitted in total.
    pub total_jobs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
}

impl DseRun {
    /// The full `BENCH_dse.json` payload for this run.
    pub fn render_json(&self) -> String {
        self.report.render_json(self.wall_secs, self.cache_hits, self.total_jobs)
    }
}

/// The executor for in-process sweeps: every spec becomes a [`RunSpec`] on
/// `runner`, so it is cached, keyed and manifested like any other harness
/// job.
pub fn on_runner(
    runner: &Runner,
) -> impl FnOnce(&[DseConfig], &[DseSpec]) -> Vec<(Option<RunReport>, bool)> + '_ {
    |_, specs| {
        let specs = specs
            .iter()
            .map(|s| RunSpec::new(s.app, s.kind, s.pages, s.cfg.clone()).with_mode(s.mode))
            .collect();
        runner.run_outcomes(specs).into_iter().map(|o| (o.result.ok(), o.cache_hit)).collect()
    }
}

/// Runs the design-space sweep: the whole grid once on the `mode` tier,
/// then the exhaustive Pareto front over every complete point.
///
/// `exec` runs the grid: given its configs and their expansion (each
/// spec's `config_index` points into the configs), it returns one
/// `(report, cache_hit)` per spec, in order, with `None` for a failed run.
pub fn run(
    exec: impl FnOnce(&[DseConfig], &[DseSpec]) -> Vec<(Option<RunReport>, bool)>,
    quick: bool,
    mode: ExecMode,
) -> DseRun {
    let start = std::time::Instant::now();
    let grid = Grid::for_quick(quick);
    let configs = grid.configs();
    let results = exec(&configs, &expand(&configs, mode));
    let cache_hits = results.iter().filter(|(_, hit)| *hit).count();
    let total_jobs = results.len();
    let mut collector = Collector::new(configs);
    for (i, (report, _)) in results.into_iter().enumerate() {
        collector.push(i, report);
    }
    let (points, incomplete) = collector.finish();
    let front_rows: Vec<FrontRow> = front(&pareto_points(&points), &OBJECTIVES)
        .into_iter()
        .map(|pos| {
            let (config_id, point) = &points[pos];
            FrontRow {
                config_id: *config_id,
                speedup: point.speedup(),
                le_mhz: point.config.le_mhz(),
                area_bytes: point.config.area_bytes(),
                config: point.config.clone(),
                tier: mode.name(),
            }
        })
        .collect();

    DseRun {
        report: DseReport {
            quick,
            mode: mode.name(),
            grid: grid.describe(),
            config_count: grid.config_count(),
            run_count: grid.run_count(),
            points: points.len(),
            incomplete,
            dominated: points.len() - front_rows.len(),
            front: front_rows,
        },
        cache_hits,
        total_jobs,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_engine::Engine;

    fn test_runner() -> Runner {
        Runner::with_engine(Engine::new().with_workers(2).without_cache())
    }

    /// The quick grid on the fast tier end to end: cheap enough for the
    /// unit suite, and it exercises the whole submit/collect/front path.
    #[test]
    fn fast_tier_sweep_produces_a_front() {
        let runner = test_runner();
        let run = run(on_runner(&runner), true, ExecMode::Fast);
        let r = &run.report;
        assert_eq!(r.mode, "fast");
        assert_eq!(r.points, Grid::quick().config_count());
        assert_eq!(r.incomplete, 0);
        assert!(!r.front.is_empty(), "a complete sweep always has a front");
        assert!(r.front.iter().all(|row| row.tier == "fast"));
        assert!(r.front.windows(2).all(|w| w[0].config_id < w[1].config_id));
        assert_eq!(run.total_jobs, Grid::quick().run_count());
        let json = run.render_json();
        assert!(json.contains("\"schema\": 1"), "{json}");
    }

    /// The default sweep's quick front, pinned byte for byte.
    #[test]
    fn quick_accurate_front_is_pinned() {
        let runner = test_runner();
        let run = run(on_runner(&runner), true, ExecMode::Accurate);
        assert_eq!(run.report.front_json(), QUICK_ACCURATE_FRONT);
    }

    const QUICK_ACCURATE_FRONT: &str = r#"{
  "schema": 1,
  "quick": true,
  "mode": "accurate",
  "config_count": 48,
  "dominated": 44,
  "front": [
    {"config_id": 24, "app": "median", "pages": 2, "l1d_size": 16384, "l1d_assoc": 1, "l1d_block": 32, "logic_divisor": 2, "speedup": 25.6986, "le_mhz": 128000.0, "area_bytes": 1282048, "tier": "accurate"},
    {"config_id": 25, "app": "median", "pages": 2, "l1d_size": 16384, "l1d_assoc": 1, "l1d_block": 32, "logic_divisor": 10, "speedup": 5.1482, "le_mhz": 25600.0, "area_bytes": 1282048, "tier": "accurate"},
    {"config_id": 26, "app": "median", "pages": 2, "l1d_size": 16384, "l1d_assoc": 2, "l1d_block": 32, "logic_divisor": 2, "speedup": 25.6986, "le_mhz": 128000.0, "area_bytes": 1282048, "tier": "accurate"},
    {"config_id": 27, "app": "median", "pages": 2, "l1d_size": 16384, "l1d_assoc": 2, "l1d_block": 32, "logic_divisor": 10, "speedup": 5.1482, "le_mhz": 25600.0, "area_bytes": 1282048, "tier": "accurate"}
  ]
}
"#;
}
