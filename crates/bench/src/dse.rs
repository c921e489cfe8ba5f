//! Drives the `ap-dse` design-space sweep (DESIGN.md §15). [`run`] is the
//! one pipeline; its clients differ only in the tier executor they pass:
//! `experiments dse` runs each tier on the engine-backed [`Runner`]
//! ([`on_runner`]), `apctl dse` submits it to an `apd` daemon.
//!
//! The default pipeline is two-tier: the whole grid is triaged on the fast
//! tier, the successive-halving refiner keeps the Pareto front plus its
//! nearest dominance layers, and only those survivors are re-run on the
//! cycle-accurate oracle. Every promoted point is cross-checked between
//! tiers — functional identity is mandatory ([`check_pair`] panics on a
//! checksum divergence) and the cycle error is scored against
//! [`CYCLE_ERROR_ENVELOPE`]. Single-tier sweeps (`--mode fast` /
//! `--mode accurate`) skip promotion and report the triage front directly.

use crate::cli::ModeChoice;
use crate::fastmode::{check_pair, CYCLE_ERROR_ENVELOPE};
use crate::runner::{RunSpec, Runner};
use ap_apps::{ExecMode, RunReport};
use ap_dse::collect::{pareto_points, Collector, ConfigPoint};
use ap_dse::grid::{expand, DseConfig, DseSpec, Grid};
use ap_dse::pareto::{front, successive_halving, OBJECTIVES};
use ap_dse::report::{DseReport, FrontRow};

/// Outcome of one design-space sweep: the analytical report plus the
/// engine telemetry the full `BENCH_dse.json` payload carries.
#[derive(Debug)]
pub struct DseRun {
    /// The analytical report (front, rungs, promoted error).
    pub report: DseReport,
    /// Jobs served from the disk cache.
    pub cache_hits: usize,
    /// Jobs submitted in total, both tiers.
    pub total_jobs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
}

impl DseRun {
    /// The full `BENCH_dse.json` payload for this run.
    pub fn render_json(&self) -> String {
        self.report.render_json(
            self.wall_secs,
            self.cache_hits,
            self.total_jobs,
            CYCLE_ERROR_ENVELOPE,
        )
    }
}

/// The tier executor for in-process sweeps: every spec becomes a
/// [`RunSpec`] on `runner`, so it is cached, keyed and manifested like any
/// other harness job.
pub fn on_runner(
    runner: &Runner,
) -> impl FnMut(&[DseConfig], &[DseSpec]) -> Vec<(Option<RunReport>, bool)> + '_ {
    |_, specs| {
        let specs = specs
            .iter()
            .map(|s| RunSpec::new(s.app, s.kind, s.pages, s.cfg.clone()).with_mode(s.mode))
            .collect();
        runner.run_outcomes(specs).into_iter().map(|o| (o.result.ok(), o.cache_hit)).collect()
    }
}

/// Runs one tier of `configs` through `exec` and folds the outcomes,
/// updating the cache-hit / job counters.
fn sweep_tier(
    exec: &mut impl FnMut(&[DseConfig], &[DseSpec]) -> Vec<(Option<RunReport>, bool)>,
    configs: &[DseConfig],
    mode: ExecMode,
    cache_hits: &mut usize,
    total_jobs: &mut usize,
) -> (Vec<(usize, ConfigPoint)>, usize) {
    let results = exec(configs, &expand(configs, mode));
    *cache_hits += results.iter().filter(|(_, hit)| *hit).count();
    *total_jobs += results.len();
    let mut collector = Collector::new(configs.to_vec());
    for (i, (report, _)) in results.into_iter().enumerate() {
        collector.push(i, report);
    }
    collector.finish()
}

fn front_row(config_id: usize, point: &ConfigPoint, tier: &'static str) -> FrontRow {
    FrontRow {
        config_id,
        speedup: point.speedup(),
        le_mhz: point.config.le_mhz(),
        area_bytes: point.config.area_bytes(),
        config: point.config.clone(),
        tier,
    }
}

/// Runs the design-space sweep. `mode` follows the CLI convention: `None`
/// or `--mode both` runs the full triage-and-promote pipeline, `--mode
/// fast` / `--mode accurate` sweep one tier and skip promotion.
///
/// `exec` runs one tier: given the tier's configs and their expansion
/// (each spec's `config_index` points into the configs), it returns one
/// `(report, cache_hit)` per spec, in order, with `None` for a failed run.
///
/// # Panics
///
/// Panics if a promoted point's checksum differs between tiers (the fast
/// tier may approximate time, never answers).
pub fn run(
    mut exec: impl FnMut(&[DseConfig], &[DseSpec]) -> Vec<(Option<RunReport>, bool)>,
    quick: bool,
    mode: Option<ModeChoice>,
) -> DseRun {
    let start = std::time::Instant::now();
    let grid = Grid::for_quick(quick);
    let configs = grid.configs();
    let (mode_str, triage_mode, promote) = match mode {
        None | Some(ModeChoice::Both) => ("both", ExecMode::Fast, true),
        Some(ModeChoice::One(ExecMode::Fast)) => ("fast", ExecMode::Fast, false),
        Some(ModeChoice::One(ExecMode::Accurate)) => ("accurate", ExecMode::Accurate, false),
    };

    let (mut cache_hits, mut total_jobs) = (0, 0);
    let (points, mut incomplete) =
        sweep_tier(&mut exec, &configs, triage_mode, &mut cache_hits, &mut total_jobs);
    let pareto = pareto_points(&points);
    let triage_front = front(&pareto, &OBJECTIVES);
    let dominated = points.len() - triage_front.len();

    let (front_rows, rungs, promoted, max_err) = if promote {
        let halving = successive_halving(&pareto, &OBJECTIVES, grid.promote_budget());
        // Halving ids are positions into `points`; map them back to configs.
        let promoted_cfgs: Vec<DseConfig> =
            halving.survivors.iter().map(|&pos| points[pos].1.config.clone()).collect();
        let (acc_points, acc_incomplete) = sweep_tier(
            &mut exec,
            &promoted_cfgs,
            ExecMode::Accurate,
            &mut cache_hits,
            &mut total_jobs,
        );
        incomplete += acc_incomplete;

        // Cross-check every promoted point between tiers: identical answers,
        // bounded cycle error (both systems).
        let mut max_err = 0.0f64;
        for (k, acc) in &acc_points {
            let fast = &points[halving.survivors[*k]].1;
            let conv =
                check_pair(acc.config.app, acc.config.pages, &acc.conventional, &fast.conventional);
            let rad = check_pair(acc.config.app, acc.config.pages, &acc.radram, &fast.radram);
            max_err = max_err.max(conv.relative_error().abs()).max(rad.relative_error().abs());
        }

        // The final front comes from accurate data over the survivors.
        let acc_pareto = pareto_points(&acc_points);
        let rows: Vec<FrontRow> = front(&acc_pareto, &OBJECTIVES)
            .into_iter()
            .map(|pos| {
                let (k, point) = &acc_points[pos];
                front_row(points[halving.survivors[*k]].0, point, "accurate")
            })
            .collect();
        (rows, halving.rungs, acc_points.len(), max_err)
    } else {
        let tier = if triage_mode == ExecMode::Fast { "fast" } else { "accurate" };
        let rows: Vec<FrontRow> = triage_front
            .iter()
            .map(|&pos| front_row(points[pos].0, &points[pos].1, tier))
            .collect();
        (rows, vec![points.len()], 0, 0.0)
    };

    DseRun {
        report: DseReport {
            quick,
            mode: mode_str,
            grid: grid.describe(),
            config_count: grid.config_count(),
            run_count: grid.run_count(),
            triage_points: points.len(),
            incomplete,
            rungs,
            promoted,
            dominated,
            max_promoted_error: max_err,
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

    /// One tiny single-tier sweep end to end: a 1x1x1x1x1 grid would need a
    /// custom Grid, so this uses the quick grid on the fast tier only —
    /// cheap enough for the unit suite and it exercises the whole
    /// submit/collect/front path.
    #[test]
    fn fast_tier_sweep_produces_a_front() {
        let runner = test_runner();
        let run = run(on_runner(&runner), true, Some(ModeChoice::One(ExecMode::Fast)));
        let r = &run.report;
        assert_eq!(r.mode, "fast");
        assert_eq!(r.triage_points, Grid::quick().config_count());
        assert_eq!(r.incomplete, 0);
        assert!(!r.front.is_empty(), "a complete sweep always has a front");
        assert_eq!(r.promoted, 0, "single-tier sweeps skip promotion");
        assert!(r.front.iter().all(|row| row.tier == "fast"));
        assert!(r.front.windows(2).all(|w| w[0].config_id < w[1].config_id));
        assert_eq!(run.total_jobs, Grid::quick().run_count());
        let json = run.render_json();
        assert!(json.contains("\"schema\": 1"), "{json}");
    }
}
