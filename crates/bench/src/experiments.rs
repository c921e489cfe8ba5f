//! Generators for every table and figure of the evaluation.

use crate::runner::{RunSpec, Runner};
use crate::sweep::{run_pair, run_sweeps, SweepPoint};
use ap_analytic::{calibrate, pearson, Calibration, Fig1Point};
use ap_apps::{speedup, App, ExecMode, SystemKind};
use ap_synth::report::Table3Row;
use radram::RadramConfig;

/// Problem size (pages) used by the fixed-size sensitivity studies
/// (Figures 5, 8 and 9).
pub const SENSITIVITY_PAGES: f64 = 8.0;

/// Figure 1: the idealized scaling-region curve, derived from the database
/// kernel's calibrated constants.
pub fn fig1(runner: &Runner) -> Vec<Fig1Point> {
    let p = run_pair(runner, App::Database, 4.0, &RadramConfig::reference(), ExecMode::Accurate);
    let cal = calibrate(&p.radram);
    let conv_per_page = p.conventional.kernel_cycles as f64 / 4.0;
    let sizes = [1, 2, 4, 8, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20];
    ap_analytic::fig1_series(&cal.model(), conv_per_page, &sizes)
}

/// Table 1: the RADram reference parameters and their studied variations.
pub fn table1() -> Vec<(&'static str, String, &'static str)> {
    let cfg = RadramConfig::reference();
    vec![
        ("CPU Clock", "1 GHz".to_string(), "—"),
        ("L1 I-Cache", format!("{}K", cfg.cpu.hierarchy.l1i.size / 1024), "—"),
        ("L1 D-Cache", format!("{}K", cfg.cpu.hierarchy.l1d.size / 1024), "32K-256K"),
        ("L2 Cache", format!("{}M", cfg.cpu.hierarchy.l2.size / (1024 * 1024)), "256K-4M"),
        ("Reconf Logic", format!("{:.0} MHz", cfg.logic_mhz()), "10-500 MHz"),
        ("Cache Miss", format!("{} ns", cfg.cpu.hierarchy.dram.latency), "0-600 ns"),
    ]
}

/// Table 3: synthesized circuits (LEs, clock, configuration size).
pub fn table3() -> Vec<Table3Row> {
    ap_synth::report::table3()
}

/// Figures 3 and 4: the speedup and non-overlap sweeps for every kernel,
/// submitted to the engine as one batch on the chosen execution tier
/// (`--mode fast` trades exact cycle counts for wall-clock; see DESIGN.md
/// §13).
pub fn fig3_fig4(runner: &Runner, quick: bool, mode: ExecMode) -> Vec<(App, Vec<SweepPoint>)> {
    run_sweeps(runner, &App::ALL, &RadramConfig::reference(), quick, mode)
}

/// One Figure 5 series: execution time vs. L1 data-cache size.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Series label ("database-conv", "median-total-radram", ...).
    pub label: String,
    /// `(L1D KB, kernel or total cycles)` points.
    pub points: Vec<(usize, u64)>,
}

/// Figure 5: conventional and RADram execution time as the L1 data cache
/// varies from 32 KB to 256 KB (plus the paper's `median-total` series).
pub fn fig5(runner: &Runner, quick: bool) -> Vec<Fig5Row> {
    let sizes = if quick { vec![32, 256] } else { vec![32, 64, 128, 256] };
    cache_sweep(runner, quick, &sizes, "", |kb| RadramConfig::reference().with_l1d_size(kb * 1024))
}

/// The companion L2 sweep (256 KB–4 MB) the paper reports alongside
/// Figure 5 ("throughout this range no significant performance differences
/// occurred").
pub fn fig5_l2(runner: &Runner, quick: bool) -> Vec<Fig5Row> {
    let sizes = if quick { vec![256, 4096] } else { vec![256, 512, 1024, 2048, 4096] };
    cache_sweep(runner, quick, &sizes, "-l2", |kb| {
        RadramConfig::reference().with_l2_size(kb * 1024)
    })
}

fn cache_sweep(
    runner: &Runner,
    quick: bool,
    sizes_kb: &[usize],
    label_suffix: &str,
    cfg_of: impl Fn(usize) -> RadramConfig,
) -> Vec<Fig5Row> {
    let apps = if quick { vec![App::Database, App::Median] } else { App::ALL.to_vec() };
    let mut specs = Vec::new();
    for kind in [SystemKind::Conventional, SystemKind::Radram] {
        for &app in &apps {
            for &kb in sizes_kb {
                specs.push(RunSpec::new(app, kind, SENSITIVITY_PAGES, cfg_of(kb)));
            }
        }
    }
    let mut results = runner.run(specs).into_iter();

    let mut rows = Vec::new();
    for kind in [SystemKind::Conventional, SystemKind::Radram] {
        for &app in &apps {
            let mut points = Vec::new();
            let mut total_points = Vec::new();
            for &kb in sizes_kb {
                match results.next().expect("result per spec") {
                    Ok(r) => {
                        points.push((kb, r.kernel_cycles));
                        if app == App::Median {
                            total_points.push((kb, r.total_cycles));
                        }
                    }
                    Err(e) => eprintln!("warning: dropping {} {kind} at {kb} KB: {e}", app.name()),
                }
            }
            let suffix = match kind {
                SystemKind::Conventional => "conv",
                SystemKind::Radram => "radram",
            };
            rows.push(Fig5Row {
                label: format!("{}{}-{}", app.name(), label_suffix, suffix),
                points,
            });
            if app == App::Median {
                rows.push(Fig5Row {
                    label: format!("median-total{label_suffix}-{suffix}"),
                    points: total_points,
                });
            }
        }
    }
    rows
}

/// One sensitivity series: speedup per parameter value.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Kernel name.
    pub app: App,
    /// `(parameter value, speedup)` points.
    pub points: Vec<(u64, f64)>,
}

/// Figure 8: speedup as the cache-miss (DRAM) latency varies 0–600 ns.
pub fn fig8(runner: &Runner, quick: bool) -> Vec<SensitivityRow> {
    let latencies: Vec<u64> = if quick { vec![0, 600] } else { vec![0, 50, 100, 200, 400, 600] };
    sensitivity_sweep(runner, quick, &latencies, |ns| {
        RadramConfig::reference().with_miss_latency(ns)
    })
}

/// Figure 9: speedup as the reconfigurable-logic clock divisor varies
/// (2 = 500 MHz ... 100 = 10 MHz).
pub fn fig9(runner: &Runner, quick: bool) -> Vec<SensitivityRow> {
    let divisors: Vec<u64> = if quick { vec![2, 100] } else { vec![2, 5, 10, 20, 50, 100] };
    sensitivity_sweep(runner, quick, &divisors, |d| RadramConfig::reference().with_logic_divisor(d))
}

/// Shared Figure 8/9 machinery: for each app and parameter value, run both
/// systems through the engine and report the speedup. Points with a failed
/// half are dropped with a warning.
fn sensitivity_sweep(
    runner: &Runner,
    quick: bool,
    values: &[u64],
    cfg_of: impl Fn(u64) -> RadramConfig,
) -> Vec<SensitivityRow> {
    let apps = if quick { vec![App::Database, App::MatrixSimplex] } else { App::ALL.to_vec() };
    let mut specs = Vec::new();
    for &app in &apps {
        for &v in values {
            let cfg = cfg_of(v);
            specs.push(RunSpec::new(app, SystemKind::Conventional, SENSITIVITY_PAGES, cfg.clone()));
            specs.push(RunSpec::new(app, SystemKind::Radram, SENSITIVITY_PAGES, cfg));
        }
    }
    let mut results = runner.run(specs).into_iter();
    apps.into_iter()
        .map(|app| {
            let points = values
                .iter()
                .filter_map(|&v| {
                    let conv = results.next().expect("result per spec");
                    let rad = results.next().expect("result per spec");
                    match (conv, rad) {
                        (Ok(c), Ok(r)) => Some((v, speedup(&c, &r))),
                        (c, r) => {
                            for half in [c, r] {
                                if let Err(e) = half {
                                    eprintln!(
                                        "warning: dropping {} at parameter {v}: {e}",
                                        app.name()
                                    );
                                }
                            }
                            None
                        }
                    }
                })
                .collect();
            SensitivityRow { app, points }
        })
        .collect()
}

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Kernel name.
    pub app: App,
    /// Calibrated per-activation constants.
    pub cal: Calibration,
    /// Activations needed for complete processor-memory overlap under the
    /// constant-parameter model.
    pub pages_for_overlap: usize,
    /// Pearson correlation of model-predicted vs. measured speedups over the
    /// Figure 3 sweep.
    pub correlation: f64,
}

/// The calibration size (pages) used for Table 4.
pub const CALIBRATION_PAGES: f64 = 8.0;

/// Table 4: activation/post/compute times, overlap threshold and analytic
/// model correlation for every kernel.
pub fn table4(runner: &Runner, quick: bool) -> Vec<Table4Row> {
    let cfg = RadramConfig::reference();
    // Table 4 lists the same eight kernels as the paper (dynamic-prog is
    // absent there too: its activation times are inherently data-dependent
    // through the wavefront, violating the constant-parameter assumption).
    let apps: Vec<App> = App::ALL.into_iter().filter(|app| *app != App::DynProg).collect();

    // First engine batch: one RADram calibration run per kernel. Running it
    // before the sweeps also warms the cache for the sweeps' 8-page points.
    let cal_specs = apps
        .iter()
        .map(|&app| RunSpec::new(app, SystemKind::Radram, CALIBRATION_PAGES, cfg.clone()))
        .collect();
    let calibrations = runner.run(cal_specs);
    // Second batch: the full Figure 3 sweeps the correlation is scored on.
    let sweeps = run_sweeps(runner, &apps, &cfg, quick, ExecMode::Accurate);

    apps.into_iter()
        .zip(calibrations)
        .zip(sweeps)
        .filter_map(|((app, rad), (_, sweep))| {
            let rad = match rad {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("warning: dropping Table 4 row {}: {e}", app.name());
                    return None;
                }
            };
            let cal = calibrate(&rad);
            let model = cal.model();
            let mut measured = Vec::new();
            let mut predicted = Vec::new();
            for pt in &sweep {
                // Scale activations with problem size from the calibration
                // point (activations per page is app-specific but constant).
                let acts_per_page = cal.activations as f64 / CALIBRATION_PAGES;
                let k = ((pt.pages * acts_per_page).round() as usize).max(1);
                measured.push(pt.speedup());
                predicted.push(model.predicted_speedup(k, pt.conventional.kernel_cycles as f64));
            }
            Some(Table4Row {
                app,
                cal,
                pages_for_overlap: model.pages_for_overlap(1 << 26),
                correlation: pearson(&measured, &predicted),
            })
        })
        .collect()
}

/// Whole-application Amdahl validation (Figure 7's `Speedup_overall`),
/// using the median application's two phases: the layout/I-O phase is the
/// un-partitioned fraction, the filter kernel is the partitioned one.
#[derive(Debug, Clone, Copy)]
pub struct AmdahlCheck {
    /// Fraction of the conventional run spent in the partitioned kernel.
    pub fraction_partitioned: f64,
    /// Measured kernel speedup.
    pub kernel_speedup: f64,
    /// `Speedup_overall` predicted by Figure 7's formula.
    pub predicted_overall: f64,
    /// Measured whole-application speedup (total cycles ratio).
    pub measured_overall: f64,
}

/// Measures the Amdahl bound at `pages` problem size.
pub fn amdahl_check(runner: &Runner, pages: f64) -> AmdahlCheck {
    let p = run_pair(runner, App::Median, pages, &RadramConfig::reference(), ExecMode::Accurate);
    let (conv, rad) = (&p.conventional, &p.radram);
    let fraction = conv.kernel_cycles as f64 / conv.total_cycles as f64;
    let kernel_speedup = p.speedup();
    AmdahlCheck {
        fraction_partitioned: fraction,
        kernel_speedup,
        predicted_overall: ap_analytic::amdahl(fraction, kernel_speedup),
        measured_overall: conv.total_cycles as f64 / rad.total_cycles as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_reference() {
        let t = table1();
        assert_eq!(t.len(), 6);
        assert_eq!(t[5].1, "50 ns");
    }

    fn test_runner() -> Runner {
        Runner::with_engine(ap_engine::Engine::new().with_workers(2).without_cache())
    }

    #[test]
    fn amdahl_formula_predicts_whole_application_speedup() {
        let c = amdahl_check(&test_runner(), 4.0);
        assert!(c.fraction_partitioned > 0.5 && c.fraction_partitioned < 1.0);
        assert!(c.kernel_speedup > c.measured_overall, "the un-partitioned phase must drag");
        let err = (c.predicted_overall - c.measured_overall).abs() / c.measured_overall;
        assert!(err < 0.2, "Amdahl prediction off by {:.0}%", err * 100.0);
    }

    #[test]
    fn fig1_has_all_three_regions() {
        let pts = fig1(&test_runner());
        let regions: Vec<&str> = pts.iter().map(|p| p.region).collect();
        assert!(regions.contains(&"sub-page"));
        assert!(regions.contains(&"scalable"));
        assert!(regions.contains(&"saturated"));
    }
}
