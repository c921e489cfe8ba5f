//! Cross-check: the traced `T_A`/`T_P`/`T_C` phase totals recovered from
//! the event stream must agree with `ap_analytic::calibrate`'s
//! counter-derived decomposition within 5% on Figure 3 array-sweep points.
//!
//! Agreement is the point of the whole tracing exercise: it shows the
//! aggregate counters the analytic model is calibrated from really do
//! decompose the simulated timeline the way Section 7.4 assumes — dispatch
//! spans sum to the activation cycles, page-logic spans to the compute
//! cycles, and the kernel envelope minus stalls and dispatch to the
//! processor cycles.

use ap_analytic::calibrate;
use ap_apps::{App, SystemKind};
use ap_bench::runner::RunSpec;
use ap_trace::phases::PhaseTotals;
use ap_trace::session::{begin, finish, SessionConfig};
use ap_trace::{chrome, Filter};
use radram::RadramConfig;

/// Relative agreement within `tol` (absolute agreement for tiny values,
/// where the relative error is dominated by integer cycle granularity).
fn close(traced: f64, analytic: f64, tol: f64) -> bool {
    let scale = analytic.abs().max(1.0);
    (traced - analytic).abs() / scale <= tol
}

#[test]
fn traced_phases_match_analytic_calibration_on_fig3_array_points() {
    let cfg = RadramConfig::reference();
    for app in [App::ArrayInsert, App::ArrayDelete, App::ArrayFind] {
        for pages in [1.0, 4.0] {
            begin(SessionConfig::filtered(Filter::ALL));
            let spec = RunSpec::new(app, SystemKind::Radram, pages, cfg.clone());
            let report = spec.execute();
            let trace = finish().expect("session active");

            let cal = calibrate(&report);
            let traced = PhaseTotals::of_trace(&trace);
            let label = format!("{} p={pages}", app.name());

            assert_eq!(
                traced.activations, cal.activations,
                "{label}: traced activation count diverges"
            );
            assert!(
                close(traced.t_a(), cal.t_a, 0.05),
                "{label}: T_A traced {} vs analytic {}",
                traced.t_a(),
                cal.t_a
            );
            assert!(
                close(traced.t_c(), cal.t_c, 0.05),
                "{label}: T_C traced {} vs analytic {}",
                traced.t_c(),
                cal.t_c
            );
            assert!(
                close(traced.t_p(), cal.t_p, 0.05),
                "{label}: T_P traced {} vs analytic {}",
                traced.t_p(),
                cal.t_p
            );

            // The same totals must survive the Chrome JSON round trip
            // (what `aptrace` computes from an exported file).
            let parsed = chrome::parse(&chrome::export(&trace, &spec.key())).expect("round trip");
            assert_eq!(PhaseTotals::of_chrome(&parsed), traced, "{label}: chrome totals diverge");

            // The session also carries the end-of-run aggregate counters.
            let kernel = trace
                .counters
                .iter()
                .find(|c| c.name == "kernel.cycles")
                .expect("kernel.cycles counter recorded");
            assert_eq!(kernel.value(), report.kernel_cycles);
        }
    }
}

#[test]
fn tracing_does_not_change_simulated_cycles() {
    // Bit-identical reproduction with the tracer off and on:
    // instrumentation must only observe.
    let cfg = RadramConfig::reference();
    let spec = RunSpec::new(App::Database, SystemKind::Radram, 2.0, cfg);

    let untraced = spec.execute();

    begin(SessionConfig::filtered(Filter::ALL));
    let traced = spec.execute();
    let trace = finish().unwrap();

    assert_eq!(untraced, traced, "tracing perturbed the simulation");
    assert!(trace.all_events().count() > 0, "traced run collected no events");
}
