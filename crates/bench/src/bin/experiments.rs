//! Runs every experiment and writes CSV results.
//!
//! Usage: `experiments [TARGET] [--jobs N] [--no-cache] [--manifest PATH]
//! [--trace[=DIR]] [--trace-filter LIST]` (default target `all`).
//! Simulation points run in parallel on the `ap-engine` worker pool with
//! disk-cached results; set `AP_QUICK=1` for reduced sweeps. `--trace`
//! exports a Chrome-trace timeline per fresh job (summarize with
//! `aptrace`). Unknown targets or options print the usage and exit
//! non-zero.

use ap_bench::{cli, experiments, render, write_result_file};
use std::path::Path;

fn main() {
    let cli = match cli::parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{}", cli::usage());
            std::process::exit(if msg == "help" { 0 } else { 2 });
        }
    };
    let quick = cli.is_quick();

    if cli.bench_wallclock {
        println!("Host-timing benches: page scaling, fast mode, batch scaling");
        let benches = ap_bench::hostbench::run(quick, cli.pages, cli.threads);
        for bench in &benches {
            print!("{}", bench.render());
        }
        for path in ap_bench::hostbench::write(&benches) {
            report_written(path);
        }
        return;
    }

    // Fresh manifest per invocation: the file describes this run only.
    let manifest_path = cli.manifest_path();
    if let Some(parent) = manifest_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(&manifest_path, "");
    let runner = cli.runner();

    if cli.wants("table1") {
        render::print_table1(&experiments::table1());
        println!();
    }
    if cli.wants("table2") {
        render::print_table2();
        println!();
    }
    if cli.wants("table3") {
        render::print_table3(&experiments::table3());
        println!();
        println!("Extension circuits (Section 10; not part of the paper's Table 3):");
        for r in ap_synth::report::extensions() {
            println!(
                "{:<16} {:>4} LEs  {:>5.1} ns  {:>5.1} KB config",
                r.name,
                r.les,
                r.speed_ns,
                r.code_bytes as f64 / 1024.0
            );
        }
        println!();
    }
    if cli.wants("fig1") {
        render::print_fig1(&experiments::fig1());
        println!();
    }
    if cli.wants("fig3") || cli.wants("fig4") {
        let (mode, cross) = cli.mode_or(ap_bench::ExecMode::Accurate);
        let data = experiments::fig3_fig4(&runner, quick, mode);
        println!("Figure 3: RADram speedup as problem size varies ({mode} tier)");
        for (app, points) in &data {
            render::print_sweep(*app, points);
        }
        println!();
        println!("Figure 4: percent cycles the processor is stalled on RADram");
        for (app, points) in &data {
            print!("{:<15}", app.name());
            for p in points {
                print!(" {:>6.2}:{:>5.1}%", p.pages, p.non_overlap_percent());
            }
            println!();
        }
        report_written(write_result_file("fig3_fig4.csv", &render::sweep_csv(&data)));
        if cross {
            let accurate = experiments::fig3_fig4(&runner, quick, ap_bench::ExecMode::Accurate);
            let checks = ap_bench::fastmode::cross_check(&accurate, &data);
            let max = ap_bench::fastmode::max_error(&checks);
            let breaches = ap_bench::fastmode::envelope_breaches(&checks);
            println!(
                "cross-check: {} runs, max cycle error {:.3} (envelope {})",
                checks.len(),
                max,
                ap_bench::fastmode::CYCLE_ERROR_ENVELOPE
            );
            if !breaches.is_empty() {
                for b in &breaches {
                    eprintln!(
                        "error: {} {} at {} pages: cycle error {:+.3} exceeds the envelope",
                        b.app.name(),
                        b.kind,
                        b.pages,
                        b.relative_error()
                    );
                }
                std::process::exit(1);
            }
        }
        println!();
    }
    if cli.wants("dse") {
        let run = ap_bench::dse::run(&runner, quick, cli.mode);
        let r = &run.report;
        println!("Design-space sweep ({}, {} mode)", r.grid, r.mode);
        print!("{}", r.table());
        println!(
            "sweep: {:.1}s wall, {} jobs ({} cached), rungs {:?}",
            run.wall_secs, run.total_jobs, run.cache_hits, r.rungs
        );
        if r.promoted > 0 {
            println!(
                "cross-check: {} promoted points, max cycle error {:.3} (envelope {})",
                r.promoted,
                r.max_promoted_error,
                ap_bench::fastmode::CYCLE_ERROR_ENVELOPE
            );
        }
        report_written(write_result_file("BENCH_dse.json", &run.render_json()));
        report_written(write_result_file("BENCH_dse_front.json", &r.front_json()));
        if r.front.is_empty() {
            eprintln!("error: the sweep produced an empty Pareto front");
            std::process::exit(1);
        }
        if r.max_promoted_error > ap_bench::fastmode::CYCLE_ERROR_ENVELOPE {
            eprintln!(
                "error: promoted-point cycle error {:.3} exceeds the envelope",
                r.max_promoted_error
            );
            std::process::exit(1);
        }
        println!();
    }
    if cli.wants("fig5") {
        let rows = experiments::fig5(&runner, quick);
        render::print_fig5(&rows);
        report_written(write_result_file("fig5.csv", &render::fig5_csv(&rows)));
        let l2 = experiments::fig5_l2(&runner, quick);
        println!("Companion sweep: execution time vs. L2 size (KB)");
        render::print_fig5(&l2);
        report_written(write_result_file("fig5_l2.csv", &render::fig5_csv(&l2)));
        println!();
    }
    if cli.wants("fig8") {
        let rows = experiments::fig8(&runner, quick);
        render::print_sensitivity("Figure 8: speedup vs. cache-miss latency", "ns", &rows);
        report_written(write_result_file(
            "fig8.csv",
            &render::sensitivity_csv("latency_ns", &rows),
        ));
        println!();
    }
    if cli.wants("fig9") {
        let rows = experiments::fig9(&runner, quick);
        render::print_sensitivity("Figure 9: speedup vs. logic-clock divisor", "div", &rows);
        report_written(write_result_file("fig9.csv", &render::sensitivity_csv("divisor", &rows)));
        println!();
    }
    if cli.wants("table4") {
        let rows = experiments::table4(&runner, quick);
        render::print_table4(&rows);
        report_written(write_result_file("table4.csv", &render::table4_csv(&rows)));
        println!();
        let c = experiments::amdahl_check(8.0);
        println!("Amdahl whole-application check (median, 8 pages):");
        println!(
            "  partitioned fraction {:.3}, kernel speedup {:.2}x -> predicted overall {:.2}x, \
             measured {:.2}x",
            c.fraction_partitioned, c.kernel_speedup, c.predicted_overall, c.measured_overall
        );
        println!();
    }
    if cli.wants("database-xl") {
        use ap_apps::{database::xl, App, SystemKind};
        use ap_bench::runner::RunSpec;
        let (mode, _) = cli.mode_or(ap_bench::ExecMode::Accurate);
        let pages = if quick { 64.0 } else { 2048.0 };
        let cfg = radram::RadramConfig::reference();
        let specs = vec![
            RunSpec::new(App::DatabaseXl, SystemKind::Conventional, pages, cfg.clone())
                .with_mode(mode),
            RunSpec::new(App::DatabaseXl, SystemKind::Radram, pages, cfg).with_mode(mode),
        ];
        let mut results = runner.run(specs).into_iter();
        let conv = results.next().unwrap().expect("conventional database-xl run failed");
        let rad = results.next().unwrap().expect("radram database-xl run failed");
        println!(
            "database-xl ({mode} tier): {} pages, {} records resident",
            conv.pages,
            conv.pages as usize * xl::RECORDS_PER_PAGE
        );
        println!(
            "  conventional {:>14} cycles   radram {:>14} cycles   speedup {:>6.2}x   \
             activations {}",
            conv.kernel_cycles,
            rad.kernel_cycles,
            ap_apps::speedup(&conv, &rad),
            rad.stats.activations
        );
        println!();
    }

    if let Ok(summary) = ap_engine::manifest::summarize(&manifest_path) {
        if summary.total > 0 {
            println!(
                "engine: {} jobs ({} cached, {} computed, {} failed) on {} workers; \
                 manifest: {}",
                summary.total,
                summary.cache_hits,
                summary.cache_misses - summary.panicked - summary.timed_out,
                summary.panicked + summary.timed_out,
                runner.engine().workers(),
                manifest_path.display()
            );
            if let Some(dir) = cli.trace_dir() {
                println!(
                    "traces: {} job timeline(s) under {} (summarize with `aptrace <file>`)",
                    summary.traced,
                    dir.display()
                );
            }
        }
    }
}

fn report_written(path: Option<std::path::PathBuf>) {
    if let Some(path) = path {
        println!("wrote {}", display_compact(&path));
    }
}

/// Shortens `.../crates/bench/../../results/x.csv` style paths for display.
fn display_compact(path: &Path) -> String {
    match path.canonicalize() {
        Ok(p) => p.display().to_string(),
        Err(_) => path.display().to_string(),
    }
}
