//! `apctl`: the command-line client for a running `apd` daemon.
//!
//! `point` prints the *encoded* report (the cache codec's `key=value`
//! text), and `point --local` prints the same for an in-process run —
//! `diff`ing the two is the byte-for-byte equivalence check the CI smoke
//! test performs.

use ap_apd::client::{http_get, Client};
use ap_apd::proto::{Outcome, WireSpec};
use ap_apps::{App, ExecMode, SystemKind};
use ap_bench::dse;
use ap_bench::runner::{report_codec, RunSpec};
use ap_bench::sweep::sweep_specs;
use ap_dse::grid::Grid;
use radram::RadramConfig;

fn usage() -> String {
    format!(
        "usage: apctl [--addr HOST:PORT] COMMAND [ARGS]\n\
         \n\
         commands:\n\
         \x20 ping                      round-trip the line protocol\n\
         \x20 status                    daemon load (queued/running/workers)\n\
         \x20 health                    GET /healthz\n\
         \x20 metrics                   GET /metrics (Prometheus text)\n\
         \x20 jobs                      GET /jobs (JSON job table)\n\
         \x20 shutdown                  drain the daemon and stop it\n\
         \x20 point APP SYSTEM PAGES    submit one point, print its encoded\n\
         \x20   [--local]               report; --local computes in-process\n\
         \x20                           instead (for byte-for-byte diffs)\n\
         \x20 sweep APP...|all [--quick] submit the Figure 3/4 sweep for the\n\
         \x20                           given apps, print one line per point\n\
         \x20 dse [--quick]             sweep the design-space grid through\n\
         \x20   [--mode fast|accurate]  the daemon and print its Pareto\n\
         \x20                           front (default tier: accurate)\n\
         \n\
         --addr defaults to 127.0.0.1:7117.\n\
         apps: {}\n\
         systems: conventional, radram",
        App::ALL.map(App::name).join(", ")
    )
}

fn fail(message: &str) -> ! {
    eprintln!("apctl: {message}");
    std::process::exit(1);
}

fn parse_app(name: &str) -> App {
    App::by_name(name).unwrap_or_else(|| {
        fail(&format!("unknown app {name:?} (valid: {})", App::ALL.map(App::name).join(", ")))
    })
}

fn parse_system(name: &str) -> SystemKind {
    match name {
        "conventional" => SystemKind::Conventional,
        "radram" => SystemKind::Radram,
        other => fail(&format!("unknown system {other:?} (valid: conventional, radram)")),
    }
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7117".to_string();
    if let Some(pos) = args.iter().position(|a| a == "--addr" || a.starts_with("--addr=")) {
        let flag = args.remove(pos);
        addr = match flag.split_once('=') {
            Some((_, v)) if !v.is_empty() => v.to_string(),
            Some(_) => fail("--addr= requires a value"),
            None if pos < args.len() => args.remove(pos),
            None => fail("--addr requires a value"),
        };
    }
    let Some(command) = args.first().cloned() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let rest = &args[1..];
    match command.as_str() {
        "ping" => {
            connect(&addr).ping().unwrap_or_else(|e| fail(&e.to_string()));
            println!("pong from {addr}");
        }
        "status" => {
            let (queued, running, workers, draining) =
                connect(&addr).status().unwrap_or_else(|e| fail(&e.to_string()));
            println!("queued={queued} running={running} workers={workers} draining={draining}");
        }
        "health" | "metrics" | "jobs" => {
            let path = match command.as_str() {
                "health" => "/healthz",
                "metrics" => "/metrics",
                _ => "/jobs",
            };
            let body = http_get(&addr, path).unwrap_or_else(|e| fail(&e.to_string()));
            print!("{body}");
        }
        "shutdown" => {
            connect(&addr).shutdown().unwrap_or_else(|e| fail(&e.to_string()));
            println!("daemon drained and shut down");
        }
        "point" => run_point(&addr, rest),
        "sweep" => run_sweep(&addr, rest),
        "dse" => run_dse(&addr, rest),
        "--help" | "-h" | "help" => println!("{}", usage()),
        other => {
            eprintln!("apctl: unknown command {other:?}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}

fn run_point(addr: &str, args: &[String]) {
    let mut local = false;
    let mut positional = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--local" => local = true,
            other if other.starts_with('-') => fail(&format!("unknown point option {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    let [app, system, pages] = positional.as_slice() else {
        fail("point needs APP SYSTEM PAGES");
    };
    let app = parse_app(app);
    let kind = parse_system(system);
    let pages: f64 = pages
        .parse()
        .ok()
        .filter(|p| *p > 0.0)
        .unwrap_or_else(|| fail(&format!("invalid page count {pages:?}")));
    if local {
        // The same spec the daemon would build, executed in-process: the
        // printed text is what a daemon `point` must match byte for byte.
        let spec = WireSpec::point(app, kind, pages);
        let report = RunSpec::new(spec.app, spec.kind, spec.pages, spec.config())
            .with_mode(spec.mode)
            .execute();
        print!("{}", (report_codec().encode)(&report));
        return;
    }
    let mut client = connect(addr);
    let spec = WireSpec::point(app, kind, pages);
    client.submit(&spec, None, 10).unwrap_or_else(|e| fail(&e.to_string()));
    let result = client.collect().unwrap_or_else(|e| fail(&e.to_string()));
    match result.outcome {
        Outcome::Ok => print!("{}", result.report_text.expect("ok jobs carry a report")),
        other => fail(&format!("job failed: {}", other.tag())),
    }
}

fn run_sweep(addr: &str, args: &[String]) {
    let mut quick = false;
    let mut apps = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "all" => apps.extend(App::ALL),
            other if other.starts_with('-') => fail(&format!("unknown sweep option {other:?}")),
            other => apps.push(parse_app(other)),
        }
    }
    if apps.is_empty() {
        fail("sweep needs at least one app name (or \"all\")");
    }
    // The exact batch an in-process `experiments` figure would run: same
    // specs, same order, same keys — so the daemon's cache fills (or hits)
    // point for point.
    let cfg = RadramConfig::reference();
    let specs: Vec<WireSpec> = sweep_specs(&apps, &cfg, quick, ExecMode::Accurate)
        .into_iter()
        .map(|s| WireSpec::point(s.app, s.kind, s.pages).with_mode(s.mode))
        .collect();
    let mut client = connect(addr);
    let results = client.run_all(&specs).unwrap_or_else(|e| fail(&e.to_string()));
    let mut failed = 0usize;
    for (spec, result) in specs.iter().zip(&results) {
        let cache = if result.cache_hit { "hit" } else { "miss" };
        match &result.report {
            Some(report) => println!(
                "{} {} pages={} cache={cache} wall_ms={} kernel_cycles={} checksum={:016x}",
                spec.app.name(),
                spec.kind,
                spec.pages,
                result.wall_ms,
                report.kernel_cycles,
                report.checksum,
            ),
            None => {
                failed += 1;
                println!(
                    "{} {} pages={} FAILED: {}",
                    spec.app.name(),
                    spec.kind,
                    spec.pages,
                    result.outcome.tag()
                );
            }
        }
    }
    let hits = results.iter().filter(|r| r.cache_hit).count();
    println!("sweep: {} points, {} failed, {hits} served from cache", results.len(), failed);
    if failed > 0 {
        std::process::exit(1);
    }
}

fn run_dse(addr: &str, args: &[String]) {
    let mut quick = false;
    let mut mode = ExecMode::Accurate;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--mode" => {
                mode = match iter.next().map(String::as_str) {
                    Some("fast") => ExecMode::Fast,
                    Some("accurate") => ExecMode::Accurate,
                    other => fail(&format!("--mode needs fast or accurate, got {other:?}")),
                }
            }
            other => fail(&format!("unknown dse option {other:?}")),
        }
    }
    // The sweep `experiments dse --mode <tier>` runs, with the grid sent to
    // the daemon: the wire specs rebuild every config through the same
    // builders, so the cache keys match the in-process harness's byte for
    // byte.
    println!("dse sweep through {addr}: {}", Grid::for_quick(quick).describe());
    let mut client = connect(addr);
    let run = dse::run(
        |configs, specs| {
            client.run_dse_tier(configs, specs).unwrap_or_else(|e| fail(&e.to_string()))
        },
        quick,
        mode,
    );
    let report = &run.report;
    print!("{}", report.table());
    println!(
        "dse: {} runs in {:.1}s, {} served from the daemon cache, {} incomplete",
        run.total_jobs, run.wall_secs, run.cache_hits, report.incomplete
    );
    if report.incomplete > 0 || report.front.is_empty() {
        std::process::exit(1);
    }
}
