//! `apbench` — the end-to-end and per-layer benchmark of the Active Pages
//! reproduction. See `README.md` for the workloads, metrics and how to
//! read the output.
//!
//! ```text
//! apbench [--quick] [--runs N] [--seed S] [--out DIR]
//!     every workload, each in a fresh child process; writes DIR/results.json
//! apbench --workload W [--seed S] [--seconds T | --runs N] [--trace 0|1] [--quick] [--out DIR]
//!     one workload in this process; the last stdout line is its JSON summary
//! apbench compare A.json B.json [--bench BENCHMARK.json]
//!     deltas of B against baseline A; exits 1 on a breached bound
//! apbench reference
//!     prints the accurate-tier oracle file (oracle/fig3_reference.txt)
//! ```

mod apd_mixed;
mod fig3;
mod metrics;
mod page_batch;
mod probe;
mod report;
mod run;
#[cfg(test)]
mod tests;
mod trace;

use ap_apd::json::{self, Value};
use run::{Budget, RunConfig, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Seed of the default runs and the committed baseline.
const DEFAULT_SEED: u64 = 1;
/// Seed held out from tuning: a claimed gain must also hold on it.
const HELDOUT_SEED: u64 = 20_260_917;
/// Untraced passes per workload when neither `--runs` nor `--seconds` is
/// given (`--quick` shrinks the inputs and uses [`QUICK_RUNS`]).
const DEFAULT_RUNS: usize = 5;
/// Untraced passes per workload under `--quick`.
const QUICK_RUNS: usize = 2;
/// Where scratch state and default output live, under the working directory.
const STATE_DIR: &str = ".apbench";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    runs: Option<usize>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                a.seed = Some(value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--runs" => {
                let n: usize = value("a number")?.parse().map_err(|e| format!("--runs: {e}"))?;
                a.runs = Some(n.max(1));
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage: apbench [--quick] [--runs N] [--seed S] [--out DIR]
       apbench --workload W [--seed S] [--seconds T | --runs N] [--trace 0|1] [--quick] [--out DIR]
       apbench compare A.json B.json [--bench BENCHMARK.json]
       apbench reference";

fn default_runs(quick: bool) -> usize {
    if quick {
        QUICK_RUNS
    } else {
        DEFAULT_RUNS
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let result = match args.peek().map(String::as_str) {
        Some("compare") => compare(args.skip(1).collect()),
        Some("reference") => {
            print!("{}", fig3::reference_text());
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_args(args).and_then(|a| match a.workload {
            Some(w) => one(w, &a),
            None => all(&a),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("apbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Runs one workload in this process.
fn one(workload: Workload, a: &Args) -> Result<ExitCode, String> {
    let trace = a.trace.unwrap_or(false);
    let budget = match (a.runs, a.seconds) {
        (Some(n), _) => Budget::Passes(n),
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) => Budget::Passes(default_runs(a.quick)),
    };
    let work = Path::new(STATE_DIR).join(format!("work-{}", std::process::id()));
    let cfg =
        RunConfig { seed: a.seed.unwrap_or(DEFAULT_SEED), budget, trace, quick: a.quick, work };
    let run = workload.run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.work);
    for line in report::summary(workload.name(), &report::workload_json(&run, trace)) {
        println!("{line}");
    }
    if let Some(out) = &a.out {
        write_outputs(out, workload, &run, trace)?;
    }
    println!("{}", report::result_line(&run, trace));
    Ok(ExitCode::SUCCESS)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A child's files under `out`: its result object, its trace, and its
/// functional results for the parent's cross-workload check.
fn write_outputs(
    out: &Path,
    workload: Workload,
    run: &run::Run,
    trace: bool,
) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let name = workload.name();
    write(&out.join(format!("{name}.json")), &report::workload_json(run, trace).to_json())?;
    if trace {
        write(&out.join(format!("trace_{name}.json")), &trace::chrome_json(name, &run.spans))?;
    }
    if run.checksums.is_empty() {
        return Ok(());
    }
    let checksums: String = run.checksums.iter().map(|line| format!("{line}\n")).collect();
    write(&out.join(format!("checksums_{name}.txt")), &checksums)
}

/// The commit being measured, if this is a git checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every workload, one child process at a time, and assembles
/// `results.json`.
fn all(a: &Args) -> Result<ExitCode, String> {
    let out = a.out.clone().unwrap_or_else(|| Path::new(STATE_DIR).join("out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate apbench: {e}"))?;
    let seed = a.seed.unwrap_or(DEFAULT_SEED);
    let runs = a.runs.unwrap_or(default_runs(a.quick));
    let mut workloads = BTreeMap::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--runs",
            &runs.to_string(),
        ]);
        cmd.args(["--trace", "1", "--out"]).arg(&out).stdout(Stdio::null());
        if a.quick {
            cmd.arg("--quick");
        }
        let status = cmd.status().map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        let path = out.join(format!("{}.json", w.name()));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ok &= status.success() && result.get("correct").and_then(Value::as_bool) == Some(true);
        for line in report::summary(w.name(), &result) {
            println!("{line}");
        }
        workloads.insert(w.name().to_string(), result);
    }
    let read = |name: &str| std::fs::read_to_string(out.join(format!("checksums_{name}.txt")));
    let same = matches!((read("fig3-accurate"), read("fig3-fast")), (Ok(x), Ok(y)) if x == y);
    ok &= same;
    let cross = vec![(
        "fast-checksums-equal-accurate",
        same,
        if same { String::new() } else { "fig3-fast checksums differ from fig3-accurate".into() },
    )];
    let cores = metrics::host_cores();
    let meta = json::obj([
        ("host_cores", json::n(cores as u64)),
        ("engine_workers", json::n(fig3::workers() as u64)),
        ("page_budget", json::n(cores as u64)),
        ("effective_threads", json::n(active_pages::parallel::effective_threads(cores) as u64)),
        ("seed", json::n(seed)),
        ("default_seed", json::n(DEFAULT_SEED)),
        ("heldout_seed", json::n(HELDOUT_SEED)),
        ("runs", json::n(runs as u64)),
        ("quick", Value::Bool(a.quick)),
        ("git_rev", json::s(git_rev())),
    ]);
    let results = report::results_json(meta, workloads, cross);
    let path = out.join("results.json");
    write(&path, &results.to_json())?;
    println!("results: {}  ({})", path.display(), if ok { "all gates passed" } else { "FAILED" });
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `apbench compare A.json B.json [--bench BENCHMARK.json]`.
fn compare(args: Vec<String>) -> Result<ExitCode, String> {
    let (files, bench) = match args.as_slice() {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, bench] if flag == "--bench" => ([a, b], bench.as_str()),
        _ => return Err("compare takes A.json B.json [--bench BENCHMARK.json]".into()),
    };
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let bounds = report::bounds(&load(bench)?)?;
    let (lines, breaches) = report::compare(&load(files[0])?, &load(files[1])?, &bounds);
    for line in lines {
        println!("{line}");
    }
    println!("{breaches} breach(es)");
    Ok(if breaches == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
