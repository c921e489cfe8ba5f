//! Command-line parsing for the `experiments` binary.
//!
//! Kept in the library so the parser is unit-testable; the binary only
//! renders errors and exits non-zero.

use crate::runner::{env_engine, Runner};
use ap_apps::ExecMode;
use std::path::PathBuf;

/// Every experiment target the binary accepts: its name, the one-line
/// description the usage text is generated from, and whether it runs only
/// when named (`true`) rather than also under `all`. Single source of
/// truth: adding a row here is all it takes to document a new target.
pub const TARGETS: &[(&str, &str, bool)] = &[
    ("all", "every paper table and figure below (the default)", false),
    ("table1", "reference system parameters", false),
    ("table2", "partitioning of each application between processor and pages", false),
    ("table3", "synthesized circuits (LEs, speed, configuration size)", false),
    ("table4", "T_A/T_P/T_C per application and the model correlation", false),
    ("fig1", "idealized scaling-region curve (sub-page, scalable, saturated)", false),
    ("fig3", "speedup vs problem size, all nine kernels", false),
    ("fig4", "processor/memory overlap breakdown", false),
    ("fig5", "L1 data-cache size sensitivity", false),
    ("fig8", "DRAM miss-latency sensitivity", false),
    ("fig9", "reconfigurable-logic clock sensitivity", false),
    ("dse", "design-space sweep with Pareto-front search (BENCH_dse.json)", true),
    ("database-xl", "million-record sharded database point", true),
    ("ablations", "Section 3/10 design-choice ablations 1-6", true),
    ("pipeline", "full MPEG decode pipeline vs an all-processor decoder", true),
];

/// The registered target names, in table order.
pub fn target_names() -> Vec<&'static str> {
    TARGETS.iter().map(|(name, ..)| *name).collect()
}

/// The `--mode` choices: one execution tier, or both with a cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeChoice {
    /// One tier ([`ExecMode::Accurate`] or [`ExecMode::Fast`]).
    One(ExecMode),
    /// Both tiers; `fig3`/`fig4` cross-check fast against accurate and fail
    /// on any envelope breach. `dse` rejects it: a sweep runs one tier.
    Both,
}

impl ModeChoice {
    fn parse(name: &str) -> Result<ModeChoice, String> {
        if name == "both" {
            return Ok(ModeChoice::Both);
        }
        ExecMode::parse(name)
            .map(ModeChoice::One)
            .map_err(|_| format!("unknown --mode {name:?} (valid: accurate, fast, both)"))
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Which experiment to run (one of [`TARGETS`], default `all`).
    pub target: String,
    /// Worker-count override (`--jobs N`). Validated at parse time: `N`
    /// must parse and be at least 1, so `--jobs 0` is a usage error (exit
    /// code 2 from the binary), never a silent fallback to a default.
    pub jobs: Option<usize>,
    /// Disable the disk cache (`--no-cache`).
    pub no_cache: bool,
    /// Manifest path override (`--manifest PATH`).
    pub manifest: Option<PathBuf>,
    /// Per-job Chrome tracing (`--trace[=DIR]`): `Some(None)` uses the
    /// default `<results dir>/traces` directory.
    pub trace: Option<Option<PathBuf>>,
    /// Subsystems recorded when tracing (`--trace-filter LIST`, default all).
    pub trace_filter: ap_trace::Filter,
    /// Run the host-timing benches instead of the experiment targets
    /// (`--bench-wallclock`).
    pub bench_wallclock: bool,
    /// Execution-tier selection (`--mode accurate|fast|both`). `None` keeps
    /// each target's default, which is accurate.
    pub mode: Option<ModeChoice>,
    /// Page-count override for the batch-scaling bench (`--pages N`,
    /// `--bench-wallclock` only). Validated like `--jobs`: 0 is an error.
    pub pages: Option<usize>,
    /// Thread-budget override for the batch-scaling bench (`--threads N`,
    /// `--bench-wallclock` only). Validated like `--jobs`: 0 is an error.
    pub threads: Option<usize>,
    /// Shrink sweeps to CI size (`--quick`, equivalent to `AP_QUICK=1`).
    pub quick: bool,
}

/// The usage text. The target list is generated from [`TARGETS`], so the
/// help can never drift from what the parser accepts.
pub fn usage() -> String {
    let targets: String = TARGETS
        .iter()
        .map(|(name, desc, explicit)| {
            format!("  {name:<12} {desc}{}\n", if *explicit { " (explicit only)" } else { "" })
        })
        .collect();
    format!(
        "usage: experiments [TARGET] [--jobs N] [--no-cache] [--manifest PATH]\n\
         \x20                  [--trace[=DIR]] [--trace-filter LIST] [--quick]\n\
         \x20      experiments --bench-wallclock [--pages N] [--threads N]\n\
         \n\
         Runs the paper's experiments through the ap-engine worker pool and\n\
         writes CSV files under the results directory.\n\
         \n\
         targets:\n\
         {targets}\
         \n\
         options:\n\
         \x20 --jobs N            worker threads; N must be >= 1 — a zero or\n\
         \x20                     non-numeric value is an error, never a silent\n\
         \x20                     fallback (default: AP_JOBS or all cores)\n\
         \x20 --no-cache          recompute every point, ignore the disk cache\n\
         \x20 --manifest PATH     write the JSONL run manifest to PATH\n\
         \x20 --trace[=DIR]       export one Chrome trace per computed point\n\
         \x20                     (default DIR: <results dir>/traces; view in\n\
         \x20                     chrome://tracing or summarize with aptrace)\n\
         \x20 --trace-filter LIST comma-separated subsystems to trace\n\
         \x20                     (cpu,mem,radram,risc,engine or all; default all)\n\
         \x20 --bench-wallclock   time the parallel page executor against the\n\
         \x20                     sequential oracle on a page-count sweep and\n\
         \x20                     write BENCH_page_scaling.json, then time the\n\
         \x20                     fast tier against the accurate oracle and\n\
         \x20                     write BENCH_fastmode.json, then time the\n\
         \x20                     page-worker pool against the sequential\n\
         \x20                     oracle on database-xl and write\n\
         \x20                     BENCH_batch_scaling.json\n\
         \x20 --pages N           with --bench-wallclock: add a batch-scaling\n\
         \x20                     point at N pages beyond the built-in sweep\n\
         \x20                     (N must be >= 1, like --jobs)\n\
         \x20 --threads N         with --bench-wallclock: add a batch-scaling\n\
         \x20                     point at a thread budget of N beyond the\n\
         \x20                     built-in axis (N must be >= 1, like --jobs)\n\
         \x20 --mode M            execution tier for sweep targets: accurate\n\
         \x20                     (cycle oracle, default), fast (counted\n\
         \x20                     functional tier), or both (run both tiers,\n\
         \x20                     cross-check answers and cycle error; exits\n\
         \x20                     non-zero on an envelope breach). dse and\n\
         \x20                     database-xl run one tier, so they reject\n\
         \x20                     both\n\
         \x20 --quick             shrink sweeps to CI size (same as AP_QUICK=1)\n\
         \n\
         environment: the AP_* variables (AP_QUICK, AP_JOBS, AP_RESULTS_DIR,\n\
         AP_NO_CACHE, ...) are listed in the README's Environment table.",
    )
}

/// Parses the arguments after the program name.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        target: "all".to_string(),
        jobs: None,
        no_cache: false,
        manifest: None,
        trace: None,
        trace_filter: ap_trace::Filter::ALL,
        bench_wallclock: false,
        mode: None,
        pages: None,
        threads: None,
        quick: false,
    };
    let mut target_seen = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let mut value = |name: &str| {
            inline
                .clone()
                .or_else(|| args.next())
                .filter(|v| !v.is_empty())
                .ok_or(format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--jobs" => {
                // Reject rather than clamp: a user typing `--jobs 0` is
                // confused about the flag, and silently running on some
                // default worker count would hide that.
                let v = value("--jobs")?;
                let n: usize = v.parse().map_err(|_| format!("invalid --jobs value {v:?}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                cli.jobs = Some(n);
            }
            "--pages" => {
                let v = value("--pages")?;
                let n: usize = v.parse().map_err(|_| format!("invalid --pages value {v:?}"))?;
                if n == 0 {
                    return Err("--pages must be at least 1".to_string());
                }
                cli.pages = Some(n);
            }
            "--threads" => {
                let v = value("--threads")?;
                let n: usize = v.parse().map_err(|_| format!("invalid --threads value {v:?}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                cli.threads = Some(n);
            }
            "--no-cache" => cli.no_cache = true,
            "--manifest" => cli.manifest = Some(PathBuf::from(value("--manifest")?)),
            // `--trace` takes its directory inline only (`--trace=DIR`): a
            // separate token would be ambiguous with the TARGET argument.
            "--trace" => {
                cli.trace = Some(match &inline {
                    Some(v) if v.is_empty() => return Err("--trace= requires a directory".into()),
                    Some(v) => Some(PathBuf::from(v)),
                    None => None,
                })
            }
            "--trace-filter" => {
                cli.trace_filter = ap_trace::Filter::parse(&value("--trace-filter")?)?;
            }
            "--bench-wallclock" => cli.bench_wallclock = true,
            "--mode" => cli.mode = Some(ModeChoice::parse(&value("--mode")?)?),
            "--quick" => cli.quick = true,
            "--help" | "-h" => return Err("help".to_string()),
            f if f.starts_with('-') => return Err(format!("unknown option {f:?}")),
            target if !target_seen => {
                if !target_names().contains(&target) {
                    return Err(format!(
                        "unknown target {target:?} (valid: {})",
                        target_names().join(", ")
                    ));
                }
                cli.target = target.to_string();
                target_seen = true;
            }
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    if cli.bench_wallclock && target_seen {
        return Err("--bench-wallclock replaces the experiment targets; drop the TARGET".into());
    }
    if !cli.bench_wallclock && (cli.pages.is_some() || cli.threads.is_some()) {
        return Err("--pages/--threads only apply to --bench-wallclock".into());
    }
    if matches!(cli.target.as_str(), "dse" | "database-xl") && cli.mode == Some(ModeChoice::Both) {
        return Err(format!("{} runs one tier: --mode accurate or fast, not both", cli.target));
    }
    Ok(cli)
}

impl Cli {
    /// True when `name` was requested, or `all` was and `name` is not
    /// marked explicit-only in [`TARGETS`] — `all` reproduces the paper's
    /// tables and figures, not the extension studies.
    pub fn wants(&self, name: &str) -> bool {
        self.target == name
            || (self.target == "all"
                && TARGETS.iter().any(|&(target, _, explicit)| target == name && !explicit))
    }

    /// True when this invocation should shrink sweeps to CI size: `--quick`
    /// or the `AP_QUICK=1` environment.
    pub fn is_quick(&self) -> bool {
        self.quick || crate::quick_mode()
    }

    /// The execution tier for sweep targets whose default is `default`,
    /// and whether a both-tier cross-check was requested.
    pub fn mode_or(&self, default: ExecMode) -> (ExecMode, bool) {
        match self.mode {
            None => (default, false),
            Some(ModeChoice::One(m)) => (m, false),
            Some(ModeChoice::Both) => (ExecMode::Fast, true),
        }
    }

    /// Builds the engine-backed runner this invocation asked for: run
    /// settings, then the command-line overrides.
    pub fn runner(&self) -> Runner {
        let mut engine = env_engine();
        if let Some(jobs) = self.jobs {
            engine = engine.with_workers(jobs);
        }
        if self.no_cache {
            engine = engine.without_cache();
        }
        engine = engine.with_manifest(self.manifest_path());
        if let Some(dir) = self.trace_dir() {
            engine = engine.with_trace_dir(dir, self.trace_filter);
        }
        Runner::with_engine(engine)
    }

    /// Where this invocation writes per-job traces: `None` when `--trace`
    /// was not given, the explicit directory or `<results dir>/traces`
    /// otherwise.
    pub fn trace_dir(&self) -> Option<PathBuf> {
        self.trace
            .as_ref()
            .map(|dir| dir.clone().unwrap_or_else(|| crate::results_dir().join("traces")))
    }

    /// Where this invocation writes its manifest: `--manifest` if given,
    /// else `manifest.jsonl` in the results directory.
    pub fn manifest_path(&self) -> PathBuf {
        self.manifest.clone().unwrap_or_else(|| crate::results_dir().join("manifest.jsonl"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_all() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.target, "all");
        assert_eq!(cli.jobs, None);
        assert!(!cli.no_cache);
        assert!(cli.wants("fig3") && cli.wants("table4"));
    }

    #[test]
    fn parses_target_and_flags_in_any_order() {
        let cli = parse(&["fig5", "--jobs", "4", "--no-cache"]).unwrap();
        assert_eq!(cli.target, "fig5");
        assert_eq!(cli.jobs, Some(4));
        assert!(cli.no_cache);
        assert!(cli.wants("fig5") && !cli.wants("fig8"));

        let cli = parse(&["--jobs=2", "--manifest=/tmp/m.jsonl", "table4"]).unwrap();
        assert_eq!(cli.jobs, Some(2));
        assert_eq!(cli.manifest, Some(PathBuf::from("/tmp/m.jsonl")));
        assert_eq!(cli.target, "table4");
    }

    #[test]
    fn parses_trace_flags() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.trace, None);
        assert_eq!(cli.trace_dir(), None);
        assert_eq!(cli.trace_filter, ap_trace::Filter::ALL);

        let cli = parse(&["fig3", "--trace"]).unwrap();
        assert_eq!(cli.trace, Some(None));
        assert!(cli.trace_dir().is_some(), "default trace dir when --trace is bare");

        let cli = parse(&["--trace=/tmp/t", "--trace-filter", "mem,radram"]).unwrap();
        assert_eq!(cli.trace, Some(Some(PathBuf::from("/tmp/t"))));
        assert_eq!(cli.trace_dir(), Some(PathBuf::from("/tmp/t")));
        assert_eq!(
            cli.trace_filter,
            ap_trace::Filter::of(&[ap_trace::Subsystem::Mem, ap_trace::Subsystem::Radram])
        );

        assert!(parse(&["--trace="]).is_err());
        let err = parse(&["--trace-filter=bogus"]).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn parses_bench_wallclock() {
        assert!(!parse(&[]).unwrap().bench_wallclock);
        assert!(parse(&["--bench-wallclock"]).unwrap().bench_wallclock);
        let err = parse(&["fig3", "--bench-wallclock"]).unwrap_err();
        assert!(err.contains("TARGET"), "{err}");
    }

    #[test]
    fn parses_mode_choices() {
        assert_eq!(parse(&[]).unwrap().mode, None);
        assert_eq!(parse(&[]).unwrap().mode_or(ExecMode::Accurate), (ExecMode::Accurate, false));
        let cli = parse(&["fig3", "--mode", "fast"]).unwrap();
        assert_eq!(cli.mode, Some(ModeChoice::One(ExecMode::Fast)));
        assert_eq!(cli.mode_or(ExecMode::Accurate), (ExecMode::Fast, false));
        let cli = parse(&["--mode=both"]).unwrap();
        assert_eq!(cli.mode, Some(ModeChoice::Both));
        assert_eq!(cli.mode_or(ExecMode::Accurate), (ExecMode::Fast, true));
        let err = parse(&["--mode", "warp"]).unwrap_err();
        assert!(err.contains("warp") && err.contains("both"), "{err}");
    }

    #[test]
    fn dse_target_is_explicit_but_not_part_of_all() {
        let cli = parse(&["dse"]).unwrap();
        assert!(cli.wants("dse") && !cli.wants("fig3"));
        let all = parse(&[]).unwrap();
        assert!(!all.wants("dse"), "`all` must not sweep the DSE grid");
    }

    #[test]
    fn dse_rejects_both_tiers() {
        let err = parse(&["dse", "--mode", "both"]).unwrap_err();
        assert!(err.contains("one tier"), "{err}");
        assert!(parse(&["dse", "--mode=accurate"]).is_ok());
        assert!(parse(&["dse", "--mode", "fast"]).is_ok());
    }

    #[test]
    fn database_xl_rejects_both_tiers() {
        let err = parse(&["database-xl", "--mode", "both"]).unwrap_err();
        assert!(err.contains("one tier"), "{err}");
        assert!(parse(&["database-xl", "--mode", "accurate"]).is_ok());
        assert!(parse(&["database-xl", "--mode=fast"]).is_ok());
    }

    #[test]
    fn database_xl_is_explicit_but_not_part_of_all() {
        let cli = parse(&["database-xl"]).unwrap();
        assert!(cli.wants("database-xl") && !cli.wants("fig3"));
        let all = parse(&[]).unwrap();
        assert!(!all.wants("database-xl"), "`all` must not run the scaling point");
    }

    #[test]
    fn studies_are_explicit_but_not_part_of_all() {
        let all = parse(&[]).unwrap();
        for name in ["ablations", "pipeline"] {
            let cli = parse(&[name]).unwrap();
            assert!(cli.wants(name) && !cli.wants("fig3"));
            assert!(!all.wants(name), "`all` must not run the {name} study");
        }
        // `all` still wants every paper table and figure.
        for (name, _, explicit) in &TARGETS[1..] {
            assert_eq!(all.wants(name), !explicit, "{name}");
        }
    }

    #[test]
    fn pages_and_threads_overrides_parse_and_validate() {
        let cli = parse(&["--bench-wallclock", "--pages", "4096", "--threads=8"]).unwrap();
        assert_eq!(cli.pages, Some(4096));
        assert_eq!(cli.threads, Some(8));
        let err = parse(&["--bench-wallclock", "--pages", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["--bench-wallclock", "--threads=0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(parse(&["--bench-wallclock", "--pages", "many"]).is_err());
        // The overrides are bench-only: without --bench-wallclock they are
        // a usage error, not silently ignored.
        let err = parse(&["fig3", "--pages", "64"]).unwrap_err();
        assert!(err.contains("--bench-wallclock"), "{err}");
        let err = parse(&["--threads", "4"]).unwrap_err();
        assert!(err.contains("--bench-wallclock"), "{err}");
    }

    #[test]
    fn quick_flag_parses() {
        assert!(!parse(&["dse"]).unwrap().quick);
        assert!(parse(&["dse", "--quick"]).unwrap().quick);
        assert!(parse(&["dse", "--quick"]).unwrap().is_quick());
    }

    #[test]
    fn usage_lists_every_target_with_its_description() {
        let text = usage();
        for (name, desc, explicit) in TARGETS {
            assert!(text.contains(name), "usage must list {name}");
            assert!(text.contains(desc), "usage must describe {name}");
            let marked = text.contains(&format!("{desc} (explicit only)"));
            assert_eq!(marked, *explicit, "usage must mark {name} explicit-only iff it is");
        }
    }

    #[test]
    fn rejects_unknown_targets_with_the_valid_list() {
        let err = parse(&["fig6"]).unwrap_err();
        assert!(err.contains("fig6"), "{err}");
        assert!(err.contains("fig5"), "must list valid targets: {err}");
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--manifest="]).is_err());
        assert!(parse(&["--jobs", "zero"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["fig3", "fig5"]).is_err());
    }

    #[test]
    fn jobs_zero_is_a_clear_error_not_a_fallback() {
        let err = parse(&["--jobs", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "must say what a valid value is: {err}");
        let err = parse(&["--jobs=0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        // The usage text documents the constraint.
        assert!(usage().contains(">= 1"), "usage must document the --jobs floor");
    }
}
