//! Experiment harness for the Active Pages reproduction.
//!
//! One function per table and figure of the paper's evaluation, each
//! returning structured data and rendered through [`render`] as the aligned
//! rows/series the paper reports. The `benches/` targets (run by
//! `cargo bench`) print one experiment each; the `experiments` binary runs
//! them all and writes CSV files under `results/`.
//!
//! Simulation points are executed through [`runner::Runner`], which batches
//! them onto the `ap-engine` worker pool: sweeps run in parallel (`AP_JOBS`
//! workers), a panicking point degrades to a warning instead of killing the
//! run, and completed points persist to a disk cache under
//! `<results dir>/.ap-cache` so re-runs only simulate what changed.
//!
//! Knobs: `AP_QUICK=1` shrinks the sweeps for smoke runs, `AP_JOBS` sets the
//! worker count, `AP_RESULTS_DIR` relocates result files, `AP_NO_CACHE=1`
//! disables the cache.
//!
//! # Examples
//!
//! ```no_run
//! let rows = ap_bench::experiments::table3();
//! ap_bench::render::print_table3(&rows);
//!
//! let runner = ap_bench::runner::Runner::from_env();
//! let data = ap_bench::experiments::fig3_fig4(&runner, true, ap_bench::ExecMode::Accurate);
//! println!("{}", ap_bench::render::sweep_csv(&data));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod dse;
pub mod experiments;
pub mod fastmode;
pub mod hostbench;
pub mod lint_corpus;
pub mod render;
pub mod runner;
pub mod sweep;

pub use ap_apps::ExecMode;

use std::path::PathBuf;

/// True when the `AP_QUICK` environment variable requests reduced sweeps.
pub fn quick_mode() -> bool {
    env_flag("AP_QUICK")
}

/// True when the boolean environment variable `name` is set (non-empty,
/// not `"0"`).
pub(crate) fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

/// The directory result files (and the default experiment cache) live in:
/// `AP_RESULTS_DIR` if set, else `results/` under the workspace root.
pub fn results_dir() -> PathBuf {
    match std::env::var_os("AP_RESULTS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    }
}

/// Writes `contents` to `<results dir>/<name>` and returns the written path;
/// best effort (failures are reported to stderr and return `None`, not
/// fatal).
pub fn write_result_file(name: &str, contents: &str) -> Option<PathBuf> {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results dir {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}
