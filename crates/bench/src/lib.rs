//! Experiment harness for the Active Pages reproduction.
//!
//! One function per table and figure of the paper's evaluation, each
//! returning structured data and rendered through [`render`] as the aligned
//! rows/series the paper reports, plus the extension studies ([`studies`])
//! and the design-space sweep ([`dse`]). The `experiments` binary runs one
//! of them (`experiments <target>`) or every table and figure
//! (`experiments all`) and writes CSV files under `results/`.
//!
//! Simulation points are executed through [`runner::Runner`], which batches
//! them onto the `ap-engine` worker pool: sweeps run in parallel, a
//! panicking point degrades to a warning instead of killing the run, and
//! completed points persist to a disk cache under `<results dir>/.ap-cache`
//! so re-runs only simulate what changed.
//!
//! Knobs: the `AP_*` environment variables, parsed once by
//! `active_pages::settings`, are listed in the README's *Environment* table.
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
pub mod studies;
pub mod sweep;

pub use ap_apps::ExecMode;

use active_pages::settings;
use std::path::PathBuf;

/// True when the `quick` setting (`AP_QUICK`) requests reduced sweeps.
pub fn quick_mode() -> bool {
    settings::with(|s| s.quick)
}

/// The directory result files (and the default experiment cache) live in:
/// the `results_dir` setting (`AP_RESULTS_DIR`) if set, else `results/`
/// under the workspace root.
pub fn results_dir() -> PathBuf {
    settings::with(|s| s.results_dir.clone())
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"))
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
