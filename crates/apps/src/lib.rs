//! The six evaluation applications of the Active Pages paper (Table 2),
//! each implemented twice: once for a conventional memory system and once
//! partitioned for the RADram Active-Page memory system.
//!
//! Both implementations of an application compute the *same answer* on the
//! same deterministic workload; [`speedup`] refuses to compare runs whose
//! result checksums diverge. The measured quantity is kernel cycles on the
//! simulated 1 GHz reference machine.
//!
//! * [`mod@array`] — the STL array template class (insert / delete / find).
//! * [`database`] — unindexed address-book query.
//! * [`median`] — 3×3 median filter over 16-bit images (kernel and total
//!   phases, as in Figure 5's `median-kernel` vs `median-total`).
//! * [`lcs`] — dynamic-programming largest common subsequence with
//!   processor-side backtracking.
//! * [`matrix`] — sparse compare-gather-compute multiply (`simplex` and
//!   `boeing` variants).
//! * [`mpeg`] — MMX correction-matrix application (the RADram MMX
//!   macro-instruction set).
//!
//! Two Section 10 extension apps live alongside them: [`mpeg_decode`] (the
//! full entropy-decode → IDCT → correction pipeline) and [`primitives`]
//! (the fixed data-manipulation primitive backend).
//!
//! [`App`] enumerates the nine benchmark kernels exactly as Figure 3's
//! legend does and provides the uniform entry point the harness sweeps.
//!
//! # Examples
//!
//! ```no_run
//! use ap_apps::{App, SystemKind};
//! use radram::RadramConfig;
//!
//! let cfg = RadramConfig::reference();
//! let conv = App::Database.run(SystemKind::Conventional, 2.0, &cfg);
//! let rad = App::Database.run(SystemKind::Radram, 2.0, &cfg);
//! println!("speedup: {:.1}x", ap_apps::speedup(&conv, &rad));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
mod common;
pub mod database;
pub mod lcs;
pub mod matrix;
pub mod median;
pub mod mpeg;
pub mod mpeg_decode;
pub mod primitives;

pub use common::{
    fnv1a, fnv_mix, read_body_footprint, speedup, whole_page_footprint, RunReport, SystemKind,
};
pub use radram::ExecMode;

use radram::RadramConfig;

/// The nine benchmark kernels of Figure 3, by legend name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// STL array insert primitive.
    ArrayInsert,
    /// STL array delete primitive (adaptive below one page).
    ArrayDelete,
    /// STL array find/count primitive.
    ArrayFind,
    /// Unindexed database query.
    Database,
    /// Median filter (kernel phase; the report also carries total cycles).
    Median,
    /// Largest-common-subsequence dynamic program.
    DynProg,
    /// Sparse matrix multiply on Simplex tableaus.
    MatrixSimplex,
    /// Sparse matrix multiply on finite-element (Harwell-Boeing-style)
    /// matrices.
    MatrixBoeing,
    /// MPEG correction via RADram MMX macro-instructions.
    MpegMmx,
    /// Million-record multi-tenant database (the ROADMAP stress case).
    /// Not part of [`App::ALL`]: it is a scaling workload, not a Figure 3
    /// legend entry, and is selected explicitly by name.
    DatabaseXl,
}

impl App {
    /// Every benchmark, in Figure 3's legend order.
    pub const ALL: [App; 9] = [
        App::ArrayInsert,
        App::ArrayDelete,
        App::ArrayFind,
        App::Database,
        App::Median,
        App::DynProg,
        App::MatrixSimplex,
        App::MatrixBoeing,
        App::MpegMmx,
    ];

    /// Legend name used in figures and tables.
    pub fn name(self) -> &'static str {
        match self {
            App::ArrayInsert => "array-insert",
            App::ArrayDelete => "array-delete",
            App::ArrayFind => "array-find",
            App::Database => "database",
            App::Median => "median",
            App::DynProg => "dynamic-prog",
            App::MatrixSimplex => "matrix-simplex",
            App::MatrixBoeing => "matrix-boeing",
            App::MpegMmx => "mpeg-mmx",
            App::DatabaseXl => "database-xl",
        }
    }

    /// Looks a benchmark up by its legend name (or one of the named
    /// scaling workloads outside [`App::ALL`]).
    pub fn by_name(name: &str) -> Option<App> {
        if name == App::DatabaseXl.name() {
            return Some(App::DatabaseXl);
        }
        App::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Runs the benchmark at `pages` problem size on the given system.
    pub fn run(self, kind: SystemKind, pages: f64, cfg: &RadramConfig) -> RunReport {
        self.run_mode(kind, pages, cfg, ExecMode::Accurate)
    }

    /// [`App::run`] on the execution tier `mode` selects: the cycle-accurate
    /// oracle or the counted fast tier (see DESIGN.md §13). Functional
    /// results (checksums) are identical between tiers; cycle counts in fast
    /// mode are estimates.
    pub fn run_mode(
        self,
        kind: SystemKind,
        pages: f64,
        cfg: &RadramConfig,
        mode: ExecMode,
    ) -> RunReport {
        match self {
            App::ArrayInsert => array::run(array::ArrayPrimitive::Insert, kind, pages, cfg, mode),
            App::ArrayDelete => array::run(array::ArrayPrimitive::Delete, kind, pages, cfg, mode),
            App::ArrayFind => array::run(array::ArrayPrimitive::Find, kind, pages, cfg, mode),
            App::Database => database::run(kind, pages, cfg, mode),
            App::Median => median::run(kind, pages, cfg, mode),
            App::DynProg => lcs::run(kind, pages, cfg, mode),
            App::MatrixSimplex => {
                matrix::run(matrix::MatrixVariant::Simplex, kind, pages, cfg, mode)
            }
            App::MatrixBoeing => matrix::run(matrix::MatrixVariant::Boeing, kind, pages, cfg, mode),
            App::MpegMmx => mpeg::run(kind, pages, cfg, mode),
            App::DatabaseXl => database::xl::run(kind, pages, cfg, mode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for app in App::ALL {
            assert_eq!(App::by_name(app.name()), Some(app));
        }
        assert_eq!(App::by_name("database-xl"), Some(App::DatabaseXl));
        assert_eq!(App::by_name("nonesuch"), None);
    }

    #[test]
    fn all_lists_nine_unique_kernels() {
        let mut names: Vec<_> = App::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }
}
