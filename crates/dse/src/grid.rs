//! Declarative design-space grids over the RADram configuration space.
//!
//! A [`Grid`] is a cross product of named [`Axis`] values: every
//! combination of problem size, L1D cache geometry (size × associativity ×
//! block) and logic-clock divisor, for every kernel, on both memory
//! systems. [`Grid::configs`] expands it in one canonical order — app-major,
//! then pages, size, associativity, block, divisor — and [`expand`] turns
//! configs into per-run [`DseSpec`]s (conventional before RADram), so every
//! front end that walks the same grid submits byte-identical batches.

use ap_apps::{App, ExecMode, SystemKind};
use radram::RadramConfig;

/// One named dimension of a [`Grid`].
#[derive(Debug, Clone)]
pub struct Axis<T> {
    /// Axis name as it appears in reports (`pages`, `l1d_size`, ...).
    pub name: &'static str,
    /// Values swept, in canonical order.
    pub values: Vec<T>,
}

impl<T> Axis<T> {
    /// An axis named `name` sweeping `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty — a grid with an empty axis expands to
    /// nothing, which is never what a sweep means.
    pub fn new(name: &'static str, values: Vec<T>) -> Axis<T> {
        assert!(!values.is_empty(), "axis {name} must sweep at least one value");
        Axis { name, values }
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: empty axes are rejected at construction.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// One cell of the design space: a kernel at a problem size under a specific
/// machine configuration. A config describes **both** systems — its
/// objective values need a conventional and a RADram run (see
/// [`crate::collect::ConfigPoint`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DseConfig {
    /// Application kernel.
    pub app: App,
    /// Problem size in Active Pages.
    pub pages: f64,
    /// L1 data-cache size in bytes.
    pub l1d_size: usize,
    /// L1 data-cache associativity (ways).
    pub l1d_assoc: usize,
    /// L1 data-cache block (line) size in bytes.
    pub l1d_block: usize,
    /// CPU cycles per reconfigurable-logic cycle (Figure 9's axis).
    pub logic_divisor: u64,
}

impl DseConfig {
    /// The full machine configuration this cell describes: the reference
    /// system with the overrides applied through the standard composable
    /// builders, in the canonical order (size, associativity, block,
    /// divisor). `apd`'s wire spec rebuilds configs through the same
    /// builders, so the `Debug` fingerprint — and therefore the engine
    /// cache key — is identical on every path.
    pub fn radram_config(&self) -> RadramConfig {
        RadramConfig::reference()
            .with_l1d_size(self.l1d_size)
            .with_l1d_assoc(self.l1d_assoc)
            .with_l1d_block(self.l1d_block)
            .with_logic_divisor(self.logic_divisor)
    }

    /// Logic-element bandwidth budget this config provisions, in LE·MHz:
    /// the per-page logic elements times the logic clock the divisor
    /// implies. Faster logic costs silicon and power, so the Pareto engine
    /// minimizes this axis.
    pub fn le_mhz(&self) -> f64 {
        let cfg = self.radram_config();
        f64::from(cfg.les_per_page) * cfg.logic_mhz()
    }

    /// Estimated processor-side cache area in bytes: data arrays plus eight
    /// bytes of tag/state per line, summed over L1I, L1D and L2. Only the
    /// L1D geometry varies in the stock grids, but all three caches are
    /// counted so the axis stays meaningful as the grid grows.
    pub fn area_bytes(&self) -> u64 {
        let cfg = self.radram_config();
        let h = &cfg.cpu.hierarchy;
        [&h.l1i, &h.l1d, &h.l2].iter().map(|c| (c.size + (c.size / c.line) * 8) as u64).sum()
    }

    /// Compact human-readable label for tables and logs.
    pub fn label(&self) -> String {
        format!(
            "{} p{} l1d {}K/{}w/{}B div {}",
            self.app.name(),
            self.pages,
            self.l1d_size >> 10,
            self.l1d_assoc,
            self.l1d_block,
            self.logic_divisor,
        )
    }
}

/// A declarative design-space grid: the cross product of its axes for every
/// kernel in `apps`, run on both memory systems.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Kernels swept.
    pub apps: Vec<App>,
    /// Problem sizes in Active Pages.
    pub pages: Axis<f64>,
    /// L1 data-cache sizes in bytes.
    pub l1d_sizes: Axis<usize>,
    /// L1 data-cache associativities.
    pub l1d_assocs: Axis<usize>,
    /// L1 data-cache block sizes in bytes.
    pub l1d_blocks: Axis<usize>,
    /// Logic-clock divisors.
    pub logic_divisors: Axis<u64>,
}

impl Grid {
    /// The full exploration grid: every kernel, a sub-page through
    /// multi-page size ladder, 3 × 4 × 2 L1D geometries and four logic
    /// clocks — 2 592 design points, 5 184 runs per tier. Sized so an
    /// exhaustive accurate-tier sweep of the whole space takes well under a
    /// minute on two cores, not an overnight run.
    pub fn full() -> Grid {
        Grid {
            apps: App::ALL.to_vec(),
            pages: Axis::new("pages", vec![0.5, 2.0, 8.0]),
            l1d_sizes: Axis::new("l1d_size", vec![16 << 10, 64 << 10, 256 << 10]),
            l1d_assocs: Axis::new("l1d_assoc", vec![1, 2, 4, 8]),
            l1d_blocks: Axis::new("l1d_block", vec![32, 64]),
            logic_divisors: Axis::new("logic_divisor", vec![2, 10, 50, 128]),
        }
    }

    /// The smoke grid CI sweeps twice per push: three kernels over a
    /// 2 × 2 × 2 × 2 corner of the space (48 configs, 96 runs).
    pub fn quick() -> Grid {
        Grid {
            apps: vec![App::Database, App::Median, App::ArrayFind],
            pages: Axis::new("pages", vec![0.5, 2.0]),
            l1d_sizes: Axis::new("l1d_size", vec![16 << 10, 64 << 10]),
            l1d_assocs: Axis::new("l1d_assoc", vec![1, 2]),
            l1d_blocks: Axis::new("l1d_block", vec![32]),
            logic_divisors: Axis::new("logic_divisor", vec![2, 10]),
        }
    }

    /// [`Grid::quick`] when `quick`, [`Grid::full`] otherwise.
    pub fn for_quick(quick: bool) -> Grid {
        if quick {
            Grid::quick()
        } else {
            Grid::full()
        }
    }

    /// Number of design points the grid expands to.
    pub fn config_count(&self) -> usize {
        self.apps.len()
            * self.pages.len()
            * self.l1d_sizes.len()
            * self.l1d_assocs.len()
            * self.l1d_blocks.len()
            * self.logic_divisors.len()
    }

    /// Number of simulation runs one tier of the grid costs (two systems
    /// per design point).
    pub fn run_count(&self) -> usize {
        2 * self.config_count()
    }

    /// Expands the grid in canonical order: app-major, then pages, L1D
    /// size, associativity, block, logic divisor. Every front end relies on
    /// this order — config indices double as stable point ids.
    pub fn configs(&self) -> Vec<DseConfig> {
        let mut out = Vec::with_capacity(self.config_count());
        for &app in &self.apps {
            for &pages in &self.pages.values {
                for &l1d_size in &self.l1d_sizes.values {
                    for &l1d_assoc in &self.l1d_assocs.values {
                        for &l1d_block in &self.l1d_blocks.values {
                            for &logic_divisor in &self.logic_divisors.values {
                                out.push(DseConfig {
                                    app,
                                    pages,
                                    l1d_size,
                                    l1d_assoc,
                                    l1d_block,
                                    logic_divisor,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// One-line description of the axes for reports and logs.
    pub fn describe(&self) -> String {
        format!(
            "{} apps x {} pages x {} l1d sizes x {} assocs x {} blocks x {} divisors \
             = {} configs ({} runs/tier)",
            self.apps.len(),
            self.pages.len(),
            self.l1d_sizes.len(),
            self.l1d_assocs.len(),
            self.l1d_blocks.len(),
            self.logic_divisors.len(),
            self.config_count(),
            self.run_count(),
        )
    }
}

/// One simulation run of a design point: a [`DseConfig`] pinned to one
/// memory system and execution tier, with the expanded [`RadramConfig`].
#[derive(Debug, Clone)]
pub struct DseSpec {
    /// Index of the originating config in the expansion order passed to
    /// [`expand`] — the id the [`crate::collect::Collector`] folds by.
    pub config_index: usize,
    /// Application kernel.
    pub app: App,
    /// Which memory system.
    pub kind: SystemKind,
    /// Problem size in Active Pages.
    pub pages: f64,
    /// Full machine configuration (see [`DseConfig::radram_config`]).
    pub cfg: RadramConfig,
    /// Execution tier.
    pub mode: ExecMode,
}

/// Expands configs to runs in canonical order: two specs per config,
/// conventional before RADram, on the given execution tier.
pub fn expand(configs: &[DseConfig], mode: ExecMode) -> Vec<DseSpec> {
    let mut specs = Vec::with_capacity(2 * configs.len());
    for (config_index, c) in configs.iter().enumerate() {
        let cfg = c.radram_config();
        for kind in [SystemKind::Conventional, SystemKind::Radram] {
            specs.push(DseSpec {
                config_index,
                app: c.app,
                kind,
                pages: c.pages,
                cfg: cfg.clone(),
                mode,
            });
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_sweeps_at_least_two_thousand_runs() {
        let grid = Grid::full();
        assert_eq!(grid.configs().len(), grid.config_count());
        assert!(grid.config_count() >= 2000, "got {}", grid.config_count());
        assert!(grid.run_count() >= 2000, "got {}", grid.run_count());
        assert!(grid.quick_is_smaller());
    }

    impl Grid {
        fn quick_is_smaller(&self) -> bool {
            Grid::quick().run_count() < self.run_count()
        }
    }

    #[test]
    fn quick_grid_is_ci_sized() {
        let grid = Grid::quick();
        assert!(grid.run_count() <= 128, "got {}", grid.run_count());
    }

    #[test]
    fn configs_expand_in_canonical_order_with_stable_ids() {
        let grid = Grid::quick();
        let configs = grid.configs();
        assert_eq!(configs, grid.configs(), "expansion must be deterministic");
        let specs = expand(&configs, ExecMode::Fast);
        assert_eq!(specs.len(), grid.run_count());
        for (i, pair) in specs.chunks(2).enumerate() {
            assert_eq!(pair[0].config_index, i);
            assert_eq!(pair[1].config_index, i);
            assert_eq!(pair[0].kind, SystemKind::Conventional);
            assert_eq!(pair[1].kind, SystemKind::Radram);
            assert_eq!(pair[0].cfg, pair[1].cfg);
        }
    }

    #[test]
    fn config_builders_compose_into_the_machine_config() {
        let c = DseConfig {
            app: App::Database,
            pages: 2.0,
            l1d_size: 16 << 10,
            l1d_assoc: 4,
            l1d_block: 64,
            logic_divisor: 50,
        };
        let cfg = c.radram_config();
        assert_eq!(cfg.cpu.hierarchy.l1d.size, 16 << 10);
        assert_eq!(cfg.cpu.hierarchy.l1d.assoc, 4);
        assert_eq!(cfg.cpu.hierarchy.l1d.line, 64);
        assert_eq!(cfg.logic_divisor, 50);
        // Untouched axes stay at reference values.
        assert_eq!(cfg.cpu.hierarchy.l2.size, 1 << 20);
    }

    #[test]
    fn objective_axes_track_the_knobs() {
        let base = DseConfig {
            app: App::Median,
            pages: 0.5,
            l1d_size: 64 << 10,
            l1d_assoc: 2,
            l1d_block: 32,
            logic_divisor: 10,
        };
        let fast_logic = DseConfig { logic_divisor: 2, ..base.clone() };
        assert!(fast_logic.le_mhz() > base.le_mhz(), "faster logic costs more LE-MHz");
        let big_cache = DseConfig { l1d_size: 256 << 10, ..base.clone() };
        assert!(big_cache.area_bytes() > base.area_bytes());
        let wide_lines = DseConfig { l1d_block: 64, ..base.clone() };
        assert!(wide_lines.area_bytes() < base.area_bytes(), "fewer lines, less tag overhead");
        assert!(base.label().contains("median"), "{}", base.label());
    }

    #[test]
    fn every_grid_geometry_is_a_legal_cache_shape() {
        // sets = size / (assoc * line) must stay a power of two for the
        // set-index arithmetic in both the oracle and the fast tier.
        for grid in [Grid::full(), Grid::quick()] {
            for &size in &grid.l1d_sizes.values {
                for &assoc in &grid.l1d_assocs.values {
                    for &line in &grid.l1d_blocks.values {
                        let sets = size / (assoc * line);
                        assert!(sets.is_power_of_two() && sets >= 1, "{size}/{assoc}/{line}");
                        // L2 lines must not be narrower than L1 lines.
                        assert!(line <= 64, "{line}");
                    }
                }
            }
        }
    }
}
