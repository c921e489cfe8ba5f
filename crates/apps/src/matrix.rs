//! Sparse matrix multiply by compare-gather-compute (paper Section 5.2).
//!
//! The kernel is the sparse vector-vector dot product: for each pair of
//! sparse rows, merge the two index streams, gather the values whose indices
//! match, multiply and accumulate. Conventionally the processor does all of
//! it and starves on memory bandwidth; on RADram the pages compare indices
//! and gather matched values into packed cache-line-sized blocks, and the
//! processor reads only "useful" data and runs the floating point at full
//! speed (Table 2: "Floating point multiplies" vs "Index comparison and
//! gather/scatter of data").
//!
//! Two variants reproduce the paper's datasets: `Boeing` (finite-element
//! matrices with irregular fill — the Harwell-Boeing stand-in) and
//! `Simplex` (register-allocation tableaus with regular fill).

use crate::common::{fnv_mix, put_le, stage_le, RunReport, SystemKind};
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_mem::VAddr;
use ap_workloads::sparse::SparseMatrix;
use radram::{ExecMode, PageActivation, RadramConfig, System};
use std::sync::Arc;

/// Nominal dot-product pairs per Active Page.
pub const PAIRS_PER_PAGE: usize = 1300;

/// Page-body offset where the packed gather output begins.
const OUT_OFF: usize = sync::BODY_OFFSET + 360_000;
/// Offset of the gathered value pairs (after the per-pair match counts).
const GATHER_OFF: usize = OUT_OFF + 16_384;

const CMD_GATHER: u32 = 1;

/// Which evaluation dataset the run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixVariant {
    /// Simplex register-allocation tableaus (regular fill).
    Simplex,
    /// Finite-element matrices in the Harwell-Boeing style (irregular fill).
    Boeing,
}

impl MatrixVariant {
    /// Benchmark name used in figures.
    pub fn app_name(self) -> &'static str {
        match self {
            MatrixVariant::Simplex => "matrix-simplex",
            MatrixVariant::Boeing => "matrix-boeing",
        }
    }

    fn matrices(self, pairs: usize) -> (SparseMatrix, SparseMatrix) {
        match self {
            MatrixVariant::Simplex => (
                SparseMatrix::simplex_tableau(0x51, pairs, 4096),
                SparseMatrix::simplex_tableau(0x52, pairs, 4096),
            ),
            MatrixVariant::Boeing => (
                SparseMatrix::finite_element(0xB0, pairs, 48),
                SparseMatrix::finite_element(0xB1, pairs, 48),
            ),
        }
    }
}

/// The per-page compare-gather engine (Table 3's `Matrix` circuit).
#[derive(Debug)]
pub struct MatrixGatherFn;

impl PageFunction for MatrixGatherFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::whole_page_footprint()
    }

    fn name(&self) -> &'static str {
        "matrix"
    }

    fn logic_elements(&self) -> u32 {
        ap_synth::circuits::logic_elements("Matrix")
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        debug_assert_eq!(page.ctrl(sync::CMD), CMD_GATHER);
        let npairs = page.ctrl(sync::PARAM) as usize;
        let mut in_off = sync::BODY_OFFSET;
        let mut gather = GATHER_OFF;
        let mut idx_cycles = 0u64;
        let mut matches_total = 0u64;
        for pair in 0..npairs {
            let nnz_a = page.read_u32(in_off) as usize;
            let nnz_b = page.read_u32(in_off + 4) as usize;
            let idx_a = in_off + 8;
            let val_a = idx_a + nnz_a * 4;
            let idx_b = val_a + nnz_a * 8;
            let val_b = idx_b + nnz_b * 4;
            let (mut i, mut j) = (0usize, 0usize);
            let mut matches = 0u32;
            while i < nnz_a && j < nnz_b {
                let ia = page.read_u32(idx_a + i * 4);
                let ib = page.read_u32(idx_b + j * 4);
                match ia.cmp(&ib) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let a = page.read_u64(val_a + i * 8);
                        let b = page.read_u64(val_b + j * 8);
                        page.write_u64(gather, a);
                        page.write_u64(gather + 8, b);
                        gather += 16;
                        matches += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            page.write_u32(OUT_OFF + pair * 4, matches);
            idx_cycles += (nnz_a + nnz_b) as u64;
            matches_total += matches as u64;
            in_off = val_b + nnz_b * 8;
        }
        page.set_ctrl(sync::STATUS, sync::DONE);
        // One index word per logic cycle for the merge, four words per
        // gathered value pair, small per-pair restart overhead.
        Execution::run(idx_cycles + matches_total * 4 + npairs as u64 * 4 + 16)
    }
}

/// Builds the per-page pair layout; returns (page, pair-count) spans and the
/// serialized layout writer.
struct Layout {
    /// Pair index ranges per page.
    spans: Vec<(usize, usize)>,
}

fn plan_layout(a: &SparseMatrix, b: &SparseMatrix) -> Layout {
    let mut spans = Vec::new();
    let mut start = 0;
    let mut off = 0usize;
    let mut out = 0usize;
    for r in 0..a.rows {
        let bytes = 8 + a.row_indices(r).len() * 12 + b.row_indices(r).len() * 12;
        let out_bytes = 16 * a.row_indices(r).len().min(b.row_indices(r).len()) + 4;
        if off + bytes > 340_000 || out + out_bytes > 140_000 {
            spans.push((start, r));
            start = r;
            off = 0;
            out = 0;
        }
        off += bytes;
        out += out_bytes;
    }
    spans.push((start, a.rows));
    Layout { spans }
}

fn pair_count(pages: f64) -> usize {
    ((pages * PAIRS_PER_PAGE as f64) as usize).max(32)
}

/// Runs a sparse-matrix benchmark variant at `pages` problem size.
///
/// # Examples
///
/// ```no_run
/// use ap_apps::{matrix, SystemKind};
/// use radram::RadramConfig;
///
/// let r = matrix::run(matrix::MatrixVariant::Simplex, SystemKind::Radram, 1.0,
///                     &RadramConfig::reference());
/// assert!(r.stats.activations >= 1);
/// ```
pub fn run(variant: MatrixVariant, kind: SystemKind, pages: f64, cfg: &RadramConfig) -> RunReport {
    run_mode(variant, kind, pages, cfg, ExecMode::Accurate)
}

/// [`run`] on the execution tier `mode` selects (see DESIGN.md §13).
pub fn run_mode(
    variant: MatrixVariant,
    kind: SystemKind,
    pages: f64,
    cfg: &RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let pairs = pair_count(pages);
    let (a, b) = variant.matrices(pairs);
    let mut cfg = cfg.clone();
    let data_bytes = 16 + a.nnz() * 12 + b.nnz() * 12 + pairs * 24;
    cfg.ram_capacity = ((pages.ceil() as usize) + 8) * PAGE_SIZE + 2 * data_bytes;
    match kind {
        SystemKind::Conventional => run_conventional(variant, pages, &a, &b, cfg, mode),
        SystemKind::Radram => run_radram(variant, pages, &a, &b, cfg, mode),
    }
}

fn digest_results(sys: &System, results: VAddr, pairs: usize) -> u64 {
    let mut h = fnv_mix(0, pairs as u64);
    for r in 0..pairs {
        h = fnv_mix(h, sys.ram_read_u64(results + (r * 8) as u64));
    }
    h
}

fn run_conventional(
    variant: MatrixVariant,
    pages: f64,
    a: &SparseMatrix,
    b: &SparseMatrix,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let mut sys = System::conventional_mode(cfg, mode);
    let pairs = a.rows;
    // Serialize both matrices row-wise: idx and val arrays per row.
    let idx_a = sys.ram_alloc(a.nnz() * 4, 64);
    let val_a = sys.ram_alloc(a.nnz() * 8, 64);
    let idx_b = sys.ram_alloc(b.nnz() * 4, 64);
    let val_b = sys.ram_alloc(b.nnz() * 8, 64);
    let results = sys.ram_alloc(pairs * 8, 64);
    stage_le(&mut sys, idx_a, a.col_idx.iter().map(|c| c.to_le_bytes()));
    stage_le(&mut sys, val_a, a.values.iter().map(|v| v.to_le_bytes()));
    stage_le(&mut sys, idx_b, b.col_idx.iter().map(|c| c.to_le_bytes()));
    stage_le(&mut sys, val_b, b.values.iter().map(|v| v.to_le_bytes()));

    let t0 = sys.kernel_start();
    for r in 0..pairs {
        let (a0, a1) = (a.row_ptr[r] as usize, a.row_ptr[r + 1] as usize);
        let (b0, b1) = (b.row_ptr[r] as usize, b.row_ptr[r + 1] as usize);
        let (mut i, mut j) = (a0, b0);
        let mut acc = 0.0f64;
        while i < a1 && j < b1 {
            let ia = sys.load_u32(idx_a + (i * 4) as u64);
            let ib = sys.load_u32(idx_b + (j * 4) as u64);
            sys.alu(2);
            if sys.branch(41, ia == ib) {
                let va = sys.load_f64(val_a + (i * 8) as u64);
                let vb = sys.load_f64(val_b + (j * 8) as u64);
                sys.flop(2); // multiply + accumulate
                acc += va * vb;
                i += 1;
                j += 1;
            } else if sys.branch(42, ia < ib) {
                i += 1;
            } else {
                j += 1;
            }
        }
        sys.store_f64(results + (r * 8) as u64, acc);
        sys.alu(3);
    }
    let kernel = sys.kernel_region(t0);
    let checksum = digest_results(&sys, results, pairs);
    RunReport {
        app: variant.app_name(),
        system: SystemKind::Conventional,
        mode: sys.mode(),
        pages,
        kernel_cycles: kernel,
        total_cycles: kernel,
        dispatch_cycles: 0,
        checksum,
        stats: sys.stats(),
    }
}

fn run_radram(
    variant: MatrixVariant,
    pages: f64,
    a: &SparseMatrix,
    b: &SparseMatrix,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let layout = plan_layout(a, b);
    let npages = layout.spans.len();
    let mut cfg = cfg;
    cfg.ram_capacity = cfg.ram_capacity.max((npages + 8) * PAGE_SIZE);
    let mut sys = System::radram_mode(cfg, mode);
    let group = GroupId::new(5);
    let base = sys.ap_alloc_pages(group, npages);
    sys.ap_bind(group, Arc::new(MatrixGatherFn));
    let results = sys.ram_alloc(a.rows * 8, 64);

    // Untimed setup: co-locate each pair's two rows on its page.
    for (p, &(lo, hi)) in layout.spans.iter().enumerate() {
        let body = base + (p * PAGE_SIZE + sync::BODY_OFFSET) as u64;
        let mut dst = sys.ram_slice_mut(body, PAGE_SIZE - sync::BODY_OFFSET);
        for r in lo..hi {
            let (ra, va) = (a.row_indices(r), a.row_values(r));
            let (rb, vb) = (b.row_indices(r), b.row_values(r));
            let lens = [ra.len() as u32, rb.len() as u32];
            dst = put_le(dst, lens.iter().map(|n| n.to_le_bytes()));
            dst = put_le(dst, ra.iter().map(|c| c.to_le_bytes()));
            dst = put_le(dst, va.iter().map(|v| v.to_le_bytes()));
            dst = put_le(dst, rb.iter().map(|c| c.to_le_bytes()));
            dst = put_le(dst, vb.iter().map(|v| v.to_le_bytes()));
        }
    }

    let t0 = sys.kernel_start();
    // Dispatch the gathers.
    let batch: Vec<PageActivation> = layout
        .spans
        .iter()
        .enumerate()
        .map(|(p, &(lo, hi))| {
            PageActivation::new(base + (p * PAGE_SIZE) as u64, CMD_GATHER)
                .with_param(sync::PARAM, (hi - lo) as u32)
        })
        .collect();
    sys.activate_pages(&batch);
    let dispatch = sys.now() - t0;
    // Compute: read each page's packed operand pairs and multiply at full
    // floating-point speed.
    for (p, &(lo, hi)) in layout.spans.iter().enumerate() {
        let pb = base + (p * PAGE_SIZE) as u64;
        sys.wait_done(pb);
        let mut gather = pb + GATHER_OFF as u64;
        for r in lo..hi {
            let matches = sys.load_u32(pb + (OUT_OFF + (r - lo) * 4) as u64);
            sys.alu(2);
            let mut acc = 0.0f64;
            for _ in 0..matches {
                let va = sys.load_f64(gather);
                let vb = sys.load_f64(gather + 8);
                sys.flop(2);
                acc += va * vb;
                gather += 16;
            }
            sys.store_f64(results + (r * 8) as u64, acc);
            sys.alu(3);
        }
    }
    let kernel = sys.kernel_region(t0);
    let checksum = digest_results(&sys, results, a.rows);
    RunReport {
        app: variant.app_name(),
        system: SystemKind::Radram,
        mode: sys.mode(),
        pages,
        kernel_cycles: kernel,
        total_cycles: kernel,
        dispatch_cycles: dispatch,
        checksum,
        stats: sys.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::speedup;

    #[test]
    fn simplex_results_match_across_systems() {
        let cfg = RadramConfig::reference();
        let c = run(MatrixVariant::Simplex, SystemKind::Conventional, 0.3, &cfg);
        let r = run(MatrixVariant::Simplex, SystemKind::Radram, 0.3, &cfg);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn boeing_results_match_across_systems_multi_page() {
        let cfg = RadramConfig::reference();
        let c = run(MatrixVariant::Boeing, SystemKind::Conventional, 2.0, &cfg);
        let r = run(MatrixVariant::Boeing, SystemKind::Radram, 2.0, &cfg);
        assert_eq!(c.checksum, r.checksum);
        assert!(speedup(&c, &r) > 1.0);
    }

    #[test]
    fn dot_products_match_reference() {
        // The gathered-and-multiplied results must equal direct row-by-row
        // reference dot products.
        let (a, b) = MatrixVariant::Simplex.matrices(64);
        let cfg = RadramConfig::reference();
        let r = run_radram(MatrixVariant::Simplex, 0.05, &a, &b, cfg, ExecMode::Accurate);
        // Recompute reference checksum.
        let mut h = fnv_mix(0, a.rows as u64);
        for row in 0..a.rows {
            let (ra, va) = (a.row_indices(row), a.row_values(row));
            let (rb, vb) = (b.row_indices(row), b.row_values(row));
            let (mut i, mut j) = (0, 0);
            let mut acc = 0.0f64;
            while i < ra.len() && j < rb.len() {
                match ra[i].cmp(&rb[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        acc += va[i] * vb[j];
                        i += 1;
                        j += 1;
                    }
                }
            }
            h = fnv_mix(h, acc.to_bits());
        }
        assert_eq!(r.checksum, h);
    }

    #[test]
    fn layout_respects_page_capacity() {
        let (a, b) = MatrixVariant::Boeing.matrices(5000);
        let layout = plan_layout(&a, &b);
        for &(lo, hi) in &layout.spans {
            let bytes: usize = (lo..hi)
                .map(|r| 8 + a.row_indices(r).len() * 12 + b.row_indices(r).len() * 12)
                .sum();
            assert!(bytes <= 340_000, "input region overflow");
        }
    }
}
