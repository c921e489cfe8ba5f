//! Largest common subsequence by dynamic programming (paper Section 5.1).
//!
//! The DP table is divided into row blocks, one per Active Page; pages fill
//! their blocks strip-by-strip in a wavefront, with the processor mediating
//! the boundary row between consecutive pages (Section 3's
//! processor-mediated inter-page communication) and performing the final
//! backtracking (Table 2).

use crate::common::{fnv_mix, RunReport, SystemKind};
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_mem::VAddr;
use ap_workloads::dna::SequencePair;
use radram::{ExecMode, RadramConfig, System};
use std::sync::Arc;

/// Table columns (sequence B length).
pub const COLS: usize = 4096;

/// Wavefront strip width in columns.
pub const STRIP: usize = 1024;

/// Table rows held by one Active Page.
pub const ROWS_PER_PAGE: usize = 62;

/// Page-body offsets of the per-page regions.
const TABLE_OFF: usize = sync::BODY_OFFSET;
const STAGE_OFF: usize = TABLE_OFF + ROWS_PER_PAGE * COLS * 2;
const ACHARS_OFF: usize = STAGE_OFF + COLS * 2;
const BCHARS_OFF: usize = ACHARS_OFF + 64;

const CMD_FILL: u32 = 1;

/// The per-page LCS wavefront engine (Table 3's `Dynamic Prog` circuit):
/// computes MINs/MAXes and fills its strip of the table, one cell per logic
/// cycle.
#[derive(Debug)]
pub struct LcsFn;

/// [`LcsFn`]'s sibling that *declares* its boundary row as a non-local
/// reference instead of relying on the application to stage it: the page
/// "blocks and raises a processor interrupt" (or uses the in-chip network
/// under [`radram::CommMode::HardwareCopy`]) before computing.
#[derive(Debug)]
pub struct LcsIntrFn;

impl PageFunction for LcsIntrFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::whole_page_footprint()
    }

    fn name(&self) -> &'static str {
        "dynamic-prog-intr"
    }

    fn logic_elements(&self) -> u32 {
        LcsFn.logic_elements()
    }

    fn inter_page_requests(&self, page: &PageSlice<'_>) -> Vec<active_pages::CopyRequest> {
        if page.ctrl(sync::PARAM + 2) == 1 {
            return Vec::new(); // first page: boundary row is all zeros
        }
        let s = page.ctrl(sync::PARAM) as usize;
        let prev_rows = page.ctrl(sync::PARAM + 3) as usize;
        let base = page.info().base;
        let prev = ap_mem::VAddr::new(base.get() - PAGE_SIZE as u64);
        let j_start = (s * STRIP).saturating_sub(2) & !1;
        let j_end = (s + 1) * STRIP;
        vec![active_pages::CopyRequest {
            dst: base + (STAGE_OFF + j_start * 2) as u64,
            src: prev + (TABLE_OFF + ((prev_rows - 1) * COLS + j_start) * 2) as u64,
            len: (j_end - j_start) * 2,
        }]
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        fill_strip(page)
    }
}

impl PageFunction for LcsFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::whole_page_footprint()
    }

    fn name(&self) -> &'static str {
        "dynamic-prog"
    }

    fn logic_elements(&self) -> u32 {
        ap_synth::circuits::logic_elements("Dynamic Prog")
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        fill_strip(page)
    }
}

/// The shared strip-fill computation of both LCS circuits.
fn fill_strip(page: &mut PageSlice<'_>) -> Execution {
    {
        debug_assert_eq!(page.ctrl(sync::CMD), CMD_FILL);
        let strip = page.ctrl(sync::PARAM) as usize;
        let rows = page.ctrl(sync::PARAM + 1) as usize;
        let first_page = page.ctrl(sync::PARAM + 2) == 1;
        let j0 = strip * STRIP;
        let j1 = j0 + STRIP;

        let cell = |p: &PageSlice<'_>, k: usize, j: usize| -> u16 {
            p.read_u16(TABLE_OFF + (k * COLS + j) * 2)
        };
        for k in 0..rows {
            let a = page.read_u8(ACHARS_OFF + k);
            for j in j0..j1 {
                let b = page.read_u8(BCHARS_OFF + j);
                // up / diag come from the previous row; for the first local
                // row they come from the staged boundary (zero on page 0).
                let (up, diag) = if k == 0 {
                    if first_page {
                        (0, 0)
                    } else {
                        let up = page.read_u16(STAGE_OFF + j * 2);
                        let diag = if j == 0 { 0 } else { page.read_u16(STAGE_OFF + (j - 1) * 2) };
                        (up, diag)
                    }
                } else {
                    let up = cell(page, k - 1, j);
                    let diag = if j == 0 { 0 } else { cell(page, k - 1, j - 1) };
                    (up, diag)
                };
                let left = if j == 0 { 0 } else { cell(page, k, j - 1) };
                let v = if a == b { diag + 1 } else { up.max(left) };
                page.write_u16(TABLE_OFF + (k * COLS + j) * 2, v);
            }
        }
        page.set_ctrl(sync::STATUS, sync::DONE);
        // One cell per logic cycle through the pipelined min/match unit.
        Execution::run((rows * STRIP) as u64 + 32)
    }
}

fn dims(pages: f64) -> (usize, usize) {
    let n = ((pages * ROWS_PER_PAGE as f64) as usize).max(16);
    let p = n.div_ceil(ROWS_PER_PAGE);
    (n, p)
}

/// How the wavefront's page-boundary rows move between pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryMode {
    /// The application stages boundaries with explicit processor copies
    /// before each activation (the partition used in the evaluation).
    #[default]
    AppDriven,
    /// The circuit declares the boundary as a non-local reference and
    /// blocks until the memory system satisfies it (paper Section 3 /
    /// Section 10 mechanism; interacts with [`radram::CommMode`]).
    CircuitRequested,
}

/// Runs the dynamic-programming benchmark at `pages` problem size with the
/// evaluation's app-driven boundary staging.
///
/// `mode` picks the execution tier (see DESIGN.md §13).
///
/// # Examples
///
/// ```no_run
/// use ap_apps::{lcs, ExecMode, SystemKind};
/// use radram::RadramConfig;
///
/// let r = lcs::run(SystemKind::Radram, 1.0, &RadramConfig::reference(), ExecMode::Accurate);
/// assert!(r.kernel_cycles > 0);
/// ```
pub fn run(kind: SystemKind, pages: f64, cfg: &RadramConfig, mode: ExecMode) -> RunReport {
    run_with(kind, pages, cfg, BoundaryMode::AppDriven, mode)
}

/// [`run`] with an explicit boundary-communication mode (ablation hook).
pub fn run_with(
    kind: SystemKind,
    pages: f64,
    cfg: &RadramConfig,
    boundary: BoundaryMode,
    mode: ExecMode,
) -> RunReport {
    let (n, p) = dims(pages);
    let pair = seqs(n);
    let mut cfg = cfg.clone();
    cfg.ram_capacity = (p + 4) * PAGE_SIZE + 4 * n * COLS;
    match kind {
        SystemKind::Conventional => run_conventional(pages, &pair, n, cfg, mode),
        SystemKind::Radram => run_radram(pages, &pair, n, p, cfg, boundary, mode),
    }
}

fn seqs(n: usize) -> SequencePair {
    let mut pair = SequencePair::generate(0xDAA, n, 0.15);
    // B is pinned at COLS characters: pad with a deterministic tail or trim.
    let mut b = pair.b.clone();
    while b.len() < COLS {
        b.push(b"ACGT"[b.len() % 4]);
    }
    b.truncate(COLS);
    pair.b = b;
    pair
}

/// Shared backtracking pass: walks the filled table from `(n-1, m-1)` using
/// timed loads and returns the digest of the reconstructed subsequence.
fn backtrack(
    sys: &mut System,
    pair: &SequencePair,
    n: usize,
    cell_addr: &dyn Fn(usize, usize) -> VAddr,
    a_buf: VAddr,
    b_buf: VAddr,
) -> u64 {
    let mut out = Vec::new();
    let (mut i, mut j) = (n as isize - 1, COLS as isize - 1);
    while i >= 0 && j >= 0 {
        let a = sys.load_u8(a_buf + i as u64);
        let b = sys.load_u8(b_buf + j as u64);
        sys.alu(2);
        if sys.branch(31, a == b) {
            out.push(a);
            i -= 1;
            j -= 1;
        } else {
            let up = if i > 0 { sys.load_u16(cell_addr(i as usize - 1, j as usize)) } else { 0 };
            let left = if j > 0 { sys.load_u16(cell_addr(i as usize, j as usize - 1)) } else { 0 };
            sys.alu(2);
            if sys.branch(32, up >= left) {
                i -= 1;
            } else {
                j -= 1;
            }
        }
    }
    out.reverse();
    let mut h = fnv_mix(0, out.len() as u64);
    for c in out {
        h = fnv_mix(h, c as u64);
    }
    let _ = pair;
    h
}

fn run_conventional(
    pages: f64,
    pair: &SequencePair,
    n: usize,
    cfg: RadramConfig,
    exec: ExecMode,
) -> RunReport {
    let mut sys = System::conventional_mode(cfg, exec);
    let a_buf = sys.ram_alloc(n, 8);
    let b_buf = sys.ram_alloc(COLS, 8);
    let table = sys.ram_alloc(n * COLS * 2, 64);
    sys.ram_write_bytes(a_buf, &pair.a);
    sys.ram_write_bytes(b_buf, &pair.b);

    let t0 = sys.kernel_start();
    for i in 0..n {
        let a = sys.load_u8(a_buf + i as u64);
        let mut left = 0u16;
        let mut diag = 0u16;
        for j in 0..COLS {
            let b = sys.load_u8(b_buf + j as u64);
            let up =
                if i > 0 { sys.load_u16(table + (((i - 1) * COLS + j) * 2) as u64) } else { 0 };
            sys.alu(2);
            let v = if sys.branch(21, a == b) { diag + 1 } else { up.max(left) };
            sys.store_u16(table + ((i * COLS + j) * 2) as u64, v);
            sys.alu(2);
            diag = up;
            left = v;
        }
    }
    let addr = |i: usize, j: usize| table + ((i * COLS + j) * 2) as u64;
    let checksum = backtrack(&mut sys, pair, n, &addr, a_buf, b_buf);
    let kernel = sys.kernel_region(t0);
    // Cross-check the DP against the reference implementation.
    debug_assert_eq!(
        sys.ram_read_u16(addr(n - 1, COLS - 1)) as usize,
        pair.lcs_length(),
        "conventional DP diverged from reference"
    );
    RunReport {
        app: "dynamic-prog",
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
    pages: f64,
    pair: &SequencePair,
    n: usize,
    npages: usize,
    cfg: RadramConfig,
    mode: BoundaryMode,
    exec: ExecMode,
) -> RunReport {
    let mut sys = System::radram_mode(cfg, exec);
    let group = GroupId::new(4);
    let base = sys.ap_alloc_pages(group, npages);
    match mode {
        BoundaryMode::AppDriven => sys.ap_bind(group, Arc::new(LcsFn)),
        BoundaryMode::CircuitRequested => sys.ap_bind(group, Arc::new(LcsIntrFn)),
    }
    let a_buf = sys.ram_alloc(n, 8);
    let b_buf = sys.ram_alloc(COLS, 8);
    sys.ram_write_bytes(a_buf, &pair.a);
    sys.ram_write_bytes(b_buf, &pair.b);
    // Untimed setup: each page gets its slice of A and all of B.
    for p in 0..npages {
        let pb = base + (p * PAGE_SIZE) as u64;
        let a0 = p * ROWS_PER_PAGE;
        sys.ram_write_bytes(pb + ACHARS_OFF as u64, &pair.a[a0..a0 + rows_of(p, n)]);
        sys.ram_write_bytes(pb + BCHARS_OFF as u64, &pair.b);
    }

    let strips = COLS / STRIP;
    let t0 = sys.kernel_start();
    let mut dispatch = 0u64;
    // Wavefront over (page, strip) anti-diagonals. Each diagonal runs in
    // two passes: first the processor mediates every boundary copy (the
    // predecessor pages finished their strips on the previous diagonal and
    // are idle), then it activates the whole diagonal so the strips of
    // different pages execute concurrently.
    for d in 0..(npages + strips - 1) {
        let pairs: Vec<(usize, usize)> = (0..npages)
            .filter_map(|p| d.checked_sub(p).filter(|&s| s < strips).map(|s| (p, s)))
            .collect();
        for &(p, s) in &pairs {
            if p == 0 || mode == BoundaryMode::CircuitRequested {
                continue;
            }
            // Processor-mediated boundary: copy the previous page's last
            // table row segment (one extra cell for the diagonal) into this
            // page's staging row, word at a time (two cells per load).
            let pb = base + (p * PAGE_SIZE) as u64;
            let prev = base + ((p - 1) * PAGE_SIZE) as u64;
            let prev_rows = rows_of(p - 1, n);
            let d0 = sys.now();
            let s0 = sys.non_overlap_cycles();
            let j_start = (s * STRIP).saturating_sub(2) & !1;
            let j_end = (s + 1) * STRIP;
            for j in (j_start..j_end).step_by(2) {
                let v = sys.load_u32(prev + (TABLE_OFF + ((prev_rows - 1) * COLS + j) * 2) as u64);
                sys.store_u32(pb + (STAGE_OFF + j * 2) as u64, v);
                sys.alu(2);
            }
            dispatch += (sys.now() - d0) - (sys.non_overlap_cycles() - s0);
        }
        let batch: Vec<radram::PageActivation> = pairs
            .iter()
            .map(|&(p, s)| {
                let mut act = radram::PageActivation::new(base + (p * PAGE_SIZE) as u64, CMD_FILL)
                    .with_param(sync::PARAM, s as u32)
                    .with_param(sync::PARAM + 1, rows_of(p, n) as u32)
                    .with_param(sync::PARAM + 2, u32::from(p == 0));
                if mode == BoundaryMode::CircuitRequested && p > 0 {
                    act = act.with_param(sync::PARAM + 3, rows_of(p - 1, n) as u32);
                }
                act
            })
            .collect();
        let d0 = sys.now();
        let s0 = sys.non_overlap_cycles();
        sys.activate_pages(&batch);
        // Net of stalls waiting for the pages' own previous strips.
        dispatch += (sys.now() - d0) - (sys.non_overlap_cycles() - s0);
    }
    for p in 0..npages {
        sys.wait_done(base + (p * PAGE_SIZE) as u64);
    }
    // Backtracking runs on the processor over the distributed table.
    let addr = |i: usize, j: usize| {
        let p = i / ROWS_PER_PAGE;
        let k = i % ROWS_PER_PAGE;
        base + (p * PAGE_SIZE) as u64 + (TABLE_OFF + (k * COLS + j) * 2) as u64
    };
    let checksum = backtrack(&mut sys, pair, n, &addr, a_buf, b_buf);
    let kernel = sys.kernel_region(t0);
    debug_assert_eq!(
        sys.ram_read_u16(addr(n - 1, COLS - 1)) as usize,
        pair.lcs_length(),
        "wavefront DP diverged from reference"
    );
    RunReport {
        app: "dynamic-prog",
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

fn rows_of(p: usize, n: usize) -> usize {
    (n - p * ROWS_PER_PAGE).min(ROWS_PER_PAGE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::speedup;

    #[test]
    fn lcs_matches_across_systems_single_page() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 0.4, &cfg, ExecMode::Accurate);
        let r = run(SystemKind::Radram, 0.4, &cfg, ExecMode::Accurate);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn lcs_matches_across_systems_multi_page() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 2.0, &cfg, ExecMode::Accurate);
        let r = run(SystemKind::Radram, 2.0, &cfg, ExecMode::Accurate);
        assert_eq!(c.checksum, r.checksum, "boundary staging corrupted the wavefront");
        assert!(speedup(&c, &r) > 1.0);
    }

    #[test]
    fn wavefront_overlaps_pages() {
        // With several pages the anti-diagonal schedule must activate more
        // than (pages × strips) times... exactly that many, in fact.
        let cfg = RadramConfig::reference();
        let r = run(SystemKind::Radram, 3.0, &cfg, ExecMode::Accurate);
        assert_eq!(r.stats.activations as usize, 3 * (COLS / STRIP));
    }

    #[test]
    fn circuit_requested_boundaries_match_app_driven() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 1.8, &cfg, ExecMode::Accurate);
        let intr = run_with(
            SystemKind::Radram,
            1.8,
            &cfg,
            BoundaryMode::CircuitRequested,
            ExecMode::Accurate,
        );
        assert_eq!(c.checksum, intr.checksum, "interrupt-driven boundaries corrupted the table");
        assert!(intr.stats.interrupt_batches > 0, "expected processor-mediated interrupts");
        assert!(intr.stats.interpage_copies > 0);
    }

    #[test]
    fn hardware_boundaries_match_and_skip_interrupts() {
        let cfg = RadramConfig::reference().with_comm_mode(radram::CommMode::HardwareCopy);
        let base_cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 1.8, &base_cfg, ExecMode::Accurate);
        let hw = run_with(
            SystemKind::Radram,
            1.8,
            &cfg,
            BoundaryMode::CircuitRequested,
            ExecMode::Accurate,
        );
        assert_eq!(c.checksum, hw.checksum);
        assert_eq!(hw.stats.interrupt_batches, 0);
        assert!(hw.stats.interpage_copies > 0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time layout checks
    fn page_regions_fit() {
        assert!(BCHARS_OFF + COLS <= PAGE_SIZE, "page layout overflows");
        assert!(ROWS_PER_PAGE <= 64, "A-char region sized for 64 rows");
    }
}
