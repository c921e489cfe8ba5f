//! MPEG correction via MMX (paper Section 5.2).
//!
//! The kernel applies signed 16-bit correction matrices to predicted P/B
//! frame pixels with saturating MMX arithmetic. The conventional system
//! issues SimpleScalar MMX instructions that produce 32 bits of data each;
//! the RADram system dispatches the *same instruction sequence* as per-page
//! macro-operations, each producing kilobytes of data inside the memory
//! system ("a RADram MMX instruction can produce up to 256 kbytes of data
//! per instruction").

use crate::common::{fnv_mix, stage_le, RunReport, SystemKind};
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_cpu::mmx::{self, MmxOp};
use ap_workloads::mpeg::FrameWorkload;
use radram::{ExecMode, RadramConfig, System};
use std::sync::Arc;

/// Pixels processed per Active Page (each needs src, corr, tmp and out
/// regions in the page body).
pub const PX_PER_PAGE: usize = 65_536;

/// Pixels covered by one RADram MMX macro-instruction.
pub const PX_PER_MACRO_OP: usize = 2048;

/// Page-body offsets of the four regions.
pub(crate) const SRC_OFF: usize = sync::BODY_OFFSET;
pub(crate) const CORR_OFF: usize = SRC_OFF + PX_PER_PAGE;
const TMP_OFF: usize = CORR_OFF + 2 * PX_PER_PAGE;
pub(crate) const OUT_OFF: usize = TMP_OFF + 2 * PX_PER_PAGE;

/// RADram MMX macro-instruction opcodes (the subset the MPEG kernel uses).
const CMD_PUNPCKLBW: u32 = 1;
const CMD_PADDSW: u32 = 2;
const CMD_PACKUSWB: u32 = 3;

/// The per-page MMX engine (Table 3's `MPEG-MMX` circuit): two 16-bit
/// saturating lanes fed one 32-bit word per logic cycle.
#[derive(Debug)]
pub struct MmxPageFn;

impl PageFunction for MmxPageFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::whole_page_footprint()
    }

    fn name(&self) -> &'static str {
        "mpeg-mmx"
    }

    fn logic_elements(&self) -> u32 {
        ap_synth::circuits::logic_elements("MPEG-MMX")
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        let op = page.ctrl(sync::CMD);
        let px_off = page.ctrl(sync::PARAM) as usize;
        let px_len = page.ctrl(sync::PARAM + 1) as usize;
        debug_assert!(px_off + px_len <= PX_PER_PAGE);
        let (read_words, written_words) = match op {
            CMD_PUNPCKLBW => {
                // Expand px_len bytes of SRC into 16-bit words in TMP.
                for k in (0..px_len).step_by(4) {
                    let src = page.read_u32(SRC_OFF + px_off + k) as u64;
                    let wide = mmx::punpcklbw(src, 0);
                    page.write_u64(TMP_OFF + 2 * (px_off + k), wide);
                }
                (px_len / 4, px_len / 2)
            }
            CMD_PADDSW => {
                // TMP += CORR with signed word saturation.
                for k in (0..px_len).step_by(4) {
                    let t = page.read_u64(TMP_OFF + 2 * (px_off + k));
                    let c = page.read_u64(CORR_OFF + 2 * (px_off + k));
                    page.write_u64(TMP_OFF + 2 * (px_off + k), mmx::paddsw(t, c));
                }
                (px_len, px_len / 2)
            }
            CMD_PACKUSWB => {
                // Repack TMP words into OUT bytes with unsigned saturation.
                for k in (0..px_len).step_by(4) {
                    let t = page.read_u64(TMP_OFF + 2 * (px_off + k));
                    let packed = mmx::packuswb(t, 0) as u32;
                    page.write_u32(OUT_OFF + px_off + k, packed);
                }
                (px_len / 2, px_len / 4)
            }
            other => panic!("unknown RADram MMX opcode {other}"),
        };
        page.set_ctrl(sync::STATUS, sync::DONE);
        // The 32-bit port moves one word per logic cycle in each direction.
        Execution::run((read_words + written_words) as u64 + 8)
    }

    fn triggers(&self, word: usize, value: u32) -> bool {
        word == sync::CMD && (1..=3).contains(&value)
    }
}

/// Dispatches the RADram MMX macro-instruction stream that applies the
/// corrections already resident in the pages' CORR regions, round-robin
/// across pages, and waits for completion. Returns stall-free dispatch
/// cycles (shared by the plain kernel and the full decode pipeline).
pub(crate) fn apply_corrections(
    sys: &mut radram::System,
    base: ap_mem::VAddr,
    npages: usize,
    npx: usize,
) -> u64 {
    let mut dispatch = 0u64;
    let ops = [CMD_PUNPCKLBW, CMD_PADDSW, CMD_PACKUSWB];
    let chunks = PX_PER_PAGE.div_ceil(PX_PER_MACRO_OP);
    for chunk in 0..chunks {
        for &op in &ops {
            let batch: Vec<radram::PageActivation> = (0..npages)
                .filter_map(|p| {
                    let lo = p * PX_PER_PAGE;
                    let hi = ((p + 1) * PX_PER_PAGE).min(npx);
                    let off = chunk * PX_PER_MACRO_OP;
                    if lo + off >= hi {
                        return None;
                    }
                    let len = PX_PER_MACRO_OP.min(hi - lo - off);
                    Some(
                        radram::PageActivation::new(base + (p * PAGE_SIZE) as u64, op)
                            .with_param(sync::PARAM, off as u32)
                            .with_param(sync::PARAM + 1, len as u32),
                    )
                })
                .collect();
            let d0 = sys.now();
            let s0 = sys.non_overlap_cycles();
            sys.activate_pages(&batch);
            dispatch += (sys.now() - d0) - (sys.non_overlap_cycles() - s0);
        }
    }
    for p in 0..npages {
        sys.wait_done(base + (p * PAGE_SIZE) as u64);
    }
    dispatch
}

fn frame_for(pages: f64) -> FrameWorkload {
    let px = ((pages * PX_PER_PAGE as f64) as usize).max(16 * 512);
    let height = (px / 512).div_ceil(16) * 16;
    FrameWorkload::generate(0x3E6, 512, height.max(16), 0.3)
}

/// Runs the MPEG-MMX benchmark at `pages` problem size.
///
/// # Examples
///
/// ```no_run
/// use ap_apps::{mpeg, SystemKind};
/// use radram::RadramConfig;
///
/// let r = mpeg::run(SystemKind::Radram, 0.5, &RadramConfig::reference());
/// assert!(r.stats.activations >= 3); // unpack, add, pack per chunk
/// ```
pub fn run(kind: SystemKind, pages: f64, cfg: &RadramConfig) -> RunReport {
    run_mode(kind, pages, cfg, ExecMode::Accurate)
}

/// [`run`] on the execution tier `mode` selects (see DESIGN.md §13).
pub fn run_mode(kind: SystemKind, pages: f64, cfg: &RadramConfig, mode: ExecMode) -> RunReport {
    let frame = frame_for(pages);
    let npx = frame.predicted.len();
    let npages = npx.div_ceil(PX_PER_PAGE);
    let mut cfg = cfg.clone();
    cfg.ram_capacity = (npages + 6) * PAGE_SIZE + 8 * npx;
    match kind {
        SystemKind::Conventional => run_conventional(pages, &frame, cfg, mode),
        SystemKind::Radram => run_radram(pages, &frame, npages, cfg, mode),
    }
}

/// Folds every output pixel of `out` into `h`.
fn digest(h: u64, out: &[u8]) -> u64 {
    out.iter().fold(h, |h, &b| fnv_mix(h, b as u64))
}

fn run_conventional(
    pages: f64,
    frame: &FrameWorkload,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let mut sys = System::conventional_mode(cfg, mode);
    let npx = frame.predicted.len();
    let src = sys.ram_alloc(npx, 64);
    let corr = sys.ram_alloc(npx * 2, 64);
    let out = sys.ram_alloc(npx, 64);
    sys.ram_write_bytes(src, &frame.predicted);
    stage_le(&mut sys, corr, frame.correction.iter().map(|c| c.to_le_bytes()));

    let t0 = sys.kernel_start();
    // SimpleScalar MMX: 32 bits of result per instruction (4 pixels).
    for k in (0..npx).step_by(4) {
        let s = sys.load_u32(src + k as u64) as u64;
        let c = sys.load_u64(corr + (k * 2) as u64);
        let wide = sys.mmx(MmxOp::PAddSW, mmx::punpcklbw(s, 0), c);
        sys.mmx(MmxOp::PXor, 0, 0); // the unpack op itself
        let packed = mmx::packuswb(wide, 0) as u32;
        sys.mmx(MmxOp::POr, 0, 0); // the pack op itself
        sys.store_u32(out + k as u64, packed);
        sys.alu(2);
    }
    let kernel = sys.kernel_region(t0);
    let checksum = digest(0, sys.ram_slice(out, npx));
    debug_assert_eq!(checksum, digest(0, &frame.corrected()));
    RunReport {
        app: "mpeg-mmx",
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
    frame: &FrameWorkload,
    npages: usize,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let mut sys = System::radram_mode(cfg, mode);
    let group = GroupId::new(6);
    let base = sys.ap_alloc_pages(group, npages);
    sys.ap_bind(group, Arc::new(MmxPageFn));
    let npx = frame.predicted.len();
    // Untimed setup: distribute src and corr blocks.
    for p in 0..npages {
        let pb = base + (p * PAGE_SIZE) as u64;
        let lo = p * PX_PER_PAGE;
        let hi = ((p + 1) * PX_PER_PAGE).min(npx);
        sys.ram_write_bytes(pb + SRC_OFF as u64, &frame.predicted[lo..hi]);
        let corr = frame.correction[lo..hi].iter().map(|c| c.to_le_bytes());
        stage_le(&mut sys, pb + CORR_OFF as u64, corr);
    }

    let t0 = sys.kernel_start();
    // MMX dispatch: round-robin the macro-instruction streams across the
    // pages so their engines run concurrently — the processor issues the
    // next op of each page in turn, like a scoreboard of outstanding
    // macro-instructions. Ops within one page's chunk stay ordered
    // (unpack -> add -> pack).
    let dispatch = apply_corrections(&mut sys, base, npages, npx);
    let kernel = sys.kernel_region(t0);

    let mut checksum = 0u64;
    for p in 0..npages {
        let pb = base + (p * PAGE_SIZE) as u64;
        let lo = p * PX_PER_PAGE;
        let hi = ((p + 1) * PX_PER_PAGE).min(npx);
        checksum = digest(checksum, sys.ram_slice(pb + OUT_OFF as u64, hi - lo));
    }
    RunReport {
        app: "mpeg-mmx",
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

    #[test]
    fn corrected_frames_match_across_systems() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 0.2, &cfg);
        let r = run(SystemKind::Radram, 0.2, &cfg);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn multi_page_frames_match() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 2.0, &cfg);
        let r = run(SystemKind::Radram, 2.0, &cfg);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn macro_op_stream_is_three_ops_per_chunk() {
        let cfg = RadramConfig::reference();
        let r = run(SystemKind::Radram, 1.0, &cfg);
        let chunks = (PX_PER_PAGE / PX_PER_MACRO_OP) as u64;
        assert_eq!(r.stats.activations, 3 * chunks);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time layout checks
    fn page_regions_fit() {
        assert!(OUT_OFF + PX_PER_PAGE <= PAGE_SIZE, "mpeg page layout overflows");
    }

    #[test]
    fn circuit_pipeline_equals_reference() {
        use active_pages::IdealExecutor;
        let frame = FrameWorkload::generate(9, 32, 16, 1.0);
        let n = frame.predicted.len();
        let mut exec = IdealExecutor::new(1);
        for (i, &p) in frame.predicted.iter().enumerate() {
            exec.page_mut(0)[SRC_OFF + i] = p;
        }
        for (i, &c) in frame.correction.iter().enumerate() {
            let off = CORR_OFF + 2 * i;
            exec.page_mut(0)[off..off + 2].copy_from_slice(&(c as u16).to_le_bytes());
        }
        for op in [CMD_PUNPCKLBW, CMD_PADDSW, CMD_PACKUSWB] {
            exec.write_u32(0, sync::ctrl_offset(sync::PARAM), 0);
            exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 1), n as u32);
            exec.write_u32(0, sync::ctrl_offset(sync::CMD), op);
            exec.activate(&MmxPageFn, 0);
        }
        let expect = frame.corrected();
        for (i, want) in expect.iter().enumerate().take(n) {
            assert_eq!(exec.page(0)[OUT_OFF + i], *want, "pixel {i}");
        }
    }
}
