//! The full MPEG decode pipeline (paper Sections 5.2 and 10).
//!
//! "Future implementation of the MPEG algorithm will partition additional
//! components between the processor and RADram memory system. The processor
//! will be responsible for the Discrete Cosine Transform (DCT), while the
//! RADram system will handle ... application of motion correction matrices,
//! run length encoding and decoding (RLE), and Huffman encoding and
//! decoding."
//!
//! This module implements exactly that partition as an extension app:
//!
//! 1. **Entropy decode** — RLE + variable-length-code decoding of the
//!    coefficient bitstream runs inside *decode pages*
//!    ([`EntropyDecodeFn`], sized by the `ap-synth` `entropy-decode`
//!    circuit).
//! 2. **Inverse DCT** — the processor reads each block's coefficients,
//!    runs the IDCT at full floating-point speed, and scatters the
//!    correction plane into the MMX pages.
//! 3. **Correction application** — the RADram MMX macro-instruction stream
//!    of [`crate::mpeg`] saturating-adds the corrections to the predicted
//!    frame.
//!
//! The conventional implementation performs all three stages on the
//! processor. Both produce bit-identical frames.

use crate::common::{fnv_mix, RunReport, SystemKind};
use crate::mpeg::{apply_corrections, MmxPageFn, CORR_OFF, OUT_OFF, PX_PER_PAGE, SRC_OFF};
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_cpu::mmx::{self, MmxOp};
use ap_mem::VAddr;
use ap_workloads::entropy::{decode_block, encode_block, BitReader, BitWriter, BLOCK};
use ap_workloads::mpeg::{idct8x8, CodedFrame};
use radram::{ExecMode, RadramConfig, System};
use std::sync::Arc;
use std::sync::OnceLock;

/// Coefficient blocks decoded by one decode page (its 64 K pixels' worth).
pub const BLOCKS_PER_DPAGE: usize = PX_PER_PAGE / BLOCK;

/// Decode-page layout: bitstream input, then the coefficient output region.
const IN_OFF: usize = sync::BODY_OFFSET;
const COEF_OFF: usize = sync::BODY_OFFSET + 256 * 1024;

const CMD_DECODE: u32 = 1;

/// The in-page RLE/VLC decoder (the `entropy-decode` circuit): parses the
/// page's bitstream serially and writes raster-order coefficient blocks.
#[derive(Debug)]
pub struct EntropyDecodeFn;

impl PageFunction for EntropyDecodeFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::whole_page_footprint()
    }

    fn name(&self) -> &'static str {
        "entropy-decode"
    }

    fn logic_elements(&self) -> u32 {
        static LES: OnceLock<u32> = OnceLock::new();
        *LES.get_or_init(|| {
            let n = ap_synth::circuits::entropy_decode();
            ap_synth::mapper::map(&n).logic_elements
        })
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        debug_assert_eq!(page.ctrl(sync::CMD), CMD_DECODE);
        let nblocks = page.ctrl(sync::PARAM) as usize;
        let nbytes = page.ctrl(sync::PARAM + 1) as usize;
        let stream = page.slice(IN_OFF, nbytes).to_vec();
        let mut reader = BitReader::new(&stream);
        let mut symbols = 0u64;
        for b in 0..nblocks {
            let coeffs = decode_block(&mut reader)
                .unwrap_or_else(|| panic!("malformed bitstream in block {b}"));
            // One VLC symbol per nonzero coefficient, plus the EOB.
            symbols += coeffs.iter().filter(|&&c| c != 0).count() as u64 + 1;
            for (k, &c) in coeffs.iter().enumerate() {
                page.write_u16(COEF_OFF + b * BLOCK * 2 + k * 2, c as u16);
            }
        }
        let bits = reader.consumed() as u64;
        page.set_ctrl(sync::RESULT, bits as u32);
        page.set_ctrl(sync::STATUS, sync::DONE);
        // The barrel-shifted VLC window consumes one symbol every two logic
        // cycles; coefficient pairs stream out one 32-bit word per cycle.
        Execution::run(symbols * 2 + (nblocks * BLOCK / 2) as u64 + 16)
    }
}

/// Runs the decode pipeline at `pages` problem size (in MMX pages of
/// pixels, like the plain mpeg-mmx kernel).
///
/// `mode` picks the execution tier (see DESIGN.md §13).
///
/// # Examples
///
/// ```no_run
/// use ap_apps::{mpeg_decode, ExecMode, SystemKind};
/// use radram::RadramConfig;
///
/// let cfg = RadramConfig::reference();
/// let c = mpeg_decode::run(SystemKind::Conventional, 0.5, &cfg, ExecMode::Accurate);
/// let r = mpeg_decode::run(SystemKind::Radram, 0.5, &cfg, ExecMode::Accurate);
/// assert_eq!(c.checksum, r.checksum);
/// ```
pub fn run(kind: SystemKind, pages: f64, cfg: &RadramConfig, mode: ExecMode) -> RunReport {
    let px = ((pages * PX_PER_PAGE as f64) as usize).max(16 * 512);
    let height = (px / 512).div_ceil(16) * 16;
    let frame = CodedFrame::generate(0xDEC0DE, 512, height.max(16), 0.45);
    let npx = frame.predicted.len();
    let npages = npx.div_ceil(PX_PER_PAGE);
    let mut cfg = cfg.clone();
    cfg.ram_capacity = (2 * npages + 8) * PAGE_SIZE + 8 * npx;
    match kind {
        SystemKind::Conventional => run_conventional(pages, &frame, cfg, mode),
        SystemKind::Radram => run_radram(pages, &frame, npages, cfg, mode),
    }
}

/// Encodes the blocks `lo..hi` into one bitstream.
fn encode_span(frame: &CodedFrame, lo: usize, hi: usize) -> Vec<u8> {
    let mut w = BitWriter::new();
    for b in lo..hi {
        encode_block(&mut w, &frame.blocks[b]);
    }
    w.into_bytes()
}

fn digest(out: impl Iterator<Item = u8>) -> u64 {
    out.fold(0u64, |h, b| fnv_mix(h, b as u64))
}

/// Charges the processor for entropy-decoding `bits` of stream holding
/// `symbols` symbols: the bit-serial shift/test loop, symbol dispatch and
/// the stream word loads.
fn charge_conventional_decode(sys: &mut System, stream: VAddr, bits: u64, symbols: u64) {
    for w in 0..bits / 32 {
        let _ = sys.load_u32(stream + (w * 4));
    }
    sys.alu(bits * 2); // shift + leading-bit test per bit
    for s in 0..symbols {
        sys.alu(3);
        sys.branch(61, s % 3 == 0); // data-dependent code-class dispatch
    }
}

fn run_conventional(
    pages: f64,
    frame: &CodedFrame,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let mut sys = System::conventional_mode(cfg, mode);
    let npx = frame.predicted.len();
    let nblocks = frame.blocks.len();
    let stream_bytes = encode_span(frame, 0, nblocks);
    let stream = sys.ram_alloc(stream_bytes.len() + 4, 64);
    let coeffs = sys.ram_alloc(nblocks * BLOCK * 2, 64);
    let src = sys.ram_alloc(npx, 64);
    let corr = sys.ram_alloc(npx * 2, 64);
    let out = sys.ram_alloc(npx, 64);
    sys.ram_write_bytes(stream, &stream_bytes);
    sys.ram_write_bytes(src, &frame.predicted);

    let t0 = sys.kernel_start();
    // Stage 1: entropy decode on the processor.
    let mut reader = BitReader::new(&stream_bytes);
    for b in 0..nblocks {
        let before = reader.consumed();
        let block = decode_block(&mut reader).expect("stream is well formed");
        let bits = (reader.consumed() - before) as u64;
        charge_conventional_decode(&mut sys, stream, bits, bits / 6);
        for (k, &c) in block.iter().enumerate() {
            sys.store_u16(coeffs + (b * BLOCK + k) as u64 * 2, c as u16);
        }
    }
    // Stage 2: IDCT per block, building the correction plane.
    let bw = frame.width / 8;
    for b in 0..nblocks {
        let mut block = [0i16; BLOCK];
        for (k, slot) in block.iter_mut().enumerate() {
            *slot = sys.load_u16(coeffs + (b * BLOCK + k) as u64 * 2) as i16;
        }
        sys.flop(464); // a fast 2-D 8x8 IDCT
        sys.alu(64);
        let px = idct8x8(&block);
        let (bx, by) = ((b % bw) * 8, (b / bw) * 8);
        for y in 0..8 {
            for x in 0..8 {
                let i = (by + y) * frame.width + bx + x;
                sys.store_u16(corr + (i * 2) as u64, px[y * 8 + x] as u16);
            }
        }
    }
    // Stage 3: SimpleScalar-MMX correction application (32 bits/inst).
    for k in (0..npx).step_by(4) {
        let s = sys.load_u32(src + k as u64) as u64;
        let c = sys.load_u64(corr + (k * 2) as u64);
        let wide = sys.mmx(MmxOp::PAddSW, mmx::punpcklbw(s, 0), c);
        sys.mmx(MmxOp::PXor, 0, 0);
        let packed = mmx::packuswb(wide, 0) as u32;
        sys.mmx(MmxOp::POr, 0, 0);
        sys.store_u32(out + k as u64, packed);
        sys.alu(2);
    }
    let kernel = sys.kernel_region(t0);
    let checksum = digest((0..npx).map(|i| sys.ram_read_u8(out + i as u64)));
    debug_assert_eq!(checksum, digest(frame.corrected().into_iter()));
    RunReport {
        app: "mpeg-decode",
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
    frame: &CodedFrame,
    npages: usize,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let mut sys = System::radram_mode(cfg, mode);
    let npx = frame.predicted.len();
    let nblocks = frame.blocks.len();
    let m_group = GroupId::new(8);
    let d_group = GroupId::new(9);
    let m_base = sys.ap_alloc_pages(m_group, npages);
    let d_base = sys.ap_alloc_pages(d_group, npages);
    sys.ap_bind(m_group, Arc::new(MmxPageFn));
    sys.ap_bind(d_group, Arc::new(EntropyDecodeFn));

    // Untimed setup: predicted pixels into the MMX pages; the compressed
    // bitstream (the input file) into the decode pages.
    let mut dpage_meta = Vec::with_capacity(npages);
    for p in 0..npages {
        let mb = m_base + (p * PAGE_SIZE) as u64;
        let lo_px = p * PX_PER_PAGE;
        let hi_px = ((p + 1) * PX_PER_PAGE).min(npx);
        sys.ram_write_bytes(mb + SRC_OFF as u64, &frame.predicted[lo_px..hi_px]);
        let db = d_base + (p * PAGE_SIZE) as u64;
        let lo_b = p * BLOCKS_PER_DPAGE;
        let hi_b = ((p + 1) * BLOCKS_PER_DPAGE).min(nblocks);
        let stream = encode_span(frame, lo_b, hi_b);
        assert!(stream.len() <= COEF_OFF - IN_OFF, "bitstream overflows the input region");
        sys.ram_write_bytes(db + IN_OFF as u64, &stream);
        dpage_meta.push((hi_b - lo_b, stream.len()));
    }

    let t0 = sys.kernel_start();
    // Stage 1: in-page entropy decode, all pages in parallel.
    let mut dispatch = 0u64;
    let batch: Vec<radram::PageActivation> = dpage_meta
        .iter()
        .enumerate()
        .map(|(p, &(blocks, bytes))| {
            radram::PageActivation::new(d_base + (p * PAGE_SIZE) as u64, CMD_DECODE)
                .with_param(sync::PARAM, blocks as u32)
                .with_param(sync::PARAM + 1, bytes as u32)
        })
        .collect();
    let d0 = sys.now();
    sys.activate_pages(&batch);
    dispatch += sys.now() - d0;
    for p in 0..npages {
        sys.wait_done(d_base + (p * PAGE_SIZE) as u64);
    }
    // Stage 2: the processor IDCTs each block and scatters corrections
    // into the MMX pages.
    let bw = frame.width / 8;
    for b in 0..nblocks {
        let p = b / BLOCKS_PER_DPAGE;
        let db = d_base + (p * PAGE_SIZE) as u64;
        let local = b % BLOCKS_PER_DPAGE;
        let mut block = [0i16; BLOCK];
        for (k, slot) in block.iter_mut().enumerate() {
            *slot = sys.load_u16(db + (COEF_OFF + local * BLOCK * 2 + k * 2) as u64) as i16;
        }
        sys.flop(464);
        sys.alu(64);
        let px = idct8x8(&block);
        let (bx, by) = ((b % bw) * 8, (b / bw) * 8);
        for y in 0..8 {
            for x in 0..8 {
                let i = (by + y) * frame.width + bx + x;
                let mp = i / PX_PER_PAGE;
                let off = i % PX_PER_PAGE;
                let mb = m_base + (mp * PAGE_SIZE) as u64;
                sys.store_u16(mb + (CORR_OFF + 2 * off) as u64, px[y * 8 + x] as u16);
            }
        }
    }
    // Stage 3: in-page correction application.
    dispatch += apply_corrections(&mut sys, m_base, npages, npx);
    let kernel = sys.kernel_region(t0);

    let mut checksum = 0u64;
    for p in 0..npages {
        let mb = m_base + (p * PAGE_SIZE) as u64;
        let lo = p * PX_PER_PAGE;
        let hi = ((p + 1) * PX_PER_PAGE).min(npx);
        for k in 0..(hi - lo) {
            checksum = fnv_mix(checksum, sys.ram_read_u8(mb + (OUT_OFF + k) as u64) as u64);
        }
    }
    debug_assert_eq!(checksum, digest(frame.corrected().into_iter()));
    RunReport {
        app: "mpeg-decode",
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
    fn pipeline_matches_across_systems() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 0.3, &cfg, ExecMode::Accurate);
        let r = run(SystemKind::Radram, 0.3, &cfg, ExecMode::Accurate);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn multi_page_pipeline_matches_and_wins_at_scale() {
        // The pipeline's IDCT stage is processor-bound on both systems, so
        // the crossover sits a few pages in (between 2 and 8 on the
        // reference machine).
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 8.0, &cfg, ExecMode::Accurate);
        let r = run(SystemKind::Radram, 8.0, &cfg, ExecMode::Accurate);
        assert_eq!(c.checksum, r.checksum);
        assert!(speedup(&c, &r) > 1.5, "got {:.2}", speedup(&c, &r));
    }

    #[test]
    fn decode_circuit_matches_reference_decoder() {
        use active_pages::IdealExecutor;
        let frame = CodedFrame::generate(7, 64, 32, 0.6);
        let stream = encode_span(&frame, 0, frame.blocks.len());
        let mut exec = IdealExecutor::new(1);
        exec.page_mut(0)[IN_OFF..IN_OFF + stream.len()].copy_from_slice(&stream);
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM), frame.blocks.len() as u32);
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 1), stream.len() as u32);
        exec.write_u32(0, sync::ctrl_offset(sync::CMD), CMD_DECODE);
        exec.activate(&EntropyDecodeFn, 0);
        for (b, blk) in frame.blocks.iter().enumerate() {
            for (k, &c) in blk.iter().enumerate() {
                let off = COEF_OFF + b * BLOCK * 2 + k * 2;
                let got = u16::from_le_bytes(exec.page(0)[off..off + 2].try_into().unwrap()) as i16;
                assert_eq!(got, c, "block {b} coeff {k}");
            }
        }
    }

    #[test]
    fn decoder_circuit_fits_the_page() {
        assert!(EntropyDecodeFn.logic_elements() <= 256);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time layout checks
    fn layout_regions_fit() {
        assert!(COEF_OFF + BLOCKS_PER_DPAGE * BLOCK * 2 <= PAGE_SIZE, "coef region overflows");
    }
}
