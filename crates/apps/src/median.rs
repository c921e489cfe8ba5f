//! 3×3 median filter over 16-bit images (paper Section 5.1).
//!
//! The image is divided by row blocks among Active Pages; each page stores
//! its block plus one halo row above and below, and its circuit finds the
//! median of nine neighboring pixels for every interior pixel. The
//! conventional implementation is the hand-coded comparison network the
//! paper describes.
//!
//! Two phases are measured, matching Figure 5's `median-kernel` and
//! `median-total` curves: phase 1 transforms the source image into the
//! special page layout (processor work — "Image I/O" in Table 2), phase 2
//! is the filter kernel itself.

use crate::common::{fnv_mix, stage_le, RunReport, SystemKind};
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_workloads::image::Image;
use radram::{ExecMode, PageActivation, RadramConfig, System};
use std::sync::Arc;

/// Image width in pixels (one row = 1 KB).
pub const WIDTH: usize = 512;

/// Compute rows per Active Page.
pub const ROWS_PER_PAGE: usize = 250;

/// Byte offset of the output region within a page body (after up to 252
/// input rows: compute rows plus two halo rows).
const OUT_OFFSET: usize = sync::BODY_OFFSET + 252 * WIDTH * 2;

const CMD_FILTER: u32 = 1;

/// The per-page median circuit (Table 3 sizes the nine-value sorting
/// network as part of the dynamic-prog/median family; this engine streams
/// one output pixel every two logic cycles through the 32-bit port).
#[derive(Debug)]
pub struct MedianFn;

impl PageFunction for MedianFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::whole_page_footprint()
    }

    fn name(&self) -> &'static str {
        "median"
    }

    fn logic_elements(&self) -> u32 {
        // The nine-value sorting network plus stream counters; the paper
        // does not list median in Table 3 (it reuses the dynamic-prog
        // min/max units), so we budget it with the dynprog circuit.
        ap_synth::circuits::logic_elements("Dynamic Prog")
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        debug_assert_eq!(page.ctrl(sync::CMD), CMD_FILTER);
        let rows_out = page.ctrl(sync::PARAM) as usize;
        let halo_top = page.ctrl(sync::PARAM + 1) as usize; // 0 or 1
        let top_border = page.ctrl(sync::PARAM + 2) == 1;
        let bottom_border = page.ctrl(sync::PARAM + 3) == 1;

        fn in_px(page: &PageSlice<'_>, row: usize, x: usize) -> u16 {
            page.read_u16(sync::BODY_OFFSET + (row * WIDTH + x) * 2)
        }
        for k in 0..rows_out {
            let is_border_row = (k == 0 && top_border) || (k == rows_out - 1 && bottom_border);
            let in_row = k + halo_top;
            for x in 0..WIDTH {
                let v = if is_border_row || x == 0 || x == WIDTH - 1 {
                    in_px(page, in_row, x)
                } else {
                    let mut v = [0u16; 9];
                    let mut i = 0;
                    for dy in 0..3 {
                        for dx in 0..3 {
                            v[i] = in_px(page, in_row + dy - 1, x + dx - 1);
                            i += 1;
                        }
                    }
                    v.sort_unstable();
                    v[4]
                };
                page.write_u16(OUT_OFFSET + (k * WIDTH + x) * 2, v);
            }
        }
        page.set_ctrl(sync::STATUS, sync::DONE);
        // Two logic cycles per output pixel: one 32-bit read feeding the
        // pipelined sorting network, one shared write.
        Execution::run((rows_out * WIDTH * 2) as u64 + 64)
    }
}

struct Partition {
    /// Global compute rows `[r0, r1)` per page.
    spans: Vec<(usize, usize)>,
    height: usize,
}

fn partition(pages: f64) -> Partition {
    let height = ((pages * ROWS_PER_PAGE as f64) as usize).max(8);
    let mut spans = Vec::new();
    let mut r = 0;
    while r < height {
        let r1 = (r + ROWS_PER_PAGE).min(height);
        spans.push((r, r1));
        r = r1;
    }
    Partition { spans, height }
}

/// Runs the median-filter benchmark. `kernel_cycles` covers the filter
/// phase; `total_cycles` adds the layout/I-O phase (Figure 5's
/// `median-total`).
///
/// # Examples
///
/// ```no_run
/// use ap_apps::{median, SystemKind};
/// use radram::RadramConfig;
///
/// let r = median::run(SystemKind::Radram, 0.5, &RadramConfig::reference());
/// assert!(r.total_cycles > r.kernel_cycles);
/// ```
pub fn run(kind: SystemKind, pages: f64, cfg: &RadramConfig) -> RunReport {
    run_mode(kind, pages, cfg, ExecMode::Accurate)
}

/// [`run`] on the execution tier `mode` selects (see DESIGN.md §13).
pub fn run_mode(kind: SystemKind, pages: f64, cfg: &RadramConfig, mode: ExecMode) -> RunReport {
    let part = partition(pages);
    let img = Image::generate(0x1A6E, WIDTH, part.height, 0.04);
    let mut cfg = cfg.clone();
    cfg.ram_capacity = (part.spans.len() + 4) * PAGE_SIZE + 4 * img.pixels.len();
    match kind {
        SystemKind::Conventional => run_conventional(pages, &img, cfg, mode),
        SystemKind::Radram => run_radram(pages, &img, &part, cfg, mode),
    }
}

/// Folds the little-endian 16-bit pixels of `bytes` into `h`.
fn digest_pixels(h: u64, bytes: &[u8]) -> u64 {
    bytes.chunks_exact(2).fold(h, |h, px| fnv_mix(h, u16::from_le_bytes([px[0], px[1]]) as u64))
}

fn run_conventional(pages: f64, img: &Image, cfg: RadramConfig, mode: ExecMode) -> RunReport {
    let mut sys = System::conventional_mode(cfg, mode);
    let (w, h) = (img.width, img.height);
    let src = sys.ram_alloc(w * h * 2, 64);
    let work = sys.ram_alloc(w * h * 2, 64);
    let out = sys.ram_alloc(w * h * 2, 64);
    stage_le(&mut sys, src, img.pixels.iter().map(|px| px.to_le_bytes()));

    let t0 = sys.kernel_start();
    // Phase 1: image I/O — read the source into the working array.
    for wd in 0..(w * h / 2) {
        let v = sys.load_u32(src + (wd * 4) as u64);
        sys.store_u32(work + (wd * 4) as u64, v);
        sys.alu(2);
    }
    let t1 = sys.now();

    // Phase 2: the hand-coded filter kernel (sliding three-pixel columns,
    // a minimal comparison network per output pixel).
    for y in 0..h {
        for x in 0..w {
            let interior = y > 0 && y + 1 < h && x > 0 && x + 1 < w;
            let v = if interior {
                // Three fresh column loads; the previous six pixels stay in
                // registers in the hand-coded version.
                let mut vals = [0u16; 9];
                let mut i = 0;
                for dy in 0..3 {
                    for dx in 0..3 {
                        let a = work + (((y + dy - 1) * w + (x + dx - 1)) * 2) as u64;
                        vals[i] = if dx == 2 || x == 1 {
                            sys.load_u16(a)
                        } else {
                            sys.ram_read_u16(a) // register-resident column
                        };
                        i += 1;
                    }
                }
                sys.alu(38); // the 19-exchange median network
                let mut sorted = vals;
                sorted.sort_unstable();
                sorted[4]
            } else {
                sys.alu(1);
                sys.load_u16(work + ((y * w + x) * 2) as u64)
            };
            sys.store_u16(out + ((y * w + x) * 2) as u64, v);
            sys.alu(2);
        }
    }
    let t2 = sys.now();
    let kernel = sys.kernel_region(t1);

    let checksum = digest_pixels(0, sys.ram_slice(out, w * h * 2));
    debug_assert_eq!(
        checksum,
        img.median_filtered().pixels.iter().fold(0, |h, &px| fnv_mix(h, px as u64))
    );
    RunReport {
        app: "median",
        system: SystemKind::Conventional,
        mode: sys.mode(),
        pages,
        kernel_cycles: kernel,
        total_cycles: t2 - t0,
        dispatch_cycles: 0,
        checksum,
        stats: sys.stats(),
    }
}

fn run_radram(
    pages: f64,
    img: &Image,
    part: &Partition,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let mut sys = System::radram_mode(cfg, mode);
    let (w, h) = (img.width, img.height);
    let group = GroupId::new(3);
    let base = sys.ap_alloc_pages(group, part.spans.len());
    sys.ap_bind(group, Arc::new(MedianFn));
    let src = sys.ram_alloc(w * h * 2, 64);
    stage_le(&mut sys, src, img.pixels.iter().map(|px| px.to_le_bytes()));

    let t0 = sys.kernel_start();
    // Phase 1: layout transform — copy each page's block plus halo rows.
    for (p, &(r0, r1)) in part.spans.iter().enumerate() {
        let pb = base + (p * PAGE_SIZE) as u64;
        let in_lo = r0.saturating_sub(1);
        let in_hi = (r1 + 1).min(h);
        let words = (in_hi - in_lo) * w / 2;
        let src_row = src + (in_lo * w * 2) as u64;
        for wd in 0..words {
            let v = sys.load_u32(src_row + (wd * 4) as u64);
            sys.store_u32(pb + (sync::BODY_OFFSET + wd * 4) as u64, v);
            sys.alu(2);
        }
    }
    let t1 = sys.now();

    // Phase 2: dispatch the filter to every page, then collect.
    let d0 = sys.now();
    let batch: Vec<PageActivation> = part
        .spans
        .iter()
        .enumerate()
        .map(|(p, &(r0, r1))| {
            PageActivation::new(base + (p * PAGE_SIZE) as u64, CMD_FILTER)
                .with_param(sync::PARAM, (r1 - r0) as u32)
                .with_param(sync::PARAM + 1, u32::from(r0 > 0))
                .with_param(sync::PARAM + 2, u32::from(r0 == 0))
                .with_param(sync::PARAM + 3, u32::from(r1 == h))
        })
        .collect();
    sys.activate_pages(&batch);
    let dispatch = sys.now() - d0;
    for p in 0..part.spans.len() {
        sys.wait_done(base + (p * PAGE_SIZE) as u64);
    }
    let t2 = sys.now();
    let kernel = sys.kernel_region(t1);

    // Functional digest in global row order (host-side).
    let mut checksum = 0u64;
    for (p, &(r0, r1)) in part.spans.iter().enumerate() {
        let out = base + (p * PAGE_SIZE + OUT_OFFSET) as u64;
        checksum = digest_pixels(checksum, sys.ram_slice(out, (r1 - r0) * w * 2));
    }
    RunReport {
        app: "median",
        system: SystemKind::Radram,
        mode: sys.mode(),
        pages,
        kernel_cycles: kernel,
        total_cycles: t2 - t0,
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
    fn filter_results_match_across_systems() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 0.15, &cfg);
        let r = run(SystemKind::Radram, 0.15, &cfg);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn multi_page_filter_handles_halos() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 2.2, &cfg);
        let r = run(SystemKind::Radram, 2.2, &cfg);
        assert_eq!(c.checksum, r.checksum, "halo rows mishandled across page boundary");
        assert!(speedup(&c, &r) > 1.0);
    }

    #[test]
    fn total_includes_layout_phase() {
        let cfg = RadramConfig::reference();
        let r = run(SystemKind::Radram, 0.3, &cfg);
        assert!(r.total_cycles > r.kernel_cycles);
    }

    #[test]
    fn circuit_matches_reference_filter_on_one_page() {
        use active_pages::IdealExecutor;
        let img = Image::generate(5, WIDTH, 16, 0.1);
        let mut exec = IdealExecutor::new(1);
        for (i, &px) in img.pixels.iter().enumerate() {
            let off = sync::BODY_OFFSET + i * 2;
            exec.page_mut(0)[off..off + 2].copy_from_slice(&px.to_le_bytes());
        }
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM), 16);
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 1), 0);
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 2), 1);
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 3), 1);
        exec.write_u32(0, sync::ctrl_offset(sync::CMD), CMD_FILTER);
        exec.activate(&MedianFn, 0);
        let reference = img.median_filtered();
        for i in 0..WIDTH * 16 {
            let off = OUT_OFFSET + i * 2;
            let got = u16::from_le_bytes(exec.page(0)[off..off + 2].try_into().unwrap());
            assert_eq!(got, reference.pixels[i], "pixel {i}");
        }
    }
}
