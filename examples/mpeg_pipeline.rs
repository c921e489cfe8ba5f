//! The full MPEG decode pipeline extension (paper Sections 5.2 and 10):
//! entropy (RLE + VLC) decoding inside the memory system, inverse DCT on
//! the processor, correction application back inside the memory system.
//!
//! Run with: `cargo run --release --example mpeg_pipeline`

use ap_apps::{mpeg_decode, speedup, ExecMode, SystemKind};
use ap_workloads::mpeg::CodedFrame;
use radram::RadramConfig;

fn main() {
    // Show what the compressed input looks like.
    let f = CodedFrame::generate(9, 64, 32, 0.5);
    let nonzero: usize = f.blocks.iter().map(|b| b.iter().filter(|&&c| c != 0).count()).sum();
    println!(
        "sample frame: {} 8x8 blocks, {} nonzero coefficients ({:.1} per block)",
        f.blocks.len(),
        nonzero,
        nonzero as f64 / f.blocks.len() as f64
    );
    println!();

    let cfg = RadramConfig::reference();
    for pages in [2.0, 8.0, 16.0] {
        let c = mpeg_decode::run(SystemKind::Conventional, pages, &cfg, ExecMode::Accurate);
        let r = mpeg_decode::run(SystemKind::Radram, pages, &cfg, ExecMode::Accurate);
        assert_eq!(c.checksum, r.checksum, "decoded frames must match bit-for-bit");
        println!(
            "{pages:>5} pages: conventional {:>10} cycles, RADram {:>10} cycles -> {:.2}x",
            c.kernel_cycles,
            r.kernel_cycles,
            speedup(&c, &r)
        );
    }
    println!();
    println!("the IDCT stage stays on the processor in both systems (the paper's");
    println!("partition), so the pipeline crosses over a few pages in, then scales.");
}
