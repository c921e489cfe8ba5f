//! Image denoising with the median-filter application: the paper's flagship
//! memory-centric workload. Runs the same noisy image through the
//! conventional system and the RADram Active-Page system and compares.
//!
//! Run with: `cargo run --release --example image_denoise`

use ap_apps::{speedup, App, SystemKind};
use radram::RadramConfig;

fn main() {
    let cfg = RadramConfig::reference();
    let pages = 4.0; // a 512x1000 16-bit image

    println!("3x3 median filter, {pages} Active Pages of image rows");
    let conv = App::Median.run(SystemKind::Conventional, pages, &cfg);
    let rad = App::Median.run(SystemKind::Radram, pages, &cfg);

    assert_eq!(conv.checksum, rad.checksum, "the two systems must agree pixel-for-pixel");

    println!("conventional : {:>12} cycles (kernel)", conv.kernel_cycles);
    println!("RADram       : {:>12} cycles (kernel)", rad.kernel_cycles);
    println!("kernel speedup: {:.1}x", speedup(&conv, &rad));
    println!(
        "with image I/O (median-total): {:.1}x ({} vs {} cycles)",
        conv.total_cycles as f64 / rad.total_cycles as f64,
        conv.total_cycles,
        rad.total_cycles
    );
    println!(
        "RADram dispatched {} page activations; stalls covered {:.1}% of the kernel",
        rad.stats.activations,
        rad.non_overlap_fraction() * 100.0
    );
}
