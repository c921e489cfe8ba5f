//! DNA sequence alignment: the dynamic-programming largest-common-
//! subsequence workload. The table fills inside the memory system as a
//! wavefront across pages; the processor mediates page boundaries and
//! backtracks the final alignment.
//!
//! Run with: `cargo run --release --example bio_sequence`

use ap_apps::{speedup, App, SystemKind};
use ap_workloads::dna::SequencePair;
use radram::RadramConfig;

fn main() {
    let cfg = RadramConfig::reference();
    let pages = 4.0;

    // Peek at the kind of data the benchmark generates.
    let pair = SequencePair::generate(7, 60, 0.2);
    println!("example sequences (len 60, 20% mutation):");
    println!("  A: {}", String::from_utf8_lossy(&pair.a));
    println!("  B: {}", String::from_utf8_lossy(&pair.b));
    println!("  LCS length: {}", pair.lcs_length());
    println!();

    println!("running the full benchmark at {pages} pages of DP table...");
    let conv = App::DynProg.run(SystemKind::Conventional, pages, &cfg);
    let rad = App::DynProg.run(SystemKind::Radram, pages, &cfg);
    assert_eq!(conv.checksum, rad.checksum, "alignments must match");

    println!("conventional : {:>12} cycles", conv.kernel_cycles);
    println!("RADram       : {:>12} cycles", rad.kernel_cycles);
    println!("speedup      : {:.2}x", speedup(&conv, &rad));
    println!(
        "wavefront activations: {} (pages x strips), non-overlap {:.1}%",
        rad.stats.activations,
        rad.non_overlap_fraction() * 100.0
    );
}
