//! Sparse matrix kernels for scientific codes: the compare-gather-compute
//! partition. Active Pages merge index streams and gather matched operands;
//! the processor runs the floating point at full speed.
//!
//! Run with: `cargo run --release --example sparse_solver`

use ap_apps::{matrix, speedup, ExecMode, SystemKind};
use ap_workloads::sparse::{row_fill_cv, SparseMatrix};
use radram::RadramConfig;

fn main() {
    let cfg = RadramConfig::reference();

    let fe = SparseMatrix::finite_element(1, 2000, 48);
    let sx = SparseMatrix::simplex_tableau(1, 2000, 256);
    println!("workload character (coefficient of variation of row fill):");
    println!("  finite-element (boeing-like): {:.2}", row_fill_cv(&fe));
    println!("  simplex tableau             : {:.2}", row_fill_cv(&sx));
    println!();

    for variant in [matrix::MatrixVariant::Simplex, matrix::MatrixVariant::Boeing] {
        let conv = matrix::run(variant, SystemKind::Conventional, 8.0, &cfg, ExecMode::Accurate);
        let rad = matrix::run(variant, SystemKind::Radram, 8.0, &cfg, ExecMode::Accurate);
        assert_eq!(conv.checksum, rad.checksum, "dot products must be bit-identical");
        println!(
            "{:<15} speedup {:.2}x  (conv {} cycles, RADram {} cycles, stall {:.1}%)",
            variant.app_name(),
            speedup(&conv, &rad),
            conv.kernel_cycles,
            rad.kernel_cycles,
            rad.non_overlap_fraction() * 100.0
        );
    }
    println!();
    println!("note the low stall percentages: the processor-centric partition keeps");
    println!("the CPU busy multiplying while the pages gather the next operands.");
}
