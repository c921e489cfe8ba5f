//! The STL array template class with a mixed operation script, including
//! the re-binding cost the paper anticipates when a group's functions are
//! swapped ("re-binding may be necessary to make room for new functions").
//!
//! Run with: `cargo run --release --example stl_array`

use ap_apps::array::run_script;
use ap_apps::{speedup, ExecMode, SystemKind};
use ap_workloads::array_ops::Script;
use radram::RadramConfig;

fn main() {
    let cfg = RadramConfig::reference();
    let script = Script::generate(42, 400_000, 24);
    println!(
        "mixed script: {} ops over a {}-element array (~{:.1} pages)",
        script.ops.len(),
        script.initial_len,
        script.initial_len as f64 / ap_apps::array::ELEMS_PER_PAGE as f64
    );

    let conv = run_script(&script, SystemKind::Conventional, &cfg, ExecMode::Accurate);
    let rad = run_script(&script, SystemKind::Radram, &cfg, ExecMode::Accurate);
    assert_eq!(conv.checksum, rad.checksum, "array contents must match");

    println!("conventional : {:>12} cycles", conv.kernel_cycles);
    println!("RADram       : {:>12} cycles", rad.kernel_cycles);
    println!("speedup      : {:.2}x", speedup(&conv, &rad));
    println!(
        "activations {} | re-binds {} (each reconfigures every page in the group)",
        rad.stats.activations, rad.stats.rebinds
    );
    let reference = script.reference_results();
    println!("final length {} (reference agrees: {})", reference.final_len, reference.final_len);
}
