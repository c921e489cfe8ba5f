//! The simulator must be fully deterministic: identical runs produce
//! identical cycle counts, statistics and results — the property that makes
//! every number in EXPERIMENTS.md reproducible bit-for-bit.

use ap_apps::{App, ExecMode, SystemKind};
use radram::RadramConfig;

#[test]
fn every_kernel_is_deterministic_on_both_systems() {
    let cfg = RadramConfig::reference();
    for app in App::ALL {
        for kind in [SystemKind::Conventional, SystemKind::Radram] {
            let a = app.run(kind, 0.7, &cfg);
            let b = app.run(kind, 0.7, &cfg);
            assert_eq!(a.kernel_cycles, b.kernel_cycles, "{} {kind} cycles", app.name());
            assert_eq!(a.total_cycles, b.total_cycles, "{} {kind} totals", app.name());
            assert_eq!(a.checksum, b.checksum, "{} {kind} results", app.name());
            assert_eq!(
                a.stats.non_overlap_cycles,
                b.stats.non_overlap_cycles,
                "{} {kind} stalls",
                app.name()
            );
            assert_eq!(
                a.stats.cpu.instructions,
                b.stats.cpu.instructions,
                "{} {kind} instruction counts",
                app.name()
            );
        }
    }
}

/// FNV-1a over the concatenated little-endian bytes of `words`.
fn digest_le<const N: usize>(words: impl IntoIterator<Item = [u8; N]>) -> u64 {
    ap_apps::fnv1a(&words.into_iter().flatten().collect::<Vec<u8>>())
}

#[test]
fn workload_generators_are_seed_stable() {
    use ap_apps::fnv1a;
    use ap_workloads::{
        database::AddressBook, dna::SequencePair, image::Image, mpeg::FrameWorkload,
        sparse::SparseMatrix,
    };
    // Literal digests of every generator Figure 3 draws its inputs from, at
    // the seeds the apps use. A changed generator would make EXPERIMENTS.md
    // drift silently; here it fails loudly instead.
    let small = AddressBook::generate(0xDB5EED, 100);
    let large = AddressBook::generate(0xDB5EED, 4_001);
    let boeing = SparseMatrix::finite_element(0xB0, 300, 48);
    let simplex = SparseMatrix::simplex_tableau(0x51, 300, 4096);
    let frame = FrameWorkload::generate(0x3E6, 512, 32, 0.3);
    let img = Image::generate(0x1A6E, 512, 20, 0.04);
    let pair = SequencePair::generate(0xDAA, 200, 0.15);
    let csr = |m: &SparseMatrix| {
        [
            digest_le(m.row_ptr.iter().map(|v| v.to_le_bytes())),
            digest_le(m.col_idx.iter().map(|v| v.to_le_bytes())),
            digest_le(m.values.iter().map(|v| v.to_bits().to_le_bytes())),
        ]
    };
    let [boeing_ptr, boeing_idx, boeing_val] = csr(&boeing);
    let [simplex_ptr, simplex_idx, simplex_val] = csr(&simplex);
    let got = [
        ("book 100 bytes", fnv1a(small.bytes())),
        ("book 4001 bytes", fnv1a(large.bytes())),
        ("boeing row_ptr", boeing_ptr),
        ("boeing col_idx", boeing_idx),
        ("boeing values", boeing_val),
        ("simplex row_ptr", simplex_ptr),
        ("simplex col_idx", simplex_idx),
        ("simplex values", simplex_val),
        ("frame predicted", fnv1a(&frame.predicted)),
        ("frame correction", digest_le(frame.correction.iter().map(|v| v.to_le_bytes()))),
        ("image pixels", digest_le(img.pixels.iter().map(|v| v.to_le_bytes()))),
        ("dna a", fnv1a(&pair.a)),
        ("dna b", fnv1a(&pair.b)),
    ];
    let want = [
        ("book 100 bytes", 0x6C72_D210_2850_087F),
        ("book 4001 bytes", 0xA970_A54D_2E9B_F326),
        ("boeing row_ptr", 0xAD11_7E95_9B6F_E2B7),
        ("boeing col_idx", 0x1255_D1CD_A13E_791F),
        ("boeing values", 0x3179_8C68_09AA_972C),
        ("simplex row_ptr", 0x926F_03E5_99D2_7464),
        ("simplex col_idx", 0x05F2_6542_09F1_A1FA),
        ("simplex values", 0x9FCF_A77D_1BEA_408B),
        ("frame predicted", 0xDB28_1F38_8BC7_6450),
        ("frame correction", 0x9B4A_AAEB_FE2A_9746),
        ("image pixels", 0xDB2E_8005_71DE_E7E2),
        ("dna a", 0x60B4_695D_6AD9_C79A),
        ("dna b", 0xDBF5_919F_9E6B_4A5C),
    ];
    assert_eq!(got, want);
    assert_eq!(small.query(), "ingchenper");
    assert_eq!(large.query(), "graingtam");
}

#[test]
fn extension_pipelines_are_deterministic() {
    let cfg = RadramConfig::reference();
    let a = ap_apps::mpeg_decode::run(SystemKind::Radram, 0.5, &cfg, ExecMode::Accurate);
    let b = ap_apps::mpeg_decode::run(SystemKind::Radram, 0.5, &cfg, ExecMode::Accurate);
    assert_eq!(a.kernel_cycles, b.kernel_cycles);
    assert_eq!(a.checksum, b.checksum);

    let script = ap_workloads::array_ops::Script::generate(3, 10_000, 10);
    let p1 = ap_apps::primitives::run_script_primitives(&script, &cfg, ExecMode::Accurate);
    let p2 = ap_apps::primitives::run_script_primitives(&script, &cfg, ExecMode::Accurate);
    assert_eq!(p1.kernel_cycles, p2.kernel_cycles);
    assert_eq!(p1.checksum, p2.checksum);
}
