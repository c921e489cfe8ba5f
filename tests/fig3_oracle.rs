//! Figure 3 points against the committed accurate-tier oracle.
//!
//! `apbench/oracle/fig3_reference.txt` records, per grid point, the result
//! checksum and the accurate kernel cycles (`app system pages checksum
//! kernel_cycles`). The self-consistency tests only compare the two systems
//! with each other, so a staging bug that both share (a misplaced offset, a
//! wrong element width) would pass them; this test pins the answers
//! themselves. Both tiers must reproduce the checksums, and the accurate
//! tier must reproduce the cycles exactly.

use ap_apps::{App, ExecMode, SystemKind};
use radram::RadramConfig;
use std::collections::HashMap;

const REFERENCE: &str = include_str!("../apbench/oracle/fig3_reference.txt");

/// `app/system/pages` → (checksum, accurate kernel cycles).
fn oracle() -> HashMap<String, (u64, u64)> {
    REFERENCE
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let num = |i: usize| f[i].parse::<u64>().expect("oracle numbers are u64");
            (format!("{}/{}/{}", f[0], f[1], f[2]), (num(3), num(4)))
        })
        .collect()
}

#[test]
fn small_figure3_points_match_the_committed_oracle() {
    let oracle = oracle();
    let cfg = RadramConfig::reference();
    let mut checked = 0;
    for app in App::ALL {
        for pages in [0.25, 1.0] {
            for kind in [SystemKind::Conventional, SystemKind::Radram] {
                let key = format!("{}/{kind}/{pages}", app.name());
                let &(checksum, cycles) =
                    oracle.get(&key).unwrap_or_else(|| panic!("{key} missing from the oracle"));
                for mode in [ExecMode::Accurate, ExecMode::Fast] {
                    let r = app.run_mode(kind, pages, &cfg, mode);
                    assert_eq!(r.checksum, checksum, "{key} {mode:?} checksum");
                    if mode == ExecMode::Accurate {
                        assert_eq!(r.kernel_cycles, cycles, "{key} accurate kernel cycles");
                    }
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, App::ALL.len() * 2 * 2 * 2);
}
