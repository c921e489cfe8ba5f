//! Property tests for the Pareto engine: for arbitrary point clouds the
//! front must be minimal and complete, and input-order-invariant.

use ap_dse::pareto::{dominates, front, ParetoPoint, OBJECTIVES};
use proptest::prelude::*;

/// Deterministic pseudo-random point cloud: `n` points with 3 objective
/// values each, derived from `seed` with an LCG. Coordinates are quantized
/// to a coarse lattice so ties and dominance chains actually occur.
fn cloud(seed: u64, n: usize) -> Vec<ParetoPoint> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % 8
    };
    (0..n)
        .map(|id| ParetoPoint::new(id, vec![next() as f64, next() as f64, next() as f64]))
        .collect()
}

/// Deterministically shuffles `points` by sorting on a seed-keyed hash of
/// each id.
fn shuffled(points: &[ParetoPoint], seed: u64) -> Vec<ParetoPoint> {
    let mut out = points.to_vec();
    out.sort_by_key(|p| (p.id as u64 ^ seed).wrapping_mul(0x9e3779b97f4a7c15));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No point on the front is dominated by any point in the cloud.
    #[test]
    fn front_points_are_never_dominated(seed in 0u64..10_000, n in 1usize..40) {
        let pts = cloud(seed, n);
        let f = front(&pts, &OBJECTIVES);
        prop_assert!(!f.is_empty(), "a non-empty cloud always has a front");
        for &id in &f {
            let p = pts.iter().find(|p| p.id == id).expect("front id exists");
            for q in &pts {
                prop_assert!(!dominates(q, p, &OBJECTIVES),
                    "front point {id} is dominated by {}", q.id);
            }
        }
        // Completeness: every non-front point IS dominated by someone.
        for p in &pts {
            if !f.contains(&p.id) {
                prop_assert!(pts.iter().any(|q| dominates(q, p, &OBJECTIVES)),
                    "non-front point {} is dominated by nobody", p.id);
            }
        }
    }

    /// The front is a function of the point *set*: shuffling the input
    /// changes nothing.
    #[test]
    fn front_is_invariant_under_shuffling(seed in 0u64..10_000, n in 1usize..40, perm in 1u64..50) {
        let pts = cloud(seed, n);
        let baseline = front(&pts, &OBJECTIVES);
        prop_assert_eq!(front(&shuffled(&pts, perm), &OBJECTIVES), baseline);
    }
}
