//! N-dimensional Pareto dominance and the Pareto front.
//!
//! Points live in an objective space described by a slice of [`Objective`]s
//! (each axis maximized or minimized). The front ([`front`]) is
//! **order-invariant**: it depends only on the set of `(id, objectives)`
//! pairs, never on input order, so a shuffled sweep produces a
//! byte-identical report. Ties (equal vectors) never dominate each other,
//! so duplicates survive together.

/// Direction of one objective axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Objective {
    /// Axis name as it appears in reports.
    pub name: &'static str,
    /// `true` to maximize the axis, `false` to minimize it.
    pub maximize: bool,
}

/// The three objectives of the stock DSE sweep: RADram speedup
/// (maximized) versus the logic bandwidth budget and the cache area the
/// configuration spends (both minimized).
pub const OBJECTIVES: [Objective; 3] = [
    Objective { name: "speedup", maximize: true },
    Objective { name: "le_mhz", maximize: false },
    Objective { name: "area_bytes", maximize: false },
];

/// A point in objective space, tagged with a stable caller-assigned id.
///
/// Objective values must be finite: NaN compares false both ways, which
/// would make a point both undominatable and non-dominating and silently
/// corrupt the front.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Stable id the caller maps back to a configuration.
    pub id: usize,
    /// One value per objective axis, in axis order.
    pub objectives: Vec<f64>,
}

impl ParetoPoint {
    /// A point with the given id and objective values.
    ///
    /// # Panics
    ///
    /// Panics if any objective value is not finite.
    pub fn new(id: usize, objectives: Vec<f64>) -> ParetoPoint {
        assert!(
            objectives.iter().all(|v| v.is_finite()),
            "objective values must be finite: {objectives:?}"
        );
        ParetoPoint { id, objectives }
    }
}

/// True when `a` dominates `b`: at least as good on every axis (oriented by
/// `axes`) and strictly better on at least one.
///
/// # Panics
///
/// Panics if either point's dimensionality differs from `axes`.
pub fn dominates(a: &ParetoPoint, b: &ParetoPoint, axes: &[Objective]) -> bool {
    assert_eq!(a.objectives.len(), axes.len(), "point {} has wrong dimensionality", a.id);
    assert_eq!(b.objectives.len(), axes.len(), "point {} has wrong dimensionality", b.id);
    let mut strictly = false;
    for (i, axis) in axes.iter().enumerate() {
        let (x, y) = if axis.maximize {
            (a.objectives[i], b.objectives[i])
        } else {
            (b.objectives[i], a.objectives[i])
        };
        if x < y {
            return false;
        }
        if x > y {
            strictly = true;
        }
    }
    strictly
}

/// The Pareto front: ids of every point no other point dominates, sorted
/// ascending (so the result is independent of input order).
pub fn front(points: &[ParetoPoint], axes: &[Objective]) -> Vec<usize> {
    let mut ids: Vec<usize> = points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p, axes)))
        .map(|p| p.id)
        .collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: usize, speedup: f64, le: f64, area: f64) -> ParetoPoint {
        ParetoPoint::new(id, vec![speedup, le, area])
    }

    #[test]
    fn dominance_respects_axis_direction() {
        let better = p(0, 10.0, 100.0, 1000.0);
        let worse = p(1, 5.0, 200.0, 1000.0);
        assert!(dominates(&better, &worse, &OBJECTIVES));
        assert!(!dominates(&worse, &better, &OBJECTIVES));
        // Equal vectors never dominate each other.
        let twin = p(2, 10.0, 100.0, 1000.0);
        assert!(!dominates(&better, &twin, &OBJECTIVES));
        assert!(!dominates(&twin, &better, &OBJECTIVES));
    }

    #[test]
    fn front_keeps_exactly_the_non_dominated_points() {
        let pts = vec![
            p(0, 10.0, 100.0, 1000.0), // front: best speedup
            p(1, 5.0, 50.0, 1000.0),   // front: cheapest logic
            p(2, 5.0, 100.0, 500.0),   // front: smallest area
            p(3, 4.0, 100.0, 1000.0),  // dominated by 0
            p(4, 10.0, 100.0, 1000.0), // tie with 0: survives
        ];
        assert_eq!(front(&pts, &OBJECTIVES), vec![0, 1, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_objectives_are_rejected() {
        let _ = ParetoPoint::new(0, vec![f64::NAN, 1.0, 1.0]);
    }
}
