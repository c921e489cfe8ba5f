//! Operation scripts for the STL array template benchmark.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One operation against the array class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayOp {
    /// Insert `value` at `index`, shifting the tail right.
    Insert {
        /// Position to insert at.
        index: usize,
        /// Value to insert.
        value: u32,
    },
    /// Delete the element at `index`, shifting the tail left.
    Delete {
        /// Position to delete.
        index: usize,
    },
    /// Count elements equal to `value` (the STL find/count support).
    Count {
        /// Value to count.
        value: u32,
    },
}

/// A deterministic script of operations over an array of `initial_len`
/// elements.
///
/// # Examples
///
/// ```
/// use ap_workloads::array_ops::Script;
///
/// let s = Script::generate(1, 1000, 12);
/// assert_eq!(s.ops.len(), 12);
/// let results = s.reference_results();
/// assert_eq!(results.final_len, s.final_len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// Number of elements before the first operation.
    pub initial_len: usize,
    /// The operations, in order.
    pub ops: Vec<ArrayOp>,
}

/// Reference outcome of running a [`Script`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptResults {
    /// Array length after all operations.
    pub final_len: usize,
    /// Results of each `Count` operation, in order.
    pub counts: Vec<usize>,
    /// Checksum (wrapping sum) of the final contents.
    pub checksum: u32,
}

impl Script {
    /// Generates `ops` operations, balanced between inserts, deletes and
    /// counts, with indices valid at execution time.
    pub fn generate(seed: u64, initial_len: usize, ops: usize) -> Self {
        assert!(initial_len > 0, "array must start non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut len = initial_len;
        let mut list = Vec::with_capacity(ops);
        for _ in 0..ops {
            let op = match rng.random_range(0..3) {
                0 => {
                    let index = rng.random_range(0..=len);
                    len += 1;
                    ArrayOp::Insert { index, value: rng.random_range(0..1 << 16) }
                }
                1 if len > 1 => {
                    len -= 1;
                    ArrayOp::Delete { index: rng.random_range(0..=len) }
                }
                _ => ArrayOp::Count { value: rng.random_range(0..64) },
            };
            list.push(op);
        }
        Script { initial_len, ops: list }
    }

    /// Initial contents: small values so `Count` queries hit.
    pub fn initial_values(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        (0..self.initial_len).map(|i| (i as u32).wrapping_mul(2_654_435_761) % 64)
    }

    /// Array length after the script runs.
    pub fn final_len(&self) -> usize {
        let mut len = self.initial_len;
        for op in &self.ops {
            match op {
                ArrayOp::Insert { .. } => len += 1,
                ArrayOp::Delete { .. } => len -= 1,
                ArrayOp::Count { .. } => {}
            }
        }
        len
    }

    /// Executes the script on a plain `Vec` (ground truth).
    pub fn reference_results(&self) -> ScriptResults {
        let mut v: Vec<u32> = self.initial_values().collect();
        let mut counts = Vec::new();
        for op in &self.ops {
            match *op {
                ArrayOp::Insert { index, value } => v.insert(index, value),
                ArrayOp::Delete { index } => {
                    v.remove(index);
                }
                ArrayOp::Count { value } => counts.push(v.iter().filter(|&&x| x == value).count()),
            }
        }
        ScriptResults {
            final_len: v.len(),
            counts,
            checksum: v.iter().fold(0u32, |acc, &x| acc.wrapping_add(x)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(Script::generate(4, 100, 20), Script::generate(4, 100, 20));
    }

    #[test]
    fn indices_are_always_valid() {
        let s = Script::generate(8, 50, 200);
        let mut len = s.initial_len;
        for op in &s.ops {
            match *op {
                ArrayOp::Insert { index, .. } => {
                    assert!(index <= len);
                    len += 1;
                }
                ArrayOp::Delete { index } => {
                    assert!(index < len);
                    len -= 1;
                }
                ArrayOp::Count { .. } => {}
            }
        }
        assert_eq!(len, s.final_len());
    }

    #[test]
    fn reference_results_are_consistent() {
        let s = Script::generate(9, 200, 50);
        let r = s.reference_results();
        assert_eq!(r.final_len, s.final_len());
        let count_ops = s.ops.iter().filter(|o| matches!(o, ArrayOp::Count { .. })).count();
        assert_eq!(r.counts.len(), count_ops);
    }

    #[test]
    fn counts_find_small_values() {
        // Initial values are mod-64, so counting a value < 64 usually hits.
        let s = Script { initial_len: 640, ops: vec![ArrayOp::Count { value: 5 }] };
        let r = s.reference_results();
        assert!(r.counts[0] > 0);
    }
}
