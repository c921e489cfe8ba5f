//! Sparse matrices: the Harwell-Boeing stand-in and Simplex tableaus.
//!
//! The paper multiplies finite-element matrices from the Harwell-Boeing
//! collection ("matrix-boeing") and Simplex register-allocation tableaus
//! ("matrix-simplex"). Both reduce to sparse dot products: merge two index
//! streams, gather the values whose indices match, multiply and accumulate.
//!
//! The generators preserve the property the paper's Table 4 hinges on:
//! finite-element rows have *highly variable* fill (boeing breaks the
//! analytic model's constant-time-per-page assumption, correlation 0.83),
//! while the Simplex tableau is comparatively regular.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A sparse matrix in compressed-sparse-row form.
///
/// # Examples
///
/// ```
/// use ap_workloads::sparse::SparseMatrix;
///
/// let m = SparseMatrix::finite_element(11, 256, 24);
/// assert_eq!(m.rows, 256);
/// assert!(m.nnz() > 256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// CSR row pointers (`rows + 1` entries).
    pub row_ptr: Vec<u32>,
    /// Column indices, ascending within each row.
    pub col_idx: Vec<u32>,
    /// Nonzero values.
    pub values: Vec<f64>,
}

impl SparseMatrix {
    /// Total nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The column indices of row `r`.
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }

    /// The values of row `r`.
    pub fn row_values(&self, r: usize) -> &[f64] {
        &self.values[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }

    /// A banded finite-element-style matrix with heavy-tailed per-row fill:
    /// most rows carry a few nonzeros, some carry `band`-scale dense runs.
    pub fn finite_element(seed: u64, n: usize, band: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        // One row buffer, reused by every row.
        let mut cols: Vec<u32> = Vec::with_capacity(band.max(4) + 1);
        for r in 0..n {
            // Heavy-tailed fill: 1/8 of rows are "element boundary" rows with
            // dense band coupling, the rest are sparse.
            let fill =
                if rng.random_range(0..8) == 0 { band.max(4) } else { 2 + rng.random_range(0..4) };
            let lo = r.saturating_sub(band / 2);
            let hi = (r + band / 2 + 1).min(n);
            cols.clear();
            cols.push(r as u32); // diagonal always present
            for _ in 0..fill {
                cols.push(rng.random_range(lo as u32..hi as u32));
            }
            cols.sort_unstable();
            cols.dedup();
            for &c in &cols {
                col_idx.push(c);
                values.push(rng.random_range(-1000..1000) as f64 / 64.0);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        SparseMatrix { rows: n, cols: n, row_ptr, col_idx, values }
    }

    /// A Simplex tableau: `n` constraint rows over `cols` structural
    /// variables, each row touching a regular-ish number of columns (the
    /// register-allocation LP of the paper's compiler study).
    pub fn simplex_tableau(seed: u64, n: usize, cols: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        // One row buffer, reused by every row.
        let mut cols_r: Vec<u32> = Vec::with_capacity(10);
        for r in 0..n {
            let fill = 6 + rng.random_range(0..4); // regular fill
            cols_r.clear();
            cols_r.extend((0..fill).map(|_| rng.random_range(0..cols as u32)));
            cols_r.push((r % cols) as u32); // slack-ish structural column
            cols_r.sort_unstable();
            cols_r.dedup();
            for &c in &cols_r {
                col_idx.push(c);
                values.push(
                    if rng.random_range(0..2) == 0 { 1.0 } else { -1.0 }
                        * rng.random_range(1..16) as f64,
                );
            }
            row_ptr.push(col_idx.len() as u32);
        }
        SparseMatrix { rows: n, cols, row_ptr, col_idx, values }
    }
}

/// A sparse vector (ascending indices).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    /// Dimension.
    pub dim: usize,
    /// Nonzero indices, ascending.
    pub idx: Vec<u32>,
    /// Nonzero values.
    pub val: Vec<f64>,
}

impl SparseVector {
    /// Generates a sparse vector with `nnz` nonzeros clustered like a
    /// finite-element load vector.
    pub fn generate(seed: u64, dim: usize, nnz: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<u32> = (0..nnz).map(|_| rng.random_range(0..dim as u32)).collect();
        idx.sort_unstable();
        idx.dedup();
        let val = idx.iter().map(|_| rng.random_range(-512..512) as f64 / 32.0).collect();
        SparseVector { dim, idx, val }
    }

    /// Reference sparse dot product against a CSR row.
    pub fn dot_row(&self, m: &SparseMatrix, r: usize) -> f64 {
        let ri = m.row_indices(r);
        let rv = m.row_values(r);
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0;
        while i < ri.len() && j < self.idx.len() {
            match ri[i].cmp(&self.idx[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += rv[i] * self.val[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

/// Coefficient of variation (σ/μ) of per-row nonzero counts — the fill
/// irregularity measure distinguishing boeing from simplex workloads.
pub fn row_fill_cv(m: &SparseMatrix) -> f64 {
    let counts: Vec<f64> = (0..m.rows).map(|r| (m.row_ptr[r + 1] - m.row_ptr[r]) as f64).collect();
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_invariants_hold() {
        for m in
            [SparseMatrix::finite_element(1, 200, 32), SparseMatrix::simplex_tableau(1, 200, 64)]
        {
            assert_eq!(m.row_ptr.len(), m.rows + 1);
            assert_eq!(*m.row_ptr.last().unwrap() as usize, m.nnz());
            assert_eq!(m.col_idx.len(), m.values.len());
            for r in 0..m.rows {
                let ri = m.row_indices(r);
                assert!(ri.windows(2).all(|w| w[0] < w[1]), "row {r} not strictly ascending");
                assert!(ri.iter().all(|&c| (c as usize) < m.cols));
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            SparseMatrix::finite_element(5, 100, 16),
            SparseMatrix::finite_element(5, 100, 16)
        );
    }

    #[test]
    fn boeing_fill_is_more_irregular_than_simplex() {
        let fe = SparseMatrix::finite_element(7, 2000, 48);
        let sx = SparseMatrix::simplex_tableau(7, 2000, 256);
        assert!(
            row_fill_cv(&fe) > 1.5 * row_fill_cv(&sx),
            "fe cv {} vs simplex cv {}",
            row_fill_cv(&fe),
            row_fill_cv(&sx)
        );
    }

    #[test]
    fn dot_product_matches_dense_reference() {
        let m = SparseMatrix::finite_element(9, 64, 12);
        let v = SparseVector::generate(10, 64, 20);
        // Dense reference.
        let mut dense_v = vec![0.0; 64];
        for (i, &ix) in v.idx.iter().enumerate() {
            dense_v[ix as usize] = v.val[i];
        }
        for r in 0..m.rows {
            let mut want = 0.0;
            for (k, &c) in m.row_indices(r).iter().enumerate() {
                want += m.row_values(r)[k] * dense_v[c as usize];
            }
            assert!((v.dot_row(&m, r) - want).abs() < 1e-9, "row {r}");
        }
    }

    #[test]
    fn diagonal_always_present_in_fe() {
        let m = SparseMatrix::finite_element(11, 128, 16);
        for r in 0..m.rows {
            assert!(m.row_indices(r).contains(&(r as u32)), "row {r} lost its diagonal");
        }
    }
}
