//! Coordinate-format (triplet) sparse matrix builder.
//!
//! COO is the natural format to *assemble* a lattice Hamiltonian in (push one
//! triplet per hopping term); it is then converted once to [`CsrMatrix`] for
//! the compute loops. Duplicate entries are summed on conversion, which is
//! exactly what a tight-binding builder wants when multiple bonds hit the
//! same `(i, j)` pair (e.g. a periodic dimension of length 2).

use crate::csr::{self, CsrMatrix};
use crate::error::LinalgError;

/// An unassembled sparse matrix: a bag of `(row, col, value)` triplets.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Empty builder for an `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Empty builder with triplet capacity reserved.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of triplets pushed so far (not deduplicated).
    pub fn triplet_count(&self) -> usize {
        self.vals.len()
    }

    /// Adds `v` at `(i, j)`. Duplicates are allowed and summed by
    /// [`CooMatrix::to_csr`].
    ///
    /// # Errors
    /// Returns [`LinalgError::IndexOutOfBounds`] if the indices exceed the
    /// matrix shape.
    pub fn push(&mut self, i: usize, j: usize, v: f64) -> Result<(), LinalgError> {
        if i >= self.nrows || j >= self.ncols {
            return Err(LinalgError::IndexOutOfBounds {
                row: i,
                col: j,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
        Ok(())
    }

    /// Adds `v` at `(i, j)` and `(j, i)` — one undirected hopping bond.
    ///
    /// # Errors
    /// Same as [`CooMatrix::push`].
    pub fn push_symmetric(&mut self, i: usize, j: usize, v: f64) -> Result<(), LinalgError> {
        self.push(i, j, v)?;
        if i != j {
            self.push(j, i, v)?;
        }
        Ok(())
    }

    /// Assembles into CSR: sorts triplets, sums duplicates.
    ///
    /// Explicit zeros are *kept* (the paper's lattice matrix stores the zero
    /// diagonal explicitly — "all diagonal ones are zeros" yet each row holds
    /// seven stored elements). Use [`CsrMatrix::prune`] to drop them.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row, then sort each row segment by column.
        let nnz = self.vals.len();
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let row_start = row_counts.clone();
        let mut order: Vec<usize> = vec![0; nnz];
        {
            let mut next = row_start.clone();
            for (t, &r) in self.rows.iter().enumerate() {
                order[next[r]] = t;
                next[r] += 1;
            }
        }
        // Per-row: sort by column and merge duplicates.
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            scratch.extend(
                order[row_start[r]..row_start[r + 1]].iter().map(|&t| (self.cols[t], self.vals[t])),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut it = scratch.iter().copied();
            if let Some((mut cur_c, mut cur_v)) = it.next() {
                for (c, v) in it {
                    if c == cur_c {
                        cur_v += v;
                    } else {
                        col_idx.push(csr::index(cur_c));
                        values.push(cur_v);
                        cur_c = c;
                        cur_v = v;
                    }
                }
                col_idx.push(csr::index(cur_c));
                values.push(cur_v);
            }
            row_ptr.push(csr::index(col_idx.len()));
        }
        CsrMatrix::from_raw(self.nrows, self.ncols, row_ptr, col_idx, values)
            .expect("COO assembly produced invalid CSR — internal bug")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_gives_empty_csr() {
        let coo = CooMatrix::new(3, 3);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 3);
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.5).unwrap();
        coo.push(0, 1, 2.5).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), 4.0);
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.get(0, 0), 0.0);
    }

    #[test]
    fn symmetric_push_creates_both_entries() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 2, -1.0).unwrap();
        coo.push_symmetric(1, 1, 5.0).unwrap(); // diagonal: single entry
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 2), -1.0);
        assert_eq!(csr.get(2, 0), -1.0);
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn columns_sorted_within_rows() {
        let mut coo = CooMatrix::new(1, 5);
        for &c in &[4usize, 0, 2, 3, 1] {
            coo.push(0, c, c as f64).unwrap();
        }
        let csr = coo.to_csr();
        let cols: Vec<usize> = csr.row_entries(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn explicit_zeros_are_kept() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1, "explicit zero must stay stored");
    }

    #[test]
    fn capacity_constructor_behaves_like_new() {
        let mut a = CooMatrix::with_capacity(4, 4, 16);
        let mut b = CooMatrix::new(4, 4);
        for (i, j) in [(0, 1), (3, 2), (2, 2)] {
            a.push(i, j, 1.0).unwrap();
            b.push(i, j, 1.0).unwrap();
        }
        assert_eq!(a.to_csr().to_dense().data(), b.to_csr().to_dense().data());
    }
}
