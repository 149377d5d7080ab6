//! Compressed Sparse Row storage — the "CRS format" named by the paper.
//!
//! The KPM's `O(D)` complexity claim rests on the Hamiltonian being sparse
//! with `O(1)` entries per row; CSR makes the matvec `O(nnz)` and is the
//! format both our CPU reference and the simulated-GPU kernels consume.
//!
//! Row pointers and column indices are stored as `u32`: an entry costs
//! 12 B (an `f64` value and a 32-bit column) and a row 4 B, against 16 B
//! and 8 B with `usize` indices, and the moment sweep streams every byte of
//! them once per step. Builders convert with [`index`], which panics rather
//! than truncate; the kernels widen each index back with `as usize`, so no
//! accumulation order changes.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::op::LinearOp;
use crate::tiled::RowEpilogue;

/// A sparse `nrows x ncols` matrix in CSR form.
///
/// Invariants (checked by [`CsrMatrix::from_raw`] and preserved by every
/// method):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * `row_ptr` is non-decreasing;
/// * within each row, column indices are strictly increasing and `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

/// `v` as a stored CSR index: a column, or an entry offset in `row_ptr`.
///
/// # Panics
/// Panics if `v` exceeds `u32::MAX`, the largest index a [`CsrMatrix`]
/// stores.
pub fn index(v: usize) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("CSR index {v} exceeds the 32-bit index range"))
}

impl CsrMatrix {
    /// Builds from raw CSR arrays, validating every structural invariant.
    ///
    /// # Errors
    /// [`LinalgError::InvalidStructure`] describing the first violation.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if row_ptr.len() != nrows + 1 {
            return Err(LinalgError::InvalidStructure(format!(
                "row_ptr length {} != nrows + 1 = {}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(LinalgError::InvalidStructure(format!(
                "row_ptr[0] = {} (must be 0)",
                row_ptr[0]
            )));
        }
        if col_idx.len() != values.len() {
            return Err(LinalgError::InvalidStructure(format!(
                "col_idx length {} != values length {}",
                col_idx.len(),
                values.len()
            )));
        }
        if row_ptr[nrows] as usize != col_idx.len() {
            return Err(LinalgError::InvalidStructure(format!(
                "row_ptr[nrows] = {} != nnz = {}",
                row_ptr[nrows],
                col_idx.len()
            )));
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(LinalgError::InvalidStructure(format!("row_ptr decreases at row {r}")));
            }
            let seg = &col_idx[row_ptr[r] as usize..row_ptr[r + 1] as usize];
            for w in seg.windows(2) {
                if w[0] >= w[1] {
                    return Err(LinalgError::InvalidStructure(format!(
                        "columns not strictly increasing in row {r}"
                    )));
                }
            }
            if let Some(&last) = seg.last() {
                if last as usize >= ncols {
                    return Err(LinalgError::InvalidStructure(format!(
                        "column {last} out of range in row {r} (ncols = {ncols})"
                    )));
                }
            }
        }
        Ok(Self { nrows, ncols, row_ptr, col_idx, values })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of *stored* entries (explicit zeros count).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `row_ptr` array.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The column-index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The entry range of row `i` in `col_idx` and `values`.
    #[inline(always)]
    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize
    }

    /// The value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Stored entries of row `i` as `(col, value)` pairs.
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.nrows, "row {i} out of bounds");
        let seg = self.row_range(i);
        self.col_idx[seg.clone()].iter().map(|&c| c as usize).zip(self.values[seg].iter().copied())
    }

    /// Value at `(i, j)`; `0.0` for entries not stored.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrows && j < self.ncols, "({i}, {j}) out of bounds");
        let seg = self.row_range(i);
        match u32::try_from(j).map(|j| self.col_idx[seg.clone()].binary_search(&j)) {
            Ok(Ok(k)) => self.values[seg.start + k],
            _ => 0.0,
        }
    }

    /// Sparse matrix-vector product `y = A x` — the paper's step (2.1).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_impl(x, y, |acc, _| acc);
    }

    /// Fused rescaled product `y = (A x - a_plus * x) * inv_a_minus`: the
    /// shift-and-scale runs on each row's accumulator before the store, so
    /// the raw result never round-trips through memory. Per element this is
    /// exactly the [`crate::LinearOp::apply_rescaled`] sequence, keeping the
    /// result bitwise identical to the unfused two-pass form.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if the matrix is not square.
    pub fn spmv_rescaled(&self, x: &[f64], y: &mut [f64], a_plus: f64, inv_a_minus: f64) {
        assert_eq!(self.nrows, self.ncols, "spmv_rescaled: matrix must be square");
        self.spmv_impl(x, y, |acc, i| (acc - a_plus * x[i]) * inv_a_minus);
    }

    fn spmv_impl<F: Fn(f64, usize) -> f64>(&self, x: &[f64], y: &mut [f64], f: F) {
        assert_eq!(x.len(), self.ncols, "spmv: x length");
        assert_eq!(y.len(), self.nrows, "spmv: y length");
        for (i, yi) in y.iter_mut().enumerate() {
            let seg = self.row_range(i);
            let mut acc = 0.0;
            for (&c, &v) in self.col_idx[seg.clone()].iter().zip(&self.values[seg]) {
                acc += v * x[c as usize];
            }
            *yi = f(acc, i);
        }
    }

    /// Sparse matrix-multi-vector product `Y = A X` over a column-block.
    ///
    /// `x` holds `k` input columns of length `ncols` back to back
    /// (`x[j * ncols..(j + 1) * ncols]` is column `j`); `y` holds the `k`
    /// output columns of length `nrows` in the same layout. Each row's index
    /// and value segment is loaded once and reused across all `k` columns,
    /// which is the whole point of blocking: the matrix is streamed once per
    /// sweep instead of once per vector.
    ///
    /// Column `j` of the result is bitwise identical to
    /// `spmv(&x[j * ncols..], ..)` — the per-row accumulation order is the
    /// same ascending-column order, so blocked and one-vector code paths are
    /// interchangeable in the deterministic tests.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmm(&self, x: &[f64], y: &mut [f64], k: usize) {
        self.spmm_impl(x, y, k, |acc, _, _| acc);
    }

    /// Blocked form of [`CsrMatrix::spmv_rescaled`]:
    /// `Y = (A X - a_plus * X) * inv_a_minus` with the shift-and-scale fused
    /// into the store step, column by column bitwise identical to the
    /// one-vector fused kernel.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if the matrix is not square.
    pub fn spmm_rescaled(&self, x: &[f64], y: &mut [f64], k: usize, a_plus: f64, inv_a_minus: f64) {
        assert_eq!(self.nrows, self.ncols, "spmm_rescaled: matrix must be square");
        let f = crate::block::rescaled_store(x, self.ncols, a_plus, inv_a_minus);
        self.spmm_impl(x, y, k, f);
    }

    fn spmm_impl<F: Fn(f64, usize, usize) -> f64>(&self, x: &[f64], y: &mut [f64], k: usize, f: F) {
        assert_eq!(x.len(), self.ncols * k, "spmm: x length");
        assert_eq!(y.len(), self.nrows * k, "spmm: y length");
        let nrows = self.nrows;
        self.spmm_rows_sink(x, k, 0..nrows, &mut |acc, i, j| y[j * nrows + i] = f(acc, i, j));
    }

    // Columns are processed in register-blocked chunks of four so each
    // decoded (col, value) pair is reused across four accumulators; per
    // column the accumulation still runs over the row's entries in
    // ascending-column order, so results stay bitwise equal to `spmv`. The
    // sink receives the raw accumulator per `(row, col)` and stores it,
    // optionally through a rescale transform.
    fn spmm_rows_sink<S: FnMut(f64, usize, usize)>(
        &self,
        x: &[f64],
        k: usize,
        rows: std::ops::Range<usize>,
        sink: &mut S,
    ) {
        const CHUNK: usize = 4;
        for i in rows {
            let seg = self.row_range(i);
            let cols = &self.col_idx[seg.clone()];
            let vals = &self.values[seg];
            let mut j = 0;
            while j + CHUNK <= k {
                let mut acc = [0.0f64; CHUNK];
                for (&c, &v) in cols.iter().zip(vals) {
                    for (u, a) in acc.iter_mut().enumerate() {
                        *a += v * x[(j + u) * self.ncols + c as usize];
                    }
                }
                for (u, &a) in acc.iter().enumerate() {
                    sink(a, i, j + u);
                }
                j += CHUNK;
            }
            while j < k {
                let xcol = &x[j * self.ncols..(j + 1) * self.ncols];
                let mut acc = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * xcol[c as usize];
                }
                sink(acc, i, j);
                j += 1;
            }
        }
    }

    /// Columns `j0..j0 + W` of `rows_interleaved`.
    #[inline(always)]
    fn rows_chunk<const W: usize>(
        &self,
        x: &[f64],
        k: usize,
        j0: usize,
        rows: std::ops::Range<usize>,
        epi: &mut RowEpilogue<'_>,
    ) {
        epi.rows::<W>(
            x,
            k,
            j0,
            rows,
            #[inline(always)]
            |i| {
                let seg = self.row_range(i);
                let mut acc = [0.0f64; W];
                for (&c, &v) in self.col_idx[seg.clone()].iter().zip(&self.values[seg]) {
                    for (a, &xv) in acc.iter_mut().zip(&x[c as usize * k + j0..][..W]) {
                        *a += v * xv;
                    }
                }
                acc
            },
        );
    }

    /// Dense copy (small matrices / tests only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (j, v) in self.row_entries(i) {
                d.set(i, j, v);
            }
        }
        d
    }

    /// Transposed copy (also CSR).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr: Vec<u32> = counts.iter().map(|&p| index(p)).collect();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = counts;
        for r in 0..self.nrows {
            for (c, v) in self.row_entries(r) {
                let slot = next[c];
                col_idx[slot] = index(r);
                values[slot] = v;
                next[c] += 1;
            }
        }
        // Rows were visited in increasing order, so each transposed row's
        // columns are already sorted.
        CsrMatrix::from_raw(self.ncols, self.nrows, row_ptr, col_idx, values)
            .expect("transpose produced invalid CSR — internal bug")
    }

    /// Structural + numerical symmetry within tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Different sparsity patterns can still be numerically symmetric
            // (explicit zeros on one side only) — fall back to value checks.
            for i in 0..self.nrows {
                for (j, v) in self.row_entries(i) {
                    if (v - self.get(j, i)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.values.iter().zip(&t.values).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Returns a copy with entries of magnitude `<= threshold` removed.
    pub fn prune(&self, threshold: f64) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for i in 0..self.nrows {
            for (j, v) in self.row_entries(i) {
                if v.abs() > threshold {
                    col_idx.push(index(j));
                    values.push(v);
                }
            }
            row_ptr.push(index(col_idx.len()));
        }
        CsrMatrix::from_raw(self.nrows, self.ncols, row_ptr, col_idx, values)
            .expect("prune produced invalid CSR — internal bug")
    }

    /// Maximum number of stored entries in any row.
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows).map(|i| self.row_range(i).len()).max().unwrap_or(0)
    }
}

crate::isa::kernels! {
    /// Row kernel of the tiled engine (`crate::tiled::TiledOp`): rows `rows`
    /// of `A X` for a row-interleaved `k`-column block (element `(c, j)` at
    /// `c * k + j`), each handed to the epilogue `epi` as soon as it is
    /// computed: stored into a tile, or run through a later doubling step
    /// (`crate::tiled::RowEpilogue`). Each decoded entry meets the inputs
    /// it multiplies as one contiguous run of `x`, and per element the
    /// accumulation runs over the row's entries in ascending-column order
    /// from `0.0`, exactly as in `spmv`, so every value is bitwise equal to
    /// `spmm`'s. The caller checks the lengths.
    pub(crate) fn rows_interleaved(
        m: &CsrMatrix,
        x: &[f64],
        k: usize,
        rows: std::ops::Range<usize>,
        epi: &mut RowEpilogue<'_>,
    ) {
        crate::tiled::for_each_chunk!(k, |j0, W| m.rows_chunk::<W>(x, k, j0, rows.clone(), epi));
    }
}

impl LinearOp for CsrMatrix {
    fn dim(&self) -> usize {
        assert_eq!(self.nrows, self.ncols, "LinearOp requires a square matrix");
        self.nrows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }

    fn apply_rescaled(&self, x: &[f64], y: &mut [f64], a_plus: f64, inv_a_minus: f64) {
        self.spmv_rescaled(x, y, a_plus, inv_a_minus);
    }

    fn stored_entries(&self) -> usize {
        self.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_raw(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0])
            .unwrap()
    }

    #[test]
    fn from_raw_validates_row_ptr_length() {
        let e = CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(LinalgError::InvalidStructure(_))));
    }

    #[test]
    fn from_raw_validates_first_pointer() {
        let e = CsrMatrix::from_raw(1, 2, vec![1, 1], vec![], vec![]);
        assert!(e.is_err());
    }

    #[test]
    fn from_raw_validates_monotonicity() {
        let e = CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(e.is_err());
    }

    #[test]
    fn from_raw_validates_column_order_and_range() {
        // duplicate column
        let e = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert!(e.is_err());
        // out-of-range column
        let e = CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(e.is_err());
        // nnz mismatch between col_idx and values
        let e = CsrMatrix::from_raw(1, 2, vec![0, 1], vec![0], vec![1.0, 2.0]);
        assert!(e.is_err());
    }

    #[test]
    fn get_returns_stored_and_implicit_entries() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, -1.0, 2.0];
        let mut ys = vec![0.0; 3];
        let mut yd = vec![0.0; 3];
        m.spmv(&x, &mut ys);
        d.matvec(&x, &mut yd);
        assert_eq!(ys, yd);
        assert_eq!(ys, vec![5.0, 0.0, -1.0]);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        // transpose twice is identity
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn symmetric_detection() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 1, -1.0).unwrap();
        coo.push_symmetric(1, 2, -1.0).unwrap();
        let m = coo.to_csr();
        assert!(m.is_symmetric(0.0));
        assert!(!sample().is_symmetric(1e-12));
    }

    #[test]
    fn symmetry_with_asymmetric_pattern_but_symmetric_values() {
        // Explicit zero at (0,1) only; (1,0) not stored. Numerically symmetric.
        let m = CsrMatrix::from_raw(2, 2, vec![0, 1, 1], vec![1], vec![0.0]).unwrap();
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn prune_drops_small_entries() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1e-14).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        let m = coo.to_csr();
        assert_eq!(m.nnz(), 2);
        let p = m.prune(1e-12);
        assert_eq!(p.nnz(), 1);
        assert_eq!(p.get(0, 1), 1.0);
    }

    #[test]
    fn max_row_nnz() {
        assert_eq!(sample().max_row_nnz(), 2);
        let empty = CsrMatrix::from_raw(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(empty.max_row_nnz(), 0);
    }

    #[test]
    fn linear_op_impl() {
        let m = sample();
        assert_eq!(m.dim(), 3);
        assert_eq!(m.stored_entries(), 4);
        let y = m.apply_alloc(&[1.0, 0.0, 0.0]);
        assert_eq!(y, vec![1.0, 0.0, 3.0]);
    }
}
