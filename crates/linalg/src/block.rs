//! The [`BlockOp`] abstraction: applying an operator to a `D x K`
//! column-block in one sweep.
//!
//! Stochastic trace estimation is a multiple-right-hand-side problem: every
//! moment step applies the same Hamiltonian to all `R` random vectors of a
//! realization. Doing that one vector at a time re-streams the matrix `R`
//! times; doing it as a blocked SpMM streams the matrix once and amortizes
//! each row's indices and values over the whole block. [`BlockOp`] is the
//! trait the KPM recursion consumes; every [`LinearOp`] gets a column-loop
//! fallback for free, and storage formats with a true SpMM kernel override
//! it.
//!
//! # Layout
//!
//! A block is a flat `&[f64]` of length `dim * k` holding `k` columns back
//! to back: column `j` is `x[j * dim..(j + 1) * dim]`. Column-major blocks
//! keep each vector contiguous, so `k = 1` degenerates to exactly the
//! one-vector layout and all the BLAS-1 kernels in [`crate::vecops`] apply
//! per column unchanged.
//!
//! # Determinism contract
//!
//! For every implementation, column `j` of `apply_block` must be bitwise
//! identical to `apply` on that column alone. The KPM test-suite's
//! bitwise-equivalence guarantees (CPU vs simulated GPU, cached vs direct,
//! blocked vs scalar) all rest on this.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::op::{DiagonalOp, IdentityOp, LinearOp, RescaledOp};
use crate::vecops;

/// Store transform shared by every rescaled kernel: maps the raw
/// accumulator for element `(i, j)` of a `dim x k` column-major block to
/// `(acc - a_plus * x[j * dim + i]) * inv_a_minus`.
///
/// CSR and the stencil both fuse the spectral shift-and-scale into their
/// store step with this exact expression; the tiled engine's row epilogue
/// ([`crate::tiled::RowEpilogue`]) applies the same one to each row of a
/// [`RescaledOp`] as the row kernel hands it over. Centralizing it pins the
/// operation order (`sub` then `mul`) that the bitwise scalar-vs-blocked
/// contracts depend on.
#[inline]
pub fn rescaled_store(
    x: &[f64],
    dim: usize,
    a_plus: f64,
    inv_a_minus: f64,
) -> impl Fn(f64, usize, usize) -> f64 + '_ {
    move |acc, i, j| (acc - a_plus * x[j * dim + i]) * inv_a_minus
}

/// A square operator applicable to a `dim x k` column-block: `Y = A X`.
///
/// The provided default loops [`LinearOp::apply`] over the columns, so any
/// `LinearOp` can opt in with an empty `impl BlockOp for T {}`. Formats with
/// a genuine SpMM kernel (CSR, stencil) override [`BlockOp::apply_block`]
/// to stream the matrix once per sweep.
pub trait BlockOp: LinearOp {
    /// Computes `Y = A X` where `x` and `y` each hold `k` columns of length
    /// `self.dim()` back to back.
    ///
    /// Column `j` of the result must be bitwise identical to
    /// [`LinearOp::apply`] on `x[j * dim..(j + 1) * dim]`.
    ///
    /// # Panics
    /// Panics if `x.len()` or `y.len()` differs from `self.dim() * k`.
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize) {
        let d = self.dim();
        assert_eq!(x.len(), d * k, "apply_block: x length");
        assert_eq!(y.len(), d * k, "apply_block: y length");
        if d == 0 {
            return;
        }
        for (xc, yc) in x.chunks_exact(d).zip(y.chunks_exact_mut(d)) {
            self.apply(xc, yc);
        }
    }

    /// Computes `Y = (A X - a_plus * X) * inv_a_minus` — the blocked form of
    /// [`LinearOp::apply_rescaled`].
    ///
    /// The default runs [`BlockOp::apply_block`] followed by the
    /// element-wise pass; format kernels override it to transform at store
    /// time, saving a full read-modify-write sweep over the `D x K` block
    /// per recursion step. Every implementation must compute exactly
    /// `(raw_i - a_plus * x_i) * inv_a_minus` per element, keeping each
    /// column bitwise identical to the one-vector path.
    ///
    /// # Panics
    /// Same contract as [`BlockOp::apply_block`].
    fn apply_block_rescaled(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        a_plus: f64,
        inv_a_minus: f64,
    ) {
        self.apply_block(x, y, k);
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = (*yi - a_plus * xi) * inv_a_minus;
        }
    }

    /// Convenience: allocate and return `A X`.
    fn apply_block_alloc(&self, x: &[f64], k: usize) -> Vec<f64> {
        let mut y = vec![0.0; self.dim() * k];
        self.apply_block(x, &mut y, k);
        y
    }
}

impl<A: BlockOp + ?Sized> BlockOp for &A {
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize) {
        (**self).apply_block(x, y, k)
    }

    fn apply_block_rescaled(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        a_plus: f64,
        inv_a_minus: f64,
    ) {
        (**self).apply_block_rescaled(x, y, k, a_plus, inv_a_minus)
    }
}

impl BlockOp for IdentityOp {}

impl BlockOp for DiagonalOp {}

impl BlockOp for CsrMatrix {
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize) {
        self.spmm(x, y, k);
    }

    fn apply_block_rescaled(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        a_plus: f64,
        inv_a_minus: f64,
    ) {
        self.spmm_rescaled(x, y, k, a_plus, inv_a_minus);
    }
}

impl BlockOp for DenseMatrix {
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize) {
        let d = self.dim();
        assert_eq!(x.len(), d * k, "apply_block: x length");
        assert_eq!(y.len(), d * k, "apply_block: y length");
        // Rows outer, columns inner: each row is loaded once and dotted with
        // every column while hot. Per column this is the same
        // `vecops::dot(row, xcol)` as `matvec`, so results are bitwise equal.
        for i in 0..d {
            let row = self.row(i);
            for j in 0..k {
                y[j * d + i] = vecops::dot(row, &x[j * d..(j + 1) * d]);
            }
        }
    }
}

impl<A: BlockOp> BlockOp for RescaledOp<A> {
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize) {
        // Same `(y - a_plus x) / a_minus` element sequence as the scalar
        // `apply`; formats fuse it into their kernel's store step, the
        // default runs it as a separate pass — bitwise identical either way.
        self.inner().apply_block_rescaled(x, y, k, self.a_plus(), 1.0 / self.a_minus());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_raw(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0])
            .unwrap()
    }

    fn block_matches_column_loop<A: BlockOp>(op: &A, k: usize) {
        let d = op.dim();
        let x: Vec<f64> = (0..d * k).map(|i| (i as f64).sin() + 0.25).collect();
        let blocked = op.apply_block_alloc(&x, k);
        for j in 0..k {
            let col = op.apply_alloc(&x[j * d..(j + 1) * d]);
            assert_eq!(&blocked[j * d..(j + 1) * d], &col[..], "column {j}");
        }
    }

    #[test]
    fn default_column_loop_matches_apply() {
        block_matches_column_loop(&IdentityOp::new(5), 3);
        block_matches_column_loop(&DiagonalOp::new(vec![2.0, -1.0, 0.5, 7.0]), 4);
    }

    #[test]
    fn csr_spmm_matches_spmv_per_column() {
        block_matches_column_loop(&sample_csr(), 1);
        block_matches_column_loop(&sample_csr(), 4);
    }

    #[test]
    fn dense_block_matches_matvec_per_column() {
        let m = DenseMatrix::from_fn(6, 6, |i, j| ((3 * i + j) as f64).cos());
        block_matches_column_loop(&m, 1);
        block_matches_column_loop(&m, 5);
    }

    #[test]
    fn rescaled_forwards_blocks_bitwise() {
        let r = RescaledOp::new(sample_csr(), 0.7, 2.3);
        block_matches_column_loop(&r, 3);
    }

    #[test]
    fn reference_forwarding_works() {
        let m = sample_csr();
        block_matches_column_loop(&&m, 2);
    }

    #[test]
    fn zero_width_block_is_a_noop() {
        let m = sample_csr();
        let y = m.apply_block_alloc(&[], 0);
        assert!(y.is_empty());
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn length_mismatch_panics() {
        let m = sample_csr();
        let mut y = vec![0.0; 6];
        m.apply_block(&[0.0; 5], &mut y, 2);
    }
}
