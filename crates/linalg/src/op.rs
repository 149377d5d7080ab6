//! The [`LinearOp`] abstraction: anything that can apply `y = A x`.
//!
//! The KPM recursion only ever multiplies the Hamiltonian into a vector, so
//! the whole method is generic over this single capability. Dense matrices,
//! CSR matrices, and the spectrally rescaled wrapper all implement it.

use crate::vecops;

/// A square linear operator `A : R^dim -> R^dim` applied as `y = A x`.
///
/// Implementations must be deterministic: two applications to the same input
/// must produce bitwise-identical output (the GPU/CPU equivalence tests rely
/// on this).
pub trait LinearOp {
    /// Dimension `D` of the operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    /// Implementations panic if `x.len() != self.dim()` or
    /// `y.len() != self.dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Number of stored scalar coefficients (dense: `D^2`; CSR: `nnz`).
    /// Drives the cost models.
    fn stored_entries(&self) -> usize;

    /// Number of coefficient slots a memory-traffic model should charge for.
    ///
    /// Identical to [`LinearOp::stored_entries`] for operators that stream
    /// their coefficients from memory (dense, CSR). A matrix-free operator
    /// (the stencil) regenerates its entries and reports `0`, while its
    /// `stored_entries` keeps the true `nnz` for physics-facing callers.
    fn model_entries(&self) -> usize {
        self.stored_entries()
    }

    /// Computes `y = (A x - a_plus * x) * inv_a_minus` — the spectrally
    /// rescaled application `y = H~ x` in one logical operation.
    ///
    /// The default runs [`LinearOp::apply`] followed by the element-wise
    /// shift-and-scale pass; formats with their own kernels override it to
    /// apply the transform while the raw result is still in registers,
    /// saving a full read-modify-write pass over `y` (and a read of `x`)
    /// per application. Every implementation must compute exactly
    /// `(raw_i - a_plus * x_i) * inv_a_minus` per element so results stay
    /// bitwise identical to the default.
    ///
    /// # Panics
    /// Same contract as [`LinearOp::apply`].
    fn apply_rescaled(&self, x: &[f64], y: &mut [f64], a_plus: f64, inv_a_minus: f64) {
        self.apply(x, y);
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = (*yi - a_plus * xi) * inv_a_minus;
        }
    }

    /// Convenience: allocate and return `A x`.
    fn apply_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply(x, &mut y);
        y
    }
}

/// The spectral rescaling of the paper's Eq. (8):
/// `H~ = (H - a_plus I) / a_minus`, applied as
/// `y = (A x - a_plus x) / a_minus`.
///
/// `a_plus = (E_upper + E_lower)/2`, `a_minus = (E_upper - E_lower)/2`
/// (Eq. 9), so the spectrum of `H~` lies in `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct RescaledOp<A> {
    inner: A,
    a_plus: f64,
    a_minus: f64,
}

impl<A: LinearOp> RescaledOp<A> {
    /// Wraps `inner` with the affine map `(x - a_plus)/a_minus`.
    ///
    /// # Panics
    /// Panics if `a_minus == 0.0` (degenerate spectrum: rescaling undefined).
    pub fn new(inner: A, a_plus: f64, a_minus: f64) -> Self {
        assert!(a_minus != 0.0, "RescaledOp: a_minus must be nonzero");
        Self { inner, a_plus, a_minus }
    }

    /// The centre `a_plus` of the affine map.
    pub fn a_plus(&self) -> f64 {
        self.a_plus
    }

    /// The half-width `a_minus` of the affine map.
    pub fn a_minus(&self) -> f64 {
        self.a_minus
    }

    /// Borrow the wrapped operator.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// Maps an eigenvalue of the *original* operator to the rescaled axis.
    pub fn to_rescaled(&self, e: f64) -> f64 {
        (e - self.a_plus) / self.a_minus
    }

    /// Maps a point on the rescaled axis back to the original energy axis
    /// (Eq. 12 inverted).
    pub fn to_original(&self, x: f64) -> f64 {
        x * self.a_minus + self.a_plus
    }
}

impl<A: LinearOp> LinearOp for RescaledOp<A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // y = (y - a_plus * x) / a_minus; formats fuse the pass into their
        // kernel's store step, the default runs it separately — bitwise
        // identical either way.
        self.inner.apply_rescaled(x, y, self.a_plus, 1.0 / self.a_minus);
    }

    fn stored_entries(&self) -> usize {
        self.inner.stored_entries()
    }

    fn model_entries(&self) -> usize {
        self.inner.model_entries()
    }
}

impl<A: LinearOp + ?Sized> LinearOp for &A {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }
    fn apply_rescaled(&self, x: &[f64], y: &mut [f64], a_plus: f64, inv_a_minus: f64) {
        (**self).apply_rescaled(x, y, a_plus, inv_a_minus)
    }
    fn stored_entries(&self) -> usize {
        (**self).stored_entries()
    }
    fn model_entries(&self) -> usize {
        (**self).model_entries()
    }
}

/// Identity operator of a given dimension — useful in tests and as the
/// trivial fixture for trace estimators (`Tr[T_n(I)] = D * T_n(1) = D`).
#[derive(Debug, Clone, Copy)]
pub struct IdentityOp {
    dim: usize,
}

impl IdentityOp {
    /// Identity on `R^dim`.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }
}

impl LinearOp for IdentityOp {
    fn dim(&self) -> usize {
        self.dim
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "IdentityOp: x length");
        assert_eq!(y.len(), self.dim, "IdentityOp: y length");
        vecops::copy(x, y);
    }
    fn stored_entries(&self) -> usize {
        self.dim
    }
}

/// Diagonal operator `y_i = d_i x_i` — the simplest nontrivial spectrum,
/// heavily used by validation tests because its eigenvalues are explicit.
#[derive(Debug, Clone)]
pub struct DiagonalOp {
    diag: Vec<f64>,
}

impl DiagonalOp {
    /// Builds the operator from its diagonal (= its spectrum).
    pub fn new(diag: Vec<f64>) -> Self {
        Self { diag }
    }

    /// The diagonal entries.
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }
}

impl LinearOp for DiagonalOp {
    fn dim(&self) -> usize {
        self.diag.len()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.diag.len(), "DiagonalOp: x length");
        assert_eq!(y.len(), self.diag.len(), "DiagonalOp: y length");
        for ((yi, &xi), &di) in y.iter_mut().zip(x).zip(&self.diag) {
            *yi = di * xi;
        }
    }
    fn stored_entries(&self) -> usize {
        self.diag.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_applies() {
        let id = IdentityOp::new(3);
        let y = id.apply_alloc(&[1.0, 2.0, 3.0][..]);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
        assert_eq!(id.dim(), 3);
        assert_eq!(id.stored_entries(), 3);
    }

    #[test]
    fn diagonal_applies() {
        let d = DiagonalOp::new(vec![2.0, -1.0, 0.5]);
        let y = d.apply_alloc(&[1.0, 1.0, 4.0]);
        assert_eq!(y, vec![2.0, -1.0, 2.0]);
    }

    #[test]
    fn rescaled_maps_spectrum_into_unit_interval() {
        // diag spectrum {-3, 1, 5}: a_plus = 1, a_minus = 4.
        let d = DiagonalOp::new(vec![-3.0, 1.0, 5.0]);
        let r = RescaledOp::new(d, 1.0, 4.0);
        assert_eq!(r.to_rescaled(-3.0), -1.0);
        assert_eq!(r.to_rescaled(1.0), 0.0);
        assert_eq!(r.to_rescaled(5.0), 1.0);
        assert_eq!(r.to_original(-1.0), -3.0);
        // Apply: eigenvector e_0 must pick up the rescaled eigenvalue.
        let y = r.apply_alloc(&[1.0, 0.0, 0.0]);
        assert_eq!(y, vec![-1.0, 0.0, 0.0]);
    }

    #[test]
    fn rescaled_roundtrip_is_identity() {
        let d = DiagonalOp::new(vec![0.0]);
        let r = RescaledOp::new(d, 0.7, 2.3);
        for &e in &[-5.0, -0.1, 0.0, 3.3] {
            let back = r.to_original(r.to_rescaled(e));
            assert!((back - e).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "a_minus must be nonzero")]
    fn rescaled_rejects_zero_width() {
        let _ = RescaledOp::new(IdentityOp::new(1), 0.0, 0.0);
    }

    #[test]
    fn blanket_ref_impl_works() {
        fn dim_of<A: LinearOp>(a: A) -> usize {
            a.dim()
        }
        let id = IdentityOp::new(4);
        let by_ref: &IdentityOp = &id;
        assert_eq!(dim_of(by_ref), 4, "&A goes through the blanket impl");
        assert_eq!(dim_of(id), 4);
    }
}
