//! Gershgorin spectral bounds — the paper's Eq. (8)–(9).
//!
//! Every eigenvalue of `H` lies in the union of the discs
//! `|λ - H_ii| <= Σ_{j≠i} |H_ij|`, so
//! `E_lower = min_i (H_ii - R_i)` and `E_upper = max_i (H_ii + R_i)`
//! bound the spectrum. The paper uses exactly these to form
//! `a_± = (E_upper ± E_lower)/2` and rescale `H~ = (H - a_+)/a_-`.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;

/// Lower and upper bounds on the spectrum of a symmetric matrix, plus the
/// derived affine-rescaling coefficients of the paper's Eq. (9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralBounds {
    /// Guaranteed lower bound `E_lower`.
    pub lower: f64,
    /// Guaranteed upper bound `E_upper`.
    pub upper: f64,
}

impl SpectralBounds {
    /// Constructs from explicit bounds.
    ///
    /// # Panics
    /// Panics if `lower > upper` or either bound is not finite.
    pub fn new(lower: f64, upper: f64) -> Self {
        assert!(lower.is_finite() && upper.is_finite(), "bounds must be finite");
        assert!(lower <= upper, "lower bound exceeds upper bound");
        Self { lower, upper }
    }

    /// Centre of the interval: `a_+ = (E_upper + E_lower) / 2` (Eq. 9).
    pub fn a_plus(&self) -> f64 {
        0.5 * (self.upper + self.lower)
    }

    /// Half-width of the interval: `a_- = (E_upper - E_lower) / 2` (Eq. 9).
    ///
    /// For a degenerate interval (single point spectrum) this is zero and the
    /// caller must widen via [`SpectralBounds::padded`] before rescaling.
    pub fn a_minus(&self) -> f64 {
        0.5 * (self.upper - self.lower)
    }

    /// Returns bounds widened by a relative safety factor `eps`:
    /// the half-width grows by `eps * max(half_width, 1)`. KPM
    /// implementations conventionally pad a little so the rescaled spectrum
    /// stays strictly inside `(-1, 1)` where the Chebyshev weight
    /// `1/sqrt(1-x^2)` is finite.
    pub fn padded(&self, eps: f64) -> Self {
        assert!(eps >= 0.0, "padding must be nonnegative");
        let pad = eps * self.a_minus().max(1.0);
        Self { lower: self.lower - pad, upper: self.upper + pad }
    }

    /// Width `E_upper - E_lower`.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// `true` if `e` lies within the bounds (inclusive).
    pub fn contains(&self, e: f64) -> bool {
        self.lower <= e && e <= self.upper
    }
}

/// Gershgorin bounds for a dense square matrix.
///
/// # Panics
/// Panics if the matrix is not square or is empty.
pub fn gershgorin_dense(m: &DenseMatrix) -> SpectralBounds {
    assert!(m.is_square(), "gershgorin: matrix must be square");
    assert!(m.nrows() > 0, "gershgorin: matrix must be nonempty");
    let n = m.nrows();
    let mut lower = f64::INFINITY;
    let mut upper = f64::NEG_INFINITY;
    for i in 0..n {
        let row = m.row(i);
        let d = row[i];
        let radius: f64 =
            row.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &v)| v.abs()).sum();
        lower = lower.min(d - radius);
        upper = upper.max(d + radius);
    }
    SpectralBounds::new(lower, upper)
}

/// Gershgorin bounds for a CSR matrix.
///
/// # Panics
/// Panics if the matrix is not square or is empty.
pub fn gershgorin_csr(m: &CsrMatrix) -> SpectralBounds {
    assert_eq!(m.nrows(), m.ncols(), "gershgorin: matrix must be square");
    assert!(m.nrows() > 0, "gershgorin: matrix must be nonempty");
    let mut lower = f64::INFINITY;
    let mut upper = f64::NEG_INFINITY;
    for i in 0..m.nrows() {
        let mut d = 0.0;
        let mut radius = 0.0;
        for (j, v) in m.row_entries(i) {
            if j == i {
                d = v;
            } else {
                radius += v.abs();
            }
        }
        lower = lower.min(d - radius);
        upper = upper.max(d + radius);
    }
    SpectralBounds::new(lower, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::eigen::jacobi_eigenvalues;

    #[test]
    fn diagonal_matrix_bounds_are_tight() {
        let m = DenseMatrix::from_diag(&[-2.0, 0.5, 7.0]);
        let b = gershgorin_dense(&m);
        assert_eq!(b.lower, -2.0);
        assert_eq!(b.upper, 7.0);
        assert_eq!(b.a_plus(), 2.5);
        assert_eq!(b.a_minus(), 4.5);
    }

    #[test]
    fn csr_and_dense_agree() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push_symmetric(0, 1, -1.0).unwrap();
        coo.push_symmetric(1, 2, 2.0).unwrap();
        coo.push_symmetric(2, 3, -0.5).unwrap();
        coo.push(0, 0, 3.0).unwrap();
        let csr = coo.to_csr();
        let d = csr.to_dense();
        assert_eq!(gershgorin_csr(&csr), gershgorin_dense(&d));
    }

    #[test]
    fn bounds_contain_actual_eigenvalues() {
        // Symmetric tridiagonal with known spectrum: -t chain eigenvalues
        // are 2 cos(k pi / (n+1)), all inside Gershgorin's [-2, 2].
        let n = 8;
        let m = DenseMatrix::from_fn(n, n, |i, j| if i.abs_diff(j) == 1 { -1.0 } else { 0.0 });
        let b = gershgorin_dense(&m);
        let eig = jacobi_eigenvalues(&m).unwrap();
        for &e in &eig {
            assert!(b.contains(e), "eigenvalue {e} escaped bounds {b:?}");
        }
    }

    #[test]
    fn padding_widens() {
        let b = SpectralBounds::new(-1.0, 1.0);
        let p = b.padded(0.01);
        assert!(p.lower < -1.0 && p.upper > 1.0);
        assert!((p.width() - 2.02).abs() < 1e-12);
    }

    #[test]
    fn padding_handles_degenerate_interval() {
        let b = SpectralBounds::new(3.0, 3.0);
        assert_eq!(b.a_minus(), 0.0);
        let p = b.padded(0.1);
        assert!(p.a_minus() > 0.0, "padding must break the degenerate interval");
        assert!(p.contains(3.0));
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn inverted_bounds_rejected() {
        let _ = SpectralBounds::new(1.0, -1.0);
    }
}
