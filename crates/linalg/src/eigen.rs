//! Exact eigensolvers for validation.
//!
//! The paper positions KPM against *full diagonalization* (`O(D^3)`). To
//! validate the KPM density of states we need that ground truth on small
//! systems, so this module implements:
//!
//! * the cyclic Jacobi rotation method for dense symmetric matrices — slow
//!   but simple and extremely robust, plenty for `D <= ~1000`;
//! * the implicit-shift QL algorithm for symmetric tridiagonal matrices —
//!   the classic `tql`-style routine.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;

/// Eigenvalues of a dense symmetric matrix via cyclic Jacobi rotations,
/// returned sorted ascending.
///
/// # Errors
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NotSymmetric`] if `|a_ij - a_ji| > 1e-10 * ||A||_F`.
/// * [`LinalgError::NoConvergence`] if the off-diagonal mass fails to reach
///   machine precision within 100 sweeps (does not happen for symmetric
///   input).
pub fn jacobi_eigenvalues(m: &DenseMatrix) -> Result<Vec<f64>, LinalgError> {
    Ok(jacobi(m, false)?.0)
}

/// Eigenvalues **and** orthonormal eigenvectors (columns of the returned
/// matrix) of a dense symmetric matrix, eigenvalues sorted ascending.
///
/// # Errors
/// Same conditions as [`jacobi_eigenvalues`].
pub fn jacobi_eigen(m: &DenseMatrix) -> Result<(Vec<f64>, DenseMatrix), LinalgError> {
    let (vals, vecs) = jacobi(m, true)?;
    Ok((vals, vecs.expect("vectors requested")))
}

fn jacobi(
    m: &DenseMatrix,
    want_vectors: bool,
) -> Result<(Vec<f64>, Option<DenseMatrix>), LinalgError> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare { nrows: m.nrows(), ncols: m.ncols() });
    }
    let n = m.nrows();
    let fro = m.frobenius_norm();
    if !m.is_symmetric(1e-10 * fro.max(1.0)) {
        return Err(LinalgError::NotSymmetric);
    }
    if n == 0 {
        return Ok((Vec::new(), want_vectors.then(|| DenseMatrix::zeros(0, 0))));
    }

    let mut a: Vec<f64> = m.data().to_vec();
    let idx = |i: usize, j: usize| i * n + j;
    let mut v = want_vectors.then(|| DenseMatrix::identity(n));

    const MAX_SWEEPS: usize = 100;
    for _sweep in 0..MAX_SWEEPS {
        // Off-diagonal Frobenius mass.
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[idx(i, j)] * a[idx(i, j)];
            }
        }
        if off.sqrt() <= f64::EPSILON * fro.max(f64::MIN_POSITIVE) {
            let mut vals: Vec<f64> = (0..n).map(|i| a[idx(i, i)]).collect();
            let order = sorted_order(&vals);
            vals.sort_by(f64::total_cmp);
            let vecs = v.map(|vm| permute_columns(&vm, &order));
            return Ok((vals, vecs));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[idx(p, q)];
                if apq == 0.0 {
                    continue;
                }
                let app = a[idx(p, p)];
                let aqq = a[idx(q, q)];
                // Rotation angle: tan(2θ) = 2 a_pq / (a_qq - a_pp).
                let theta = 0.5 * (aqq - app) / apq;
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation to rows/columns p and q.
                for k in 0..n {
                    if k != p && k != q {
                        let akp = a[idx(k, p)];
                        let akq = a[idx(k, q)];
                        a[idx(k, p)] = c * akp - s * akq;
                        a[idx(p, k)] = a[idx(k, p)];
                        a[idx(k, q)] = s * akp + c * akq;
                        a[idx(q, k)] = a[idx(k, q)];
                    }
                }
                a[idx(p, p)] = app - t * apq;
                a[idx(q, q)] = aqq + t * apq;
                a[idx(p, q)] = 0.0;
                a[idx(q, p)] = 0.0;
                if let Some(vm) = v.as_mut() {
                    let vd = vm.data_mut();
                    for k in 0..n {
                        let vkp = vd[idx(k, p)];
                        let vkq = vd[idx(k, q)];
                        vd[idx(k, p)] = c * vkp - s * vkq;
                        vd[idx(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
    }
    Err(LinalgError::NoConvergence { algorithm: "jacobi", iterations: MAX_SWEEPS })
}

fn sorted_order(vals: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..vals.len()).collect();
    order.sort_by(|&i, &j| vals[i].total_cmp(&vals[j]));
    order
}

fn permute_columns(m: &DenseMatrix, order: &[usize]) -> DenseMatrix {
    let n = m.nrows();
    DenseMatrix::from_fn(n, n, |i, j| m.get(i, order[j]))
}

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal `diag`
/// (length `n`) and sub/super-diagonal `off` (length `n - 1`), via the
/// implicit-shift QL algorithm. Returned sorted ascending.
///
/// # Errors
/// * [`LinalgError::DimensionMismatch`] if `off.len() + 1 != diag.len()`.
/// * [`LinalgError::NoConvergence`] if any eigenvalue needs more than 50 QL
///   iterations.
pub fn tridiagonal_eigenvalues(diag: &[f64], off: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = diag.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if off.len() + 1 != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n - 1,
            found: off.len(),
            what: "off-diagonal",
        });
    }
    let mut d = diag.to_vec();
    // e is padded to length n with a trailing zero, as in the classic tql1.
    let mut e = Vec::with_capacity(n);
    e.extend_from_slice(off);
    e.push(0.0);

    const MAX_ITER: usize = 50;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the first small off-diagonal element at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_ITER {
                return Err(LinalgError::NoConvergence {
                    algorithm: "tridiagonal QL",
                    iterations: MAX_ITER,
                });
            }
            // Form the implicit Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                f = 0.0;
                let _ = f;
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(f64::total_cmp);
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_matrix(n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |i, j| if i.abs_diff(j) == 1 { -1.0 } else { 0.0 })
    }

    /// Analytic spectrum of the open chain: 2 cos(k pi/(n+1)) * (-1) hopping
    /// sign gives -2 cos(...) — same set since cos is symmetric over k.
    fn chain_spectrum(n: usize) -> Vec<f64> {
        let mut e: Vec<f64> = (1..=n)
            .map(|k| -2.0 * (std::f64::consts::PI * k as f64 / (n as f64 + 1.0)).cos())
            .collect();
        e.sort_by(f64::total_cmp);
        e
    }

    #[test]
    fn jacobi_on_diagonal_matrix() {
        let m = DenseMatrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = jacobi_eigenvalues(&m).unwrap();
        assert_eq!(e, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn jacobi_on_2x2_known() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let m = DenseMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let e = jacobi_eigenvalues(&m).unwrap();
        assert!((e[0] - 1.0).abs() < 1e-12);
        assert!((e[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_matches_analytic_chain_spectrum() {
        let n = 12;
        let e = jacobi_eigenvalues(&chain_matrix(n)).unwrap();
        let expected = chain_spectrum(n);
        for (a, b) in e.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn jacobi_eigenvectors_diagonalize() {
        let n = 6;
        let m = DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                i as f64 * 0.3
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else if i.abs_diff(j) == 2 {
                0.25
            } else {
                0.0
            }
        });
        let (vals, vecs) = jacobi_eigen(&m).unwrap();
        // Check A v_k = lambda_k v_k column-by-column.
        for k in 0..n {
            let vk: Vec<f64> = (0..n).map(|i| vecs.get(i, k)).collect();
            let mut av = vec![0.0; n];
            m.matvec(&vk, &mut av);
            for i in 0..n {
                assert!((av[i] - vals[k] * vk[i]).abs() < 1e-9, "residual too large at ({i}, {k})");
            }
        }
        // Orthonormality.
        for a in 0..n {
            for b in 0..n {
                let va: Vec<f64> = (0..n).map(|i| vecs.get(i, a)).collect();
                let vb: Vec<f64> = (0..n).map(|i| vecs.get(i, b)).collect();
                let d = crate::vecops::dot(&va, &vb);
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn jacobi_rejects_asymmetric() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 5.0, 0.0, 1.0]).unwrap();
        assert!(matches!(jacobi_eigenvalues(&m), Err(LinalgError::NotSymmetric)));
    }

    #[test]
    fn jacobi_rejects_rectangular() {
        let m = DenseMatrix::zeros(2, 3);
        assert!(matches!(jacobi_eigenvalues(&m), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn jacobi_empty_matrix() {
        let m = DenseMatrix::zeros(0, 0);
        assert!(jacobi_eigenvalues(&m).unwrap().is_empty());
    }

    #[test]
    fn tridiagonal_matches_jacobi() {
        let n = 10;
        let diag: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let off: Vec<f64> = (0..n - 1).map(|i| 1.0 + 0.1 * i as f64).collect();
        let tq = tridiagonal_eigenvalues(&diag, &off).unwrap();
        let m = DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                diag[i]
            } else if i.abs_diff(j) == 1 {
                off[i.min(j)]
            } else {
                0.0
            }
        });
        let jc = jacobi_eigenvalues(&m).unwrap();
        for (a, b) in tq.iter().zip(&jc) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn tridiagonal_chain_spectrum() {
        let n = 15;
        let diag = vec![0.0; n];
        let off = vec![-1.0; n - 1];
        let e = tridiagonal_eigenvalues(&diag, &off).unwrap();
        let expected = chain_spectrum(n);
        for (a, b) in e.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn tridiagonal_single_element() {
        assert_eq!(tridiagonal_eigenvalues(&[4.2], &[]).unwrap(), vec![4.2]);
        assert!(tridiagonal_eigenvalues(&[], &[]).unwrap().is_empty());
    }

    #[test]
    fn tridiagonal_rejects_bad_lengths() {
        assert!(tridiagonal_eigenvalues(&[1.0, 2.0], &[]).is_err());
        assert!(tridiagonal_eigenvalues(&[1.0], &[1.0, 2.0]).is_err());
    }
}
