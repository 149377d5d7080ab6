//! Property-based tests for the linear-algebra substrate.

use kpm_linalg::coo::CooMatrix;
use kpm_linalg::csr::CsrMatrix;
use kpm_linalg::dense::DenseMatrix;
use kpm_linalg::eigen::{jacobi_eigenvalues, tridiagonal_eigenvalues};
use kpm_linalg::gershgorin::{gershgorin_csr, gershgorin_dense};
use kpm_linalg::vecops;
use proptest::prelude::*;

/// A small finite f64 for matrix entries.
fn entry() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => -10.0..10.0f64,
        1 => Just(0.0),
    ]
}

/// Strategy producing a random sparse square matrix as triplets.
fn sparse_square(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (1..=max_n).prop_flat_map(|n| {
        let triplet = (0..n, 0..n, entry());
        (Just(n), proptest::collection::vec(triplet, 0..3 * n))
    })
}

fn build_pair(n: usize, triplets: &[(usize, usize, f64)]) -> (CsrMatrix, DenseMatrix) {
    let mut coo = CooMatrix::new(n, n);
    let mut dense = DenseMatrix::zeros(n, n);
    for &(i, j, v) in triplets {
        coo.push(i, j, v).unwrap();
        dense.set(i, j, dense.get(i, j) + v);
    }
    (coo.to_csr(), dense)
}

proptest! {
    #[test]
    fn coo_to_csr_preserves_entries((n, triplets) in sparse_square(12)) {
        let (csr, dense) = build_pair(n, &triplets);
        for i in 0..n {
            for j in 0..n {
                prop_assert!((csr.get(i, j) - dense.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spmv_matches_dense_matvec((n, triplets) in sparse_square(12), seed in 0u64..1000) {
        let (csr, dense) = build_pair(n, &triplets);
        let x: Vec<f64> = (0..n).map(|i| ((seed as f64 + i as f64) * 0.7).sin()).collect();
        let mut ys = vec![0.0; n];
        let mut yd = vec![0.0; n];
        csr.spmv(&x, &mut ys);
        dense.matvec(&x, &mut yd);
        prop_assert!(vecops::max_abs_diff(&ys, &yd) < 1e-9);
    }

    #[test]
    fn csr_transpose_is_involution((n, triplets) in sparse_square(10)) {
        let (csr, _) = build_pair(n, &triplets);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn csr_structural_invariants_hold((n, triplets) in sparse_square(12)) {
        let (csr, _) = build_pair(n, &triplets);
        // Reconstruct through from_raw: must validate cleanly.
        let rebuilt = CsrMatrix::from_raw(
            csr.nrows(), csr.ncols(),
            csr.row_ptr().to_vec(), csr.col_idx().to_vec(), csr.values().to_vec(),
        );
        prop_assert!(rebuilt.is_ok());
    }

    #[test]
    fn gershgorin_contains_spectrum((n, triplets) in sparse_square(8)) {
        // Symmetrize so Jacobi applies.
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in &triplets {
            coo.push_symmetric(i, j, v).unwrap();
        }
        let csr = coo.to_csr();
        let dense = csr.to_dense();
        let b_csr = gershgorin_csr(&csr);
        let b_dense = gershgorin_dense(&dense);
        prop_assert!((b_csr.lower - b_dense.lower).abs() < 1e-9);
        prop_assert!((b_csr.upper - b_dense.upper).abs() < 1e-9);
        let eig = jacobi_eigenvalues(&dense).unwrap();
        for &e in &eig {
            prop_assert!(b_dense.padded(1e-12).contains(e),
                "eigenvalue {} outside ({}, {})", e, b_dense.lower, b_dense.upper);
        }
    }

    #[test]
    fn jacobi_eigenvalue_sum_equals_trace((n, triplets) in sparse_square(8)) {
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in &triplets {
            coo.push_symmetric(i, j, v).unwrap();
        }
        let dense = coo.to_csr().to_dense();
        let eig = jacobi_eigenvalues(&dense).unwrap();
        let sum: f64 = eig.iter().sum();
        let scale = dense.frobenius_norm().max(1.0);
        prop_assert!((sum - dense.trace()).abs() < 1e-9 * scale,
            "trace {} vs eigenvalue sum {}", dense.trace(), sum);
    }

    #[test]
    fn tridiagonal_ql_matches_jacobi(
        n in 1usize..12,
        seed in 0u64..500,
    ) {
        let diag: Vec<f64> = (0..n).map(|i| ((seed + i as u64) as f64 * 0.77).sin() * 3.0).collect();
        let off: Vec<f64> = (0..n.saturating_sub(1))
            .map(|i| ((seed + 31 + i as u64) as f64 * 1.3).cos() * 2.0)
            .collect();
        let ql = tridiagonal_eigenvalues(&diag, &off).unwrap();
        let dense = DenseMatrix::from_fn(n, n, |i, j| {
            if i == j { diag[i] } else if i.abs_diff(j) == 1 { off[i.min(j)] } else { 0.0 }
        });
        let jc = jacobi_eigenvalues(&dense).unwrap();
        for (a, b) in ql.iter().zip(&jc) {
            prop_assert!((a - b).abs() < 1e-8, "{} vs {}", a, b);
        }
    }

    #[test]
    fn dot_is_bilinear(
        x in proptest::collection::vec(-5.0..5.0f64, 1..40),
        alpha in -3.0..3.0f64,
    ) {
        let y: Vec<f64> = x.iter().map(|v| v * 2.0 + 1.0).collect();
        let scaled: Vec<f64> = x.iter().map(|v| v * alpha).collect();
        let lhs = vecops::dot(&scaled, &y);
        let rhs = alpha * vecops::dot(&x, &y);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()));
    }

    #[test]
    fn norm2_triangle_inequality(
        x in proptest::collection::vec(-5.0..5.0f64, 1..40),
    ) {
        let y: Vec<f64> = x.iter().rev().copied().collect();
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        prop_assert!(vecops::norm2(&sum) <= vecops::norm2(&x) + vecops::norm2(&y) + 1e-12);
    }

    #[test]
    fn chebyshev_combine_inplace_matches_out_of_place(
        hx in proptest::collection::vec(-5.0..5.0f64, 1..40),
    ) {
        let prev: Vec<f64> = hx.iter().map(|v| v * 0.3 - 1.0).collect();
        let out: Vec<f64> = hx.iter().zip(&prev).map(|(&h, &p)| 2.0 * h - p).collect();
        let mut inplace = prev.clone();
        vecops::chebyshev_combine_inplace(&hx, &mut inplace);
        prop_assert_eq!(out, inplace);
    }

    #[test]
    fn rescaled_op_spectrum_in_unit_interval((n, triplets) in sparse_square(8)) {
        use kpm_linalg::op::RescaledOp;
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in &triplets {
            coo.push_symmetric(i, j, v).unwrap();
        }
        let dense = coo.to_csr().to_dense();
        let b = gershgorin_dense(&dense).padded(0.01);
        if b.a_minus() == 0.0 { return Ok(()); }
        let r = RescaledOp::new(dense.clone(), b.a_plus(), b.a_minus());
        let eig = jacobi_eigenvalues(&dense).unwrap();
        for &e in &eig {
            let x = r.to_rescaled(e);
            prop_assert!((-1.0..=1.0).contains(&x), "rescaled eigenvalue {} escaped", x);
        }
    }
}
