//! Cross-format equivalence properties: CSR, stencil, and dense
//! application of the same lattice Hamiltonian must agree *bitwise*, for
//! single vectors and for column blocks of every width. This is the
//! contract that lets the KPM pipeline select a storage format freely
//! without perturbing physics results.

use kpm_lattice::{Boundary, HypercubicLattice, LatticeSpec, OnSite, TightBinding};
use kpm_linalg::gershgorin::gershgorin_csr;
use kpm_linalg::op::RescaledOp;
use kpm_linalg::tiled::fused_block_moments_doubling;
use kpm_linalg::{
    BlockOp, CsrMatrix, LinearOp, MatrixFormat, SparseMatrix, StencilGeometry, StencilOp, TiledOp,
    AUTO_STENCIL_MIN_DIM,
};
use proptest::prelude::*;

fn boundaries() -> impl Strategy<Value = Vec<Boundary>> {
    proptest::collection::vec(prop_oneof![Just(Boundary::Open), Just(Boundary::Periodic)], 1..5)
}

fn onsite() -> impl Strategy<Value = OnSite> {
    prop_oneof![
        Just(OnSite::Uniform(0.0)),
        (0.1..2.0f64).prop_map(OnSite::Uniform),
        (0u64..50, 0.5..3.0f64).prop_map(|(seed, width)| OnSite::Disorder { width, seed }),
    ]
}

/// Deterministic quasi-random block: nothing special about the values, they
/// just have to exercise every row with distinct magnitudes and signs.
fn test_block(dim: usize, k: usize) -> Vec<f64> {
    (0..dim * k).map(|i| ((i * 2654435761 + 12345) % 1000) as f64 / 500.0 - 1.0).collect()
}

/// Asserts `m`'s `apply_block` output is bitwise equal to the CSR
/// reference for widths 1..=k_max, and `apply` matches column 0.
fn assert_formats_agree(csr_h: &kpm_linalg::CsrMatrix, m: &SparseMatrix, k_max: usize) {
    let d = csr_h.dim();
    for k in 1..=k_max {
        let x = test_block(d, k);
        let mut reference = vec![0.0; d * k];
        csr_h.apply_block(&x, &mut reference, k);
        // CSR reference must itself degenerate to per-column spmv.
        for (j, col) in reference.chunks_exact(d).enumerate() {
            let y = csr_h.apply_alloc(&x[j * d..(j + 1) * d]);
            assert_eq!(col, &y[..], "CSR block column {j} differs from spmv");
        }
        // Dense comparison is tolerance-based (different accumulation
        // order), sparse formats are bitwise.
        let dense = csr_h.to_dense();
        let mut dense_y = vec![0.0; d * k];
        dense.apply_block(&x, &mut dense_y, k);
        for (a, b) in dense_y.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "dense mismatch: {a} vs {b}");
        }
        let mut y = vec![0.0; d * k];
        m.apply_block(&x, &mut y, k);
        assert_eq!(y, reference, "format {} k={k} differs from CSR", m.format_name());
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// On-site energies with exact `0.0` and `-0.0` among nonzero values.
fn onsite_with_zeros(d: usize) -> Vec<f64> {
    (0..d)
        .map(|i| match i % 5 {
            0 | 3 => 0.0,
            1 => -0.0,
            _ => ((i * 7919) % 13) as f64 / 6.5 - 1.0,
        })
        .collect()
}

/// The lattice crate's CSR of `lat` with the on-site energies `onsite`:
/// its hops from `build_csr`, and a diagonal entry where `onsite[i] != 0.0`
/// or `store_zero` holds, the builders' rule.
fn reference_csr(lat: &HypercubicLattice, t: f64, onsite: &[f64], store_zero: bool) -> CsrMatrix {
    let base = TightBinding::new(lat.clone(), t, OnSite::Uniform(0.0))
        .store_zero_diagonal(true)
        .build_csr();
    let (mut row_ptr, mut cols, mut values) = (vec![0u32], Vec::new(), Vec::new());
    for (i, &e) in onsite.iter().enumerate() {
        for (j, v) in base.row_entries(i) {
            if j != i || e != 0.0 || store_zero {
                cols.push(j as u32);
                values.push(if j == i { e } else { v });
            }
        }
        row_ptr.push(cols.len() as u32);
    }
    CsrMatrix::from_raw(onsite.len(), onsite.len(), row_ptr, cols, values).unwrap()
}

/// Doubling-recursion moments of `op` rescaled into `[-1, 1]` by `bounds`,
/// from a fixed start block, on the tiled engine.
fn doubling_moments<A: TiledOp + Sync + Clone>(
    op: &A,
    (lower, upper): (f64, f64),
    k: usize,
    threads: usize,
    tile_rows: usize,
) -> Vec<Vec<u64>> {
    let a_minus = (0.505 * (upper - lower)).max(1.0);
    let rescaled = RescaledOp::new(op.clone(), 0.5 * (upper + lower), a_minus);
    let r0 = test_block(op.dim(), k);
    let (mu, _) = fused_block_moments_doubling(&rescaled, &r0, k, 12, threads, tile_rows);
    mu.iter().map(|m| bits(m)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The stencil against the lattice CSR, on open and periodic
    /// lattices in 1-D to 4-D with extents 1, 2, 3 and more, with builder
    /// on-site energies or exact `0.0` and `-0.0` among nonzero ones, with
    /// and without stored zero diagonals: the stored-entry count, `to_csr`,
    /// the Gershgorin discs, the one-vector and block products bare and
    /// rescaled, and tiled doubling moments from tiles that start mid-line.
    #[test]
    fn hypercubic_formats_apply_bitwise_identically(
        dims in proptest::collection::vec(1usize..7, 1..5),
        bcs in boundaries(),
        onsite in prop_oneof![3 => onsite().prop_map(Some), 1 => Just(None)],
        store_zero in prop_oneof![Just(false), Just(true)],
        t in 0.2..2.5f64,
    ) {
        let ndim = dims.len().min(bcs.len());
        let lat = HypercubicLattice::with_boundaries(&dims[..ndim], &bcs[..ndim]);
        let (csr_h, m) = match onsite {
            Some(onsite) => {
                let tb = TightBinding::new(lat, t, onsite).store_zero_diagonal(store_zero);
                (tb.build_csr(), tb.build_format(MatrixFormat::Stencil))
            }
            // No builder draws exact zeros among nonzero energies.
            None => {
                let energies = onsite_with_zeros(lat.num_sites());
                let csr_h = reference_csr(&lat, t, &energies, store_zero);
                let periodic = lat.boundaries().iter().map(|&b| b == Boundary::Periodic).collect();
                let geometry = StencilGeometry { dims: lat.dims().to_vec(), periodic };
                let stencil = StencilOp::new(geometry, t, energies, store_zero);
                (csr_h, SparseMatrix::Stencil(stencil))
            }
        };
        // The stencil must actually be matrix-free here, not a fallback.
        prop_assert_eq!(m.format_name(), "stencil");
        let d = csr_h.dim();
        let bounds = gershgorin_csr(&csr_h);
        prop_assert_eq!(m.nnz(), csr_h.nnz());
        prop_assert_eq!(m.to_csr(), csr_h.clone());
        prop_assert_eq!(m.gershgorin_bounds(), bounds);
        let x = test_block(d, 1);
        prop_assert_eq!(bits(&m.apply_alloc(&x)), bits(&csr_h.apply_alloc(&x)));
        let (mut got, mut want) = (vec![0.0; d], vec![0.0; d]);
        m.apply_rescaled(&x, &mut got, 0.3, 1.0 / 1.7);
        csr_h.apply_rescaled(&x, &mut want, 0.3, 1.0 / 1.7);
        prop_assert_eq!(bits(&got), bits(&want), "apply_rescaled");
        for k in 1..=4 {
            let x = test_block(d, k);
            let (mut got, mut want) = (vec![0.0; d * k], vec![0.0; d * k]);
            m.apply_block_rescaled(&x, &mut got, k, -0.2, 0.9);
            csr_h.apply_block_rescaled(&x, &mut want, k, -0.2, 0.9);
            prop_assert_eq!(bits(&got), bits(&want), "apply_block_rescaled, k = {}", k);
        }
        let b = (bounds.lower, bounds.upper);
        for (k, threads, tile_rows) in [(1, 1, 128), (3, 1, 5), (8, 2, 7), (17, 1, 3)] {
            prop_assert_eq!(
                doubling_moments(&m, b, k, threads, tile_rows),
                doubling_moments(&csr_h, b, k, threads, tile_rows),
                "doubling moments, k = {}, {} threads, {}-row tiles",
                k, threads, tile_rows
            );
        }
        assert_formats_agree(&csr_h, &m, 4);
    }

    /// Models the stencil cannot express, a next-nearest chain and a
    /// honeycomb lattice, build as CSR under `MatrixFormat::Stencil`.
    #[test]
    fn next_nearest_model_falls_back_to_csr(
        l in 4usize..8,
        tp in 0.1..0.6f64,
        lx in 1usize..5,
        ly in 1usize..5,
        bc in prop_oneof![Just(Boundary::Open), Just(Boundary::Periodic)],
        onsite in onsite(),
        t in 0.2..2.5f64,
    ) {
        let tb = TightBinding::new(
            HypercubicLattice::chain(l, Boundary::Periodic),
            1.0,
            OnSite::Uniform(0.0),
        )
        .with_next_nearest(tp);
        prop_assert!(tb.build_stencil().is_none());
        let m = tb.build_format(MatrixFormat::Stencil);
        prop_assert_eq!(m.format_name(), "csr");
        prop_assert_eq!(m.to_csr(), tb.build_csr());
        let honeycomb = LatticeSpec::Honeycomb(lx, ly);
        let m = honeycomb.build_format(t, onsite, bc, MatrixFormat::Stencil);
        prop_assert_eq!(m.format_name(), "csr");
        prop_assert_eq!(m.to_csr(), honeycomb.build(t, onsite, bc));
    }
}

#[test]
fn paper_cubic_lattice_formats_agree() {
    // The paper's flagship 10x10x10 periodic cubic lattice with the stored
    // zero diagonal (7 entries per row).
    let spec = LatticeSpec::Cubic(10, 10, 10);
    let tb = TightBinding::new(
        HypercubicLattice::cubic(10, 10, 10, Boundary::Periodic),
        1.0,
        OnSite::Uniform(0.0),
    )
    .store_zero_diagonal(true);
    let csr_h = tb.build_csr();
    assert_eq!(csr_h.nnz(), 7000);
    assert_eq!(spec.num_sites(), 1000);
    let stencil = tb.build_format(MatrixFormat::Stencil);
    assert_eq!(stencil.format_name(), "stencil");
    assert_formats_agree(&csr_h, &stencil, 8);
}

#[test]
fn auto_builds_the_stencil_from_the_threshold_up() {
    // The smallest cube at or above the threshold, and the one below it.
    let side = (1..).find(|l| l * l * l >= AUTO_STENCIL_MIN_DIM).unwrap();
    for (l, want) in [(side - 1, "csr"), (side, "stencil")] {
        let spec = LatticeSpec::Cubic(l, l, l);
        let onsite = OnSite::Disorder { width: 12.0, seed: 5 };
        let auto = spec.build_format(1.0, onsite, Boundary::Periodic, MatrixFormat::Auto);
        assert_eq!(auto.format_name(), want, "{l}^3");
        let csr_h = spec.build(1.0, onsite, Boundary::Periodic);
        assert_eq!(auto.nnz(), csr_h.nnz());
        let x = test_block(csr_h.dim(), 1);
        assert_eq!(bits(&auto.apply_alloc(&x)), bits(&csr_h.apply_alloc(&x)), "{l}^3");
    }
    // Models the stencil cannot express, and honeycombs, stay CSR.
    let big = HypercubicLattice::chain(AUTO_STENCIL_MIN_DIM, Boundary::Periodic);
    let nnn = TightBinding::new(big, 1.0, OnSite::Uniform(0.0)).with_next_nearest(0.3);
    assert_eq!(nnn.build_format(MatrixFormat::Auto).format_name(), "csr");
    let honeycomb = LatticeSpec::Honeycomb(120, 120);
    let h = honeycomb.build_format(1.0, OnSite::Uniform(0.0), Boundary::Open, MatrixFormat::Auto);
    assert_eq!(h.format_name(), "csr");
}
