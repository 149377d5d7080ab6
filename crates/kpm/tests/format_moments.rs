//! End-to-end format invariance on the paper's flagship workload: the full
//! KPM moment pipeline (bounds → rescale → blocked stochastic recursion)
//! must produce *bitwise-identical* bounds and moment statistics whether the
//! 10x10x10 cubic Hamiltonian is stored as CSR, a matrix-free stencil, or
//! dense, under Gershgorin bounds and, on a disordered lattice,
//! under the contained Lanczos probe. This is the acceptance gate for
//! treating the storage format as a pure performance knob.

use kpm::prelude::*;
use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};
use kpm_linalg::MatrixFormat;

fn paper_model() -> TightBinding {
    TightBinding::new(
        HypercubicLattice::cubic(10, 10, 10, Boundary::Periodic),
        1.0,
        OnSite::Uniform(0.0),
    )
    .store_zero_diagonal(true)
}

/// The paper lattice under Anderson disorder `W = 12`, the operator the
/// contained Lanczos bounds provider exists for.
fn disordered_model() -> TightBinding {
    TightBinding::new(
        HypercubicLattice::cubic(10, 10, 10, Boundary::Periodic),
        1.0,
        OnSite::Disorder { width: 12.0, seed: 7 },
    )
}

fn params(recursion: Recursion) -> KpmParams {
    KpmParams::new(32).with_random_vectors(4, 2).with_seed(20110516).with_recursion(recursion)
}

fn moments_for<A: Boundable + TiledOp + Sync>(op: &A, p: &KpmParams) -> MomentStats {
    let bounds = op.spectral_bounds(p.bounds).expect("bounds");
    let rescaled = rescale(op, bounds, p.padding).expect("rescale");
    stochastic_moments(&rescaled, p)
}

fn bound_bits<A: Boundable>(op: &A, method: BoundsMethod) -> (u64, u64) {
    let b = op.spectral_bounds(method).expect("bounds");
    (b.lower.to_bits(), b.upper.to_bits())
}

#[test]
fn paper_lattice_moments_bitwise_identical_across_formats() {
    let inputs = [
        (paper_model(), BoundsMethod::Gershgorin),
        (disordered_model(), BoundsMethod::Lanczos { steps: 64 }),
    ];
    for (tb, method) in inputs {
        let csr_h = tb.build_csr();
        let ref_bits = bound_bits(&csr_h, method);
        for format in [MatrixFormat::Stencil, MatrixFormat::Auto] {
            assert_eq!(bound_bits(&tb.build_format(format), method), ref_bits, "{format} {method}");
        }
        for recursion in [Recursion::Plain, Recursion::Doubling] {
            let p = params(recursion).with_bounds(method);
            let reference = moments_for(&csr_h, &p);
            for format in [MatrixFormat::Stencil, MatrixFormat::Auto] {
                let m = tb.build_format(format);
                let stats = moments_for(&m, &p);
                assert_eq!(stats.mean, reference.mean, "{format} mean ({recursion:?})");
                assert_eq!(stats.std_err, reference.std_err, "{format} std_err ({recursion:?})");
            }
        }
    }
}

#[test]
fn auto_stencil_lattice_moments_bitwise_identical_to_csr() {
    // 30^3 = 27,000 sites, above the threshold: `auto` runs the stencil.
    for onsite in [OnSite::Disorder { width: 12.0, seed: 3 }, OnSite::Uniform(0.0)] {
        let tb = TightBinding::new(
            HypercubicLattice::cubic(30, 30, 30, Boundary::Periodic),
            1.0,
            onsite,
        );
        let csr_h = tb.build_csr();
        let auto = tb.build_format(MatrixFormat::Auto);
        assert_eq!(auto.format_name(), "stencil");
        assert_eq!(auto.nnz(), csr_h.nnz());
        for method in [BoundsMethod::Gershgorin, BoundsMethod::Lanczos { steps: 64 }] {
            assert_eq!(bound_bits(&auto, method), bound_bits(&csr_h, method), "{method}");
            let p = KpmParams::new(16).with_random_vectors(3, 2).with_seed(9).with_bounds(method);
            let (got, want) = (moments_for(&auto, &p), moments_for(&csr_h, &p));
            assert_eq!(got.mean, want.mean, "{method} mean");
            assert_eq!(got.std_err, want.std_err, "{method} std_err");
        }
    }
}

#[test]
fn paper_lattice_dense_moments_match_sparse_closely() {
    // Dense accumulates rows in a different FP order, so equality is to
    // tight tolerance rather than bitwise.
    let tb = paper_model();
    let p = params(Recursion::Plain);
    let sparse = moments_for(&tb.build_csr(), &p);
    let dense = moments_for(&tb.build_csr().to_dense(), &p);
    for (a, b) in dense.mean.iter().zip(&sparse.mean) {
        assert!((a - b).abs() < 1e-12, "dense vs sparse mean: {a} vs {b}");
    }
}

#[test]
fn full_dos_estimate_is_format_invariant() {
    let tb = paper_model();
    let p = params(Recursion::Plain);
    let reference = DosEstimator::new(p.clone()).compute(&tb.build_csr()).expect("csr dos");
    for format in [MatrixFormat::Auto, MatrixFormat::Stencil] {
        let dos =
            DosEstimator::new(p.clone()).compute(&tb.build_format(format)).expect("format dos");
        assert_eq!(dos.rho, reference.rho, "{format}");
        assert_eq!(dos.energies, reference.energies, "{format}");
    }
}
