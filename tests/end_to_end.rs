//! End-to-end integration: lattice construction → exact diagonalization →
//! KPM pipeline, validating the reproduction against ground truth across
//! crate boundaries.

use kpm_suite::kpm::moments::{
    exact_moments, pair_vector_moments, stochastic_moments, KpmParams, MomentStats,
};
use kpm_suite::kpm::prelude::*;
use kpm_suite::kpm::random::fill_random_vector;
use kpm_suite::kpm::rescale::{rescale, Boundable};
use kpm_suite::lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};
use kpm_suite::linalg::eigen::jacobi_eigenvalues;

/// KPM moments of a real lattice Hamiltonian match the moments computed
/// from its exact spectrum within stochastic error.
#[test]
#[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
fn lattice_moments_match_exact_diagonalization() {
    let tb = TightBinding::new(
        HypercubicLattice::square(6, 6, Boundary::Periodic),
        1.0,
        OnSite::Disorder { width: 2.0, seed: 8 },
    );
    let h = tb.build_csr();
    let params = KpmParams::new(24)
        .with_random_vectors(16, 8)
        .with_distribution(Distribution::Gaussian)
        .with_seed(44);
    let bounds = h.spectral_bounds(params.bounds).unwrap();
    let rescaled = rescale(&h, bounds.padded(params.padding), 0.0).unwrap();
    let stats = stochastic_moments(&rescaled, &params);

    let eig = jacobi_eigenvalues(&h.to_dense()).unwrap();
    let scaled: Vec<f64> = eig.iter().map(|&e| rescaled.to_rescaled(e)).collect();
    let exact = exact_moments(&scaled, 24);
    for n in 0..24 {
        let tol = 6.0 * stats.std_err[n] + 5e-3;
        assert!(
            (stats.mean[n] - exact[n]).abs() < tol,
            "mu_{n}: {} vs {} (se {})",
            stats.mean[n],
            exact[n],
            stats.std_err[n]
        );
    }
}

/// The full DoS pipeline reproduces the integrated spectral count of exact
/// diagonalization at several probe energies.
#[test]
fn dos_cumulative_matches_exact_counts() {
    let tb = TightBinding::new(
        HypercubicLattice::cubic(4, 4, 4, Boundary::Open),
        1.0,
        OnSite::Uniform(0.3),
    );
    let h = tb.build_csr();
    let d = h.nrows();
    let eig = jacobi_eigenvalues(&h.to_dense()).unwrap();

    let params = KpmParams::new(128).with_random_vectors(16, 8).with_seed(9);
    let dos = DosEstimator::new(params).compute(&h).unwrap();
    assert!((dos.integrate() - 1.0).abs() < 0.02);

    for probe in [-2.0, 0.0, 1.5] {
        let exact_frac = eig.iter().filter(|&&e| e < probe).count() as f64 / d as f64;
        let kpm_frac = dos.integrate_range(dos.energies[0], probe);
        assert!(
            (exact_frac - kpm_frac).abs() < 0.06,
            "probe {probe}: exact {exact_frac} vs kpm {kpm_frac}"
        );
    }
}

/// The pipeline's moment-doubling DoS equals the DoS reconstructed from
/// the paper's loop (one matvec per moment) run on the same start vectors.
#[test]
fn recursion_strategies_agree_end_to_end() {
    let h = kpm_suite::lattice::dense_random_symmetric(64, 1.0, 15);
    let params = KpmParams::new(64).with_random_vectors(8, 2).with_seed(31);
    let estimator = DosEstimator::new(params.clone());
    let doubled = estimator.compute(&h).unwrap();

    let bounds = h.spectral_bounds(params.bounds).unwrap();
    let rescaled = rescale(&h, bounds, params.padding).unwrap();
    let d = rescaled.dim();
    let rows: Vec<Vec<f64>> = (0..params.total_realizations())
        .map(|idx| {
            let (s, r) = (idx / params.num_random, idx % params.num_random);
            let mut r0 = vec![0.0; d];
            fill_random_vector(params.distribution, params.seed, s, r, &mut r0);
            let mu = pair_vector_moments(&rescaled, &r0, &r0, params.num_moments);
            mu.into_iter().map(|m| m / d as f64).collect()
        })
        .collect();
    let moments = MomentStats::merge_realizations(&rows);
    let plain = estimator.reconstruct(moments, rescaled.a_plus(), rescaled.a_minus()).unwrap();
    assert_eq!(plain.energies, doubled.energies);
    for (a, b) in plain.rho.iter().zip(&doubled.rho) {
        assert!((a - b).abs() < 1e-8, "{a} vs {b}");
    }
}

/// Lanczos bounds give the same physics as Gershgorin, with a narrower
/// rescaling window (better energy resolution at equal N).
#[test]
fn lanczos_bounds_pipeline_agrees_and_tightens() {
    // Disordered chain: the Gershgorin discs inflate by W/2 on every row
    // while the true spectral edge stays far inside, so the contained
    // Lanczos window is decisively narrower. (On a clean chain the
    // spectrum fills the discs to within the probe's safety cushion and
    // there is nothing to tighten.)
    let tb = TightBinding::new(
        HypercubicLattice::chain(64, Boundary::Open),
        1.0,
        OnSite::Disorder { width: 6.0, seed: 9 },
    );
    let h = tb.build_csr();
    let gersh = KpmParams::new(64).with_random_vectors(8, 4).with_seed(5);
    let lanc = gersh.clone().with_bounds(BoundsMethod::Lanczos { steps: 60 });

    let dos_g = DosEstimator::new(gersh).compute(&h).unwrap();
    let dos_l = DosEstimator::new(lanc).compute(&h).unwrap();
    assert!((dos_g.integrate() - 1.0).abs() < 0.03);
    assert!((dos_l.integrate() - 1.0).abs() < 0.03);
    assert!(
        dos_l.a_minus < dos_g.a_minus,
        "Lanczos window {} must be tighter than Gershgorin {}",
        dos_l.a_minus,
        dos_g.a_minus
    );
    // Same fraction of states below the band centre.
    let f_g = dos_g.integrate_range(dos_g.energies[0], 0.0);
    let f_l = dos_l.integrate_range(dos_l.energies[0], 0.0);
    assert!((f_g - f_l).abs() < 0.03, "{f_g} vs {f_l}");
}

/// Chain DoS reproduces the analytic 1/(pi sqrt(4 - E^2)) law in the bulk.
#[test]
fn chain_dos_matches_analytic_band() {
    let tb = TightBinding::new(
        HypercubicLattice::chain(1024, Boundary::Periodic),
        1.0,
        OnSite::Uniform(0.0),
    );
    let h = tb.build_csr();
    let params = KpmParams::new(256).with_random_vectors(8, 4).with_seed(77);
    let dos = DosEstimator::new(params).compute(&h).unwrap();
    for probe in [-1.5, -0.5, 0.0, 0.8, 1.5] {
        let analytic = 1.0 / (std::f64::consts::PI * (4.0f64 - probe * probe).sqrt());
        let kpm = dos.value_at(probe).unwrap();
        assert!(
            (kpm - analytic).abs() < 0.15 * analytic + 0.01,
            "E = {probe}: kpm {kpm} vs analytic {analytic}"
        );
    }
}
