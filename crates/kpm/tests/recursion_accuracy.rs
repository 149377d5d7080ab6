//! Accuracy of the moment-doubling recursion against the paper's loop.
//!
//! Every front door runs moment doubling (`mu_{2m} = 2 <r_m|r_m> - mu_0`,
//! `mu_{2m+1} = 2 <r_{m+1}|r_m> - mu_1`), which reaches each moment through
//! other roundings than the paper's one-sweep-per-moment loop. On the
//! paper's lattice and on a disordered lattice under the contained Lanczos
//! bounds, the normalized moment estimate must agree to 1e-13 with the
//! paper's loop run per realization (`pair_vector_moments` with `l = r0`)
//! and merged by the estimator's own reduction.

use kpm::moments::pair_vector_moments;
use kpm::prelude::*;
use kpm::random::fill_random_vector;
use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};

/// Largest normalized moment difference the default recursion may show
/// against the paper's loop.
const TOLERANCE: f64 = 1e-13;

/// Compares the default stochastic moments of `params` on `tb` with the
/// paper's loop over the same start vectors, through the same bounds and
/// rescale as the jobs.
fn assert_default_matches_plain(tb: &TightBinding, params: KpmParams, what: &str) {
    let h = tb.build_csr();
    let bounds = h.spectral_bounds(params.bounds).expect("bounds");
    let rescaled = rescale(&h, bounds, params.padding).expect("rescale");
    let doubling = stochastic_moments(&rescaled, &params).mean;
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
    let plain = MomentStats::merge_realizations(&rows).mean;
    assert_eq!(doubling.len(), plain.len());
    let (worst, at) = doubling
        .iter()
        .zip(&plain)
        .map(|(d, p)| (d - p).abs())
        .enumerate()
        .fold((0.0f64, 0), |(w, at), (m, e)| if e > w { (e, m) } else { (w, at) });
    assert!(worst <= TOLERANCE, "{what}: |mu_{at}| differs by {worst:e}");
}

/// Fig. 5/6: the periodic 10x10x10 cubic lattice with its stored zero
/// diagonal, Gershgorin bounds, N = 1024, R = 14.
#[test]
fn default_recursion_matches_plain_on_the_paper_lattice() {
    let tb = TightBinding::new(
        HypercubicLattice::cubic(10, 10, 10, Boundary::Periodic),
        1.0,
        OnSite::Uniform(0.0),
    )
    .store_zero_diagonal(true);
    let params = KpmParams::new(1024).with_random_vectors(14, 1).with_seed(20110516);
    assert_default_matches_plain(&tb, params, "cubic:10,10,10");
}

/// A 24^3 Anderson lattice, W = 8, under `bounds=lanczos`.
#[test]
fn default_recursion_matches_plain_on_a_disordered_lattice_under_lanczos_bounds() {
    let tb = TightBinding::new(
        HypercubicLattice::cubic(24, 24, 24, Boundary::Periodic),
        1.0,
        OnSite::Disorder { width: 8.0, seed: 5 },
    );
    let params = KpmParams::new(256)
        .with_random_vectors(4, 1)
        .with_seed(48)
        .with_bounds(BoundsMethod::Lanczos { steps: 64 });
    assert_default_matches_plain(&tb, params, "cubic:24,24,24 W = 8");
}
