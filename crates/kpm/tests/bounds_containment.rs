//! Containment validation for the spectrum-adaptive bounds provider: the
//! contained Lanczos pass must bracket the *full* dense-eigensolve
//! spectrum on every tested operator — random symmetric matrices and the
//! paper's lattices, clean and disordered — while beating the Gershgorin
//! discs wherever disorder makes them loose.

use kpm::prelude::*;
use kpm_lattice::spec::LatticeSpec;
use kpm_lattice::{Boundary, OnSite};
use kpm_linalg::dense::DenseMatrix;
use kpm_linalg::eigen::jacobi_eigenvalues;
use kpm_linalg::op::DiagonalOp;
use kpm_linalg::{LinearOp, SparseMatrix};
use proptest::prelude::*;

fn to_dense(h: &SparseMatrix) -> DenseMatrix {
    let d = h.dim();
    let mut cols = vec![vec![0.0; d]; d];
    for (j, col) in cols.iter_mut().enumerate() {
        let mut e = vec![0.0; d];
        e[j] = 1.0;
        h.apply(&e, col);
    }
    DenseMatrix::from_fn(d, d, |i, j| cols[j][i])
}

fn assert_contained(label: &str, bounds: &SpectralBounds, eigs: &[f64]) {
    let (lo, hi) = (eigs[0], eigs[eigs.len() - 1]);
    assert!(
        bounds.lower <= lo + 1e-9 && bounds.upper >= hi - 1e-9,
        "{label}: bounds [{}, {}] must contain spectrum [{lo}, {hi}]",
        bounds.lower,
        bounds.upper
    );
}

/// The window may exceed the true spectral interval by at most 1%: the
/// probe's 0.1% cushion plus converged residuals, with room to spare.
fn assert_tight(label: &str, bounds: &SpectralBounds, eigs: &[f64]) {
    let spread = eigs[eigs.len() - 1] - eigs[0];
    assert!(
        bounds.width() <= 1.01 * spread,
        "{label}: window [{}, {}] is {:.4}% wider than the spectrum's {spread}",
        bounds.lower,
        bounds.upper,
        100.0 * (bounds.width() / spread - 1.0)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random dense symmetric matrices: for any Krylov depth, the safety
    /// margin keeps the Ritz window a true enclosure of the spectrum.
    #[test]
    fn lanczos_contains_random_symmetric_spectra(
        dim in 2usize..20,
        steps in 2usize..32,
        entries in proptest::collection::vec(-3.0..3.0f64, 400),
    ) {
        let m = DenseMatrix::from_fn(dim, dim, |i, j| {
            (entries[i * dim + j] + entries[j * dim + i]) / 2.0
        });
        let bounds = lanczos_contained(&m, steps).unwrap();
        let mut eigs = jacobi_eigenvalues(&m).unwrap();
        eigs.sort_by(f64::total_cmp);
        let (lo, hi) = (eigs[0], eigs[eigs.len() - 1]);
        prop_assert!(
            bounds.lower <= lo + 1e-9 && bounds.upper >= hi - 1e-9,
            "bounds [{}, {}] vs spectrum [{}, {}] (dim {}, steps {})",
            bounds.lower, bounds.upper, lo, hi, dim, steps
        );
    }
}

/// Paper-style lattices, clean and Anderson-disordered: Lanczos bounds
/// contain the dense spectrum, and on disordered operators they are
/// strictly tighter than the Gershgorin discs (the whole point — the
/// discs overshoot by O(W/2)).
#[test]
fn lanczos_contains_lattice_spectra_and_tightens_under_disorder() {
    let cases: &[(&str, f64)] = &[
        ("chain:48", 0.0),
        ("chain:48", 8.0),
        ("square:6,6", 0.0),
        ("square:6,6", 6.0),
        ("cubic:4,4,4", 12.0),
        ("honeycomb:4,4", 5.0),
    ];
    for &(spec, w) in cases {
        let onsite =
            if w == 0.0 { OnSite::Uniform(0.0) } else { OnSite::Disorder { width: w, seed: 3 } };
        let h = LatticeSpec::parse(spec).unwrap().build_format(
            1.0,
            onsite,
            Boundary::Periodic,
            kpm_linalg::MatrixFormat::Csr,
        );
        let label = format!("{spec} W={w}");
        let gersh = h.spectral_bounds(BoundsMethod::Gershgorin).unwrap();
        let lanczos = lanczos_contained(&h, DEFAULT_LANCZOS_STEPS).unwrap();
        let mut eigs = jacobi_eigenvalues(&to_dense(&h)).unwrap();
        eigs.sort_by(f64::total_cmp);
        assert_contained(&label, &lanczos, &eigs);
        assert_contained(&label, &gersh, &eigs);
        // Lanczos never exceeds Gershgorin beyond its own safety cushion
        // (0.1% of the Ritz spread — visible only on clean operators whose
        // spectrum exactly fills the discs)...
        let cushion = 2e-3 * gersh.width();
        assert!(
            lanczos.lower >= gersh.lower - cushion && lanczos.upper <= gersh.upper + cushion,
            "{label}: lanczos [{}, {}] vs gershgorin [{}, {}]",
            lanczos.lower,
            lanczos.upper,
            gersh.lower,
            gersh.upper
        );
        // ...and beats it decisively wherever disorder inflates the discs.
        if w > 0.0 {
            assert!(
                lanczos.width() < 0.95 * gersh.width(),
                "{label}: expected a real tightening, got {} vs {}",
                lanczos.width(),
                gersh.width()
            );
        }
    }
}

/// Lattices larger than the default Krylov depth, so the recurrence runs
/// long enough to lose orthogonality (the clean cubic and square lattices
/// also exhaust their Krylov space: their degenerate spectra have fewer
/// than 64 distinct eigenvalues). The window must contain the dense
/// spectrum and stay within 1% of its width.
#[test]
fn lanczos_contains_lattice_spectra_past_lost_orthogonality() {
    for (spec, w) in
        [("cubic:7,7,7", 0.0), ("cubic:7,7,7", 12.0), ("square:16,16", 0.0), ("chain:300", 0.0)]
    {
        let onsite =
            if w == 0.0 { OnSite::Uniform(0.0) } else { OnSite::Disorder { width: w, seed: 3 } };
        let h = LatticeSpec::parse(spec).unwrap().build_format(
            1.0,
            onsite,
            Boundary::Periodic,
            kpm_linalg::MatrixFormat::Csr,
        );
        let label = format!("{spec} W={w}");
        let bounds = lanczos_contained(&h, DEFAULT_LANCZOS_STEPS).unwrap();
        let mut eigs = jacobi_eigenvalues(&to_dense(&h)).unwrap();
        eigs.sort_by(f64::total_cmp);
        assert_contained(&label, &bounds, &eigs);
        assert_tight(&label, &bounds, &eigs);
    }
}

/// Ghost-eigenvalue inputs with exactly known spectra (a diagonal operator
/// at D = 20,000, bulk evenly spaced on [-1, 1]). The probe keeps no basis
/// and never reorthogonalizes, so converged extremes come back as ghost
/// copies, clustered and degenerate extremes converge together, and a
/// Krylov space exhausted before the last step continues on rounding
/// noise. None of that may move the window off the spectrum.
#[test]
fn lanczos_contains_ghost_prone_spectra() {
    const D: usize = 20_000;
    let with_bulk = |extremes: &[f64]| {
        let bulk = D - extremes.len();
        let mut diag: Vec<f64> =
            (0..bulk).map(|i| -1.0 + 2.0 * i as f64 / (bulk - 1) as f64).collect();
        diag.extend_from_slice(extremes);
        diag
    };
    let cases: Vec<(&str, Vec<f64>, usize)> = vec![
        ("isolated top and bottom", with_bulk(&[10.0, -6.0]), DEFAULT_LANCZOS_STEPS),
        ("top cluster", with_bulk(&[3.0, 3.0 - 1e-10, 3.0 - 2e-10]), DEFAULT_LANCZOS_STEPS),
        (
            "5-fold degenerate extremes",
            with_bulk(&[4.0, 4.0, 4.0, 4.0, 4.0, -4.0, -4.0, -4.0, -4.0, -4.0]),
            DEFAULT_LANCZOS_STEPS,
        ),
        (
            "25 distinct values",
            (0..D).map(|i| -1.0 + 2.0 * (i % 25) as f64 / 24.0).collect(),
            DEFAULT_LANCZOS_STEPS,
        ),
        ("outliers at +-100", with_bulk(&[100.0, -100.0]), 200),
    ];
    for (label, diag, steps) in cases {
        let mut eigs = diag.clone();
        eigs.sort_by(f64::total_cmp);
        let bounds = lanczos_contained(&DiagonalOp::new(diag), steps).unwrap();
        assert_contained(label, &bounds, &eigs);
        assert_tight(label, &bounds, &eigs);
    }
}

/// The downstream payoff, end to end: at a fixed target resolution the
/// tighter half-width selects fewer moments, and the DoS it produces is
/// still a valid normalized density.
#[test]
fn fewer_moments_at_fixed_resolution_still_reconstructs() {
    let h = LatticeSpec::parse("chain:64").unwrap().build_format(
        1.0,
        OnSite::Disorder { width: 10.0, seed: 5 },
        Boundary::Periodic,
        kpm_linalg::MatrixFormat::Csr,
    );
    let eps = 0.25;
    let n_of = |method: BoundsMethod| {
        let b = h.spectral_bounds(method).unwrap();
        moments_for_resolution(KernelType::Jackson, b.padded(0.01).a_minus(), eps).unwrap()
    };
    let n_g = n_of(BoundsMethod::Gershgorin);
    let n_l = n_of(BoundsMethod::Lanczos { steps: 64 });
    assert!(n_l < n_g, "lanczos N = {n_l} must beat gershgorin N = {n_g}");
    let params = KpmParams::new(n_l)
        .with_random_vectors(4, 1)
        .with_bounds(BoundsMethod::Lanczos { steps: 64 });
    let dos = DosEstimator::new(params).compute(&h).unwrap();
    assert!((dos.integrate() - 1.0).abs() < 0.02, "integral = {}", dos.integrate());
}
