//! Property-based tests for the KPM core.

use kpm::chebyshev;
use kpm::dct;
use kpm::fft::{dft_naive, fft, Direction};
use kpm::kernels::KernelType;
use kpm::moments::{exact_moments, pair_vector_moments, single_vector_moments};
use kpm::random::{fill_random_vector, Distribution};
use kpm_linalg::op::DiagonalOp;
use proptest::prelude::*;

fn unit_interval() -> impl Strategy<Value = f64> {
    -0.999..0.999f64
}

proptest! {
    #[test]
    fn chebyshev_recursion_equals_trig(n in 0usize..200, x in -1.0..1.0f64) {
        let rec = chebyshev::t(n, x);
        let trig = chebyshev::t_trig(n, x);
        prop_assert!((rec - trig).abs() < 1e-8, "T_{}({}) = {} vs {}", n, x, rec, trig);
    }

    #[test]
    fn chebyshev_product_identity(m in 0usize..40, n in 0usize..40, x in unit_interval()) {
        // 2 T_m T_n = T_{m+n} + T_{|m-n|} — the identity moment doubling
        // rests on.
        let lhs = 2.0 * chebyshev::t(m, x) * chebyshev::t(n, x);
        let rhs = chebyshev::t(m + n, x) + chebyshev::t(m.abs_diff(n), x);
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn chebyshev_bounded_on_unit_interval(n in 0usize..150, x in -1.0..1.0f64) {
        prop_assert!(chebyshev::t(n, x).abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn kernel_coefficients_in_unit_range(n in 1usize..300) {
        for k in [KernelType::Jackson, KernelType::Lorentz { lambda: 4.0 }, KernelType::Fejer] {
            let g = k.coefficients(n);
            prop_assert_eq!(g.len(), n);
            for (i, &gi) in g.iter().enumerate() {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&gi),
                    "{:?} g_{} = {}", k, i, gi);
            }
        }
    }

    #[test]
    fn fft_roundtrip_random(signal in proptest::collection::vec(-10.0..10.0f64, 1..65)) {
        let n = signal.len().next_power_of_two();
        let mut buf: Vec<kpm::complex::Complex64> = signal
            .iter()
            .map(|&v| kpm::complex::Complex64::real(v))
            .collect();
        buf.resize(n, kpm::complex::Complex64::ZERO);
        let orig = buf.clone();
        fft(Direction::Forward, &mut buf);
        fft(Direction::Inverse, &mut buf);
        for (a, b) in buf.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_is_linear(seed in 0u64..100) {
        let n = 32;
        let mk = |s: u64| -> Vec<kpm::complex::Complex64> {
            (0..n).map(|i| kpm::complex::Complex64::new(
                ((i as u64 + s) as f64 * 0.7).sin(),
                ((i as u64 + 2 * s) as f64 * 0.3).cos(),
            )).collect()
        };
        let a = mk(seed);
        let b = mk(seed + 57);
        let sum: Vec<_> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum;
        fft(Direction::Forward, &mut fa);
        fft(Direction::Forward, &mut fb);
        fft(Direction::Forward, &mut fsum);
        for i in 0..n {
            prop_assert!(((fa[i] + fb[i]) - fsum[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_matches_naive_for_random_inputs(seed in 0u64..50) {
        let n = 16;
        let x: Vec<kpm::complex::Complex64> = (0..n)
            .map(|i| kpm::complex::Complex64::new(
                ((i as u64 * 7 + seed) as f64).sin(),
                ((i as u64 * 3 + seed) as f64).cos(),
            ))
            .collect();
        let mut fast = x.clone();
        fft(Direction::Forward, &mut fast);
        let slow = dft_naive(Direction::Forward, &x);
        for i in 0..n {
            prop_assert!((fast[i] - slow[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn dct_fft_equals_naive(
        coeffs in proptest::collection::vec(-2.0..2.0f64, 1..40),
        log_k in 5usize..9,
    ) {
        let k = 1usize << log_k;
        let fast = dct::reconstruction_sums(&coeffs, k);
        let slow = dct::dct3_naive(&coeffs, k);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn doubling_equals_plain_for_any_start_vector(
        seed in 0u64..200,
        n in 2usize..40,
        d in 2usize..24,
    ) {
        let diag: Vec<f64> = (0..d).map(|i| ((seed + i as u64) as f64 * 0.37).sin() * 0.95).collect();
        let op = DiagonalOp::new(diag);
        let mut r0 = vec![0.0; d];
        fill_random_vector(Distribution::Gaussian, seed, 0, 0, &mut r0);
        let plain = pair_vector_moments(&op, &r0, &r0, n);
        let doubled = single_vector_moments(&op, &r0, n);
        for i in 0..n {
            let scale = 1.0 + plain[i].abs();
            prop_assert!((plain[i] - doubled[i]).abs() < 1e-8 * scale,
                "i = {}: {} vs {}", i, plain[i], doubled[i]);
        }
    }

    #[test]
    fn exact_moments_bounded_by_one(
        eigs in proptest::collection::vec(-1.0..1.0f64, 1..50),
        n in 1usize..64,
    ) {
        // |mu_n| = |(1/D) sum T_n(e)| <= 1.
        let mu = exact_moments(&eigs, n);
        prop_assert!((mu[0] - 1.0).abs() < 1e-12);
        for &m in &mu {
            prop_assert!(m.abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn stochastic_moments_unbiased_within_error(
        seed in 0u64..20,
    ) {
        // Gaussian estimator vs exact moments; 5-sigma + floor tolerance.
        use kpm::moments::{stochastic_moments, KpmParams};
        let d = 96;
        let eigs: Vec<f64> = (0..d)
            .map(|i| ((seed + i as u64) as f64 * 0.53).sin() * 0.9)
            .collect();
        let op = DiagonalOp::new(eigs.clone());
        let exact = exact_moments(&eigs, 10);
        let p = KpmParams::new(10)
            .with_random_vectors(16, 8)
            .with_distribution(Distribution::Gaussian)
            .with_seed(seed);
        let stats = stochastic_moments(&op, &p);
        for i in 0..10 {
            let tol = 6.0 * stats.std_err[i] + 1e-2;
            prop_assert!((stats.mean[i] - exact[i]).abs() < tol,
                "mu_{}: {} vs {} (se {})", i, stats.mean[i], exact[i], stats.std_err[i]);
        }
    }

    #[test]
    fn random_vectors_have_unit_norm_per_component(
        seed in 0u64..500, s in 0usize..8, r in 0usize..8,
    ) {
        let mut v = vec![0.0; 128];
        fill_random_vector(Distribution::Rademacher, seed, s, r, &mut v);
        // Rademacher: <r|r> = D exactly — the property making mu_0 exact.
        let norm_sq: f64 = v.iter().map(|x| x * x).sum();
        prop_assert_eq!(norm_sq, 128.0);
    }
}
