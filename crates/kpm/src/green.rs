//! Retarded Green's functions from Chebyshev moments.
//!
//! The paper motivates the KPM with "DoS and Green's functions" (Sec. I);
//! this module supplies the latter. With the Lorentz kernel, the KPM
//! expansion of the retarded Green's function is (Weiße et al. 2006,
//! Eq. 90)
//!
//! ```text
//! G(omega) = -2i / sqrt(1 - omega^2) *
//!            [ g_0 mu_0 / 2 + sum_{n>=1} g_n mu_n e^{-i n arccos(omega)} ]
//! ```
//!
//! on the rescaled axis; `Im G = -pi rho` recovers the (kernel-smeared)
//! density of states, which is the invariant our tests pin down.

use crate::complex::Complex64;
use crate::error::KpmError;
use crate::estimator::Estimator;
use crate::kernels::KernelType;
use crate::moments::{pair_vector_moments, KpmParams};
use kpm_linalg::tiled::TiledOp;

/// A sampled Green's function on the original energy axis.
#[derive(Debug, Clone)]
pub struct GreensFunction {
    /// Energies (original axis).
    pub energies: Vec<f64>,
    /// `G(omega)` values.
    pub values: Vec<Complex64>,
}

impl GreensFunction {
    /// The spectral function `A(omega) = -Im G(omega) / pi` — equals the
    /// kernel-smeared DoS when the moments are trace moments.
    pub fn spectral_function(&self) -> Vec<f64> {
        self.values.iter().map(|g| -g.im / std::f64::consts::PI).collect()
    }
}

/// Evaluates the KPM Green's function from (undamped) moments.
///
/// * `moments` — `mu_0 .. mu_{N-1}` (trace moments for the global Green's
///   function, or `<i|T_n|j>` moments for a matrix element).
/// * `kernel` — damping kernel; [`KernelType::Lorentz`] is the
///   analyticity-preserving choice.
/// * `energies` — evaluation points on the **original** axis.
/// * `(a_plus, a_minus)` — the rescaling that produced the moments.
///
/// # Errors
/// [`KpmError::InvalidParameter`] if `moments` is empty, `a_minus <= 0`, or
/// any energy maps outside `(-1, 1)`.
pub fn evaluate(
    moments: &[f64],
    kernel: KernelType,
    energies: &[f64],
    a_plus: f64,
    a_minus: f64,
) -> Result<GreensFunction, KpmError> {
    let _span = kpm_obs::span("kpm.reconstruct");
    if moments.is_empty() {
        return Err(KpmError::InvalidParameter("moments must be nonempty".into()));
    }
    if a_minus <= 0.0 {
        return Err(KpmError::InvalidParameter(format!("a_minus must be positive, got {a_minus}")));
    }
    let damped = kernel.damp(moments);
    let mut values = Vec::with_capacity(energies.len());
    for &omega in energies {
        let x = (omega - a_plus) / a_minus;
        if !(x > -1.0 && x < 1.0) {
            return Err(KpmError::InvalidParameter(format!(
                "energy {omega} maps to {x}, outside the open interval (-1, 1)"
            )));
        }
        let phi = x.acos();
        // G~(x) = -2i [ c_0/2 + sum_{n>=1} c_n e^{-i n phi} ] / sqrt(1-x^2)
        let mut acc = Complex64::real(damped[0] / 2.0);
        for (n, &c) in damped.iter().enumerate().skip(1) {
            acc += Complex64::cis(-(n as f64) * phi).scale(c);
        }
        let denom = (1.0 - x * x).sqrt();
        let g_scaled = (Complex64::new(0.0, -2.0) * acc).scale(1.0 / denom);
        // Map back to the original axis: G(omega) = G~(x) / a_-.
        values.push(g_scaled.scale(1.0 / a_minus));
    }
    Ok(GreensFunction { energies: energies.to_vec(), values })
}

/// Matrix-element Green's function estimator — the [`Estimator`] for
/// `G_ij(omega) = <i|(omega - H)^{-1}|j>` (retarded, kernel-smeared).
///
/// Uses the two-vector recursion for the moments `<i|T_n(H~)|j>`; the
/// stochastic fields of `params` (`R`, `S`, distribution) are ignored.
/// [`KernelType::Lorentz`] is the analyticity-preserving kernel choice.
#[derive(Debug, Clone)]
pub struct GreenEstimator {
    params: KpmParams,
    i: usize,
    j: usize,
    energies: Vec<f64>,
}

impl GreenEstimator {
    /// Creates an estimator for the element `G_ij` sampled at `energies`
    /// (original axis).
    pub fn element(params: KpmParams, i: usize, j: usize, energies: Vec<f64>) -> Self {
        Self { params, i, j, energies }
    }

    /// Creates an estimator for the diagonal element `G_ii`.
    pub fn diagonal(params: KpmParams, i: usize, energies: Vec<f64>) -> Self {
        Self::element(params, i, i, energies)
    }

    /// The element indices `(i, j)`.
    pub fn indices(&self) -> (usize, usize) {
        (self.i, self.j)
    }

    /// The evaluation energies (original axis).
    pub fn energies(&self) -> &[f64] {
        &self.energies
    }
}

impl Estimator for GreenEstimator {
    type Moments = Vec<f64>;
    type Output = GreensFunction;

    fn params(&self) -> &KpmParams {
        &self.params
    }

    /// Two-vector moments `<e_i|T_n(H~)|e_j>`.
    fn moments<A: TiledOp + Sync>(&self, op: &A) -> Result<Vec<f64>, KpmError> {
        self.params.validate()?;
        let d = op.dim();
        if self.i >= d || self.j >= d {
            return Err(KpmError::InvalidParameter(format!(
                "element ({}, {}) out of range for dimension {d}",
                self.i, self.j
            )));
        }
        let _span = kpm_obs::span("kpm.moments");
        let mut e_i = vec![0.0; d];
        e_i[self.i] = 1.0;
        let mut e_j = vec![0.0; d];
        e_j[self.j] = 1.0;
        Ok(pair_vector_moments(op, &e_i, &e_j, self.params.num_moments))
    }

    fn reconstruct(
        &self,
        moments: Vec<f64>,
        a_plus: f64,
        a_minus: f64,
    ) -> Result<GreensFunction, KpmError> {
        evaluate(&moments, self.params.kernel, &self.energies, a_plus, a_minus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chebyshev;
    use crate::moments::exact_moments;

    #[test]
    fn spectral_function_matches_kpm_dos() {
        // Moments of a flat spectrum on [-0.9, 0.9]; Im G must reproduce the
        // same kernel-damped series the DoS reconstruction uses.
        let eigs: Vec<f64> = (0..100).map(|i| -0.9 + 1.8 * i as f64 / 99.0).collect();
        let n = 64;
        let mu = exact_moments(&eigs, n);
        let kernel = KernelType::Jackson;
        let energies: Vec<f64> = (1..20).map(|i| -0.9 + 0.09 * i as f64).collect();
        let g = evaluate(&mu, kernel, &energies, 0.0, 1.0).unwrap();
        let a = g.spectral_function();
        let damped = kernel.damp(&mu);
        for (i, &omega) in energies.iter().enumerate() {
            let rho = chebyshev::series_eval(&damped, omega);
            assert!((a[i] - rho).abs() < 1e-10, "omega = {omega}: A = {} vs rho = {rho}", a[i]);
        }
    }

    #[test]
    fn single_level_green_function_looks_lorentzian() {
        // One level at 0: with the Lorentz kernel, Im G is peaked at 0 and
        // Re G is antisymmetric, crossing zero at the level.
        let n = 128;
        let mu: Vec<f64> = (0..n).map(|k| chebyshev::t(k, 0.0)).collect();
        let kernel = KernelType::Lorentz { lambda: 4.0 };
        let energies: Vec<f64> = (-40..=40).map(|i| i as f64 * 0.02).collect();
        let g = evaluate(&mu, kernel, &energies, 0.0, 1.0).unwrap();
        let mid = energies.iter().position(|&e| e == 0.0).unwrap();
        // Im G minimal (most negative) at the level.
        let im_mid = g.values[mid].im;
        assert!(g.values.iter().all(|v| v.im <= 1e-9), "Im G must be <= 0");
        assert!(g.values.iter().all(|v| v.im >= im_mid - 1e-12));
        // Re G antisymmetric around the level.
        for off in 1..20 {
            let re_l = g.values[mid - off].re;
            let re_r = g.values[mid + off].re;
            assert!((re_l + re_r).abs() < 1e-6 * (1.0 + re_l.abs()), "off = {off}");
        }
        assert!(g.values[mid].re.abs() < 1e-9);
    }

    #[test]
    fn rescaling_maps_energies_correctly() {
        // Level at omega = 3 with a_+ = 3, a_- = 2: peak must appear at 3.
        let n = 96;
        let mu: Vec<f64> = (0..n).map(|k| chebyshev::t(k, 0.0)).collect();
        let energies: Vec<f64> = (-15..=15).map(|i| 3.0 + i as f64 * 0.1).collect();
        let g = evaluate(&mu, KernelType::Jackson, &energies, 3.0, 2.0).unwrap();
        let a = g.spectral_function();
        let (imax, _) = a.iter().enumerate().max_by(|x, y| x.1.total_cmp(y.1)).unwrap();
        assert!((energies[imax] - 3.0).abs() < 0.05, "peak at {}", energies[imax]);
    }

    #[test]
    fn error_cases() {
        assert!(evaluate(&[], KernelType::Jackson, &[0.0], 0.0, 1.0).is_err());
        assert!(evaluate(&[1.0], KernelType::Jackson, &[0.0], 0.0, 0.0).is_err());
        // Energy outside the band.
        assert!(evaluate(&[1.0, 0.0], KernelType::Jackson, &[2.0], 0.0, 1.0).is_err());
    }

    #[test]
    fn sum_rule_integral_of_spectral_function() {
        // Integral of A over the band = mu_0 = 1 (Gauss-Chebyshev grid).
        let eigs: Vec<f64> = (0..50).map(|i| -0.8 + 1.6 * i as f64 / 49.0).collect();
        let mu = exact_moments(&eigs, 48);
        let k = 256;
        let grid = chebyshev::gauss_grid(k);
        let g = evaluate(&mu, KernelType::Jackson, &grid, 0.0, 1.0).unwrap();
        let a = g.spectral_function();
        // Gauss-Chebyshev: int f(x) dx ~ (pi/K) sum sqrt(1-x^2) f(x).
        let integral: f64 =
            grid.iter().zip(&a).map(|(&x, &ax)| (1.0 - x * x).sqrt() * ax).sum::<f64>()
                * std::f64::consts::PI
                / k as f64;
        assert!((integral - 1.0).abs() < 1e-6, "sum rule violated: {integral}");
    }

    #[test]
    fn green_estimator_diagonal_matches_ldos_spectral_function() {
        // A_ii(omega) = -Im G_ii / pi is the LDoS at site i with the same
        // kernel — compute both through their estimators and compare.
        use crate::ldos::LdosEstimator;
        let h = kpm_lattice::dense_random_symmetric(16, 1.0, 13);
        let params = KpmParams::new(48);
        let ldos = LdosEstimator::new(params.clone(), 3).compute(&h).unwrap();
        // Evaluate G at interior LDoS grid energies (skip edges, where the
        // open-interval check would reject the outermost grid point).
        let energies: Vec<f64> = ldos.energies[10..ldos.energies.len() - 10].to_vec();
        let g = GreenEstimator::diagonal(params, 3, energies.clone()).compute(&h).unwrap();
        let a = g.spectral_function();
        for (k, &omega) in energies.iter().enumerate() {
            let rho = ldos.value_at(omega).unwrap();
            assert!(
                (a[k] - rho).abs() < 1e-6 * (1.0 + rho.abs()),
                "omega = {omega}: A = {} vs LDoS = {rho}",
                a[k]
            );
        }
    }

    #[test]
    fn green_estimator_rejects_out_of_range_element() {
        let h = kpm_lattice::dense_random_symmetric(8, 1.0, 1);
        let est = GreenEstimator::element(KpmParams::new(16), 2, 8, vec![0.0]);
        assert!(matches!(est.compute(&h), Err(KpmError::InvalidParameter(_))));
    }
}
