//! Local density of states (LDoS).
//!
//! `rho_i(omega) = sum_k |<i|k>|^2 delta(omega - E_k)` needs the moments
//! `mu_n^i = <i|T_n(H~)|i>` — the same recursion as the trace estimator but
//! with the deterministic start vector `e_i` instead of random vectors, so
//! no stochastic average is involved. This is the standard KPM application
//! beyond the paper's global DoS (Weiße et al. 2006, Sec. III.A) and is
//! exercised by the disorder example.

use crate::dos::{reconstruct_density, Dos};
use crate::error::KpmError;
use crate::estimator::Estimator;
use crate::moments::{single_vector_moments, KpmParams, MomentStats};
use kpm_linalg::tiled::TiledOp;

/// LDoS estimator at a fixed site — the [`Estimator`] for
/// `rho_site(omega)`.
///
/// Uses `params` for the moment count, kernel, bounds method, padding and
/// grid; the stochastic fields (`R`, `S`, distribution) are ignored because
/// the start vector `e_site` is deterministic.
#[derive(Debug, Clone)]
pub struct LdosEstimator {
    params: KpmParams,
    site: usize,
}

impl LdosEstimator {
    /// Creates an estimator for the LDoS at `site`.
    pub fn new(params: KpmParams, site: usize) -> Self {
        Self { params, site }
    }

    /// The site whose local density this estimator reconstructs.
    pub fn site(&self) -> usize {
        self.site
    }
}

impl Estimator for LdosEstimator {
    type Moments = MomentStats;
    type Output = Dos;

    fn params(&self) -> &KpmParams {
        &self.params
    }

    /// Deterministic single-vector moments `<e_i|T_n(H~)|e_i>`.
    fn moments<A: TiledOp + Sync>(&self, op: &A) -> Result<MomentStats, KpmError> {
        self.params.validate()?;
        if self.site >= op.dim() {
            return Err(KpmError::InvalidParameter(format!(
                "site {} out of range for dimension {}",
                self.site,
                op.dim()
            )));
        }
        let _span = kpm_obs::span("kpm.moments");
        let mut e_i = vec![0.0; op.dim()];
        e_i[self.site] = 1.0;
        let mu = single_vector_moments(op, &e_i, self.params.num_moments);
        // <e_i|T_n|e_i> is already the LDoS moment: no 1/D, no averaging.
        Ok(MomentStats { std_err: vec![0.0; mu.len()], samples: 1, mean: mu })
    }

    fn reconstruct(
        &self,
        moments: MomentStats,
        a_plus: f64,
        a_minus: f64,
    ) -> Result<Dos, KpmError> {
        Ok(reconstruct_density(&self.params, moments, a_plus, a_minus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::KpmParams;
    use crate::rescale::rescale;
    use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};
    use kpm_linalg::DenseMatrix;

    #[test]
    fn ldos_integrates_to_one_per_site() {
        // sum_k |<i|k>|^2 = 1 for each site.
        let h = kpm_lattice::dense_random_symmetric(24, 1.0, 3);
        let params = KpmParams::new(64);
        for site in [0usize, 7, 23] {
            let ldos = LdosEstimator::new(params.clone(), site).compute(&h).unwrap();
            assert!((ldos.integrate() - 1.0).abs() < 0.02, "site {site}: {}", ldos.integrate());
        }
    }

    #[test]
    fn ldos_of_isolated_level_peaks_there() {
        // Block-diagonal: site 0 decoupled with energy 0.5 — its LDoS is a
        // single smeared delta at 0.5.
        let mut h = DenseMatrix::zeros(8, 8);
        h.set(0, 0, 0.5);
        for i in 1..7 {
            h.set(i, i + 1, -1.0);
            h.set(i + 1, i, -1.0);
        }
        let ldos = LdosEstimator::new(KpmParams::new(128), 0).compute(&h).unwrap();
        assert!((ldos.peak_energy() - 0.5).abs() < 0.05, "peak at {}", ldos.peak_energy());
        // And essentially no weight away from it.
        let away = ldos.value_at(-1.5).unwrap_or(0.0);
        assert!(away.abs() < 0.05 * ldos.value_at(0.5).unwrap());
    }

    #[test]
    fn translation_invariant_lattice_has_uniform_ldos() {
        let tb = TightBinding::new(
            HypercubicLattice::chain(16, Boundary::Periodic),
            1.0,
            OnSite::Uniform(0.0),
        );
        let h = tb.build_csr();
        let params = KpmParams::new(48);
        let a = LdosEstimator::new(params.clone(), 0).compute(&h).unwrap();
        let b = LdosEstimator::new(params.clone(), 7).compute(&h).unwrap();
        for (x, y) in a.rho.iter().zip(&b.rho) {
            assert!((x - y).abs() < 1e-9, "LDoS must be site-independent under PBC");
        }
    }

    #[test]
    fn site_out_of_range_rejected() {
        let h = DenseMatrix::identity(4);
        let e = LdosEstimator::new(KpmParams::new(8), 4).compute(&h);
        assert!(matches!(e, Err(KpmError::InvalidParameter(_))));
    }

    #[test]
    fn average_ldos_equals_global_dos_moments() {
        // (1/D) sum_i mu_n^i = mu_n exactly.
        let h = kpm_lattice::dense_random_symmetric(12, 1.0, 9);
        let params = KpmParams::new(16);
        let bounds = crate::rescale::Boundable::spectral_bounds(&h, params.bounds).unwrap();
        let rescaled = rescale(&h, bounds, params.padding).unwrap();
        let eig = kpm_linalg::eigen::jacobi_eigenvalues(&h).unwrap();
        let scaled_eigs: Vec<f64> = eig.iter().map(|&e| rescaled.to_rescaled(e)).collect();
        let exact = crate::moments::exact_moments(&scaled_eigs, 16);

        let mut avg = [0.0f64; 16];
        for site in 0..12 {
            let mut e_i = vec![0.0; 12];
            e_i[site] = 1.0;
            let mu = crate::moments::pair_vector_moments(&rescaled, &e_i, &e_i, 16);
            for (a, m) in avg.iter_mut().zip(&mu) {
                *a += m / 12.0;
            }
        }
        for n in 0..16 {
            assert!((avg[n] - exact[n]).abs() < 1e-10, "n = {n}: {} vs {}", avg[n], exact[n]);
        }
    }
}
