//! Momentum-resolved spectral functions `A(k, omega)` — the ARPES
//! observable, computed from KPM moments of plane-wave states.
//!
//! For a lattice with real Hamiltonian, the spectral function at momentum
//! `k` is `A(k, omega) = sum_j |<k|j>|^2 delta(omega - E_j)`; its KPM
//! moments are `mu_n(k) = <k| T_n(H~) |k>`. A complex plane wave
//! `|k> = sum_x e^{ikx} |x> / sqrt(D)` splits into cosine and sine waves;
//! for a real symmetric `H`, `<k|T_n|k> = <c_k|T_n|c_k> + <s_k|T_n|s_k>`
//! (the cross terms cancel), so everything stays in real arithmetic.
//!
//! On a translation-invariant chain each `A(k, omega)` is a single smeared
//! delta at the band energy `E(k)` — the sharpest test of the whole KPM
//! stack, which the tests here exploit.

use crate::dos::{Dos, DosEstimator};
use crate::error::KpmError;
use crate::estimator::Estimator;
use crate::moments::{pair_vector_moments, KpmParams, MomentStats};
use crate::rescale::{rescale, Boundable};

/// The spectral function at one momentum.
#[derive(Debug, Clone)]
pub struct MomentumSpectrum {
    /// Momentum index `m` (wavevector `k = 2 pi m / L`).
    pub k_index: usize,
    /// The reconstructed `A(k, omega)` as a [`Dos`] (it is one: a
    /// positive, normalized spectral density).
    pub a: Dos,
}

impl MomentumSpectrum {
    /// The quasiparticle energy: the peak of `A(k, omega)`.
    pub fn peak(&self) -> f64 {
        self.a.peak_energy()
    }
}

/// Computes `A(k, omega)` on a 1D chain of `l` sites for the given
/// momentum indices (`k = 2 pi m / l`).
///
/// The operator must be the chain Hamiltonian (dimension `l`); site `x`
/// of the chain must map to index `x` (the convention of
/// `kpm_lattice::HypercubicLattice::chain`).
///
/// # Errors
/// Bounds/validation failures, or a momentum index `>= l`.
pub fn chain_spectral_function<A: Boundable + Sync>(
    op: &A,
    l: usize,
    k_indices: &[usize],
    params: &KpmParams,
) -> Result<Vec<MomentumSpectrum>, KpmError> {
    params.validate()?;
    if op.dim() != l {
        return Err(KpmError::InvalidParameter(format!(
            "operator dimension {} != chain length {l}",
            op.dim()
        )));
    }
    let bounds = crate::bounds::resolve(op, params.bounds)?;
    let rescaled = rescale(op, bounds, params.padding)?;
    let (a_plus, a_minus) = (rescaled.a_plus(), rescaled.a_minus());
    let estimator = DosEstimator::new(params.clone());

    let mut out = Vec::with_capacity(k_indices.len());
    for &m in k_indices {
        if m >= l {
            return Err(KpmError::InvalidParameter(format!(
                "momentum index {m} out of range for L = {l}"
            )));
        }
        let k = 2.0 * std::f64::consts::PI * m as f64 / l as f64;
        // Normalized cosine and sine waves.
        let mut c: Vec<f64> = (0..l).map(|x| (k * x as f64).cos()).collect();
        let mut s: Vec<f64> = (0..l).map(|x| (k * x as f64).sin()).collect();
        let norm = |v: &mut [f64]| {
            let n = kpm_linalg::vecops::norm2(v);
            if n > 0.0 {
                kpm_linalg::vecops::scale(1.0 / n, v);
                true
            } else {
                false
            }
        };
        let has_c = norm(&mut c);
        let has_s = norm(&mut s);

        // <k|T_n|k> = w_c <c|T_n|c> + w_s <s|T_n|s> with weights given by
        // the squared norms of the (unnormalized) components; for k = 0 or
        // pi the sine part vanishes.
        let mut mu = vec![0.0; params.num_moments];
        let mut weight_total = 0.0;
        for (vec, present) in [(&c, has_c), (&s, has_s)] {
            if !present {
                continue;
            }
            let m_part = pair_vector_moments(&rescaled, vec, vec, params.num_moments);
            // Both components carry weight 1/2 except at k = 0, pi where
            // the surviving one carries full weight; using equal weights
            // over the present components reproduces that automatically
            // for translation-invariant chains.
            for (acc, v) in mu.iter_mut().zip(&m_part) {
                *acc += v;
            }
            weight_total += 1.0;
        }
        for v in mu.iter_mut() {
            *v /= weight_total;
        }
        let stats = MomentStats { std_err: vec![0.0; mu.len()], samples: 1, mean: mu };
        out.push(MomentumSpectrum {
            k_index: m,
            a: estimator.reconstruct(stats, a_plus, a_minus)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};

    fn chain(l: usize) -> kpm_linalg::CsrMatrix {
        TightBinding::new(
            HypercubicLattice::chain(l, Boundary::Periodic),
            1.0,
            OnSite::Uniform(0.0),
        )
        .build_csr()
    }

    #[test]
    fn peaks_trace_the_cosine_band() {
        // E(k) = -2 cos k for the periodic chain.
        let l = 64;
        let h = chain(l);
        let params = KpmParams::new(256).with_grid_points(1024);
        let ks: Vec<usize> = vec![0, 8, 16, 24, 32];
        let spectra = chain_spectral_function(&h, l, &ks, &params).unwrap();
        for sp in &spectra {
            let k = 2.0 * std::f64::consts::PI * sp.k_index as f64 / l as f64;
            let expect = -2.0 * k.cos();
            assert!(
                (sp.peak() - expect).abs() < 0.08,
                "k index {}: peak {} vs E(k) {}",
                sp.k_index,
                sp.peak(),
                expect
            );
        }
    }

    #[test]
    fn spectral_weight_normalizes_to_one() {
        let l = 32;
        let h = chain(l);
        let params = KpmParams::new(128);
        let spectra = chain_spectral_function(&h, l, &[5], &params).unwrap();
        assert!((spectra[0].a.integrate() - 1.0).abs() < 0.02);
    }

    #[test]
    fn quasiparticle_peak_is_sharp_on_clean_chain() {
        // A(k, omega) for a clean chain is a single Jackson-smeared delta:
        // nearly all weight within a few kernel widths of the peak.
        let l = 48;
        let h = chain(l);
        let params = KpmParams::new(256).with_grid_points(1024);
        let sp = &chain_spectral_function(&h, l, &[7], &params).unwrap()[0];
        let peak = sp.peak();
        let width = 8.0 * std::f64::consts::PI * sp.a.a_minus / 256.0;
        let local = sp.a.integrate_range(peak - width, peak + width);
        assert!(local > 0.9, "weight near peak = {local}");
    }

    #[test]
    fn disorder_broadens_the_quasiparticle() {
        let l = 128;
        let width_of = |w: f64| {
            let onsite = if w == 0.0 {
                OnSite::Uniform(0.0)
            } else {
                OnSite::Disorder { width: w, seed: 9 }
            };
            let h = TightBinding::new(HypercubicLattice::chain(l, Boundary::Periodic), 1.0, onsite)
                .build_csr();
            let params = KpmParams::new(128).with_grid_points(512);
            let sp = &chain_spectral_function(&h, l, &[20], &params).unwrap()[0];
            // Inverse participation of the curve as a width proxy.
            let sum: f64 = sp.a.rho.iter().sum();
            let sum2: f64 = sp.a.rho.iter().map(|r| r * r).sum();
            sum * sum / sum2
        };
        let clean = width_of(0.0);
        let dirty = width_of(3.0);
        assert!(dirty > 1.5 * clean, "disorder must broaden: {clean} vs {dirty}");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let h = chain(16);
        let params = KpmParams::new(32);
        assert!(chain_spectral_function(&h, 16, &[16], &params).is_err());
        assert!(chain_spectral_function(&h, 8, &[0], &params).is_err());
    }
}
