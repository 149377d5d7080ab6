//! Pricing the paper's CPU baseline.
//!
//! The "CPU version" of the paper is the plain sequential KPM loop, one
//! matvec per moment; its run time at full parameter scale is modeled on
//! the Core i7 930 with the cache-aware roofline in `kpm-streamsim::host`,
//! fed by the operation counts in `kpm::workload`.

use kpm::workload::KpmWorkload;
use kpm_streamsim::{CpuSpec, HostClock, MemTraffic, SimTime};

/// Models the CPU time of one full KPM run.
///
/// Phases per realization: RNG fill, `N - 1` matvecs, `N` fused
/// combine+dot passes — the structure of the paper's loop
/// ([`kpm::moments::pair_vector_moments`] with `l = r0`), not of
/// [`kpm::moments::stochastic_moments`], which runs moment doubling.
pub fn cpu_run_time(w: &KpmWorkload, spec: &CpuSpec) -> SimTime {
    let mut clock = HostClock::new();
    let to_traffic = |p: kpm::workload::PhaseProfile| MemTraffic {
        flops: p.flops,
        bytes: p.bytes,
        working_set_bytes: p.working_set_bytes,
    };
    let rng = to_traffic(w.rng_profile());
    let matvec = to_traffic(w.matvec_profile());
    let combine = to_traffic(w.combine_dot_profile());

    // One realization, then scale — phases are identical across
    // realizations, so modeled time is exactly linear.
    let mut one = SimTime::ZERO;
    one += clock.charge(spec, &rng);
    let t_matvec = clock.charge(spec, &matvec);
    let t_combine = clock.charge(spec, &combine);
    one += SimTime::from_secs(t_matvec.as_secs_f64() * (w.num_moments as f64 - 1.0));
    one += SimTime::from_secs(t_combine.as_secs_f64() * w.num_moments as f64);
    SimTime::from_secs(one.as_secs_f64() * w.realizations as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5(n: usize) -> KpmWorkload {
        KpmWorkload { dim: 1000, stored_entries: 7000, num_moments: n, realizations: 1792 }
    }

    fn fig8(d: usize) -> KpmWorkload {
        KpmWorkload { dim: d, stored_entries: d * d, num_moments: 128, realizations: 1792 }
    }

    #[test]
    fn time_scales_linearly_with_n_and_realizations() {
        let spec = CpuSpec::core_i7_930();
        let t1 = cpu_run_time(&fig5(128), &spec).as_secs_f64();
        let t2 = cpu_run_time(&fig5(256), &spec).as_secs_f64();
        assert!((t2 / t1 - 2.0).abs() < 0.05, "N doubling: {}", t2 / t1);
        let mut half = fig5(128);
        half.realizations = 896;
        let th = cpu_run_time(&half, &spec).as_secs_f64();
        assert!((t1 / th - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dense_time_grows_superlinearly_past_l3() {
        // The Fig. 8 mechanism: D = 512 -> 2 MB (L3-resident),
        // D = 2048 -> 32 MB (DRAM). Per-flop cost must jump.
        let spec = CpuSpec::core_i7_930();
        let t512 = cpu_run_time(&fig8(512), &spec).as_secs_f64();
        let t2048 = cpu_run_time(&fig8(2048), &spec).as_secs_f64();
        // Pure flop scaling would be 16x; the cache cliff makes it more.
        assert!(t2048 / t512 > 16.0, "ratio {}", t2048 / t512);
    }

    #[test]
    fn sparse_fig5_run_is_compute_bound_and_plausible() {
        // N = 1024: the estimate should land in O(seconds), not
        // milliseconds or hours (sanity pin for EXPERIMENTS.md).
        let spec = CpuSpec::core_i7_930();
        let t = cpu_run_time(&fig5(1024), &spec).as_secs_f64();
        assert!(t > 1.0 && t < 100.0, "t = {t}");
    }
}
