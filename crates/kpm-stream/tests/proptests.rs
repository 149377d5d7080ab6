//! Property-based tests for the stream-KPM engine and its cost model.

use kpm::moments::KpmParams;
use kpm::rescale::{rescale, Boundable};
use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};
use kpm_stream::{
    Mapping, MomentLaunchShape, Precision, SparseFormat, StreamKpmEngine, VectorLayout,
};
use kpm_streamsim::queue::MomentRunPlan;
use kpm_streamsim::GpuSpec;
use proptest::prelude::*;

/// Overlap-off pipeline pricing (bit-identical to
/// `StageTimes::analytic_total`).
fn total(s: &MomentLaunchShape, spec: &GpuSpec, eff: f64) -> f64 {
    MomentRunPlan::new(*s).with_overlap(false).total(spec, eff).as_secs_f64()
}

fn shape(dim: usize, n: usize, reals: usize, mapping: Mapping, block: usize) -> MomentLaunchShape {
    MomentLaunchShape {
        dim,
        stored_entries: 7 * dim,
        dense: false,
        format: SparseFormat::Csr,
        num_moments: n,
        realizations: reals,
        mapping,
        layout: VectorLayout::natural_for(mapping),
        block_size: block,
        precision: Precision::Double,
    }
}

proptest! {
    #[test]
    fn estimates_are_monotone_in_n_and_realizations(
        dim in 64usize..4096,
        n in 4usize..512,
        reals in 16usize..4000,
        block_pow in 5u32..9,
    ) {
        let spec = GpuSpec::tesla_c2050();
        let block = 1usize << block_pow;
        for mapping in [Mapping::ThreadPerRealization, Mapping::BlockPerRealization] {
            let base = shape(dim, n, reals, mapping, block);
            let t0 = total(&base, &spec, 0.2);
            let more_n = shape(dim, 2 * n, reals, mapping, block);
            let more_r = shape(dim, n, 2 * reals, mapping, block);
            // Allow a hair of slack: occupancy improvements from extra
            // realizations can almost exactly offset the added work in the
            // latency-bound regime.
            prop_assert!(total(&more_n, &spec, 0.2) >= t0 * 0.999);
            prop_assert!(total(&more_r, &spec, 0.2) >= t0 * 0.999);
            prop_assert!(t0.is_finite() && t0 > 0.0);
        }
    }

    #[test]
    fn declared_flops_match_workload_accounting(
        dim in 8usize..512,
        n in 2usize..256,
        reals in 1usize..256,
    ) {
        // The GPU cost formula and the CPU workload formulas must agree on
        // the fundamental operation count (they price the same algorithm).
        let s = shape(dim, n, reals, Mapping::ThreadPerRealization, 128);
        let w = kpm::workload::KpmWorkload {
            dim,
            stored_entries: 7 * dim,
            num_moments: n,
            realizations: reals,
        };
        prop_assert_eq!(s.flops(), w.total_profile().flops);
    }

    #[test]
    fn device_memory_formula_linear_in_realizations(
        dim in 8usize..512,
        n in 2usize..128,
        reals in 1usize..512,
    ) {
        let s1 = shape(dim, n, reals, Mapping::ThreadPerRealization, 128);
        let s2 = shape(dim, n, 2 * reals, Mapping::ThreadPerRealization, 128);
        // Everything except the matrix scales with realizations.
        let matrix = s1.matrix_bytes();
        prop_assert_eq!(
            2 * (s1.device_bytes() - matrix) ,
            s2.device_bytes() - matrix + 8 * n as u64 // reduced buffer doesn't scale
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn engine_matches_cpu_reference_for_random_small_problems(
        l in 2usize..5,
        n in 2usize..12,
        seed in 0u64..50,
    ) {
        let h = TightBinding::new(
            HypercubicLattice::cubic(l, l, l, Boundary::Periodic),
            1.0,
            OnSite::Disorder { width: 1.5, seed },
        )
        .build_csr();
        let params = KpmParams::new(n).with_random_vectors(2, 2).with_seed(seed);
        let bounds = h.spectral_bounds(params.bounds).unwrap();
        let rescaled = rescale(&h, bounds.padded(params.padding), 0.0).unwrap();
        let cpu = kpm::moments::stochastic_moments(&rescaled, &params);
        let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let gpu = engine.compute_moments_csr(&h, &params).unwrap();
        for i in 0..n {
            let scale = 1.0 + cpu.mean[i].abs();
            prop_assert!((cpu.mean[i] - gpu.moments.mean[i]).abs() < 1e-9 * scale,
                "mu_{}: {} vs {}", i, cpu.mean[i], gpu.moments.mean[i]);
        }
    }
}
