//! Block-size autotuning — the paper's first future-work item
//! ("a method to find the best block size used in the GPU", Sec. V).
//!
//! Sweeps candidate `BLOCK_SIZE`s and returns the fastest — the same probe
//! protocol `kpm::tune` runs on the real machine (candidate grid, time each
//! one, keep the measured minimum), here priced on the modeled device. The
//! model captures the real trade-off: blocks that are not warp multiples
//! waste lanes; very small blocks cap resident warps; very large blocks
//! reduce scheduling granularity (wave quantization).
//!
//! Candidates are priced through the event-queue device pipeline
//! ([`kpm_streamsim::queue::MomentRunPlan`]) with transfer/compute overlap
//! on — what the modeled device actually does.

use crate::MomentLaunchShape;
use kpm_streamsim::{GpuSpec, SimTime};

/// One candidate evaluated by the tuner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePoint {
    /// Threads per block evaluated.
    pub block_size: usize,
    /// Modeled run time at this block size.
    pub time: SimTime,
}

/// Result of a tuning sweep.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The winning block size.
    pub best: usize,
    /// All evaluated candidates, in evaluation order.
    pub points: Vec<TunePoint>,
}

/// Default candidate list: powers of two from one warp to the device
/// maximum, plus deliberately misaligned sizes so the sweep demonstrates
/// the warp-alignment penalty.
pub fn default_candidates(spec: &GpuSpec) -> Vec<usize> {
    let mut c = Vec::new();
    let mut b = spec.warp_size;
    while b <= spec.max_threads_per_block {
        c.push(b);
        b *= 2;
    }
    for misaligned in [48usize, 96, 100, 160, 224] {
        if misaligned <= spec.max_threads_per_block {
            c.push(misaligned);
        }
    }
    c
}

/// Sweeps `candidates` (or the defaults) for the given shape and returns
/// the fastest block size, priced through the overlapping event-queue
/// pipeline — the launch actually modeled by the device.
///
/// # Panics
/// Panics if the candidate list resolves to empty.
pub fn tune_block_size(
    spec: &GpuSpec,
    shape: &MomentLaunchShape,
    compute_efficiency: f64,
    candidates: Option<&[usize]>,
) -> TuneResult {
    let defaults;
    let list: &[usize] = match candidates {
        Some(c) => c,
        None => {
            defaults = default_candidates(spec);
            &defaults
        }
    };
    assert!(!list.is_empty(), "no block-size candidates");
    let mut points = Vec::with_capacity(list.len());
    for &b in list {
        let candidate = MomentLaunchShape { block_size: b, ..*shape };
        points.push(TunePoint {
            block_size: b,
            time: kpm_streamsim::queue::MomentRunPlan::new(candidate)
                .total(spec, compute_efficiency),
        });
    }
    let best = points
        .iter()
        .min_by(|a, b| a.time.as_secs_f64().total_cmp(&b.time.as_secs_f64()))
        .expect("nonempty candidates")
        .block_size;
    TuneResult { best, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mapping, Precision, VectorLayout};

    fn paper_shape() -> MomentLaunchShape {
        MomentLaunchShape {
            dim: 1000,
            stored_entries: 7000,
            dense: false,
            format: crate::SparseFormat::Csr,
            num_moments: 512,
            realizations: 1792,
            mapping: Mapping::ThreadPerRealization,
            layout: VectorLayout::Interleaved,
            block_size: 128,
            precision: Precision::Double,
        }
    }

    #[test]
    fn candidates_cover_warp_to_max() {
        let spec = GpuSpec::tesla_c2050();
        let c = default_candidates(&spec);
        assert!(c.contains(&32));
        assert!(c.contains(&1024));
        assert!(c.contains(&100), "needs misaligned probes");
    }

    #[test]
    fn oversized_blocks_starve_sms() {
        // With only S*R = 1792 threads total, BLOCK_SIZE beyond 128 leaves
        // streaming multiprocessors idle (1792/1024 = 2 blocks on 14 SMs) —
        // the one strong lever the paper's future-work tuner would find.
        let spec = GpuSpec::tesla_c2050();
        let result = tune_block_size(&spec, &paper_shape(), 0.2, None);
        assert_eq!(result.points.len(), default_candidates(&spec).len());
        let by_size =
            |b: usize| result.points.iter().find(|p| p.block_size == b).unwrap().time.as_secs_f64();
        let best_t = by_size(result.best);
        assert!(
            by_size(1024) > 1.2 * best_t,
            "2-block launch must lose to the winner: {} vs {best_t}",
            by_size(1024)
        );
        // In the covered regime (<= 128) the choice is nearly flat: the
        // launch is latency-bound at ~4 warps/SM regardless.
        let small: Vec<f64> = [32, 64, 128].iter().map(|&b| by_size(b)).collect();
        let (lo, hi) = (
            small.iter().cloned().fold(f64::INFINITY, f64::min),
            small.iter().cloned().fold(0.0f64, f64::max),
        );
        assert!(hi < 1.3 * lo, "covered regime should be flat: {lo} .. {hi}");
    }

    #[test]
    fn warp_misalignment_costs_against_same_warp_count() {
        // 100 threads schedule as 4 warps with 28 idle lanes; 96 threads
        // fill 3 warps exactly. Same-ish resident warps, so 100 loses.
        let spec = GpuSpec::tesla_c2050();
        let result = tune_block_size(&spec, &paper_shape(), 0.2, Some(&[96, 100, 128]));
        let by_size =
            |b: usize| result.points.iter().find(|p| p.block_size == b).unwrap().time.as_secs_f64();
        assert!(by_size(100) >= by_size(96), "100 wastes 28 lanes of its 4th warp");
        assert_ne!(result.best, 100, "a misaligned size must not win this sweep");
    }

    #[test]
    fn explicit_candidates_respected() {
        let spec = GpuSpec::tesla_c2050();
        let result = tune_block_size(&spec, &paper_shape(), 0.2, Some(&[64]));
        assert_eq!(result.best, 64);
        assert_eq!(result.points.len(), 1);
    }

    #[test]
    fn tuning_helps_the_block_mapping_too() {
        let spec = GpuSpec::tesla_c2050();
        let shape = MomentLaunchShape {
            mapping: Mapping::BlockPerRealization,
            layout: VectorLayout::Contiguous,
            ..paper_shape()
        };
        let result = tune_block_size(&spec, &shape, 0.2, None);
        // Some aligned size wins and beats a one-warp block.
        let worst_small =
            result.points.iter().find(|p| p.block_size == 32).unwrap().time.as_secs_f64();
        let best =
            result.points.iter().find(|p| p.block_size == result.best).unwrap().time.as_secs_f64();
        assert!(best <= worst_small);
    }
}
