//! Cost formulas for the KPM device kernels.
//!
//! Kernels declare launch-wide [`KernelCost`]s built from these formulas;
//! the same formulas also price *hypothetical* launches at the paper's full
//! parameter scale without executing them (the figure reproductions — see
//! DESIGN.md §2 on why full-scale functional execution is infeasible here).
//! This module lives in the simulator crate (it moved here from
//! `kpm-stream`) so the command-queue pipeline ([`crate::queue`]) and the
//! `kpm::device` backends can price launches without a dependency cycle;
//! `kpm-stream` re-exports everything at its old paths.
//!
//! Traffic reasoning (derivations in DESIGN.md §5):
//!
//! * **Per-realization vectors** stream once per iteration: read `r_0`,
//!   `r_{n}`, `r_{n+1}`, write `r_{n+2}` → `4 D * 8` bytes, at the
//!   coalescing factor determined by mapping × layout.
//! * **The matrix** is shared by all realizations. If it fits the device's
//!   L2, DRAM sees it once per iteration; otherwise every active SM streams
//!   it independently (`min(num_sms, blocks)` replay).
//! * **Source-vector gathers** inside the matvec re-read each realization's
//!   `x` once per stored entry (dense: `D` times). They hit DRAM whenever
//!   the ensemble of `x` vectors exceeds L2 — for the paper's parameters it
//!   always does.

use crate::kernel::KernelCost;
use crate::layout::{Mapping, VectorLayout};
use crate::model::GpuSpec;

/// Floating-point precision of a hypothetical run.
///
/// The paper computes in double precision throughout; the single-precision
/// variant exists for the precision ablation (Fermi runs SP at 2x the DP
/// rate and every word halves, so the model predicts roughly 2x for
/// compute-bound shapes and more for bandwidth-bound ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// 8-byte IEEE double (the paper's choice).
    #[default]
    Double,
    /// 4-byte IEEE single.
    Single,
}

impl Precision {
    /// Bytes per floating-point word.
    pub fn word_bytes(&self) -> u64 {
        match self {
            Precision::Double => 8,
            Precision::Single => 4,
        }
    }
}

/// Sparse storage format of a priced launch.
///
/// The formats process the same coefficients but stream different bytes:
/// CSR pays a row-pointer traversal on top of the per-entry gather, ELL
/// streams its (padded) slots contiguously with no row pointers, and the
/// stencil regenerates the pattern in registers so the matrix costs no
/// DRAM traffic at all. Callers pricing an ELL launch must pass the
/// *padded* slot count (`model_entries`), not the true `nnz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparseFormat {
    /// Compressed sparse row — the paper's CRS format.
    #[default]
    Csr,
    /// Padded slot-major ELLPACK.
    Ell,
    /// Matrix-free lattice stencil.
    Stencil,
}

/// Shape of one *moment-generation* launch (the paper's Fig. 4a kernel:
/// RNG init + the full `N`-iteration recursion + per-realization dots).
#[derive(Debug, Clone, Copy)]
pub struct MomentLaunchShape {
    /// Operator dimension `D` (`H_SIZE`).
    pub dim: usize,
    /// Coefficient slots the kernel processes per sweep (dense `D^2`,
    /// paper's lattice `7 D`; for ELL this is the padded slot count).
    pub stored_entries: usize,
    /// Whether the matrix is stored dense.
    pub dense: bool,
    /// Sparse storage format (ignored when `dense`).
    pub format: SparseFormat,
    /// Moments `N`.
    pub num_moments: usize,
    /// Total realizations `S * R`.
    pub realizations: usize,
    /// Work mapping.
    pub mapping: Mapping,
    /// Vector layout.
    pub layout: VectorLayout,
    /// Threads per block (the paper's `BLOCK_SIZE`).
    pub block_size: usize,
    /// Arithmetic precision (the paper: double).
    pub precision: Precision,
}

impl MomentLaunchShape {
    /// Thread blocks in the launch grid.
    pub fn grid_blocks(&self) -> usize {
        match self.mapping {
            // Paper: "the number of thread blocks becomes RS / BLOCK_SIZE".
            Mapping::ThreadPerRealization => self.realizations.div_ceil(self.block_size),
            Mapping::BlockPerRealization => self.realizations,
        }
    }

    /// Double-precision operations of the launch:
    /// `S*R * [rng + (N-1) * 2*stored + N * 4D]`.
    pub fn flops(&self) -> u64 {
        let d = self.dim as u64;
        let n = self.num_moments as u64;
        let per_real = 10 * d + (n - 1) * 2 * self.stored_entries as u64 + n * 4 * d;
        self.realizations as u64 * per_real
    }

    /// Matrix bytes per full sweep.
    ///
    /// * dense — values only;
    /// * CSR — values + 4-byte column indices + 8-byte row pointers (the
    ///   pointer chase that makes CSR loads a gather);
    /// * ELL — values + column indices for every *padded* slot, streamed
    ///   contiguously with no row pointers;
    /// * stencil — zero: the pattern lives in registers, nothing is stored.
    pub fn matrix_bytes(&self) -> u64 {
        let e = self.stored_entries as u64;
        let w = self.precision.word_bytes();
        if self.dense {
            w * e
        } else {
            match self.format {
                SparseFormat::Csr => (w + 4) * e + 8 * (self.dim as u64 + 1),
                SparseFormat::Ell => (w + 4) * e,
                SparseFormat::Stencil => 0,
            }
        }
    }

    /// DRAM traffic of the launch in bytes (already divided into the
    /// coalesced-equivalent; the returned `KernelCost` carries the layout's
    /// coalescing factor separately).
    fn dram_traffic(&self, spec: &GpuSpec) -> (u64, u64) {
        let d = self.dim as u64;
        let n = self.num_moments as u64;
        let reals = self.realizations as u64;
        let w = self.precision.word_bytes();

        // Per-realization vector streams: 3 reads + 1 write per iteration,
        // plus the RNG writing r_0 and its copy.
        let vec_reads = reals * (n * 3 * w * d);
        let vec_writes = reals * (n * w * d + 2 * w * d);

        // Matrix re-reads: broadcast across realizations, replayed per SM
        // when it does not fit L2.
        let mbytes = self.matrix_bytes();
        let replay = if mbytes <= spec.l2_bytes as u64 {
            1
        } else {
            spec.num_sms.min(self.grid_blocks()).max(1) as u64
        };
        let matrix_reads = (n - 1) * mbytes * replay;

        // Source-vector gathers inside the matvec: `stored_entries` loads
        // of x per realization-iteration, from DRAM when the ensemble of x
        // vectors exceeds L2.
        let x_ensemble = reals * w * d;
        let gather_reads = if x_ensemble <= spec.l2_bytes as u64 {
            0
        } else {
            reals * (n - 1) * w * self.stored_entries as u64
        };

        (vec_reads + matrix_reads + gather_reads, vec_writes)
    }

    /// The declared cost of the generation launch on `spec`.
    pub fn kernel_cost(&self, spec: &GpuSpec) -> KernelCost {
        let (reads, writes) = self.dram_traffic(spec);
        let mut cost = KernelCost::new()
            .flops(self.flops())
            .global_read(reads)
            .global_write(writes)
            .coalescing(self.layout.coalescing(self.mapping))
            .single_precision(self.precision == Precision::Single);
        if self.mapping == Mapping::BlockPerRealization {
            // Tree reduction per dot product: ~2*BLOCK_SIZE shared accesses
            // and log2(BLOCK_SIZE) barriers per iteration.
            let n = self.num_moments as u64;
            cost = cost
                .shared(self.realizations as u64 * n * 2 * self.block_size as u64)
                .barriers(n * (self.block_size.next_power_of_two().trailing_zeros() as u64 + 1));
        }
        cost
    }

    /// Threads per block of the generation launch.
    pub fn threads_per_block(&self) -> usize {
        self.block_size
    }

    /// The reduction launch (Fig. 4b): `N` blocks, each summing
    /// `S*R` partial moments with a shared-memory tree.
    pub fn reduce_cost(&self) -> KernelCost {
        let n = self.num_moments as u64;
        let reals = self.realizations as u64;
        KernelCost::new()
            .flops(n * reals)
            .global_read(8 * n * reals)
            .global_write(8 * n)
            .shared(2 * n * reals)
            .barriers(self.block_size.next_power_of_two().trailing_zeros() as u64 + 1)
    }

    /// Device-global memory required, in bytes: four vectors per
    /// realization plus the `N x S*R` partial-moment buffer plus the
    /// matrix — the accounting of the paper's Sec. III-B-2.
    pub fn device_bytes(&self) -> u64 {
        let w = self.precision.word_bytes();
        let vectors = 4 * w * (self.dim * self.realizations) as u64;
        let partials = w * (self.num_moments * self.realizations) as u64;
        let reduced = w * self.num_moments as u64;
        vectors + partials + reduced + self.matrix_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::MomentRunPlan;

    fn paper_fig5(n: usize) -> MomentLaunchShape {
        MomentLaunchShape {
            dim: 1000,
            stored_entries: 7000,
            dense: false,
            format: SparseFormat::Csr,
            num_moments: n,
            realizations: 1792,
            mapping: Mapping::ThreadPerRealization,
            layout: VectorLayout::Interleaved,
            block_size: 128,
            precision: Precision::Double,
        }
    }

    fn paper_fig8(d: usize) -> MomentLaunchShape {
        MomentLaunchShape {
            dim: d,
            stored_entries: d * d,
            dense: true,
            format: SparseFormat::Csr,
            num_moments: 128,
            realizations: 1792,
            mapping: Mapping::ThreadPerRealization,
            layout: VectorLayout::Interleaved,
            block_size: 128,
            precision: Precision::Double,
        }
    }

    /// Pipeline-priced total (overlap off), equal to
    /// [`crate::queue::StageTimes::analytic_total`].
    fn total(shape: &MomentLaunchShape, spec: &GpuSpec, eff: f64) -> f64 {
        MomentRunPlan::new(*shape).with_overlap(false).total(spec, eff).as_secs_f64()
    }

    #[test]
    fn paper_grid_formula() {
        // RS / BLOCK_SIZE = 1792 / 128 = 14 blocks — exactly one per SM of
        // the C2050, surely not a coincidence in the original experiment.
        assert_eq!(paper_fig5(128).grid_blocks(), 14);
        let block_mapped =
            MomentLaunchShape { mapping: Mapping::BlockPerRealization, ..paper_fig5(128) };
        assert_eq!(block_mapped.grid_blocks(), 1792);
    }

    #[test]
    fn flops_scale_linearly_in_n_and_realizations() {
        let f1 = paper_fig5(128).flops() as f64;
        let f2 = paper_fig5(256).flops() as f64;
        assert!((f2 / f1 - 2.0).abs() < 0.03);
        let mut half = paper_fig5(128);
        half.realizations = 896;
        assert_eq!(half.flops() * 2, paper_fig5(128).flops());
    }

    #[test]
    fn sparse_matrix_bytes_include_indices() {
        let s = paper_fig5(128);
        assert_eq!(s.matrix_bytes(), 12 * 7000 + 8 * 1001);
        assert_eq!(paper_fig8(512).matrix_bytes(), 8 * 512 * 512);
    }

    #[test]
    fn format_traffic_orders_stencil_below_ell_below_csr() {
        let spec = GpuSpec::tesla_c2050();
        // Paper lattice: 7 entries in every row, so ELL pads nothing and
        // its only saving over CSR is the row-pointer stream.
        let csr = paper_fig5(512);
        let ell = MomentLaunchShape { format: SparseFormat::Ell, ..csr };
        let stencil = MomentLaunchShape { format: SparseFormat::Stencil, ..csr };
        assert_eq!(csr.matrix_bytes(), 12 * 7000 + 8 * 1001);
        assert_eq!(ell.matrix_bytes(), 12 * 7000);
        assert_eq!(stencil.matrix_bytes(), 0);
        let t = |s: &MomentLaunchShape| total(s, &spec, 0.2);
        assert!(t(&stencil) < t(&ell), "stencil must beat ELL");
        assert!(t(&ell) < t(&csr), "ELL must beat CSR");
        // Same arithmetic regardless of storage.
        assert_eq!(csr.flops(), ell.flops());
        assert_eq!(csr.flops(), stencil.flops());
    }

    #[test]
    fn ell_padding_charges_extra_slots() {
        // A ragged matrix padded to width 12 at D = 1000 with true
        // nnz = 7000: the ELL shape must be priced at the padded slots.
        let csr = paper_fig5(512);
        let padded =
            MomentLaunchShape { format: SparseFormat::Ell, stored_entries: 12 * 1000, ..csr };
        assert_eq!(padded.matrix_bytes(), 12 * 12_000);
        assert!(padded.matrix_bytes() > csr.matrix_bytes());
    }

    #[test]
    fn device_bytes_match_paper_formula() {
        // Paper Sec. III-B-2: vectors cost 4 * H_SIZE * 8 bytes per
        // realization; partial moments N * 8 per realization.
        let s = paper_fig5(256);
        let expected_vectors = 4u64 * 8 * 1000 * 1792;
        let expected_partials = 8u64 * 256 * 1792;
        assert!(s.device_bytes() >= expected_vectors + expected_partials);
        // and it all fits the C2050's 3 GB.
        assert!(s.device_bytes() < 3 * 1024 * 1024 * 1024);
    }

    #[test]
    fn dense_large_matrix_triggers_replay_and_gather() {
        let spec = GpuSpec::tesla_c2050();
        let big = paper_fig8(4096);
        let small = paper_fig8(64);
        let big_cost = big.kernel_cost(&spec);
        let small_cost = small.kernel_cost(&spec);
        // Big: gather dominates — traffic ~ SR * (N-1) * D^2 * 8.
        let gather = 1792u64 * 127 * 8 * 4096 * 4096;
        assert!(big_cost.global_read_bytes > gather);
        // Small (64x64 = 32 KB fits L2; x ensemble 1792*512B = 0.9 MB > L2
        // still gathers, but matrix replays once).
        assert!(small_cost.global_read_bytes < big_cost.global_read_bytes / 1000);
    }

    #[test]
    fn uncoalesced_layout_multiplies_memory_time() {
        let spec = GpuSpec::tesla_c2050();
        let good = paper_fig5(512);
        let bad = MomentLaunchShape { layout: VectorLayout::Contiguous, ..good };
        let t_good = total(&good, &spec, 0.2);
        let t_bad = total(&bad, &spec, 0.2);
        assert!(t_bad > 2.0 * t_good, "naive layout must be much slower: {t_good} vs {t_bad}");
    }

    #[test]
    fn block_mapping_beats_paper_mapping_at_scale() {
        // More resident warps -> better occupancy -> faster compute-bound
        // runs. This is the crate's headline ablation.
        let spec = GpuSpec::tesla_c2050();
        let paper = paper_fig8(512);
        let improved = MomentLaunchShape {
            mapping: Mapping::BlockPerRealization,
            layout: VectorLayout::Contiguous,
            ..paper
        };
        let t_paper = total(&paper, &spec, 0.2);
        let t_improved = total(&improved, &spec, 0.2);
        assert!(
            t_improved < t_paper,
            "block-per-realization should win: {t_improved} vs {t_paper}"
        );
    }

    #[test]
    fn single_precision_roughly_doubles_throughput() {
        // SP halves every word and doubles the peak rate: compute-bound
        // shapes gain ~2x, bandwidth-bound ones at least that.
        let spec = GpuSpec::tesla_c2050();
        for base in [paper_fig5(1024), paper_fig8(1024)] {
            let sp = MomentLaunchShape { precision: Precision::Single, ..base };
            // Compare kernel-only times so fixed overheads don't dilute.
            let t_dp = spec
                .kernel_time(&base.kernel_cost(&spec), base.grid_blocks(), 128, 0.2)
                .as_secs_f64();
            let t_sp =
                spec.kernel_time(&sp.kernel_cost(&spec), sp.grid_blocks(), 128, 0.2).as_secs_f64();
            let gain = t_dp / t_sp;
            assert!((1.8..=2.6).contains(&gain), "SP gain should be ~2x, got {gain} for {base:?}");
        }
    }

    #[test]
    fn precision_word_sizes() {
        assert_eq!(Precision::Double.word_bytes(), 8);
        assert_eq!(Precision::Single.word_bytes(), 4);
        assert_eq!(Precision::default(), Precision::Double);
    }

    #[test]
    fn estimate_includes_setup_and_transfers() {
        let spec = GpuSpec::tesla_c2050();
        let t = total(&paper_fig5(128), &spec, 0.2);
        assert!(t > spec.setup_overhead.as_secs_f64());
    }
}
