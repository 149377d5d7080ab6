//! The host-side orchestrator — the paper's `main` program.
//!
//! Uploads the Hamiltonian, allocates the four recursion vectors per
//! realization and the partial-moment buffer (the memory budget of the
//! paper's Sec. III-B-2), launches the generation and reduction kernels,
//! and reads the moments back. Produces both verified numbers and a
//! modeled-time breakdown.

use crate::kernels::{MomentGenKernel, MomentReduceKernel};
use crate::{Mapping, MomentLaunchShape, Precision, SparseFormat, VectorLayout};
use kpm::prelude::*;
use kpm_linalg::{CsrMatrix, DenseMatrix};
use kpm_streamsim::{Device, Dim3, GlobalBuffer, GpuSpec, SimError, SimTime};
use std::fmt;

/// A matrix resident in device global memory.
#[derive(Debug, Clone, Copy)]
pub enum DeviceMatrix {
    /// Row-major dense storage.
    Dense {
        /// `dim * dim` values.
        data: GlobalBuffer,
        /// Dimension `D`.
        dim: usize,
    },
    /// CSR storage; index arrays are kept as `f64` words in the simulated
    /// memory (exact for indices below 2^53 — a simulator simplification,
    /// accounted as 4-byte traffic in the cost model to match real CSR).
    Csr {
        /// `dim + 1` row pointers.
        row_ptr: GlobalBuffer,
        /// `nnz` column indices.
        col_idx: GlobalBuffer,
        /// `nnz` values.
        values: GlobalBuffer,
        /// Dimension `D`.
        dim: usize,
        /// Stored entries.
        nnz: usize,
    },
}

impl DeviceMatrix {
    /// Dimension `D`.
    pub fn dim(&self) -> usize {
        match self {
            DeviceMatrix::Dense { dim, .. } | DeviceMatrix::Csr { dim, .. } => *dim,
        }
    }

    /// Stored entries.
    pub fn stored_entries(&self) -> usize {
        match self {
            DeviceMatrix::Dense { dim, .. } => dim * dim,
            DeviceMatrix::Csr { nnz, .. } => *nnz,
        }
    }

    /// Whether storage is dense.
    pub fn is_dense(&self) -> bool {
        matches!(self, DeviceMatrix::Dense { .. })
    }
}

/// Errors from the stream engine.
#[derive(Debug)]
pub enum EngineError {
    /// Device-side failure (out of memory, bad launch...).
    Sim(SimError),
    /// KPM-side failure (bad parameters, bounds...).
    Kpm(KpmError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sim(e) => write!(f, "device error: {e}"),
            EngineError::Kpm(e) => write!(f, "KPM error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

impl From<KpmError> for EngineError {
    fn from(e: KpmError) -> Self {
        EngineError::Kpm(e)
    }
}

/// Modeled-time breakdown of one GPU KPM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Context/allocation setup (once per run).
    pub setup: SimTime,
    /// Host→device matrix transfer.
    pub upload: SimTime,
    /// Moment-generation launch (Fig. 4a).
    pub generation: SimTime,
    /// Moment-reduction launch (Fig. 4b).
    pub reduction: SimTime,
    /// Device→host moments transfer.
    pub download: SimTime,
}

impl TimeBreakdown {
    /// Total modeled time.
    pub fn total(&self) -> SimTime {
        self.setup + self.upload + self.generation + self.reduction + self.download
    }
}

/// Result of one GPU KPM run.
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Normalized moments with cross-realization statistics.
    pub moments: MomentStats,
    /// Rescaling centre used.
    pub a_plus: f64,
    /// Rescaling half-width used.
    pub a_minus: f64,
    /// Modeled time breakdown.
    pub time: TimeBreakdown,
    /// Peak device memory during the run, bytes.
    pub peak_device_bytes: usize,
}

/// The KPM stream engine: owns a simulated device and runs the paper's
/// pipeline on it.
pub struct StreamKpmEngine {
    device: Device,
    mapping: Mapping,
    layout: VectorLayout,
    block_size: usize,
    compute_efficiency: f64,
}

impl StreamKpmEngine {
    /// Engine on a fresh device with the paper's defaults:
    /// thread-per-realization mapping, interleaved vectors,
    /// `BLOCK_SIZE = 128`, and the calibrated Fermi compute efficiency
    /// (DESIGN.md §5).
    pub fn new(spec: GpuSpec) -> Self {
        Self {
            device: Device::new(spec),
            mapping: Mapping::ThreadPerRealization,
            layout: VectorLayout::Interleaved,
            block_size: 128,
            compute_efficiency: 0.2,
        }
    }

    /// Selects the work mapping (and switches to its natural layout).
    pub fn with_mapping(mut self, mapping: Mapping) -> Self {
        self.mapping = mapping;
        self.layout = VectorLayout::natural_for(mapping);
        self
    }

    /// Overrides the vector layout (e.g. to measure the uncoalesced
    /// naive-port ablation).
    pub fn with_layout(mut self, layout: VectorLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Sets `BLOCK_SIZE`.
    ///
    /// # Panics
    /// Panics if zero.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        self.block_size = block_size;
        self
    }

    /// Sets the calibrated compute-efficiency knob.
    pub fn with_compute_efficiency(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0, "efficiency in (0, 1]");
        self.compute_efficiency = eff;
        self
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Current block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Current mapping.
    pub fn mapping(&self) -> Mapping {
        self.mapping
    }

    /// The launch shape for a hypothetical run — used to price paper-scale
    /// figures without execution.
    pub fn shape_for(
        &self,
        dim: usize,
        stored_entries: usize,
        dense: bool,
        num_moments: usize,
        realizations: usize,
    ) -> MomentLaunchShape {
        MomentLaunchShape {
            dim,
            stored_entries,
            dense,
            format: SparseFormat::Csr,
            num_moments,
            realizations,
            mapping: self.mapping,
            layout: self.layout,
            block_size: self.block_size,
            precision: Precision::Double,
        }
    }

    /// Runs the full pipeline on a CSR matrix.
    ///
    /// # Errors
    /// Device (memory/launch) or KPM (parameters/bounds) errors.
    pub fn compute_moments_csr(
        &mut self,
        h: &CsrMatrix,
        params: &KpmParams,
    ) -> Result<GpuRunResult, EngineError> {
        params.validate()?;
        let bounds = h.spectral_bounds(params.bounds)?.padded(params.padding);
        self.run(MatrixUpload::Csr(h), bounds.a_plus(), bounds.a_minus(), params)
    }

    /// Runs the full pipeline on a dense matrix.
    ///
    /// # Errors
    /// Device (memory/launch) or KPM (parameters/bounds) errors.
    pub fn compute_moments_dense(
        &mut self,
        h: &DenseMatrix,
        params: &KpmParams,
    ) -> Result<GpuRunResult, EngineError> {
        params.validate()?;
        let bounds = h.spectral_bounds(params.bounds)?.padded(params.padding);
        self.run(MatrixUpload::Dense(h), bounds.a_plus(), bounds.a_minus(), params)
    }

    /// Runs the pipeline and reconstructs the DoS from the device moments.
    ///
    /// # Errors
    /// Same as [`StreamKpmEngine::compute_moments_csr`].
    pub fn compute_dos_csr(
        &mut self,
        h: &CsrMatrix,
        params: &KpmParams,
    ) -> Result<(kpm::Dos, TimeBreakdown), EngineError> {
        let run = self.compute_moments_csr(h, params)?;
        let dos = DosEstimator::new(params.clone()).reconstruct(
            run.moments.clone(),
            run.a_plus,
            run.a_minus,
        )?;
        Ok((dos, run.time))
    }

    fn run(
        &mut self,
        matrix: MatrixUpload<'_>,
        a_plus: f64,
        a_minus: f64,
        params: &KpmParams,
    ) -> Result<GpuRunResult, EngineError> {
        if a_minus <= 0.0 {
            return Err(EngineError::Kpm(KpmError::DegenerateSpectrum));
        }
        let _run_span = kpm_obs::span("stream.run");
        let d = matrix.dim();
        let sr = params.total_realizations();
        let n_mom = params.num_moments;
        let dev = &mut self.device;

        let clock0 = dev.elapsed();
        {
            let _span = kpm_obs::span("stream.setup");
            dev.advance_clock(dev.spec().setup_overhead);
        }
        let setup = dev.elapsed().0 - clock0.0;

        // Upload the matrix.
        let t0 = dev.elapsed();
        let dmat = {
            let _span = kpm_obs::span("stream.upload");
            matrix.upload(dev)?
        };
        let upload = dev.elapsed().0 - t0.0;

        // Recursion vectors (4 per realization: the paper's memory layout)
        // and moment buffers.
        let r0 = dev.alloc(d * sr)?;
        let va = dev.alloc(d * sr)?;
        let vb = dev.alloc(d * sr)?;
        let vc = dev.alloc(d * sr)?;
        let partials = dev.alloc(n_mom * sr)?;
        let reduced = dev.alloc(n_mom)?;

        let shape = MomentLaunchShape {
            dim: d,
            stored_entries: dmat.stored_entries(),
            dense: dmat.is_dense(),
            format: SparseFormat::Csr,
            num_moments: n_mom,
            realizations: sr,
            mapping: self.mapping,
            layout: self.layout,
            block_size: self.block_size,
            precision: Precision::Double,
        };

        // Fig. 4a launch.
        let gen = MomentGenKernel {
            matrix: dmat,
            r0,
            va,
            vb,
            vc,
            partials,
            shape,
            num_random: params.num_random,
            distribution: params.distribution,
            master_seed: params.seed,
            a_plus,
            a_minus,
            spec: dev.spec().clone(),
        };
        let block_threads = match self.mapping {
            Mapping::ThreadPerRealization => self.block_size.min(sr.max(1)),
            Mapping::BlockPerRealization => self.block_size,
        };
        let generation = {
            let _span = kpm_obs::span("stream.generation");
            dev.launch_with_efficiency(
                &gen,
                Dim3::x(shape.grid_blocks()),
                Dim3::x(block_threads),
                self.compute_efficiency,
            )?
        };

        // Fig. 4b launch.
        let reduce = MomentReduceKernel {
            partials,
            output: reduced,
            realizations: sr,
            num_moments: n_mom,
            shape,
        };
        let reduce_threads =
            self.block_size.min(dev.spec().max_threads_per_block).min(sr.next_power_of_two());
        let reduction = {
            let _span = kpm_obs::span("stream.reduction");
            dev.launch_with_efficiency(
                &reduce,
                Dim3::x(n_mom),
                Dim3::x(reduce_threads),
                self.compute_efficiency,
            )?
        };

        // Read the moments back (charged — the real program does this).
        let t0 = dev.elapsed();
        let mut sums = vec![0.0; n_mom];
        {
            let _span = kpm_obs::span("stream.download");
            dev.copy_to_host(reduced, &mut sums)?;
        }
        let download = dev.elapsed().0 - t0.0;

        // Cross-realization statistics from the partials (verification
        // facility: peeked, not charged).
        let mut raw = vec![0.0; n_mom * sr];
        dev.peek(partials, &mut raw)?;
        let inv_d = 1.0 / d as f64;
        let mut mean = vec![0.0; n_mom];
        let mut m2 = vec![0.0; n_mom];
        for t in 0..sr {
            let k = (t + 1) as f64;
            for n in 0..n_mom {
                let v = raw[n * sr + t] * inv_d;
                let delta = v - mean[n];
                mean[n] += delta / k;
                m2[n] += delta * (v - mean[n]);
            }
        }
        let std_err: Vec<f64> = if sr > 1 {
            m2.iter().map(|&s| (s / (sr as f64 - 1.0)).sqrt() / (sr as f64).sqrt()).collect()
        } else {
            vec![0.0; n_mom]
        };
        // The device's reduced sums are the authoritative moments
        // (mu_n = sum / (D * SR)); the Welford mean agrees to rounding.
        let moments: Vec<f64> = sums.iter().map(|&s| s * inv_d / sr as f64).collect();

        let peak = dev.mem_peak();

        // Mirror the modeled stage times into ambient counters so a
        // `--trace` run records the *device* budget next to the host spans
        // (which only measure simulator wall time).
        let modeled_us = |t: f64| (t * 1e6) as u64;
        kpm_obs::counter_add("stream.modeled.setup_us", modeled_us(setup));
        kpm_obs::counter_add("stream.modeled.upload_us", modeled_us(upload));
        kpm_obs::counter_add("stream.modeled.generation_us", modeled_us(generation.0));
        kpm_obs::counter_add("stream.modeled.reduction_us", modeled_us(reduction.0));
        kpm_obs::counter_add("stream.modeled.download_us", modeled_us(download));

        // Free device memory (matrix buffers too).
        dev.free(r0)?;
        dev.free(va)?;
        dev.free(vb)?;
        dev.free(vc)?;
        dev.free(partials)?;
        dev.free(reduced)?;
        match dmat {
            DeviceMatrix::Dense { data, .. } => dev.free(data)?,
            DeviceMatrix::Csr { row_ptr, col_idx, values, .. } => {
                dev.free(row_ptr)?;
                dev.free(col_idx)?;
                dev.free(values)?;
            }
        }

        Ok(GpuRunResult {
            moments: MomentStats { mean: moments, std_err, samples: sr },
            a_plus,
            a_minus,
            time: TimeBreakdown {
                setup: SimTime(setup),
                upload: SimTime(upload),
                generation,
                reduction,
                download: SimTime(download),
            },
            peak_device_bytes: peak,
        })
    }
}

impl fmt::Debug for StreamKpmEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamKpmEngine")
            .field("device", &self.device)
            .field("mapping", &self.mapping)
            .field("layout", &self.layout)
            .field("block_size", &self.block_size)
            .finish()
    }
}

enum MatrixUpload<'a> {
    Dense(&'a DenseMatrix),
    Csr(&'a CsrMatrix),
}

impl MatrixUpload<'_> {
    fn dim(&self) -> usize {
        match self {
            MatrixUpload::Dense(m) => m.nrows(),
            MatrixUpload::Csr(m) => m.nrows(),
        }
    }

    fn upload(&self, dev: &mut Device) -> Result<DeviceMatrix, SimError> {
        match self {
            MatrixUpload::Dense(m) => {
                let data = dev.alloc(m.data().len())?;
                dev.copy_to_device(m.data(), data)?;
                Ok(DeviceMatrix::Dense { data, dim: m.nrows() })
            }
            MatrixUpload::Csr(m) => {
                let rp: Vec<f64> = m.row_ptr().iter().map(|&v| v as f64).collect();
                let ci: Vec<f64> = m.col_idx().iter().map(|&v| v as f64).collect();
                let row_ptr = dev.alloc(rp.len())?;
                let col_idx = dev.alloc(ci.len())?;
                let values = dev.alloc(m.values().len())?;
                dev.copy_to_device(&rp, row_ptr)?;
                dev.copy_to_device(&ci, col_idx)?;
                dev.copy_to_device(m.values(), values)?;
                Ok(DeviceMatrix::Csr { row_ptr, col_idx, values, dim: m.nrows(), nnz: m.nnz() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm::moments::stochastic_moments;
    use kpm::rescale::rescale;
    use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};

    fn small_lattice() -> CsrMatrix {
        TightBinding::new(
            HypercubicLattice::cubic(4, 4, 4, Boundary::Periodic),
            1.0,
            OnSite::Uniform(0.0),
        )
        .store_zero_diagonal(true)
        .build_csr()
    }

    fn test_params(n: usize) -> KpmParams {
        KpmParams::new(n).with_random_vectors(4, 2).with_seed(2024)
    }

    /// CPU reference moments for the same matrix and parameters.
    fn cpu_reference(h: &CsrMatrix, params: &KpmParams) -> MomentStats {
        let bounds = h.spectral_bounds(params.bounds).unwrap();
        let rescaled = rescale(h, bounds, params.padding).unwrap();
        stochastic_moments(&rescaled, params)
    }

    #[test]
    fn gpu_moments_match_cpu_reference_sparse() {
        let h = small_lattice();
        let params = test_params(32);
        let cpu = cpu_reference(&h, &params);
        let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let gpu = engine.compute_moments_csr(&h, &params).unwrap();
        for n in 0..32 {
            let scale = 1.0 + cpu.mean[n].abs();
            assert!(
                (cpu.mean[n] - gpu.moments.mean[n]).abs() < 1e-10 * scale,
                "mu_{n}: cpu {} vs gpu {}",
                cpu.mean[n],
                gpu.moments.mean[n]
            );
        }
    }

    #[test]
    fn gpu_moments_match_cpu_reference_dense() {
        let h = kpm_lattice::dense_random_symmetric(48, 1.0, 77);
        let params = test_params(24);
        let bounds = h.spectral_bounds(params.bounds).unwrap();
        let rescaled = rescale(&h, bounds, params.padding).unwrap();
        let cpu = stochastic_moments(&rescaled, &params);
        let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let gpu = engine.compute_moments_dense(&h, &params).unwrap();
        for n in 0..24 {
            let scale = 1.0 + cpu.mean[n].abs();
            assert!(
                (cpu.mean[n] - gpu.moments.mean[n]).abs() < 1e-10 * scale,
                "mu_{n}: {} vs {}",
                cpu.mean[n],
                gpu.moments.mean[n]
            );
        }
    }

    #[test]
    fn both_mappings_agree() {
        let h = small_lattice();
        let params = test_params(16);
        let mut paper = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let mut improved = StreamKpmEngine::new(GpuSpec::tesla_c2050())
            .with_mapping(Mapping::BlockPerRealization)
            .with_block_size(32);
        let a = paper.compute_moments_csr(&h, &params).unwrap();
        let b = improved.compute_moments_csr(&h, &params).unwrap();
        for n in 0..16 {
            let scale = 1.0 + a.moments.mean[n].abs();
            assert!(
                (a.moments.mean[n] - b.moments.mean[n]).abs() < 1e-9 * scale,
                "mu_{n}: {} vs {}",
                a.moments.mean[n],
                b.moments.mean[n]
            );
        }
    }

    #[test]
    fn mu0_is_exactly_one_for_rademacher() {
        let h = small_lattice();
        let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let run = engine.compute_moments_csr(&h, &test_params(8)).unwrap();
        assert!((run.moments.mean[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_breakdown_is_positive_and_consistent() {
        let h = small_lattice();
        let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let run = engine.compute_moments_csr(&h, &test_params(16)).unwrap();
        let t = run.time;
        assert!(t.setup.as_secs_f64() > 0.0);
        assert!(t.upload.as_secs_f64() > 0.0);
        assert!(t.generation.as_secs_f64() > 0.0);
        assert!(t.reduction.as_secs_f64() > 0.0);
        assert!(t.download.as_secs_f64() > 0.0);
        let total = t.total().as_secs_f64();
        assert!(
            (total
                - (t.setup.as_secs_f64()
                    + t.upload.as_secs_f64()
                    + t.generation.as_secs_f64()
                    + t.reduction.as_secs_f64()
                    + t.download.as_secs_f64()))
            .abs()
                < 1e-12
        );
        // Engine time equals device clock.
        assert!((engine.device().elapsed().as_secs_f64() - total).abs() < 1e-12);
    }

    #[test]
    fn device_memory_is_fully_released() {
        let h = small_lattice();
        let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let run = engine.compute_moments_csr(&h, &test_params(8)).unwrap();
        assert_eq!(engine.device().mem_in_use(), 0);
        assert!(run.peak_device_bytes > 0);
        // Peak accounts at least the four vectors (paper Sec. III-B-2).
        let d = h.nrows();
        let sr = 8;
        assert!(run.peak_device_bytes >= 4 * 8 * d * sr);
    }

    #[test]
    fn modeled_time_grows_with_n() {
        let h = small_lattice();
        let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let t1 =
            engine.compute_moments_csr(&h, &test_params(16)).unwrap().time.generation.as_secs_f64();
        let t2 =
            engine.compute_moments_csr(&h, &test_params(32)).unwrap().time.generation.as_secs_f64();
        assert!(t2 > 1.5 * t1, "generation time must scale with N: {t1} vs {t2}");
    }

    #[test]
    fn dos_from_gpu_is_sane() {
        let h = small_lattice();
        let params = test_params(64).with_grid_points(256);
        let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let (dos, _) = engine.compute_dos_csr(&h, &params).unwrap();
        assert!((dos.integrate() - 1.0).abs() < 0.05, "integral {}", dos.integrate());
        // Band of the cubic lattice is [-6, 6].
        assert!(dos.energies[0] > -6.5 && *dos.energies.last().unwrap() < 6.5);
    }

    #[test]
    fn uncoalesced_ablation_runs_and_is_slower_in_model() {
        let h = small_lattice();
        let params = test_params(16);
        let mut good = StreamKpmEngine::new(GpuSpec::tesla_c2050());
        let mut bad =
            StreamKpmEngine::new(GpuSpec::tesla_c2050()).with_layout(VectorLayout::Contiguous);
        let tg = good.compute_moments_csr(&h, &params).unwrap();
        let tb = bad.compute_moments_csr(&h, &params).unwrap();
        // Same numbers...
        for n in 0..16 {
            assert!((tg.moments.mean[n] - tb.moments.mean[n]).abs() < 1e-9);
        }
        // ...worse modeled memory behaviour (generation only; totals are
        // dominated by setup at this tiny scale).
        assert!(
            tb.time.generation.as_secs_f64() >= tg.time.generation.as_secs_f64(),
            "{} vs {}",
            tb.time.generation.as_secs_f64(),
            tg.time.generation.as_secs_f64()
        );
    }
}
