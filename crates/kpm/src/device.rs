//! Unified device backend API.
//!
//! Every execution substrate the system can place a moments job on sits
//! behind one object-safe [`Device`] trait: [`HostDevice`] runs the tiled
//! CPU engine in wall-clock time, [`SimDevice`] runs the *same functional
//! pipeline* and additionally prices the run through the discrete-event
//! command-queue pipeline of `kpm_streamsim::queue` (per-device `dma` /
//! `compute` / `reduce` engines, event-heap scheduler, transfer/compute
//! overlap, owner-computes multi-device splitting). A future real
//! accelerator slots in as a third implementation without touching callers.
//!
//! The two shipped backends produce **bitwise identical** functional
//! results: `SimDevice` performs exactly the host pipeline
//! (`spectral_bounds → rescale → stochastic_moments`) and differs only in
//! the clock it reports. Serve's moment cache therefore masks the device
//! in its cache key — a sim-computed entry is a valid host answer.
//!
//! Jobs select a backend with a [`DeviceSpec`] (`host`, `sim`, `sim:4`),
//! which travels through serve/net job specs and the CLI's `--device` flag.
//!
//! # Example
//!
//! ```
//! use kpm::device::{Device, DeviceOp, DeviceSpec};
//! use kpm::prelude::*;
//! use kpm_linalg::{CooMatrix, SparseMatrix};
//!
//! // A 16-site ring with nearest-neighbour hopping.
//! let mut coo = CooMatrix::new(16, 16);
//! for i in 0..16 {
//!     coo.push_symmetric(i, (i + 1) % 16, -1.0).unwrap();
//! }
//! let h = SparseMatrix::Csr(coo.to_csr());
//! let params = KpmParams::new(32).with_random_vectors(4, 2);
//!
//! let host = DeviceSpec::Host.build();
//! let sim: DeviceSpec = "sim:2".parse().unwrap();
//! let sim = sim.build();
//!
//! let a = host.submit(DeviceOp::Sparse(&h), &params).unwrap();
//! let b = sim.submit(DeviceOp::Sparse(&h), &params).unwrap();
//! // Same numbers, different clocks: host wall time vs. modeled seconds.
//! assert_eq!(a.moments.mean, b.moments.mean);
//! assert!(b.clock.modeled_secs().unwrap() > 0.0);
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kpm_linalg::{DenseMatrix, LinearOp, SparseMatrix, TiledOp};
use kpm_streamsim::layout::{Mapping, VectorLayout};
use kpm_streamsim::queue::{MomentRunPlan, MomentRunReport};
use kpm_streamsim::shape::{MomentLaunchShape, Precision, SparseFormat};
use kpm_streamsim::{GpuSpec, SimTime};

use crate::error::KpmError;
use crate::moments::{stochastic_moments, KpmParams, MomentStats};
use crate::rescale::{rescale, Boundable};

/// What a job hands to a device: a borrowed Hamiltonian in whichever
/// storage the caller assembled.
#[derive(Debug, Clone, Copy)]
pub enum DeviceOp<'a> {
    /// A sparse operator (CSR / ELL / matrix-free stencil).
    Sparse(&'a SparseMatrix),
    /// A dense operator.
    Dense(&'a DenseMatrix),
}

impl DeviceOp<'_> {
    /// Operator dimension `D`.
    pub fn dim(&self) -> usize {
        match self {
            DeviceOp::Sparse(h) => h.dim(),
            DeviceOp::Dense(h) => h.dim(),
        }
    }

    /// Coefficient slots the cost model must charge — for padded ELL this
    /// is the padded slot count, not the true `nnz` (the accounting seam
    /// shared with the host engines via [`LinearOp::model_entries`]).
    pub fn model_entries(&self) -> usize {
        match self {
            DeviceOp::Sparse(h) => h.model_entries(),
            DeviceOp::Dense(h) => h.model_entries(),
        }
    }

    /// Whether the operator is stored dense.
    pub fn is_dense(&self) -> bool {
        matches!(self, DeviceOp::Dense(_))
    }

    /// The storage format as the simulator's pricing enum (dense operators
    /// report CSR; the flag from [`Self::is_dense`] overrides it).
    pub fn sim_format(&self) -> SparseFormat {
        match self {
            DeviceOp::Dense(_) => SparseFormat::Csr,
            DeviceOp::Sparse(h) => match h.format_name() {
                "ell" => SparseFormat::Ell,
                "stencil" => SparseFormat::Stencil,
                _ => SparseFormat::Csr,
            },
        }
    }
}

/// How much time a device has accumulated, in its own notion of time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceClock {
    /// Real elapsed time on the host.
    Wall(Duration),
    /// Modeled seconds from the event pipeline.
    Modeled(SimTime),
}

impl DeviceClock {
    /// Seconds regardless of flavour.
    pub fn as_secs_f64(&self) -> f64 {
        match self {
            DeviceClock::Wall(d) => d.as_secs_f64(),
            DeviceClock::Modeled(t) => t.as_secs_f64(),
        }
    }

    /// Modeled seconds, or `None` for a wall clock.
    pub fn modeled_secs(&self) -> Option<f64> {
        match self {
            DeviceClock::Modeled(t) => Some(t.as_secs_f64()),
            DeviceClock::Wall(_) => None,
        }
    }
}

/// Static description of a device backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCaps {
    /// Backend name (`"host"` or `"sim"`).
    pub name: &'static str,
    /// Device instances behind the splitter (1 for the host).
    pub instances: usize,
    /// Whether [`Device::synchronize`] reports modeled time (`true`) or
    /// wall time (`false`).
    pub modeled_clock: bool,
}

/// One completed submission.
#[derive(Debug, Clone)]
pub struct DeviceRun {
    /// Stochastic moment estimate (bitwise identical across backends).
    pub moments: MomentStats,
    /// Rescaling centre `a_plus`.
    pub a_plus: f64,
    /// Rescaling half-width `a_minus`.
    pub a_minus: f64,
    /// Time this submission cost on the device's clock.
    pub clock: DeviceClock,
}

/// An execution substrate for moments jobs.
///
/// Object-safe so pools and schedulers can hold `Box<dyn Device>` /
/// `Arc<dyn Device>` and pick per job.
pub trait Device: Send + Sync {
    /// Static capabilities.
    fn caps(&self) -> DeviceCaps;

    /// Runs the full moments pipeline (`bounds → rescale →
    /// stochastic_moments`) for `op` and charges the device's clock.
    ///
    /// # Errors
    /// [`KpmError`] from parameter validation, bounds, or rescaling.
    fn submit(&self, op: DeviceOp<'_>, params: &KpmParams) -> Result<DeviceRun, KpmError>;

    /// Total time accumulated across all submissions.
    fn synchronize(&self) -> DeviceClock;
}

/// The shared functional pipeline — the exact statement sequence serve's
/// CPU path has always run, so every backend's numbers are bitwise
/// reproducible against it.
fn host_pipeline<A: Boundable + TiledOp + Sync>(
    op: &A,
    params: &KpmParams,
) -> Result<(MomentStats, f64, f64), KpmError> {
    let bounds = crate::bounds::resolve(op, params.bounds)?;
    let rescaled = rescale(op, bounds, params.padding)?;
    let stats = stochastic_moments(&rescaled, params);
    Ok((stats, rescaled.a_plus(), rescaled.a_minus()))
}

fn run_functional(
    op: DeviceOp<'_>,
    params: &KpmParams,
) -> Result<(MomentStats, f64, f64), KpmError> {
    params.validate()?;
    match op {
        DeviceOp::Sparse(h) => host_pipeline(h, params),
        DeviceOp::Dense(h) => host_pipeline(h, params),
    }
}

/// The host backend: the tiled CPU engine (rayon SPMD under the ambient
/// [`crate::exec::ExecPlan`] policy), timed in wall-clock.
#[derive(Debug, Default)]
pub struct HostDevice {
    clock: Mutex<Duration>,
}

impl HostDevice {
    /// A fresh host device with a zeroed clock.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Device for HostDevice {
    fn caps(&self) -> DeviceCaps {
        DeviceCaps { name: "host", instances: 1, modeled_clock: false }
    }

    fn submit(&self, op: DeviceOp<'_>, params: &KpmParams) -> Result<DeviceRun, KpmError> {
        let started = Instant::now();
        let (moments, a_plus, a_minus) = run_functional(op, params)?;
        let elapsed = started.elapsed();
        *self.clock.lock().expect("host clock poisoned") += elapsed;
        Ok(DeviceRun { moments, a_plus, a_minus, clock: DeviceClock::Wall(elapsed) })
    }

    fn synchronize(&self) -> DeviceClock {
        DeviceClock::Wall(*self.clock.lock().expect("host clock poisoned"))
    }
}

/// The simulated-device backend: functionally the host pipeline (bitwise
/// identical results), with time priced by the discrete-event command-queue
/// pipeline — per-device `dma`/`compute`/`reduce` engines, transfer/compute
/// overlap, and an owner-computes splitter across `instances` devices.
#[derive(Debug)]
pub struct SimDevice {
    spec: GpuSpec,
    instances: usize,
    overlap: bool,
    chunks: usize,
    mapping: Mapping,
    layout: VectorLayout,
    block_size: usize,
    compute_efficiency: f64,
    clock: Mutex<f64>,
}

impl SimDevice {
    /// A single simulated device with overlap enabled, the paper's
    /// thread-per-realization mapping, interleaved vectors, `BLOCK_SIZE =
    /// 128`, and the calibrated compute efficiency.
    pub fn new(spec: GpuSpec) -> Self {
        Self {
            spec,
            instances: 1,
            overlap: true,
            chunks: 4,
            mapping: Mapping::ThreadPerRealization,
            layout: VectorLayout::Interleaved,
            block_size: 128,
            compute_efficiency: 0.2,
            clock: Mutex::new(0.0),
        }
    }

    /// The default device model (the paper's Tesla C2050).
    pub fn tesla_c2050() -> Self {
        Self::new(GpuSpec::tesla_c2050())
    }

    /// Sets the instance count fed by the owner-computes splitter.
    ///
    /// # Panics
    /// Panics if zero.
    pub fn with_instances(mut self, instances: usize) -> Self {
        assert!(instances > 0, "device count must be positive");
        self.instances = instances;
        self
    }

    /// Enables or disables transfer/compute overlap in the modeled clock.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Sets the chunk count for the overlapped stages.
    ///
    /// # Panics
    /// Panics if zero.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks > 0, "chunk count must be positive");
        self.chunks = chunks;
        self
    }

    /// Sets the work mapping and its natural vector layout.
    pub fn with_mapping(mut self, mapping: Mapping) -> Self {
        self.mapping = mapping;
        self.layout = VectorLayout::natural_for(mapping);
        self
    }

    /// The launch shape a submission of `op` at `params` is priced at.
    /// `stored_entries` is [`DeviceOp::model_entries`] — padded ELL slots
    /// are charged here exactly as the host engines charge them.
    pub fn shape_for(&self, op: &DeviceOp<'_>, params: &KpmParams) -> MomentLaunchShape {
        MomentLaunchShape {
            dim: op.dim(),
            stored_entries: op.model_entries(),
            dense: op.is_dense(),
            format: op.sim_format(),
            num_moments: params.num_moments,
            realizations: params.num_random * params.num_realizations,
            mapping: self.mapping,
            layout: self.layout,
            block_size: self.block_size,
            precision: Precision::Double,
        }
    }

    /// The compiled event-pipeline plan for a submission (public so the
    /// bench harness and tests can price without running functionally).
    pub fn plan_for(&self, op: &DeviceOp<'_>, params: &KpmParams) -> MomentRunPlan {
        MomentRunPlan::new(self.shape_for(op, params))
            .with_overlap(self.overlap)
            .with_chunks(self.chunks)
            .with_devices(self.instances)
    }

    /// Prices a submission through the event pipeline without running it.
    pub fn model_run(&self, op: &DeviceOp<'_>, params: &KpmParams) -> MomentRunReport {
        self.plan_for(op, params).run(&self.spec, self.compute_efficiency)
    }
}

impl Device for SimDevice {
    fn caps(&self) -> DeviceCaps {
        DeviceCaps { name: "sim", instances: self.instances, modeled_clock: true }
    }

    fn submit(&self, op: DeviceOp<'_>, params: &KpmParams) -> Result<DeviceRun, KpmError> {
        let (moments, a_plus, a_minus) = run_functional(op, params)?;
        let modeled = self.model_run(&op, params).total;
        *self.clock.lock().expect("sim clock poisoned") += modeled.as_secs_f64();
        Ok(DeviceRun { moments, a_plus, a_minus, clock: DeviceClock::Modeled(modeled) })
    }

    fn synchronize(&self) -> DeviceClock {
        DeviceClock::Modeled(SimTime(*self.clock.lock().expect("sim clock poisoned")))
    }
}

/// Serializable backend selection: `host`, `sim`, or `sim:N`.
///
/// This is what travels in job specs (serve/net `device=` key) and the CLI
/// `--device` flag; [`DeviceSpec::build`] turns it into a live backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceSpec {
    /// The tiled CPU engine (wall clock).
    #[default]
    Host,
    /// The simulated device pipeline (modeled clock).
    Sim {
        /// Instances behind the owner-computes splitter.
        devices: usize,
    },
}

impl DeviceSpec {
    /// Builds the backend this spec names (sim devices model the paper's
    /// Tesla C2050).
    pub fn build(&self) -> Box<dyn Device> {
        match *self {
            DeviceSpec::Host => Box::new(HostDevice::new()),
            DeviceSpec::Sim { devices } => {
                Box::new(SimDevice::tesla_c2050().with_instances(devices))
            }
        }
    }

    /// Backend name without the instance count.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceSpec::Host => "host",
            DeviceSpec::Sim { .. } => "sim",
        }
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeviceSpec::Host => write!(f, "host"),
            DeviceSpec::Sim { devices: 1 } => write!(f, "sim"),
            DeviceSpec::Sim { devices } => write!(f, "sim:{devices}"),
        }
    }
}

impl FromStr for DeviceSpec {
    type Err = KpmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "host" => Ok(DeviceSpec::Host),
            "sim" => Ok(DeviceSpec::Sim { devices: 1 }),
            _ => {
                if let Some(n) = s.strip_prefix("sim:") {
                    let devices: usize = n.parse().map_err(|_| {
                        KpmError::InvalidParameter(format!("bad device count in {s:?}"))
                    })?;
                    if devices == 0 {
                        return Err(KpmError::InvalidParameter(
                            "device count must be positive".into(),
                        ));
                    }
                    Ok(DeviceSpec::Sim { devices })
                } else {
                    Err(KpmError::InvalidParameter(format!(
                        "unknown device {s:?} (expected host, sim, or sim:N)"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_linalg::MatrixFormat;
    use kpm_streamsim::StageTimes;

    fn lattice(dim: usize) -> SparseMatrix {
        // Ring with nearest-neighbour hopping: sparse, symmetric, bounded.
        let mut coo = kpm_linalg::CooMatrix::new(dim, dim);
        for i in 0..dim {
            coo.push_symmetric(i, (i + 1) % dim, -1.0).unwrap();
        }
        SparseMatrix::Csr(coo.to_csr())
    }

    fn params() -> KpmParams {
        KpmParams::new(32).with_random_vectors(4, 2)
    }

    #[test]
    fn spec_round_trips_through_display_and_parse() {
        for (s, spec) in [
            ("host", DeviceSpec::Host),
            ("sim", DeviceSpec::Sim { devices: 1 }),
            ("sim:4", DeviceSpec::Sim { devices: 4 }),
        ] {
            assert_eq!(s.parse::<DeviceSpec>().unwrap(), spec);
            assert_eq!(spec.to_string(), s);
        }
        assert_eq!(DeviceSpec::default(), DeviceSpec::Host);
        assert!("gpu".parse::<DeviceSpec>().is_err());
        assert!("sim:0".parse::<DeviceSpec>().is_err());
        assert!("sim:x".parse::<DeviceSpec>().is_err());
    }

    #[test]
    fn host_and_sim_results_are_bitwise_identical() {
        let h = lattice(64);
        let p = params();
        let host = DeviceSpec::Host.build();
        for devices in [1, 4] {
            let sim = DeviceSpec::Sim { devices }.build();
            let a = host.submit(DeviceOp::Sparse(&h), &p).unwrap();
            let b = sim.submit(DeviceOp::Sparse(&h), &p).unwrap();
            assert_eq!(a.moments.mean, b.moments.mean);
            assert_eq!(a.moments.std_err, b.moments.std_err);
            assert_eq!(a.a_plus, b.a_plus);
            assert_eq!(a.a_minus, b.a_minus);
        }
    }

    #[test]
    fn clocks_have_the_advertised_flavour() {
        let h = lattice(32);
        let p = params();
        let host = HostDevice::new();
        let run = host.submit(DeviceOp::Sparse(&h), &p).unwrap();
        assert!(run.clock.modeled_secs().is_none());
        assert!(!host.caps().modeled_clock);

        let sim = SimDevice::tesla_c2050();
        let run = sim.submit(DeviceOp::Sparse(&h), &p).unwrap();
        let modeled = run.clock.modeled_secs().unwrap();
        assert!(modeled > 0.0);
        assert!(sim.caps().modeled_clock);
        // The device clock accumulates across submissions.
        let _ = sim.submit(DeviceOp::Sparse(&h), &p).unwrap();
        assert_eq!(sim.synchronize().as_secs_f64(), 2.0 * modeled);
    }

    #[test]
    fn sim_modeled_clock_is_deterministic_and_instance_monotone() {
        let h = lattice(64);
        let p = params();
        let once = SimDevice::tesla_c2050();
        let reference = once.model_run(&DeviceOp::Sparse(&h), &p).total.as_secs_f64();
        assert_eq!(
            SimDevice::tesla_c2050().model_run(&DeviceOp::Sparse(&h), &p).total.as_secs_f64(),
            reference
        );
        let mut last = f64::INFINITY;
        for devices in [1, 2, 4, 8] {
            let dev = SimDevice::tesla_c2050().with_instances(devices);
            let t = dev.model_run(&DeviceOp::Sparse(&h), &p).total.as_secs_f64();
            assert!(t <= last + 1e-12, "{devices} instances slower: {t} vs {last}");
            last = t;
        }
    }

    #[test]
    fn overlap_off_matches_retired_analytic_model() {
        let h = lattice(128);
        let p = params();
        let dev = SimDevice::tesla_c2050().with_overlap(false);
        let shape = dev.shape_for(&DeviceOp::Sparse(&h), &p);
        let analytic = StageTimes::price(&shape, &GpuSpec::tesla_c2050(), 0.2).analytic_total();
        let piped = dev.model_run(&DeviceOp::Sparse(&h), &p).total;
        assert_eq!(piped.as_secs_f64(), analytic.as_secs_f64());
    }

    #[test]
    fn ell_padding_is_charged_by_the_event_pipeline() {
        // The accounting seam: a ragged matrix stored ELL pads every row to
        // the widest; `model_entries` carries that charge into the pipeline's
        // DMA and compute sizing exactly as the host cost model charges it.
        let dim = 64;
        let mut coo = kpm_linalg::CooMatrix::new(dim, dim);
        for i in 0..dim {
            coo.push_symmetric(i, (i + 1) % dim, -1.0).unwrap();
            // One dense-ish row drives the padded width up.
            if i > 2 && i < dim - 1 {
                coo.push_symmetric(0, i, 0.1).unwrap();
            }
        }
        let csr = SparseMatrix::Csr(coo.to_csr());
        let ell = SparseMatrix::from_csr(csr.to_csr(), MatrixFormat::Ell);
        assert_eq!(ell.format_name(), "ell");
        let nnz: usize = ell.nnz();
        assert!(ell.model_entries() > nnz, "padding must inflate model_entries");

        let p = params();
        let dev = SimDevice::tesla_c2050();
        let shape_ell = dev.shape_for(&DeviceOp::Sparse(&ell), &p);
        let shape_csr = dev.shape_for(&DeviceOp::Sparse(&csr), &p);
        assert_eq!(shape_ell.stored_entries, ell.model_entries());
        assert_eq!(shape_ell.format, SparseFormat::Ell);
        assert_eq!(shape_csr.stored_entries, csr.model_entries());
        // And the priced DMA traffic reflects the padded slots.
        assert_eq!(shape_ell.matrix_bytes(), 12 * ell.model_entries() as u64);
    }

    #[test]
    fn invalid_params_surface_as_kpm_errors() {
        let h = lattice(16);
        let mut p = params();
        p.num_moments = 1;
        let dev = DeviceSpec::Host.build();
        assert!(dev.submit(DeviceOp::Sparse(&h), &p).is_err());
    }

    #[test]
    fn dense_ops_run_on_both_backends() {
        let h = DenseMatrix::from_diag(&[-1.0, -0.5, 0.5, 1.0]);
        let p = KpmParams::new(16).with_random_vectors(2, 2);
        let a = DeviceSpec::Host.build().submit(DeviceOp::Dense(&h), &p).unwrap();
        let b = DeviceSpec::Sim { devices: 2 }.build().submit(DeviceOp::Dense(&h), &p).unwrap();
        assert_eq!(a.moments.mean, b.moments.mean);
        assert!(DeviceOp::Dense(&h).is_dense());
    }
}
