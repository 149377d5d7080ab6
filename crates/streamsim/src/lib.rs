//! A stream-computing (CUDA-like) device simulator.
//!
//! This crate is the substitute for the NVIDIA Tesla C2050 the paper ran on:
//! no physical GPU is available in this environment, so we reproduce the
//! *execution model* and the *machine balance* instead (see DESIGN.md §2).
//! It provides two coupled layers:
//!
//! 1. **Functional layer** — kernels written against a CUDA-shaped API
//!    (grids and thread blocks, global memory, per-block shared memory,
//!    barrier-phased execution) run on the host and produce real numbers.
//!    The KPM-on-GPU implementation in the `kpm-stream` crate is verified
//!    against the CPU reference through this layer.
//!
//! 2. **Performance layer** — every memcpy and kernel launch is charged to a
//!    simulated clock using an analytic model ([`model::GpuSpec`]):
//!    compute-vs-memory roofline per launch, occupancy as a function of
//!    block size, kernel-launch and PCIe overheads. A matching cache-aware
//!    model for the paper's CPU baseline lives in [`host`]. These produce
//!    the execution-time *shapes* of the paper's Figs. 5, 7 and 8 at full
//!    parameter scale, which would be infeasible to execute functionally on
//!    this machine.
//!
//! The two layers are deliberately independent: functional results never
//! depend on the cost model, and modeled time never depends on how fast the
//! host happens to be.
//!
//! # Example
//!
//! ```
//! use kpm_streamsim::{Device, Dim3, GpuSpec};
//! use kpm_streamsim::kernel::{BlockKernel, BlockScope, KernelCost};
//!
//! /// y[i] = a * x[i] (one element per thread, grid-strided).
//! struct Saxpy { a: f64, x: kpm_streamsim::GlobalBuffer, y: kpm_streamsim::GlobalBuffer, n: usize }
//!
//! impl BlockKernel for Saxpy {
//!     fn name(&self) -> &'static str { "saxpy" }
//!     fn execute(&self, scope: &mut BlockScope<'_>) {
//!         let x = scope.global(self.x);
//!         let y = scope.global(self.y);
//!         for t in scope.threads() {
//!             let i = scope.global_thread_id(t);
//!             if i < self.n {
//!                 y.store(i, self.a * x.load(i));
//!             }
//!         }
//!     }
//!     fn cost(&self, _dims: &kpm_streamsim::LaunchDims) -> KernelCost {
//!         KernelCost::new().flops(self.n as u64).global_read(8 * self.n as u64)
//!             .global_write(8 * self.n as u64)
//!     }
//! }
//!
//! let mut dev = Device::new(GpuSpec::tesla_c2050());
//! let x = dev.alloc(128).unwrap();
//! let y = dev.alloc(128).unwrap();
//! dev.copy_to_device(&vec![2.0; 128], x).unwrap();
//! dev.launch(&Saxpy { a: 3.0, x, y, n: 128 }, Dim3::x(1), Dim3::x(128)).unwrap();
//! let mut out = vec![0.0; 128];
//! dev.copy_to_host(y, &mut out).unwrap();
//! assert!(out.iter().all(|&v| v == 6.0));
//! assert!(dev.elapsed().as_secs_f64() > 0.0); // modeled, not wall-clock
//! ```

pub mod device;
pub mod dim;
pub mod error;
pub mod host;
pub mod kernel;
pub mod layout;
pub mod mem;
pub mod model;
pub mod queue;
pub mod shape;

pub use device::{Device, LaunchRecord};
pub use dim::{Dim3, LaunchDims};
pub use error::SimError;
pub use host::{CpuSpec, HostClock, MemTraffic};
pub use kernel::{BlockKernel, BlockScope, KernelCost};
pub use layout::{Mapping, VectorLayout};
pub use mem::GlobalBuffer;
pub use model::{GpuSpec, SimTime};
pub use queue::{
    CmdId, Command, CommandTrace, DevicePipeline, EngineBusy, EngineKind, MomentRunPlan,
    MomentRunReport, PipelineReport, StageTimes,
};
pub use shape::{MomentLaunchShape, Precision, SparseFormat};
