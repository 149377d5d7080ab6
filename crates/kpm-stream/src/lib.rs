//! KPM on the stream-computing device — the paper's contribution.
//!
//! This crate reimplements Sec. III of Zhang et al. (2011) against the
//! simulated device in `kpm-streamsim`:
//!
//! * **Moment generation** (the paper's Fig. 4a): all `S * R` realizations
//!   run concurrently on the device. The paper's mapping — `S*R / BLOCK_SIZE`
//!   thread blocks with **one thread per realization**, each thread owning
//!   four `H_SIZE`-element vectors in global memory and swapping them
//!   through the recursion — is [`Mapping::ThreadPerRealization`]. An
//!   improved **block-per-realization** mapping (threads of a block
//!   partition the vector, shared-memory tree reduction for the dot
//!   products) is provided as [`Mapping::BlockPerRealization`] for the
//!   ablation study.
//! * **Moment reduction** (Fig. 4b): a parallel sum of the per-realization
//!   `mu~_n` into `mu_n`, one block per moment order.
//! * **Memory accounting** (Sec. III-B-2): allocations go through the
//!   simulated 3 GB device; the paper's
//!   `blocks x 4 x H_SIZE x 8` byte formula is checked in tests.
//! * **Future-work items of Sec. V**: the block-size autotuner ([`tune`])
//!   and multi-device partitioning ([`cluster`]).
//!
//! Every run produces both *numbers* (verified against the CPU reference in
//! the `kpm` crate — same random streams, same recursion) and *modeled
//! time* from the device's performance layer (used by the figure
//! reproductions).

pub mod cluster;
pub mod engine;
pub mod kernels;
pub mod kubo_stream;
pub mod propagate;
pub mod tune;

pub use cluster::DeviceCluster;
pub use engine::{DeviceMatrix, EngineError, GpuRunResult, StreamKpmEngine, TimeBreakdown};
pub use kpm_streamsim::layout::{Mapping, VectorLayout};
pub use kpm_streamsim::shape::{MomentLaunchShape, Precision, SparseFormat};
pub use kubo_stream::{device_double_moments, DoubleMomentShape};
pub use propagate::DevicePropagator;
