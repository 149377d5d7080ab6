//! The Kernel Polynomial Method — core library.
//!
//! Implements the full method of the paper (Zhang et al., 2011, Sec. II),
//! which in turn follows Weiße, Wellein, Alvermann & Fehske, *The kernel
//! polynomial method*, Rev. Mod. Phys. 78, 275 (2006):
//!
//! 1. **Rescaling** ([`rescale`]) — map the spectrum of `H` into `[-1, 1]`
//!    with Gershgorin bounds (the paper's Eq. 8–9) or a tighter Lanczos
//!    estimate.
//! 2. **Moments** ([`moments`]) — `mu_n = Tr[T_n(H~)]/D`, estimated
//!    stochastically with `S * R` random vectors (Eq. 13–19) through the
//!    three-term Chebyshev recursion with the moment-doubling
//!    optimization: two moments per matrix sweep, where the paper's loop
//!    takes one.
//! 3. **Kernel damping** ([`kernels`]) — Jackson (the paper's choice),
//!    Lorentz, Fejér, and Dirichlet kernels `g_n` against Gibbs
//!    oscillations.
//! 4. **Reconstruction** ([`dos`], [`dct`], [`fft`]) — evaluate the damped
//!    Chebyshev series on the Chebyshev–Gauss grid with an FFT-backed
//!    DCT-III, yielding the density of states (Eq. 6/10).
//!
//! Beyond the paper's DoS pipeline the crate provides local densities of
//! states ([`ldos`]), retarded Green's functions ([`green`]), Kubo
//! conductivities ([`kubo`]), exact-moment references for validation
//! ([`moments::exact_moments`]), and CPU cost accounting ([`workload`])
//! used by the benchmark harness.
//!
//! All four spectral workloads implement the shared [`Estimator`] trait
//! ([`estimator`]), whose `compute` / `compute_with_bounds` / `reconstruct`
//! methods carry the per-phase [`obs`] spans (`kpm.rescale`,
//! `kpm.moments`, `kpm.reconstruct`) that `kpm <cmd> --trace` reports.
//!
//! # Quickstart
//!
//! ```
//! use kpm::prelude::*;
//! use kpm_linalg::DenseMatrix;
//!
//! // A small symmetric matrix...
//! let h = DenseMatrix::from_diag(&[-1.0, -0.25, 0.25, 1.0]);
//! // ...and a DoS estimate from 64 Chebyshev moments.
//! let params = KpmParams::new(64).with_random_vectors(8, 4);
//! let dos = DosEstimator::new(params).compute(&h).unwrap();
//! assert!((dos.integrate() - 1.0).abs() < 0.05); // DoS integrates to ~1
//! ```

pub mod bessel;
pub mod bounds;
pub mod chebyshev;
pub mod complex;
pub mod dct;
pub mod device;
pub mod dos;
pub mod error;
pub mod estimator;
pub mod exec;
pub mod fft;
pub mod funcapply;
pub mod green;
pub mod kernels;
pub mod kubo;
pub mod ldos;
pub mod moments;
pub mod propagate;
pub mod random;
pub mod rescale;
pub mod spectral;
pub mod thermal;
pub mod tune;
pub mod workload;

pub use bounds::{
    lanczos_contained, moments_for_resolution, BoundsProvider, OpKeyScope, DEFAULT_LANCZOS_STEPS,
};
pub use device::{Device, DeviceClock, DeviceOp, DeviceRun, DeviceSpec, HostDevice, SimDevice};
pub use dos::{Dos, DosEstimator};
pub use error::KpmError;
pub use estimator::Estimator;
pub use exec::{ExecPlan, ExecPolicy};
pub use green::{GreenEstimator, GreensFunction};
pub use kernels::KernelType;
pub use kubo::{Conductivity, DoubleMoments, KuboEstimator};
pub use ldos::LdosEstimator;
pub use moments::{shard_plan, KpmParams, MomentStats};
pub use random::Distribution;
pub use rescale::BoundsMethod;
pub use tune::{ensure_profile, ExecProfile, ProbeShape, ProfileStore};

/// Re-export of the observability layer so downstream crates (and
/// applications) can open spans and read counters without a separate
/// dependency on `kpm-obs`.
pub use kpm_obs as obs;

/// Convenient glob-import surface.
///
/// Downstream crates (`kpm-stream`, `kpm-serve`, the CLI) import this
/// instead of deep module paths; it covers the [`Estimator`] workloads, the
/// pipeline primitives they are built from, and the tracing handle.
pub mod prelude {
    pub use crate::bounds::{
        lanczos_contained, moments_for_resolution, BoundsProvider, OpKeyScope,
        DEFAULT_LANCZOS_STEPS,
    };
    pub use crate::device::{
        Device, DeviceCaps, DeviceClock, DeviceOp, DeviceRun, DeviceSpec, HostDevice, SimDevice,
    };
    pub use crate::dos::{Dos, DosEstimator};
    pub use crate::error::KpmError;
    pub use crate::estimator::Estimator;
    pub use crate::exec::{exec_policy, set_exec_policy, set_thread_budget, ExecPlan, ExecPolicy};
    pub use crate::green::{GreenEstimator, GreensFunction};
    pub use crate::kernels::KernelType;
    pub use crate::kubo::{Conductivity, DoubleMoments, KuboEstimator};
    pub use crate::ldos::LdosEstimator;
    pub use crate::moments::{
        per_realization_moments, realization_chunk_count, shard_plan, single_vector_moments,
        stochastic_moments, KpmParams, MomentStats,
    };
    pub use crate::random::{realization_stream, Distribution};
    pub use crate::rescale::{rescale, Boundable, BoundsMethod};
    pub use crate::tune::{
        ensure_profile, set_profile_dir, set_tuning_enabled, ExecProfile, ProbeShape,
    };
    pub use kpm_linalg::gershgorin::SpectralBounds;
    pub use kpm_linalg::{BlockOp, LinearOp, TiledOp};
    pub use kpm_obs::TraceHandle;
}
