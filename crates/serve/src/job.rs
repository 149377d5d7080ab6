//! The batch job model: a canonical, hashable description of one KPM run.
//!
//! A [`JobSpec`] carries everything needed to reproduce a density-of-states
//! computation: the Hamiltonian (lattice spec or dense random matrix), the
//! KPM parameters `N`, `R`, `S`, the damping kernel, the master seed, and
//! the execution backend. Two spec strings that parse to the same canonical
//! form are the same job — [`JobSpec::content_hash`] is computed over the
//! canonical rendering, never the raw input.
//!
//! The moment cache keys on [`JobSpec::cache_key`], which deliberately
//! *excludes* `N` and the kernel: raw Chebyshev moments do not depend on
//! either (damping is applied at reconstruction), so a cached run at
//! `N_cached >= N` serves any kernel at any order up to `N_cached`.

use kpm::device::DeviceSpec;
use kpm::{BoundsMethod, KernelType};
use kpm_lattice::spec::{parse_boundary, LatticeSpec, SpecError};
use kpm_lattice::{Boundary, OnSite};
use kpm_linalg::{DenseMatrix, MatrixFormat, SparseMatrix};
use std::fmt;

/// Where a job executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Host threads (`kpm::stochastic_moments`).
    Cpu,
    /// The simulated GPU stream engine (`kpm_stream::StreamKpmEngine`).
    Stream,
}

impl Backend {
    fn as_str(self) -> &'static str {
        match self {
            Backend::Cpu => "cpu",
            Backend::Stream => "stream",
        }
    }
}

/// Scheduling priority; higher lanes drain first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Served only when the other lanes are empty.
    Low,
}

impl Priority {
    /// Lane index (0 drains first).
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Test-only failure injection, settable from the job line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the compute step on every attempt.
    Panic,
    /// Panic while `attempt < until`, then succeed — exercises retry.
    Flaky {
        /// First attempt (0-based) that succeeds.
        until: u32,
    },
    /// Sleep this many milliseconds before computing — exercises timeouts.
    SleepMs(u64),
}

/// The Hamiltonian a job runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSpec {
    /// A tight-binding lattice (`chain: | square: | cubic: | honeycomb:`).
    Lattice(LatticeSpec),
    /// A dense random symmetric matrix (`dense:D` or `dense:D@SEED`, built
    /// by [`kpm_lattice::dense_random_symmetric`]); without `@SEED` the
    /// job's `dseed` value applies.
    Dense {
        /// Matrix dimension.
        dim: usize,
        /// Element seed.
        seed: u64,
    },
}

impl ModelSpec {
    /// Matrix dimension this model produces.
    pub fn dim(&self) -> usize {
        match self {
            ModelSpec::Lattice(l) => l.num_sites(),
            ModelSpec::Dense { dim, .. } => *dim,
        }
    }
}

/// Errors from job-line parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobParseError {
    /// A token had no `=`.
    BadToken(String),
    /// Unknown key.
    UnknownKey(String),
    /// A value failed to parse.
    BadValue {
        /// Offending key.
        key: String,
        /// Raw value.
        value: String,
    },
    /// Bad lattice spec.
    Spec(SpecError),
}

impl fmt::Display for JobParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobParseError::BadToken(t) => write!(f, "expected key=value, got '{t}'"),
            JobParseError::UnknownKey(k) => write!(f, "unknown job key '{k}'"),
            JobParseError::BadValue { key, value } => write!(f, "bad value '{value}' for '{key}'"),
            JobParseError::Spec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JobParseError {}

impl From<SpecError> for JobParseError {
    fn from(e: SpecError) -> Self {
        JobParseError::Spec(e)
    }
}

/// One batch job: a fully specified KPM density-of-states run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Hamiltonian description.
    pub model: ModelSpec,
    /// Boundary condition (lattice models only).
    pub boundary: Boundary,
    /// Hopping `t` (lattice) or element scale (dense).
    pub hopping: f64,
    /// Anderson disorder `(width, seed)`, if any.
    pub disorder: Option<(f64, u64)>,
    /// Truncation order `N`.
    pub num_moments: usize,
    /// Random vectors per set, `R`.
    pub num_random: usize,
    /// Realization sets, `S`.
    pub num_realizations: usize,
    /// Damping kernel for reconstruction.
    pub kernel: KernelType,
    /// Master seed of the stochastic trace.
    pub seed: u64,
    /// Execution backend.
    pub backend: Backend,
    /// Device the CPU backend submits to (`host` or a simulated device;
    /// both produce bitwise identical numbers, so only the reported clock
    /// differs). Ignored by the stream backend.
    pub device: DeviceSpec,
    /// Sparse storage format for lattice models (dense models ignore it);
    /// `auto` by default, which builds large nearest-neighbour lattices as
    /// a matrix-free stencil and everything else as CSR.
    pub format: MatrixFormat,
    /// Spectral-bounds provider for the rescale stage
    /// (`gershgorin | lanczos[:k] | manual:a,b`). Participates in the
    /// content hash — tighter bounds change the rescale map and hence the
    /// moment bits — but renders only when non-default, so legacy spec
    /// lines and their hashes are untouched.
    pub bounds: BoundsMethod,
    /// Queue lane.
    pub priority: Priority,
    /// Failure injection for tests.
    pub fault: Option<Fault>,
    /// Optional CSV output path for the reconstructed DoS.
    pub out: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            model: ModelSpec::Lattice(LatticeSpec::Cubic(10, 10, 10)),
            boundary: Boundary::Periodic,
            hopping: 1.0,
            disorder: None,
            num_moments: 256,
            num_random: 14,
            num_realizations: 2,
            kernel: KernelType::Jackson,
            seed: 42,
            backend: Backend::Cpu,
            device: DeviceSpec::Host,
            format: MatrixFormat::Auto,
            bounds: BoundsMethod::Gershgorin,
            priority: Priority::Normal,
            fault: None,
            out: None,
        }
    }
}

fn kernel_to_str(k: KernelType) -> String {
    match k {
        KernelType::Jackson => "jackson".into(),
        KernelType::Lorentz { lambda } => format!("lorentz:{lambda}"),
        KernelType::Jacobi { alpha, beta } => format!("jacobi:{alpha},{beta}"),
        KernelType::Fejer => "fejer".into(),
        KernelType::Dirichlet => "dirichlet".into(),
    }
}

fn kernel_from_str(s: &str) -> Option<KernelType> {
    match s.split_once(':') {
        None => match s {
            "jackson" => Some(KernelType::Jackson),
            "lorentz" => Some(KernelType::Lorentz { lambda: 4.0 }),
            "jacobi" => Some(KernelType::Jacobi { alpha: 0.0, beta: 0.0 }),
            "fejer" => Some(KernelType::Fejer),
            "dirichlet" => Some(KernelType::Dirichlet),
            _ => None,
        },
        Some(("lorentz", lambda)) => {
            lambda.parse().ok().map(|lambda| KernelType::Lorentz { lambda })
        }
        Some(("jacobi", args)) => {
            let (a, b) = args.split_once(',')?;
            let alpha: f64 = a.parse().ok()?;
            let beta: f64 = b.parse().ok()?;
            (alpha > -1.0 && beta > -1.0).then_some(KernelType::Jacobi { alpha, beta })
        }
        _ => None,
    }
}

fn model_to_str(m: &ModelSpec) -> String {
    match m {
        ModelSpec::Dense { dim, seed } => format!("dense:{dim}@{seed}"),
        ModelSpec::Lattice(l) => match *l {
            LatticeSpec::Chain(a) => format!("chain:{a}"),
            LatticeSpec::Square(a, b) => format!("square:{a},{b}"),
            LatticeSpec::Cubic(a, b, c) => format!("cubic:{a},{b},{c}"),
            LatticeSpec::Honeycomb(a, b) => format!("honeycomb:{a},{b}"),
        },
    }
}

impl JobSpec {
    /// Parses one job line of whitespace-separated `key=value` tokens.
    ///
    /// Keys: `lattice` (incl. `dense:D`), `bc`, `hopping`, `disorder`,
    /// `dseed`, `moments`, `random`, `sets`, `kernel`, `seed`, `backend`,
    /// `device` (`host | sim | sim:N`), `format`
    /// (`csr | ell | stencil | auto`), `bounds`
    /// (`gershgorin | lanczos[:k] | manual:a,b`), `priority`, `fault`
    /// (`panic | flaky:K | sleep:MS`), `out`. Unset keys take the CLI
    /// defaults.
    ///
    /// # Errors
    /// [`JobParseError`] naming the offending token.
    pub fn parse(line: &str) -> Result<Self, JobParseError> {
        let mut job = JobSpec::default();
        let mut disorder_width: Option<f64> = None;
        let mut dseed: u64 = 7;
        let mut dense_seed_explicit = false;
        let bad = |key: &str, value: &str| JobParseError::BadValue {
            key: key.to_string(),
            value: value.to_string(),
        };
        for token in line.split_whitespace() {
            let (key, value) =
                token.split_once('=').ok_or_else(|| JobParseError::BadToken(token.into()))?;
            match key {
                "lattice" | "model" => {
                    job.model = match value.strip_prefix("dense:") {
                        Some(rest) => {
                            let (dim_str, seed) = match rest.split_once('@') {
                                None => (rest, None),
                                Some((d, s)) => (d, Some(s.parse().map_err(|_| bad(key, value))?)),
                            };
                            let dim = dim_str
                                .parse()
                                .ok()
                                .filter(|&v| v > 0)
                                .ok_or_else(|| bad(key, value))?;
                            dense_seed_explicit = seed.is_some();
                            ModelSpec::Dense { dim, seed: seed.unwrap_or(0) }
                        }
                        None => ModelSpec::Lattice(LatticeSpec::parse(value)?),
                    };
                }
                "bc" => job.boundary = parse_boundary(value)?,
                "hopping" => job.hopping = value.parse().map_err(|_| bad(key, value))?,
                // Accepts the input form (`disorder=W`, seed via `dseed=`)
                // and the canonical form (`disorder=none` / `disorder=W@S`).
                "disorder" => match value.split_once('@') {
                    None if value == "none" => disorder_width = None,
                    None => disorder_width = Some(value.parse().map_err(|_| bad(key, value))?),
                    Some((w, s)) => {
                        disorder_width = Some(w.parse().map_err(|_| bad(key, value))?);
                        dseed = s.parse().map_err(|_| bad(key, value))?;
                    }
                },
                "dseed" => dseed = value.parse().map_err(|_| bad(key, value))?,
                "moments" => {
                    job.num_moments =
                        value.parse().ok().filter(|&v| v >= 2).ok_or_else(|| bad(key, value))?;
                }
                "random" => {
                    job.num_random =
                        value.parse().ok().filter(|&v| v > 0).ok_or_else(|| bad(key, value))?;
                }
                "sets" => {
                    job.num_realizations =
                        value.parse().ok().filter(|&v| v > 0).ok_or_else(|| bad(key, value))?;
                }
                "kernel" => job.kernel = kernel_from_str(value).ok_or_else(|| bad(key, value))?,
                "seed" => job.seed = value.parse().map_err(|_| bad(key, value))?,
                "backend" => {
                    job.backend = match value {
                        "cpu" => Backend::Cpu,
                        "stream" | "gpu" => Backend::Stream,
                        _ => return Err(bad(key, value)),
                    };
                }
                "device" => {
                    job.device = value.parse().map_err(|_| bad(key, value))?;
                }
                "format" => {
                    job.format = value.parse().map_err(|_| bad(key, value))?;
                }
                "bounds" => {
                    job.bounds = value.parse().map_err(|_| bad(key, value))?;
                }
                "priority" => {
                    job.priority = match value {
                        "high" => Priority::High,
                        "normal" => Priority::Normal,
                        "low" => Priority::Low,
                        _ => return Err(bad(key, value)),
                    };
                }
                "fault" => {
                    job.fault = Some(match value.split_once(':') {
                        None if value == "panic" => Fault::Panic,
                        Some(("flaky", k)) => {
                            Fault::Flaky { until: k.parse().map_err(|_| bad(key, value))? }
                        }
                        Some(("sleep", ms)) => {
                            Fault::SleepMs(ms.parse().map_err(|_| bad(key, value))?)
                        }
                        _ => return Err(bad(key, value)),
                    });
                }
                "out" => job.out = Some(value.to_string()),
                _ => return Err(JobParseError::UnknownKey(key.into())),
            }
        }
        if let Some(width) = disorder_width {
            job.disorder = Some((width, dseed));
        }
        if let ModelSpec::Dense { seed, .. } = &mut job.model {
            if !dense_seed_explicit {
                *seed = dseed;
            }
        }
        Ok(job)
    }

    /// Canonical single-line rendering: every field, fixed order, normalized
    /// float formatting. Equal specs render identically, so hashing this
    /// string is content addressing. `fault` and `out` are execution-side
    /// annotations, not physics, and are excluded.
    pub fn canonical(&self) -> String {
        let disorder = match self.disorder {
            None => "none".to_string(),
            Some((w, s)) => format!("{w}@{s}"),
        };
        let mut line = format!(
            "lattice={} bc={} hopping={} disorder={} moments={} random={} sets={} kernel={} \
             seed={} backend={} device={} format={} priority={}",
            model_to_str(&self.model),
            match self.boundary {
                Boundary::Open => "open",
                Boundary::Periodic => "periodic",
            },
            self.hopping,
            disorder,
            self.num_moments,
            self.num_random,
            self.num_realizations,
            kernel_to_str(self.kernel),
            self.seed,
            self.backend.as_str(),
            self.device,
            self.format.as_str(),
            self.priority.as_str(),
        );
        // The bounds provider joined the spec after the KPSH/KPNT/KPFJ
        // protocols shipped: rendering it only when non-default keeps every
        // legacy canonical line (and its content hash, cache key, journal
        // frame) byte-identical, and lets old decoders treat absence as
        // Gershgorin.
        if self.bounds != BoundsMethod::Gershgorin {
            line.push_str(&format!(" bounds={}", self.bounds));
        }
        line
    }

    /// FNV-1a-64 hash of the canonical rendering — the job's identity.
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// Cache key: the content hash with `moments`, `kernel`, `format`,
    /// `priority`, and `device` masked out. Raw Chebyshev moments
    /// `mu_0..mu_{N-1}` are a prefix of any longer run and are
    /// kernel-independent, so entries are shared across truncation orders
    /// and kernels; the storage format is excluded too because every format
    /// applies bitwise-identically, so a moment vector computed via ELL
    /// serves a CSR job verbatim. The device is excluded for the same
    /// reason: `SimDevice` runs the exact host functional pipeline and
    /// differs only in the clock it reports, so a sim-computed entry is a
    /// valid host answer. The backend *stays* in the key: the stream
    /// engine's padding/rescaling path is not guaranteed bitwise identical
    /// to the host path. The `bounds` provider stays too: a different
    /// rescale map produces different moment bits, so cached prefixes are
    /// only reusable within one bounds mode.
    pub fn cache_key(&self) -> u64 {
        let neutral = JobSpec {
            num_moments: 2,
            kernel: KernelType::Jackson,
            device: DeviceSpec::Host,
            format: MatrixFormat::Csr,
            priority: Priority::Normal,
            ..self.clone()
        };
        fnv1a(neutral.canonical().as_bytes())
    }

    /// FNV-1a-64 identity of the *operator* this job assembles — the hash
    /// family the shard workers and the fleet inventory advertise, and the
    /// key the bounds memo ([`kpm::bounds::resolve`]) caches under.
    ///
    /// Masks everything that does not change the built matrix: the KPM
    /// parameters, kernel, seed, bounds provider, device, backend, and
    /// priority. Keeps the model, boundary, hopping, disorder, and storage
    /// format. The format defaults to `auto`, where it was `csr` before
    /// the matrix-free default, so a default job's line renders
    /// `format=auto` and its op key and [`JobSpec::content_hash`] differ
    /// from those of older versions: a fleet mixing the two finds no warm
    /// operator across them, and a KPFJ journal an older coordinator wrote
    /// for a default-format job is recomputed instead of replayed. Jobs
    /// that name their format keep their hashes.
    pub fn op_key(&self) -> u64 {
        let neutral = JobSpec {
            num_moments: 2,
            num_random: 1,
            num_realizations: 1,
            kernel: KernelType::Jackson,
            seed: 0,
            backend: Backend::Cpu,
            device: DeviceSpec::Host,
            bounds: BoundsMethod::Gershgorin,
            priority: Priority::Normal,
            ..self.clone()
        };
        fnv1a(format!("shard-op/v1;{}", neutral.canonical()).as_bytes())
    }

    /// Builds the Hamiltonian. Dense models go through
    /// [`kpm_lattice::dense_random_symmetric`] seeded by the disorder seed
    /// (default 7) so equal specs yield equal matrices.
    pub fn build_matrix(&self) -> JobMatrix {
        let onsite = match self.disorder {
            None => OnSite::Uniform(0.0),
            Some((width, seed)) => OnSite::Disorder { width, seed },
        };
        match &self.model {
            ModelSpec::Lattice(l) => {
                JobMatrix::Sparse(l.build_format(self.hopping, onsite, self.boundary, self.format))
            }
            ModelSpec::Dense { dim, seed } => {
                JobMatrix::Dense(kpm_lattice::dense_random_symmetric(*dim, self.hopping, *seed))
            }
        }
    }

    /// KPM parameter set equivalent to the CLI's for the same options.
    pub fn kpm_params(&self) -> kpm::KpmParams {
        kpm::KpmParams::new(self.num_moments)
            .with_random_vectors(self.num_random, self.num_realizations)
            .with_seed(self.seed)
            .with_kernel(self.kernel)
            .with_bounds(self.bounds)
    }
}

/// A built job Hamiltonian in its natural storage.
pub enum JobMatrix {
    /// Sparse storage in the spec's selected format (lattice models).
    Sparse(SparseMatrix),
    /// Dense storage (`dense:D` models).
    Dense(DenseMatrix),
}

impl JobMatrix {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        match self {
            JobMatrix::Sparse(m) => m.nrows(),
            JobMatrix::Dense(m) => m.nrows(),
        }
    }
}

/// FNV-1a 64-bit hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_through_canonical() {
        let line = "lattice=chain:64 bc=open hopping=2.5 disorder=1.5 dseed=9 moments=128 \
                    random=4 sets=3 kernel=lorentz:3.5 seed=11 backend=stream priority=high";
        let job = JobSpec::parse(line).unwrap();
        let again = JobSpec::parse(&job.canonical()).unwrap();
        assert_eq!(job, again);
        assert_eq!(job.content_hash(), again.content_hash());
    }

    #[test]
    fn defaults_match_cli_defaults() {
        let job = JobSpec::parse("").unwrap();
        assert_eq!(job.model, ModelSpec::Lattice(LatticeSpec::Cubic(10, 10, 10)));
        assert_eq!(job.num_moments, 256);
        assert_eq!((job.num_random, job.num_realizations), (14, 2));
        assert_eq!(job.seed, 42);
        assert_eq!(job.backend, Backend::Cpu);
    }

    #[test]
    fn content_hash_is_token_order_independent() {
        let a = JobSpec::parse("moments=64 lattice=chain:32").unwrap();
        let b = JobSpec::parse("lattice=chain:32 moments=64").unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn content_hash_distinguishes_physics() {
        let base = JobSpec::parse("lattice=chain:32").unwrap();
        for other in [
            "lattice=chain:33",
            "lattice=chain:32 seed=43",
            "lattice=chain:32 hopping=2",
            "lattice=chain:32 backend=stream",
            "lattice=chain:32 disorder=0.5",
        ] {
            let o = JobSpec::parse(other).unwrap();
            assert_ne!(base.content_hash(), o.content_hash(), "{other}");
        }
    }

    #[test]
    fn cache_key_ignores_moments_and_kernel_but_not_backend_or_seed() {
        let base = JobSpec::parse("lattice=chain:32 moments=64").unwrap();
        let higher_n = JobSpec::parse("lattice=chain:32 moments=256").unwrap();
        let other_kernel = JobSpec::parse("lattice=chain:32 moments=64 kernel=fejer").unwrap();
        let low_prio = JobSpec::parse("lattice=chain:32 moments=64 priority=low").unwrap();
        assert_eq!(base.cache_key(), higher_n.cache_key());
        assert_eq!(base.cache_key(), other_kernel.cache_key());
        assert_eq!(base.cache_key(), low_prio.cache_key());
        let other_seed = JobSpec::parse("lattice=chain:32 moments=64 seed=1").unwrap();
        let stream = JobSpec::parse("lattice=chain:32 moments=64 backend=stream").unwrap();
        assert_ne!(base.cache_key(), other_seed.cache_key());
        assert_ne!(base.cache_key(), stream.cache_key());
    }

    #[test]
    fn format_parses_and_shares_cache_but_not_content_hash() {
        let base = JobSpec::parse("lattice=cubic:4,4,4").unwrap();
        assert_eq!(base.format, MatrixFormat::Auto);
        for (token, format) in [
            ("format=csr", MatrixFormat::Csr),
            ("format=ell", MatrixFormat::Ell),
            ("format=stencil", MatrixFormat::Stencil),
        ] {
            let job = JobSpec::parse(&format!("lattice=cubic:4,4,4 {token}")).unwrap();
            assert_eq!(job.format, format);
            // Distinct canonical identity (the spec says what to run)...
            assert_ne!(job.content_hash(), base.content_hash(), "{token}");
            // ...but the same cached moments serve every format, since the
            // CPU pipeline is bitwise format-invariant.
            assert_eq!(job.cache_key(), base.cache_key(), "{token}");
            // Round-trips through the canonical line.
            let again = JobSpec::parse(&job.canonical()).unwrap();
            assert_eq!(again.format, format);
        }
        assert!(matches!(JobSpec::parse("format=coo"), Err(JobParseError::BadValue { .. })));
    }

    #[test]
    fn device_parses_and_shares_cache_but_not_content_hash() {
        let base = JobSpec::parse("lattice=chain:32 moments=64").unwrap();
        assert_eq!(base.device, DeviceSpec::Host);
        for (token, device) in [
            ("device=host", DeviceSpec::Host),
            ("device=sim", DeviceSpec::Sim { devices: 1 }),
            ("device=sim:4", DeviceSpec::Sim { devices: 4 }),
        ] {
            let job = JobSpec::parse(&format!("lattice=chain:32 moments=64 {token}")).unwrap();
            assert_eq!(job.device, device);
            // Round-trips through the canonical line.
            let again = JobSpec::parse(&job.canonical()).unwrap();
            assert_eq!(again.device, device);
            // The device says *where* to run, not *what*: same cached
            // moments serve either backend (bitwise identical pipelines)...
            assert_eq!(job.cache_key(), base.cache_key(), "{token}");
            // ...but it is part of the job's canonical identity.
            if device != DeviceSpec::Host {
                assert_ne!(job.content_hash(), base.content_hash(), "{token}");
            }
        }
        assert!(matches!(JobSpec::parse("device=gpu"), Err(JobParseError::BadValue { .. })));
        assert!(matches!(JobSpec::parse("device=sim:0"), Err(JobParseError::BadValue { .. })));
    }

    #[test]
    fn bounds_parse_and_participate_in_identity() {
        let base = JobSpec::parse("lattice=chain:32 moments=64").unwrap();
        assert_eq!(base.bounds, BoundsMethod::Gershgorin);
        // Default bounds render nothing: legacy canonical lines unchanged.
        assert!(!base.canonical().contains("bounds="));
        for (token, bounds) in [
            ("bounds=gershgorin", BoundsMethod::Gershgorin),
            ("bounds=lanczos", BoundsMethod::Lanczos { steps: 64 }),
            ("bounds=lanczos:48", BoundsMethod::Lanczos { steps: 48 }),
            ("bounds=manual:-6,6", BoundsMethod::Explicit { lower: -6.0, upper: 6.0 }),
        ] {
            let job = JobSpec::parse(&format!("lattice=chain:32 moments=64 {token}")).unwrap();
            assert_eq!(job.bounds, bounds, "{token}");
            let again = JobSpec::parse(&job.canonical()).unwrap();
            assert_eq!(again.bounds, bounds, "{token}");
            // Non-default bounds are a different job identity (different
            // rescale map, different moment bits)...
            if bounds != BoundsMethod::Gershgorin {
                assert_ne!(job.content_hash(), base.content_hash(), "{token}");
                assert_ne!(job.cache_key(), base.cache_key(), "{token}");
            } else {
                assert_eq!(job.content_hash(), base.content_hash());
            }
            // ...but never a different operator.
            assert_eq!(job.op_key(), base.op_key(), "{token}");
        }
        // Within one bounds mode the key stays moment/kernel-masked.
        let a = JobSpec::parse("lattice=chain:32 moments=64 bounds=lanczos").unwrap();
        let b = JobSpec::parse("lattice=chain:32 moments=256 kernel=fejer bounds=lanczos").unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert!(matches!(JobSpec::parse("bounds=tight"), Err(JobParseError::BadValue { .. })));
        assert!(matches!(JobSpec::parse("bounds=manual:9,1"), Err(JobParseError::BadValue { .. })));
    }

    #[test]
    fn op_key_masks_run_parameters_but_sees_operator_fields() {
        let base = JobSpec::parse("lattice=cubic:4,4,4 disorder=2@5").unwrap();
        for same in [
            "lattice=cubic:4,4,4 disorder=2@5 moments=512 random=3 sets=7",
            "lattice=cubic:4,4,4 disorder=2@5 kernel=lorentz:3 seed=99 priority=low",
            "lattice=cubic:4,4,4 disorder=2@5 backend=stream device=sim:2 bounds=lanczos",
        ] {
            assert_eq!(base.op_key(), JobSpec::parse(same).unwrap().op_key(), "{same}");
        }
        for differs in [
            "lattice=cubic:4,4,5 disorder=2@5",
            "lattice=cubic:4,4,4 disorder=2@6",
            "lattice=cubic:4,4,4 disorder=2@5 hopping=2",
            "lattice=cubic:4,4,4 disorder=2@5 format=ell",
        ] {
            assert_ne!(base.op_key(), JobSpec::parse(differs).unwrap().op_key(), "{differs}");
        }
    }

    #[test]
    fn jacobi_kernel_parses_and_round_trips() {
        let job = JobSpec::parse("lattice=chain:32 kernel=jacobi:0.5,1.5").unwrap();
        assert_eq!(job.kernel, KernelType::Jacobi { alpha: 0.5, beta: 1.5 });
        let again = JobSpec::parse(&job.canonical()).unwrap();
        assert_eq!(again.kernel, job.kernel);
        // Bare `jacobi` is the Legendre member of the family.
        let legendre = JobSpec::parse("kernel=jacobi").unwrap();
        assert_eq!(legendre.kernel, KernelType::Jacobi { alpha: 0.0, beta: 0.0 });
        assert!(matches!(
            JobSpec::parse("kernel=jacobi:-2,0"),
            Err(JobParseError::BadValue { .. })
        ));
    }

    #[test]
    fn format_selects_matrix_storage() {
        let job = JobSpec::parse("lattice=cubic:3,3,3 format=stencil").unwrap();
        match job.build_matrix() {
            JobMatrix::Sparse(m) => assert_eq!(m.format_name(), "stencil"),
            JobMatrix::Dense(_) => panic!("expected sparse"),
        }
    }

    #[test]
    fn fault_and_out_do_not_change_identity() {
        let plain = JobSpec::parse("lattice=chain:16").unwrap();
        let noisy = JobSpec::parse("lattice=chain:16 fault=panic out=x.csv").unwrap();
        assert_eq!(plain.content_hash(), noisy.content_hash());
        assert_eq!(noisy.fault, Some(Fault::Panic));
        assert_eq!(noisy.out.as_deref(), Some("x.csv"));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(matches!(JobSpec::parse("oops"), Err(JobParseError::BadToken(_))));
        assert!(matches!(JobSpec::parse("color=red"), Err(JobParseError::UnknownKey(_))));
        assert!(matches!(JobSpec::parse("moments=1"), Err(JobParseError::BadValue { .. })));
        assert!(matches!(JobSpec::parse("moments=lots"), Err(JobParseError::BadValue { .. })));
        assert!(matches!(JobSpec::parse("lattice=kagome:3"), Err(JobParseError::Spec(_))));
        assert!(matches!(JobSpec::parse("fault=explode"), Err(JobParseError::BadValue { .. })));
        assert!(matches!(JobSpec::parse("lattice=dense:0"), Err(JobParseError::BadValue { .. })));
    }

    #[test]
    fn fault_variants_parse() {
        assert_eq!(JobSpec::parse("fault=flaky:2").unwrap().fault, Some(Fault::Flaky { until: 2 }));
        assert_eq!(JobSpec::parse("fault=sleep:50").unwrap().fault, Some(Fault::SleepMs(50)));
    }

    #[test]
    fn dense_model_builds_square_symmetric_matrix() {
        let job = JobSpec::parse("lattice=dense:24 dseed=3").unwrap();
        assert_eq!(job.model, ModelSpec::Dense { dim: 24, seed: 3 });
        match job.build_matrix() {
            JobMatrix::Dense(m) => {
                assert_eq!(m.nrows(), 24);
                assert_eq!(m.get(2, 5), m.get(5, 2));
            }
            JobMatrix::Sparse(_) => panic!("expected dense"),
        }
        assert_eq!(job.model.dim(), 24);
        // The canonical form carries the element seed, so identity survives
        // the dseed token being folded in.
        let round = JobSpec::parse(&job.canonical()).unwrap();
        assert_eq!(round.model, job.model);
        assert_eq!(round.content_hash(), job.content_hash());
        // Different element seeds are different jobs.
        let other = JobSpec::parse("lattice=dense:24 dseed=4").unwrap();
        assert_ne!(other.content_hash(), job.content_hash());
    }
}
