//! The distributed job model: what a coordinator splits and a worker runs.
//!
//! A [`ShardJob`] wraps a [`JobSpec`] with the estimator kind (DoS, LDoS at
//! a site, or Kubo double moments) and renders to one canonical line —
//! `"<kind> <spec.canonical()>"` — which is what travels in a
//! [`crate::wire::ShardRequest`]. Workers parse the line, recompute the
//! identical Hamiltonian/parameters, and return the **per-realization**
//! moment vectors of their index range untouched. The coordinator
//! concatenates shard rows in canonical `idx = s * R + r` order and replays
//! the exact single-process reduction ([`MomentStats::merge_realizations`]
//! / [`DoubleMoments::merge_realizations`]), so the merged moments are
//! bitwise identical to an unsharded run — partial *sums* are never
//! combined, because floating-point addition is not associative.

use crate::error::ShardError;
use kpm::device::DeviceSpec;
use kpm::kubo::{double_moments_partial, velocity_operator, DoubleMoments};
use kpm::moments::{per_realization_moments, realization_chunks, single_vector_moments};
use kpm::prelude::*;
use kpm::KernelType;
use kpm_lattice::spec::LatticeSpec;
use kpm_lattice::Boundary;
use kpm_linalg::MatrixFormat;
use kpm_serve::job::JobMatrix;
use kpm_serve::{Backend, JobSpec, ModelSpec, Priority};
use std::ops::Range;

/// One distributed computation: the estimator kind plus the job spec.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardJob {
    /// Stochastic density-of-states moments — `S * R` shardable units.
    Dos(JobSpec),
    /// Deterministic LDoS moments at one site — a single unit.
    Ldos {
        /// Underlying job spec (stochastic fields unused).
        spec: JobSpec,
        /// Site index of the local density.
        site: usize,
    },
    /// Kubo double moments on a chain — `S * R` shardable units.
    Kubo(JobSpec),
}

/// Merged moments in the shape the estimator kind produces.
#[derive(Debug, Clone)]
pub enum MergedMoments {
    /// DoS / LDoS moments.
    Stats(MomentStats),
    /// Kubo `N x N` double moments.
    Double(DoubleMoments),
}

impl MergedMoments {
    /// The DoS/LDoS statistics, if that is what was merged.
    pub fn into_stats(self) -> Option<MomentStats> {
        match self {
            MergedMoments::Stats(s) => Some(s),
            MergedMoments::Double(_) => None,
        }
    }

    /// The Kubo double moments, if that is what was merged.
    pub fn into_double(self) -> Option<DoubleMoments> {
        match self {
            MergedMoments::Double(d) => Some(d),
            MergedMoments::Stats(_) => None,
        }
    }
}

impl ShardJob {
    /// Parses a canonical job line: `"<kind> <key=value ...>"` where kind
    /// is `dos`, `ldos:<site>`, or `kubo`.
    ///
    /// # Errors
    /// [`ShardError::Job`] on an unknown kind, a bad spec line, or a spec
    /// that fails [`ShardJob::validate`].
    pub fn parse(line: &str) -> Result<Self, ShardError> {
        let line = line.trim();
        let (kind, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let spec = JobSpec::parse(rest).map_err(|e| ShardError::Job(e.to_string()))?;
        let job = if kind == "dos" {
            ShardJob::Dos(spec)
        } else if kind == "kubo" {
            ShardJob::Kubo(spec)
        } else if let Some(site) = kind.strip_prefix("ldos:") {
            let site =
                site.parse().map_err(|_| ShardError::Job(format!("bad ldos site '{site}'")))?;
            ShardJob::Ldos { spec, site }
        } else {
            return Err(ShardError::Job(format!("unknown shard job kind '{kind}'")));
        };
        job.validate()?;
        Ok(job)
    }

    /// Canonical line rendering; [`ShardJob::parse`] inverts it.
    pub fn canonical(&self) -> String {
        match self {
            ShardJob::Dos(spec) => format!("dos {}", spec.canonical()),
            ShardJob::Ldos { spec, site } => format!("ldos:{site} {}", spec.canonical()),
            ShardJob::Kubo(spec) => format!("kubo {}", spec.canonical()),
        }
    }

    /// The wrapped job spec.
    pub fn spec(&self) -> &JobSpec {
        match self {
            ShardJob::Dos(spec) | ShardJob::Kubo(spec) | ShardJob::Ldos { spec, .. } => spec,
        }
    }

    /// Checks the spec is distributable.
    ///
    /// # Errors
    /// [`ShardError::Job`] for non-CPU backends (the stream engine is a
    /// whole-run model, not shardable per realization), fault injection
    /// (worker processes cannot honor serve-side fault semantics), an LDoS
    /// site out of range, or a Kubo model that is not a chain (the only
    /// lattice with a defined 1D velocity operator here).
    pub fn validate(&self) -> Result<(), ShardError> {
        let spec = self.spec();
        if spec.backend != Backend::Cpu {
            return Err(ShardError::Job("only backend=cpu jobs are shardable".into()));
        }
        if spec.fault.is_some() {
            return Err(ShardError::Job("fault injection is not shardable".into()));
        }
        match self {
            ShardJob::Ldos { spec, site } if *site >= spec.model.dim() => Err(ShardError::Job(
                format!("ldos site {site} out of range for dimension {}", spec.model.dim()),
            )),
            ShardJob::Kubo(spec)
                if !matches!(spec.model, ModelSpec::Lattice(LatticeSpec::Chain(_))) =>
            {
                Err(ShardError::Job("kubo sharding requires a chain:L lattice".into()))
            }
            _ => Ok(()),
        }
    }

    /// Number of independently computable realization units.
    pub fn total_units(&self) -> usize {
        match self {
            ShardJob::Dos(spec) | ShardJob::Kubo(spec) => spec.kpm_params().total_realizations(),
            ShardJob::Ldos { .. } => 1,
        }
    }

    /// Length every per-realization row must have.
    pub fn moment_len(&self) -> usize {
        match self {
            ShardJob::Dos(spec) | ShardJob::Ldos { spec, .. } => spec.num_moments,
            ShardJob::Kubo(spec) => spec.num_moments * spec.num_moments,
        }
    }

    /// Content hash of the assembled-operator identity: the canonical spec
    /// with every non-matrix field neutralized (the Hamiltonian depends
    /// only on model, boundary, hopping, disorder, and storage format —
    /// never on `N`, `R`, `S`, seed, kernel, or bounds provider). Delegates
    /// to [`JobSpec::op_key`] — the serve workers, the fleet inventory, and
    /// the bounds memo all key on the same FNV-1a-64 family, so two jobs
    /// share an `op_key` exactly when a worker can reuse one assembled
    /// matrix (and its memoized spectral bounds) for both.
    pub fn op_key(&self) -> u64 {
        self.spec().op_key()
    }

    /// Content hash of the per-realization row family: the estimator kind
    /// plus every field a row's *bits* depend on (matrix identity, seed,
    /// `R` — the `idx = s * R + r` mapping). Masked out are `N` and the
    /// kernel (raw moments are prefix-extendable and kernel-free, exactly
    /// the serve cache-key argument), `S` (it only bounds which indices
    /// exist), and format/device/priority (bitwise-invariant, pinned
    /// elsewhere). The `bounds` provider *stays in*: a different rescale
    /// map yields different row bits, so warm rows transfer only within one
    /// bounds mode. Two jobs share a `row_key` exactly when a cached row
    /// for realization `idx` of one bitwise serves the other.
    pub fn row_key(&self) -> u64 {
        let kind = match self {
            ShardJob::Dos(_) => "dos".to_string(),
            ShardJob::Ldos { site, .. } => format!("ldos:{site}"),
            ShardJob::Kubo(_) => "kubo".to_string(),
        };
        let neutral = JobSpec {
            num_moments: 2,
            num_realizations: 1,
            kernel: KernelType::Jackson,
            device: DeviceSpec::Host,
            format: MatrixFormat::Csr,
            priority: Priority::Normal,
            ..self.spec().clone()
        };
        kpm::tune::fnv1a(format!("shard-rows/v1;{kind};{}", neutral.canonical()).as_bytes())
    }

    /// Whether a cached row at `n' > n` moments bitwise serves this job
    /// truncated to `n`. True for DoS/LDoS rows (moment `i` never depends
    /// on `N`); false for Kubo rows, whose `N x N` row-major flattening
    /// reshuffles under a different `N` — those reuse at exact `N` only.
    pub fn prefix_extendable(&self) -> bool {
        !matches!(self, ShardJob::Kubo(_))
    }

    /// The `(a_plus, a_minus)` rescaling the moments were computed under —
    /// deterministic from the spec, so coordinator and workers agree
    /// without shipping floats.
    ///
    /// # Errors
    /// [`ShardError::Job`] if bounds or rescaling fail.
    pub fn bounds(&self) -> Result<(f64, f64), ShardError> {
        let spec = self.spec();
        let params = spec.kpm_params();
        let _bounds_scope = kpm::OpKeyScope::enter(self.op_key());
        match self {
            ShardJob::Kubo(_) => {
                let h = kubo_csr(spec)?;
                rescaled_bounds(&h, &params)
            }
            _ => match &spec.build_matrix() {
                JobMatrix::Sparse(h) => rescaled_bounds(h, &params),
                JobMatrix::Dense(h) => rescaled_bounds(h, &params),
            },
        }
    }

    /// The worker half: per-realization moment rows for `range`, one row
    /// per unit, each exactly what the single-process pipeline feeds its
    /// reduction.
    ///
    /// # Errors
    /// [`ShardError::Job`] on an invalid range or any KPM failure.
    pub fn compute_partial(&self, range: Range<usize>) -> Result<Vec<Vec<f64>>, ShardError> {
        self.compute_partial_with(range, &self.spec().build_matrix())
    }

    /// [`ShardJob::compute_partial`] on a pre-assembled Hamiltonian — the
    /// seam the worker inventory uses to skip matrix assembly when a warm
    /// operator (same [`ShardJob::op_key`]) is already resident. `matrix`
    /// must be the spec's own build; the result is bitwise identical either
    /// way because assembly is deterministic from the spec.
    ///
    /// # Errors
    /// [`ShardError::Job`] on an invalid range or any KPM failure.
    pub fn compute_partial_with(
        &self,
        range: Range<usize>,
        matrix: &JobMatrix,
    ) -> Result<Vec<Vec<f64>>, ShardError> {
        if range.is_empty() || range.end > self.total_units() {
            return Err(ShardError::Job(format!(
                "range {range:?} invalid for {} units",
                self.total_units()
            )));
        }
        let spec = self.spec();
        let params = spec.kpm_params();
        params.validate().map_err(job_err)?;
        // Jobs sharing a warm operator also share its memoized spectral
        // bounds — repeat shards probe the cache instead of recomputing.
        let _bounds_scope = kpm::OpKeyScope::enter(self.op_key());
        match self {
            ShardJob::Dos(_) => match matrix {
                JobMatrix::Sparse(h) => dos_partial(h, &params, range),
                JobMatrix::Dense(h) => dos_partial(h, &params, range),
            },
            ShardJob::Ldos { site, .. } => match matrix {
                JobMatrix::Sparse(h) => ldos_partial(h, &params, *site),
                JobMatrix::Dense(h) => ldos_partial(h, &params, *site),
            },
            ShardJob::Kubo(_) => {
                let h = match matrix {
                    JobMatrix::Sparse(h) => h.to_csr(),
                    JobMatrix::Dense(_) => {
                        return Err(ShardError::Job("kubo sharding requires a lattice".into()))
                    }
                };
                let ModelSpec::Lattice(LatticeSpec::Chain(l)) = spec.model else {
                    return Err(ShardError::Job("kubo sharding requires a chain".into()));
                };
                let positions: Vec<f64> = (0..l).map(|i| i as f64).collect();
                let period =
                    if spec.boundary == Boundary::Periodic { Some(l as f64) } else { None };
                let w = velocity_operator(&h, &positions, period);
                let bounds = kpm::bounds::resolve(&h, params.bounds).map_err(job_err)?;
                let rescaled = rescale(&h, bounds, params.padding).map_err(job_err)?;
                double_moments_partial(&rescaled, &w, &params, range).map_err(job_err)
            }
        }
    }

    /// The coordinator half: replays the canonical reduction over all rows
    /// (concatenated in `idx = s * R + r` order).
    ///
    /// # Errors
    /// [`ShardError::Protocol`] when the row count or a row length does not
    /// match the job — a worker returned malformed data.
    pub fn merge(&self, rows: &[Vec<f64>]) -> Result<MergedMoments, ShardError> {
        if rows.len() != self.total_units() {
            return Err(ShardError::Protocol(format!(
                "merged {} rows, job has {} units",
                rows.len(),
                self.total_units()
            )));
        }
        let want = self.moment_len();
        if let Some(bad) = rows.iter().find(|r| r.len() != want) {
            return Err(ShardError::Protocol(format!(
                "row length {} does not match moment length {want}",
                bad.len()
            )));
        }
        Ok(match self {
            ShardJob::Dos(_) => MergedMoments::Stats(MomentStats::merge_realizations(rows)),
            ShardJob::Ldos { .. } => MergedMoments::Stats(MomentStats {
                std_err: vec![0.0; want],
                samples: 1,
                mean: rows[0].clone(),
            }),
            ShardJob::Kubo(spec) => {
                MergedMoments::Double(DoubleMoments::merge_realizations(rows, spec.num_moments))
            }
        })
    }
}

fn job_err(e: KpmError) -> ShardError {
    ShardError::Job(e.to_string())
}

/// The Kubo Hamiltonian as concrete CSR (velocity construction needs it).
fn kubo_csr(spec: &JobSpec) -> Result<kpm_linalg::CsrMatrix, ShardError> {
    match &spec.build_matrix() {
        JobMatrix::Sparse(h) => Ok(h.to_csr()),
        JobMatrix::Dense(_) => Err(ShardError::Job("kubo sharding requires a lattice".into())),
    }
}

fn rescaled_bounds<A: Boundable>(h: &A, params: &KpmParams) -> Result<(f64, f64), ShardError> {
    let bounds = kpm::bounds::resolve(h, params.bounds).map_err(job_err)?;
    let rescaled = rescale(h, bounds, params.padding).map_err(job_err)?;
    Ok((rescaled.a_plus(), rescaled.a_minus()))
}

/// Mirrors the single-process DoS pipeline up to (but excluding) the
/// reduction: bounds, padded rescale, per-realization normalized moments.
fn dos_partial<A: Boundable + TiledOp + Sync>(
    h: &A,
    params: &KpmParams,
    range: Range<usize>,
) -> Result<Vec<Vec<f64>>, ShardError> {
    let bounds = kpm::bounds::resolve(h, params.bounds).map_err(job_err)?;
    let rescaled = rescale(h, bounds, params.padding).map_err(job_err)?;
    // Resolve (or probe) the calibrated profile for this worker's slice of
    // the ensemble — every shard of the same job shares the operator shape,
    // and because calibration only tunes within the value family `Auto`
    // pins on `dim`, the merged rows stay bitwise identical to the
    // single-process reduction regardless of which shard probed first.
    let chunks = realization_chunks(params.num_random, range.clone()).len();
    kpm::tune::ensure_profile(&rescaled, chunks);
    Ok(per_realization_moments(&rescaled, params, range))
}

/// The LDoS "shard": the one deterministic row `<e_site|T_n|e_site>`.
fn ldos_partial<A: Boundable + TiledOp + Sync>(
    h: &A,
    params: &KpmParams,
    site: usize,
) -> Result<Vec<Vec<f64>>, ShardError> {
    let bounds = kpm::bounds::resolve(h, params.bounds).map_err(job_err)?;
    let rescaled = rescale(h, bounds, params.padding).map_err(job_err)?;
    let mut e_i = vec![0.0; rescaled.dim()];
    e_i[site] = 1.0;
    Ok(vec![single_vector_moments(&rescaled, &e_i, params.num_moments)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_serve::worker::compute_raw_moments;

    fn dos_job(line: &str) -> ShardJob {
        ShardJob::Dos(JobSpec::parse(line).unwrap())
    }

    #[test]
    fn canonical_line_roundtrips() {
        for line in [
            "dos lattice=chain:32 moments=24 random=3 sets=2 seed=5",
            "ldos:7 lattice=chain:16 moments=16",
            "kubo lattice=chain:24 moments=8 random=2 sets=1",
        ] {
            let job = ShardJob::parse(line).unwrap();
            let again = ShardJob::parse(&job.canonical()).unwrap();
            assert_eq!(job, again);
            assert_eq!(job.canonical(), again.canonical());
        }
    }

    #[test]
    fn validation_rejects_unshardable_specs() {
        let stream = "dos lattice=chain:8 moments=8 backend=stream";
        assert!(matches!(ShardJob::parse(stream), Err(ShardError::Job(_))));
        let fault = "dos lattice=chain:8 moments=8 fault=panic";
        assert!(matches!(ShardJob::parse(fault), Err(ShardError::Job(_))));
        let site = "ldos:99 lattice=chain:8 moments=8";
        assert!(matches!(ShardJob::parse(site), Err(ShardError::Job(_))));
        let kubo2d = "kubo lattice=square:4,4 moments=8";
        assert!(matches!(ShardJob::parse(kubo2d), Err(ShardError::Job(_))));
        let kind = "histogram lattice=chain:8";
        assert!(matches!(ShardJob::parse(kind), Err(ShardError::Job(_))));
    }

    #[test]
    fn sim_device_specs_stay_shardable_and_bitwise_identical() {
        // `device=` selects a clock, not a pipeline: the sharded partials
        // are computed by the same host functional path either way, so a
        // sim-device job shards fine and its rows match the host job's.
        let host = ShardJob::parse("dos lattice=chain:16 moments=12 random=2 sets=2").unwrap();
        let sim = ShardJob::parse("dos lattice=chain:16 moments=12 random=2 sets=2 device=sim:4")
            .unwrap();
        assert_eq!(sim.total_units(), host.total_units());
        let a = host.compute_partial(0..host.total_units()).unwrap();
        let b = sim.compute_partial(0..sim.total_units()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unit_counts_and_row_lengths() {
        let dos = dos_job("lattice=chain:16 moments=12 random=3 sets=2");
        assert_eq!(dos.total_units(), 6);
        assert_eq!(dos.moment_len(), 12);
        let ldos = ShardJob::parse("ldos:3 lattice=chain:16 moments=12").unwrap();
        assert_eq!(ldos.total_units(), 1);
        let kubo = ShardJob::parse("kubo lattice=chain:16 moments=6 random=2 sets=2").unwrap();
        assert_eq!(kubo.moment_len(), 36);
        assert_eq!(kubo.total_units(), 4);
    }

    #[test]
    fn sharded_dos_compute_merge_matches_serve_pipeline_bitwise() {
        let line = "lattice=chain:48 moments=20 random=3 sets=2 seed=9";
        let job = dos_job(line);
        let total = job.total_units();
        let mut rows = Vec::new();
        for range in kpm::shard_plan(total, 4) {
            rows.extend(job.compute_partial(range).unwrap());
        }
        let merged = job.merge(&rows).unwrap().into_stats().unwrap();
        let (stats, a_plus, a_minus) =
            compute_raw_moments(&JobSpec::parse(line).unwrap(), 0).unwrap();
        assert_eq!(merged.mean, stats.mean);
        assert_eq!(merged.std_err, stats.std_err);
        assert_eq!(job.bounds().unwrap(), (a_plus, a_minus));
    }

    #[test]
    fn ldos_partial_matches_estimator_bitwise() {
        let job = ShardJob::parse("ldos:5 lattice=chain:32 moments=16").unwrap();
        let rows = job.compute_partial(0..1).unwrap();
        let merged = job.merge(&rows).unwrap().into_stats().unwrap();
        let spec = job.spec();
        let JobMatrix::Sparse(h) = spec.build_matrix() else { panic!("sparse expected") };
        let direct = LdosEstimator::new(spec.kpm_params(), 5).moments(&{
            let bounds = h.spectral_bounds(spec.kpm_params().bounds).unwrap();
            rescale(&h, bounds, spec.kpm_params().padding).unwrap()
        });
        assert_eq!(merged.mean, direct.unwrap().mean);
    }

    #[test]
    fn kubo_partial_matches_double_moments_bitwise() {
        let job = ShardJob::parse("kubo lattice=chain:24 moments=6 random=2 sets=2").unwrap();
        let mut rows = Vec::new();
        for range in kpm::shard_plan(job.total_units(), 3) {
            rows.extend(job.compute_partial(range).unwrap());
        }
        let merged = job.merge(&rows).unwrap().into_double().unwrap();

        let spec = job.spec();
        let params = spec.kpm_params();
        let h = super::kubo_csr(spec).unwrap();
        let ModelSpec::Lattice(LatticeSpec::Chain(l)) = spec.model else { panic!() };
        let positions: Vec<f64> = (0..l).map(|i| i as f64).collect();
        let w = velocity_operator(&h, &positions, Some(l as f64));
        let bounds = h.spectral_bounds(params.bounds).unwrap();
        let rescaled = rescale(&h, bounds, params.padding).unwrap();
        let direct = kpm::kubo::double_moments(&rescaled, &w, &params).unwrap();
        assert_eq!(merged.mu, direct.mu);
    }

    #[test]
    fn merge_rejects_malformed_rows() {
        let job = dos_job("lattice=chain:8 moments=8 random=2 sets=1");
        assert!(matches!(job.merge(&[vec![0.0; 8]]), Err(ShardError::Protocol(_))));
        assert!(matches!(job.merge(&[vec![0.0; 8], vec![0.0; 7]]), Err(ShardError::Protocol(_))));
    }

    #[test]
    fn compute_rejects_bad_ranges() {
        let job = dos_job("lattice=chain:8 moments=8 random=2 sets=1");
        assert!(job.compute_partial(0..0).is_err());
        assert!(job.compute_partial(1..3).is_err());
    }

    #[test]
    fn op_key_sees_matrix_fields_only() {
        let base = dos_job("lattice=chain:32 moments=24 random=3 sets=2 seed=5");
        // The assembled Hamiltonian is independent of the run parameters...
        for same in [
            "lattice=chain:32 moments=64 random=3 sets=2 seed=5",
            "lattice=chain:32 moments=24 random=7 sets=4 seed=99",
            "lattice=chain:32 moments=24 random=3 sets=2 seed=5 kernel=fejer priority=low",
        ] {
            assert_eq!(base.op_key(), dos_job(same).op_key(), "{same}");
        }
        // ...and a Kubo job on the same lattice shares the operator too.
        let kubo = ShardJob::parse("kubo lattice=chain:32 moments=8").unwrap();
        assert_eq!(base.op_key(), kubo.op_key());
        // ...but every matrix-shaping field changes it.
        for diff in [
            "lattice=chain:33 moments=24",
            "lattice=chain:32 moments=24 bc=open",
            "lattice=chain:32 moments=24 hopping=2",
            "lattice=chain:32 moments=24 disorder=0.5",
            "lattice=chain:32 moments=24 format=stencil",
        ] {
            assert_ne!(base.op_key(), dos_job(diff).op_key(), "{diff}");
        }
    }

    #[test]
    fn row_key_masks_prefix_safe_fields_and_keeps_stream_identity() {
        let base = dos_job("lattice=chain:32 moments=24 random=3 sets=2 seed=5");
        // Rows are prefix-extendable and kernel-free; S only bounds the
        // index set; format/device are bitwise-invariant.
        for same in [
            "lattice=chain:32 moments=64 random=3 sets=2 seed=5",
            "lattice=chain:32 moments=24 random=3 sets=4 seed=5",
            "lattice=chain:32 moments=24 random=3 sets=2 seed=5 kernel=fejer",
            "lattice=chain:32 moments=24 random=3 sets=2 seed=5 format=stencil device=sim",
        ] {
            assert_eq!(base.row_key(), dos_job(same).row_key(), "{same}");
        }
        // Seed and R change the (seed, s, r) stream mapping; the matrix
        // fields change the rows; the kind changes the estimator.
        for diff in [
            "lattice=chain:32 moments=24 random=3 sets=2 seed=6",
            "lattice=chain:32 moments=24 random=4 sets=2 seed=5",
            "lattice=chain:32 moments=24 random=3 sets=2 seed=5 disorder=0.1",
        ] {
            assert_ne!(base.row_key(), dos_job(diff).row_key(), "{diff}");
        }
        let ldos = ShardJob::parse("ldos:3 lattice=chain:32 moments=24").unwrap();
        let kubo = ShardJob::parse("kubo lattice=chain:32 moments=8").unwrap();
        assert_ne!(base.row_key(), ldos.row_key());
        assert_ne!(base.row_key(), kubo.row_key());
        assert!(base.prefix_extendable());
        assert!(ldos.prefix_extendable());
        assert!(!kubo.prefix_extendable());
    }

    #[test]
    fn bounds_mode_changes_row_key_but_not_op_key() {
        let base = dos_job("lattice=chain:32 moments=24 random=3 sets=2 seed=5");
        let lanczos = dos_job("lattice=chain:32 moments=24 random=3 sets=2 seed=5 bounds=lanczos");
        // Same assembled matrix, so the warm-operator identity is shared...
        assert_eq!(base.op_key(), lanczos.op_key());
        // ...but rows computed under a different rescale map have different
        // bits, so warm rows must not transfer across bounds modes.
        assert_ne!(base.row_key(), lanczos.row_key());
        // And the canonical shard line round-trips the provider.
        let again = ShardJob::parse(&lanczos.canonical()).unwrap();
        assert_eq!(again, lanczos);
    }

    #[test]
    fn lanczos_bounds_job_merges_bitwise_with_serve_pipeline() {
        let line =
            "lattice=chain:48 disorder=6@5 moments=20 random=3 sets=2 seed=9 bounds=lanczos:32";
        let job = dos_job(line);
        let mut rows = Vec::new();
        for range in kpm::shard_plan(job.total_units(), 4) {
            rows.extend(job.compute_partial(range).unwrap());
        }
        let merged = job.merge(&rows).unwrap().into_stats().unwrap();
        let (stats, a_plus, a_minus) =
            compute_raw_moments(&JobSpec::parse(line).unwrap(), 0).unwrap();
        assert_eq!(merged.mean, stats.mean);
        assert_eq!(job.bounds().unwrap(), (a_plus, a_minus));
        // Tighter than Gershgorin on the disordered chain (discs overshoot
        // by O(W/2)): the half-width the shard pipeline agrees on must beat
        // the disc bound's.
        let gersh = dos_job("lattice=chain:48 disorder=6@5 moments=20 random=3 sets=2 seed=9");
        assert!(job.bounds().unwrap().1 < gersh.bounds().unwrap().1);
    }

    #[test]
    fn compute_partial_with_prebuilt_matrix_is_bitwise_identical() {
        let job = dos_job("lattice=chain:32 moments=16 random=2 sets=2 seed=3");
        let matrix = job.spec().build_matrix();
        let direct = job.compute_partial(0..4).unwrap();
        let reused = job.compute_partial_with(0..4, &matrix).unwrap();
        assert_eq!(direct, reused);
    }
}
