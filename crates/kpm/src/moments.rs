//! Chebyshev moment computation — the computational core of the KPM.
//!
//! `mu_n = Tr[T_n(H~)] / D` is estimated stochastically (the paper's
//! Eq. 16/19): for each of `S * R` random vectors `|r>`, run the recursion
//!
//! ```text
//! |r_0> = |r>,   |r_1> = H~ |r_0>,   |r_{n+2}> = 2 H~ |r_{n+1}> - |r_n>
//! ```
//!
//! and accumulate `mu~_n = <r_0 | r_n>`; the estimate is the mean of
//! `mu~_n / D` over realizations. The moments come from moment doubling:
//! the product identity `2 T_m T_n = T_{m+n} + T_{m-n}` yields
//! `mu_{2k} = 2 <r_k|r_k> - mu_0` and `mu_{2k+1} = 2 <r_{k+1}|r_k> - mu_1`,
//! halving the matvec count (Weiße et al. 2006, Sec. II.D): `N / 2` sweeps
//! for `N` moments, where the paper's loop (one matvec and one dot per
//! moment) takes `N - 1`. The modeled device engines price the paper's
//! loop; on the host, [`pair_vector_moments`] with `l = r0` runs it for one
//! vector.
//!
//! Stochastic estimation is a multiple-right-hand-side problem: every step
//! applies the same `H~` to all `R` vectors of a realization set. The
//! stochastic driver therefore carries each set as one row-interleaved
//! `D x R` block through the row-tiled engine ([`kpm_linalg::tiled`]): one
//! matrix sweep per step amortized over `R` right-hand sides, with the
//! Chebyshev combine and the moment dots fused into the sweep.
//! Per-realization RNG streams are keyed `(s, r)`, so a realization's
//! moments do not depend on which block carried it. The one-vector
//! recursions ([`single_vector_moments`], [`pair_vector_moments`]) serve the
//! local estimators and the tests' references.

use crate::error::KpmError;
use crate::exec::{self, ExecPlan};
use crate::kernels::KernelType;
use crate::random::{fill_random_rows, Distribution};
use crate::rescale::BoundsMethod;
use kpm_linalg::op::LinearOp;
use kpm_linalg::tiled::{self, TiledOp};
use kpm_linalg::vecops;

/// All knobs of a KPM run. Mirrors the paper's parameter set:
/// `N` = `num_moments`, `R` = `num_random`, `S` = `num_realizations`,
/// `H_SIZE` = the operator dimension.
#[derive(Debug, Clone)]
pub struct KpmParams {
    /// Truncation order `N` of the Chebyshev expansion.
    pub num_moments: usize,
    /// Random vectors per realization set, `R`.
    pub num_random: usize,
    /// Realization sets, `S` (outer average of the paper's Eq. 16).
    pub num_realizations: usize,
    /// Master seed; realization `(s, r)` derives its own stream from it.
    pub seed: u64,
    /// Component distribution of the random vectors.
    pub distribution: Distribution,
    /// Damping kernel for reconstruction.
    pub kernel: KernelType,
    /// How spectral bounds are obtained.
    pub bounds: BoundsMethod,
    /// Relative safety padding applied to the bounds (Eq. 8 rescaling).
    pub padding: f64,
    /// Number of reconstruction grid points (Chebyshev–Gauss abscissas).
    pub grid_points: usize,
}

impl KpmParams {
    /// Defaults around `num_moments`: `R = 8`, `S = 2`, Rademacher vectors,
    /// Jackson kernel, Gershgorin bounds, 1% padding, and a `2 N`
    /// reconstruction grid (rounded up to a power of two).
    pub fn new(num_moments: usize) -> Self {
        Self {
            num_moments,
            num_random: 8,
            num_realizations: 2,
            seed: 0x6b70_6d5f_7365,
            distribution: Distribution::Rademacher,
            kernel: KernelType::Jackson,
            bounds: BoundsMethod::Gershgorin,
            padding: 0.01,
            grid_points: (2 * num_moments).next_power_of_two(),
        }
    }

    /// Sets `R` and `S` — the paper's Fig. 5–8 use `R = 14, S = 128` (or
    /// the swap; only the product matters to cost and accuracy).
    pub fn with_random_vectors(mut self, num_random: usize, num_realizations: usize) -> Self {
        self.num_random = num_random;
        self.num_realizations = num_realizations;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the component distribution.
    pub fn with_distribution(mut self, d: Distribution) -> Self {
        self.distribution = d;
        self
    }

    /// Sets the damping kernel.
    pub fn with_kernel(mut self, k: KernelType) -> Self {
        self.kernel = k;
        self
    }

    /// Sets the bounds method.
    pub fn with_bounds(mut self, b: BoundsMethod) -> Self {
        self.bounds = b;
        self
    }

    /// Sets the rescaling padding.
    pub fn with_padding(mut self, eps: f64) -> Self {
        self.padding = eps;
        self
    }

    /// Sets the reconstruction grid size.
    pub fn with_grid_points(mut self, k: usize) -> Self {
        self.grid_points = k;
        self
    }

    /// Total number of independent random-vector realizations, `S * R`.
    pub fn total_realizations(&self) -> usize {
        self.num_random * self.num_realizations
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    /// [`KpmError::TooFewMoments`] for `num_moments < 2`,
    /// [`KpmError::GridTooSmall`] for `grid_points < num_moments`,
    /// [`KpmError::NonFinitePadding`] for NaN/infinite padding, and
    /// [`KpmError::InvalidParameter`] naming any other offending field.
    pub fn validate(&self) -> Result<(), KpmError> {
        if self.num_moments < 2 {
            return Err(KpmError::TooFewMoments { got: self.num_moments });
        }
        if self.num_random == 0 || self.num_realizations == 0 {
            return Err(KpmError::InvalidParameter(
                "num_random and num_realizations must be positive".into(),
            ));
        }
        if self.grid_points < self.num_moments {
            return Err(KpmError::GridTooSmall {
                grid_points: self.grid_points,
                num_moments: self.num_moments,
            });
        }
        if !self.padding.is_finite() {
            return Err(KpmError::NonFinitePadding(self.padding));
        }
        if self.padding < 0.0 {
            return Err(KpmError::InvalidParameter(format!(
                "padding must be nonnegative, got {}",
                self.padding
            )));
        }
        Ok(())
    }
}

/// Stochastic moment estimate with per-moment standard errors.
#[derive(Debug, Clone)]
pub struct MomentStats {
    /// Mean moments `mu_0 .. mu_{N-1}`.
    pub mean: Vec<f64>,
    /// Standard error of each mean across realizations (zero when only one
    /// realization was drawn).
    pub std_err: Vec<f64>,
    /// Number of realizations averaged.
    pub samples: usize,
}

impl MomentStats {
    /// Truncation order of this estimate (number of stored moments).
    pub fn num_moments(&self) -> usize {
        self.mean.len()
    }

    /// The first `n` moments as a stand-alone estimate.
    ///
    /// Chebyshev moments of order `< n` do not depend on the truncation
    /// order: a run at `N' > n` performs the identical recursion steps and
    /// the identical index-ordered reduction for the leading `n` entries, so
    /// `truncated(n)` of the longer run is bitwise equal to a fresh run at
    /// `n` with the same parameters. This is what lets a moment cache serve
    /// lower-order requests from a higher-order entry (kernel damping is
    /// applied at reconstruction time, never stored here).
    ///
    /// # Panics
    /// Panics if `n > self.num_moments()` or `n < 2`.
    pub fn truncated(&self, n: usize) -> Self {
        assert!(n >= 2, "need at least two moments");
        assert!(n <= self.mean.len(), "cannot truncate {} moments to {n}", self.mean.len());
        Self {
            mean: self.mean[..n].to_vec(),
            std_err: self.std_err[..n].to_vec(),
            samples: self.samples,
        }
    }

    /// Largest standard error across all moments — a one-number convergence
    /// indicator (zero for deterministic single-vector runs).
    pub fn max_std_err(&self) -> f64 {
        self.std_err.iter().fold(0.0, |m, &e| m.max(e))
    }

    /// Exact merge of per-realization normalized moment vectors into a
    /// [`MomentStats`], in the order given.
    ///
    /// This is *the* reduction of the stochastic estimator: a streaming
    /// Welford pass (mean plus sum of squared deviations) over the
    /// realizations in canonical `idx = s * R + r` order. It is factored out
    /// so that a distributed run can regenerate it exactly — shard workers
    /// return their realizations' `mu~_n / D` vectors untouched, the
    /// coordinator concatenates the shards in canonical order and calls this
    /// function, and the result is bitwise identical to a single-process
    /// [`stochastic_moments`] run (which is itself implemented on top of
    /// this merge). Floating-point summation is not associative, so the
    /// merge deliberately re-runs the sequential reduction instead of
    /// combining partial Welford states.
    ///
    /// # Panics
    /// Panics if `per_realization` is empty or the vectors have unequal
    /// lengths.
    pub fn merge_realizations(per_realization: &[Vec<f64>]) -> Self {
        let total = per_realization.len();
        assert!(total > 0, "cannot merge zero realizations");
        let n = per_realization[0].len();
        let mut mean = vec![0.0; n];
        let mut m2 = vec![0.0; n]; // sum of squared deviations (Welford)
        for (count, mu) in per_realization.iter().enumerate() {
            assert_eq!(mu.len(), n, "realization {count} has wrong moment count");
            let k = (count + 1) as f64;
            for i in 0..n {
                let delta = mu[i] - mean[i];
                mean[i] += delta / k;
                m2[i] += delta * (mu[i] - mean[i]);
            }
        }
        let std_err = if total > 1 {
            m2.iter().map(|&s| (s / (total as f64 - 1.0)).sqrt() / (total as f64).sqrt()).collect()
        } else {
            vec![0.0; n]
        };
        MomentStats { mean, std_err, samples: total }
    }
}

/// Deterministic partition of `total` realizations into at most
/// `num_shards` contiguous, non-empty index ranges covering `0..total`.
///
/// The plan is a pure function of `(total, num_shards)` — no RNG, no
/// timing — so every node of a distributed run derives the identical
/// partition, and shard `k` always means the same realization indices on
/// coordinator and workers. Ranges differ in length by at most one
/// (`k * total / shards` boundaries). When `num_shards > total` the plan
/// degenerates to one shard per realization.
///
/// # Panics
/// Panics if `total == 0` or `num_shards == 0`.
pub fn shard_plan(total: usize, num_shards: usize) -> Vec<std::ops::Range<usize>> {
    assert!(total > 0, "cannot shard zero realizations");
    assert!(num_shards > 0, "need at least one shard");
    let shards = num_shards.min(total);
    (0..shards).map(|k| (k * total / shards)..((k + 1) * total / shards)).collect()
}

/// Groups a realization index range into per-set `(s, r_lo..r_hi)` chunks —
/// the work units [`per_realization_moments`] plans over. Exposed so the
/// serving layers can derive the chunk count a job will use (the calibrated
/// profile key includes it) without duplicating the grouping rule.
pub fn realization_chunks(
    r_per_s: usize,
    range: std::ops::Range<usize>,
) -> Vec<(usize, std::ops::Range<usize>)> {
    let mut chunks: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut idx = range.start;
    while idx < range.end {
        let s = idx / r_per_s;
        let r_lo = idx % r_per_s;
        let r_hi = (range.end - s * r_per_s).min(r_per_s);
        chunks.push((s, r_lo..r_hi));
        idx = s * r_per_s + r_hi;
    }
    chunks
}

/// The number of planning chunks a `params` run over `range` produces —
/// `realization_chunks(...).len()` without the allocation's contents
/// mattering. Serve workers and shard compute threads feed this to
/// [`crate::tune::ensure_profile`].
pub fn realization_chunk_count(params: &KpmParams, range: std::ops::Range<usize>) -> usize {
    if range.is_empty() {
        return 0;
    }
    realization_chunks(params.num_random, range).len()
}

/// The normalized per-realization moment vectors `mu~_n / D` for the
/// realization index range `range` (canonical `idx = s * R + r` indexing)
/// of the full `S x R` ensemble described by `params`.
///
/// Entry `i` of the result is realization `range.start + i`. Realizations
/// sharing a set `s` advance together as one `D x k` block on the tiled
/// engine, whose per-column moments do not depend on the block's width or
/// on the plan and thread count that ran it — so the values are independent
/// of how `range` slices through realization sets. This is the worker half
/// of the distributed estimator; [`MomentStats::merge_realizations`] is the
/// coordinator half, and [`stochastic_moments`] is literally the two glued
/// together over the full range.
///
/// # Panics
/// Panics if parameters are invalid, `range` is empty, or
/// `range.end > params.total_realizations()`.
pub fn per_realization_moments<A: TiledOp + Sync>(
    op: &A,
    params: &KpmParams,
    range: std::ops::Range<usize>,
) -> Vec<Vec<f64>> {
    params.validate().expect("invalid KPM parameters");
    assert!(!range.is_empty(), "empty realization range");
    assert!(
        range.end <= params.total_realizations(),
        "range {range:?} exceeds {} total realizations",
        params.total_realizations()
    );
    let d = op.dim();
    let n = params.num_moments;
    let r_per_s = params.num_random;

    // Group the index range by realization set: (s, r_lo..r_hi) chunks, one
    // D x (r_hi - r_lo) block each. A full interior set keeps its full-R
    // block exactly as the unsharded driver builds it.
    let chunks = realization_chunks(r_per_s, range);

    // One chunk through the row-tiled fused engine: the recursion, the
    // Chebyshev combine, and the moment dots run in one pass per sweep,
    // parallelized across the matrix dimension. The block is drawn in the
    // engine's row-interleaved layout and becomes its first recursion
    // buffer.
    let run_chunk = |(s, rs): &(usize, std::ops::Range<usize>),
                     threads: usize,
                     tile_rows: usize|
     -> Vec<Vec<f64>> {
        let k = rs.len();
        let mut block = vec![0.0; d * k];
        fill_random_rows(params.distribution, params.seed, *s, rs.clone(), &mut block);
        let (mut per_column, stats) =
            tiled::fused_interleaved_moments_doubling(op, block, k, n, threads, tile_rows);
        let inv_d = 1.0 / d as f64;
        for mu in per_column.iter_mut() {
            for m in mu.iter_mut() {
                *m *= inv_d;
            }
        }
        if kpm_obs::enabled() {
            kpm_obs::counter_add("kpm.exec.tiles", stats.tiles);
            kpm_obs::counter_add("kpm.exec.steal", stats.steals);
            kpm_obs::counter_add("kpm.spmm.sweeps", stats.sweeps);
            kpm_obs::counter_add("kpm.spmm.rows", stats.sweeps * d as u64);
            kpm_obs::counter_add(&format!("kpm.spmm.width.{k}"), stats.sweeps);
            kpm_obs::counter_add(&format!("kpm.exec.isa.{}", kpm_linalg::isa::active()), 1);
        }
        kpm_obs::counter_add("kpm.realizations", k as u64);
        per_column
    };

    let plan = exec::plan_for(d, op.model_entries(), chunks.len());
    if kpm_obs::enabled() {
        kpm_obs::counter_add(&format!("kpm.exec.plan.{}", plan.name()), 1);
    }
    let _exec_span = kpm_obs::span_labeled("kpm.exec", plan.name());
    let per_chunk: Vec<Vec<Vec<f64>>> = match plan {
        ExecPlan::Rows { threads, tile_rows } => {
            chunks.iter().map(|c| run_chunk(c, threads, tile_rows)).collect()
        }
        ExecPlan::Hybrid { outer, inner, tile_rows } => {
            run_chunks_hybrid(outer, &chunks, |c| run_chunk(c, inner, tile_rows))
        }
    };
    per_chunk.into_iter().flatten().collect()
}

/// Runs `f` over `items` with up to `outer` chunks in flight (the calling
/// thread participates), collecting results *by index* so the output order
/// — and therefore the canonical realization-order reduction downstream —
/// is independent of scheduling.
fn run_chunks_hybrid<C: Sync, T: Send, F: Fn(&C) -> T + Sync>(
    outer: usize,
    items: &[C],
    f: F,
) -> Vec<T> {
    if outer <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        match items.get(i) {
            Some(item) => *slots[i].lock().expect("hybrid slot poisoned") = Some(f(item)),
            None => break,
        }
    };
    std::thread::scope(|scope| {
        let worker = &worker;
        for _ in 1..outer.min(items.len()) {
            scope.spawn(worker);
        }
        worker();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("hybrid slot poisoned")
                .expect("hybrid worker skipped a chunk — internal bug")
        })
        .collect()
}

/// Computes the moments `<r_0|T_n(H~)|r_0>` (not normalized by `D`) for one
/// start vector by moment doubling: `n / 2` matvecs for `n` moments.
///
/// # Panics
/// Panics if `r0.len() != op.dim()` or `n < 2`.
pub fn single_vector_moments<A: LinearOp>(op: &A, r0: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(r0.len(), op.dim(), "start vector length");
    assert!(n >= 2, "need at least two moments");
    let d = r0.len();
    let mut mu = vec![0.0; n];
    let mut prev = r0.to_vec(); // r_{k-1}, starts as r_0
    let mut cur = vec![0.0; d]; // r_k, starts as r_1
    op.apply(&prev, &mut cur);
    let mu0 = vecops::dot(r0, r0);
    let mu1 = vecops::dot(&cur, r0);
    mu[0] = mu0;
    mu[1] = mu1;
    let mut scratch = vec![0.0; d];
    let mut k = 1usize;
    while 2 * k < n {
        // mu_{2k} = 2 <r_k|r_k> - mu_0
        mu[2 * k] = 2.0 * vecops::dot(&cur, &cur) - mu0;
        if 2 * k + 1 < n {
            // r_{k+1} = 2 H r_k - r_{k-1}; the combine is fused with the
            // cross dot <r_{k+1}|r_k> (dotting against `cur` = r_k before the
            // swap — multiplication is commutative, so the product sequence
            // is bitwise the one the unfused path computed).
            op.apply(&cur, &mut scratch);
            let cross = vecops::chebyshev_combine_dot(&scratch, &mut prev, &cur);
            std::mem::swap(&mut prev, &mut cur);
            // mu_{2k+1} = 2 <r_{k+1}|r_k> - mu_1
            mu[2 * k + 1] = 2.0 * cross - mu1;
        }
        k += 1;
    }
    mu
}

/// Off-diagonal (pair) moments `<l | T_n(H~) | r0>` — the ingredients of
/// matrix-element Green's functions `G_ij(omega)` (feed the result to
/// [`crate::green::evaluate`]). It runs the paper's loop, one matvec and
/// one dot per moment, since the doubling identities require `l == r0`;
/// with `l = r0` it is that loop for one start vector, which the modeled
/// device engines price.
///
/// # Panics
/// Panics on dimension mismatch or `num_moments < 2`.
pub fn pair_vector_moments<A: LinearOp>(
    op: &A,
    l: &[f64],
    r0: &[f64],
    num_moments: usize,
) -> Vec<f64> {
    assert_eq!(l.len(), op.dim(), "left vector length");
    assert_eq!(r0.len(), op.dim(), "right vector length");
    assert!(num_moments >= 2, "need at least two moments");
    let d = r0.len();
    let mut mu = Vec::with_capacity(num_moments);
    let mut prev = r0.to_vec();
    let mut cur = vec![0.0; d];
    op.apply(&prev, &mut cur);
    mu.push(vecops::dot(l, &prev));
    mu.push(vecops::dot(l, &cur));
    let mut scratch = vec![0.0; d];
    for _ in 2..num_moments {
        op.apply(&cur, &mut scratch);
        let mu_n = vecops::chebyshev_combine_dot(&scratch, &mut prev, l);
        std::mem::swap(&mut prev, &mut cur);
        mu.push(mu_n);
    }
    mu
}

/// Stochastic trace estimation of the normalized moments
/// `mu_n = Tr[T_n(H~)]/D` over `S * R` random vectors (the paper's step
/// (1)–(3), Fig. 3). Each realization set's `R` vectors advance together as
/// one `D x R` block on the tiled engine ([`per_realization_moments`]), so
/// the matrix is streamed once per sweep instead of once per vector. The
/// execution plan ([`exec::plan_for`]) spreads the sweeps over rows and
/// sets; results are reduced in a fixed `(s, r)` order, so the output is
/// bitwise identical for a given seed whatever the plan and thread count.
///
/// The operator must already be rescaled into `[-1, 1]`.
///
/// # Panics
/// Panics if parameters are invalid (call [`KpmParams::validate`] first for
/// a recoverable error).
pub fn stochastic_moments<A: TiledOp + Sync>(op: &A, params: &KpmParams) -> MomentStats {
    params.validate().expect("invalid KPM parameters");
    let _span = kpm_obs::span("kpm.moments");
    // Compute every realization, then run the canonical index-ordered
    // reduction — exactly the two halves a distributed run performs on
    // workers and coordinator, so sharded and single-process results are
    // bitwise identical by construction.
    let per_realization = per_realization_moments(op, params, 0..params.total_realizations());
    MomentStats::merge_realizations(&per_realization)
}

/// Exact moments `mu_n = (1/D) sum_k T_n(e_k)` from a full (already
/// rescaled) spectrum — the ground truth the stochastic estimator is tested
/// against.
///
/// # Panics
/// Panics if any eigenvalue lies outside `[-1, 1]` or the spectrum is empty.
pub fn exact_moments(rescaled_eigenvalues: &[f64], num_moments: usize) -> Vec<f64> {
    assert!(!rescaled_eigenvalues.is_empty(), "spectrum must be nonempty");
    let mut mu = vec![0.0; num_moments];
    for &e in rescaled_eigenvalues {
        assert!(
            (-1.0..=1.0).contains(&e),
            "eigenvalue {e} outside [-1, 1]; rescale the spectrum first"
        );
        // Accumulate T_n(e) by the recursion.
        let mut tm = 1.0;
        let mut tc = e;
        mu[0] += 1.0;
        if num_moments > 1 {
            mu[1] += e;
        }
        for slot in mu.iter_mut().skip(2) {
            let tn = 2.0 * e * tc - tm;
            tm = tc;
            tc = tn;
            *slot += tn;
        }
    }
    let inv = 1.0 / rescaled_eigenvalues.len() as f64;
    for m in mu.iter_mut() {
        *m *= inv;
    }
    mu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chebyshev;
    use crate::random::fill_random_vector;
    use kpm_linalg::op::{DiagonalOp, IdentityOp};

    #[test]
    fn params_builder_and_validation() {
        let p = KpmParams::new(128)
            .with_random_vectors(14, 128)
            .with_seed(7)
            .with_padding(0.02)
            .with_grid_points(512);
        assert_eq!(p.total_realizations(), 1792);
        assert!(p.validate().is_ok());
        assert!(KpmParams::new(1).validate().is_err());
        assert!(KpmParams::new(8).with_random_vectors(0, 1).validate().is_err());
        assert!(KpmParams::new(8).with_grid_points(0).validate().is_err());
        assert!(KpmParams::new(8).with_padding(f64::NAN).validate().is_err());
    }

    #[test]
    fn validate_rejects_too_few_moments_with_specific_variant() {
        assert_eq!(KpmParams::new(0).validate(), Err(KpmError::TooFewMoments { got: 0 }));
        assert_eq!(KpmParams::new(1).validate(), Err(KpmError::TooFewMoments { got: 1 }));
        assert!(KpmParams::new(2).validate().is_ok());
    }

    #[test]
    fn validate_rejects_grid_smaller_than_expansion_order() {
        assert_eq!(
            KpmParams::new(64).with_grid_points(32).validate(),
            Err(KpmError::GridTooSmall { grid_points: 32, num_moments: 64 })
        );
        // Equality is the boundary: a grid exactly as fine as the expansion
        // order is accepted.
        assert!(KpmParams::new(64).with_grid_points(64).validate().is_ok());
    }

    #[test]
    fn validate_rejects_non_finite_padding_with_specific_variant() {
        assert!(matches!(
            KpmParams::new(8).with_padding(f64::NAN).validate(),
            Err(KpmError::NonFinitePadding(eps)) if eps.is_nan()
        ));
        assert_eq!(
            KpmParams::new(8).with_padding(f64::INFINITY).validate(),
            Err(KpmError::NonFinitePadding(f64::INFINITY))
        );
        // Negative-but-finite padding stays an InvalidParameter.
        assert!(matches!(
            KpmParams::new(8).with_padding(-0.1).validate(),
            Err(KpmError::InvalidParameter(_))
        ));
        assert!(KpmParams::new(8).with_padding(0.0).validate().is_ok());
    }

    #[test]
    fn single_vector_moments_on_diagonal_operator() {
        // For H = diag(a) and r0 = e_0 scaled: <r0|T_n(H)|r0> = r0_0^2 T_n(a_0).
        let a = 0.37;
        let op = DiagonalOp::new(vec![a, -0.5]);
        let r0 = vec![2.0, 0.0];
        for mu in [single_vector_moments(&op, &r0, 16), pair_vector_moments(&op, &r0, &r0, 16)] {
            for (n, &m) in mu.iter().enumerate() {
                assert!((m - 4.0 * chebyshev::t(n, a)).abs() < 1e-12, "n = {n}");
            }
        }
    }

    #[test]
    fn doubling_matches_plain() {
        let diag: Vec<f64> = (0..24).map(|i| ((i as f64) * 0.41).sin() * 0.9).collect();
        let op = DiagonalOp::new(diag);
        let mut r0 = vec![0.0; 24];
        fill_random_vector(Distribution::Gaussian, 5, 0, 0, &mut r0);
        for n in [2usize, 3, 7, 8, 33, 64] {
            let plain = pair_vector_moments(&op, &r0, &r0, n);
            let doubled = single_vector_moments(&op, &r0, n);
            for i in 0..n {
                assert!(
                    (plain[i] - doubled[i]).abs() < 1e-9 * (1.0 + plain[i].abs()),
                    "n = {n}, i = {i}: {} vs {}",
                    plain[i],
                    doubled[i]
                );
            }
        }
    }

    #[test]
    fn stochastic_block_path_is_bitwise_equal_to_scalar_seed_path() {
        // Replays the historical one-vector-at-a-time driver (loop over
        // idx = s * R + r, scalar recursion, index-ordered Welford) and
        // demands bitwise agreement with the blocked implementation.
        let d = 40;
        let op = DiagonalOp::new((0..d).map(|i| (i as f64 * 0.77).sin() * 0.8).collect());
        let p = KpmParams::new(16)
            .with_random_vectors(4, 3)
            .with_distribution(Distribution::Gaussian)
            .with_seed(13);
        let stats = stochastic_moments(&op, &p);

        let n = p.num_moments;
        let total = p.total_realizations();
        let mut mean = vec![0.0; n];
        let mut m2 = vec![0.0; n];
        for idx in 0..total {
            let (s, r) = (idx / p.num_random, idx % p.num_random);
            let mut r0 = vec![0.0; d];
            fill_random_vector(p.distribution, p.seed, s, r, &mut r0);
            let mut mu = single_vector_moments(&op, &r0, n);
            let inv_d = 1.0 / d as f64;
            for m in mu.iter_mut() {
                *m *= inv_d;
            }
            let count = (idx + 1) as f64;
            for i in 0..n {
                let delta = mu[i] - mean[i];
                mean[i] += delta / count;
                m2[i] += delta * (mu[i] - mean[i]);
            }
        }
        let std_err: Vec<f64> =
            m2.iter().map(|&s| (s / (total as f64 - 1.0)).sqrt() / (total as f64).sqrt()).collect();
        assert_eq!(stats.mean, mean, "blocked driver must match the scalar seed path bitwise");
        assert_eq!(stats.std_err, std_err);
    }

    #[test]
    fn shard_plan_partitions_exactly() {
        for total in [1usize, 2, 7, 12, 100] {
            for shards in [1usize, 2, 3, 5, 8, 200] {
                let plan = shard_plan(total, shards);
                assert_eq!(plan.len(), shards.min(total));
                assert_eq!(plan[0].start, 0);
                assert_eq!(plan.last().unwrap().end, total);
                for w in plan.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                for r in &plan {
                    assert!(!r.is_empty(), "no empty shard in {plan:?}");
                }
                // Balanced: lengths differ by at most one.
                let lens: Vec<usize> = plan.iter().map(|r| r.len()).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced plan {plan:?}");
            }
        }
    }

    #[test]
    fn sharded_per_realization_ranges_merge_bitwise_to_full_run() {
        // Any partition of the index range, merged canonically, must equal
        // the single-pass estimator bit for bit — the distributed-run
        // contract, checked here without any transport in the way.
        let d = 40;
        let op = DiagonalOp::new((0..d).map(|i| (i as f64 * 0.77).sin() * 0.8).collect());
        let p = KpmParams::new(16)
            .with_random_vectors(4, 3)
            .with_distribution(Distribution::Gaussian)
            .with_seed(13);
        let full = stochastic_moments(&op, &p);
        let total = p.total_realizations();
        for shards in [1usize, 2, 3, 5, 7, 12] {
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for range in shard_plan(total, shards) {
                rows.extend(per_realization_moments(&op, &p, range));
            }
            let merged = MomentStats::merge_realizations(&rows);
            assert_eq!(merged.mean, full.mean, "{shards} shards");
            assert_eq!(merged.std_err, full.std_err, "{shards} shards");
            assert_eq!(merged.samples, full.samples);
        }
    }

    #[test]
    fn per_realization_moments_are_independent_of_range_slicing() {
        // Realization idx has one value no matter which range produced it,
        // even when a range cuts through the middle of a realization set.
        let d = 32;
        let op = DiagonalOp::new((0..d).map(|i| (i as f64 * 0.41).sin() * 0.9).collect());
        let p = KpmParams::new(12)
            .with_random_vectors(5, 2)
            .with_distribution(Distribution::Uniform)
            .with_seed(77);
        let total = p.total_realizations();
        let whole = per_realization_moments(&op, &p, 0..total);
        for (start, end) in [(0usize, 3usize), (2, 7), (4, 10), (9, 10)] {
            let part = per_realization_moments(&op, &p, start..end);
            for (i, row) in part.iter().enumerate() {
                assert_eq!(row, &whole[start + i], "idx {} via {start}..{end}", start + i);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty realization range")]
    fn per_realization_moments_reject_empty_range() {
        let op = DiagonalOp::new(vec![0.1, 0.2]);
        let _ = per_realization_moments(&op, &KpmParams::new(4), 3..3);
    }

    #[test]
    fn merge_realizations_single_sample_has_zero_std_err() {
        let merged = MomentStats::merge_realizations(&[vec![1.0, -0.5]]);
        assert_eq!(merged.mean, vec![1.0, -0.5]);
        assert_eq!(merged.std_err, vec![0.0, 0.0]);
        assert_eq!(merged.samples, 1);
    }

    #[test]
    fn identity_moments_are_all_one() {
        // T_n(1) = 1, and Rademacher gives <r|r> = D exactly.
        let op = IdentityOp::new(32);
        // Identity has spectrum {1}: rescaling would be degenerate, so feed
        // a pre-scaled operator directly (spectrum at 1 is allowed edge).
        let params = KpmParams::new(8).with_random_vectors(4, 2);
        let stats = stochastic_moments(&op, &params);
        for (n, &m) in stats.mean.iter().enumerate() {
            assert!((m - 1.0).abs() < 1e-12, "mu_{n} = {m}");
        }
        assert_eq!(stats.samples, 8);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn stochastic_matches_exact_on_diagonal_spectrum() {
        let d = 256;
        let eigs: Vec<f64> = (0..d).map(|i| -0.95 + 1.9 * i as f64 / (d - 1) as f64).collect();
        let op = DiagonalOp::new(eigs.clone());
        let n = 32;
        let exact = exact_moments(&eigs, n);
        let params = KpmParams::new(n).with_random_vectors(16, 8).with_seed(11);
        let stats = stochastic_moments(&op, &params);
        for i in 0..n {
            let tol = 6.0 * stats.std_err[i] + 5e-3;
            assert!(
                (stats.mean[i] - exact[i]).abs() < tol,
                "mu_{i}: {} vs exact {} (err {})",
                stats.mean[i],
                exact[i],
                stats.std_err[i]
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn rademacher_is_exact_on_diagonal_operators() {
        // With xi_i = +-1, <r|T_n(diag)|r> = sum_i xi_i^2 T_n(d_i) is exact:
        // zero variance, independent of the seed. A nice structural check.
        let eigs: Vec<f64> = (0..32).map(|i| (i as f64 * 0.61).sin() * 0.9).collect();
        let op = DiagonalOp::new(eigs.clone());
        let stats = stochastic_moments(&op, &KpmParams::new(12).with_random_vectors(3, 2));
        let exact = exact_moments(&eigs, 12);
        for i in 0..12 {
            assert!((stats.mean[i] - exact[i]).abs() < 1e-12);
            assert!(stats.std_err[i] < 1e-12);
        }
    }

    #[test]
    fn error_bars_shrink_with_more_realizations() {
        // Gaussian vectors (Rademacher would be variance-free on a diagonal
        // operator — see rademacher_is_exact_on_diagonal_operators).
        let d = 64;
        let eigs: Vec<f64> = (0..d).map(|i| (i as f64 / d as f64) * 1.6 - 0.8).collect();
        let op = DiagonalOp::new(eigs);
        let few = stochastic_moments(
            &op,
            &KpmParams::new(16).with_random_vectors(4, 2).with_distribution(Distribution::Gaussian),
        );
        let many = stochastic_moments(
            &op,
            &KpmParams::new(16)
                .with_random_vectors(4, 32)
                .with_distribution(Distribution::Gaussian),
        );
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&many.std_err) < avg(&few.std_err),
            "{} vs {}",
            avg(&many.std_err),
            avg(&few.std_err)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let op = DiagonalOp::new((0..40).map(|i| (i as f64 * 0.77).sin() * 0.8).collect());
        let p = KpmParams::new(24)
            .with_random_vectors(6, 3)
            .with_distribution(Distribution::Gaussian)
            .with_seed(99);
        let a = stochastic_moments(&op, &p);
        let b = stochastic_moments(&op, &p);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std_err, b.std_err);
        let c = stochastic_moments(&op, &p.clone().with_seed(100));
        assert_ne!(a.mean, c.mean);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn gaussian_and_uniform_agree_with_rademacher_within_error() {
        let d = 128;
        let eigs: Vec<f64> = (0..d).map(|i| -0.9 + 1.8 * i as f64 / (d - 1) as f64).collect();
        let op = DiagonalOp::new(eigs.clone());
        let exact = exact_moments(&eigs, 12);
        for dist in [Distribution::Gaussian, Distribution::Uniform] {
            let p = KpmParams::new(12).with_random_vectors(32, 8).with_distribution(dist);
            let stats = stochastic_moments(&op, &p);
            for i in 0..12 {
                let tol = 8.0 * stats.std_err[i] + 1e-2;
                assert!(
                    (stats.mean[i] - exact[i]).abs() < tol,
                    "{dist:?} mu_{i}: {} vs {}",
                    stats.mean[i],
                    exact[i]
                );
            }
        }
    }

    #[test]
    fn truncated_prefix_is_bitwise_equal_to_shorter_run() {
        // The moment-cache contract: mu_0..mu_{n-1} of a longer run are
        // bitwise identical to a fresh run truncated at n.
        let op = DiagonalOp::new((0..48).map(|i| (i as f64 * 0.53).sin() * 0.85).collect());
        let base = KpmParams::new(40)
            .with_random_vectors(5, 3)
            .with_distribution(Distribution::Gaussian)
            .with_seed(321);
        let long = stochastic_moments(&op, &base);
        for n in [2usize, 13, 24, 40] {
            let short = stochastic_moments(&op, &KpmParams { num_moments: n, ..base.clone() });
            let cut = long.truncated(n);
            assert_eq!(cut.mean, short.mean, "mean prefix, n = {n}");
            assert_eq!(cut.std_err, short.std_err, "std_err prefix, n = {n}");
            assert_eq!(cut.samples, short.samples);
        }
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncated_rejects_extension() {
        let stats = MomentStats { mean: vec![1.0; 4], std_err: vec![0.0; 4], samples: 1 };
        let _ = stats.truncated(8);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn pair_moments_match_spectral_decomposition() {
        // <i|T_n(H)|j> = sum_k v_ki T_n(e_k) v_kj from exact eigenvectors.
        let h = kpm_lattice::dense_random_symmetric(12, 1.0, 4);
        let b = kpm_linalg::gershgorin::gershgorin_dense(&h).padded(0.01);
        let op = kpm_linalg::op::RescaledOp::new(&h, b.a_plus(), b.a_minus());
        let (eigs, vecs) = kpm_linalg::eigen::jacobi_eigen(&h).unwrap();

        let (i, j) = (2usize, 7usize);
        let mut ei = vec![0.0; 12];
        let mut ej = vec![0.0; 12];
        ei[i] = 1.0;
        ej[j] = 1.0;
        let mu = pair_vector_moments(&op, &ei, &ej, 16);
        for n in 0..16 {
            let exact: f64 = (0..12)
                .map(|k| {
                    let scaled = (eigs[k] - b.a_plus()) / b.a_minus();
                    vecs.get(i, k) * crate::chebyshev::t(n, scaled) * vecs.get(j, k)
                })
                .sum();
            assert!((mu[n] - exact).abs() < 1e-9, "n = {n}: {} vs {exact}", mu[n]);
        }
    }

    #[test]
    fn pair_moments_are_symmetric_in_l_and_r() {
        // H symmetric => <l|T_n(H)|r> = <r|T_n(H)|l>.
        let h = kpm_lattice::dense_random_symmetric(10, 1.0, 6);
        let b = kpm_linalg::gershgorin::gershgorin_dense(&h).padded(0.01);
        let op = kpm_linalg::op::RescaledOp::new(&h, b.a_plus(), b.a_minus());
        let l: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let r: Vec<f64> = (0..10).map(|i| (i as f64 * 0.7).cos()).collect();
        let lr = pair_vector_moments(&op, &l, &r, 12);
        let rl = pair_vector_moments(&op, &r, &l, 12);
        for n in 0..12 {
            assert!((lr[n] - rl[n]).abs() < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn exact_moments_of_symmetric_spectrum_kill_odd_orders() {
        let eigs: Vec<f64> = vec![-0.8, -0.3, 0.3, 0.8];
        let mu = exact_moments(&eigs, 10);
        for n in (1..10).step_by(2) {
            assert!(mu[n].abs() < 1e-14, "odd moment mu_{n} = {}", mu[n]);
        }
        assert_eq!(mu[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "outside [-1, 1]")]
    fn exact_moments_reject_unscaled_spectrum() {
        let _ = exact_moments(&[2.0], 4);
    }
}
