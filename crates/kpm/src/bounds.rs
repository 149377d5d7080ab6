//! Spectrum-adaptive bounds providers (`kpm::bounds`).
//!
//! The paper rescales with Gershgorin discs (Eq. 8–9), which are loose on
//! disordered lattice Hamiltonians: the rescaled spectrum then occupies only
//! a fraction of `[-1, 1]`, and every unit of wasted support width costs
//! Chebyshev moments at fixed energy resolution. This module adds a
//! deterministic m-step Lanczos provider (Chen, arXiv:2308.15683 §3;
//! Lin–Saad–Yang, arXiv:1308.5467) that returns Ritz-value extremes widened
//! by the per-Ritz residual bound, so the true spectrum is contained while
//! the support stays tight. The probe is the plain three-term recurrence: it
//! needs only the tridiagonal `T_m` and the last residual norm, so it holds
//! three vectors and never reorthogonalizes.
//!
//! Three providers are exposed under one textual grammar, parsed by the
//! [`FromStr`] impl on [`BoundsMethod`]:
//!
//! | syntax          | provider                                         |
//! |-----------------|--------------------------------------------------|
//! | `gershgorin`    | disc bounds, the paper's method (default)        |
//! | `lanczos[:k]`   | k-step contained Lanczos (default k = 64)        |
//! | `manual:a,b`    | caller-supplied `[a, b]`                         |
//!
//! [`resolve`] is the single entry point the estimator, device pipeline,
//! serve workers, and shard partials all route through. When an operator
//! identity is in scope (see [`OpKeyScope`]) the result is memoized under
//! the same FNV-1a-64 `op_key` family the fleet inventory uses, so repeat
//! jobs on one operator never recompute Gershgorin — and never re-run
//! Lanczos. `kpm.bounds.probe` / `kpm.bounds.cache_hit` counters and a
//! `kpm.bounds` labeled span (carrying `a_plus`/`a_minus`) surface the
//! behaviour in `--trace` output.

use crate::error::KpmError;
use crate::kernels::KernelType;
use crate::random::realization_stream;
use crate::rescale::{Boundable, BoundsMethod};
use kpm_linalg::dense::DenseMatrix;
use kpm_linalg::eigen::jacobi_eigen;
use kpm_linalg::gershgorin::SpectralBounds;
use kpm_linalg::op::LinearOp;
use kpm_linalg::vecops::{axpy, dot, norm2, scale};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

/// The provider abstraction is the existing [`BoundsMethod`] enum — this
/// module gives it the textual grammar, the contained Lanczos
/// implementation, and the memoized resolver.
pub type BoundsProvider = BoundsMethod;

/// Krylov steps used by `--bounds lanczos` when no `:k` suffix is given.
///
/// At m = 64 the extreme Ritz values of the paper's lattices are converged
/// to well below the safety margin. The probe costs 64 matvecs plus a few
/// vector passes per step, over three vectors of length `D`, and holds
/// 2.7 MB. On the 48^3 Anderson lattice (`D = 110,592`, `W = 12`) at one
/// thread of a 2-vCPU Xeon host, where the default format builds the
/// matrix-free stencil, the benchmark's traced jobs put the probe's
/// `kpm.bounds` span at 46-75 ms (96-104 ms with `format=csr`),
/// against 156-270 ms for the job's one-thread moment stage (`N = 128`,
/// `R = 8`). Its 64 matvecs took 15-17 ms on the stencil and 47-59 ms on
/// CSR.
pub const DEFAULT_LANCZOS_STEPS: usize = 64;

/// Minimum effective Krylov depth for [`lanczos_contained`].
///
/// `lanczos:K` accepts any `K >= 2` for grammar stability, but the probe
/// silently deepens to this floor (still capped at the operator dimension):
/// below it the extreme Ritz values of a general operator can be far from
/// converged, and the residual-based safety margin would certify a window
/// that misses the true spectral edge.
pub const MIN_CONTAINMENT_STEPS: usize = 12;

/// Master seed for the Lanczos starter vector.
///
/// Drawn through the frozen [`realization_stream`] contract (set 0,
/// realization 0) so the probe is bitwise reproducible everywhere a given
/// operator is assembled — any process, any thread count, any exec plan.
pub const BOUNDS_SEED: u64 = 0x6b70_6d5f_626e_6473; // "kpm_bnds"

impl fmt::Display for BoundsMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsMethod::Gershgorin => write!(f, "gershgorin"),
            BoundsMethod::Lanczos { steps } => write!(f, "lanczos:{steps}"),
            BoundsMethod::Explicit { lower, upper } => write!(f, "manual:{lower},{upper}"),
        }
    }
}

impl FromStr for BoundsMethod {
    type Err = KpmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |msg: String| Err(KpmError::InvalidParameter(msg));
        match s {
            "gershgorin" => Ok(BoundsMethod::Gershgorin),
            "lanczos" => Ok(BoundsMethod::Lanczos { steps: DEFAULT_LANCZOS_STEPS }),
            _ => {
                if let Some(arg) = s.strip_prefix("lanczos:") {
                    let steps: usize = arg.parse().map_err(|_| {
                        KpmError::InvalidParameter(format!("bad lanczos step count '{arg}'"))
                    })?;
                    if steps < 2 {
                        return bad(format!("lanczos needs at least 2 steps, got {steps}"));
                    }
                    Ok(BoundsMethod::Lanczos { steps })
                } else if let Some(arg) = s.strip_prefix("manual:") {
                    let (a, b) = arg.split_once(',').ok_or_else(|| {
                        KpmError::InvalidParameter(format!(
                            "manual bounds need 'manual:lower,upper', got '{s}'"
                        ))
                    })?;
                    let lower: f64 = a.trim().parse().map_err(|_| {
                        KpmError::InvalidParameter(format!("bad manual lower bound '{a}'"))
                    })?;
                    let upper: f64 = b.trim().parse().map_err(|_| {
                        KpmError::InvalidParameter(format!("bad manual upper bound '{b}'"))
                    })?;
                    if !lower.is_finite() || !upper.is_finite() || lower >= upper {
                        return bad(format!(
                            "manual bounds must satisfy lower < upper, got [{lower}, {upper}]"
                        ));
                    }
                    Ok(BoundsMethod::Explicit { lower, upper })
                } else {
                    bad(format!(
                        "unknown bounds provider '{s}' (gershgorin | lanczos[:k] | manual:a,b)"
                    ))
                }
            }
        }
    }
}

/// Contained Lanczos bounds: Ritz extremes plus the residual safety margin.
///
/// Runs `steps` iterations (floored at [`MIN_CONTAINMENT_STEPS`], capped at
/// the operator dimension) of the plain three-term Lanczos recurrence
/// `beta_j v_{j+1} = A v_j - alpha_j v_j - beta_{j-1} v_{j-1}`, holding
/// only `v_{j-1}`, `v_j` and the next residual. Per Chen §3, each Ritz pair
/// `(theta_i, s_i)` of the tridiagonal `T_m` has a residual
/// `||A y_i - theta_i y_i|| = beta_m |s_i[m-1]|`, so the interval
/// `[theta_min - eta_min, theta_max + eta_max]` with `eta_i = beta_m
/// |s_i[m-1]|` contains an eigenvalue-centered window; widening each end by
/// its own residual (plus a relative cushion and a tiny floating-point
/// floor) yields bounds that contain the full spectrum whenever the extreme
/// eigenvectors have any weight in the starter — guaranteed in practice by
/// the random starter.
///
/// Nothing reorthogonalizes, so the basis loses orthogonality once a Ritz
/// value converges. Paige's analysis of the finite-precision recurrence
/// keeps every Ritz value inside `[lambda_min - O(eps ||A||), lambda_max +
/// O(eps ||A||)]`, and the lost orthogonality only adds ghost copies of
/// converged Ritz values; the extremes converge first, so the ghosts never
/// move the window. `tests/bounds_containment.rs` checks this against
/// exact spectra, including clustered, degenerate and outlying extremes.
///
/// Everything is sequential (one starter vector, scalar dot products in
/// fixed order), so the result is bitwise identical across thread counts
/// and exec plans; only `op.apply` runs on the operator's normal
/// (row-deterministic) path.
///
/// # Errors
/// [`KpmError::InvalidParameter`] for an empty operator or `steps < 2`;
/// [`KpmError::Bounds`] if the tridiagonal eigensolve fails.
pub fn lanczos_contained<A: LinearOp + ?Sized>(
    op: &A,
    steps: usize,
) -> Result<SpectralBounds, KpmError> {
    let n = op.dim();
    if n == 0 {
        return Err(KpmError::InvalidParameter("Lanczos bounds need a non-empty operator".into()));
    }
    if steps < 2 {
        return Err(KpmError::InvalidParameter(format!(
            "lanczos needs at least 2 steps, got {steps}"
        )));
    }
    // Floor the Krylov depth: below ~12 steps the extreme Ritz values of a
    // general operator may not have started converging, and the residual
    // margin then measures a well-converged *interior* pair rather than the
    // spectral edge. Capped at `n`, beyond which the Krylov space has no
    // new directions to offer.
    let m_max = steps.max(MIN_CONTAINMENT_STEPS).min(n);

    // Deterministic starter through the frozen realization-stream contract.
    let mut rng = realization_stream(BOUNDS_SEED, 0, 0);
    let mut v: Vec<f64> = (0..n).map(|_| 2.0 * rng.next_unit() - 1.0).collect();
    let nrm = norm2(&v);
    scale(1.0 / nrm, &mut v);

    let mut v_prev = vec![0.0; n];
    let mut w = vec![0.0; n];
    let mut alphas: Vec<f64> = Vec::with_capacity(m_max);
    let mut betas: Vec<f64> = Vec::with_capacity(m_max.saturating_sub(1));
    // Residual norm ||A q_m - (Krylov projection)|| after the final step.
    let mut beta_res = 0.0;
    let mut diag_scale: f64 = 0.0;

    for j in 0..m_max {
        // w = A v_j - beta_{j-1} v_{j-1} - alpha_j v_j, with alpha_j taken
        // after the first subtraction (Paige's ordering).
        op.apply(&v, &mut w);
        if let Some(&beta_prev) = betas.last() {
            axpy(-beta_prev, &v_prev, &mut w);
        }
        let alpha = dot(&w, &v);
        axpy(-alpha, &v, &mut w);
        alphas.push(alpha);
        diag_scale = diag_scale.max(alpha.abs());
        let beta = norm2(&w);
        beta_res = beta;
        if j + 1 == m_max {
            break;
        }
        // Breakdown: the Krylov space is (numerically) invariant, so the
        // Ritz values already equal eigenvalues of the restriction.
        if beta <= f64::EPSILON * diag_scale.max(1.0) {
            break;
        }
        diag_scale = diag_scale.max(beta);
        betas.push(beta);
        // Rotate: v_{j-1} <- v_j, v_{j+1} <- w / beta; the old v_{j-1}
        // becomes the next step's output buffer.
        std::mem::swap(&mut v_prev, &mut v);
        std::mem::swap(&mut v, &mut w);
        scale(1.0 / beta, &mut v);
    }

    let m = alphas.len();
    let t = DenseMatrix::from_fn(m, m, |i, j| {
        if i == j {
            alphas[i]
        } else if i.abs_diff(j) == 1 {
            betas[i.min(j)]
        } else {
            0.0
        }
    });
    let (theta, s) = jacobi_eigen(&t)?;
    // Chen §3: the Ritz pair residual is beta_m * |last component of the
    // tridiagonal eigenvector|; widen each extreme by its own residual.
    let eta_lo = beta_res * s.get(m - 1, 0).abs();
    let eta_hi = beta_res * s.get(m - 1, m - 1).abs();
    let span = theta[m - 1].abs().max(theta[0].abs()).max(1.0);
    // Safety cushion on top of the residuals: a 0.1% slice of the Ritz
    // spread absorbs the (exponentially small, but nonzero) tail where an
    // extreme eigenpair is still converging, at negligible cost to the
    // tightening win; the 1e-12 floor covers pure floating-point noise on
    // operators the recursion resolves exactly.
    let cushion = 1e-3 * (theta[m - 1] - theta[0]);
    let floor = cushion + 1e-12 * span;
    Ok(SpectralBounds::new(theta[0] - eta_lo - floor, theta[m - 1] + eta_hi + floor))
}

/// Moments needed to hit energy resolution `eps` given rescale half-width
/// `a_minus` — the moments-at-fixed-resolution autoselect behind
/// `--resolution`.
///
/// A kernel's resolution on the rescaled axis is `c / N` (Jackson: `c =
/// pi`); mapped back to energy units the achieved resolution is `a_minus *
/// c / N`, so `N = ceil(a_minus * c / eps)`. Tighter bounds shrink
/// `a_minus`, and the whole wall-time win of this module is that `N`
/// shrinks with it.
///
/// # Errors
/// [`KpmError::InvalidParameter`] unless `eps` and `a_minus` are finite
/// and positive.
pub fn moments_for_resolution(
    kernel: KernelType,
    a_minus: f64,
    eps: f64,
) -> Result<usize, KpmError> {
    if !eps.is_finite() || eps <= 0.0 {
        return Err(KpmError::InvalidParameter(format!(
            "resolution must be finite and positive, got {eps}"
        )));
    }
    if !a_minus.is_finite() || a_minus <= 0.0 {
        return Err(KpmError::InvalidParameter(format!(
            "rescale half-width must be finite and positive, got {a_minus}"
        )));
    }
    // kernel.resolution(1) is the constant `c` of the `c / N` law.
    let c = kernel.resolution(1);
    let n = (a_minus * c / eps).ceil();
    if !n.is_finite() || n > u32::MAX as f64 {
        return Err(KpmError::InvalidParameter(format!(
            "resolution {eps} needs an unreasonable moment count ({n})"
        )));
    }
    Ok((n as usize).max(2))
}

thread_local! {
    static CURRENT_OP_KEY: Cell<Option<u64>> = const { Cell::new(None) };
}

/// RAII guard that declares the operator identity for [`resolve`] calls on
/// the current thread.
///
/// Serve workers and shard partials enter a scope with their job's
/// FNV-1a-64 `op_key` (the same hash family the fleet inventory
/// advertises); any `resolve` underneath memoizes per `(op_key, provider)`.
/// Without a scope, `resolve` computes unconditionally — correctness never
/// depends on the cache, which only ever holds deterministic
/// recomputable values.
pub struct OpKeyScope {
    prev: Option<u64>,
}

impl OpKeyScope {
    /// Enters a scope; restored (to the previous scope, if nested) on drop.
    pub fn enter(op_key: u64) -> Self {
        let prev = CURRENT_OP_KEY.with(|c| c.replace(Some(op_key)));
        OpKeyScope { prev }
    }
}

impl Drop for OpKeyScope {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_OP_KEY.with(|c| c.set(prev));
    }
}

/// The operator key currently in scope on this thread, if any.
pub fn current_op_key() -> Option<u64> {
    CURRENT_OP_KEY.with(|c| c.get())
}

fn provider_key(method: BoundsMethod) -> u64 {
    crate::tune::fnv1a(method.to_string().as_bytes())
}

fn cache() -> &'static Mutex<HashMap<(u64, u64), SpectralBounds>> {
    static CACHE: OnceLock<Mutex<HashMap<(u64, u64), SpectralBounds>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drops all memoized bounds. Entries are deterministic and recomputable,
/// so this only exists for tests that assert on probe/hit counters.
pub fn clear_bounds_cache() {
    cache().lock().unwrap().clear();
}

/// Number of memoized `(op_key, provider)` entries — test observability.
pub fn bounds_cache_len() -> usize {
    cache().lock().unwrap().len()
}

/// Resolves spectral bounds for `op`, memoized per operator when an
/// [`OpKeyScope`] is active.
///
/// This is the seam every pipeline routes through (estimator, host device
/// pipeline, shard partials): it bumps `kpm.bounds.probe`, serves repeat
/// probes for a scoped operator from the cache (`kpm.bounds.cache_hit`),
/// and — when tracing is enabled — records a `kpm.bounds` span around
/// each computed probe (a cache hit records none) whose detail carries the
/// provider plus the resulting `a_plus`/`a_minus`.
///
/// # Errors
/// Propagates the provider's error ([`Boundable::spectral_bounds`]).
pub fn resolve<A: Boundable + ?Sized>(
    op: &A,
    method: BoundsMethod,
) -> Result<SpectralBounds, KpmError> {
    kpm_obs::counter_add("kpm.bounds.probe", 1);
    let key = current_op_key().map(|k| (k, provider_key(method)));
    if let Some(k) = key {
        if let Some(hit) = cache().lock().unwrap().get(&k) {
            kpm_obs::counter_add("kpm.bounds.cache_hit", 1);
            return Ok(*hit);
        }
    }
    let span = kpm_obs::span("kpm.bounds");
    let bounds = op.spectral_bounds(method)?;
    if let Some(k) = key {
        cache().lock().unwrap().insert(k, bounds);
    }
    if kpm_obs::enabled() {
        span.set_detail(&format!(
            "{method} a_plus={:.9} a_minus={:.9}",
            bounds.a_plus(),
            bounds.a_minus()
        ));
    }
    Ok(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_linalg::eigen::jacobi_eigenvalues;

    fn chain(n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |i, j| if i.abs_diff(j) == 1 { -1.0 } else { 0.0 })
    }

    #[test]
    fn provider_grammar_round_trips() {
        for (text, want) in [
            ("gershgorin", BoundsMethod::Gershgorin),
            ("lanczos", BoundsMethod::Lanczos { steps: DEFAULT_LANCZOS_STEPS }),
            ("lanczos:48", BoundsMethod::Lanczos { steps: 48 }),
            ("manual:-6,6", BoundsMethod::Explicit { lower: -6.0, upper: 6.0 }),
        ] {
            let parsed: BoundsMethod = text.parse().unwrap();
            assert_eq!(parsed, want, "{text}");
            let rendered = parsed.to_string();
            let reparsed: BoundsMethod = rendered.parse().unwrap();
            assert_eq!(reparsed, parsed, "{text} -> {rendered}");
        }
    }

    #[test]
    fn provider_grammar_rejects_nonsense() {
        for bad in
            ["", "lancelot", "lanczos:one", "lanczos:1", "manual:6", "manual:6,-6", "manual:a,b"]
        {
            assert!(bad.parse::<BoundsMethod>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn lanczos_contains_dense_spectrum_on_chain() {
        let m = chain(24);
        let eig = jacobi_eigenvalues(&m).unwrap();
        let b = lanczos_contained(&m, 64).unwrap();
        assert!(b.lower <= eig[0], "lower {} vs eig {}", b.lower, eig[0]);
        assert!(b.upper >= eig[eig.len() - 1]);
    }

    #[test]
    fn lanczos_is_deterministic() {
        let m = chain(40);
        let a = lanczos_contained(&m, 24).unwrap();
        let b = lanczos_contained(&m, 24).unwrap();
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
    }

    #[test]
    fn moments_autoselect_scales_with_half_width() {
        let n_loose = moments_for_resolution(KernelType::Jackson, 6.0, 0.05).unwrap();
        let n_tight = moments_for_resolution(KernelType::Jackson, 3.0, 0.05).unwrap();
        assert_eq!(n_loose, (6.0 * std::f64::consts::PI / 0.05).ceil() as usize);
        assert!(
            n_tight * 2 == n_loose || n_tight * 2 == n_loose + 1,
            "halving the support should halve the moments: {n_tight} vs {n_loose}"
        );
        assert!(moments_for_resolution(KernelType::Jackson, 6.0, 0.0).is_err());
        assert!(moments_for_resolution(KernelType::Jackson, 0.0, 0.05).is_err());
    }

    #[test]
    fn resolve_memoizes_inside_op_key_scope() {
        let m = chain(16);
        // No scope: recomputed each time, never cached.
        let cold = resolve(&m, BoundsMethod::Gershgorin).unwrap();
        let _scope = OpKeyScope::enter(0x0b0c_d00d_f00d_0001);
        let before = bounds_cache_len();
        let first = resolve(&m, BoundsMethod::Gershgorin).unwrap();
        assert_eq!(first.lower.to_bits(), cold.lower.to_bits());
        assert_eq!(bounds_cache_len(), before + 1);
        let second = resolve(&m, BoundsMethod::Gershgorin).unwrap();
        assert_eq!(bounds_cache_len(), before + 1, "repeat probe must be served from cache");
        assert_eq!(second.upper.to_bits(), first.upper.to_bits());
        // A different provider is a distinct cache identity.
        let l = resolve(&m, BoundsMethod::Lanczos { steps: 32 }).unwrap();
        assert_eq!(bounds_cache_len(), before + 2);
        assert!(l.width() <= first.width() + 1e-9);
    }

    #[test]
    fn op_key_scope_nests_and_restores() {
        assert_eq!(current_op_key(), None);
        {
            let _a = OpKeyScope::enter(1);
            assert_eq!(current_op_key(), Some(1));
            {
                let _b = OpKeyScope::enter(2);
                assert_eq!(current_op_key(), Some(2));
            }
            assert_eq!(current_op_key(), Some(1));
        }
        assert_eq!(current_op_key(), None);
    }
}
