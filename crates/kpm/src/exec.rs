//! Execution planning: choosing *how* to parallelize a moments run.
//!
//! Every realization chunk runs on the row-tiled engine
//! ([`kpm_linalg::tiled`]), the CPU analogue of the paper's in-kernel GPU
//! parallelism. The stochastic estimator has two independent axes to spread
//! it over:
//!
//! * **Rows** — within one realization block, the matrix dimension is split
//!   into tiles whose fused Chebyshev steps run on several workers.
//! * **Realizations** — the `R * S` random-vector chunks are independent, so
//!   several can be in flight at once ([`ExecPlan::Hybrid`]).
//!
//! [`plan`] picks a schedule from `(D, chunk count, thread budget)`: a lone
//! fat job (one realization chunk, large `D`) can use every core, and an
//! operator below [`ROW_MIN_DIM`] runs its chunks one after another on one
//! thread.
//!
//! # Determinism
//!
//! The tiled engine's canonical segment-order reduction makes results
//! bitwise independent of the thread count, and Rows and Hybrid differ only
//! in scheduling, so every plan gives the same bits for a fixed tile height
//! on the canonical grid. Range-sliced shard workers and the single-process
//! estimator therefore agree bitwise for every `dim`.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

use kpm_linalg::vecops;

/// Smallest operator dimension at which [`ExecPolicy::Auto`] spreads the
/// tiled engine over several threads. Below this even a single tile is only
/// a few microseconds of work per sweep, so the barrier would cost more than
/// it saves.
pub const ROW_MIN_DIM: usize = 512;

/// User-facing execution-policy selector (the CLI's `--exec` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Choose per run from `(D, chunks, threads)`: row/hybrid parallelism
    /// for `D >= ROW_MIN_DIM`, one thread otherwise.
    #[default]
    Auto,
    /// Row-tiled parallelism within each realization chunk; chunks run one
    /// after another.
    Rows,
    /// Split the thread budget across both axes: several realization chunks
    /// in flight, each on a share of the threads.
    Hybrid,
}

impl ExecPolicy {
    /// Canonical lower-case name (also the CLI token).
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecPolicy::Auto => "auto",
            ExecPolicy::Rows => "rows",
            ExecPolicy::Hybrid => "hybrid",
        }
    }
}

impl std::fmt::Display for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ExecPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(ExecPolicy::Auto),
            "rows" => Ok(ExecPolicy::Rows),
            "hybrid" => Ok(ExecPolicy::Hybrid),
            other => Err(format!("unknown exec policy '{other}' (auto|rows|hybrid)")),
        }
    }
}

// Process-wide execution configuration. Serve workers, shard compute
// threads and the CLI all funnel through `stochastic_moments`, so a global
// (set once at startup) is the least invasive way to thread the choice
// everywhere without changing every signature.
static POLICY: AtomicU8 = AtomicU8::new(0); // discriminants of ExecPolicy
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0); // 0 = auto-detect

fn policy_to_u8(p: ExecPolicy) -> u8 {
    match p {
        ExecPolicy::Auto => 0,
        ExecPolicy::Rows => 1,
        ExecPolicy::Hybrid => 2,
    }
}

/// Sets the process-wide execution policy (e.g. from `--exec`).
pub fn set_exec_policy(p: ExecPolicy) {
    POLICY.store(policy_to_u8(p), Ordering::Relaxed);
}

/// The current process-wide execution policy.
pub fn exec_policy() -> ExecPolicy {
    match POLICY.load(Ordering::Relaxed) {
        1 => ExecPolicy::Rows,
        2 => ExecPolicy::Hybrid,
        _ => ExecPolicy::Auto,
    }
}

/// Sets the process-wide thread budget (e.g. from `--threads`); `0` restores
/// auto-detection.
pub fn set_thread_budget(threads: usize) {
    THREAD_BUDGET.store(threads, Ordering::Relaxed);
}

/// The thread budget in effect: the explicit [`set_thread_budget`] value if
/// set, else `RAYON_NUM_THREADS` (read once), else the machine parallelism —
/// always capped at the machine parallelism, because oversubscribing the
/// barrier-synchronized tile engine can only add scheduling latency, never
/// throughput (and the results are bitwise identical either way).
pub fn effective_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let budget = THREAD_BUDGET.load(Ordering::Relaxed);
    if budget > 0 {
        return budget.min(cores);
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    (*ENV.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(cores)
    }))
    .min(cores)
}

/// The `KPM_TILE_ROWS` environment override, if set *and valid*. Read once;
/// `0`, empty, and non-numeric values are rejected with a one-line stderr
/// warning (via [`vecops::positive_env_override`]) and treated as unset.
pub fn env_tile_rows() -> Option<usize> {
    static CACHED: OnceLock<Option<usize>> = OnceLock::new();
    *CACHED.get_or_init(|| vecops::positive_env_override("KPM_TILE_ROWS"))
}

/// Tile height used by the row-parallel plans when no calibrated profile is
/// in play: `KPM_TILE_ROWS` (validated, read once) or
/// [`kpm_linalg::DEFAULT_TILE_ROWS`].
pub fn tile_rows() -> usize {
    resolve_tile_rows(None)
}

/// Resolves the tile height with the documented precedence:
/// **environment override > calibrated profile > built-in prior.** The
/// profile value is what the autotuner measured as fastest; an explicit
/// `KPM_TILE_ROWS` always wins over it (the operator said so), and the
/// [`kpm_linalg::DEFAULT_TILE_ROWS`] prior backs both.
pub fn resolve_tile_rows(profile: Option<usize>) -> usize {
    env_tile_rows().or(profile).unwrap_or(kpm_linalg::DEFAULT_TILE_ROWS)
}

/// The concrete schedule [`plan`] resolved for one moments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPlan {
    /// Tiled fused recursion inside each chunk; chunks in sequence.
    Rows {
        /// Worker threads per chunk.
        threads: usize,
        /// Tile height in rows.
        tile_rows: usize,
    },
    /// Tiled fused recursion inside each chunk, several chunks in flight.
    Hybrid {
        /// Realization chunks in flight at once.
        outer: usize,
        /// Worker threads inside each chunk.
        inner: usize,
        /// Tile height in rows.
        tile_rows: usize,
    },
}

impl ExecPlan {
    /// Canonical plan name for counters and trace labels.
    pub fn name(&self) -> &'static str {
        match self {
            ExecPlan::Rows { .. } => "rows",
            ExecPlan::Hybrid { .. } => "hybrid",
        }
    }
}

/// Resolves the execution plan for a moments run over `chunks` realization
/// chunks of a `dim`-dimensional operator, using [`exec_policy`] /
/// [`effective_threads`] / [`tile_rows`].
///
/// Every plan runs the tiled engine, so slicing the realization range
/// differently (shard workers!), changing the thread budget or picking
/// another policy can never change a single bit of the result.
pub fn plan(dim: usize, chunks: usize) -> ExecPlan {
    plan_with(exec_policy(), dim, chunks, effective_threads(), tile_rows())
}

/// [`plan`], but consulting the calibrated profile store first.
///
/// Under [`ExecPolicy::Auto`] this looks up the measured [`crate::tune`]
/// profile for `(dim, model entries, chunks, threads)` and uses its plan
/// when one exists; the static heuristic in [`plan_with`] is demoted to the
/// cold-start prior. Any explicit `--exec` policy (non-`Auto`) bypasses the
/// store entirely — the operator's word beats the tuner's. Profiles choose
/// only scheduling and canonical-grid tile heights, so calibration can never
/// change a bit of the result.
pub fn plan_for(dim: usize, model_entries: usize, chunks: usize) -> ExecPlan {
    let policy = exec_policy();
    let threads = effective_threads();
    if policy == ExecPolicy::Auto {
        if let Some(plan) = crate::tune::calibrated_plan(dim, model_entries, chunks, threads) {
            return plan;
        }
    }
    plan_with(policy, dim, chunks, threads, tile_rows())
}

/// [`plan`] with every input explicit — the deterministic core, also used
/// directly by benches and tests.
pub fn plan_with(
    policy: ExecPolicy,
    dim: usize,
    chunks: usize,
    threads: usize,
    tile_rows: usize,
) -> ExecPlan {
    let threads = threads.max(1);
    match policy {
        ExecPolicy::Rows => ExecPlan::Rows { threads, tile_rows },
        ExecPolicy::Hybrid => {
            let outer = chunks.clamp(1, threads);
            ExecPlan::Hybrid { outer, inner: (threads / outer).max(1), tile_rows }
        }
        ExecPolicy::Auto => {
            if dim < ROW_MIN_DIM {
                // Tiny operators: a second worker would only add barrier
                // latency to every sweep.
                ExecPlan::Rows { threads: 1, tile_rows }
            } else if chunks >= 2 && threads >= 4 {
                let outer = chunks.clamp(1, threads / 2);
                ExecPlan::Hybrid { outer, inner: (threads / outer).max(1), tile_rows }
            } else {
                ExecPlan::Rows { threads, tile_rows }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TR: usize = 128;

    #[test]
    fn policy_parsing_roundtrips() {
        for p in [ExecPolicy::Auto, ExecPolicy::Rows, ExecPolicy::Hybrid] {
            assert_eq!(p.as_str().parse::<ExecPolicy>().unwrap(), p);
        }
        assert!("gpu".parse::<ExecPolicy>().is_err());
        assert!("realizations".parse::<ExecPolicy>().is_err());
    }

    #[test]
    fn auto_runs_tiny_operators_on_one_thread() {
        for (chunks, threads) in [(1, 1), (8, 8), (64, 32)] {
            assert_eq!(
                plan_with(ExecPolicy::Auto, 256, chunks, threads, TR),
                ExecPlan::Rows { threads: 1, tile_rows: TR }
            );
        }
    }

    #[test]
    fn auto_rows_for_single_fat_chunk() {
        assert_eq!(
            plan_with(ExecPolicy::Auto, 110_592, 1, 8, TR),
            ExecPlan::Rows { threads: 8, tile_rows: TR }
        );
    }

    #[test]
    fn auto_hybrid_splits_the_budget() {
        let plan = plan_with(ExecPolicy::Auto, 1000, 10, 8, TR);
        match plan {
            ExecPlan::Hybrid { outer, inner, tile_rows } => {
                assert_eq!(outer, 4);
                assert_eq!(inner, 2);
                assert_eq!(tile_rows, TR);
                assert!(outer * inner <= 8);
            }
            other => panic!("expected hybrid, got {other:?}"),
        }
    }

    #[test]
    fn auto_rows_when_threads_too_few_to_split() {
        assert_eq!(
            plan_with(ExecPolicy::Auto, 1000, 10, 2, TR),
            ExecPlan::Rows { threads: 2, tile_rows: TR }
        );
    }

    #[test]
    fn explicit_policies_ignore_the_dimension() {
        for dim in [4, 256, 512, 1 << 20] {
            assert_eq!(
                plan_with(ExecPolicy::Rows, dim, 4, 2, TR),
                ExecPlan::Rows { threads: 2, tile_rows: TR }
            );
            assert_eq!(
                plan_with(ExecPolicy::Hybrid, dim, 4, 2, TR),
                ExecPlan::Hybrid { outer: 2, inner: 1, tile_rows: TR }
            );
        }
    }

    #[test]
    fn plan_names_are_stable() {
        assert_eq!(ExecPlan::Rows { threads: 2, tile_rows: TR }.name(), "rows");
        assert_eq!(ExecPlan::Hybrid { outer: 2, inner: 2, tile_rows: TR }.name(), "hybrid");
    }
}
