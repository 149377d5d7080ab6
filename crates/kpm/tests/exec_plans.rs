//! Integration tests for the row-tiled execution engine: agreement with the
//! one-vector recursion across random lattices/formats/tile sizes, bitwise
//! plan and thread-count determinism through `stochastic_moments`, and the
//! shard range-slicing contract.
//!
//! `ExecPolicy` / the thread budget are process-global, so every test that
//! mutates them serializes on [`POLICY_LOCK`] and restores the defaults on
//! drop; the engine-level property test uses only explicit arguments and
//! needs no lock.

use kpm::moments::pair_vector_moments;
use kpm::prelude::*;
use kpm::random::fill_random_vector;
use kpm_lattice::spec::LatticeSpec;
use kpm_lattice::{Boundary, OnSite};
use kpm_linalg::op::RescaledOp;
use kpm_linalg::tiled::fused_block_moments_doubling;
use kpm_linalg::{MatrixFormat, SparseMatrix};
use proptest::prelude::*;
use std::sync::Mutex;

static POLICY_LOCK: Mutex<()> = Mutex::new(());

/// Holds the policy lock and restores `Auto` / auto-threads on drop, so a
/// panicking test cannot leak a tiled policy into its neighbours.
struct PolicyGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl Drop for PolicyGuard {
    fn drop(&mut self) {
        set_exec_policy(ExecPolicy::Auto);
        set_thread_budget(0);
        set_tuning_enabled(true);
        kpm::tune::store().clear_memory();
    }
}

fn policy_guard() -> PolicyGuard {
    PolicyGuard(POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

fn lattice(spec: &str, fmt: MatrixFormat) -> SparseMatrix {
    LatticeSpec::parse(spec).unwrap().build_format(
        1.0,
        OnSite::Uniform(0.0),
        Boundary::Periodic,
        fmt,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tiled fused engine agrees with the untiled one-vector recursions,
    /// moment doubling and the paper's loop, column by column, to 1e-12
    /// relative for random lattices, storage formats, tile sizes, and worker
    /// counts. (They are *not* bitwise equal: the per-tile dot accumulation
    /// associates differently from `vecops::dot`.)
    #[test]
    fn tiled_fused_agrees_with_untiled_serial(
        lx in 2usize..5,
        ly in 2usize..5,
        lz in 2usize..4,
        fmt_idx in 0usize..2,
        tile_rows in 1usize..70,
        threads in 1usize..5,
        seed in 0u64..512,
    ) {
        let fmt = [MatrixFormat::Csr, MatrixFormat::Stencil][fmt_idx];
        let h = lattice(&format!("cubic:{lx},{ly},{lz}"), fmt);
        let d = h.dim();
        let op = RescaledOp::new(h, 0.0, 8.0);
        let (k, n) = (3usize, 14usize);
        let mut r0 = vec![0.0; d * k];
        fill_random_vector(Distribution::Rademacher, seed, 0, 0, &mut r0);

        let (tiled, _stats) = fused_block_moments_doubling(&op, &r0, k, n, threads, tile_rows);

        for (j, (t, col)) in tiled.iter().zip(r0.chunks_exact(d)).enumerate() {
            prop_assert_eq!(t.len(), n);
            for r in [single_vector_moments(&op, col, n), pair_vector_moments(&op, col, col, n)] {
                for m in 0..n {
                    let scale = r[m].abs().max(d as f64);
                    prop_assert!(
                        (t[m] - r[m]).abs() <= 1e-12 * scale,
                        "col {} moment {}: tiled {} vs reference {}",
                        j, m, t[m], r[m]
                    );
                }
            }
        }
    }
}

/// On the paper's Fig. 5 lattice (`cubic:10,10,10`, D = 1000, N = 256) the
/// tiled plans reproduce the untiled one-vector estimator to 1e-12
/// relative, and the tiled moments are bitwise identical for any thread
/// budget — the pinned acceptance criterion for the engine.
#[test]
fn fig5_config_tiled_matches_untiled_and_is_thread_stable() {
    let _g = policy_guard();
    let h = lattice("cubic:10,10,10", MatrixFormat::Csr);
    let op = RescaledOp::new(h, 0.0, 8.0);
    let params = KpmParams::new(256).with_random_vectors(2, 1).with_seed(42);

    // The reference runs each realization on its own through the untiled
    // one-vector recursion, then merges them in canonical order.
    let d = op.dim();
    let rows: Vec<Vec<f64>> = (0..params.total_realizations())
        .map(|idx| {
            let (s, r) = (idx / params.num_random, idx % params.num_random);
            let mut r0 = vec![0.0; d];
            fill_random_vector(params.distribution, params.seed, s, r, &mut r0);
            let mu = single_vector_moments(&op, &r0, params.num_moments);
            mu.into_iter().map(|m| m / d as f64).collect()
        })
        .collect();
    let reference = MomentStats::merge_realizations(&rows);

    set_exec_policy(ExecPolicy::Rows);
    let tiled: Vec<MomentStats> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            set_thread_budget(t);
            stochastic_moments(&op, &params)
        })
        .collect();

    for r in &tiled[1..] {
        assert_eq!(r.mean, tiled[0].mean, "tiled moments must be bitwise thread-stable");
        assert_eq!(r.std_err, tiled[0].std_err);
    }
    assert_eq!(tiled[0].samples, reference.samples);
    for (m, (&t, &r)) in tiled[0].mean.iter().zip(&reference.mean).enumerate() {
        let scale = r.abs().max(1.0);
        assert!((t - r).abs() <= 1e-12 * scale, "moment {m}: tiled {t} vs untiled {r}");
    }
}

/// The Lanczos bounds probe is sequential by construction, so a full DoS
/// run under `--bounds lanczos` — probe, rescale, moments, reconstruct —
/// is bitwise identical across exec policies and thread budgets.
#[test]
fn lanczos_bounds_dos_is_bitwise_across_plans_and_threads() {
    let _g = policy_guard();
    // Disordered operator: the one place Lanczos actually moves the window.
    let h = LatticeSpec::parse("chain:96").unwrap().build_format(
        1.0,
        OnSite::Disorder { width: 6.0, seed: 3 },
        Boundary::Periodic,
        MatrixFormat::Csr,
    );
    let params = KpmParams::new(64)
        .with_random_vectors(3, 2)
        .with_seed(11)
        .with_bounds(BoundsMethod::Lanczos { steps: 32 });
    let dos_under = |policy: ExecPolicy, threads: usize| {
        set_exec_policy(policy);
        set_thread_budget(threads);
        DosEstimator::new(params.clone()).compute(&h).unwrap()
    };
    let reference = dos_under(ExecPolicy::Auto, 1);
    for policy in [ExecPolicy::Auto, ExecPolicy::Rows, ExecPolicy::Hybrid] {
        for threads in [1usize, 2, 4] {
            let dos = dos_under(policy, threads);
            let same_bits = |a: &[f64], b: &[f64]| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            assert!(
                same_bits(&dos.rho, &reference.rho)
                    && same_bits(&dos.energies, &reference.energies),
                "{policy:?} x {threads} threads must reproduce the reference bitwise"
            );
        }
    }
}

/// `Rows` and `Hybrid` are scheduling choices over the same tiled value
/// family: for a fixed seed they produce bitwise-identical statistics, for
/// any thread budget.
#[test]
fn rows_and_hybrid_policies_are_bitwise_identical() {
    let _g = policy_guard();
    let h = lattice("chain:600", MatrixFormat::Csr);
    let op = RescaledOp::new(h, 0.0, 3.0);
    let params = KpmParams::new(32).with_random_vectors(3, 2).with_seed(11);

    let runs: Vec<MomentStats> = [
        (ExecPolicy::Rows, 1usize),
        (ExecPolicy::Rows, 2),
        (ExecPolicy::Rows, 4),
        (ExecPolicy::Hybrid, 2),
        (ExecPolicy::Hybrid, 4),
    ]
    .iter()
    .map(|&(p, t)| {
        set_exec_policy(p);
        set_thread_budget(t);
        stochastic_moments(&op, &params)
    })
    .collect();

    for r in &runs[1..] {
        assert_eq!(r.mean, runs[0].mean);
        assert_eq!(r.std_err, runs[0].std_err);
        assert_eq!(r.samples, runs[0].samples);
    }
}

/// A traced tiled run names the copies of the moment kernels that ran:
/// `kpm.exec.isa.avx2` or `kpm.exec.isa.baseline`, once per realization
/// chunk, and never both.
#[test]
fn traced_tiled_run_counts_the_kernel_isa_once_per_chunk() {
    let _g = policy_guard();
    set_exec_policy(ExecPolicy::Rows);
    set_thread_budget(1);
    let h = lattice("chain:600", MatrixFormat::Csr);
    let op = RescaledOp::new(h, 0.0, 3.0);
    let params = KpmParams::new(16).with_random_vectors(3, 2).with_seed(3);
    let chunks = realization_chunk_count(&params, 0..params.total_realizations());
    assert_eq!(chunks, 2, "one chunk per realization set");

    let handle = TraceHandle::begin();
    stochastic_moments(&op, &params);
    let report = handle.finish();

    let ran = kpm_linalg::isa::active();
    let other = if ran == "avx2" { "baseline" } else { "avx2" };
    assert_eq!(report.counter(&format!("kpm.exec.isa.{ran}")), Some(chunks as u64));
    assert_eq!(report.counter(&format!("kpm.exec.isa.{other}")), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Calibration never changes the value family: for every profile the
    /// tuner can emit on a tiled-dimension operator (`Rows` or `Hybrid`,
    /// any canonical-grid tile height, any outer split) and every thread
    /// budget, the moments with the profile installed are **bitwise
    /// identical** to the cold-start (static prior) run.
    #[test]
    fn calibrated_profiles_preserve_bitwise_moments(
        hybrid in any::<bool>(),
        tile_mult in 1usize..5,
        outer in 2usize..5,
        threads in 1usize..5,
        seed in 0u64..128,
    ) {
        let _g = policy_guard();
        let h = lattice("chain:600", MatrixFormat::Csr);
        let op = RescaledOp::new(h, 0.0, 3.0);
        let params = KpmParams::new(16).with_random_vectors(3, 2).with_seed(seed);
        set_thread_budget(threads);

        // Cold start: empty store, Auto falls back to the static prior.
        kpm::tune::store().clear_memory();
        let cold = stochastic_moments(&op, &params);

        // Install a measured profile for the exact shape `plan_for` keys on.
        let chunks = realization_chunk_count(&params, 0..params.total_realizations());
        let shape = ProbeShape {
            dim: op.dim(),
            entries: op.model_entries(),
            chunks,
            threads: kpm::exec::effective_threads(),
        };
        let profile = ExecProfile {
            shape,
            policy: if hybrid { ExecPolicy::Hybrid } else { ExecPolicy::Rows },
            outer: if hybrid { outer } else { 0 },
            tile_rows: tile_mult * kpm_linalg::DEFAULT_TILE_ROWS,
            probe_nanos: 1,
            origin: kpm::tune::ProfileOrigin::Measured,
        };
        kpm::tune::store().insert(profile);
        let calibrated = stochastic_moments(&op, &params);
        kpm::tune::store().clear_memory();

        prop_assert_eq!(&cold.mean, &calibrated.mean,
            "calibrated run must be bitwise identical to cold start");
        prop_assert_eq!(&cold.std_err, &calibrated.std_err);
    }
}

/// Below `ROW_MIN_DIM` the tuner only ever records the one-thread `Rows`
/// prior; a present profile is bitwise identical to the cold-start run
/// there too.
#[test]
fn small_dim_prior_profile_is_bitwise_stable() {
    let _g = policy_guard();
    let h = lattice("chain:100", MatrixFormat::Csr);
    let op = RescaledOp::new(h, 0.0, 3.0);
    let params = KpmParams::new(16).with_random_vectors(2, 2).with_seed(5);

    kpm::tune::store().clear_memory();
    let cold = stochastic_moments(&op, &params);

    // `ensure_profile` on a small dim records the prior without probing.
    let chunks = realization_chunk_count(&params, 0..params.total_realizations());
    let profile = kpm::tune::ensure_profile(&op, chunks);
    assert_eq!(profile.policy, ExecPolicy::Rows);
    assert_eq!(profile.origin, kpm::tune::ProfileOrigin::Prior);
    let with_profile = stochastic_moments(&op, &params);

    assert_eq!(cold.mean, with_profile.mean);
    assert_eq!(cold.std_err, with_profile.std_err);
}

/// Below `ROW_MIN_DIM`, `Auto` runs the same tiled engine as the explicit
/// plans: on lattices wider than one canonical segment (D = 144, 216, 343)
/// its moments are bitwise equal to `Rows` and `Hybrid` at any thread
/// budget.
#[test]
fn auto_below_row_min_dim_is_bitwise_equal_to_rows_and_hybrid() {
    let _g = policy_guard();
    for spec in ["square:12,12", "cubic:6,6,6", "cubic:7,7,7"] {
        let h = lattice(spec, MatrixFormat::Csr);
        assert!(h.dim() > kpm_linalg::DEFAULT_TILE_ROWS && h.dim() < kpm::exec::ROW_MIN_DIM);
        let op = RescaledOp::new(h, 0.0, 8.0);
        let params = KpmParams::new(64).with_random_vectors(3, 2).with_seed(9);
        set_exec_policy(ExecPolicy::Auto);
        set_thread_budget(1);
        let auto = stochastic_moments(&op, &params);
        for policy in [ExecPolicy::Auto, ExecPolicy::Rows, ExecPolicy::Hybrid] {
            for threads in [1usize, 2, 4] {
                set_exec_policy(policy);
                set_thread_budget(threads);
                let run = stochastic_moments(&op, &params);
                assert_eq!(run.mean, auto.mean, "{spec}: {policy} x {threads} threads");
                assert_eq!(run.std_err, auto.std_err, "{spec}: {policy} x {threads} threads");
            }
        }
    }
}

/// The shard contract survives the tiled engine: slicing the realization
/// ensemble into ranges (as the distributed workers do) reproduces the
/// full-range per-realization moments bitwise, even though a cut through a
/// realization set narrows the block the tiled kernels sweep.
#[test]
fn sharded_ranges_merge_bitwise_under_tiled_plans() {
    let _g = policy_guard();
    set_exec_policy(ExecPolicy::Rows);
    set_thread_budget(3);
    let h = lattice("chain:520", MatrixFormat::Stencil);
    let op = RescaledOp::new(h, 0.0, 3.0);
    let params = KpmParams::new(24).with_random_vectors(3, 2).with_seed(7);

    let total = params.total_realizations();
    let full = per_realization_moments(&op, &params, 0..total);
    for shards in [2usize, 3, 5] {
        let mut merged = Vec::new();
        for range in shard_plan(total, shards) {
            merged.extend(per_realization_moments(&op, &params, range));
        }
        assert_eq!(merged, full, "{shards} shards must reproduce the full run bitwise");
    }
}
