//! Calibrated-vs-heuristic planning ablation.
//!
//! For the two `ablation_exec` workloads — the paper's Fig. 5 lattice
//! (10x10x10, D = 1000, N = 256) and a 48x48x48 lattice (D = 110,592, out
//! of cache, N = 32) — this times `ExecPolicy::Auto` twice: once with
//! calibration disabled (the static heuristic, the pre-tuner behavior) and
//! once after a `kpm::tune` probe sweep has stored a measured profile. The
//! probe cost is reported separately from the steady-state run time, since
//! the profile store amortizes it across every later run of the shape.
//!
//! Results land in `results/ablation_tune.csv` with a
//! `speedup_vs_heuristic` column — the acceptance evidence that the
//! calibrated planner never loses more than noise to the heuristic and wins
//! where the measured shape differs from the prior.

use criterion::{BenchmarkId, Criterion};
use kpm::prelude::*;
use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};
use kpm_linalg::op::RescaledOp;
use kpm_linalg::{MatrixFormat, SparseMatrix};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 42;
const R: usize = 14; // the paper's random vectors per set

fn cubic(l: usize) -> RescaledOp<SparseMatrix> {
    let tb = TightBinding::new(
        HypercubicLattice::cubic(l, l, l, Boundary::Periodic),
        1.0,
        OnSite::Uniform(0.0),
    )
    .store_zero_diagonal(true);
    let m = tb.build_format(MatrixFormat::Csr);
    let bounds = m.spectral_bounds(BoundsMethod::Gershgorin).expect("bounds");
    rescale(m, bounds, 0.01).expect("rescale")
}

/// Min-of-`reps` wall time in seconds for each of two alternatives, with
/// the reps interleaved A/B so slow host drift hits both sides equally
/// instead of whichever block ran second.
fn time_pair(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        a();
        best.0 = best.0.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b();
        best.1 = best.1.min(t.elapsed().as_secs_f64());
    }
    best
}

fn write_results_csv() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Labels stay comma-free so the CSV parses without quoting.
    let cases = [("cubic-10x10x10", 10usize, 256usize, 15usize), ("cubic-48x48x48", 48, 32, 5)];
    let mut rows =
        vec!["lattice,dim,num_moments,r,threads,cores,mode,plan,tile_rows,probe_ms,seconds,\
         speedup_vs_heuristic"
            .to_string()];

    for (label, l, n, reps) in cases {
        let op = cubic(l);
        let d = op.dim();
        let params = KpmParams::new(n).with_random_vectors(R, 1).with_seed(SEED);
        let chunks = realization_chunk_count(&params, 0..params.total_realizations());
        let threads = kpm::exec::effective_threads();

        // The static heuristic is exactly what `--no-tune` runs; the probe
        // happens once up front (cost reported separately, amortized by the
        // profile store across every later run of the shape).
        set_tuning_enabled(false);
        let heuristic_plan = kpm::exec::plan_for(d, op.model_entries(), chunks);
        set_tuning_enabled(true);
        kpm::tune::store().clear_memory();
        let probe_t0 = Instant::now();
        let profile = ensure_profile(&op, chunks);
        let probe_ms = probe_t0.elapsed().as_secs_f64() * 1e3;
        let plan = profile.plan(threads);

        let (heuristic, calibrated) = time_pair(
            reps,
            || {
                set_tuning_enabled(false);
                black_box(stochastic_moments(&op, &params));
            },
            || {
                set_tuning_enabled(true);
                black_box(stochastic_moments(&op, &params));
            },
        );
        kpm::tune::store().clear_memory();
        set_tuning_enabled(true);

        rows.push(format!(
            "{label},{d},{n},{R},{threads},{cores},heuristic,{},{},0.000,{heuristic:.6},1.000",
            heuristic_plan.name(),
            plan_tile_rows(&heuristic_plan),
        ));
        rows.push(format!(
            "{label},{d},{n},{R},{threads},{cores},calibrated,{},{},{probe_ms:.3},\
             {calibrated:.6},{:.3}",
            plan.name(),
            plan_tile_rows(&plan),
            heuristic / calibrated,
        ));
    }

    // `cargo bench` runs with the package directory as cwd; anchor the
    // output at the workspace root.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation_tune.csv"), rows.join("\n") + "\n")
        .expect("write ablation_tune.csv");
}

fn plan_tile_rows(plan: &ExecPlan) -> usize {
    match plan {
        ExecPlan::Rows { tile_rows, .. } | ExecPlan::Hybrid { tile_rows, .. } => *tile_rows,
    }
}

fn bench_tuned_vs_heuristic(c: &mut Criterion) {
    let op = cubic(10);
    let d = op.dim();
    let params = KpmParams::new(256).with_random_vectors(R, 1).with_seed(SEED);
    let chunks = realization_chunk_count(&params, 0..params.total_realizations());
    let mut group = c.benchmark_group("ablation_tune");
    group.sample_size(10);

    set_tuning_enabled(false);
    group.bench_with_input(BenchmarkId::new("heuristic", d), &d, |b, _| {
        b.iter(|| black_box(stochastic_moments(&op, &params)));
    });

    set_tuning_enabled(true);
    kpm::tune::store().clear_memory();
    ensure_profile(&op, chunks);
    group.bench_with_input(BenchmarkId::new("calibrated", d), &d, |b, _| {
        b.iter(|| black_box(stochastic_moments(&op, &params)));
    });
    kpm::tune::store().clear_memory();
    group.finish();
}

fn main() {
    write_results_csv();
    let mut c = Criterion::default();
    bench_tuned_vs_heuristic(&mut c);
}
