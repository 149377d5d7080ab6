//! Execution-plan ablation: row-tiled vs hybrid.
//!
//! Sweeps thread budgets {1, 2, 4, 8} across the two explicit policies on
//! the paper's Fig. 5 lattice (10x10x10, D = 1000) and on a 48x48x48
//! lattice (D = 110,592, out of cache). Both run the same tiled engine and
//! give the same bits; they differ only in how the threads are spread over
//! rows and realization sets.
//!
//! Results land in `results/ablation_exec.csv`. The machine may have fewer
//! cores than the requested budget, so each row records the requested
//! budget, the worker threads the engine actually spawns, and the host's
//! core count — speedups should be judged against `cores`.

use criterion::{BenchmarkId, Criterion};
use kpm::prelude::*;
use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};
use kpm_linalg::op::RescaledOp;
use kpm_linalg::{MatrixFormat, SparseMatrix};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 42;
const R: usize = 14; // the paper's random vectors per set
const THREADS: [usize; 4] = [1, 2, 4, 8];
const POLICIES: [ExecPolicy; 2] = [ExecPolicy::Rows, ExecPolicy::Hybrid];

fn cubic(l: usize) -> RescaledOp<SparseMatrix> {
    let tb = TightBinding::new(
        HypercubicLattice::cubic(l, l, l, Boundary::Periodic),
        1.0,
        OnSite::Uniform(0.0),
    )
    .store_zero_diagonal(true);
    let m = tb.build_format(MatrixFormat::Ell);
    let bounds = m.spectral_bounds(BoundsMethod::Gershgorin).expect("bounds");
    rescale(m, bounds, 0.01).expect("rescale")
}

/// Min-of-3 wall time in seconds.
fn time_it(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn write_results_csv() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cases = [("cubic:10,10,10", 10usize, 256usize), ("cubic:48,48,48", 48, 32)];
    let mut rows =
        vec!["variant,lattice,dim,policy,plan,threads,workers,cores,num_moments,r,seconds"
            .to_string()];

    for (label, l, n) in cases {
        let op = cubic(l);
        let d = op.dim();
        let params = KpmParams::new(n).with_random_vectors(R, 1).with_seed(SEED);
        for policy in POLICIES {
            set_exec_policy(policy);
            for threads in THREADS {
                set_thread_budget(threads);
                let plan = kpm::exec::plan(d, 1);
                let workers = match plan {
                    ExecPlan::Rows { threads, tile_rows } => {
                        threads.clamp(1, d.div_ceil(tile_rows))
                    }
                    ExecPlan::Hybrid { inner, tile_rows, .. } => {
                        inner.clamp(1, d.div_ceil(tile_rows))
                    }
                };
                let secs = time_it(|| {
                    black_box(stochastic_moments(&op, &params));
                });
                rows.push(format!(
                    "plan_sweep,{label},{d},{},{},{threads},{workers},{cores},{n},{R},{secs:.6}",
                    policy.as_str(),
                    plan.name()
                ));
            }
        }
        set_exec_policy(ExecPolicy::Auto);
        set_thread_budget(0);
    }

    // `cargo bench` runs with the package directory as cwd; anchor the
    // output at the workspace root.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation_exec.csv"), rows.join("\n") + "\n")
        .expect("write ablation_exec.csv");
}

fn bench_exec_plans(c: &mut Criterion) {
    let op = cubic(10);
    let params = KpmParams::new(256).with_random_vectors(R, 1).with_seed(SEED);
    let mut group = c.benchmark_group("ablation_exec");
    group.sample_size(10);
    for policy in POLICIES {
        set_exec_policy(policy);
        for threads in [1usize, 4] {
            set_thread_budget(threads);
            group.bench_with_input(BenchmarkId::new(policy.as_str(), threads), &threads, |b, _| {
                b.iter(|| black_box(stochastic_moments(&op, &params)));
            });
        }
    }
    set_exec_policy(ExecPolicy::Auto);
    set_thread_budget(0);
    group.finish();
}

fn main() {
    write_results_csv();
    let mut c = Criterion::default();
    bench_exec_plans(&mut c);
}
