//! Format × block-width ablation on a paper-scale periodic cubic lattice.
//!
//! The baseline is the seed pipeline's inner loop: one vector at a time
//! through CSR (`single_vector_moments`). Against it we run the tiled
//! engine's blocked recursion (`tiled::fused_block_moments_plain`, one
//! thread) over CSR and the matrix-free stencil at block widths
//! R ∈ {1, 8, 14} (14 is the paper's `R` per set). The two formats
//! compute bitwise-identical moments, and the one-vector baseline agrees
//! with them to rounding; the sweep isolates pure storage/traversal cost.
//!
//! The lattice is 48x48x48 (D = 110,592; the bitwise cross-format tests use
//! the paper's 10x10x10). At this size the ~9.7 MB CSR arrays no longer fit
//! in L2, so re-streaming the matrix once per vector — what the one-vector
//! baseline does — costs real bandwidth, and amortizing the sweep over `R`
//! right-hand sides (or generating the pattern on the fly) shows up as the
//! speedup the paper's Fig. 3 blocking targets.
//!
//! Besides the criterion groups, a manual min-of-3 timing sweep is written
//! to `results/ablation_formats.csv` so the repository records the numbers
//! the acceptance criterion refers to.

use criterion::{BenchmarkId, Criterion};
use kpm::moments::{single_vector_moments, Recursion};
use kpm::prelude::*;
use kpm::random::fill_random_vector;
use kpm_lattice::OnSite;
use kpm_lattice::{Boundary, HypercubicLattice, TightBinding};
use kpm_linalg::op::RescaledOp;
use kpm_linalg::tiled::fused_block_moments_plain;
use kpm_linalg::{MatrixFormat, SparseMatrix, DEFAULT_TILE_ROWS};
use std::hint::black_box;
use std::time::Instant;

const NUM_MOMENTS: usize = 64;
const WIDTHS: [usize; 3] = [1, 8, 14];
const SEED: u64 = 42;
const L: usize = 48;

fn paper_model() -> TightBinding {
    TightBinding::new(
        HypercubicLattice::cubic(L, L, L, Boundary::Periodic),
        1.0,
        OnSite::Uniform(0.0),
    )
    .store_zero_diagonal(true)
}

fn rescaled(m: SparseMatrix) -> RescaledOp<SparseMatrix> {
    let bounds = m.spectral_bounds(BoundsMethod::Gershgorin).expect("bounds");
    rescale(m, bounds, 0.01).expect("rescale")
}

fn start_block(dim: usize, r: usize) -> Vec<f64> {
    let mut block = vec![0.0; dim * r];
    for (j, col) in block.chunks_exact_mut(dim).enumerate() {
        fill_random_vector(Distribution::Rademacher, SEED, 0, j, col);
    }
    block
}

/// The seed path: R independent one-vector recursions over CSR.
fn one_vector_csr(op: &RescaledOp<SparseMatrix>, block: &[f64], r: usize) -> Vec<Vec<f64>> {
    let d = op.dim();
    (0..r)
        .map(|j| {
            single_vector_moments(op, &block[j * d..(j + 1) * d], NUM_MOMENTS, Recursion::Plain)
        })
        .collect()
}

/// The tiled engine over one `D x r` block, on one thread.
fn blocked(op: &RescaledOp<SparseMatrix>, block: &[f64], r: usize) -> Vec<Vec<f64>> {
    fused_block_moments_plain(op, block, r, NUM_MOMENTS, 1, DEFAULT_TILE_ROWS).0
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

/// Manual min-of-3 sweep recorded to `results/ablation_formats.csv`.
fn write_results_csv() {
    let tb = paper_model();
    let csr = rescaled(tb.build_format(MatrixFormat::Csr));
    let stencil = rescaled(tb.build_format(MatrixFormat::Stencil));
    let d = csr.dim();

    let mut rows = vec!["variant,format,r,num_moments,seconds,per_vector_us".to_string()];
    let mut push = |variant: &str, format: &str, r: usize, secs: f64| {
        rows.push(format!(
            "{variant},{format},{r},{NUM_MOMENTS},{secs:.6},{:.2}",
            secs / r as f64 * 1e6
        ));
    };
    for &r in &WIDTHS {
        let block = start_block(d, r);
        push(
            "one_vector",
            "csr",
            r,
            time_it(|| {
                black_box(one_vector_csr(&csr, &block, r));
            }),
        );
        for (name, op) in [("csr", &csr), ("stencil", &stencil)] {
            push(
                "blocked",
                name,
                r,
                time_it(|| {
                    black_box(blocked(op, &block, r));
                }),
            );
        }
    }
    // `cargo bench` runs the binary with the package directory as cwd, so
    // anchor the output at the workspace root instead of crates/bench.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation_formats.csv"), rows.join("\n") + "\n")
        .expect("write ablation_formats.csv");
}

fn bench_formats(c: &mut Criterion) {
    let tb = paper_model();
    let variants = [
        ("csr", rescaled(tb.build_format(MatrixFormat::Csr))),
        ("stencil", rescaled(tb.build_format(MatrixFormat::Stencil))),
    ];
    let d = variants[0].1.dim();
    let mut group = c.benchmark_group("ablation_formats");
    group.sample_size(5);
    for &r in &WIDTHS {
        let block = start_block(d, r);
        group.bench_with_input(BenchmarkId::new("one_vector_csr", r), &r, |b, &r| {
            b.iter(|| black_box(one_vector_csr(&variants[0].1, &block, r)));
        });
        for (name, op) in &variants {
            group.bench_with_input(BenchmarkId::new(format!("blocked_{name}"), r), &r, |b, &r| {
                b.iter(|| black_box(blocked(op, &block, r)));
            });
        }
    }
    group.finish();
}

fn main() {
    write_results_csv();
    let mut c = Criterion::default();
    bench_formats(&mut c);
}
