//! Ablation benches for algorithmic choices inside the core library:
//!
//! * the paper's loop (`pair_vector_moments` with `l = r0`, one matvec
//!   per moment) vs the moment-doubling recursion (`single_vector_moments`,
//!   which should approach 2× on matvec-dominated workloads);
//! * FFT-backed DCT-III reconstruction vs the naive `O(K N)` sum;
//! * damping-kernel coefficient generation (all four kernels).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kpm::dct;
use kpm::kernels::KernelType;
use kpm::moments::{pair_vector_moments, single_vector_moments};
use kpm::random::{fill_random_vector, Distribution};
use kpm_lattice::paper_cubic_hamiltonian;
use kpm_linalg::gershgorin::gershgorin_csr;
use kpm_linalg::op::RescaledOp;
use std::hint::black_box;

fn bench_recursion(c: &mut Criterion) {
    let h = paper_cubic_hamiltonian();
    let b = gershgorin_csr(&h).padded(0.01);
    let op = RescaledOp::new(&h, b.a_plus(), b.a_minus());
    let mut r0 = vec![0.0; 1000];
    fill_random_vector(Distribution::Rademacher, 9, 0, 0, &mut r0);

    let mut group = c.benchmark_group("ablation_recursion");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("plain", 256), |bch| {
        bch.iter(|| black_box(pair_vector_moments(&op, &r0, &r0, 256)));
    });
    group.bench_function(BenchmarkId::new("doubling", 256), |bch| {
        bch.iter(|| black_box(single_vector_moments(&op, &r0, 256)));
    });
    group.finish();
}

fn bench_reconstruction(c: &mut Criterion) {
    let coeffs: Vec<f64> = (0..512).map(|n| ((n as f64) * 0.11).sin() / (n + 1) as f64).collect();
    let mut group = c.benchmark_group("ablation_reconstruction");
    group.sample_size(20);
    for &k in &[1024usize, 4096] {
        group.bench_with_input(BenchmarkId::new("dct_fft", k), &k, |b, &k| {
            b.iter(|| black_box(dct::reconstruction_sums(&coeffs, k)));
        });
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |b, &k| {
            b.iter(|| black_box(dct::dct3_naive(&coeffs, k)));
        });
    }
    group.finish();
}

fn bench_kernel_coefficients(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_kernel_coefficients");
    group.sample_size(30);
    let kernels = [
        ("jackson", KernelType::Jackson),
        ("lorentz", KernelType::Lorentz { lambda: 4.0 }),
        ("fejer", KernelType::Fejer),
        ("dirichlet", KernelType::Dirichlet),
    ];
    for (name, k) in kernels {
        group.bench_function(BenchmarkId::new(name, 2048), |b| {
            b.iter(|| black_box(k.coefficients(2048)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recursion, bench_reconstruction, bench_kernel_coefficients);
criterion_main!(benches);
