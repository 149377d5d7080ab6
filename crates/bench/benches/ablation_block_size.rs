//! Block-size ablation (the paper's Sec. V future work): measures the
//! tuner's full sweep cost and functional device runs at different
//! `BLOCK_SIZE`s under the block-per-realization mapping. Functional wall
//! time barely depends on the block size (it's simulated), but the modeled
//! time per configuration is printed by the repro binary; here we guard
//! that tuning stays cheap and that changing the block size does not
//! change results.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kpm::moments::KpmParams;
use kpm_lattice::paper_cubic_hamiltonian;
use kpm_stream::tune::tune_block_size;
use kpm_stream::{
    Mapping, MomentLaunchShape, Precision, SparseFormat, StreamKpmEngine, VectorLayout,
};
use kpm_streamsim::GpuSpec;
use std::hint::black_box;

fn bench_tuner(c: &mut Criterion) {
    let spec = GpuSpec::tesla_c2050();
    let shape = MomentLaunchShape {
        dim: 1000,
        stored_entries: 7000,
        dense: false,
        format: SparseFormat::Csr,
        num_moments: 1024,
        realizations: 1792,
        mapping: Mapping::ThreadPerRealization,
        layout: VectorLayout::Interleaved,
        block_size: 128,
        precision: Precision::Double,
    };
    let mut group = c.benchmark_group("ablation_block_size");
    group.sample_size(30);
    group.bench_function("tune_sweep", |b| {
        b.iter(|| black_box(tune_block_size(&spec, &shape, 0.2, None)));
    });
    group.finish();
}

fn bench_functional_block_sizes(c: &mut Criterion) {
    let h = paper_cubic_hamiltonian();
    let params = KpmParams::new(32).with_random_vectors(2, 2).with_seed(4);
    let mut group = c.benchmark_group("ablation_block_size_functional");
    group.sample_size(10);
    for &bs in &[32usize, 64, 128] {
        group.bench_with_input(BenchmarkId::new("block_mapping", bs), &bs, |b, &bs| {
            b.iter(|| {
                let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050())
                    .with_mapping(Mapping::BlockPerRealization)
                    .with_block_size(bs);
                black_box(engine.compute_moments_csr(&h, &params).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tuner, bench_functional_block_sizes);
criterion_main!(benches);
