//! Random vectors for the stochastic trace estimator.
//!
//! The paper's Eq. (14) requires i.i.d. components with zero mean and unit
//! variance, `<<xi_{r,i}>> = 0`, `<<xi xi'>> = delta delta`. Any such
//! distribution yields an unbiased trace estimate; the variance of the
//! estimator differs. Rademacher (±1) minimizes the single-vector variance
//! for the diagonal part and is the default; Gaussian matches the common
//! alternative in the literature.
//!
//! Seeding is counter-based: vector `(s, r)` draws from a SplitMix64 stream
//! keyed by `(master_seed, s, r)`, so any realization can be regenerated
//! independently of the others — the property the GPU implementation relies
//! on to generate vectors inside the kernel, and the reason CPU and GPU
//! paths can be compared vector-for-vector.
//!
//! A block of realizations can be drawn column by column
//! ([`fill_random_vector`] per column) or straight into the row-interleaved
//! layout of the tiled engine ([`fill_random_rows`]), whose `k` streams
//! advance in lockstep, one component each per row. Either way column `j`
//! is the stream of its own `(master_seed, s, r)`, so the layout of a block
//! never changes a bit of it and the frozen stream contract holds.

/// Component distribution for random vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Components ±1 with equal probability.
    Rademacher,
    /// Standard normal components (Box–Muller).
    Gaussian,
    /// Uniform on `[-sqrt(3), sqrt(3)]` (unit variance).
    Uniform,
}

/// A deterministic SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mixes `(master_seed, s, r)` into an independent stream key.
///
/// Distinct `(s, r)` pairs map to distinct, well-separated seeds (SplitMix64
/// scrambling of a unique 64-bit encoding).
pub fn realization_seed(master_seed: u64, s: usize, r: usize) -> u64 {
    let mut mix = SplitMix64::new(
        master_seed ^ (s as u64).wrapping_mul(0xa076_1d64_78bd_642f) ^ (r as u64).rotate_left(32),
    );
    // One extra scramble decorrelates adjacent (s, r).
    mix.next_u64()
}

/// The raw per-realization RNG stream for `(master_seed, s, r)`.
///
/// This is the single seed-derivation point of the whole codebase: every
/// random vector — scalar path, blocked path, simulated-GPU kernels, and
/// distributed shard workers — draws its components from exactly this
/// stream. The key property is **shard-layout independence**: the stream
/// depends only on the triple `(master_seed, s, r)`, never on which
/// process, thread, block, or shard evaluates realization `(s, r)`. That is
/// what makes distributed moment computation bitwise reproducible — a
/// coordinator can split `S x R` realizations across workers arbitrarily
/// and each worker regenerates identical vectors.
///
/// The mapping is pinned by tests (`realization_stream_is_pinned`); changing
/// it is a wire-format-level break that silently invalidates every cached
/// moment set and cross-version shard run, so treat the constants as frozen.
pub fn realization_stream(master_seed: u64, s: usize, r: usize) -> SplitMix64 {
    SplitMix64::new(realization_seed(master_seed, s, r))
}

/// A per-realization random-component stream.
///
/// Yields exactly the sequence [`fill_random_vector`] writes, one component
/// at a time — the simulated-GPU kernels drive this directly so their
/// vectors are bit-identical to the CPU reference's.
#[derive(Debug, Clone)]
pub struct RandomStream {
    dist: Distribution,
    rng: SplitMix64,
    /// Second Box–Muller value waiting to be handed out.
    pending: Option<f64>,
}

impl RandomStream {
    /// Stream for realization `(s, r)` under `master_seed`.
    pub fn new(dist: Distribution, master_seed: u64, s: usize, r: usize) -> Self {
        Self { dist, rng: realization_stream(master_seed, s, r), pending: None }
    }

    /// Next random component.
    ///
    /// (Deliberately named `next` to read like an RNG stream; the type does
    /// not implement `Iterator` because it is infinite and `f64`-only.)
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        match self.dist {
            Distribution::Rademacher => {
                if self.rng.next_u64() & 1 == 0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Distribution::Gaussian => {
                if let Some(v) = self.pending.take() {
                    return v;
                }
                // Box–Muller; rejection for u1 = 0.
                let mut u1 = self.rng.next_unit();
                while u1 == 0.0 {
                    u1 = self.rng.next_unit();
                }
                let u2 = self.rng.next_unit();
                let radius = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                self.pending = Some(radius * theta.sin());
                radius * theta.cos()
            }
            Distribution::Uniform => (self.rng.next_unit() * 2.0 - 1.0) * 3.0f64.sqrt(),
        }
    }
}

/// Fills `out` with one random vector for realization `(s, r)`.
pub fn fill_random_vector(
    dist: Distribution,
    master_seed: u64,
    s: usize,
    r: usize,
    out: &mut [f64],
) {
    let mut stream = RandomStream::new(dist, master_seed, s, r);
    for v in out.iter_mut() {
        *v = stream.next();
    }
}

/// Fills `out` with the realizations `(s, r)`, `r` in `rs`, as one
/// row-interleaved `D x k` block (`k = rs.len()`): component `i` of
/// realization `(s, rs.start + j)` at `out[i * k + j]`.
///
/// The `k` streams advance in lockstep, one component each per row, so
/// column `j` is bitwise equal to what [`fill_random_vector`] writes for
/// `(s, rs.start + j)`.
///
/// # Panics
/// Panics if `rs` is empty or `out.len()` is not a multiple of `rs.len()`.
pub fn fill_random_rows(
    dist: Distribution,
    master_seed: u64,
    s: usize,
    rs: std::ops::Range<usize>,
    out: &mut [f64],
) {
    let k = rs.len();
    assert!(
        k > 0 && out.len().is_multiple_of(k),
        "fill_random_rows: {} values for {k} columns",
        out.len()
    );
    let mut streams: Vec<RandomStream> =
        rs.map(|r| RandomStream::new(dist, master_seed, s, r)).collect();
    for row in out.chunks_exact_mut(k) {
        for (v, stream) in row.iter_mut().zip(&mut streams) {
            *v = stream.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DISTS: [Distribution; 3] =
        [Distribution::Rademacher, Distribution::Gaussian, Distribution::Uniform];

    #[test]
    fn deterministic_per_realization() {
        for dist in DISTS {
            let mut a = vec![0.0; 64];
            let mut b = vec![0.0; 64];
            fill_random_vector(dist, 7, 2, 3, &mut a);
            fill_random_vector(dist, 7, 2, 3, &mut b);
            assert_eq!(a, b, "{dist:?}");
            fill_random_vector(dist, 7, 2, 4, &mut b);
            assert_ne!(a, b, "{dist:?} must differ across r");
            fill_random_vector(dist, 8, 2, 3, &mut b);
            assert_ne!(a, b, "{dist:?} must differ across master seed");
        }
    }

    #[test]
    fn rademacher_components_are_plus_minus_one() {
        let mut v = vec![0.0; 256];
        fill_random_vector(Distribution::Rademacher, 1, 0, 0, &mut v);
        assert!(v.iter().all(|&x| x == 1.0 || x == -1.0));
        // Both signs occur.
        assert!(v.contains(&1.0) && v.contains(&-1.0));
    }

    #[test]
    fn moments_match_unit_variance_zero_mean() {
        for dist in DISTS {
            let n = 200_000;
            let mut v = vec![0.0; n];
            fill_random_vector(dist, 123, 0, 0, &mut v);
            let mean: f64 = v.iter().sum::<f64>() / n as f64;
            let var: f64 = v.iter().map(|x| x * x).sum::<f64>() / n as f64 - mean * mean;
            assert!(mean.abs() < 0.01, "{dist:?} mean = {mean}");
            assert!((var - 1.0).abs() < 0.02, "{dist:?} var = {var}");
        }
    }

    #[test]
    fn uniform_bounded() {
        let mut v = vec![0.0; 1000];
        fill_random_vector(Distribution::Uniform, 5, 1, 1, &mut v);
        let bound = 3.0f64.sqrt() + 1e-12;
        assert!(v.iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn realization_seeds_distinct() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..32 {
            for r in 0..32 {
                assert!(seen.insert(realization_seed(99, s, r)), "collision at ({s}, {r})");
            }
        }
    }

    #[test]
    fn realization_stream_is_pinned() {
        // Frozen constants: the (master_seed, s, r) -> stream mapping is a
        // compatibility contract shared by the moment cache and the shard
        // wire protocol. If this test fails, the change is a breaking one —
        // bump the shard protocol version and invalidate caches rather than
        // updating the constants casually.
        let cases: [(u64, usize, usize, u64, [u64; 4]); 3] = [
            (
                0,
                0,
                0,
                0xe220_a839_7b1d_cdaf,
                [
                    0xa706_dd2f_4d19_7e6f,
                    0xb382_a305_f441_4f5e,
                    0x631a_9154_fbab_f717,
                    0xa80a_ba8c_8664_0906,
                ],
            ),
            (
                42,
                1,
                2,
                0xf20b_02b5_0738_f2be,
                [
                    0x5182_22a0_defa_615c,
                    0x1aa9_e716_1b7a_dcc0,
                    0xd882_4bc2_3108_b8e3,
                    0xbf41_13b2_4e3c_4112,
                ],
            ),
            (
                0x6b70_6d5f_7365,
                3,
                7,
                0xb983_bb01_93ff_dbc9,
                [
                    0xcd31_ca5d_9d77_f235,
                    0x1c38_734b_3e20_a173,
                    0x80d2_ba9e_5da7_560c,
                    0x7671_08c6_eb79_dd80,
                ],
            ),
        ];
        for (master, s, r, seed, words) in cases {
            assert_eq!(realization_seed(master, s, r), seed, "seed({master}, {s}, {r})");
            let mut stream = realization_stream(master, s, r);
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(stream.next_u64(), w, "stream({master}, {s}, {r}) word {i}");
            }
        }
    }

    #[test]
    fn realization_stream_agrees_with_random_stream_seeding() {
        // RandomStream must be a pure wrapper over realization_stream: same
        // underlying u64 sequence regardless of distribution plumbing.
        let mut raw = realization_stream(7, 2, 3);
        let mut via = RandomStream::new(Distribution::Rademacher, 7, 2, 3);
        for _ in 0..16 {
            let expect = if raw.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            assert_eq!(via.next(), expect);
        }
    }

    #[test]
    fn stream_matches_fill_for_all_distributions() {
        for dist in DISTS {
            let mut expect = vec![0.0; 101]; // odd length: exercises the
                                             // Gaussian pending buffer
            fill_random_vector(dist, 31, 4, 9, &mut expect);
            let mut stream = RandomStream::new(dist, 31, 4, 9);
            for (i, &e) in expect.iter().enumerate() {
                assert_eq!(stream.next(), e, "{dist:?} element {i}");
            }
        }
    }

    #[test]
    fn row_fill_columns_match_fill_random_vector_bitwise() {
        // An odd D leaves each Gaussian stream holding a pending Box–Muller
        // value at the end; rs starts past 0 and past a chunk's first set.
        let d = 37;
        for dist in DISTS {
            for k in [1, 2, 8, 14, 17] {
                let rs = 5..5 + k;
                let mut block = vec![f64::NAN; d * k];
                fill_random_rows(dist, 31, 3, rs.clone(), &mut block);
                for (j, r) in rs.enumerate() {
                    let mut col = vec![0.0; d];
                    fill_random_vector(dist, 31, 3, r, &mut col);
                    let got: Vec<u64> = (0..d).map(|i| block[i * k + j].to_bits()).collect();
                    let want: Vec<u64> = col.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{dist:?}, k = {k}, column {j}");
                }
            }
        }
    }

    #[test]
    fn cross_realization_correlation_is_small() {
        let n = 10_000;
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        fill_random_vector(Distribution::Rademacher, 42, 0, 0, &mut a);
        fill_random_vector(Distribution::Rademacher, 42, 0, 1, &mut b);
        let corr: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum::<f64>() / n as f64;
        assert!(corr.abs() < 0.03, "correlation = {corr}");
    }
}
