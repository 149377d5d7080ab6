//! BLAS-1 style vector kernels.
//!
//! These are the innermost loops of the KPM recursion. They are written over
//! slices with iterator zips so the compiler can elide bounds checks and
//! vectorize; all panic on length mismatch (a programming error, not a
//! recoverable condition). [`dot`], [`axpy`], [`scale`], [`norm2`] and
//! [`chebyshev_combine_dot`] run a second copy compiled for AVX2 where the
//! CPU has it, with the same bits ([`crate::isa`]).

/// Parses a positive-integer override value, rejecting `0`, empty, and
/// non-numeric input with a one-line stderr warning naming the variable.
///
/// Used by the `KPM_TILE_ROWS` override in `kpm::exec`: garbage must not be
/// silently accepted as a tuning decision, and `0` is never a meaningful
/// tile height. Returns `None` (caller falls back) on anything invalid.
pub fn parse_positive_override(name: &str, raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(v) if v > 0 => Some(v),
        _ => {
            eprintln!("warning: ignoring {name}={raw:?}: expected a positive integer");
            None
        }
    }
}

/// Reads a positive-integer environment override via
/// [`parse_positive_override`]; `None` when unset or invalid.
pub fn positive_env_override(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| parse_positive_override(name, &v))
}

crate::isa::kernels! {
    /// Dot product `x · y`.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        // Four-way unrolled accumulation: reduces the sequential FP dependency
        // chain, which matters for a loop this hot, and incidentally makes the
        // summation order deterministic and platform-independent.
        let mut acc = [0.0f64; 4];
        let (xc, xr) = x.split_at(x.len() - x.len() % 4);
        let (yc, yr) = y.split_at(xc.len());
        for (xs, ys) in xc.chunks_exact(4).zip(yc.chunks_exact(4)) {
            acc[0] += xs[0] * ys[0];
            acc[1] += xs[1] * ys[1];
            acc[2] += xs[2] * ys[2];
            acc[3] += xs[3] * ys[3];
        }
        let tail: f64 = xr.iter().zip(yr).map(|(a, b)| a * b).sum();
        pairwise_sum_out_of_line(&acc) + tail
    }
}

/// `W` dot products at once over `n` rows of a row-interleaved block, each
/// with the association of [`dot`].
///
/// `term(r)` returns row `r`'s `W` products, one per column. It is called
/// exactly once per row, in ascending order, so it may also store (the
/// fused Chebyshev combine does). Per column, row `r < n - n % 4` adds into
/// lane `r % 4`, the last `n % 4` rows add in order into the tail, and
/// [`reduce_lanes`] sums the lanes pairwise before adding the tail:
/// `(a0 + a1) + (a2 + a3) + tail`. Every column is therefore bitwise equal
/// to the contiguous one-vector kernel on that column.
#[inline(always)]
pub(crate) fn lane_dots<const W: usize>(
    n: usize,
    mut term: impl FnMut(usize) -> [f64; W],
) -> [f64; W] {
    let body = n - n % LANES;
    let mut acc = [[0.0f64; W]; LANES + 1];
    for base in (0..body / LANES).map(|c| c * LANES) {
        for (l, lane) in acc[..LANES].iter_mut().enumerate() {
            for (a, t) in lane.iter_mut().zip(term(base + l)) {
                *a += t;
            }
        }
    }
    for r in body..n {
        for (a, t) in acc[LANES].iter_mut().zip(term(r)) {
            *a += t;
        }
    }
    reduce_lanes(&acc)
}

/// Accumulator lanes of the unrolled dot kernels.
pub(crate) const LANES: usize = 4;

/// Per column, `(a0 + a1) + (a2 + a3) + tail`: the lane reduction of the
/// unrolled kernels over `acc`'s lanes 0 to 3, then its ordered tail sum,
/// `acc[LANES]`.
///
/// [`dot`]'s tail is an `Iterator::sum`, which starts from `-0.0`; the
/// tails here start from `0.0`. The two differ only when every tail term is
/// `-0.0`, and adding either zero to the lane sum gives the same bits, since
/// lanes that start at `0.0` and only add never hold `-0.0`.
///
/// A plain loop over fixed indices, inlined: an out-of-line reduction, or
/// one built with `std::array::from_fn`, is compiled for the baseline
/// instruction set and called from the AVX2 copies of the tiled kernels.
#[inline(always)]
pub(crate) fn reduce_lanes<const W: usize>(acc: &[[f64; W]; LANES + 1]) -> [f64; W] {
    let mut out = [0.0f64; W];
    for (u, o) in out.iter_mut().enumerate() {
        *o = (acc[0][u] + acc[1][u]) + (acc[2][u] + acc[3][u]) + acc[LANES][u];
    }
    out
}

/// `(a0 + a1) + (a2 + a3)`, the lane reduction of the one-vector kernels
/// [`dot`] and [`chebyshev_combine_dot`], behind an out-of-line call.
/// Spelled out inline after the fused combine loop, the pairing led the
/// vectorizer to split the accumulators into even and odd lanes and
/// shuffle every element: `chebyshev_combine_dot`'s AVX2 copy ran 1.7x
/// slower than its baseline copy, and both ran slower than with this call.
#[inline(never)]
fn pairwise_sum_out_of_line(lanes: &[f64; LANES]) -> f64 {
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

crate::isa::kernels! {
    /// `y += alpha * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// `x *= alpha`.
    pub fn scale(alpha: f64, x: &mut [f64]) {
        for xi in x.iter_mut() {
            *xi *= alpha;
        }
    }
}

crate::isa::kernels! {
    /// Euclidean norm `||x||_2`, computed with scaling to avoid overflow for
    /// extreme magnitudes.
    pub fn norm2(x: &[f64]) -> f64 {
        let amax = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        if amax == 0.0 || !amax.is_finite() {
            return amax;
        }
        let inv = 1.0 / amax;
        let ssq: f64 = x.iter().map(|&v| (v * inv) * (v * inv)).sum();
        amax * ssq.sqrt()
    }
}

/// In-place fused Chebyshev step: `prev[i] = 2.0 * hx[i] - prev[i]`.
///
/// This is Eq. (18) of the paper, `|r_{n+2}> = 2 H~ |r_{n+1}> - |r_n>`, with
/// `hx = H~ r_{n+1}` already formed. It lets the caller recycle the `r_n`
/// buffer as the `r_{n+2}` buffer, which is exactly the pointer-swap scheme
/// the paper uses on the GPU (Sec. III-B-1).
#[inline]
pub fn chebyshev_combine_inplace(hx: &[f64], prev: &mut [f64]) {
    assert_eq!(hx.len(), prev.len(), "chebyshev_combine_inplace: length mismatch");
    for (p, &h) in prev.iter_mut().zip(hx) {
        *p = 2.0 * h - *p;
    }
}

crate::isa::kernels! {
    /// Fuses [`chebyshev_combine_inplace`] with the moment dot product: updates
    /// `prev[i] = 2 * hx[i] - prev[i]` and returns `dot(r0, prev_new)` in a
    /// single pass over the three vectors.
    ///
    /// The KPM recursion computes the combine and then immediately dots the
    /// result against the seed vector, which re-reads the freshly written block
    /// from memory; fusing the two keeps each element in registers between the
    /// update and the multiply. The reduction replicates [`dot`]'s exact
    /// four-way-unrolled summation order, so the returned moment is bitwise
    /// identical to `chebyshev_combine_inplace(hx, prev); dot(r0, prev)`.
    ///
    /// # Panics
    /// Panics if the three slices differ in length.
    pub fn chebyshev_combine_dot(hx: &[f64], prev: &mut [f64], r0: &[f64]) -> f64 {
        assert_eq!(hx.len(), prev.len(), "chebyshev_combine_dot: length mismatch");
        assert_eq!(r0.len(), prev.len(), "chebyshev_combine_dot: length mismatch");
        let mut acc = [0.0f64; 4];
        let split = prev.len() - prev.len() % 4;
        let (pc, pr) = prev.split_at_mut(split);
        let (hc, hr) = hx.split_at(split);
        let (rc, rr) = r0.split_at(split);
        for ((ps, hs), rs) in pc.chunks_exact_mut(4).zip(hc.chunks_exact(4)).zip(rc.chunks_exact(4)) {
            ps[0] = 2.0 * hs[0] - ps[0];
            ps[1] = 2.0 * hs[1] - ps[1];
            ps[2] = 2.0 * hs[2] - ps[2];
            ps[3] = 2.0 * hs[3] - ps[3];
            acc[0] += rs[0] * ps[0];
            acc[1] += rs[1] * ps[1];
            acc[2] += rs[2] * ps[2];
            acc[3] += rs[3] * ps[3];
        }
        let tail: f64 = rr
            .iter()
            .zip(pr.iter_mut())
            .zip(hr)
            .map(|((&r, p), &h)| {
                *p = 2.0 * h - *p;
                r * *p
            })
            .sum();
        pairwise_sum_out_of_line(&acc) + tail
    }
}

/// Copies `src` into `dst`.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

/// Maximum absolute difference between two vectors; `inf` norm of `x - y`.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    x.iter().zip(y).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_dot_is_bitwise_equal_to_combine_then_dot() {
        // Cover every residue class mod 4 so both the unrolled body and the
        // scalar tail are exercised.
        for n in 0..10usize {
            let hx: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 0.3).collect();
            let r0: Vec<f64> = (0..n).map(|i| (i as f64).cos() - 0.7).collect();
            let mut fused = (0..n).map(|i| 0.1 * i as f64 - 0.4).collect::<Vec<_>>();
            let mut unfused = fused.clone();
            let mu_fused = chebyshev_combine_dot(&hx, &mut fused, &r0);
            chebyshev_combine_inplace(&hx, &mut unfused);
            let mu_unfused = dot(&r0, &unfused);
            assert_eq!(fused, unfused, "n = {n}");
            assert_eq!(mu_fused.to_bits(), mu_unfused.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn lane_dots_match_the_one_vector_kernels_per_column() {
        // Three columns at once; lengths cover every residue mod 4.
        const W: usize = 3;
        for n in (0..18usize).chain([128, 263]) {
            let col = |j: usize, f: fn(f64) -> f64| -> Vec<f64> {
                (0..n).map(|i| f((i * W + j) as f64 * 0.7) + 0.1).collect()
            };
            let cols = |f: fn(f64) -> f64| -> Vec<Vec<f64>> { (0..W).map(|j| col(j, f)).collect() };
            let (hx, r0, prev) = (cols(f64::sin), cols(f64::cos), cols(f64::tan));
            let dots = lane_dots::<W>(n, |i| std::array::from_fn(|j| r0[j][i] * hx[j][i]));
            let mut fused = prev.clone();
            let mu = lane_dots::<W>(n, |i| {
                std::array::from_fn(|j| {
                    fused[j][i] = 2.0 * hx[j][i] - fused[j][i];
                    r0[j][i] * fused[j][i]
                })
            });
            for j in 0..W {
                assert_eq!(dots[j].to_bits(), dot(&r0[j], &hx[j]).to_bits(), "n = {n}, col {j}");
                let mut p = prev[j].clone();
                let want = chebyshev_combine_dot(&hx[j], &mut p, &r0[j]);
                assert_eq!(mu[j].to_bits(), want.to_bits(), "n = {n}, col {j}");
                assert_eq!(fused[j], p, "n = {n}, col {j}");
            }
        }
    }

    #[test]
    fn lane_dots_keep_the_sign_of_zero_sums() {
        // Products of -0.0 and of opposite signs: the tail of `dot` starts
        // its sum from -0.0, the tails here from 0.0; the results must not
        // differ in any bit, the sign of a zero included.
        for n in 0..12usize {
            for pattern in 0..4usize {
                let x: Vec<f64> = (0..n)
                    .map(|i| match (i + pattern) % 4 {
                        0 => -0.0,
                        1 => 0.0,
                        2 => -1.5,
                        _ => 1.5,
                    })
                    .collect();
                let y: Vec<f64> =
                    (0..n).map(|i| if (i * pattern) % 3 == 0 { 2.0 } else { -0.0 }).collect();
                let got = lane_dots::<1>(n, |i| [x[i] * y[i]]);
                assert_eq!(got[0].to_bits(), dot(&x, &y).to_bits(), "n = {n}, pattern {pattern}");
            }
        }
    }

    #[test]
    fn positive_override_rejects_zero_and_garbage() {
        assert_eq!(parse_positive_override("KPM_TEST", "128"), Some(128));
        assert_eq!(parse_positive_override("KPM_TEST", "  64 "), Some(64));
        assert_eq!(parse_positive_override("KPM_TEST", "0"), None);
        assert_eq!(parse_positive_override("KPM_TEST", "banana"), None);
        assert_eq!(parse_positive_override("KPM_TEST", ""), None);
        assert_eq!(parse_positive_override("KPM_TEST", "-3"), None);
    }

    #[test]
    fn dot_matches_naive_for_various_lengths() {
        // Exercise the unroll remainder handling: lengths 0..=9 cover every
        // residue class mod 4.
        for n in 0..10usize {
            let x: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let y: Vec<f64> = (0..n).map(|i| 2.0 - i as f64).collect();
            let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((dot(&x, &y) - naive).abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        let x = [1.0, 0.0, 1.0, 0.0];
        let y = [0.0, 3.0, 0.0, -7.0];
        assert_eq!(dot(&x, &y), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut x = [1.0, -2.0, 4.0];
        scale(0.5, &mut x);
        assert_eq!(x, [0.5, -1.0, 2.0]);
    }

    #[test]
    fn norm2_basics() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn norm2_does_not_overflow_for_huge_entries() {
        let big = 1e300;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-15);
    }

    #[test]
    fn chebyshev_combine_matches_formula() {
        let hx = [1.0, 2.0, 3.0];
        let mut prev = [0.5, 0.5, 0.5];
        chebyshev_combine_inplace(&hx, &mut prev);
        assert_eq!(prev, [1.5, 3.5, 5.5]);
    }

    #[test]
    fn max_abs_diff_finds_worst_component() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 2.5, 2.0];
        assert_eq!(max_abs_diff(&x, &y), 1.0);
        assert_eq!(max_abs_diff(&x, &x), 0.0);
    }
}
