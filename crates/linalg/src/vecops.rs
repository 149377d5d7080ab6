//! BLAS-1 style vector kernels.
//!
//! These are the innermost loops of the KPM recursion. They are written over
//! slices with iterator zips so the compiler can elide bounds checks and
//! vectorize; all panic on length mismatch (a programming error, not a
//! recoverable condition). [`dot`], [`axpy`], [`scale`], [`norm2`],
//! [`chebyshev_combine_dot`], [`chebyshev_combine_dot8`] and
//! [`rescale_inplace`] run a second copy compiled for AVX2 where the CPU
//! has it, with the same bits ([`crate::isa`]).

/// Default for [`par_min_dim`]: the smallest operator dimension at which
/// realization-level rayon parallelism pays for its fork-join overhead.
///
/// The paper's flagship 10x10x10 lattice has `D = 1000`: per realization a
/// moment step is a few microseconds of work there, far below thread
/// dispatch cost, so the blocked recursion runs serially below this
/// threshold. Tuned empirically; see [`use_parallel`].
pub const PAR_MIN_DIM: usize = 4096;

/// Parses a positive-integer override value, rejecting `0`, empty, and
/// non-numeric input with a one-line stderr warning naming the variable.
///
/// Shared by every `KPM_*` environment override (`KPM_PAR_MIN_DIM` here,
/// `KPM_TILE_ROWS` in `kpm::exec`): garbage must not be silently accepted
/// as a tuning decision, and `0` is never a meaningful threshold or tile
/// height. Returns `None` (caller falls back) on anything invalid.
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

/// The realization-parallelism threshold actually in effect.
///
/// Defaults to [`PAR_MIN_DIM`]; the `KPM_PAR_MIN_DIM` environment variable
/// overrides it (useful for forcing the parallel path in tests or retuning
/// on unusual hardware without recompiling). The variable is read **once**,
/// on first use — changing it later in the process has no effect, so the
/// threshold is a constant throughout a run and scheduling stays
/// reproducible. `0` and non-numeric values are rejected with a stderr
/// warning and fall back to the default.
pub fn par_min_dim() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| positive_env_override("KPM_PAR_MIN_DIM").unwrap_or(PAR_MIN_DIM))
}

/// `true` when a `dim`-dimensional KPM workload is large enough that
/// splitting realizations across rayon workers beats running serially
/// (threshold: [`par_min_dim`]).
#[inline]
pub fn use_parallel(dim: usize) -> bool {
    dim >= par_min_dim()
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
/// with the association of [`dot`] (`L = 4`) or of
/// [`chebyshev_combine_dot8`] (`L = 8`).
///
/// `term(r)` returns row `r`'s `W` products, one per column. It is called
/// exactly once per row, in ascending order, so it may also store (the
/// fused Chebyshev combine does). Per column, row `r < n - n % L` adds into
/// lane `r % L`, the last `n % L` rows are summed in order as the tail, and
/// the lanes reduce pairwise before the tail is added:
/// `(a0 + a1) + (a2 + a3) + tail` for four lanes. Every column is therefore
/// bitwise equal to the contiguous one-vector kernel on that column.
#[inline(always)]
pub(crate) fn lane_dots<const W: usize, const L: usize>(
    n: usize,
    mut term: impl FnMut(usize) -> [f64; W],
) -> [f64; W] {
    let body = n - n % L;
    let mut acc = [[0.0f64; W]; L];
    for base in (0..body / L).map(|c| c * L) {
        for (l, lane) in acc.iter_mut().enumerate() {
            for (a, t) in lane.iter_mut().zip(term(base + l)) {
                *a += t;
            }
        }
    }
    let mut tail = [[0.0f64; W]; L];
    for (slot, r) in tail.iter_mut().zip(body..n) {
        *slot = term(r);
    }
    let tail = &tail[..n - body];
    std::array::from_fn(|u| {
        let lanes: [f64; L] = std::array::from_fn(|l| acc[l][u]);
        pairwise_sum(&lanes) + tail.iter().map(|t| t[u]).sum::<f64>()
    })
}

/// `(a0 + a1) + (a2 + a3)` for four lanes, `((a0 + a1) + (a2 + a3)) +
/// ((a4 + a5) + (a6 + a7))` for eight: the lane reduction of the unrolled
/// kernels.
fn pairwise_sum(lanes: &[f64]) -> f64 {
    if lanes.len() == 1 {
        return lanes[0];
    }
    let (lo, hi) = lanes.split_at(lanes.len() / 2);
    pairwise_sum(lo) + pairwise_sum(hi)
}

/// [`pairwise_sum`] behind an out-of-line call, for the lane reduction of
/// the one-vector kernels [`dot`], [`chebyshev_combine_dot`] and
/// [`chebyshev_combine_dot8`]. Spelled out inline after the fused combine
/// loop, the pairing led the vectorizer to split the accumulators into even
/// and odd lanes and shuffle every element: `chebyshev_combine_dot`'s AVX2
/// copy ran 1.7x slower than its baseline copy, and both ran slower than
/// with this call.
#[inline(never)]
fn pairwise_sum_out_of_line(lanes: &[f64]) -> f64 {
    pairwise_sum(lanes)
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

/// `x += alpha` (element-wise shift; used by the spectral rescaling
/// `H~ = (H - a_+ I)/a_-` applied to a vector as `(H x - a_+ x)/a_-`).
#[inline]
pub fn shift(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi += alpha;
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

/// Fused Chebyshev step: `out[i] = 2.0 * hx[i] - prev[i]`.
///
/// This is Eq. (18) of the paper, `|r_{n+2}> = 2 H~ |r_{n+1}> - |r_n>`, with
/// `hx = H~ r_{n+1}` already formed. Fusing the scale and subtract halves the
/// memory traffic relative to two separate BLAS-1 passes.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn chebyshev_combine(hx: &[f64], prev: &[f64], out: &mut [f64]) {
    assert_eq!(hx.len(), prev.len(), "chebyshev_combine: length mismatch");
    assert_eq!(hx.len(), out.len(), "chebyshev_combine: length mismatch");
    for ((o, &h), &p) in out.iter_mut().zip(hx).zip(prev) {
        *o = 2.0 * h - p;
    }
}

/// In-place fused Chebyshev step: `prev[i] = 2.0 * hx[i] - prev[i]`.
///
/// Lets the caller recycle the `r_n` buffer as the `r_{n+2}` buffer, which is
/// exactly the pointer-swap scheme the paper uses on the GPU (Sec. III-B-1).
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

    /// In-place spectral rescale of a computed product segment:
    /// `h[i] = (h[i] - a_plus * x[i]) * inv_a_minus`.
    ///
    /// Element-for-element the same expression as the store transform fused into
    /// the format kernels (`block::rescaled_store`), so rescaling a tile of raw
    /// products afterwards (as the tiled engine's `RescaledOp` row kernel does)
    /// yields bitwise-identical results to the fused store.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn rescale_inplace(h: &mut [f64], x: &[f64], a_plus: f64, inv_a_minus: f64) {
        assert_eq!(h.len(), x.len(), "rescale_inplace: length mismatch");
        for (hv, &xv) in h.iter_mut().zip(x) {
            *hv = (*hv - a_plus * xv) * inv_a_minus;
        }
    }
}

/// [`rescale_inplace`] fused with [`chebyshev_combine_dot`], reading the raw
/// streamed product instead of pre-rescaled values:
/// `prev[i] = 2 * ((hx[i] - a_plus * x[i]) * inv_a_minus) - prev[i]`, returns
/// `dot(r0, prev_new)`.
///
/// One pass over the tile instead of rescale-then-combine; bitwise identical
/// to `rescale_inplace(hx, x, ..); chebyshev_combine_dot(hx, prev, r0)`
/// because the per-element expressions and the four-way reduction order are
/// unchanged.
///
/// # Panics
/// Panics if the four slices differ in length.
pub fn rescaled_chebyshev_combine_dot(
    hx: &[f64],
    x: &[f64],
    prev: &mut [f64],
    r0: &[f64],
    a_plus: f64,
    inv_a_minus: f64,
) -> f64 {
    assert_eq!(hx.len(), prev.len(), "rescaled_chebyshev_combine_dot: length mismatch");
    assert_eq!(x.len(), prev.len(), "rescaled_chebyshev_combine_dot: length mismatch");
    assert_eq!(r0.len(), prev.len(), "rescaled_chebyshev_combine_dot: length mismatch");
    let mut acc = [0.0f64; 4];
    let split = prev.len() - prev.len() % 4;
    let (pc, pr) = prev.split_at_mut(split);
    let (hc, hr) = hx.split_at(split);
    let (xc, xr) = x.split_at(split);
    let (rc, rr) = r0.split_at(split);
    for (((ps, hs), xs), rs) in pc
        .chunks_exact_mut(4)
        .zip(hc.chunks_exact(4))
        .zip(xc.chunks_exact(4))
        .zip(rc.chunks_exact(4))
    {
        ps[0] = 2.0 * ((hs[0] - a_plus * xs[0]) * inv_a_minus) - ps[0];
        ps[1] = 2.0 * ((hs[1] - a_plus * xs[1]) * inv_a_minus) - ps[1];
        ps[2] = 2.0 * ((hs[2] - a_plus * xs[2]) * inv_a_minus) - ps[2];
        ps[3] = 2.0 * ((hs[3] - a_plus * xs[3]) * inv_a_minus) - ps[3];
        acc[0] += rs[0] * ps[0];
        acc[1] += rs[1] * ps[1];
        acc[2] += rs[2] * ps[2];
        acc[3] += rs[3] * ps[3];
    }
    let tail: f64 = rr
        .iter()
        .zip(pr.iter_mut())
        .zip(hr.iter().zip(xr))
        .map(|((&r, p), (&h, &xv))| {
            *p = 2.0 * ((h - a_plus * xv) * inv_a_minus) - *p;
            r * *p
        })
        .sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Accumulator width of the fused combine-and-dot kernels.
///
/// `Unrolled4` is the historical default: four partial sums reduced as
/// `(acc0 + acc1) + (acc2 + acc3) + tail`, bitwise identical to [`dot`].
/// `Unrolled8` doubles the independent FP chains — worth trying on wide
/// out-of-order cores where four chains leave FMA ports idle — but its
/// pairwise reduction associates differently, so the returned moments are
/// *not* bitwise equal to the 4-way kernels (they agree to rounding; the
/// error-budget test pins `1e-12` relative). The tuner may record it as a
/// hint, but it is only applied when explicitly selected
/// ([`set_kernel_variant`] / `KPM_KERNEL_VARIANT=unrolled8`), keeping the
/// default value family untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelVariant {
    /// Four-way unrolled reduction (default; the frozen value family).
    #[default]
    Unrolled4,
    /// Eight-way unrolled reduction (value-affecting; opt-in).
    Unrolled8,
}

impl KernelVariant {
    /// Stable lowercase name (`unrolled4` / `unrolled8`).
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Unrolled4 => "unrolled4",
            KernelVariant::Unrolled8 => "unrolled8",
        }
    }
}

impl std::str::FromStr for KernelVariant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unrolled4" => Ok(KernelVariant::Unrolled4),
            "unrolled8" => Ok(KernelVariant::Unrolled8),
            other => {
                Err(format!("unknown kernel variant '{other}' (expected unrolled4|unrolled8)"))
            }
        }
    }
}

static KERNEL_VARIANT: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Sets the process-global fused-kernel variant (see [`KernelVariant`]).
pub fn set_kernel_variant(v: KernelVariant) {
    KERNEL_VARIANT.store(v as u8, std::sync::atomic::Ordering::Relaxed);
}

/// The fused-kernel variant in effect. Defaults to
/// [`KernelVariant::Unrolled4`]; the `KPM_KERNEL_VARIANT` environment
/// variable seeds it on first read.
pub fn kernel_variant() -> KernelVariant {
    static ENV_SEEDED: std::sync::Once = std::sync::Once::new();
    ENV_SEEDED.call_once(|| {
        if let Ok(raw) = std::env::var("KPM_KERNEL_VARIANT") {
            match raw.trim().parse::<KernelVariant>() {
                Ok(v) => set_kernel_variant(v),
                Err(e) => eprintln!("warning: ignoring KPM_KERNEL_VARIANT={raw:?}: {e}"),
            }
        }
    });
    match KERNEL_VARIANT.load(std::sync::atomic::Ordering::Relaxed) {
        1 => KernelVariant::Unrolled8,
        _ => KernelVariant::Unrolled4,
    }
}

crate::isa::kernels! {
    /// Eight-way unrolled [`chebyshev_combine_dot`]. The in-place combine
    /// stores are element-wise identical to the 4-way kernel; only the dot
    /// reduction associates differently
    /// (`((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7)) + tail`), so `prev` ends
    /// bitwise equal while the returned moment agrees to rounding.
    ///
    /// # Panics
    /// Panics if the three slices differ in length.
    pub fn chebyshev_combine_dot8(hx: &[f64], prev: &mut [f64], r0: &[f64]) -> f64 {
        assert_eq!(hx.len(), prev.len(), "chebyshev_combine_dot8: length mismatch");
        assert_eq!(r0.len(), prev.len(), "chebyshev_combine_dot8: length mismatch");
        let mut acc = [0.0f64; 8];
        let split = prev.len() - prev.len() % 8;
        let (pc, pr) = prev.split_at_mut(split);
        let (hc, hr) = hx.split_at(split);
        let (rc, rr) = r0.split_at(split);
        for ((ps, hs), rs) in pc.chunks_exact_mut(8).zip(hc.chunks_exact(8)).zip(rc.chunks_exact(8)) {
            for lane in 0..8 {
                ps[lane] = 2.0 * hs[lane] - ps[lane];
                acc[lane] += rs[lane] * ps[lane];
            }
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

/// Eight-way unrolled [`rescaled_chebyshev_combine_dot`]; same contract as
/// [`chebyshev_combine_dot8`] (identical stores, differently associated
/// dot).
///
/// # Panics
/// Panics if the four slices differ in length.
pub fn rescaled_chebyshev_combine_dot8(
    hx: &[f64],
    x: &[f64],
    prev: &mut [f64],
    r0: &[f64],
    a_plus: f64,
    inv_a_minus: f64,
) -> f64 {
    assert_eq!(hx.len(), prev.len(), "rescaled_chebyshev_combine_dot8: length mismatch");
    assert_eq!(x.len(), prev.len(), "rescaled_chebyshev_combine_dot8: length mismatch");
    assert_eq!(r0.len(), prev.len(), "rescaled_chebyshev_combine_dot8: length mismatch");
    let mut acc = [0.0f64; 8];
    let split = prev.len() - prev.len() % 8;
    let (pc, pr) = prev.split_at_mut(split);
    let (hc, hr) = hx.split_at(split);
    let (xc, xr) = x.split_at(split);
    let (rc, rr) = r0.split_at(split);
    for (((ps, hs), xs), rs) in pc
        .chunks_exact_mut(8)
        .zip(hc.chunks_exact(8))
        .zip(xc.chunks_exact(8))
        .zip(rc.chunks_exact(8))
    {
        for lane in 0..8 {
            ps[lane] = 2.0 * ((hs[lane] - a_plus * xs[lane]) * inv_a_minus) - ps[lane];
            acc[lane] += rs[lane] * ps[lane];
        }
    }
    let tail: f64 = rr
        .iter()
        .zip(pr.iter_mut())
        .zip(hr.iter().zip(xr))
        .map(|((&r, p), (&h, &xv))| {
            *p = 2.0 * ((h - a_plus * xv) * inv_a_minus) - *p;
            r * *p
        })
        .sum();
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Variant-dispatched [`chebyshev_combine_dot`].
#[inline]
pub fn chebyshev_combine_dot_variant(
    variant: KernelVariant,
    hx: &[f64],
    prev: &mut [f64],
    r0: &[f64],
) -> f64 {
    match variant {
        KernelVariant::Unrolled4 => chebyshev_combine_dot(hx, prev, r0),
        KernelVariant::Unrolled8 => chebyshev_combine_dot8(hx, prev, r0),
    }
}

/// Variant-dispatched [`rescaled_chebyshev_combine_dot`].
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn rescaled_chebyshev_combine_dot_variant(
    variant: KernelVariant,
    hx: &[f64],
    x: &[f64],
    prev: &mut [f64],
    r0: &[f64],
    a_plus: f64,
    inv_a_minus: f64,
) -> f64 {
    match variant {
        KernelVariant::Unrolled4 => {
            rescaled_chebyshev_combine_dot(hx, x, prev, r0, a_plus, inv_a_minus)
        }
        KernelVariant::Unrolled8 => {
            rescaled_chebyshev_combine_dot8(hx, x, prev, r0, a_plus, inv_a_minus)
        }
    }
}

/// [`rescale_inplace`] fused with [`chebyshev_combine_inplace`]:
/// `prev[i] = 2 * ((hx[i] - a_plus * x[i]) * inv_a_minus) - prev[i]`.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn rescaled_chebyshev_combine_inplace(
    hx: &[f64],
    x: &[f64],
    prev: &mut [f64],
    a_plus: f64,
    inv_a_minus: f64,
) {
    assert_eq!(hx.len(), prev.len(), "rescaled_chebyshev_combine_inplace: length mismatch");
    assert_eq!(x.len(), prev.len(), "rescaled_chebyshev_combine_inplace: length mismatch");
    for ((p, &h), &xv) in prev.iter_mut().zip(hx).zip(x) {
        *p = 2.0 * ((h - a_plus * xv) * inv_a_minus) - *p;
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
    fn unrolled8_stores_bitwise_and_dots_within_error_budget() {
        // The 8-way variants must leave `prev` bitwise identical to the
        // 4-way kernels (the combine is element-wise) and return a moment
        // within the documented 1e-12 relative error budget (the reduction
        // associates differently). Lengths cover every residue class mod 8.
        for n in (0..18usize).chain([128, 263]) {
            let hx: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.3).collect();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
            let r0: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
            let base: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 - 0.4).collect();

            let (mut p4, mut p8) = (base.clone(), base.clone());
            let mu4 = chebyshev_combine_dot(&hx, &mut p4, &r0);
            let mu8 = chebyshev_combine_dot8(&hx, &mut p8, &r0);
            assert_eq!(p4, p8, "combine stores must be bitwise identical, n = {n}");
            let scale = mu4.abs().max(1.0);
            assert!((mu8 - mu4).abs() <= 1e-12 * scale, "n = {n}: {mu8} vs {mu4}");

            let (mut p4, mut p8) = (base.clone(), base.clone());
            let mu4 = rescaled_chebyshev_combine_dot(&hx, &x, &mut p4, &r0, 0.2, 0.5);
            let mu8 = rescaled_chebyshev_combine_dot8(&hx, &x, &mut p8, &r0, 0.2, 0.5);
            assert_eq!(p4, p8, "rescaled stores must be bitwise identical, n = {n}");
            let scale = mu4.abs().max(1.0);
            assert!((mu8 - mu4).abs() <= 1e-12 * scale, "n = {n}: {mu8} vs {mu4}");
        }
    }

    #[test]
    fn lane_dots_match_the_one_vector_kernels_per_column() {
        // Three columns at once; lengths cover every residue mod 8.
        const W: usize = 3;
        for n in (0..18usize).chain([128, 263]) {
            let col = |j: usize, f: fn(f64) -> f64| -> Vec<f64> {
                (0..n).map(|i| f((i * W + j) as f64 * 0.7) + 0.1).collect()
            };
            let cols = |f: fn(f64) -> f64| -> Vec<Vec<f64>> { (0..W).map(|j| col(j, f)).collect() };
            let (hx, r0, prev) = (cols(f64::sin), cols(f64::cos), cols(f64::tan));
            let dots = lane_dots::<W, 4>(n, |i| std::array::from_fn(|j| r0[j][i] * hx[j][i]));
            let mut p8 = prev.clone();
            let mu8 = lane_dots::<W, 8>(n, |i| {
                std::array::from_fn(|j| {
                    p8[j][i] = 2.0 * hx[j][i] - p8[j][i];
                    r0[j][i] * p8[j][i]
                })
            });
            for j in 0..W {
                assert_eq!(dots[j].to_bits(), dot(&r0[j], &hx[j]).to_bits(), "n = {n}, col {j}");
                let mut p = prev[j].clone();
                let want = chebyshev_combine_dot8(&hx[j], &mut p, &r0[j]);
                assert_eq!(mu8[j].to_bits(), want.to_bits(), "n = {n}, col {j}");
                assert_eq!(p8[j], p, "n = {n}, col {j}");
            }
        }
    }

    #[test]
    fn kernel_variant_parses_and_dispatches() {
        assert_eq!("unrolled4".parse::<KernelVariant>().unwrap(), KernelVariant::Unrolled4);
        assert_eq!("unrolled8".parse::<KernelVariant>().unwrap(), KernelVariant::Unrolled8);
        assert!("avx512".parse::<KernelVariant>().is_err());
        let hx = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r0 = [1.0, -1.0, 1.0, -1.0, 1.0];
        let mut a = [0.5; 5];
        let mut b = [0.5; 5];
        let via_variant = chebyshev_combine_dot_variant(KernelVariant::Unrolled4, &hx, &mut a, &r0);
        let direct = chebyshev_combine_dot(&hx, &mut b, &r0);
        assert_eq!(via_variant.to_bits(), direct.to_bits());
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
    fn scale_and_shift() {
        let mut x = [1.0, -2.0, 4.0];
        scale(0.5, &mut x);
        assert_eq!(x, [0.5, -1.0, 2.0]);
        shift(1.0, &mut x);
        assert_eq!(x, [1.5, 0.0, 3.0]);
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
        let prev = [0.5, 0.5, 0.5];
        let mut out = [0.0; 3];
        chebyshev_combine(&hx, &prev, &mut out);
        assert_eq!(out, [1.5, 3.5, 5.5]);

        let mut prev2 = prev;
        chebyshev_combine_inplace(&hx, &mut prev2);
        assert_eq!(prev2, out);
    }

    #[test]
    fn max_abs_diff_finds_worst_component() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 2.5, 2.0];
        assert_eq!(max_abs_diff(&x, &y), 1.0);
        assert_eq!(max_abs_diff(&x, &x), 0.0);
    }
}
