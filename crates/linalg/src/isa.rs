//! Runtime instruction-set dispatch for the moment kernels.
//!
//! The workspace compiles for baseline x86-64, whose SSE2 registers hold
//! two `f64` lanes. The kernels the benchmark workloads spend their moment
//! stages and bounds probes in — the tiled engine's CSR and stencil row
//! kernels, which with their row epilogue are also the fused later step of
//! the doubling recursion, the stencil's one-vector kernel, the per-tile
//! dot kernel of step 0 (`start_dots`), and the
//! [`vecops`](crate::vecops) kernels `dot`, `axpy`, `scale`, `norm2` and
//! `chebyshev_combine_dot` — are therefore each compiled twice by
//! `kernels!`: a baseline copy, and a copy under
//! `#[target_feature(enable = "avx2")]`, with four lanes, that runs when
//! the CPU has AVX2. Each call picks its copy; off x86-64 only the baseline
//! copy exists. The step over a computed tile that dense, identity and
//! diagonal operators run (`tile_step`) and `chebyshev_combine_inplace` run
//! in no benchmark workload and have one copy.
//!
//! Both copies return the same bits. Rust never contracts `a * b + c` into
//! a fused multiply-add, every association is fixed in the source, and the
//! AVX2 copy is compiled without `fma`, so it has no fused instruction to
//! emit: wider registers change how many lanes run at once, never what a
//! lane computes. The workspace's `clippy.toml` forbids `mul_add`, the one
//! way to ask for a fused multiply-add explicitly.

/// `true` when the CPU has AVX2, so that every dispatched kernel runs its
/// AVX2 copy. Always `false` off x86-64.
#[inline]
pub(crate) fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Which copies of the dispatched kernels run on this CPU: `"avx2"` or
/// `"baseline"`.
pub fn active() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// Defines each listed function as a dispatcher over two compiled copies of
/// its body, `NAME::baseline` and, on x86-64, `NAME::avx2`, which live in a
/// module named after the function.
///
/// The functions take no generic parameters, so each copy is compiled once,
/// however many operator types reach it. A helper the body calls is compiled
/// into the AVX2 copy only if it is inlined there, so the const-width
/// helpers the bodies instantiate, and the per-row closures those pass on,
/// are `#[inline(always)]`.
macro_rules! kernels {
    ($(
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    )*) => {$(
        $(#[$attr])*
        #[inline]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if $crate::isa::has_avx2() {
                // SAFETY: the CPU has AVX2, the one feature the copy enables.
                return unsafe { $name::avx2($($arg),*) };
            }
            $name::baseline($($arg),*)
        }

        pub(crate) mod $name {
            #[allow(unused_imports)]
            use super::*;

            pub(crate) fn baseline($($arg: $ty),*) $(-> $ret)? $body

            /// # Safety
            /// The CPU must have AVX2.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            pub(crate) fn avx2($($arg: $ty),*) $(-> $ret)? $body
        }
    )*};
}
pub(crate) use kernels;

/// Both copies of every dispatched kernel, called directly on the same
/// inputs, must agree bit for bit. The tests call the copies themselves, so
/// no switch that forces the baseline path is needed; on a CPU without AVX2
/// they skip with a message.
#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use crate::tiled::RowEpilogue;
    use crate::vecops;
    use crate::{csr, stencil, tiled, CsrMatrix, LinearOp, StencilGeometry, StencilOp};

    /// `true` when the AVX2 copies can run; prints why the test is skipped
    /// otherwise.
    fn avx2_available() -> bool {
        let available = super::has_avx2();
        if !available {
            eprintln!("skipped: this CPU lacks AVX2, so the AVX2 copies cannot run");
        }
        available
    }

    /// Deterministic values in `(-1, 1)` from a 64-bit LCG.
    fn lcg_values(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// A kernel's return value, compared by its bits.
    trait Bits {
        fn bits(&self) -> Vec<u64>;
    }

    impl Bits for () {
        fn bits(&self) -> Vec<u64> {
            Vec::new()
        }
    }

    impl Bits for f64 {
        fn bits(&self) -> Vec<u64> {
            vec![self.to_bits()]
        }
    }

    impl Bits for Vec<f64> {
        fn bits(&self) -> Vec<u64> {
            self.iter().map(|v| v.to_bits()).collect()
        }
    }

    /// Calls `$kernel::baseline`, then `$kernel::avx2`, with the same
    /// arguments. Each call starts with every `$state` buffer set to its
    /// `$init`; the returned values and the final buffers must agree bit for
    /// bit.
    macro_rules! assert_copies_agree {
        ($what:expr, $($kernel:ident)::+($($arg:expr),*), $($state:ident = $init:expr),*) => {{
            $(let mut $state: Vec<f64> = $init;)*
            let base = $($kernel)::+::baseline($($arg),*);
            let base_states: Vec<Vec<u64>> = vec![$(std::mem::replace(&mut $state, $init).bits()),*];
            // SAFETY: every test returns before this point unless
            // `avx2_available` found AVX2.
            let fast = unsafe { $($kernel)::+::avx2($($arg),*) };
            let fast_states: Vec<Vec<u64>> = vec![$($state.bits()),*];
            assert_eq!(base.bits(), fast.bits(), "{}: returned values", $what);
            assert_eq!(base_states, fast_states, "{}: written buffers", $what);
        }};
    }

    /// A disordered periodic 5 x 4 x 3 lattice, D = 60, in CSR.
    fn lattice_csr() -> CsrMatrix {
        let onsite = lcg_values(7, 60).into_iter().map(|v| 0.2 * v).collect();
        let geometry = StencilGeometry { dims: vec![5, 4, 3], periodic: vec![true; 3] };
        StencilOp::new(geometry, 0.125, onsite, false).to_csr()
    }

    #[test]
    fn csr_row_kernel_agrees_across_isas() {
        if !avx2_available() {
            return;
        }
        let csr_op = lattice_csr();
        let d = csr_op.nrows();
        // The whole operator, one row, and 7-row ranges from mid-operator
        // to a ragged end.
        let ranges: Vec<_> = [0..d, 0..1]
            .into_iter()
            .chain((3..d).step_by(7).map(|lo| lo..(lo + 7).min(d)))
            .collect();
        // 1..=16 run as one const-width chunk, 17 as 16 + 1.
        for k in 1..=17 {
            let x = lcg_values(k as u64, d * k);
            for rows in &ranges {
                let what = format!("k = {k}, rows {rows:?}");
                assert_copies_agree!(
                    format!("csr, {what}"),
                    csr::rows_interleaved(
                        &csr_op,
                        &x,
                        k,
                        rows.clone(),
                        &mut RowEpilogue::store(&mut out)
                    ),
                    out = vec![f64::NAN; rows.len() * k]
                );
            }
        }
    }

    #[test]
    fn fused_csr_step_agrees_across_isas() {
        if !avx2_available() {
            return;
        }
        let csr_op = lattice_csr();
        let d = csr_op.nrows();
        // 16-row segments: tiles of 1..=40 rows end in a segment of every
        // length mod 4 and mod 8. Each tile starts at a different row.
        let slot_rows: usize = 16;
        for k in 1..=17 {
            let x = lcg_values(k as u64, d * k);
            for len in 1..=40usize {
                let lo = (7 * len) % (d - len + 1);
                let rows = lo..lo + len;
                let nsegs = len.div_ceil(slot_rows);
                let p0 = lcg_values(100 * k as u64 + len as u64, len * k);
                for affine in [None, Some((0.3, 1.0 / 1.7))] {
                    let what = format!("k = {k}, rows {rows:?}, map {affine:?}");
                    assert_copies_agree!(
                        format!("fused csr step, {what}"),
                        csr::rows_interleaved(
                            &csr_op,
                            &x,
                            k,
                            rows.clone(),
                            &mut RowEpilogue::doubling(&mut p, &mut slots, slot_rows, &mut [])
                                .mapped(affine)
                        ),
                        p = p0.clone(),
                        slots = vec![f64::NAN; nsegs * 3 * k]
                    );
                }
            }
        }
    }

    /// Hypercubic stencils whose classes cover extents 1, 2, 3 and more,
    /// open and periodic, with exact `0.0` (and `-0.0`) on-site energies
    /// among the others, each with and without stored zero diagonals.
    fn stencils() -> Vec<(String, StencilOp)> {
        let shapes: [(&[usize], &[bool]); 4] = [
            (&[5, 4, 3], &[true, false, true]),
            (&[7, 2, 1, 3], &[false, true, true, false]),
            (&[11], &[false]),
            (&[1, 6], &[true, true]),
        ];
        let mut ops = Vec::new();
        for (dims, periodic) in shapes {
            let d: usize = dims.iter().product();
            let onsite: Vec<f64> = lcg_values(d as u64, d)
                .into_iter()
                .enumerate()
                .map(|(i, v)| [0.0, -0.0, 0.2 * v][i % 3])
                .collect();
            for store_zero in [false, true] {
                let geometry = StencilGeometry { dims: dims.to_vec(), periodic: periodic.to_vec() };
                let name = format!("{dims:?} {periodic:?}, stored zeros {store_zero}");
                ops.push((name, StencilOp::new(geometry, 0.125, onsite.clone(), store_zero)));
            }
        }
        ops
    }

    /// The whole operator, one row, and 7-row ranges from mid-line to a
    /// ragged end.
    fn row_ranges(d: usize) -> Vec<std::ops::Range<usize>> {
        [0..d, 0..1].into_iter().chain((3..d).step_by(7).map(|lo| lo..(lo + 7).min(d))).collect()
    }

    #[test]
    fn stencil_row_kernel_agrees_across_isas() {
        if !avx2_available() {
            return;
        }
        let slot_rows: usize = 16;
        for (name, op) in stencils() {
            let d = op.dim();
            for k in 1..=17 {
                let x = lcg_values(k as u64, d * k);
                for rows in row_ranges(d) {
                    let what = format!("{name}, k = {k}, rows {rows:?}");
                    assert_copies_agree!(
                        format!("stencil store, {what}"),
                        stencil::rows_interleaved(
                            &op,
                            &x,
                            k,
                            rows.clone(),
                            &mut RowEpilogue::store(&mut out)
                        ),
                        out = vec![f64::NAN; rows.len() * k]
                    );
                    let nsegs = rows.len().div_ceil(slot_rows);
                    let p0 = lcg_values(100 * k as u64 + rows.start as u64, rows.len() * k);
                    for affine in [None, Some((0.3, 1.0 / 1.7))] {
                        assert_copies_agree!(
                            format!("stencil step, {what}, map {affine:?}"),
                            stencil::rows_interleaved(
                                &op,
                                &x,
                                k,
                                rows.clone(),
                                &mut RowEpilogue::doubling(&mut p, &mut slots, slot_rows, &mut [])
                                    .mapped(affine)
                            ),
                            p = p0.clone(),
                            slots = vec![f64::NAN; nsegs * 3 * k]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stencil_apply_kernel_agrees_across_isas() {
        if !avx2_available() {
            return;
        }
        for (name, op) in stencils() {
            let d = op.dim();
            let x = lcg_values(d as u64 + 1, d);
            for rows in row_ranges(d) {
                for affine in [None, Some((0.3, 1.0 / 1.7))] {
                    assert_copies_agree!(
                        format!("stencil apply, {name}, rows {rows:?}, map {affine:?}"),
                        stencil::apply_rows(&op, &x, &mut y, rows.clone(), affine),
                        y = vec![f64::NAN; rows.len()]
                    );
                }
            }
        }
    }

    #[test]
    fn tile_dot_kernels_agree_across_isas() {
        if !avx2_available() {
            return;
        }
        // 16-row segments: tiles of 1..=40 rows end in a segment of every
        // length mod 8.
        let slot_rows: usize = 16;
        for k in 1..=17 {
            for len in 1..=40usize {
                let what = format!("k = {k}, {len} rows");
                let nsegs = len.div_ceil(slot_rows);
                let [a, b] = [1, 2].map(|s| lcg_values(100 * k as u64 + s, len * k));
                assert_copies_agree!(
                    format!("start_dots, {what}"),
                    tiled::start_dots(&a, &b, k, slot_rows, &mut slots),
                    slots = vec![f64::NAN; nsegs * 3 * k]
                );
            }
        }
    }

    #[test]
    fn vecops_kernels_agree_across_isas() {
        if !avx2_available() {
            return;
        }
        for n in 0..=40 {
            let [a, b, c] = [1, 2, 3].map(|s| lcg_values(10 * n as u64 + s, n));
            let what = |kernel: &str| format!("{kernel}, n = {n}");
            assert_copies_agree!(what("dot"), vecops::dot(&a, &b),);
            assert_copies_agree!(what("norm2"), vecops::norm2(&a),);
            assert_copies_agree!(what("axpy"), vecops::axpy(0.7, &a, &mut y), y = b.clone());
            assert_copies_agree!(what("scale"), vecops::scale(-1.3, &mut y), y = a.clone());
            assert_copies_agree!(
                what("chebyshev_combine_dot"),
                vecops::chebyshev_combine_dot(&a, &mut p, &c),
                p = b.clone()
            );
        }
    }
}
