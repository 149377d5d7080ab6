//! Two-dimensional KPM (Kubo–Greenwood double moments) on the simulated
//! device.
//!
//! The conductivity workload costs `O(N^2 D)` per random vector —
//! quadratically heavier than the paper's DoS — which makes it the natural
//! stress test for the paper's acceleration strategy. This module runs the
//! same thread-per-realization mapping as the moment engine: each thread
//! owns one realization and executes the nested Chebyshev recursion of
//! `kpm::kubo::double_moments` over its own buffers. Numbers are verified
//! against the host engine; modeled time exposes how the latency-bound
//! mapping fares as the arithmetic intensity grows.

use crate::engine::{DeviceMatrix, EngineError};
use crate::{Mapping, Precision, VectorLayout};
use kpm::prelude::{Boundable, DoubleMoments, KpmParams};
use kpm::random::RandomStream;
use kpm_linalg::CsrMatrix;
use kpm_streamsim::kernel::{BlockKernel, BlockScope, KernelCost};
use kpm_streamsim::{Device, Dim3, GlobalBuffer, GpuSpec, LaunchDims, SimTime};

/// Shape of a double-moment launch, for cost accounting.
#[derive(Debug, Clone, Copy)]
pub struct DoubleMomentShape {
    /// Operator dimension `D`.
    pub dim: usize,
    /// Stored Hamiltonian entries.
    pub h_entries: usize,
    /// Stored velocity-operator entries.
    pub w_entries: usize,
    /// Expansion order `N` (both indices).
    pub order: usize,
    /// Total realizations `S * R`.
    pub realizations: usize,
    /// Threads per block.
    pub block_size: usize,
}

impl DoubleMomentShape {
    /// Thread blocks (thread-per-realization mapping).
    pub fn grid_blocks(&self) -> usize {
        self.realizations.div_ceil(self.block_size)
    }

    /// Launch-wide FLOPs: per realization, `N` outer steps each running an
    /// `N`-term inner recursion (`2 h_entries` per matvec, `2 D` per dot)
    /// plus the outer recursion and `N + 1` applications of `W`.
    pub fn flops(&self) -> u64 {
        let d = self.dim as u64;
        let n = self.order as u64;
        let he = self.h_entries as u64;
        let we = self.w_entries as u64;
        let inner_per_m = (n - 1) * 2 * he + n * 2 * d; // matvecs + dots
        let per_real = 10 * d                     // RNG
            + (n + 1) * 2 * we                    // W applications
            + n * inner_per_m                     // inner recursions
            + (n - 1) * 2 * he; // outer recursion
        self.realizations as u64 * per_real
    }

    /// Declared launch cost. Traffic mirrors the 1D engine's reasoning
    /// (DESIGN.md §5) with the `O(N^2)` inner loop dominating: per
    /// realization and inner step, the vectors stream once and the matrix
    /// gathers hit DRAM.
    pub fn kernel_cost(&self, spec: &GpuSpec) -> KernelCost {
        let d = self.dim as u64;
        let n = self.order as u64;
        let reals = self.realizations as u64;
        let vec_bytes = reals * n * n * 4 * 8 * d;
        let gather = reals * n * n * 8 * self.h_entries as u64;
        let mbytes = (12 * self.h_entries + 12 * self.w_entries + 16 * (self.dim + 1)) as u64;
        let replay = if mbytes <= spec.l2_bytes as u64 {
            1
        } else {
            spec.num_sms.min(self.grid_blocks()).max(1) as u64
        };
        KernelCost::new()
            .flops(self.flops())
            .global_read(vec_bytes + gather + n * mbytes * replay)
            .global_write(reals * n * n * 8 * d / 4 + reals * n * n * 8)
            .coalescing(VectorLayout::Interleaved.coalescing(Mapping::ThreadPerRealization))
            .single_precision(self.precision() == Precision::Single)
    }

    /// Prices the launch on `spec` without executing.
    pub fn estimate(&self, spec: &GpuSpec, compute_efficiency: f64) -> SimTime {
        spec.setup_overhead
            + spec.kernel_time(
                &self.kernel_cost(spec),
                self.grid_blocks(),
                self.block_size,
                compute_efficiency,
            )
    }

    /// Arithmetic precision (double throughout, like the paper; kept as a
    /// method so a future SP ablation extends naturally).
    fn precision(&self) -> Precision {
        Precision::Double
    }
}

/// The device kernel: full nested recursion per realization.
struct DoubleMomentKernel {
    h: DeviceMatrix,
    w: DeviceMatrix,
    /// Scratch: 9 vectors per realization, interleaved layout.
    bufs: [GlobalBuffer; 9],
    /// `N^2 x S*R` partial moments, laid out `(n * N + m) * SR + t`.
    partials: GlobalBuffer,
    shape: DoubleMomentShape,
    num_random: usize,
    distribution: kpm::random::Distribution,
    master_seed: u64,
    a_plus: f64,
    a_minus: f64,
    spec: GpuSpec,
}

impl DoubleMomentKernel {
    #[inline]
    fn vidx(&self, i: usize, t: usize) -> usize {
        VectorLayout::Interleaved.index(i, t, self.shape.dim, self.shape.realizations)
    }

    /// `(M x)_row` for realization `t` reading `x` from `src`, for either
    /// stored matrix.
    #[inline]
    fn matvec_row(
        &self,
        scope: &BlockScope<'_>,
        m: &DeviceMatrix,
        src: GlobalBuffer,
        t: usize,
        row: usize,
    ) -> f64 {
        let x = scope.global(src);
        match m {
            DeviceMatrix::Dense { data, dim } => {
                let md = scope.global(*data);
                let mut acc = 0.0;
                for j in 0..*dim {
                    acc += md.load(row * dim + j) * x.load(self.vidx(j, t));
                }
                acc
            }
            DeviceMatrix::Csr { row_ptr, col_idx, values, .. } => {
                let rp = scope.global(*row_ptr);
                let ci = scope.global(*col_idx);
                let vals = scope.global(*values);
                let (start, end) = (rp.load(row) as usize, rp.load(row + 1) as usize);
                let mut acc = 0.0;
                for k in start..end {
                    acc += vals.load(k) * x.load(self.vidx(ci.load(k) as usize, t));
                }
                acc
            }
        }
    }

    fn run_realization(&self, scope: &BlockScope<'_>, t: usize) {
        let d = self.shape.dim;
        let n_mom = self.shape.order;
        let sr = self.shape.realizations;
        let (s, r) = (t / self.num_random, t % self.num_random);
        // Buffer roles.
        let [rvec, wl, b_prev, b_cur, b_next, wb, l_prev, l_cur, l_next] = self.bufs;

        // Generate |r>.
        let mut stream = RandomStream::new(self.distribution, self.master_seed, s, r);
        {
            let rv = scope.global(rvec);
            for i in 0..d {
                rv.store(self.vidx(i, t), stream.next());
            }
        }
        // <wl| = -(W r).
        {
            let wlv = scope.global(wl);
            for i in 0..d {
                let v = self.matvec_row(scope, &self.w, rvec, t, i);
                wlv.store(self.vidx(i, t), -v);
            }
        }
        // Outer recursion: b_0 = r, b_1 = H~ r.
        {
            let bp = scope.global(b_prev);
            let rv = scope.global(rvec);
            for i in 0..d {
                bp.store(self.vidx(i, t), rv.load(self.vidx(i, t)));
            }
        }
        self.scaled_matvec(scope, b_prev, b_cur, t);

        let mut bp = b_prev;
        let mut bc = b_cur;
        let mut bn = b_next;
        let inv_d = 1.0 / d as f64;
        let partials = scope.global(self.partials);
        for m in 0..n_mom {
            let b_m = if m == 0 { bp } else { bc };
            // wb = W b_m.
            {
                let wbv = scope.global(wb);
                for i in 0..d {
                    let v = self.matvec_row(scope, &self.w, b_m, t, i);
                    wbv.store(self.vidx(i, t), v);
                }
            }
            // Inner recursion on wb, contracting with <wl|.
            {
                let lp = scope.global(l_prev);
                let wbv = scope.global(wb);
                for i in 0..d {
                    lp.store(self.vidx(i, t), wbv.load(self.vidx(i, t)));
                }
            }
            self.scaled_matvec(scope, l_prev, l_cur, t);
            partials.store(m * sr + t, -self.dot(scope, wl, l_prev, t) * inv_d);
            if n_mom > 1 {
                partials.store((n_mom + m) * sr + t, -self.dot(scope, wl, l_cur, t) * inv_d);
            }
            let mut lp = l_prev;
            let mut lc = l_cur;
            let mut ln = l_next;
            for n in 2..n_mom {
                self.cheb_step(scope, lc, lp, ln, t);
                let rotated = lp;
                lp = lc;
                lc = ln;
                ln = rotated;
                partials.store((n * n_mom + m) * sr + t, -self.dot(scope, wl, lc, t) * inv_d);
            }
            // Advance the outer recursion.
            if m + 1 < n_mom && m >= 1 {
                self.cheb_step(scope, bc, bp, bn, t);
                let rotated = bp;
                bp = bc;
                bc = bn;
                bn = rotated;
            }
        }
    }

    /// `dst = H~ src` for realization `t`.
    fn scaled_matvec(
        &self,
        scope: &BlockScope<'_>,
        src: GlobalBuffer,
        dst: GlobalBuffer,
        t: usize,
    ) {
        let d = self.shape.dim;
        let dstv = scope.global(dst);
        let srcv = scope.global(src);
        for i in 0..d {
            let h = self.matvec_row(scope, &self.h, src, t, i);
            let scaled = (h - self.a_plus * srcv.load(self.vidx(i, t))) / self.a_minus;
            dstv.store(self.vidx(i, t), scaled);
        }
    }

    /// `next = 2 H~ cur - prev` for realization `t`.
    fn cheb_step(
        &self,
        scope: &BlockScope<'_>,
        cur: GlobalBuffer,
        prev: GlobalBuffer,
        next: GlobalBuffer,
        t: usize,
    ) {
        let d = self.shape.dim;
        let nx = scope.global(next);
        let pv = scope.global(prev);
        let cv = scope.global(cur);
        for i in 0..d {
            let h = self.matvec_row(scope, &self.h, cur, t, i);
            let scaled = (h - self.a_plus * cv.load(self.vidx(i, t))) / self.a_minus;
            nx.store(self.vidx(i, t), 2.0 * scaled - pv.load(self.vidx(i, t)));
        }
    }

    fn dot(&self, scope: &BlockScope<'_>, a: GlobalBuffer, b: GlobalBuffer, t: usize) -> f64 {
        let av = scope.global(a);
        let bv = scope.global(b);
        let mut acc = 0.0;
        for i in 0..self.shape.dim {
            acc += av.load(self.vidx(i, t)) * bv.load(self.vidx(i, t));
        }
        acc
    }
}

impl BlockKernel for DoubleMomentKernel {
    fn name(&self) -> &'static str {
        "kpm_double_moments"
    }

    fn execute(&self, scope: &mut BlockScope<'_>) {
        let bs = scope.block_dim().count();
        let block = scope.block_id();
        for lane in 0..bs {
            let t = block * bs + lane;
            if t < self.shape.realizations {
                self.run_realization(scope, t);
            }
        }
    }

    fn cost(&self, _dims: &LaunchDims) -> KernelCost {
        self.shape.kernel_cost(&self.spec)
    }
}

/// Runs the double-moment estimation on a simulated device, returning the
/// moments, the modeled total time, and peak device memory.
///
/// `h` is the raw Hamiltonian (rescaled on the fly via its Gershgorin
/// bounds, like the 1D engine) and `w` the velocity operator from
/// [`kpm::kubo::velocity_operator`].
///
/// # Errors
/// Device or parameter errors.
pub fn device_double_moments(
    spec: GpuSpec,
    h: &CsrMatrix,
    w: &CsrMatrix,
    params: &KpmParams,
) -> Result<(DoubleMoments, SimTime, usize), EngineError> {
    params.validate()?;
    let d = h.nrows();
    assert_eq!(w.nrows(), d, "velocity operator dimension");
    let sr = params.total_realizations();
    let n_mom = params.num_moments;
    let bounds = h.spectral_bounds(params.bounds)?.padded(params.padding);

    let mut dev = Device::new(spec);
    dev.advance_clock(dev.spec().setup_overhead);

    let upload = |dev: &mut Device, m: &CsrMatrix| -> Result<DeviceMatrix, EngineError> {
        let rp: Vec<f64> = m.row_ptr().iter().map(|&v| v as f64).collect();
        let ci: Vec<f64> = m.col_idx().iter().map(|&v| v as f64).collect();
        let row_ptr = dev.alloc(rp.len())?;
        let col_idx = dev.alloc(ci.len())?;
        let values = dev.alloc(m.values().len())?;
        dev.copy_to_device(&rp, row_ptr)?;
        dev.copy_to_device(&ci, col_idx)?;
        dev.copy_to_device(m.values(), values)?;
        Ok(DeviceMatrix::Csr { row_ptr, col_idx, values, dim: m.nrows(), nnz: m.nnz() })
    };
    let dh = upload(&mut dev, h)?;
    let dw = upload(&mut dev, w)?;

    let mut bufs_vec = Vec::with_capacity(9);
    for _ in 0..9 {
        bufs_vec.push(dev.alloc(d * sr)?);
    }
    let bufs: [GlobalBuffer; 9] = bufs_vec.try_into().expect("nine buffers");
    let partials = dev.alloc(n_mom * n_mom * sr)?;

    let shape = DoubleMomentShape {
        dim: d,
        h_entries: h.nnz(),
        w_entries: w.nnz(),
        order: n_mom,
        realizations: sr,
        block_size: 128,
    };
    let kernel = DoubleMomentKernel {
        h: dh,
        w: dw,
        bufs,
        partials,
        shape,
        num_random: params.num_random,
        distribution: params.distribution,
        master_seed: params.seed,
        a_plus: bounds.a_plus(),
        a_minus: bounds.a_minus(),
        spec: dev.spec().clone(),
    };
    dev.launch(&kernel, Dim3::x(shape.grid_blocks()), Dim3::x(shape.block_size.min(sr.max(1))))?;

    // Reduce on host (charged readback of the full partial buffer, as a
    // real implementation would transfer it for the energy reconstruction).
    let mut raw = vec![0.0; n_mom * n_mom * sr];
    let t0 = dev.elapsed();
    dev.copy_to_host(partials, &mut raw)?;
    let _ = t0;
    let mut mu = vec![0.0; n_mom * n_mom];
    for (slot, m) in mu.iter_mut().enumerate() {
        let base = slot * sr;
        *m = raw[base..base + sr].iter().sum::<f64>() / sr as f64;
    }
    let peak = dev.mem_peak();
    Ok((DoubleMoments { mu, order: n_mom }, dev.elapsed(), peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm::kubo::{double_moments, velocity_operator};
    use kpm::rescale::rescale;
    use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};

    fn chain(l: usize) -> (CsrMatrix, CsrMatrix) {
        let h = TightBinding::new(
            HypercubicLattice::chain(l, Boundary::Periodic),
            1.0,
            OnSite::Disorder { width: 1.0, seed: 6 },
        )
        .build_csr();
        let pos: Vec<f64> = (0..l).map(|i| i as f64).collect();
        let w = velocity_operator(&h, &pos, Some(l as f64));
        (h, w)
    }

    #[test]
    fn device_double_moments_match_host() {
        let (h, w) = chain(24);
        let params = KpmParams::new(6).with_random_vectors(3, 2).with_seed(77);
        let bounds = h.spectral_bounds(params.bounds).unwrap();
        let rescaled = rescale(&h, bounds.padded(params.padding), 0.0).unwrap();
        let host = double_moments(&rescaled, &w, &params).unwrap();

        let (device, time, peak) =
            device_double_moments(GpuSpec::tesla_c2050(), &h, &w, &params).unwrap();
        assert_eq!(device.order, 6);
        assert!(time.as_secs_f64() > 0.0);
        assert!(peak > 0);
        for n in 0..6 {
            for m in 0..6 {
                let scale = 1.0 + host.get(n, m).abs();
                assert!(
                    (host.get(n, m) - device.get(n, m)).abs() < 1e-9 * scale,
                    "mu_{n}{m}: host {} vs device {}",
                    host.get(n, m),
                    device.get(n, m)
                );
            }
        }
    }

    #[test]
    fn shape_flops_scale_quadratically_in_order() {
        let base = DoubleMomentShape {
            dim: 1000,
            h_entries: 7000,
            w_entries: 6000,
            order: 64,
            realizations: 1792,
            block_size: 128,
        };
        let doubled = DoubleMomentShape { order: 128, ..base };
        let ratio = doubled.flops() as f64 / base.flops() as f64;
        assert!((ratio - 4.0).abs() < 0.15, "O(N^2): ratio {ratio}");
    }

    #[test]
    fn conductivity_is_far_heavier_than_dos_at_paper_scale() {
        // The motivation for accelerating KPM grows with the observable:
        // at the paper's Fig. 5 parameters, N = 256 double moments cost
        // ~100x the DoS run.
        let spec = GpuSpec::tesla_c2050();
        let dos_shape = crate::MomentLaunchShape {
            dim: 1000,
            stored_entries: 7000,
            dense: false,
            format: crate::SparseFormat::Csr,
            num_moments: 256,
            realizations: 1792,
            mapping: Mapping::ThreadPerRealization,
            layout: VectorLayout::Interleaved,
            block_size: 128,
            precision: Precision::Double,
        };
        let kubo_shape = DoubleMomentShape {
            dim: 1000,
            h_entries: 7000,
            w_entries: 6000,
            order: 256,
            realizations: 1792,
            block_size: 128,
        };
        let t_dos = kpm_streamsim::queue::MomentRunPlan::new(dos_shape)
            .with_overlap(false)
            .total(&spec, 0.2)
            .as_secs_f64();
        let t_kubo = kubo_shape.estimate(&spec, 0.2).as_secs_f64();
        assert!(t_kubo > 50.0 * t_dos, "2D KPM must dwarf the DoS: {t_dos} vs {t_kubo}");
    }
}
