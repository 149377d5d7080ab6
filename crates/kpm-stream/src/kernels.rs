//! The device kernels of the paper's Fig. 4.
//!
//! * [`MomentGenKernel`] — Fig. 4a: random-vector generation plus the full
//!   `N`-iteration Chebyshev recursion and per-realization dot products,
//!   in one launch. Supports both work mappings (see
//!   [`crate::Mapping`]).
//! * [`MomentReduceKernel`] — Fig. 4b: parallel summation of the
//!   per-realization `mu~_n` into `mu_n`, one block per moment order, with
//!   a shared-memory tree reduction.
//!
//! The kernels apply the spectral rescaling on the fly:
//! `H~ x = (H x - a_+ x) / a_-`, so the uploaded matrix is the *raw*
//! Hamiltonian, exactly as the host code of the paper would do it.
//!
//! Random streams are the same counter-based streams the CPU reference
//! uses ([`kpm::random::RandomStream`]), so per-realization moments agree
//! with the reference to floating-point reduction-order differences
//! (~1e-13), which the tests pin down.

use crate::engine::DeviceMatrix;
use crate::{Mapping, MomentLaunchShape};
use kpm::random::{Distribution, RandomStream};
use kpm_streamsim::kernel::{BlockKernel, BlockScope, KernelCost};
use kpm_streamsim::{GlobalBuffer, GpuSpec, LaunchDims};

/// Fig. 4a: generation of all per-realization moments.
pub struct MomentGenKernel {
    /// The (raw, unscaled) matrix on the device.
    pub matrix: DeviceMatrix,
    /// Start vectors `r_0`, one per realization.
    pub r0: GlobalBuffer,
    /// Recursion buffer `r_{n}` (previous).
    pub va: GlobalBuffer,
    /// Recursion buffer `r_{n+1}` (current).
    pub vb: GlobalBuffer,
    /// Recursion buffer `r_{n+2}` (next) — the paper's fourth vector.
    pub vc: GlobalBuffer,
    /// Per-realization moments `mu~_n`, laid out `n * S*R + t`.
    pub partials: GlobalBuffer,
    /// Launch shape (dims, mapping, layout, block size).
    pub shape: MomentLaunchShape,
    /// `R`, to decompose a realization index into `(s, r)` for seeding.
    pub num_random: usize,
    /// Random component distribution.
    pub distribution: Distribution,
    /// Master seed.
    pub master_seed: u64,
    /// Rescaling centre `a_+`.
    pub a_plus: f64,
    /// Rescaling half-width `a_-`.
    pub a_minus: f64,
    /// Hardware spec used for cost declaration (L2-dependent traffic).
    pub spec: GpuSpec,
}

impl MomentGenKernel {
    #[inline]
    fn vidx(&self, i: usize, t: usize) -> usize {
        self.shape.layout.index(i, t, self.shape.dim, self.shape.realizations)
    }

    /// `y_row = (H x)_row` for realization `t`, reading `x` from `src`.
    #[inline]
    fn matvec_row(&self, scope: &BlockScope<'_>, src: GlobalBuffer, t: usize, row: usize) -> f64 {
        let x = scope.global(src);
        match &self.matrix {
            DeviceMatrix::Dense { data, dim } => {
                let m = scope.global(*data);
                let mut acc = 0.0;
                let base = row * dim;
                for j in 0..*dim {
                    acc += m.load(base + j) * x.load(self.vidx(j, t));
                }
                acc
            }
            DeviceMatrix::Csr { row_ptr, col_idx, values, .. } => {
                let rp = scope.global(*row_ptr);
                let ci = scope.global(*col_idx);
                let vals = scope.global(*values);
                let start = rp.load(row) as usize;
                let end = rp.load(row + 1) as usize;
                let mut acc = 0.0;
                for k in start..end {
                    let col = ci.load(k) as usize;
                    acc += vals.load(k) * x.load(self.vidx(col, t));
                }
                acc
            }
        }
    }

    /// `(H~ x)_row = ((H x)_row - a_+ x_row) / a_-`.
    #[inline]
    fn scaled_matvec_row(
        &self,
        scope: &BlockScope<'_>,
        src: GlobalBuffer,
        t: usize,
        row: usize,
    ) -> f64 {
        let hx = self.matvec_row(scope, src, t, row);
        let x_row = scope.global(src).load(self.vidx(row, t));
        (hx - self.a_plus * x_row) / self.a_minus
    }

    /// Runs the whole recursion for realization `t` (thread-per-realization
    /// path; one simulated thread does all of this serially, as in the
    /// paper).
    fn run_realization(&self, scope: &BlockScope<'_>, t: usize) {
        let d = self.shape.dim;
        let n_mom = self.shape.num_moments;
        let sr = self.shape.realizations;
        let (s, r) = (t / self.num_random, t % self.num_random);

        // Step (1): generate |r> and set r_prev = r_0.
        let mut stream = RandomStream::new(self.distribution, self.master_seed, s, r);
        {
            let r0 = scope.global(self.r0);
            let va = scope.global(self.va);
            for i in 0..d {
                let xi = stream.next();
                r0.store(self.vidx(i, t), xi);
                va.store(self.vidx(i, t), xi);
            }
        }

        // mu~_0 = <r_0|r_0>.
        let dot_with_r0 = |buf: GlobalBuffer| -> f64 {
            let r0 = scope.global(self.r0);
            let v = scope.global(buf);
            let mut acc = 0.0;
            for i in 0..d {
                acc += r0.load(self.vidx(i, t)) * v.load(self.vidx(i, t));
            }
            acc
        };
        let partials = scope.global(self.partials);
        partials.store(t, dot_with_r0(self.r0));

        // r_1 = H~ r_0  (step 2.1 for n = 1).
        {
            let vb = scope.global(self.vb);
            for i in 0..d {
                let h = self.scaled_matvec_row(scope, self.va, t, i);
                vb.store(self.vidx(i, t), h);
            }
        }
        if n_mom > 1 {
            partials.store(sr + t, dot_with_r0(self.vb));
        }

        // Steps (2.1)/(2.2) for n = 2..N, rotating the three work buffers
        // (va = r_n, vb = r_{n+1}, vc = r_{n+2}) — the paper's pointer swap.
        let mut prev = self.va;
        let mut cur = self.vb;
        let mut next = self.vc;
        for n in 2..n_mom {
            {
                let p = scope.global(prev);
                let nx = scope.global(next);
                for i in 0..d {
                    let h = self.scaled_matvec_row(scope, cur, t, i);
                    nx.store(self.vidx(i, t), 2.0 * h - p.load(self.vidx(i, t)));
                }
            }
            let rotated = prev;
            prev = cur;
            cur = next;
            next = rotated;
            partials.store(n * sr + t, dot_with_r0(cur));
        }
    }

    /// Block-per-realization path: the block's threads partition rows and a
    /// shared-memory tree combines the dot products — structurally the CUDA
    /// kernel the ablation proposes.
    fn run_block_realization(&self, scope: &mut BlockScope<'_>, t: usize) {
        let d = self.shape.dim;
        let n_mom = self.shape.num_moments;
        let sr = self.shape.realizations;
        let bs = scope.block_dim().count();
        let (s, r) = (t / self.num_random, t % self.num_random);

        // RNG is a serial stream: thread 0 generates (the cost model keeps
        // the full RNG flop count; the serialization is negligible next to
        // the N-loop).
        let mut stream = RandomStream::new(self.distribution, self.master_seed, s, r);
        {
            let r0 = scope.global(self.r0);
            let va = scope.global(self.va);
            for i in 0..d {
                let xi = stream.next();
                r0.store(self.vidx(i, t), xi);
                va.store(self.vidx(i, t), xi);
            }
        }
        scope.barrier();

        // Shared-memory tree dot product of `buf` against r0.
        let block_dot = |scope: &mut BlockScope<'_>, buf: GlobalBuffer| -> f64 {
            let partial: Vec<f64> = {
                let r0 = scope.global(self.r0);
                let v = scope.global(buf);
                (0..bs)
                    .map(|tid| {
                        let mut acc = 0.0;
                        let mut i = tid;
                        while i < d {
                            acc += r0.load(self.vidx(i, t)) * v.load(self.vidx(i, t));
                            i += bs;
                        }
                        acc
                    })
                    .collect()
            };
            for (tid, p) in partial.into_iter().enumerate() {
                scope.shared_store(tid, p);
            }
            scope.barrier();
            let mut stride = bs.next_power_of_two() / 2;
            while stride > 0 {
                for tid in 0..stride.min(bs) {
                    if tid + stride < bs {
                        let a = scope.shared_load(tid);
                        let b = scope.shared_load(tid + stride);
                        scope.shared_store(tid, a + b);
                    }
                }
                scope.barrier();
                stride /= 2;
            }
            scope.shared_load(0)
        };

        let mu0 = block_dot(scope, self.r0);
        scope.global(self.partials).store(t, mu0);

        // r_1 = H~ r_0, rows partitioned over threads.
        {
            let vb = scope.global(self.vb);
            for tid in 0..bs {
                let mut i = tid;
                while i < d {
                    let h = self.scaled_matvec_row(scope, self.va, t, i);
                    vb.store(self.vidx(i, t), h);
                    i += bs;
                }
            }
        }
        scope.barrier();
        if n_mom > 1 {
            let mu1 = block_dot(scope, self.vb);
            scope.global(self.partials).store(sr + t, mu1);
        }

        let mut prev = self.va;
        let mut cur = self.vb;
        let mut next = self.vc;
        for n in 2..n_mom {
            {
                let p = scope.global(prev);
                let nx = scope.global(next);
                for tid in 0..bs {
                    let mut i = tid;
                    while i < d {
                        let h = self.scaled_matvec_row(scope, cur, t, i);
                        nx.store(self.vidx(i, t), 2.0 * h - p.load(self.vidx(i, t)));
                        i += bs;
                    }
                }
            }
            scope.barrier();
            let rotated = prev;
            prev = cur;
            cur = next;
            next = rotated;
            let mu = block_dot(scope, cur);
            scope.global(self.partials).store(n * sr + t, mu);
        }
    }
}

impl BlockKernel for MomentGenKernel {
    fn name(&self) -> &'static str {
        "kpm_moment_generation"
    }

    fn execute(&self, scope: &mut BlockScope<'_>) {
        match self.shape.mapping {
            Mapping::ThreadPerRealization => {
                let bs = scope.block_dim().count();
                let block = scope.block_id();
                for lane in 0..bs {
                    let t = block * bs + lane;
                    if t < self.shape.realizations {
                        self.run_realization(scope, t);
                    }
                }
            }
            Mapping::BlockPerRealization => {
                let t = scope.block_id();
                if t < self.shape.realizations {
                    self.run_block_realization(scope, t);
                }
            }
        }
    }

    fn cost(&self, _dims: &LaunchDims) -> KernelCost {
        self.shape.kernel_cost(&self.spec)
    }

    fn shared_words(&self, dims: &LaunchDims) -> usize {
        match self.shape.mapping {
            Mapping::ThreadPerRealization => 0,
            Mapping::BlockPerRealization => dims.threads_per_block(),
        }
    }
}

/// Fig. 4b: `mu_n = sum_t mu~_n[t]`, one block per moment order.
pub struct MomentReduceKernel {
    /// The `N x S*R` partial buffer written by [`MomentGenKernel`].
    pub partials: GlobalBuffer,
    /// Output vector of `N` sums.
    pub output: GlobalBuffer,
    /// Realization count `S*R`.
    pub realizations: usize,
    /// Moment count `N`.
    pub num_moments: usize,
    /// Launch shape (for cost declaration).
    pub shape: MomentLaunchShape,
}

impl BlockKernel for MomentReduceKernel {
    fn name(&self) -> &'static str {
        "kpm_moment_reduce"
    }

    fn execute(&self, scope: &mut BlockScope<'_>) {
        let n = scope.block_id();
        if n >= self.num_moments {
            return;
        }
        let bs = scope.block_dim().count();
        let sr = self.realizations;
        // Grid-stride accumulation into shared memory, then tree-reduce.
        let partial: Vec<f64> = {
            let p = scope.global(self.partials);
            (0..bs)
                .map(|tid| {
                    let mut acc = 0.0;
                    let mut t = tid;
                    while t < sr {
                        acc += p.load(n * sr + t);
                        t += bs;
                    }
                    acc
                })
                .collect()
        };
        for (tid, v) in partial.into_iter().enumerate() {
            scope.shared_store(tid, v);
        }
        scope.barrier();
        let mut stride = bs.next_power_of_two() / 2;
        while stride > 0 {
            for tid in 0..stride.min(bs) {
                if tid + stride < bs {
                    let a = scope.shared_load(tid);
                    let b = scope.shared_load(tid + stride);
                    scope.shared_store(tid, a + b);
                }
            }
            scope.barrier();
            stride /= 2;
        }
        let total = scope.shared_load(0);
        scope.global(self.output).store(n, total);
    }

    fn cost(&self, _dims: &LaunchDims) -> KernelCost {
        self.shape.reduce_cost()
    }

    fn shared_words(&self, dims: &LaunchDims) -> usize {
        dims.threads_per_block()
    }
}
