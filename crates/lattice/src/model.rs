//! Tight-binding Hamiltonian assembly on a hypercubic lattice.
//!
//! `H = Σ_i ε_i |i><i|  -  t Σ_<ij> ( |i><j| + |j><i| )`
//!
//! with on-site energies `ε_i` (uniform or Anderson-disordered) and
//! nearest-neighbour hopping amplitude `t`.

use crate::hypercubic::{Boundary, HypercubicLattice};
use kpm_linalg::csr::{self, CsrMatrix};
use kpm_linalg::ell::EllMatrix;
use kpm_linalg::sparse::{MatrixFormat, SparseMatrix, AUTO_STENCIL_MIN_DIM};
use kpm_linalg::stencil::{StencilGeometry, StencilOp};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// On-site energy specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnSite {
    /// Every site has the same energy `ε`.
    Uniform(f64),
    /// Anderson disorder: `ε_i` i.i.d. uniform in `[-w/2, w/2]`, drawn
    /// deterministically from `seed`.
    Disorder {
        /// Disorder strength `W` (full width of the box distribution).
        width: f64,
        /// RNG seed so disorder realizations are reproducible.
        seed: u64,
    },
}

/// A tight-binding model: geometry + couplings.
#[derive(Debug, Clone)]
pub struct TightBinding {
    lattice: HypercubicLattice,
    hopping: f64,
    next_nearest: f64,
    onsite: OnSite,
    store_zero_diagonal: bool,
}

impl TightBinding {
    /// Model with hopping `t` and on-site term; the Hamiltonian's hopping
    /// entries are `-t` (physics sign convention).
    pub fn new(lattice: HypercubicLattice, hopping: f64, onsite: OnSite) -> Self {
        Self { lattice, hopping, next_nearest: 0.0, onsite, store_zero_diagonal: false }
    }

    /// Adds next-nearest-neighbour hopping `t'` along each axis (entries
    /// `-t'` between sites two steps apart in one direction). A nonzero
    /// `t'` breaks particle–hole symmetry — useful for testing
    /// asymmetric-band physics (thermal, spectral).
    pub fn with_next_nearest(mut self, t_prime: f64) -> Self {
        self.next_nearest = t_prime;
        self
    }

    /// Stores the diagonal explicitly even when it is identically zero.
    ///
    /// The paper's matrix keeps the zero diagonal stored — that is how its
    /// rows come to hold *seven* elements on a 6-neighbour cubic lattice —
    /// so the reproduction enables this for the Fig. 5 workload.
    pub fn store_zero_diagonal(mut self, yes: bool) -> Self {
        self.store_zero_diagonal = yes;
        self
    }

    /// The lattice geometry.
    pub fn lattice(&self) -> &HypercubicLattice {
        &self.lattice
    }

    /// Hopping amplitude `t`.
    pub fn hopping(&self) -> f64 {
        self.hopping
    }

    /// On-site specification.
    pub fn onsite(&self) -> OnSite {
        self.onsite
    }

    /// Realized on-site energies, one per site.
    pub fn onsite_energies(&self) -> Vec<f64> {
        let n = self.lattice.num_sites();
        match self.onsite {
            OnSite::Uniform(e) => vec![e; n],
            OnSite::Disorder { width, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let dist = Uniform::new_inclusive(-width / 2.0, width / 2.0);
                (0..n).map(|_| dist.sample(&mut rng)).collect()
            }
        }
    }

    /// Assembles the Hamiltonian in CSR form.
    ///
    /// Row by row, in one pass: the diagonal (when stored), then `-t` for
    /// each nearest neighbour and `-t'` for each axial next-nearest one,
    /// sorted by column, with the entries of a column summed, straight into
    /// the CSR arrays. Each undirected bond is visited from both endpoints,
    /// so a row holds only its own directed entries. A column gets two
    /// entries only where a `t'` bond lands on a nearest neighbour (a
    /// periodic extent of 3), and their sum does not depend on the order.
    pub fn build_csr(&self) -> CsrMatrix {
        let lattice = &self.lattice;
        let n = lattice.num_sites();
        let energies = self.onsite_energies();
        let nn = (1, -self.hopping);
        let nnn = (2, -self.next_nearest);
        let bonds: &[(usize, f64)] = if self.next_nearest != 0.0 { &[nn, nnn] } else { &[nn] };
        let row_len = 1 + 2 * lattice.ndim() * bonds.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(n * row_len);
        let mut values = Vec::with_capacity(n * row_len);
        row_ptr.push(0);
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(row_len);
        let mut coords = vec![0usize; lattice.ndim()];
        for (i, &e) in energies.iter().enumerate() {
            row.clear();
            if e != 0.0 || self.store_zero_diagonal {
                row.push((i, e));
            }
            for &(step, v) in bonds {
                lattice.for_each_axial_neighbor(i, &coords, step, |j| row.push((j, v)));
            }
            row.sort_by_key(|&(c, _)| c);
            let mut last = None;
            for &(c, v) in &row {
                if last == Some(c) {
                    *values.last_mut().expect("a column was pushed") += v;
                } else {
                    col_idx.push(csr::index(c));
                    values.push(v);
                    last = Some(c);
                }
            }
            row_ptr.push(csr::index(col_idx.len()));
            // The next site's coordinates: x_0 runs fastest.
            for (c, &l) in coords.iter_mut().zip(lattice.dims()) {
                *c += 1;
                if *c < l {
                    break;
                }
                *c = 0;
            }
        }
        CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
            .expect("lattice assembly produced invalid CSR — internal bug")
    }

    /// Assembles the Hamiltonian in padded ELL form (same entries as
    /// [`Self::build_csr`], bitwise-identical application).
    pub fn build_ell(&self) -> EllMatrix {
        EllMatrix::from_csr(&self.build_csr())
    }

    /// Assembles the Hamiltonian as a matrix-free stencil, or `None` when
    /// the model has terms the stencil cannot express (next-nearest
    /// hopping) or the lattice exceeds the stencil's dimension limit.
    pub fn build_stencil(&self) -> Option<StencilOp> {
        if self.next_nearest != 0.0 || self.lattice.ndim() > 8 {
            return None;
        }
        let geometry = StencilGeometry::Hypercubic {
            dims: self.lattice.dims().to_vec(),
            periodic: self.lattice.boundaries().iter().map(|&b| b == Boundary::Periodic).collect(),
        };
        Some(StencilOp::new(
            geometry,
            self.hopping,
            self.onsite_energies(),
            self.store_zero_diagonal,
        ))
    }

    /// Assembles the Hamiltonian in the requested storage format.
    ///
    /// [`MatrixFormat::Stencil`] falls back to CSR when
    /// [`Self::build_stencil`] cannot express the model;
    /// [`MatrixFormat::Auto`] builds the stencil from
    /// [`AUTO_STENCIL_MIN_DIM`] sites up, and CSR below it or when the
    /// stencil cannot express the model.
    pub fn build_format(&self, format: MatrixFormat) -> SparseMatrix {
        let stencil = match format {
            MatrixFormat::Csr => false,
            MatrixFormat::Ell => return SparseMatrix::Ell(self.build_ell()),
            MatrixFormat::Stencil => true,
            MatrixFormat::Auto => self.lattice.num_sites() >= AUTO_STENCIL_MIN_DIM,
        };
        match stencil.then(|| self.build_stencil()).flatten() {
            Some(s) => SparseMatrix::Stencil(s),
            None => SparseMatrix::Csr(self.build_csr()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercubic::Boundary;
    use kpm_linalg::eigen::jacobi_eigenvalues;
    use kpm_linalg::LinearOp;

    #[test]
    fn chain_hamiltonian_structure() {
        let tb = TightBinding::new(
            HypercubicLattice::chain(4, Boundary::Open),
            1.0,
            OnSite::Uniform(0.0),
        );
        let h = tb.build_csr();
        assert_eq!(h.nrows(), 4);
        assert_eq!(h.nnz(), 6); // 3 bonds x 2 directed entries, no diagonal
        assert_eq!(h.get(0, 1), -1.0);
        assert_eq!(h.get(1, 0), -1.0);
        assert_eq!(h.get(0, 0), 0.0);
        assert!(h.is_symmetric(0.0));
    }

    #[test]
    fn explicit_zero_diagonal_changes_storage_not_values() {
        let lat = HypercubicLattice::chain(4, Boundary::Periodic);
        let plain = TightBinding::new(lat.clone(), 1.0, OnSite::Uniform(0.0)).build_csr();
        let stored =
            TightBinding::new(lat, 1.0, OnSite::Uniform(0.0)).store_zero_diagonal(true).build_csr();
        assert_eq!(stored.nnz(), plain.nnz() + 4);
        assert_eq!(plain.to_dense(), stored.to_dense());
    }

    #[test]
    fn periodic_chain_spectrum_is_analytic() {
        // PBC chain: E_k = -2 t cos(2 pi k / L).
        let l = 8;
        let tb = TightBinding::new(
            HypercubicLattice::chain(l, Boundary::Periodic),
            1.0,
            OnSite::Uniform(0.0),
        );
        let h = tb.build_csr().to_dense();
        let eig = jacobi_eigenvalues(&h).unwrap();
        let mut expected: Vec<f64> = (0..l)
            .map(|k| -2.0 * (2.0 * std::f64::consts::PI * k as f64 / l as f64).cos())
            .collect();
        expected.sort_by(f64::total_cmp);
        for (a, b) in eig.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn square_lattice_spectrum_is_separable() {
        // PBC square lattice: E = -2t (cos kx + cos ky).
        let l = 4;
        let tb = TightBinding::new(
            HypercubicLattice::square(l, l, Boundary::Periodic),
            1.0,
            OnSite::Uniform(0.0),
        );
        let eig = jacobi_eigenvalues(&tb.build_csr().to_dense()).unwrap();
        let mut expected = Vec::new();
        for kx in 0..l {
            for ky in 0..l {
                let e = -2.0
                    * ((2.0 * std::f64::consts::PI * kx as f64 / l as f64).cos()
                        + (2.0 * std::f64::consts::PI * ky as f64 / l as f64).cos());
                expected.push(e);
            }
        }
        expected.sort_by(f64::total_cmp);
        for (a, b) in eig.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn uniform_onsite_shifts_spectrum() {
        let lat = HypercubicLattice::chain(6, Boundary::Open);
        let h0 = TightBinding::new(lat.clone(), 1.0, OnSite::Uniform(0.0)).build_csr();
        let h1 = TightBinding::new(lat, 1.0, OnSite::Uniform(0.7)).build_csr();
        let e0 = jacobi_eigenvalues(&h0.to_dense()).unwrap();
        let e1 = jacobi_eigenvalues(&h1.to_dense()).unwrap();
        for (a, b) in e0.iter().zip(&e1) {
            assert!((a + 0.7 - b).abs() < 1e-10);
        }
    }

    #[test]
    fn disorder_is_reproducible_and_bounded() {
        let lat = HypercubicLattice::square(5, 5, Boundary::Periodic);
        let mk = |seed| {
            TightBinding::new(lat.clone(), 1.0, OnSite::Disorder { width: 2.0, seed })
                .onsite_energies()
        };
        let a = mk(42);
        let b = mk(42);
        let c = mk(43);
        assert_eq!(a, b, "same seed must give same disorder");
        assert_ne!(a, c, "different seeds must differ");
        assert!(a.iter().all(|&e| (-1.0..=1.0).contains(&e)));
        // Not all equal (vanishing probability).
        assert!(a.iter().any(|&e| (e - a[0]).abs() > 1e-12));
    }

    #[test]
    fn disordered_hamiltonian_is_symmetric_with_diagonal() {
        let lat = HypercubicLattice::cubic(3, 3, 3, Boundary::Periodic);
        let tb = TightBinding::new(lat, 1.0, OnSite::Disorder { width: 4.0, seed: 7 });
        let h = tb.build_csr();
        assert!(h.is_symmetric(0.0));
        // 6 neighbors + nonzero diagonal per row (diagonal ~ never exactly 0).
        assert_eq!(h.nnz(), 27 * 7);
        assert_eq!(h.dim(), 27);
    }

    #[test]
    fn hopping_amplitude_scales_entries() {
        let lat = HypercubicLattice::chain(3, Boundary::Open);
        let h = TightBinding::new(lat, 2.5, OnSite::Uniform(0.0)).build_csr();
        assert_eq!(h.get(0, 1), -2.5);
    }

    #[test]
    fn next_nearest_hopping_spectrum_is_analytic() {
        // PBC chain with t and t': E_k = -2t cos k - 2t' cos 2k.
        let l = 10;
        let (t, tp) = (1.0, 0.3);
        let h = TightBinding::new(
            HypercubicLattice::chain(l, Boundary::Periodic),
            t,
            OnSite::Uniform(0.0),
        )
        .with_next_nearest(tp)
        .build_csr();
        assert!(h.is_symmetric(0.0));
        assert_eq!(h.get(0, 2), -tp);
        assert_eq!(h.get(0, l - 2), -tp, "periodic wrap of the t' bond");
        let eig = jacobi_eigenvalues(&h.to_dense()).unwrap();
        let mut expected: Vec<f64> = (0..l)
            .map(|m| {
                let k = 2.0 * std::f64::consts::PI * m as f64 / l as f64;
                -2.0 * t * k.cos() - 2.0 * tp * (2.0 * k).cos()
            })
            .collect();
        expected.sort_by(f64::total_cmp);
        for (a, b) in eig.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn next_nearest_breaks_particle_hole_symmetry() {
        let l = 12;
        let h = TightBinding::new(
            HypercubicLattice::chain(l, Boundary::Periodic),
            1.0,
            OnSite::Uniform(0.0),
        )
        .with_next_nearest(0.4)
        .build_csr();
        let eig = jacobi_eigenvalues(&h.to_dense()).unwrap();
        // Spectrum no longer symmetric about zero: the trace of H^1 is 0
        // but of the asymmetry shows in eigenvalue pairing.
        let paired = (0..l).all(|k| (eig[k] + eig[l - 1 - k]).abs() < 1e-9);
        assert!(!paired, "t' must break +-E pairing");
    }

    #[test]
    fn axial_neighbors_open_boundary_edges() {
        let lat = HypercubicLattice::chain(5, Boundary::Open);
        assert_eq!(lat.axial_neighbors(0, 2), vec![2]);
        assert_eq!(lat.axial_neighbors(2, 2), vec![4, 0]);
        assert_eq!(lat.axial_neighbors(4, 2), vec![2]);
        // Step beyond the lattice: nothing.
        assert!(lat.axial_neighbors(2, 5).is_empty());
    }
}
