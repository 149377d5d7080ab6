//! Hypercubic lattice geometry: site indexing and neighbour enumeration for
//! chains (1D), square lattices (2D), simple-cubic lattices (3D), and any
//! higher dimension.

/// Boundary condition along one lattice direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// No wrap-around bond between site `L-1` and site `0`.
    Open,
    /// Wrap-around bond (ring / torus).
    Periodic,
}

/// A `d`-dimensional hypercubic lattice with per-direction extents and
/// boundary conditions. Sites are indexed row-major: index
/// `i = x_0 + L_0 * (x_1 + L_1 * (x_2 + ...))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypercubicLattice {
    dims: Vec<usize>,
    boundary: Vec<Boundary>,
}

impl HypercubicLattice {
    /// Builds a lattice with the same boundary condition in every direction.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any extent is zero.
    pub fn new(dims: &[usize], boundary: Boundary) -> Self {
        Self::with_boundaries(dims, &vec![boundary; dims.len()])
    }

    /// Builds a lattice with per-direction boundary conditions.
    ///
    /// # Panics
    /// Panics if `dims` is empty, any extent is zero, or the two slices have
    /// different lengths.
    pub fn with_boundaries(dims: &[usize], boundary: &[Boundary]) -> Self {
        assert!(!dims.is_empty(), "lattice must have at least one dimension");
        assert!(dims.iter().all(|&l| l > 0), "every extent must be positive");
        assert_eq!(dims.len(), boundary.len(), "dims/boundary length mismatch");
        Self { dims: dims.to_vec(), boundary: boundary.to_vec() }
    }

    /// 1D chain of `l` sites.
    pub fn chain(l: usize, boundary: Boundary) -> Self {
        Self::new(&[l], boundary)
    }

    /// 2D square lattice `lx x ly`.
    pub fn square(lx: usize, ly: usize, boundary: Boundary) -> Self {
        Self::new(&[lx, ly], boundary)
    }

    /// 3D simple-cubic lattice `lx x ly x lz` — the paper's geometry.
    pub fn cubic(lx: usize, ly: usize, lz: usize, boundary: Boundary) -> Self {
        Self::new(&[lx, ly, lz], boundary)
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Extents per dimension.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Boundary condition per dimension.
    pub fn boundaries(&self) -> &[Boundary] {
        &self.boundary
    }

    /// Total number of sites `D = Π L_k` — the paper's `H_SIZE`.
    pub fn num_sites(&self) -> usize {
        self.dims.iter().product()
    }

    /// Converts coordinates to the flat site index.
    ///
    /// # Panics
    /// Panics if `coords` has wrong length or any coordinate is out of range.
    pub fn site_index(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.ndim(), "coordinate arity mismatch");
        let mut idx = 0usize;
        for (k, (&c, &l)) in coords.iter().zip(&self.dims).enumerate().rev() {
            assert!(c < l, "coordinate {c} out of range in dimension {k} (extent {l})");
            idx = idx * l + c;
        }
        idx
    }

    /// Converts a flat site index back to coordinates.
    ///
    /// # Panics
    /// Panics if `index >= num_sites()`.
    pub fn coordinates(&self, index: usize) -> Vec<usize> {
        assert!(index < self.num_sites(), "site index {index} out of range");
        let mut rem = index;
        let mut coords = Vec::with_capacity(self.ndim());
        for &l in &self.dims {
            coords.push(rem % l);
            rem /= l;
        }
        coords
    }

    /// Nearest neighbours of a site, in the `+k` and `-k` direction for each
    /// dimension `k`, respecting boundary conditions. Each undirected bond
    /// appears once from each endpoint; the same neighbour is **not**
    /// repeated if the lattice direction has extent 2 with periodic wrap
    /// (where `+k` and `-k` coincide) or extent 1 (self-loops are skipped).
    pub fn neighbors(&self, index: usize) -> Vec<usize> {
        self.axial_neighbors(index, 1)
    }

    /// Sites exactly `step` lattice spacings away *along one axis* (the
    /// `±step` offsets per dimension), respecting boundary conditions.
    /// `step = 1` gives the nearest neighbours; `step = 2` the axial
    /// next-nearest neighbours used by [`crate::TightBinding`]'s `t'` term.
    ///
    /// # Panics
    /// Panics if `step == 0`.
    pub fn axial_neighbors(&self, index: usize, step: usize) -> Vec<usize> {
        assert!(step > 0, "step must be positive");
        let coords = self.coordinates(index);
        let mut out = Vec::with_capacity(2 * self.ndim());
        for k in 0..self.ndim() {
            let l = self.dims[k];
            if l == 1 {
                continue; // self-loop; no hopping term
            }
            let push_site = |c_new: usize, out: &mut Vec<usize>| {
                let mut c2 = coords.clone();
                c2[k] = c_new;
                let j = self.site_index(&c2);
                if j != index && !out.contains(&j) {
                    out.push(j);
                }
            };
            // +k direction
            if coords[k] + step < l {
                push_site(coords[k] + step, &mut out);
            } else if self.boundary[k] == Boundary::Periodic {
                push_site((coords[k] + step) % l, &mut out);
            }
            // -k direction
            if coords[k] >= step {
                push_site(coords[k] - step, &mut out);
            } else if self.boundary[k] == Boundary::Periodic {
                let wrapped = (coords[k] + l - step % l) % l;
                push_site(wrapped, &mut out);
            }
        }
        out
    }

    /// Calls `f` with each site of [`Self::axial_neighbors`]`(index, step)`,
    /// in the same order, without allocating: the lattice assembly's walk.
    /// `coords` must be [`Self::coordinates`]`(index)`, and `step > 0`.
    ///
    /// Per dimension the `+step` site comes before the `-step` site. A site
    /// is skipped when it is `index` itself (extent 1, or a wrap back onto
    /// the site) or when both directions reach it (a periodic extent
    /// dividing `2 * step`). Two dimensions never reach the same site, since
    /// each changes only its own coordinate, so no site is repeated. The
    /// `kpm-lattice` proptests check the assembly against
    /// [`Self::axial_neighbors`].
    pub(crate) fn for_each_axial_neighbor(
        &self,
        index: usize,
        coords: &[usize],
        step: usize,
        mut f: impl FnMut(usize),
    ) {
        let mut stride = 1;
        for (k, (&l, &c)) in self.dims.iter().zip(coords).enumerate() {
            let periodic = self.boundary[k] == Boundary::Periodic;
            let plus = if c + step < l {
                Some(c + step)
            } else if periodic {
                Some((c + step) % l)
            } else {
                None
            };
            let minus = if c >= step {
                Some(c - step)
            } else if periodic {
                Some((c + l - step % l) % l)
            } else {
                None
            };
            // The site at coordinate `c_new` along `k`; `index - c * stride`
            // is the site at coordinate 0 there.
            let site = |c_new: usize| index - c * stride + c_new * stride;
            if let Some(p) = plus.filter(|&p| p != c) {
                f(site(p));
            }
            if let Some(m) = minus.filter(|&m| m != c && Some(m) != plus) {
                f(site(m));
            }
            stride *= l;
        }
    }

    /// Total number of undirected nearest-neighbour bonds.
    pub fn num_bonds(&self) -> usize {
        let degree_sum: usize = (0..self.num_sites()).map(|i| self.neighbors(i).len()).sum();
        degree_sum / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let lat = HypercubicLattice::cubic(3, 4, 5, Boundary::Periodic);
        assert_eq!(lat.num_sites(), 60);
        for i in 0..lat.num_sites() {
            assert_eq!(lat.site_index(&lat.coordinates(i)), i);
        }
    }

    #[test]
    fn row_major_order() {
        let lat = HypercubicLattice::square(3, 2, Boundary::Open);
        assert_eq!(lat.site_index(&[0, 0]), 0);
        assert_eq!(lat.site_index(&[1, 0]), 1);
        assert_eq!(lat.site_index(&[2, 0]), 2);
        assert_eq!(lat.site_index(&[0, 1]), 3);
    }

    #[test]
    fn chain_neighbors_open_and_periodic() {
        let open = HypercubicLattice::chain(5, Boundary::Open);
        assert_eq!(open.neighbors(0), vec![1]);
        assert_eq!(open.neighbors(2), vec![3, 1]);
        assert_eq!(open.neighbors(4), vec![3]);

        let per = HypercubicLattice::chain(5, Boundary::Periodic);
        let mut n0 = per.neighbors(0);
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 4]);
    }

    #[test]
    fn cubic_interior_site_has_six_neighbors() {
        let lat = HypercubicLattice::cubic(4, 4, 4, Boundary::Open);
        let center = lat.site_index(&[1, 2, 1]);
        assert_eq!(lat.neighbors(center).len(), 6);
        // Corner of the open lattice has only three.
        assert_eq!(lat.neighbors(lat.site_index(&[0, 0, 0])).len(), 3);
    }

    #[test]
    fn periodic_cubic_every_site_has_six_neighbors() {
        let lat = HypercubicLattice::cubic(3, 3, 3, Boundary::Periodic);
        for i in 0..lat.num_sites() {
            assert_eq!(lat.neighbors(i).len(), 6, "site {i}");
        }
    }

    #[test]
    fn length_two_periodic_does_not_duplicate_neighbor() {
        // With L=2 periodic, +1 and -1 reach the same site: one bond only.
        let lat = HypercubicLattice::chain(2, Boundary::Periodic);
        assert_eq!(lat.neighbors(0), vec![1]);
        assert_eq!(lat.neighbors(1), vec![0]);
    }

    #[test]
    fn length_one_dimension_has_no_bonds() {
        let lat = HypercubicLattice::new(&[1, 3], Boundary::Periodic);
        // Only the extent-3 direction contributes.
        for i in 0..3 {
            assert_eq!(lat.neighbors(i).len(), 2, "site {i}");
        }
    }

    #[test]
    fn bond_counts() {
        // Open chain of L: L-1 bonds; periodic: L (for L > 2).
        assert_eq!(HypercubicLattice::chain(6, Boundary::Open).num_bonds(), 5);
        assert_eq!(HypercubicLattice::chain(6, Boundary::Periodic).num_bonds(), 6);
        // Open LxM square: L(M-1) + M(L-1).
        assert_eq!(HypercubicLattice::square(3, 4, Boundary::Open).num_bonds(), 3 * 3 + 4 * 2);
        // Periodic cubic L^3: 3 L^3 bonds.
        assert_eq!(HypercubicLattice::cubic(3, 3, 3, Boundary::Periodic).num_bonds(), 81);
    }

    #[test]
    fn mixed_boundaries() {
        // Cylinder: periodic in x, open in y.
        let lat =
            HypercubicLattice::with_boundaries(&[4, 3], &[Boundary::Periodic, Boundary::Open]);
        // Site on the open edge: 2 (x-ring) + 1 (y).
        assert_eq!(lat.neighbors(lat.site_index(&[0, 0])).len(), 3);
        // Interior in y: 2 + 2.
        assert_eq!(lat.neighbors(lat.site_index(&[0, 1])).len(), 4);
    }

    #[test]
    #[should_panic(expected = "extent must be positive")]
    fn zero_extent_rejected() {
        let _ = HypercubicLattice::new(&[3, 0], Boundary::Open);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dims_rejected() {
        let _ = HypercubicLattice::new(&[], Boundary::Open);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coordinate_out_of_range_rejected() {
        let lat = HypercubicLattice::square(2, 2, Boundary::Open);
        let _ = lat.site_index(&[2, 0]);
    }
}
