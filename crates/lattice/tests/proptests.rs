//! Property-based tests for lattice geometry and Hamiltonian assembly.

use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};
use kpm_linalg::coo::CooMatrix;
use kpm_linalg::csr::CsrMatrix;
use proptest::prelude::*;

fn boundary() -> impl Strategy<Value = Boundary> {
    prop_oneof![Just(Boundary::Open), Just(Boundary::Periodic)]
}

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..5, 1..4)
}

/// 1 to 4 dimensions of extent 1 to 5, each with its own boundary.
fn mixed_lattice() -> impl Strategy<Value = HypercubicLattice> {
    proptest::collection::vec((1usize..=5, boundary()), 1..=4).prop_map(|axes| {
        let (dims, bcs): (Vec<usize>, Vec<Boundary>) = axes.into_iter().unzip();
        HypercubicLattice::with_boundaries(&dims, &bcs)
    })
}

fn onsite() -> impl Strategy<Value = OnSite> {
    prop_oneof![
        Just(OnSite::Uniform(0.0)),
        Just(OnSite::Uniform(0.4)),
        (0u64..100).prop_map(|seed| OnSite::Disorder { width: 2.0, seed }),
    ]
}

/// The model assembled from triplets: the diagonal, then per site its
/// `axial_neighbors` at steps 1 and 2, through `CooMatrix::to_csr`.
fn coo_reference(tb: &TightBinding, t_prime: f64, store_zero_diagonal: bool) -> CsrMatrix {
    let lat = tb.lattice();
    let n = lat.num_sites();
    let mut coo = CooMatrix::new(n, n);
    for (i, &e) in tb.onsite_energies().iter().enumerate() {
        if e != 0.0 || store_zero_diagonal {
            coo.push(i, i, e).unwrap();
        }
        for j in lat.axial_neighbors(i, 1) {
            coo.push(i, j, -tb.hopping()).unwrap();
        }
        if t_prime != 0.0 {
            for j in lat.axial_neighbors(i, 2) {
                coo.push(i, j, -t_prime).unwrap();
            }
        }
    }
    coo.to_csr()
}

proptest! {
    #[test]
    fn site_index_roundtrip(dims in small_dims(), bc in boundary()) {
        let lat = HypercubicLattice::new(&dims, bc);
        for i in 0..lat.num_sites() {
            prop_assert_eq!(lat.site_index(&lat.coordinates(i)), i);
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric(dims in small_dims(), bc in boundary()) {
        let lat = HypercubicLattice::new(&dims, bc);
        for i in 0..lat.num_sites() {
            for j in lat.neighbors(i) {
                prop_assert!(lat.neighbors(j).contains(&i),
                    "site {} lists {} but not vice versa", i, j);
            }
        }
    }

    #[test]
    fn neighbors_contain_no_duplicates_or_self(dims in small_dims(), bc in boundary()) {
        let lat = HypercubicLattice::new(&dims, bc);
        for i in 0..lat.num_sites() {
            let ns = lat.neighbors(i);
            let mut sorted = ns.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), ns.len(), "duplicates at site {}", i);
            prop_assert!(!ns.contains(&i), "self-loop at site {}", i);
        }
    }

    #[test]
    fn degree_bounded_by_2d(dims in small_dims(), bc in boundary()) {
        let lat = HypercubicLattice::new(&dims, bc);
        for i in 0..lat.num_sites() {
            prop_assert!(lat.neighbors(i).len() <= 2 * lat.ndim());
        }
    }

    #[test]
    fn hamiltonian_is_symmetric(
        dims in small_dims(),
        bc in boundary(),
        t in 0.1..3.0f64,
        seed in 0u64..100,
    ) {
        let lat = HypercubicLattice::new(&dims, bc);
        let h = TightBinding::new(lat, t, OnSite::Disorder { width: 2.0, seed }).build_csr();
        prop_assert!(h.is_symmetric(0.0));
    }

    #[test]
    fn hamiltonian_row_sums_match_degree(
        dims in small_dims(),
        bc in boundary(),
    ) {
        // With t = 1 and zero on-site term, row sum = -degree.
        let lat = HypercubicLattice::new(&dims, bc);
        let h = TightBinding::new(lat.clone(), 1.0, OnSite::Uniform(0.0)).build_csr();
        for i in 0..h.nrows() {
            let sum: f64 = h.row_entries(i).map(|(_, v)| v).sum();
            prop_assert!((sum + lat.neighbors(i).len() as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn stored_zero_diagonal_adds_exactly_n_entries(
        dims in small_dims(),
        bc in boundary(),
    ) {
        let lat = HypercubicLattice::new(&dims, bc);
        let plain = TightBinding::new(lat.clone(), 1.0, OnSite::Uniform(0.0)).build_csr();
        let stored = TightBinding::new(lat.clone(), 1.0, OnSite::Uniform(0.0))
            .store_zero_diagonal(true)
            .build_csr();
        prop_assert_eq!(stored.nnz(), plain.nnz() + lat.num_sites());
    }

    #[test]
    fn one_pass_assembly_matches_coo_reference(
        lat in mixed_lattice(),
        t_prime in prop_oneof![Just(0.0), Just(0.3)],
        onsite in onsite(),
        store_zero_diagonal in any::<bool>(),
    ) {
        let tb = TightBinding::new(lat, 0.7, onsite)
            .with_next_nearest(t_prime)
            .store_zero_diagonal(store_zero_diagonal);
        let got = tb.build_csr();
        let want = coo_reference(&tb, t_prime, store_zero_diagonal);
        prop_assert_eq!(got.row_ptr(), want.row_ptr());
        prop_assert_eq!(got.col_idx(), want.col_idx());
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}
