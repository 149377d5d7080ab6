//! Lattice specification parsing: `cubic:10,10,10` etc.
//!
//! Shared by the CLI (`--lattice` option) and the batch-serving job format
//! (`lattice=` field), so a spec string means the same Hamiltonian
//! everywhere.

use crate::{Boundary, HoneycombLattice, HypercubicLattice, OnSite, TightBinding};
use kpm_linalg::{CsrMatrix, MatrixFormat, SparseMatrix};
use std::fmt;

/// Errors from lattice-spec parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Unknown lattice family.
    UnknownFamily(String),
    /// Wrong number of extents for the family.
    WrongArity {
        /// Family name.
        family: &'static str,
        /// Extents expected.
        expected: usize,
        /// Extents given.
        found: usize,
    },
    /// An extent failed to parse or was zero.
    BadExtent(String),
    /// Unknown boundary condition.
    BadBoundary(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownFamily(s) => {
                write!(f, "unknown lattice '{s}' (chain | square | cubic | honeycomb)")
            }
            SpecError::WrongArity { family, expected, found } => {
                write!(f, "{family} needs {expected} extents, got {found}")
            }
            SpecError::BadExtent(s) => write!(f, "bad extent '{s}' (positive integer)"),
            SpecError::BadBoundary(s) => {
                write!(f, "bad boundary '{s}' (open | periodic)")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A parsed lattice description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatticeSpec {
    /// 1D chain.
    Chain(usize),
    /// 2D square lattice.
    Square(usize, usize),
    /// 3D cubic lattice.
    Cubic(usize, usize, usize),
    /// Honeycomb lattice (unit cells).
    Honeycomb(usize, usize),
}

impl LatticeSpec {
    /// Parses `family:l1[,l2[,l3]]`.
    ///
    /// # Errors
    /// [`SpecError`] describing the problem.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let (family, rest) = s.split_once(':').unwrap_or((s, ""));
        let extents: Vec<usize> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',')
                .map(|p| {
                    p.trim()
                        .parse::<usize>()
                        .ok()
                        .filter(|&v| v > 0)
                        .ok_or_else(|| SpecError::BadExtent(p.into()))
                })
                .collect::<Result<_, _>>()?
        };
        let arity = |family: &'static str, n: usize| {
            if extents.len() == n {
                Ok(())
            } else {
                Err(SpecError::WrongArity { family, expected: n, found: extents.len() })
            }
        };
        match family {
            "chain" => {
                arity("chain", 1)?;
                Ok(LatticeSpec::Chain(extents[0]))
            }
            "square" => {
                arity("square", 2)?;
                Ok(LatticeSpec::Square(extents[0], extents[1]))
            }
            "cubic" => {
                arity("cubic", 3)?;
                Ok(LatticeSpec::Cubic(extents[0], extents[1], extents[2]))
            }
            "honeycomb" => {
                arity("honeycomb", 2)?;
                Ok(LatticeSpec::Honeycomb(extents[0], extents[1]))
            }
            other => Err(SpecError::UnknownFamily(other.into())),
        }
    }

    /// Number of sites this spec produces.
    pub fn num_sites(&self) -> usize {
        match *self {
            LatticeSpec::Chain(l) => l,
            LatticeSpec::Square(a, b) => a * b,
            LatticeSpec::Cubic(a, b, c) => a * b * c,
            LatticeSpec::Honeycomb(a, b) => 2 * a * b,
        }
    }

    /// Builds the Hamiltonian with hopping `t`, the given on-site term,
    /// and boundary condition.
    pub fn build(&self, t: f64, onsite: OnSite, bc: Boundary) -> CsrMatrix {
        match *self {
            LatticeSpec::Chain(l) => {
                TightBinding::new(HypercubicLattice::chain(l, bc), t, onsite).build_csr()
            }
            LatticeSpec::Square(a, b) => {
                TightBinding::new(HypercubicLattice::square(a, b, bc), t, onsite).build_csr()
            }
            LatticeSpec::Cubic(a, b, c) => {
                TightBinding::new(HypercubicLattice::cubic(a, b, c, bc), t, onsite).build_csr()
            }
            LatticeSpec::Honeycomb(a, b) => {
                // Honeycomb builder has no on-site hook yet: apply disorder
                // by adding the diagonal afterwards.
                let h = HoneycombLattice::new(a, b, bc).hamiltonian(t);
                match onsite {
                    OnSite::Uniform(0.0) => h,
                    _ => add_diagonal(&h, &onsite_energies(self.num_sites(), onsite)),
                }
            }
        }
    }

    /// Builds the Hamiltonian in the requested storage format.
    ///
    /// Chain, square and cubic lattices go through
    /// [`TightBinding::build_format`]; a honeycomb lattice is CSR in every
    /// format, since the stencil expresses hypercubic lattices only. All
    /// formats apply bitwise-identically to the CSR build.
    pub fn build_format(
        &self,
        t: f64,
        onsite: OnSite,
        bc: Boundary,
        format: MatrixFormat,
    ) -> SparseMatrix {
        let lattice = match *self {
            LatticeSpec::Chain(l) => HypercubicLattice::chain(l, bc),
            LatticeSpec::Square(a, b) => HypercubicLattice::square(a, b, bc),
            LatticeSpec::Cubic(a, b, c) => HypercubicLattice::cubic(a, b, c, bc),
            LatticeSpec::Honeycomb(..) => return SparseMatrix::Csr(self.build(t, onsite, bc)),
        };
        TightBinding::new(lattice, t, onsite).build_format(format)
    }
}

fn onsite_energies(n: usize, onsite: OnSite) -> Vec<f64> {
    // Reuse the TightBinding sampler through a throwaway chain model of the
    // same size so disorder seeding matches the library convention.
    TightBinding::new(HypercubicLattice::chain(n, Boundary::Open), 0.0, onsite).onsite_energies()
}

fn add_diagonal(h: &CsrMatrix, diag: &[f64]) -> CsrMatrix {
    let mut coo = kpm_linalg::CooMatrix::with_capacity(h.nrows(), h.ncols(), h.nnz() + diag.len());
    for (i, &d) in diag.iter().enumerate() {
        for (j, v) in h.row_entries(i) {
            coo.push(i, j, v).expect("in range");
        }
        coo.push(i, i, d).expect("in range");
    }
    coo.to_csr()
}

/// Parses `open | periodic`.
///
/// # Errors
/// [`SpecError::BadBoundary`] otherwise.
pub fn parse_boundary(s: &str) -> Result<Boundary, SpecError> {
    match s {
        "open" => Ok(Boundary::Open),
        "periodic" => Ok(Boundary::Periodic),
        other => Err(SpecError::BadBoundary(other.into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_families() {
        assert_eq!(LatticeSpec::parse("chain:100").unwrap(), LatticeSpec::Chain(100));
        assert_eq!(LatticeSpec::parse("square:8,6").unwrap(), LatticeSpec::Square(8, 6));
        assert_eq!(LatticeSpec::parse("cubic:10,10,10").unwrap(), LatticeSpec::Cubic(10, 10, 10));
        assert_eq!(LatticeSpec::parse("honeycomb:12,9").unwrap(), LatticeSpec::Honeycomb(12, 9));
    }

    #[test]
    fn num_sites() {
        assert_eq!(LatticeSpec::Cubic(10, 10, 10).num_sites(), 1000);
        assert_eq!(LatticeSpec::Honeycomb(4, 5).num_sites(), 40);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(matches!(LatticeSpec::parse("kagome:3,3"), Err(SpecError::UnknownFamily(_))));
        assert!(matches!(
            LatticeSpec::parse("cubic:3,3"),
            Err(SpecError::WrongArity { expected: 3, found: 2, .. })
        ));
        assert!(matches!(LatticeSpec::parse("chain:zero"), Err(SpecError::BadExtent(_))));
        assert!(matches!(LatticeSpec::parse("chain:0"), Err(SpecError::BadExtent(_))));
        assert!(matches!(LatticeSpec::parse("chain"), Err(SpecError::WrongArity { .. })));
    }

    #[test]
    fn boundary_parsing() {
        assert_eq!(parse_boundary("open").unwrap(), Boundary::Open);
        assert_eq!(parse_boundary("periodic").unwrap(), Boundary::Periodic);
        assert!(parse_boundary("twisted").is_err());
    }

    #[test]
    fn build_produces_expected_hamiltonians() {
        let h = LatticeSpec::parse("cubic:4,4,4").unwrap().build(
            1.0,
            OnSite::Uniform(0.0),
            Boundary::Periodic,
        );
        assert_eq!(h.nrows(), 64);
        assert!(h.is_symmetric(0.0));

        let g = LatticeSpec::parse("honeycomb:4,4").unwrap().build(
            1.0,
            OnSite::Uniform(0.0),
            Boundary::Periodic,
        );
        assert_eq!(g.nrows(), 32);
        assert_eq!(g.nnz(), 3 * 32);
    }

    #[test]
    fn honeycomb_disorder_adds_diagonal() {
        let clean = LatticeSpec::Honeycomb(3, 3).build(1.0, OnSite::Uniform(0.0), Boundary::Open);
        let dirty = LatticeSpec::Honeycomb(3, 3).build(
            1.0,
            OnSite::Disorder { width: 2.0, seed: 1 },
            Boundary::Open,
        );
        assert!(dirty.is_symmetric(0.0));
        assert_eq!(dirty.nnz(), clean.nnz() + 18, "one diagonal entry per site");
        assert!((0..18).any(|i| dirty.get(i, i) != 0.0));
    }

    #[test]
    fn spec_errors_display() {
        assert!(SpecError::UnknownFamily("x".into()).to_string().contains("honeycomb"));
        assert!(SpecError::BadBoundary("x".into()).to_string().contains("periodic"));
    }
}
