//! Format-polymorphic sparse Hamiltonian storage.
//!
//! [`SparseMatrix`] makes the storage format a first-class runtime choice:
//! the same pipeline can run over CSR (the paper's CRS format) or the
//! matrix-free stencil, and both produce bitwise-identical results (each
//! format preserves the per-row ascending-column accumulation order).
//! [`MatrixFormat`] is the user-facing selector shared by the CLI's
//! `--format` flag, the lattice builders, and the serve job specs; its
//! default, [`MatrixFormat::Auto`], picks the format per operator.

use crate::block::BlockOp;
use crate::csr::CsrMatrix;
use crate::gershgorin::{gershgorin_csr, SpectralBounds};
use crate::op::LinearOp;
use crate::stencil::StencilOp;

/// Smallest lattice, in sites, that [`MatrixFormat::Auto`] runs on the
/// matrix-free stencil: where the CSR of a seven-entry row (88 B: 12 B per
/// entry and a 4 B row pointer) outgrows a 2 MiB per-core L2.
///
/// Below it the CSR stays cache-resident and the tiled engine ran it
/// faster than the stencil on one thread of a 2-vCPU Xeon host (D = 1000,
/// `k = 14`, N = 512: 5.68-6.82 against 5.80-7.35 ms); above it the
/// stencil's 8 B per row wins (D = 110,592, `k = 8`, N = 128: 150.9-154.5
/// against 160.0-172.8 ms), and its one-vector product, which the Lanczos
/// bounds probe runs, is 3.4 times as fast. Every format gives the same
/// bits, so the threshold moves only time.
pub const AUTO_STENCIL_MIN_DIM: usize = (2 << 20) / 88;

/// User-facing storage-format selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixFormat {
    /// Compressed Sparse Row — the baseline, always available.
    Csr,
    /// Matrix-free hypercubic lattice stencil (falls back to CSR for the
    /// honeycomb lattice and for models with terms the stencil cannot
    /// express, e.g. next-nearest hopping).
    Stencil,
    /// The stencil for nearest-neighbour hypercubic lattices of at least
    /// [`AUTO_STENCIL_MIN_DIM`] sites, CSR for every other operator.
    #[default]
    Auto,
}

impl MatrixFormat {
    /// Canonical lower-case name (also the CLI token).
    pub fn as_str(&self) -> &'static str {
        match self {
            MatrixFormat::Csr => "csr",
            MatrixFormat::Stencil => "stencil",
            MatrixFormat::Auto => "auto",
        }
    }
}

impl std::fmt::Display for MatrixFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for MatrixFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "csr" => Ok(MatrixFormat::Csr),
            "stencil" => Ok(MatrixFormat::Stencil),
            "auto" => Ok(MatrixFormat::Auto),
            other => Err(format!("unknown matrix format '{other}' (csr|stencil|auto)")),
        }
    }
}

/// A square sparse operator in one of the selectable storage formats.
///
/// All variants implement the same [`LinearOp`]/[`BlockOp`] contract with
/// bitwise-identical results; they differ only in memory layout and traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseMatrix {
    /// Compressed Sparse Row storage.
    Csr(CsrMatrix),
    /// Matrix-free stencil (no index arrays at all).
    Stencil(StencilOp),
}

impl SparseMatrix {
    /// The stored format's canonical name.
    pub fn format_name(&self) -> &'static str {
        match self {
            SparseMatrix::Csr(_) => "csr",
            SparseMatrix::Stencil(_) => "stencil",
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        match self {
            SparseMatrix::Csr(m) => m.nrows(),
            SparseMatrix::Stencil(s) => s.dim(),
        }
    }

    /// Number of columns (all variants are square).
    pub fn ncols(&self) -> usize {
        match self {
            SparseMatrix::Csr(m) => m.ncols(),
            SparseMatrix::Stencil(s) => s.dim(),
        }
    }

    /// True number of stored entries (explicit zeros count).
    pub fn nnz(&self) -> usize {
        self.stored_entries()
    }

    /// Materializes as CSR (cloning for the CSR variant) — used by
    /// consumers that require concrete CSR storage, e.g. the stream engine
    /// and the Chebyshev propagator.
    pub fn to_csr(&self) -> CsrMatrix {
        match self {
            SparseMatrix::Csr(m) => m.clone(),
            SparseMatrix::Stencil(s) => s.to_csr(),
        }
    }

    /// Gershgorin spectral bounds — bitwise identical across formats for
    /// the same operator.
    ///
    /// # Panics
    /// Panics if the matrix is not square or is empty.
    pub fn gershgorin_bounds(&self) -> SpectralBounds {
        match self {
            SparseMatrix::Csr(m) => gershgorin_csr(m),
            SparseMatrix::Stencil(s) => s.gershgorin_bounds(),
        }
    }
}

impl LinearOp for SparseMatrix {
    fn dim(&self) -> usize {
        match self {
            SparseMatrix::Csr(m) => m.dim(),
            SparseMatrix::Stencil(s) => s.dim(),
        }
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        match self {
            SparseMatrix::Csr(m) => m.apply(x, y),
            SparseMatrix::Stencil(s) => s.apply(x, y),
        }
    }

    fn apply_rescaled(&self, x: &[f64], y: &mut [f64], a_plus: f64, inv_a_minus: f64) {
        match self {
            SparseMatrix::Csr(m) => m.apply_rescaled(x, y, a_plus, inv_a_minus),
            SparseMatrix::Stencil(s) => s.apply_rescaled(x, y, a_plus, inv_a_minus),
        }
    }

    fn stored_entries(&self) -> usize {
        match self {
            SparseMatrix::Csr(m) => m.stored_entries(),
            SparseMatrix::Stencil(s) => s.stored_entries(),
        }
    }

    fn model_entries(&self) -> usize {
        match self {
            SparseMatrix::Csr(m) => m.model_entries(),
            SparseMatrix::Stencil(s) => s.model_entries(),
        }
    }
}

impl BlockOp for SparseMatrix {
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize) {
        match self {
            SparseMatrix::Csr(m) => m.apply_block(x, y, k),
            SparseMatrix::Stencil(s) => s.apply_block(x, y, k),
        }
    }

    fn apply_block_rescaled(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        a_plus: f64,
        inv_a_minus: f64,
    ) {
        match self {
            SparseMatrix::Csr(m) => m.apply_block_rescaled(x, y, k, a_plus, inv_a_minus),
            SparseMatrix::Stencil(s) => s.apply_block_rescaled(x, y, k, a_plus, inv_a_minus),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// A periodic ring of 6 sites: perfectly regular rows (2 entries each).
    fn ring() -> CsrMatrix {
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, (i + 1) % 6, -1.0).unwrap();
            coo.push(i, (i + 5) % 6, -1.0).unwrap();
        }
        coo.to_csr()
    }

    /// The ring of [`ring`] as a matrix-free stencil.
    fn ring_stencil() -> StencilOp {
        StencilOp::hypercubic_uniform(&[6], &[true], 1.0, 0.0, false)
    }

    #[test]
    fn formats_apply_identically_and_roundtrip() {
        let csr = ring();
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let reference = csr.apply_alloc(&x);
        for m in [SparseMatrix::Csr(csr.clone()), SparseMatrix::Stencil(ring_stencil())] {
            let format = m.format_name();
            assert_eq!(m.apply_alloc(&x), reference, "{format}");
            assert_eq!(m.to_csr(), csr, "{format}");
            assert_eq!(m.nnz(), csr.nnz(), "{format}");
            assert_eq!(m.gershgorin_bounds(), gershgorin_csr(&csr), "{format}");
        }
    }

    #[test]
    fn format_parsing_roundtrips() {
        for format in [MatrixFormat::Csr, MatrixFormat::Stencil, MatrixFormat::Auto] {
            assert_eq!(format.as_str().parse::<MatrixFormat>().unwrap(), format);
        }
        for bad in ["ell", "frobnicated"] {
            let err = bad.parse::<MatrixFormat>().unwrap_err();
            assert!(err.contains("(csr|stencil|auto)"), "{err}");
        }
        assert_eq!(MatrixFormat::default(), MatrixFormat::Auto);
    }

    #[test]
    fn model_entries_charge_nothing_for_the_stencil() {
        let csr = ring();
        let nnz = csr.nnz();
        assert_eq!(SparseMatrix::Csr(csr).model_entries(), nnz);
        let stencil = SparseMatrix::Stencil(ring_stencil());
        assert_eq!(stencil.stored_entries(), nnz);
        assert_eq!(stencil.model_entries(), 0, "matrix-free");
    }
}
