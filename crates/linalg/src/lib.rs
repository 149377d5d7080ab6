//! Dense and sparse linear-algebra substrate for the KPM reproduction suite.
//!
//! The Kernel Polynomial Method needs only a narrow slice of linear algebra,
//! but the paper (Zhang et al., 2011) depends on all of it:
//!
//! * BLAS-1 style vector kernels ([`vecops`]) — the dot products and fused
//!   Chebyshev update `r_{n+2} = 2 H r_{n+1} - r_n` are the hot loops of the
//!   whole method. Most of them, and the tiled engine's CSR and stencil
//!   row kernels and its step-0 dot kernel, run a second copy, compiled
//!   for AVX2, where the CPU has it, with the same bits ([`isa`]).
//! * A row-major dense matrix ([`DenseMatrix`]) — the paper's Figs. 7 and 8
//!   deliberately run the Hamiltonian *dense* ("the simple case when the CRS
//!   format is not applied").
//! * Compressed Sparse Row storage ([`CsrMatrix`], built via [`CooMatrix`]) —
//!   the paper's Fig. 5 lattice Hamiltonian is sparse/symmetric with seven
//!   stored entries per row; CSR is the CRS format the paper names.
//! * Spectral bounds ([`gershgorin`]) — Eq. (8)–(9) of the paper rescale the
//!   Hamiltonian into `[-1, 1]` using Gershgorin's theorem.
//! * Exact eigensolvers ([`eigen`]) — ground truth for validating the KPM
//!   density of states on small systems (cyclic Jacobi for dense symmetric
//!   matrices, implicit-shift QL for symmetric tridiagonals).
//!
//! Everything is `f64`: the paper performs all KPM calculations in double
//! precision, and so do we.

pub mod block;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod error;
pub mod gershgorin;
pub mod isa;
pub mod op;
pub mod sparse;
pub mod stencil;
pub mod tiled;
pub mod vecops;

pub use block::BlockOp;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use gershgorin::SpectralBounds;
pub use op::LinearOp;
pub use sparse::{MatrixFormat, SparseMatrix, AUTO_STENCIL_MIN_DIM};
pub use stencil::{StencilGeometry, StencilOp};
pub use tiled::{TiledOp, TiledStats, DEFAULT_TILE_ROWS};
