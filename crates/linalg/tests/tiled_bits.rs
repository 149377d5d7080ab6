//! Pins the tiled engine's value family across versions.
//!
//! The unit tests in `tiled.rs` compare thread counts and tile heights only
//! to each other, and the `kpm` exec-plan tests compare tiled to the
//! one-vector recursion at `1e-12`; neither notices a change of storage
//! layout or loop order that moves a last bit everywhere at once. This test
//! hashes every moment's `to_bits()` over the full configuration matrix —
//! three formats, bare and rescaled, five block widths, on- and off-grid tile
//! heights, one and three threads, and both recursions — and compares
//! against constants recorded from the original column-major engine. Any
//! rewrite of the engine must reproduce them unchanged.

use kpm_linalg::op::RescaledOp;
use kpm_linalg::tiled::{fused_block_moments_doubling, fused_block_moments_plain, TiledOp};
use kpm_linalg::{DenseMatrix, SparseMatrix, StencilGeometry, StencilOp};

const MOMENTS: usize = 7;
const WIDTHS: [usize; 5] = [1, 2, 3, 8, 14];
/// 128 and 256 lie on the canonical-segment grid; 200 does not and keeps
/// per-tile dot slots.
const TILE_ROWS: [usize; 3] = [128, 256, 200];
const THREADS: [usize; 2] = [1, 3];

/// `(format, recursion)` → FNV-1a-64 over every moment's bits.
const EXPECTED: [(&str, &str, u64); 6] = [
    ("csr", "plain", 0xc921_863a_737f_547d),
    ("csr", "doubling", 0x4a10_7169_616b_1711),
    ("stencil", "plain", 0xc921_863a_737f_547d),
    ("stencil", "doubling", 0x4a10_7169_616b_1711),
    ("dense", "plain", 0x2d92_4a9b_4eed_3931),
    ("dense", "doubling", 0x1be4_8d87_d834_cff5),
];

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

/// A disordered periodic cubic lattice with spectrum inside `[-1, 1]`
/// (hopping 1/8, on-site energies in `(-0.2, 0.2)`).
fn lattice(l: usize) -> StencilOp {
    let d = l * l * l;
    let onsite = lcg_values(7, d).into_iter().map(|v| 0.2 * v).collect();
    StencilOp::new(
        StencilGeometry { dims: vec![l; 3], periodic: vec![true; 3] },
        0.125,
        onsite,
        true,
    )
}

fn fnv1a(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds every moment of every configuration of `op` into `hash`.
fn hash_runs<A: TiledOp + Sync>(op: &A, doubling: bool, hash: &mut u64) {
    let d = op.dim();
    for k in WIDTHS {
        let r0 = lcg_values(k as u64, d * k);
        for tile_rows in TILE_ROWS {
            for threads in THREADS {
                let (mu, _) = if doubling {
                    fused_block_moments_doubling(op, &r0, k, MOMENTS, threads, tile_rows)
                } else {
                    fused_block_moments_plain(op, &r0, k, MOMENTS, threads, tile_rows)
                };
                assert_eq!(mu.len(), k);
                for col in &mu {
                    assert_eq!(col.len(), MOMENTS);
                    for m in col {
                        fnv1a(hash, m.to_bits());
                    }
                }
            }
        }
    }
}

/// The bare operator, then the same operator behind a non-trivial rescale.
fn hash_format<A: TiledOp + Sync + Clone>(op: &A, doubling: bool) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    hash_runs(op, doubling, &mut hash);
    hash_runs(&RescaledOp::new(op.clone(), 0.03, 1.1), doubling, &mut hash);
    hash
}

#[test]
fn tiled_moments_keep_their_bits() {
    // D = 729 = 5 * 128 + 89: the last canonical segment is ragged against
    // the 4-lane unroll.
    let stencil = lattice(9);
    let csr = stencil.to_csr();
    // Dense on a smaller lattice keeps the debug-build run short:
    // D = 343 = 2 * 128 + 87, again ragged against the unroll.
    let dense: DenseMatrix = lattice(7).to_csr().to_dense();
    let mut got = Vec::new();
    for (recursion, doubling) in [("plain", false), ("doubling", true)] {
        for (format, hash) in [
            ("csr", hash_format(&SparseMatrix::Csr(csr.clone()), doubling)),
            ("stencil", hash_format(&SparseMatrix::Stencil(stencil.clone()), doubling)),
            ("dense", hash_format(&dense, doubling)),
        ] {
            got.push((format, recursion, hash));
        }
    }
    let mut mismatches = Vec::new();
    for &(format, recursion, want) in &EXPECTED {
        let (.., hash) = got
            .iter()
            .find(|(f, r, _)| (*f, *r) == (format, recursion))
            .expect("every expected configuration is run");
        if *hash != want {
            mismatches.push(format!("{format}/{recursion}: got {hash:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "tiled bits moved:\n{}", mismatches.join("\n"));
}
