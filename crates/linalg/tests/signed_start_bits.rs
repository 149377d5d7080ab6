//! Pins the tiled engine's moments for start blocks of exact ±1 entries.
//!
//! Every front-door job starts from Rademacher vectors, whose entries are all
//! `±1.0`; `tiled_bits.rs` starts from LCG values in `(-1, 1)` instead. This
//! test hashes every moment's `to_bits()` for ±1 start blocks over the full
//! configuration matrix — three formats, bare and rescaled, six block widths
//! (one column, and 17 = 16 + 1), on- and off-grid tile heights, and one and
//! three threads — against recorded constants.

use kpm_linalg::op::RescaledOp;
use kpm_linalg::tiled::{fused_block_moments_doubling, TiledOp};
use kpm_linalg::{DenseMatrix, SparseMatrix, StencilGeometry, StencilOp};

const MOMENTS: usize = 7;
const WIDTHS: [usize; 6] = [1, 2, 3, 8, 14, 17];
/// 128 and 256 lie on the canonical-segment grid; 200 does not and keeps
/// per-tile dot slots.
const TILE_ROWS: [usize; 3] = [128, 256, 200];
const THREADS: [usize; 2] = [1, 3];

/// `(format, recursion)` → FNV-1a-64 over every moment's bits.
const EXPECTED: [(&str, &str, u64); 3] = [
    ("csr", "doubling", 0xcdc9_2a5f_4167_bb85),
    ("stencil", "doubling", 0xcdc9_2a5f_4167_bb85),
    ("dense", "doubling", 0x2f11_bf0c_729f_6f5d),
];

/// 64-bit LCG states from `seed`.
fn lcg(seed: u64, len: usize) -> impl Iterator<Item = u64> {
    let mut state = seed;
    (0..len).map(move |_| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    })
}

/// Deterministic values in `(-1, 1)`.
fn lcg_values(seed: u64, len: usize) -> Vec<f64> {
    lcg(seed, len).map(|s| ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0).collect()
}

/// Deterministic `±1.0` entries, the sign taken from each state's top bit.
fn lcg_signs(seed: u64, len: usize) -> Vec<f64> {
    lcg(seed, len).map(|s| if s >> 63 == 1 { 1.0 } else { -1.0 }).collect()
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
fn hash_runs<A: TiledOp + Sync>(op: &A, hash: &mut u64) {
    let d = op.dim();
    for k in WIDTHS {
        let r0 = lcg_signs(k as u64, d * k);
        for tile_rows in TILE_ROWS {
            for threads in THREADS {
                let (mu, _) = fused_block_moments_doubling(op, &r0, k, MOMENTS, threads, tile_rows);
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
fn hash_format<A: TiledOp + Sync + Clone>(op: &A) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    hash_runs(op, &mut hash);
    hash_runs(&RescaledOp::new(op.clone(), 0.03, 1.1), &mut hash);
    hash
}

#[test]
fn signed_start_moments_keep_their_bits() {
    // D = 729 = 5 * 128 + 89: the last canonical segment is ragged against
    // the 4-lane unroll.
    let stencil = lattice(9);
    let csr = stencil.to_csr();
    // Dense on a smaller lattice keeps the debug-build run short:
    // D = 343 = 2 * 128 + 87, again ragged against the unroll.
    let dense: DenseMatrix = lattice(7).to_csr().to_dense();
    let got = [
        ("csr", "doubling", hash_format(&SparseMatrix::Csr(csr))),
        ("stencil", "doubling", hash_format(&SparseMatrix::Stencil(stencil))),
        ("dense", "doubling", hash_format(&dense)),
    ];
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
    assert!(mismatches.is_empty(), "signed-start bits moved:\n{}", mismatches.join("\n"));
}
