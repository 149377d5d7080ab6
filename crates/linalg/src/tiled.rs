//! Row-tiled fused Chebyshev recursion engine — in-realization parallelism.
//!
//! The paper's GPU speedup comes from executing the whole Chebyshev step —
//! SpMV, the `2 H v - prev` update, and the `<r0|rn>` reduction — inside one
//! resident kernel parallelized across the matrix dimension, with each
//! matrix entry fetched once for all random vectors. This module is the CPU
//! analogue: the engine partitions the `D` rows into tiles, and a later
//! step of the doubling recursion makes one pass per tile. The format's row
//! kernel hands every finished row of `A x` to a [`RowEpilogue`]
//! ([`TiledOp::rows_into`]), which applies the spectral rescale, writes the
//! Chebyshev combine in place and adds both moment dots into per-segment
//! lane accumulators while the row is still in registers, so no product
//! tile is stored and no second pass reads one. A work-stealing tile
//! scheduler keeps threads busy even when boundary tiles are cheaper than
//! interior ones.
//!
//! # Layout
//!
//! The engine keeps its `D x k` blocks — the start block, both recursion
//! buffers and every scratch tile — *row-interleaved*: element `(i, j)` at
//! `i * k + j`. Row `i` of all `k` vectors is then one contiguous run, so a
//! matrix entry `(i, c)` meets its `k` inputs in one load of `x[c * k..]`,
//! a tile's rows of a buffer are one contiguous slice, and every per-row
//! loop over the vectors has a unit stride. The moment jobs draw their
//! start block straight into this layout and hand it over by value
//! ([`fused_interleaved_moments_doubling`]), so it becomes the first
//! recursion buffer without a copy. Callers holding a column-major block
//! (the [`BlockOp`] layout) call [`fused_block_moments_doubling`], which
//! interleaves a copy of it.
//!
//! The column count is a compile-time constant inside every row loop: the
//! row kernels, the epilogue and step 0's dot kernel are const-generic in
//! their width `W`, dispatched on `k`, and blocks wider than
//! `MAX_CHUNK_COLS` (16) run in const-width column chunks. The CSR and
//! hypercubic stencil row kernels (with their epilogue) and step 0's dot
//! kernel (`start_dots`) are compiled twice, for baseline x86-64 and for
//! AVX2, with the same bits ([`crate::isa`]).
//!
//! # Determinism
//!
//! Partial dots are a pure function of fixed row *segments*: per column,
//! each is the dot over a fixed run of rows with [`vecops::dot`]'s
//! association (four lanes), stored into a private slot; the
//! per-step reduction sums the slots in canonical (ascending) segment order
//! on one thread. Which worker executes a tile therefore cannot affect any
//! bit of the result: for a fixed tile size, moments are bitwise identical
//! across thread counts, including the single-threaded fast path. This is
//! pinned by tests here and in the `kpm` crate, and `tests/tiled_bits.rs`
//! pins the values themselves against the original column-major engine.
//!
//! The slot granularity is decoupled from the work granularity: when
//! `tile_rows` is a multiple of [`DEFAULT_TILE_ROWS`], each tile computes
//! its dots per canonical [`DEFAULT_TILE_ROWS`]-row segment (see
//! [`slot_rows_for`]), so the association — and therefore every bit of the
//! result — is identical for *any* such tile height. This is what lets the
//! autotuner in `kpm::tune` treat tile height as a free performance axis:
//! `tile_rows` in {128, 256, 384, ...} are pure scheduling choices. Tile
//! heights that are not a multiple of the canonical segment fall back to
//! per-tile slots (the historical association) and remain value-affecting.
//!
//! Beyond one canonical segment, tiled results are *not* bitwise identical
//! to the one-vector recursion (`kpm::moments::single_vector_moments`): a
//! full-vector `vecops::dot` associates differently than per-segment dots
//! summed in order. They agree to rounding, and the `kpm` property tests
//! bound the difference at `1e-12` relative.
//!
//! # Memory traffic
//!
//! A fused step reads each matrix row once for all `k` columns: for CSR,
//! 12 B per entry and a 4 B row pointer (32-bit indices); for the stencil,
//! the row's 8 B on-site energy. Per column it
//! reads `x` (8 B/row) and reads and writes `p` in place (16 B/row). A
//! step dots `p` against `x` and itself, so it moves no other vector:
//! `24 k` B/row plus the matrix row, for two moments. Step 0 reads `r0`
//! from buffer `a`, which holds it until step 1 overwrites it, so the
//! engine keeps no start block at all. A later step stores no raw
//! product; step 0 writes its product straight into the tile's rows of
//! buffer `b`, and operators without a fused row kernel land theirs in a
//! tile-sized per-worker scratch that stays cache-resident. A split
//! pipeline (SpMM into a `D x k` intermediate, then combine+dot) would
//! move the raw product through memory an extra time: 48 B/row per column
//! plus the matrix. See DESIGN.md §9 for the full accounting.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::block::BlockOp;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::op::{DiagonalOp, IdentityOp, LinearOp, RescaledOp};
use crate::sparse::SparseMatrix;
use crate::stencil::StencilOp;
use crate::vecops::{self, LANES};

/// Default tile height in rows.
///
/// 128 rows × 8 B × a handful of live columns keeps a tile's working set
/// inside L1/L2 while leaving enough tiles to balance on any realistic
/// thread count. Overridable at runtime via the `KPM_TILE_ROWS` environment
/// variable (read once by `kpm::exec`).
pub const DEFAULT_TILE_ROWS: usize = 128;

/// Widest column chunk a row kernel runs at one compile-time width. Blocks
/// of up to this many columns run as one chunk; wider ones as full chunks
/// of this width plus one narrower remainder. `for_each_chunk!` lists the
/// widths 1 to 16 it dispatches to.
const MAX_CHUNK_COLS: usize = 16;

/// An operator whose block product can be computed one row range at a time
/// over a row-interleaved block.
///
/// `x` holds a `dim x k` block row-interleaved: element `(c, j)` at
/// `c * k + j`. [`TiledOp::block_rows`] writes `(A x)(i, j)` for every `i`
/// in `rows` and every column `j` to `out[(i - rows.start) * k + j]`, a
/// row-interleaved tile with the same row stride. Each value must be
/// bitwise identical to what [`BlockOp::apply_block`] stores for the same
/// element of the column-major block — for the sparse formats, the row's
/// entries multiplied and added in ascending order from `0.0`. The tiled
/// engine's cross-format determinism rests on this, mirroring the
/// blocked-vs-scalar contract on [`BlockOp`].
pub trait TiledOp: BlockOp {
    /// Writes rows `rows` of `A X` into the row-interleaved tile `out`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.dim() * k`, `rows.end > self.dim()`, or
    /// `out.len() != rows.len() * k`.
    fn block_rows(&self, x: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]);

    /// Computes rows `rows` of `A X` and hands each to `epi`, with the
    /// values [`TiledOp::block_rows`] writes.
    ///
    /// The default computes the rows into a tile with `block_rows` and then
    /// runs the epilogue over the tile. The CSR and stencil kernels
    /// call the epilogue from their row loops instead, so a later doubling
    /// step stores no product tile at all.
    ///
    /// # Panics
    /// As [`TiledOp::block_rows`], with the epilogue's tile in place of
    /// `out`.
    fn rows_into(&self, x: &[f64], k: usize, rows: Range<usize>, epi: &mut RowEpilogue<'_>) {
        check_rows(self.dim(), x, k, &rows, epi.tile_len());
        rows_via_tile(self, x, k, rows, epi);
    }
}

/// The shape checks every [`TiledOp`] row method makes, for a tile of
/// `tile_len` values.
fn check_rows(dim: usize, x: &[f64], k: usize, rows: &Range<usize>, tile_len: usize) {
    assert_eq!(x.len(), dim * k, "block_rows: x length");
    assert!(rows.start <= rows.end && rows.end <= dim, "block_rows: row range");
    assert_eq!(tile_len, rows.len() * k, "block_rows: tile length");
}

impl<A: TiledOp + ?Sized> TiledOp for &A {
    fn block_rows(&self, x: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]) {
        (**self).block_rows(x, k, rows, out)
    }

    fn rows_into(&self, x: &[f64], k: usize, rows: Range<usize>, epi: &mut RowEpilogue<'_>) {
        (**self).rows_into(x, k, rows, epi)
    }
}

impl TiledOp for CsrMatrix {
    fn block_rows(&self, x: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]) {
        self.rows_into(x, k, rows, &mut RowEpilogue::store(out));
    }

    fn rows_into(&self, x: &[f64], k: usize, rows: Range<usize>, epi: &mut RowEpilogue<'_>) {
        check_rows(self.dim(), x, k, &rows, epi.tile_len());
        crate::csr::rows_interleaved(self, x, k, rows, epi);
    }
}

impl TiledOp for StencilOp {
    fn block_rows(&self, x: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]) {
        self.rows_into(x, k, rows, &mut RowEpilogue::store(out));
    }

    fn rows_into(&self, x: &[f64], k: usize, rows: Range<usize>, epi: &mut RowEpilogue<'_>) {
        check_rows(self.dim(), x, k, &rows, epi.tile_len());
        crate::stencil::rows_interleaved(self, x, k, rows, epi);
    }
}

impl TiledOp for DenseMatrix {
    fn block_rows(&self, x: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]) {
        let d = self.dim();
        check_rows(d, x, k, &rows, out.len());
        // Each input column gathered contiguous once per call (`d * k` values
        // against `rows.len() * d * k` multiply-adds), so every element is
        // the very `vecops::dot(row, xcol)` that `apply_block` stores.
        let cols: Vec<Vec<f64>> = (0..k).map(|j| (0..d).map(|c| x[c * k + j]).collect()).collect();
        let row0 = rows.start;
        for i in rows {
            let row = self.row(i);
            for (y, col) in out[(i - row0) * k..][..k].iter_mut().zip(&cols) {
                *y = vecops::dot(row, col);
            }
        }
    }
}

impl TiledOp for IdentityOp {
    fn block_rows(&self, x: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]) {
        check_rows(self.dim(), x, k, &rows, out.len());
        out.copy_from_slice(&x[rows.start * k..rows.end * k]);
    }
}

impl TiledOp for DiagonalOp {
    fn block_rows(&self, x: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]) {
        check_rows(self.dim(), x, k, &rows, out.len());
        let row0 = rows.start;
        for i in rows {
            let d = self.diag()[i];
            for (y, &xv) in out[(i - row0) * k..][..k].iter_mut().zip(&x[i * k..][..k]) {
                *y = d * xv;
            }
        }
    }
}

impl TiledOp for SparseMatrix {
    fn block_rows(&self, x: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]) {
        match self {
            SparseMatrix::Csr(m) => m.block_rows(x, k, rows, out),
            SparseMatrix::Stencil(s) => s.block_rows(x, k, rows, out),
        }
    }

    fn rows_into(&self, x: &[f64], k: usize, rows: Range<usize>, epi: &mut RowEpilogue<'_>) {
        match self {
            SparseMatrix::Csr(m) => m.rows_into(x, k, rows, epi),
            SparseMatrix::Stencil(s) => s.rows_into(x, k, rows, epi),
        }
    }
}

impl<A: TiledOp> TiledOp for RescaledOp<A> {
    fn block_rows(&self, x: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]) {
        self.rows_into(x, k, rows, &mut RowEpilogue::store(out));
    }

    fn rows_into(&self, x: &[f64], k: usize, rows: Range<usize>, epi: &mut RowEpilogue<'_>) {
        // The inner operator's rows, each mapped to `(raw - a_plus x) *
        // inv_a_minus` by the epilogue before its own work: the expression
        // the format kernels fuse into `apply_block`, so bitwise what
        // `RescaledOp::apply_block` stores. An epilogue that already maps
        // its rows (this operator wrapped in another rescale) takes this
        // operator's rows whole and maps them once more.
        if epi.affine.is_some() {
            return rows_via_tile(self, x, k, rows, epi);
        }
        let affine = Affine { a_plus: self.a_plus(), inv_a_minus: 1.0 / self.a_minus() };
        self.inner().rows_into(x, k, rows, &mut epi.rescaled(affine));
    }
}

/// `RescaledOp`'s map of a raw product, `(raw - a_plus * x) * inv_a_minus`:
/// the expression of [`crate::block::rescaled_store`].
#[derive(Debug, Clone, Copy)]
struct Affine {
    a_plus: f64,
    inv_a_minus: f64,
}

impl Affine {
    /// Maps the raw products `h` of the rows whose inputs are `xs`, in
    /// place.
    #[inline(always)]
    fn apply(self, h: &mut [f64], xs: &[f64]) {
        for (hv, &xv) in h.iter_mut().zip(xs) {
            *hv = (*hv - self.a_plus * xv) * self.inv_a_minus;
        }
    }

    /// One row's raw products `h`, mapped by `affine` if there is one; a
    /// bare operator's rows stay raw.
    #[inline(always)]
    fn map_row<const W: usize>(affine: Option<Self>, mut h: [f64; W], xs: &[f64]) -> [f64; W] {
        if let Some(a) = affine {
            a.apply(&mut h, xs);
        }
        h
    }
}

/// What a row kernel does with each row of `A x` it computes.
///
/// [`TiledOp::rows_into`] hands every row of a tile to the epilogue, one
/// const-width column chunk at a time, while the row's products are still
/// in registers. The epilogue first applies a [`RescaledOp`]'s map, when
/// the operator is rescaled; a bare operator's rows stay raw, since the
/// identity map `(raw - 0 * x) * 1` can flip the sign of a zero. Then it
/// either stores the row into a tile ([`TiledOp::block_rows`]), or runs a
/// later step of the doubling recursion on it: `p = 2 h - p` in place over
/// the tile's rows of the buffer being overwritten, with `x * p` and
/// `p * p` added into each segment's lane accumulators with the
/// association of `vecops::lane_dots`. Such a step never stores `h`, so a
/// tile takes one pass: no scratch tile, rescale pass, combine pass or dot
/// pass follows the product.
///
/// It is one concrete type, so each format's row kernel is compiled once
/// per width (and per instruction set, [`crate::isa`]) whatever the
/// epilogue does with the rows. Only this crate constructs one.
pub struct RowEpilogue<'a> {
    /// The rescale applied to every row first; `None` keeps the raw product.
    affine: Option<Affine>,
    sink: Sink<'a>,
}

/// Where a [`RowEpilogue`]'s rows go.
enum Sink<'a> {
    /// Row `i` into `out[(i - rows.start) * k..]`.
    Store(&'a mut [f64]),
    /// A later doubling step on the tile; `scratch` takes the rows of an
    /// operator without a fused row kernel.
    Doubling { step: Step<'a>, scratch: &'a mut [f64] },
}

/// One tile's share of a later doubling step: `p` holds the tile's rows of
/// the buffer being overwritten, and `slots` the tile's segment slots
/// (`<x|p>` into slot 0, `<p|p>` into slot 1 of each).
struct Step<'a> {
    p: &'a mut [f64],
    slots: &'a mut [f64],
    slot_rows: usize,
}

impl<'a> RowEpilogue<'a> {
    /// Stores every row into the row-interleaved tile `out`.
    pub(crate) fn store(out: &'a mut [f64]) -> Self {
        Self { affine: None, sink: Sink::Store(out) }
    }

    /// A later doubling step over the tile's rows `p` of the buffer being
    /// overwritten, with the tile's segment `slots`; `scratch` holds a tile
    /// for operators without a fused row kernel.
    pub(crate) fn doubling(
        p: &'a mut [f64],
        slots: &'a mut [f64],
        slot_rows: usize,
        scratch: &'a mut [f64],
    ) -> Self {
        Self { affine: None, sink: Sink::Doubling { step: Step { p, slots, slot_rows }, scratch } }
    }

    /// This epilogue with the map `(raw - a_plus x) * inv_a_minus` of the
    /// pair `affine`, if given, applied to every row first.
    #[cfg(test)]
    pub(crate) fn mapped(mut self, affine: Option<(f64, f64)>) -> Self {
        self.affine = affine.map(|(a_plus, inv_a_minus)| Affine { a_plus, inv_a_minus });
        self
    }

    /// This epilogue with `affine` applied to every row first.
    fn rescaled(&mut self, affine: Affine) -> RowEpilogue<'_> {
        let sink = match &mut self.sink {
            Sink::Store(out) => Sink::Store(out),
            Sink::Doubling { step, scratch } => Sink::Doubling {
                step: Step { p: step.p, slots: step.slots, slot_rows: step.slot_rows },
                scratch,
            },
        };
        RowEpilogue { affine: Some(affine), sink }
    }

    /// Length of the tile the rows land in (the stored tile, or the tile's
    /// rows of the buffer a step overwrites).
    fn tile_len(&self) -> usize {
        match &self.sink {
            Sink::Store(out) => out.len(),
            Sink::Doubling { step, .. } => step.p.len(),
        }
    }

    /// Hands rows `rows` of the tile, columns `j0..j0 + W`, to the
    /// epilogue. `row(i)` returns row `i`'s raw products and is called once
    /// per row, in ascending order; `x` is the block they were computed
    /// from.
    #[inline(always)]
    pub(crate) fn rows<const W: usize>(
        &mut self,
        x: &[f64],
        k: usize,
        j0: usize,
        rows: Range<usize>,
        mut row: impl FnMut(usize) -> [f64; W],
    ) {
        let affine = self.affine;
        match &mut self.sink {
            Sink::Store(out) => {
                for i in rows.clone() {
                    let h = Affine::map_row(affine, row(i), &x[i * k + j0..][..W]);
                    out[(i - rows.start) * k + j0..][..W].copy_from_slice(&h);
                }
            }
            Sink::Doubling { step, .. } => step.rows::<W>(affine, x, k, j0, rows, row),
        }
    }
}

impl Step<'_> {
    /// [`RowEpilogue::rows`] for a doubling step, whose rows are mapped by
    /// `affine` first.
    #[inline(always)]
    fn rows<const W: usize>(
        &mut self,
        affine: Option<Affine>,
        x: &[f64],
        k: usize,
        j0: usize,
        rows: Range<usize>,
        mut row: impl FnMut(usize) -> [f64; W],
    ) {
        for (s, seg) in segments(rows.len(), self.slot_rows).enumerate() {
            // `vecops::lane_dots` per column: row `r` of the segment adds
            // into lane `r % 4`, except that the last `len % 4` rows add in
            // order into the tail, kept as a fifth lane.
            let body = seg.len() - seg.len() % LANES;
            let mut cross = [[0.0f64; W]; LANES + 1];
            let mut norm = [[0.0f64; W]; LANES + 1];
            for r in seg.clone() {
                let i = rows.start + r;
                let xr = &x[i * k + j0..][..W];
                let h = Affine::map_row(affine, row(i), xr);
                let lane = r - seg.start;
                let l = if lane < body { lane % LANES } else { LANES };
                step_row(&h, xr, &mut self.p[r * k + j0..][..W], &mut cross[l], &mut norm[l]);
            }
            let slot = &mut self.slots[s * SLOTS * k..][..SLOTS * k];
            slot[j0..][..W].copy_from_slice(&vecops::reduce_lanes(&cross));
            slot[k + j0..][..W].copy_from_slice(&vecops::reduce_lanes(&norm));
        }
    }
}

/// One row of a later doubling step: `p = 2 h - p` in place, with `x * p`
/// added into `cross` and `p * p` into `norm`.
///
/// Every input is read before any output is written. Written element by
/// element instead, the vectorizer could not prove that the stores to `p`
/// miss the accumulators it reads next and ran whole rows in scalar code
/// at some widths: the paper-lattice engine (`k = 14`) took 1.5x as long.
#[inline(always)]
fn step_row<const W: usize>(
    h: &[f64; W],
    x: &[f64],
    p: &mut [f64],
    cross: &mut [f64; W],
    norm: &mut [f64; W],
) {
    let mut next = [0.0f64; W];
    for ((nv, &hv), &pv) in next.iter_mut().zip(h).zip(&*p) {
        *nv = 2.0 * hv - pv;
    }
    let (mut c, mut n) = (*cross, *norm);
    for (((c, n), &xv), &nv) in c.iter_mut().zip(&mut n).zip(x).zip(&next) {
        *c += xv * nv;
        *n += nv * nv;
    }
    p.copy_from_slice(&next);
    *cross = c;
    *norm = n;
}

/// [`TiledOp::rows_into`] through a tile: the rows from
/// [`TiledOp::block_rows`], then the epilogue over them.
fn rows_via_tile<A: TiledOp + ?Sized>(
    op: &A,
    x: &[f64],
    k: usize,
    rows: Range<usize>,
    epi: &mut RowEpilogue<'_>,
) {
    let affine = epi.affine;
    match &mut epi.sink {
        Sink::Store(out) => {
            op.block_rows(x, k, rows.clone(), out);
            if let Some(a) = affine {
                a.apply(out, &x[rows.start * k..rows.end * k]);
            }
        }
        Sink::Doubling { step, scratch } => {
            let h = &mut scratch[..rows.len() * k];
            op.block_rows(x, k, rows.clone(), h);
            tile_step(affine, x, k, rows, h, step);
        }
    }
}

/// A later doubling step over rows `rows` of `A x`, computed into the tile
/// `h`. It is not generic, so its widths are compiled once.
fn tile_step(
    affine: Option<Affine>,
    x: &[f64],
    k: usize,
    rows: Range<usize>,
    h: &[f64],
    step: &mut Step<'_>,
) {
    let row0 = rows.start;
    for_each_chunk!(k, |j0, W| step.rows::<W>(affine, x, k, j0, rows.clone(), |i| {
        let mut v = [0.0f64; W];
        v.copy_from_slice(&h[(i - row0) * k + j0..][..W]);
        v
    }));
}

/// Runs `$body` once per const-width column chunk of a `$k`-column
/// row-interleaved block, with `$j0` the chunk's first column and `$W` a
/// constant equal to its width, so that `$body` can instantiate a
/// const-generic kernel at that width.
macro_rules! for_each_chunk {
    ($k:expr, |$j0:ident, $W:ident| $body:expr) => {
        for ($j0, width) in $crate::tiled::column_chunks($k) {
            $crate::tiled::for_each_chunk!(
                @width width, $W, $body; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            );
        }
    };
    (@width $w:expr, $W:ident, $body:expr; $($n:literal)*) => {
        match $w {
            $($n => {
                const $W: usize = $n;
                $body
            })*
            w => unreachable!("column chunk of width {w}"),
        }
    };
}
pub(crate) use for_each_chunk;

/// `(j0, width)` of the const-width column chunks covering `k` columns.
pub(crate) fn column_chunks(k: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..k).step_by(MAX_CHUNK_COLS).map(move |j0| (j0, (k - j0).min(MAX_CHUNK_COLS)))
}

/// Row-interleaved copy of a column-major `d x k` block: element `(i, j)`
/// moves from `j * d + i` to `i * k + j`.
fn interleave(block: &[f64], d: usize, k: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(d * k);
    for i in 0..d {
        out.extend((0..k).map(|j| block[j * d + i]));
    }
    out
}

/// Counters reported by one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TiledStats {
    /// Tiles processed, summed over all steps.
    pub tiles: u64,
    /// Tiles executed by a worker other than their initial owner.
    pub steals: u64,
    /// Full sweeps over the operator (one per fused step).
    pub sweeps: u64,
}

/// A generation-counted spinning barrier for the step loop.
///
/// The engine synchronizes every worker twice per step (a few microseconds
/// apart), so parking threads in the OS would dominate; a short spin
/// followed by `yield_now` handles both the multi-core case and
/// single-core/oversubscribed hosts.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self { count: AtomicUsize::new(0), generation: AtomicUsize::new(0), n }
    }

    /// Blocks until all `n` workers have arrived. The AcqRel arrival and
    /// Acquire generation load give every worker a happens-before edge over
    /// all writes the others made before arriving — this is what publishes
    /// tile buffer and slot writes between steps.
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arrival: reset for the next phase, then release everyone.
            // No new arrival can race the reset — all other workers are
            // spinning on `generation` below.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Per-worker tile queues with chase-the-tail stealing.
///
/// Each worker owns a contiguous tile range packed into one `AtomicU64`
/// (`start` in the high half, `end` in the low half). Owners pop from the
/// front, thieves pop from the back of a victim's range — both via CAS, so
/// a tile is executed exactly once. Ranges are contiguous and re-partitioned
/// by worker 0 between steps; stealing changes *who* runs a tile but never
/// *what* it computes, so it is invisible in the results.
struct TileQueues {
    ranges: Vec<AtomicU64>,
    steals: AtomicU64,
}

#[inline]
fn pack(start: usize, end: usize) -> u64 {
    ((start as u64) << 32) | end as u64
}

#[inline]
fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xffff_ffff) as usize)
}

impl TileQueues {
    fn new(workers: usize) -> Self {
        Self {
            ranges: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: AtomicU64::new(0),
        }
    }

    /// Repartitions `ntiles` tiles contiguously over the workers. Called by
    /// worker 0 between barriers; the next barrier's Release/Acquire pair
    /// publishes it to everyone.
    fn reset(&self, ntiles: usize) {
        let workers = self.ranges.len();
        for (w, range) in self.ranges.iter().enumerate() {
            range.store(pack(w * ntiles / workers, (w + 1) * ntiles / workers), Ordering::Relaxed);
        }
    }

    /// Owner path: take the front tile of `w`'s own range.
    fn pop_own(&self, w: usize) -> Option<usize> {
        let range = &self.ranges[w];
        let mut cur = range.load(Ordering::Acquire);
        loop {
            let (start, end) = unpack(cur);
            if start >= end {
                return None;
            }
            match range.compare_exchange_weak(
                cur,
                pack(start + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(start),
                Err(v) => cur = v,
            }
        }
    }

    /// Thief path: scan the other workers round-robin and take a victim's
    /// *back* tile, staying out of the owner's way at the front.
    fn steal(&self, w: usize) -> Option<usize> {
        let workers = self.ranges.len();
        for offset in 1..workers {
            let victim = &self.ranges[(w + offset) % workers];
            let mut cur = victim.load(Ordering::Acquire);
            loop {
                let (start, end) = unpack(cur);
                if start >= end {
                    break;
                }
                match victim.compare_exchange_weak(
                    cur,
                    pack(start, end - 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(end - 1);
                    }
                    Err(v) => cur = v,
                }
            }
        }
        None
    }
}

/// Runs `nsteps` barrier-synchronized steps of `ntiles` tiles over
/// `workers` threads (the caller's thread is worker 0).
///
/// All workers execute the same step program: wait, drain tiles (own queue
/// first, then steal), wait. Worker 0 additionally runs `reduce(step)` and
/// repartitions the queues after the second barrier — the other workers are
/// already blocked on the next step's first barrier, so the reduction reads
/// every tile's slots race-free and in a fixed order regardless of which
/// worker produced them.
fn run_parallel<P>(
    workers: usize,
    ntiles: usize,
    nsteps: usize,
    process: P,
    mut reduce: impl FnMut(usize),
) -> TiledStats
where
    P: Fn(usize, usize, usize) + Sync,
{
    let stats =
        |steals: u64| TiledStats { tiles: (nsteps * ntiles) as u64, steals, sweeps: nsteps as u64 };
    if workers <= 1 {
        // Single-worker fast path: tiles in ascending order, same slots,
        // same reduction — bitwise identical to the threaded run by
        // construction.
        for step in 0..nsteps {
            for tile in 0..ntiles {
                process(step, tile, 0);
            }
            reduce(step);
        }
        return stats(0);
    }
    let barrier_start = SpinBarrier::new(workers);
    let barrier_end = SpinBarrier::new(workers);
    let queues = TileQueues::new(workers);
    queues.reset(ntiles);
    std::thread::scope(|scope| {
        for w in 1..workers {
            let barrier_start = &barrier_start;
            let barrier_end = &barrier_end;
            let queues = &queues;
            let process = &process;
            scope.spawn(move || {
                for step in 0..nsteps {
                    barrier_start.wait();
                    drain_tiles(queues, w, step, process);
                    barrier_end.wait();
                }
            });
        }
        for step in 0..nsteps {
            barrier_start.wait();
            drain_tiles(&queues, 0, step, &process);
            barrier_end.wait();
            reduce(step);
            queues.reset(ntiles);
        }
    });
    stats(queues.steals.load(Ordering::Relaxed))
}

/// One worker's share of a step: drain the own queue front-first, then
/// steal from the others until every queue is empty.
fn drain_tiles<P: Fn(usize, usize, usize)>(
    queues: &TileQueues,
    w: usize,
    step: usize,
    process: &P,
) {
    loop {
        let tile = match queues.pop_own(w) {
            Some(t) => Some(t),
            None => queues.steal(w),
        };
        match tile {
            Some(t) => process(step, t, w),
            None => break,
        }
    }
}

/// Raw pointers to the engine's shared mutable state, so that tiles running
/// on different threads can each borrow their own disjoint part of it
/// without fabricating overlapping `&mut` slices of whole buffers.
#[derive(Clone, Copy)]
struct EngineBuffers {
    a: *mut f64,
    b: *mut f64,
    slots: *mut f64,
    /// `workers` stripes of `tile_rows * k` — each worker's private landing
    /// zone for its tile of `A x`, small enough to stay in L1.
    scratch: *mut f64,
}

// SAFETY: the pointers address four `Vec<f64>`s that the engine function
// owns and keeps alive until `run_parallel` has joined every worker, and
// the invariants below keep every access through them race-free.
// - Disjoint tile rows: during a step, a tile writes only its own rows of
//   the recursion buffer being updated and its own segments of `slots`,
//   and every worker only reads the other recursion buffer.
// - A per-worker scratch stripe: worker `w` alone uses stripe `w`, one tile
//   at a time.
// - Barrier-ordered steps: the barriers between steps (and before worker
//   0's reduction) order every write of one step before any read of the
//   next.
// No element is therefore ever accessed concurrently with a write to it.
unsafe impl Sync for EngineBuffers {}

/// Elements `range` of the engine buffer at `ptr`, as a mutable slice.
///
/// # Safety
/// `range` must lie inside that buffer, and no other access to any of its
/// elements may happen while the returned slice is in use.
unsafe fn buffer_mut<'a>(ptr: *mut f64, range: Range<usize>) -> &'a mut [f64] {
    std::slice::from_raw_parts_mut(ptr.add(range.start), range.len())
}

#[inline]
fn tile_range(tile: usize, tile_rows: usize, d: usize) -> Range<usize> {
    let lo = tile * tile_rows;
    lo..(lo + tile_rows).min(d)
}

/// The row width of one dot *slot* for a given tile height: the canonical
/// [`DEFAULT_TILE_ROWS`] when `tile_rows` is a multiple of it (so the dot
/// association is independent of the tile height), the tile height itself
/// otherwise (the historical per-tile association).
#[inline]
pub fn slot_rows_for(tile_rows: usize) -> usize {
    if tile_rows > 0 && tile_rows.is_multiple_of(DEFAULT_TILE_ROWS) {
        DEFAULT_TILE_ROWS
    } else {
        tile_rows
    }
}

/// `true` when `tile_rows` produces bitwise-identical moments to the
/// default tile height — i.e. it lies on the canonical-segment grid. The
/// autotuner only emits tile heights satisfying this.
#[inline]
pub fn tile_rows_is_value_safe(tile_rows: usize) -> bool {
    slot_rows_for(tile_rows) == DEFAULT_TILE_ROWS
}

/// `mu[j][0] = <r0_j|r0_j>` of a row-interleaved block, accumulated per
/// canonical segment in ascending order — the degenerate `n == 1` case.
fn tile_ordered_norms(r0: &[f64], d: usize, k: usize, tile_rows: usize) -> Vec<Vec<f64>> {
    let slot_rows = slot_rows_for(tile_rows);
    let nsegs = d.div_ceil(slot_rows);
    // Step 0's kernel over the whole block as one tile, so mu_0 has the
    // same per-segment association as in a longer run. Slots 1 and 2
    // (`<r0|r0>` again) go unused.
    let mut slots = vec![0.0f64; nsegs * SLOTS * k];
    start_dots(r0, r0, k, slot_rows, &mut slots);
    (0..k)
        .map(|j| {
            let mut total = 0.0;
            for seg in 0..nsegs {
                total += slots[seg * SLOTS * k + j];
            }
            vec![total]
        })
        .collect()
}

/// Dot slots per canonical segment: `<r0|r0>`, `<r0|r1>` and `<r1|r1>` in
/// step 0; a later step uses the first two for `<r_t|r_{t+1}>` and
/// `<r_{t+1}|r_{t+1}>`.
const SLOTS: usize = 3;

/// Tile-relative row ranges of the dot slot segments in a `len`-row tile.
fn segments(len: usize, slot_rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..len).step_by(slot_rows).map(move |lo| lo..(lo + slot_rows).min(len))
}

/// `vecops::dot` of columns `j0..j0 + W` of two row-interleaved `k`-column
/// tiles over rows `seg`, one value per column.
#[inline(always)]
fn column_dots<const W: usize>(
    a: &[f64],
    b: &[f64],
    k: usize,
    j0: usize,
    seg: Range<usize>,
) -> [f64; W] {
    // The per-row closures of the dot kernels are inlined too: called out
    // of line, the AVX2 copy of a kernel ran their baseline code.
    vecops::lane_dots::<W>(
        seg.len(),
        #[inline(always)]
        |r| {
            let o = (seg.start + r) * k + j0;
            let mut terms = [0.0; W];
            for ((t, &a), &b) in terms.iter_mut().zip(&a[o..o + W]).zip(&b[o..o + W]) {
                *t = a * b;
            }
            terms
        },
    )
}

// The per-tile dot kernel below takes whole tiles of row-interleaved
// `k`-column blocks and the tile's slots (`SLOTS * k` per canonical
// segment). It is generic in nothing, so it is compiled once per
// instruction set (`crate::isa`) however many operator types instantiate
// the engine.

crate::isa::kernels! {
    /// Step 0 on one tile, once its rows of `r1 = A r0` are in place: per
    /// segment and column, `<r0|r0>`, `<r0|r1>` and `<r1|r1>` into slots
    /// 0, 1 and 2.
    fn start_dots(r0: &[f64], r1: &[f64], k: usize, slot_rows: usize, slots: &mut [f64]) {
        for (s, seg) in segments(r0.len() / k, slot_rows).enumerate() {
            let slot = &mut slots[s * SLOTS * k..][..SLOTS * k];
            for_each_chunk!(k, |j0, W| {
                slot[j0..][..W].copy_from_slice(&column_dots::<W>(r0, r0, k, j0, seg.clone()));
                slot[k + j0..][..W].copy_from_slice(&column_dots::<W>(r0, r1, k, j0, seg.clone()));
                slot[2 * k + j0..][..W].copy_from_slice(&column_dots::<W>(r1, r1, k, j0, seg.clone()));
            });
        }
    }
}

/// [`fused_interleaved_moments_doubling`] for a `D x k` block of start
/// vectors in the column-major [`BlockOp`] layout, on a row-interleaved copy
/// of it.
///
/// # Panics
/// Panics if `n == 0`, `tile_rows == 0`, or `r0.len() != dim * k`.
pub fn fused_block_moments_doubling<A: TiledOp + Sync + ?Sized>(
    op: &A,
    r0: &[f64],
    k: usize,
    n: usize,
    threads: usize,
    tile_rows: usize,
) -> (Vec<Vec<f64>>, TiledStats) {
    assert_eq!(r0.len(), op.dim() * k, "fused moments: r0 length");
    fused_interleaved_moments_doubling(op, interleave(r0, op.dim(), k), k, n, threads, tile_rows)
}

/// Tiled fused doubling-recursion moments for a `D x k` block of start
/// vectors, handed over row-interleaved: element `(i, j)` at
/// `r0[i * k + j]`.
///
/// Returns the raw (unnormalized) moments `mu[j][m] = <r0_j | T_m(A) r0_j>`
/// for `m < n` per column, plus the engine counters; callers divide by `D`.
/// `A` must already be rescaled into `[-1, 1]`. The block becomes the
/// engine's first recursion buffer, so the call keeps no copy of it.
///
/// The `2n`-moments-from-`n`-sweeps trick: every sweep streams the operator
/// once, and `<r_m|r_m>` and `<r_{m+1}|r_m>` accumulate inside the fused
/// step, giving `mu_{2m} = 2 <r_m|r_m> - mu_0` and
/// `mu_{2m+1} = 2 <r_{m+1}|r_m> - mu_1`. The moments match the one-vector
/// recursions to rounding. For a fixed `tile_rows` the result is bitwise
/// independent of `threads` (see the module docs).
///
/// # Panics
/// Panics if `n == 0`, `tile_rows == 0`, or `r0.len() != dim * k`.
pub fn fused_interleaved_moments_doubling<A: TiledOp + Sync + ?Sized>(
    op: &A,
    r0: Vec<f64>,
    k: usize,
    n: usize,
    threads: usize,
    tile_rows: usize,
) -> (Vec<Vec<f64>>, TiledStats) {
    let d = op.dim();
    assert!(n >= 1, "fused moments: need at least one moment");
    assert!(tile_rows >= 1, "fused moments: tile_rows must be positive");
    assert_eq!(r0.len(), d * k, "fused moments: r0 length");
    if d == 0 || k == 0 {
        return (vec![vec![0.0; n]; k], TiledStats::default());
    }
    if n == 1 {
        return (tile_ordered_norms(&r0, d, k, tile_rows), TiledStats::default());
    }
    let ntiles = d.div_ceil(tile_rows);
    let workers = threads.clamp(1, ntiles);
    // Slot granularity is the canonical segment, not the tile: any
    // tile height on the canonical grid yields the same slots in the same
    // order, so the reduction is bitwise independent of `tile_rows` there.
    let slot_rows = slot_rows_for(tile_rows);
    let nsegs = d.div_ceil(slot_rows);
    // Buffer `a` starts as r0, `b` receives r1 in step 0; from then on the
    // roles alternate by step parity and the older vector is overwritten in
    // place. Only step 0 reads r0. Every block is row-interleaved.
    let mut a = r0;
    let mut b = vec![0.0f64; d * k];
    let mut slots = vec![0.0f64; nsegs * SLOTS * k];
    let mut scratch = vec![0.0f64; workers * tile_rows * k];
    let buffers = EngineBuffers {
        a: a.as_mut_ptr(),
        b: b.as_mut_ptr(),
        slots: slots.as_mut_ptr(),
        scratch: scratch.as_mut_ptr(),
    };
    // Step 0 yields mu_0, mu_1 and (via <r1|r1>) mu_2; each later step t
    // computes r_{t+1} and yields mu_{2t+1} and (when in range) mu_{2t+2}.
    // The last moment with t >= 1 is mu_{2t+1} <= n-1, so:
    let nsteps = 1 + if n <= 3 { 0 } else { (n - 2) / 2 };
    let process = move |step: usize, tile: usize, w: usize| {
        let buffers = buffers; // capture the whole Sync struct, not raw-pointer fields
        let rows = tile_range(tile, tile_rows, d);
        let elems = rows.start * k..rows.end * k;
        // Tiles on the canonical grid start on a segment boundary, so the
        // tile covers whole segments (the last may be ragged against `d`).
        let seg0 = rows.start / slot_rows;
        let seg_end = seg0 + rows.len().div_ceil(slot_rows);
        // SAFETY: the slots of this tile's own segments (in bounds: they are
        // among the `nsegs`), which worker 0 reads only after the
        // end-of-step barrier.
        let slots = unsafe { buffer_mut(buffers.slots, seg0 * SLOTS * k..seg_end * SLOTS * k) };
        if step == 0 {
            // r1 = A r0, straight into this tile's rows of `b`; then <r0|r0>,
            // <r0|r1> and <r1|r1> per canonical segment of the hot tile.
            // SAFETY: step 0 writes only `b`, so all of `a` may be read
            // concurrently.
            let r0 = unsafe { std::slice::from_raw_parts(buffers.a.cast_const(), d * k) };
            // SAFETY: this tile alone writes these rows of `b`, and nothing
            // reads `b` before the end-of-step barrier.
            let r1 = unsafe { buffer_mut(buffers.b, elems.clone()) };
            op.block_rows(r0, k, rows, r1);
            start_dots(&r0[elems], r1, k, slot_rows, slots);
        } else {
            // r_{t+1} = 2 A r_t - r_{t-1} over r_{t-1} in place, with
            // <r_t|r_{t+1}> and <r_{t+1}|r_{t+1}> per canonical segment, all
            // in the row kernel's epilogue.
            let (xp, pp) =
                if step % 2 == 1 { (buffers.b, buffers.a) } else { (buffers.a, buffers.b) };
            // SAFETY: during this step every tile writes only the other
            // buffer `pp`, so all of `xp` may be read concurrently.
            let x = unsafe { std::slice::from_raw_parts(xp.cast_const(), d * k) };
            // SAFETY: this tile alone reads and writes these rows of `pp`
            // during this step.
            let p = unsafe { buffer_mut(pp, elems) };
            let stripe = w * tile_rows * k;
            // SAFETY: stripe `w` belongs to worker `w`, which runs one tile
            // at a time; only operators without a fused row kernel use it.
            let h = unsafe { buffer_mut(buffers.scratch, stripe..stripe + rows.len() * k) };
            op.rows_into(x, k, rows, &mut RowEpilogue::doubling(p, slots, slot_rows, h));
        }
    };
    let mut mu: Vec<Vec<f64>> = (0..k).map(|_| Vec::with_capacity(n)).collect();
    let mut mu0 = vec![0.0f64; k];
    let mut mu1 = vec![0.0f64; k];
    let slot_sum = |seg_slot: usize, j: usize| -> f64 {
        let mut total = 0.0;
        for seg in 0..nsegs {
            // SAFETY: worker 0 reads after the end-of-step barrier.
            total += unsafe { *buffers.slots.add(seg * SLOTS * k + seg_slot * k + j) };
        }
        total
    };
    let reduce = |step: usize| {
        for (j, col) in mu.iter_mut().enumerate() {
            if step == 0 {
                mu0[j] = slot_sum(0, j);
                mu1[j] = slot_sum(1, j);
                col.push(mu0[j]);
                if n > 1 {
                    col.push(mu1[j]);
                }
                if n > 2 {
                    col.push(2.0 * slot_sum(2, j) - mu0[j]);
                }
            } else {
                let cross = slot_sum(0, j);
                let norm = slot_sum(1, j);
                col.push(2.0 * cross - mu1[j]);
                if 2 * step + 2 < n {
                    col.push(2.0 * norm - mu0[j]);
                }
            }
        }
    };
    let stats = run_parallel(workers, ntiles, nsteps, process, reduce);
    (mu, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn ring(d: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(d, d);
        for i in 0..d {
            coo.push(i, (i + 1) % d, -0.4).unwrap();
            coo.push(i, (i + d - 1) % d, -0.4).unwrap();
        }
        coo.to_csr()
    }

    fn start_block(d: usize, k: usize) -> Vec<f64> {
        (0..d * k).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect()
    }

    /// Column-major copy of a row-interleaved `d x k` block.
    fn deinterleave(block: &[f64], d: usize, k: usize) -> Vec<f64> {
        let mut out = vec![0.0; d * k];
        for (i, row) in block.chunks_exact(k).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out[j * d + i] = v;
            }
        }
        out
    }

    /// Widths 1 to 16 run as one const-width chunk, 17 as 16 + 1.
    const WIDTHS: [usize; 5] = [1, 3, 5, 14, 17];

    /// Computes every `step`-row range of `A X` into a NaN-filled tile,
    /// starting mid-operator for all but the first, and checks that every
    /// element was written and equals `apply_block`'s bit for bit.
    fn assert_rows_match_apply_block<A: TiledOp>(op: &A, k: usize, step: usize, name: &str) {
        let d = op.dim();
        let x: Vec<f64> = (0..d * k).map(|i| (i as f64 * 0.7).sin()).collect();
        let reference = op.apply_block_alloc(&x, k);
        let xi = interleave(&x, d, k);
        let mut got = vec![f64::NAN; d * k];
        for lo in (0..d).step_by(step) {
            let rows = lo..(lo + step).min(d);
            let mut tile = vec![f64::NAN; rows.len() * k];
            op.block_rows(&xi, k, rows.clone(), &mut tile);
            got[rows.start * k..rows.end * k].copy_from_slice(&tile);
        }
        assert!(got.iter().all(|v| !v.is_nan()), "{name}, k = {k}: every element written");
        let got = deinterleave(&got, d, k);
        let same = got.iter().zip(&reference).all(|(g, r)| g.to_bits() == r.to_bits());
        assert!(same, "{name}, k = {k}: {got:?} vs {reference:?}");
    }

    #[test]
    fn streamed_values_match_apply_block_bitwise() {
        let csr = SparseMatrix::Csr(ring(23));
        for k in WIDTHS {
            assert_rows_match_apply_block(&csr, k, 7, "csr");
            let dense = DenseMatrix::from_fn(11, 11, |i, j| ((3 * i + j) as f64).cos());
            assert_rows_match_apply_block(&dense, k, 4, "dense");
            assert_rows_match_apply_block(&IdentityOp::new(9), k, 4, "identity");
            let diag = DiagonalOp::new((0..9).map(|i| 0.5 - i as f64 * 0.3).collect());
            assert_rows_match_apply_block(&diag, k, 4, "diagonal");
        }
    }

    #[test]
    fn stencil_streaming_matches_csr_from_offset_ranges() {
        // [4, 3, 2] has only boundary rows (an extent-2 direction); [5, 4, 3]
        // also has interior rows, so ranges start mid-line in both kinds of
        // class.
        for (dims, step) in [([4, 3, 2], 5), ([5, 4, 3], 7)] {
            let s = StencilOp::hypercubic_uniform(&dims, &[true, false, true], 1.0, 0.2, true);
            let d = s.dim();
            let csr = s.to_csr();
            for k in WIDTHS {
                let x: Vec<f64> = (0..d * k).map(|i| (i as f64 * 0.3).cos()).collect();
                let reference = csr.apply_block_alloc(&x, k);
                let xi = interleave(&x, d, k);
                let mut got = vec![f64::NAN; d * k];
                for lo in (0..d).step_by(step) {
                    let rows = lo..(lo + step).min(d);
                    let mut tile = vec![f64::NAN; rows.len() * k];
                    s.block_rows(&xi, k, rows.clone(), &mut tile);
                    got[rows.start * k..rows.end * k].copy_from_slice(&tile);
                }
                assert_eq!(
                    deinterleave(&got, d, k),
                    reference,
                    "{dims:?}, k = {k}: a range from mid-line must match the full sweep"
                );
            }
        }
    }

    #[test]
    fn rescaled_streaming_matches_rescaled_apply_block() {
        let r = RescaledOp::new(ring(17), 0.3, 1.7);
        let d = 17;
        for k in WIDTHS {
            let x: Vec<f64> = (0..d * k).map(|i| (i as f64).cos()).collect();
            let reference = r.apply_block_alloc(&x, k);
            let mut got = vec![f64::NAN; d * k];
            r.block_rows(&interleave(&x, d, k), k, 0..d, &mut got);
            assert_eq!(deinterleave(&got, d, k), reference, "k = {k}");
            assert_rows_match_apply_block(&r, k, 5, "rescaled csr");
            let dense = RescaledOp::new(ring(17).to_dense(), 0.3, 1.7);
            assert_rows_match_apply_block(&dense, k, 5, "rescaled dense");
        }
    }

    fn reference_plain_moments(op: &CsrMatrix, r0: &[f64], n: usize) -> Vec<f64> {
        // Textbook three-buffer recursion in plain f64 accumulation.
        let d = op.dim();
        let mut mu = Vec::with_capacity(n);
        let mut prev = r0.to_vec();
        mu.push(prev.iter().map(|v| v * v).sum());
        if n == 1 {
            return mu;
        }
        let mut cur = op.apply_alloc(&prev);
        mu.push(r0.iter().zip(&cur).map(|(a, b)| a * b).sum());
        for _ in 2..n {
            let mut next = op.apply_alloc(&cur);
            for i in 0..d {
                next[i] = 2.0 * next[i] - prev[i];
            }
            mu.push(r0.iter().zip(&next).map(|(a, b)| a * b).sum());
            prev = cur;
            cur = next;
        }
        mu
    }

    #[test]
    fn doubling_engine_matches_reference_recursion() {
        let d = 47;
        let k = 3;
        let op = ring(d);
        let r0 = start_block(d, k);
        for n in [1, 2, 3, 4, 5, 6, 7, 9, 12, 13] {
            let (mu, stats) = fused_block_moments_doubling(&op, &r0, k, n, 1, 8);
            let sweeps = if n == 1 { 0 } else { n / 2 };
            assert_eq!(stats.sweeps, sweeps as u64, "n = {n}");
            for j in 0..k {
                let reference = reference_plain_moments(&op, &r0[j * d..(j + 1) * d], n);
                assert_eq!(mu[j].len(), n, "n = {n}");
                for m in 0..n {
                    let scale = reference[m].abs().max(d as f64);
                    assert!(
                        (mu[j][m] - reference[m]).abs() <= 1e-12 * scale,
                        "n = {n}, col {j}, mu_{m}: {} vs {}",
                        mu[j][m],
                        reference[m]
                    );
                }
            }
        }
    }

    #[test]
    fn results_bitwise_stable_across_thread_counts() {
        let d = 97;
        let k = 2;
        let n = 14;
        // The ring of `ring(d)`, matrix-free.
        let op =
            SparseMatrix::Stencil(StencilOp::hypercubic_uniform(&[d], &[true], 0.4, 0.0, false));
        let r0 = start_block(d, k);
        let (reference, _) = fused_block_moments_doubling(&op, &r0, k, n, 1, 16);
        for threads in [2, 3, 4, 7] {
            let (mu, _) = fused_block_moments_doubling(&op, &r0, k, n, threads, 16);
            assert_eq!(mu, reference, "{threads} threads");
        }
    }

    #[test]
    fn canonical_grid_tile_heights_are_bitwise_identical() {
        // Any tile height on the canonical-segment grid must reproduce the
        // default tile height bit for bit — this is the invariant that lets
        // the autotuner treat tile height as pure scheduling. Use a
        // dimension larger than several segments with a ragged remainder.
        let d = DEFAULT_TILE_ROWS * 3 + 57;
        let k = 2;
        let n = 9;
        let op = ring(d);
        let r0 = start_block(d, k);
        let (reference, _) = fused_block_moments_doubling(&op, &r0, k, n, 1, DEFAULT_TILE_ROWS);
        for mult in [2usize, 3, 4] {
            let tr = mult * DEFAULT_TILE_ROWS;
            assert!(tile_rows_is_value_safe(tr));
            for threads in [1usize, 3] {
                let (mu, _) = fused_block_moments_doubling(&op, &r0, k, n, threads, tr);
                assert_eq!(mu, reference, "tile_rows = {tr}, {threads} threads");
            }
        }
        // Off-grid heights keep the historical per-tile association and are
        // allowed to differ in the last bits.
        assert!(!tile_rows_is_value_safe(200));
        assert!(!tile_rows_is_value_safe(64));
    }

    /// `len` deterministic values in `(-1, 1)`.
    fn wave(seed: usize, len: usize) -> Vec<f64> {
        (0..len).map(|i| ((i * 7 + seed) as f64 * 0.37).sin()).collect()
    }

    #[test]
    fn interleaved_entry_points_match_column_major_bitwise() {
        // D = 300 = 2 * 128 + 44: ragged against the canonical segment and
        // both unrolls; 24-row tiles keep per-tile slots.
        let d = 300;
        let op = ring(d);
        let bits = |mu: &[Vec<f64>]| -> Vec<Vec<u64>> {
            mu.iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect()
        };
        for k in 1..=17 {
            for r0 in [start_block(d, k), wave(k, d * k)] {
                for (n, threads, tile_rows) in
                    [1, 2, 9].into_iter().flat_map(|n| [(n, 1, 128), (n, 3, 128), (n, 3, 24)])
                {
                    let what = format!("k = {k}, n = {n}, {threads} threads, {tile_rows} rows");
                    let interleaved = interleave(&r0, d, k);
                    let (mu, _) = fused_interleaved_moments_doubling(
                        &op,
                        interleaved,
                        k,
                        n,
                        threads,
                        tile_rows,
                    );
                    let (mu_cm, _) =
                        fused_block_moments_doubling(&op, &r0, k, n, threads, tile_rows);
                    assert_eq!(bits(&mu), bits(&mu_cm), "{what}");
                    if n == 1 {
                        // Per column, `vecops::dot` per slot segment, summed
                        // in ascending order.
                        let slot_rows = slot_rows_for(tile_rows);
                        let norms: Vec<Vec<f64>> = r0
                            .chunks_exact(d)
                            .map(|col| {
                                let mut total = 0.0;
                                for seg in col.chunks(slot_rows) {
                                    total += vecops::dot(seg, seg);
                                }
                                vec![total]
                            })
                            .collect();
                        assert_eq!(bits(&mu), bits(&norms), "norms, {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn stats_count_tiles_and_sweeps() {
        let d = 40;
        let op = ring(d);
        let r0 = start_block(d, 1);
        let (_, stats) = fused_block_moments_doubling(&op, &r0, 1, 9, 2, 8);
        assert_eq!(stats.sweeps, 4);
        assert_eq!(stats.tiles, 4 * 5, "5 tiles of 8 rows, 4 sweeps");
    }

    #[test]
    fn ragged_final_tile_is_handled() {
        let d = 19; // 3 tiles of 8: 8 + 8 + 3
        let op = ring(d);
        let r0 = start_block(d, 2);
        let (mu_t, _) = fused_block_moments_doubling(&op, &r0, 2, 6, 3, 8);
        for j in 0..2 {
            let reference = reference_plain_moments(&op, &r0[j * d..(j + 1) * d], 6);
            for m in 0..6 {
                assert!((mu_t[j][m] - reference[m]).abs() <= 1e-12 * (d as f64));
            }
        }
    }

    #[test]
    fn single_moment_short_circuits() {
        let d = 10;
        let op = ring(d);
        let r0 = start_block(d, 2);
        let (mu, stats) = fused_block_moments_doubling(&op, &r0, 2, 1, 4, 4);
        assert_eq!(stats, TiledStats::default());
        for col in &mu {
            assert_eq!(col.len(), 1);
            assert!((col[0] - d as f64).abs() < 1e-12, "Rademacher norm is D");
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Rows `rows` of `A x` as the bare operator stores them, then
    /// `(h - a_plus x) * inv_a_minus` as a separate pass when `affine` is
    /// given.
    fn unfused_rows<A: TiledOp>(
        op: &A,
        affine: Option<(f64, f64)>,
        x: &[f64],
        k: usize,
        rows: Range<usize>,
    ) -> Vec<f64> {
        let mut h = vec![0.0; rows.len() * k];
        op.block_rows(x, k, rows.clone(), &mut h);
        if let Some((a_plus, inv_a_minus)) = affine {
            for (hv, &xv) in h.iter_mut().zip(&x[rows.start * k..rows.end * k]) {
                *hv = (*hv - a_plus * xv) * inv_a_minus;
            }
        }
        h
    }

    /// A later doubling step on the tile `rows` with the passes the fused
    /// step replaced: the stored (and rescaled) rows, the combine
    /// `p = 2 h - p`, then `<x|p>` and `<p|p>` per segment through two
    /// `column_dots`.
    #[allow(clippy::too_many_arguments)]
    fn unfused_step<A: TiledOp>(
        op: &A,
        affine: Option<(f64, f64)>,
        x: &[f64],
        k: usize,
        rows: Range<usize>,
        p: &mut [f64],
        slot_rows: usize,
        slots: &mut [f64],
    ) {
        let h = unfused_rows(op, affine, x, k, rows.clone());
        for (pv, &hv) in p.iter_mut().zip(&h) {
            *pv = 2.0 * hv - *pv;
        }
        let xt = &x[rows.start * k..rows.end * k];
        for (s, seg) in segments(rows.len(), slot_rows).enumerate() {
            let slot = &mut slots[s * SLOTS * k..][..SLOTS * k];
            for_each_chunk!(k, |j0, W| {
                slot[j0..][..W].copy_from_slice(&column_dots::<W>(xt, p, k, j0, seg.clone()));
                slot[k + j0..][..W].copy_from_slice(&column_dots::<W>(p, p, k, j0, seg.clone()));
            });
        }
    }

    /// [`fused_interleaved_moments_doubling`] one tile at a time on one
    /// thread, with step 0's rows from `unfused_rows` and every later step
    /// through `unfused_step`.
    fn unfused_doubling<A: TiledOp>(
        op: &A,
        affine: Option<(f64, f64)>,
        r0: &[f64],
        k: usize,
        n: usize,
        tile_rows: usize,
    ) -> Vec<Vec<f64>> {
        assert!(n >= 4, "at least one later step");
        let d = op.dim();
        let slot_rows = slot_rows_for(tile_rows);
        let nsegs = d.div_ceil(slot_rows);
        let tiles: Vec<Range<usize>> =
            (0..d.div_ceil(tile_rows)).map(|t| tile_range(t, tile_rows, d)).collect();
        let tile_slots = |rows: &Range<usize>| {
            let seg0 = rows.start / slot_rows;
            let seg_end = seg0 + rows.len().div_ceil(slot_rows);
            seg0 * SLOTS * k..seg_end * SLOTS * k
        };
        let sum = |slots: &[f64], slot: usize, j: usize| {
            let mut total = 0.0;
            for seg in 0..nsegs {
                total += slots[seg * SLOTS * k + slot * k + j];
            }
            total
        };
        let mut slots = vec![0.0; nsegs * SLOTS * k];
        let mut a = r0.to_vec();
        let mut b = vec![0.0; d * k];
        for rows in &tiles {
            let elems = rows.start * k..rows.end * k;
            b[elems.clone()].copy_from_slice(&unfused_rows(op, affine, &a, k, rows.clone()));
            let tile = &mut slots[tile_slots(rows)];
            start_dots(&a[elems.clone()], &b[elems], k, slot_rows, tile);
        }
        let mut mu: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let (mu0, mu1) = (sum(&slots, 0, j), sum(&slots, 1, j));
                vec![mu0, mu1, 2.0 * sum(&slots, 2, j) - mu0]
            })
            .collect();
        for step in 1..1 + (n - 2) / 2 {
            // `x` holds r_t; `p` holds r_{t-1} and becomes r_{t+1}.
            let (x, p) = if step % 2 == 1 { (&b, &mut a) } else { (&a, &mut b) };
            for rows in &tiles {
                let p = &mut p[rows.start * k..rows.end * k];
                let tile = &mut slots[tile_slots(rows)];
                unfused_step(op, affine, x, k, rows.clone(), p, slot_rows, tile);
            }
            for (j, col) in mu.iter_mut().enumerate() {
                col.push(2.0 * sum(&slots, 0, j) - col[1]);
                if 2 * step + 2 < n {
                    col.push(2.0 * sum(&slots, 1, j) - col[0]);
                }
            }
        }
        mu
    }

    /// `wave` with exact zeros of both signs mixed in.
    fn wave_with_zeros(seed: usize, len: usize) -> Vec<f64> {
        let mut v = wave(seed, len);
        for (i, x) in v.iter_mut().enumerate() {
            match i % 6 {
                0 => *x = 0.0,
                3 => *x = -0.0,
                _ => {}
            }
        }
        v
    }

    /// Checks the fused step of `fused` against the unfused passes on
    /// `bare` with the map `affine`: the moments of the whole recursion at
    /// on- and off-grid tile heights and one and three threads, and one
    /// tile's rows and slots, whose inputs hold zeros of both signs.
    fn assert_fused_step_matches<F: TiledOp + Sync, A: TiledOp>(
        fused: &F,
        bare: &A,
        affine: Option<(f64, f64)>,
        what: &str,
    ) {
        let d = bare.dim();
        let n = 9;
        for k in [1, 3, 17] {
            let r0 = wave(k, d * k);
            for tile_rows in [DEFAULT_TILE_ROWS, 2 * DEFAULT_TILE_ROWS, 24, 200] {
                let want = unfused_doubling(bare, affine, &r0, k, n, tile_rows);
                for threads in [1, 3] {
                    let (got, _) = fused_interleaved_moments_doubling(
                        fused,
                        r0.clone(),
                        k,
                        n,
                        threads,
                        tile_rows,
                    );
                    let case = format!("{what}, k = {k}, {tile_rows} rows, {threads} threads");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(bits(g), bits(w), "{case}");
                    }
                }
            }
            // One 40-row tile from row 5 in 16-row segments: every length
            // mod 4 and a ragged last segment.
            let (rows, slot_rows) = (5..45, 16);
            let x = wave_with_zeros(2 * k, d * k);
            let p0 = wave_with_zeros(3 * k + 1, rows.len() * k);
            let nslots = rows.len().div_ceil(slot_rows) * SLOTS * k;
            let (mut p, mut slots) = (p0.clone(), vec![f64::NAN; nslots]);
            let mut scratch = vec![f64::NAN; rows.len() * k];
            let mut epi = RowEpilogue::doubling(&mut p, &mut slots, slot_rows, &mut scratch);
            fused.rows_into(&x, k, rows.clone(), &mut epi);
            let (mut p_want, mut slots_want) = (p0, vec![f64::NAN; nslots]);
            unfused_step(
                bare,
                affine,
                &x,
                k,
                rows.clone(),
                &mut p_want,
                slot_rows,
                &mut slots_want,
            );
            assert_eq!(bits(&p), bits(&p_want), "{what}, k = {k}: rows of p");
            assert_eq!(bits(&slots), bits(&slots_want), "{what}, k = {k}: slots");
        }
    }

    /// Bare, then behind a rescale.
    fn assert_fused_steps_match<A: TiledOp + Sync + Clone>(op: &A, name: &str) {
        assert_fused_step_matches(op, op, None, name);
        let rescaled = RescaledOp::new(op.clone(), 0.03, 1.1);
        let what = format!("rescaled {name}");
        assert_fused_step_matches(&rescaled, op, Some((0.03, 1.0 / 1.1)), &what);
    }

    #[test]
    fn fused_step_matches_the_unfused_passes_bitwise() {
        // A disordered periodic 7^3 lattice: D = 343, three canonical
        // segments, the last ragged.
        let onsite = wave(5, 343).into_iter().map(|v| 0.2 * v).collect();
        let geometry = crate::StencilGeometry { dims: vec![7; 3], periodic: vec![true; 3] };
        let stencil = StencilOp::new(geometry, 0.125, onsite, true);
        let csr = stencil.to_csr();
        assert_fused_steps_match(&csr, "csr");
        assert_fused_steps_match(&stencil, "stencil");
        assert_fused_steps_match(&csr.to_dense(), "dense");
        // Zeros on the diagonal make raw products of -0.0, which a bare
        // operator must keep: `(-0.0 - 0 * x) * 1` is +0.0 for negative x.
        let diagonal = DiagonalOp::new(wave_with_zeros(9, 343));
        assert_fused_steps_match(&diagonal, "diagonal");
        let x = vec![-1.0; 343];
        let mut p = vec![0.0; 343];
        let mut slots = vec![0.0; 343usize.div_ceil(16) * SLOTS];
        let mut scratch = vec![0.0; 343];
        diagonal.rows_into(
            &x,
            1,
            0..343,
            &mut RowEpilogue::doubling(&mut p, &mut slots, 16, &mut scratch),
        );
        assert!(p.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()), "a -0.0 row is kept");
    }
}
