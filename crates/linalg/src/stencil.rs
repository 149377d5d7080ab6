//! Matrix-free stencil operator for tight-binding lattice Hamiltonians.
//!
//! The paper's Hamiltonian is a nearest-neighbour stencil on a cubic
//! lattice: every off-diagonal entry is the same `-t` and every neighbour
//! index is computable from the site index and the lattice extents. Storing
//! index arrays for that is pure overhead — [`StencilOp`] recomputes the
//! neighbour pattern on the fly, so a row costs only its on-site energy
//! (8 B) in memory traffic, against the 88 B of a seven-entry CSR row.
//!
//! A hypercubic geometry is driven by one boundary-class plan (`ClassPlan`):
//! the sorted neighbour offsets of each boundary class, listed once, and the
//! class of each x-line. Every hypercubic kernel reads it — the one-vector
//! product, the tiled engine's row kernel, the Gershgorin discs and the
//! stored-entry count — so no row lists or sorts its columns. The
//! honeycomb geometry enumerates each row's neighbours instead.
//!
//! Determinism contract: for the supported geometries the generated entry
//! set and the per-row ascending-column accumulation order match exactly
//! what the CSR built by the lattice crate produces, so stencil results are
//! bitwise identical to CSR/ELL results (the cross-format property tests
//! pin this).

use std::ops::Range;

use crate::block::BlockOp;
use crate::csr::CsrMatrix;
use crate::gershgorin::SpectralBounds;
use crate::op::LinearOp;
use crate::tiled::RowEpilogue;

/// Which lattice geometry generates the stencil pattern.
///
/// The neighbour semantics replicate the lattice crate's enumeration rules:
/// dimensions of extent 1 contribute no bonds, self-loops are skipped, and a
/// neighbour reachable both ways (extent-2 periodic) is counted once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StencilGeometry {
    /// A hypercubic lattice with per-direction extents and periodicity.
    /// Sites are indexed row-major: `i = x_0 + L_0 (x_1 + L_1 (x_2 + ...))`.
    Hypercubic {
        /// Extent per dimension (all positive).
        dims: Vec<usize>,
        /// Periodic wrap per dimension (same length as `dims`).
        periodic: Vec<bool>,
    },
    /// An `lx x ly` honeycomb lattice (two-site unit cells, A sites even).
    Honeycomb {
        /// Unit cells along the first primitive direction.
        lx: usize,
        /// Unit cells along the second primitive direction.
        ly: usize,
        /// Periodic wrap along both directions.
        periodic: bool,
    },
}

impl StencilGeometry {
    /// Total number of sites `D`.
    pub fn num_sites(&self) -> usize {
        match self {
            StencilGeometry::Hypercubic { dims, .. } => dims.iter().product(),
            StencilGeometry::Honeycomb { lx, ly, .. } => 2 * lx * ly,
        }
    }
}

/// Pushes the nearest neighbours of honeycomb site `i` into `out` (cleared
/// first), deduplicated, in the lattice crate's enumeration order.
fn honeycomb_neighbors_into(lx: usize, ly: usize, periodic: bool, i: usize, out: &mut Vec<usize>) {
    out.clear();
    let b = i % 2 == 1;
    let cell = i / 2;
    let (x, y) = ((cell % lx) as isize, (cell / lx) as isize);
    let deltas: [(isize, isize); 3] = [(0, 0), (-1, 0), (0, -1)];
    for (dx, dy) in deltas {
        let (dx, dy) = if b { (-dx, -dy) } else { (dx, dy) };
        let (nx, ny) = (x + dx, y + dy);
        let wrap = |v: isize, l: usize| -> Option<usize> {
            if (0..l as isize).contains(&v) {
                Some(v as usize)
            } else if periodic {
                Some(v.rem_euclid(l as isize) as usize)
            } else {
                None
            }
        };
        if let (Some(nx), Some(ny)) = (wrap(nx, lx), wrap(ny, ly)) {
            let other = if b { 0 } else { 1 };
            let j = 2 * (nx + lx * ny) + other;
            if j != i && !out.contains(&j) {
                out.push(j);
            }
        }
    }
}

/// The boundary-class plan of a hypercubic geometry.
///
/// Along a direction of extent `L`, a coordinate is first (`0`), interior
/// or last (`L - 1`); an extent of 2 has no interior coordinate and an
/// extent of 1 only one class. A site's boundary class is its tuple of
/// per-direction classes, and every site of a class has the same neighbour
/// offsets `j - i`. The plan lists each class's offsets once, ascending, so
/// a row's entries are its negative offsets, the diagonal when stored, then
/// its positive offsets: the lattice CSR's ascending-column order. Sites run
/// along x-lines (`x_0` fastest), and all rows of a line share their
/// classes in the other directions, so the plan keeps one class per line
/// and a row adds only the class of its `x_0`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClassPlan {
    /// Sites per x-line, `L_0`.
    line_len: usize,
    /// Each class's slice of `offsets`.
    classes: Vec<ClassSpan>,
    /// Every class's neighbour offsets, ascending within a class.
    offsets: Vec<isize>,
    /// Each x-line's class index without its `x_0` part.
    line_class: Vec<usize>,
    /// Off-diagonal entries over all sites.
    hops: usize,
}

/// One class's offsets: `offsets[start..start + neg]` are negative,
/// `offsets[start + neg..end]` positive.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClassSpan {
    start: usize,
    neg: usize,
    end: usize,
}

/// The class of coordinate `c` along a direction of extent `l`, which has
/// `min(l, 3)` classes: first `0`, interior `1`, last `min(l, 3) - 1`.
#[inline(always)]
fn coordinate_class(c: usize, l: usize) -> usize {
    if c == 0 {
        0
    } else if c + 1 == l {
        l.min(3) - 1
    } else {
        1
    }
}

/// Which of a line's `[first, interior, last]` classes site `x0` of a line
/// of `l` sites has.
#[inline(always)]
fn line_position(x0: usize, l: usize) -> usize {
    if x0 == 0 {
        0
    } else if x0 + 1 == l {
        2
    } else {
        1
    }
}

impl ClassPlan {
    fn new(dims: &[usize], periodic: &[bool]) -> Self {
        // Class index `sum_d class_d * radix_d`, with `x_0` fastest.
        let counts: Vec<usize> = dims.iter().map(|&l| l.min(3)).collect();
        let nclasses: usize = counts.iter().product();
        let mut classes = Vec::with_capacity(nclasses);
        let mut offsets = Vec::new();
        let mut hops = 0;
        for class in 0..nclasses {
            let start = offsets.len();
            let (mut rem, mut stride, mut sites) = (class, 1isize, 1usize);
            for ((&l, &n), &wrap) in dims.iter().zip(&counts).zip(periodic) {
                let c = rem % n;
                rem /= n;
                let far = (l as isize - 1) * stride;
                match (l, c) {
                    (1, _) => {}
                    // Both ways reach the one other site; it counts once.
                    (2, 0) => offsets.push(stride),
                    (2, _) => offsets.push(-stride),
                    (_, 0) => {
                        offsets.push(stride);
                        if wrap {
                            offsets.push(far);
                        }
                    }
                    (_, 1) => {
                        offsets.extend([-stride, stride]);
                        sites *= l - 2;
                    }
                    _ => {
                        offsets.push(-stride);
                        if wrap {
                            offsets.push(-far);
                        }
                    }
                }
                stride *= l as isize;
            }
            offsets[start..].sort_unstable();
            let neg = offsets[start..].iter().filter(|&&o| o < 0).count();
            hops += sites * (offsets.len() - start);
            classes.push(ClassSpan { start, neg, end: offsets.len() });
        }
        let lines: usize = dims[1..].iter().product();
        let mut line_class = Vec::with_capacity(lines);
        let mut coords = vec![0usize; dims.len()];
        for _ in 0..lines {
            let mut class = 0;
            let mut radix = counts[0];
            for ((&c, &l), &n) in coords.iter().zip(dims).zip(&counts).skip(1) {
                class += coordinate_class(c, l) * radix;
                radix *= n;
            }
            line_class.push(class);
            // The next line's coordinates: x_1 runs fastest.
            for (c, &l) in coords.iter_mut().zip(dims).skip(1) {
                *c += 1;
                if *c < l {
                    break;
                }
                *c = 0;
            }
        }
        Self { line_len: dims[0], classes, offsets, line_class, hops }
    }

    /// The classes of line `line`'s first, interior and last sites, as
    /// indexed by `line_position`. A line of fewer than three sites has no
    /// interior; its entry repeats another class.
    #[inline(always)]
    fn line_spans(&self, line: usize) -> [ClassSpan; 3] {
        let base = self.line_class[line];
        // The classes along `x_0`: `min(L_0, 3)`.
        let last = base + self.line_len.min(3) - 1;
        [self.classes[base], self.classes[(base + 1).min(last)], self.classes[last]]
    }

    /// The negative and the positive offsets of `span`.
    #[inline(always)]
    fn span_offsets(&self, span: ClassSpan) -> (&[isize], &[isize]) {
        self.offsets[span.start..span.end].split_at(span.neg)
    }

    /// The class of site `i` and the end of the run of sites from `i` on
    /// that share it: the rest of the line's interior, or `i + 1` at the
    /// line's first and last site.
    #[inline(always)]
    fn run_at(&self, i: usize) -> (ClassSpan, usize) {
        let line = i / self.line_len;
        let first = line * self.line_len;
        let at = line_position(i - first, self.line_len);
        let end = if at == 1 { first + self.line_len - 1 } else { i + 1 };
        (self.line_spans(line)[at], end)
    }
}

/// A matrix-free nearest-neighbour tight-binding operator: off-diagonal
/// entries are `-hopping` on the geometry's bonds, diagonal entries come
/// from the per-site `onsite` energies.
///
/// A diagonal entry is treated as *stored* — and therefore participates in
/// the row's accumulation and the entry count — iff `onsite[i] != 0.0` or
/// `store_zero_diagonal` is set, mirroring the lattice builders' rule so
/// the stencil's entry set matches the equivalent CSR exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilOp {
    geometry: StencilGeometry,
    hopping: f64,
    onsite: Vec<f64>,
    store_zero_diagonal: bool,
    stored: usize,
    /// The boundary-class plan of a hypercubic geometry; `None` for the
    /// honeycomb geometry, whose rows enumerate their neighbours.
    pub(crate) plan: Option<ClassPlan>,
}

impl StencilOp {
    /// Builds the operator.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (no dimensions, a zero extent,
    /// more than 8 hypercubic dimensions, mismatched `dims`/`periodic`
    /// lengths) or if `onsite.len() != geometry.num_sites()`.
    pub fn new(
        geometry: StencilGeometry,
        hopping: f64,
        onsite: Vec<f64>,
        store_zero_diagonal: bool,
    ) -> Self {
        match &geometry {
            StencilGeometry::Hypercubic { dims, periodic } => {
                assert!(!dims.is_empty(), "stencil: lattice must have at least one dimension");
                assert!(dims.len() <= 8, "stencil: at most 8 dimensions supported");
                assert!(dims.iter().all(|&l| l > 0), "stencil: every extent must be positive");
                assert_eq!(dims.len(), periodic.len(), "stencil: dims/periodic length mismatch");
            }
            StencilGeometry::Honeycomb { lx, ly, .. } => {
                assert!(*lx > 0 && *ly > 0, "stencil: extents must be positive");
            }
        }
        assert_eq!(onsite.len(), geometry.num_sites(), "stencil: onsite length");
        let plan = match &geometry {
            StencilGeometry::Hypercubic { dims, periodic } => Some(ClassPlan::new(dims, periodic)),
            StencilGeometry::Honeycomb { .. } => None,
        };
        let diagonals = if store_zero_diagonal {
            onsite.len()
        } else {
            onsite.iter().filter(|&&e| e != 0.0).count()
        };
        let mut op = Self { geometry, hopping, onsite, store_zero_diagonal, stored: 0, plan };
        let hops = match &op.plan {
            Some(plan) => plan.hops,
            None => {
                let mut scratch = Vec::with_capacity(3);
                (0..op.onsite.len()).map(|i| op.honeycomb_row_hops(i, &mut scratch)).sum()
            }
        };
        op.stored = hops + diagonals;
        op
    }

    /// Convenience: hypercubic geometry with a uniform onsite energy.
    pub fn hypercubic_uniform(
        dims: &[usize],
        periodic: &[bool],
        hopping: f64,
        onsite: f64,
        store_zero_diagonal: bool,
    ) -> Self {
        let geometry =
            StencilGeometry::Hypercubic { dims: dims.to_vec(), periodic: periodic.to_vec() };
        let n = geometry.num_sites();
        Self::new(geometry, hopping, vec![onsite; n], store_zero_diagonal)
    }

    /// The generating geometry.
    pub fn geometry(&self) -> &StencilGeometry {
        &self.geometry
    }

    /// The hopping amplitude `t` (off-diagonal entries are `-t`).
    pub fn hopping(&self) -> f64 {
        self.hopping
    }

    /// Per-site onsite energies (the diagonal).
    pub fn onsite(&self) -> &[f64] {
        &self.onsite
    }

    #[inline(always)]
    fn diagonal_stored(&self, i: usize) -> bool {
        self.onsite[i] != 0.0 || self.store_zero_diagonal
    }

    /// The honeycomb neighbours of row `i` into `out`, unsorted, and their
    /// count.
    fn honeycomb_row_hops(&self, i: usize, out: &mut Vec<usize>) -> usize {
        let StencilGeometry::Honeycomb { lx, ly, periodic } = self.geometry else {
            unreachable!("hypercubic rows are read from their class plan");
        };
        honeycomb_neighbors_into(lx, ly, periodic, i, out);
        out.len()
    }

    /// Sorted stored-entry columns of row `i` into `cols`.
    fn row_cols_into(&self, i: usize, cols: &mut Vec<usize>) {
        match &self.plan {
            Some(plan) => {
                let (neg, pos) = plan.span_offsets(plan.run_at(i).0);
                cols.clear();
                cols.extend(neg.iter().map(|&off| (i as isize + off) as usize));
                if self.diagonal_stored(i) {
                    cols.push(i);
                }
                cols.extend(pos.iter().map(|&off| (i as isize + off) as usize));
            }
            None => {
                self.honeycomb_row_hops(i, cols);
                if self.diagonal_stored(i) {
                    cols.push(i);
                }
                cols.sort_unstable();
            }
        }
    }

    /// Value of the stored entry at `(i, c)` given that `c` is one of row
    /// `i`'s stored columns.
    #[inline]
    fn entry(&self, i: usize, c: usize) -> f64 {
        if c == i {
            self.onsite[i]
        } else {
            -self.hopping
        }
    }

    /// Gershgorin spectral bounds, computed row by row from the generated
    /// pattern — same discs as the equivalent CSR, since every off-diagonal
    /// magnitude is `|t|` and the diagonal matches.
    pub fn gershgorin_bounds(&self) -> SpectralBounds {
        let n = self.onsite.len();
        assert!(n > 0, "gershgorin: operator must be nonempty");
        let mut scratch = Vec::with_capacity(3);
        let t_abs = self.hopping.abs();
        let mut lower = f64::INFINITY;
        let mut upper = f64::NEG_INFINITY;
        for i in 0..n {
            let hops = match &self.plan {
                Some(plan) => {
                    let (span, _) = plan.run_at(i);
                    span.end - span.start
                }
                None => self.honeycomb_row_hops(i, &mut scratch),
            };
            let mut radius = 0.0;
            for _ in 0..hops {
                radius += t_abs;
            }
            let d = if self.diagonal_stored(i) { self.onsite[i] } else { 0.0 };
            lower = lower.min(d - radius);
            upper = upper.max(d + radius);
        }
        SpectralBounds::new(lower, upper)
    }

    /// Materializes the stencil as a CSR matrix with the identical entry set
    /// (tests, format conversion, fallback paths).
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.onsite.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.stored);
        let mut values = Vec::with_capacity(self.stored);
        row_ptr.push(0);
        let mut cols = Vec::with_capacity(17);
        for i in 0..n {
            self.row_cols_into(i, &mut cols);
            for &c in &cols {
                col_idx.push(crate::csr::index(c));
                values.push(self.entry(i, c));
            }
            row_ptr.push(crate::csr::index(col_idx.len()));
        }
        CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
            .expect("stencil produced invalid CSR — internal bug")
    }

    /// `y = A x`, or `y = (A x - a_plus x) * inv_a_minus` with
    /// `affine = Some((a_plus, inv_a_minus))`: the one-vector product
    /// behind [`LinearOp::apply`], [`LinearOp::apply_rescaled`] and, column
    /// by column, [`BlockOp::apply_block`].
    fn apply_mapped(&self, x: &[f64], y: &mut [f64], affine: Option<(f64, f64)>) {
        let n = self.onsite.len();
        assert_eq!(x.len(), n, "stencil apply: x length");
        assert_eq!(y.len(), n, "stencil apply: y length");
        match &self.plan {
            Some(plan) => apply_rows(self, plan, x, y, 0..n, affine),
            None => {
                let mut cols = Vec::with_capacity(4);
                for (i, yi) in y.iter_mut().enumerate() {
                    self.row_cols_into(i, &mut cols);
                    let mut acc = 0.0;
                    for &c in &cols {
                        acc += self.entry(i, c) * x[c];
                    }
                    *yi = match affine {
                        Some((a_plus, inv_a_minus)) => (acc - a_plus * x[i]) * inv_a_minus,
                        None => acc,
                    };
                }
            }
        }
    }

    /// Column by column [`StencilOp::apply_mapped`] over a column-major
    /// `k`-column block.
    fn apply_block_mapped(&self, x: &[f64], y: &mut [f64], k: usize, affine: Option<(f64, f64)>) {
        let n = self.onsite.len();
        assert_eq!(x.len(), n * k, "stencil spmm: x length");
        assert_eq!(y.len(), n * k, "stencil spmm: y length");
        if n == 0 {
            return;
        }
        for (xc, yc) in x.chunks_exact(n).zip(y.chunks_exact_mut(n)) {
            self.apply_mapped(xc, yc, affine);
        }
    }

    /// Row kernel of the tiled engine, with the contract of
    /// `csr::rows_interleaved`: rows `rows` of `A X` for a
    /// row-interleaved `k`-column block, each handed to the epilogue `epi`.
    /// A hypercubic geometry runs `stencil::rows_interleaved` over its
    /// class plan; the honeycomb geometry enumerates each row's columns.
    pub(crate) fn rows_into_epilogue(
        &self,
        x: &[f64],
        k: usize,
        rows: Range<usize>,
        epi: &mut RowEpilogue<'_>,
    ) {
        match &self.plan {
            Some(plan) => rows_interleaved(self, plan, x, k, rows, epi),
            None => crate::tiled::for_each_chunk!(k, |j0, W| {
                let mut cols = Vec::with_capacity(4);
                epi.rows::<W>(x, k, j0, rows.clone(), |i| {
                    self.row_cols_into(i, &mut cols);
                    let mut acc = [0.0f64; W];
                    for &c in &cols {
                        let v = self.entry(i, c);
                        for (a, &xv) in acc.iter_mut().zip(&x[c * k + j0..][..W]) {
                            *a += v * xv;
                        }
                    }
                    acc
                });
            }),
        }
    }

    /// Columns `j0..j0 + W` of `stencil::rows_interleaved`.
    #[inline(always)]
    fn rows_chunk<const W: usize>(
        &self,
        plan: &ClassPlan,
        x: &[f64],
        k: usize,
        j0: usize,
        rows: Range<usize>,
        epi: &mut RowEpilogue<'_>,
    ) {
        let t = -self.hopping;
        // Row `i` is site `x0` of x-line `line`; its class changes only at
        // a line's first, second and last site.
        let lx = plan.line_len;
        let mut line = rows.start / lx;
        let mut x0 = rows.start - line * lx;
        // The classes of the current line's first, interior and last sites,
        // read when a line starts; a row switches among them by position.
        let mut spans = [ClassSpan { start: 0, neg: 0, end: 0 }; 3];
        let (mut neg, mut pos): (&[isize], &[isize]) = (&[], &[]);
        if !rows.is_empty() {
            spans = plan.line_spans(line);
            (neg, pos) = plan.span_offsets(spans[line_position(x0, lx)]);
        }
        epi.rows::<W>(
            x,
            k,
            j0,
            rows,
            #[inline(always)]
            |i| {
                if x0 == 0 {
                    spans = plan.line_spans(line);
                }
                if x0 <= 1 || x0 + 1 == lx {
                    (neg, pos) = plan.span_offsets(spans[line_position(x0, lx)]);
                }
                let mut acc = [0.0f64; W];
                let xi = &x[j0..];
                add_hops::<W>(&mut acc, t, xi, k, i, neg);
                if self.diagonal_stored(i) {
                    add_row::<W>(&mut acc, self.onsite[i], &xi[i * k..]);
                }
                add_hops::<W>(&mut acc, t, xi, k, i, pos);
                x0 += 1;
                if x0 == lx {
                    (x0, line) = (0, line + 1);
                }
                acc
            },
        );
    }

    /// One run of sites `r0..r0 + y.len()` of one class, whose offsets are
    /// `neg` and `pos`, of `stencil::apply_rows`. Runs of at least `LINE_ROWS`
    /// sites go in `LINE_ROWS`-row vector steps, the last one overlapping
    /// the one before it where the run is not a multiple; every site's value
    /// is the same whichever step computes it.
    #[inline(always)]
    fn run_rows(
        &self,
        neg: &[isize],
        pos: &[isize],
        x: &[f64],
        y: &mut [f64],
        r0: usize,
        affine: Option<(f64, f64)>,
    ) {
        let len = y.len();
        if len < LINE_ROWS {
            for (r, yr) in y.iter_mut().enumerate() {
                *yr = self.site_rows::<1>(neg, pos, x, r0 + r, affine)[0];
            }
            return;
        }
        let mut r = 0;
        loop {
            let at = r.min(len - LINE_ROWS);
            y[at..][..LINE_ROWS].copy_from_slice(&self.site_rows::<LINE_ROWS>(
                neg,
                pos,
                x,
                r0 + at,
                affine,
            ));
            if at + LINE_ROWS == len {
                break;
            }
            r += LINE_ROWS;
        }
    }

    /// Sites `i..i + R` of one class: each accumulates its negative
    /// offsets, its diagonal when stored and its positive offsets, in that
    /// order, from `0.0`, and is then mapped by `affine`.
    #[inline(always)]
    fn site_rows<const R: usize>(
        &self,
        neg: &[isize],
        pos: &[isize],
        x: &[f64],
        i: usize,
        affine: Option<(f64, f64)>,
    ) -> [f64; R] {
        let t = -self.hopping;
        let mut acc = [0.0f64; R];
        for &off in neg {
            add_row::<R>(&mut acc, t, &x[(i as isize + off) as usize..]);
        }
        let xs = &x[i..][..R];
        for ((a, &d), &xv) in acc.iter_mut().zip(&self.onsite[i..][..R]).zip(xs) {
            // A select, not a branch, so the step stays one vector loop.
            let with = *a + d * xv;
            *a = if d != 0.0 || self.store_zero_diagonal { with } else { *a };
        }
        for &off in pos {
            add_row::<R>(&mut acc, t, &x[(i as isize + off) as usize..]);
        }
        if let Some((a_plus, inv_a_minus)) = affine {
            for (a, &xv) in acc.iter_mut().zip(xs) {
                *a = (*a - a_plus * xv) * inv_a_minus;
            }
        }
        acc
    }
}

/// Sites per vector step of `stencil::apply_rows`: two AVX2 registers.
const LINE_ROWS: usize = 8;

/// `acc[u] += coef * x[(i + off) * k + u]` for each offset `off` of
/// `offs` in turn: the hops of row `i` of a row-interleaved block.
#[inline(always)]
fn add_hops<const W: usize>(
    acc: &mut [f64; W],
    coef: f64,
    x: &[f64],
    k: usize,
    i: usize,
    offs: &[isize],
) {
    // Three, the count of every side of an interior 3-D row, runs
    // unrolled: with the generic loop alone the 48^3 engine ran about 8%
    // slower, behind CSR (DESIGN §7, "The stencil's class plan").
    if let Ok(three) = <&[isize; 3]>::try_from(offs) {
        for &off in three {
            add_row::<W>(acc, coef, &x[(i as isize + off) as usize * k..]);
        }
    } else {
        for &off in offs {
            add_row::<W>(acc, coef, &x[(i as isize + off) as usize * k..]);
        }
    }
}

/// `acc[u] += coef * xs[u]` for the first `W` values of `xs`.
#[inline(always)]
fn add_row<const W: usize>(acc: &mut [f64; W], coef: f64, xs: &[f64]) {
    for (a, &xv) in acc.iter_mut().zip(&xs[..W]) {
        *a += coef * xv;
    }
}

crate::isa::kernels! {
    /// Row kernel of the tiled engine for a hypercubic stencil, with the
    /// contract of `csr::rows_interleaved`: rows `rows` of `A X` for a
    /// row-interleaved `k`-column block, each handed to the epilogue `epi`.
    /// A row reads its class's offsets from `plan` (they change only at a
    /// line's first, second and last site) and accumulates them with its
    /// diagonal in ascending column order from `0.0`, so every value is
    /// bitwise equal to the lattice CSR's, from any `rows.start`. The
    /// caller checks the lengths.
    pub(crate) fn rows_interleaved(
        op: &StencilOp,
        plan: &ClassPlan,
        x: &[f64],
        k: usize,
        rows: Range<usize>,
        epi: &mut RowEpilogue<'_>,
    ) {
        crate::tiled::for_each_chunk!(
            k,
            |j0, W| op.rows_chunk::<W>(plan, x, k, j0, rows.clone(), epi)
        );
    }

    /// One-vector kernel of a hypercubic stencil: rows `rows` of `A x`, or
    /// of `(A x - a_plus x) * inv_a_minus` with
    /// `affine = Some((a_plus, inv_a_minus))`, into `y` (`y[r]` is row
    /// `rows.start + r`). A line's interior sites share one class, so they
    /// run as vector loops over its fixed offsets, several sites per step;
    /// every site accumulates in ascending column order from `0.0`, as in
    /// `CsrMatrix::spmv`.
    pub(crate) fn apply_rows(
        op: &StencilOp,
        plan: &ClassPlan,
        x: &[f64],
        y: &mut [f64],
        rows: Range<usize>,
        affine: Option<(f64, f64)>,
    ) {
        let mut i = rows.start;
        while i < rows.end {
            let (span, run_end) = plan.run_at(i);
            let end = run_end.min(rows.end);
            let out = &mut y[i - rows.start..end - rows.start];
            let (neg, pos) = plan.span_offsets(span);
            op.run_rows(neg, pos, x, out, i, affine);
            i = end;
        }
    }
}

impl LinearOp for StencilOp {
    fn dim(&self) -> usize {
        self.onsite.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.apply_mapped(x, y, None);
    }

    fn apply_rescaled(&self, x: &[f64], y: &mut [f64], a_plus: f64, inv_a_minus: f64) {
        self.apply_mapped(x, y, Some((a_plus, inv_a_minus)));
    }

    fn stored_entries(&self) -> usize {
        self.stored
    }

    /// Matrix-free: a traffic model should charge nothing for the matrix.
    fn model_entries(&self) -> usize {
        0
    }
}

impl BlockOp for StencilOp {
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize) {
        self.apply_block_mapped(x, y, k, None);
    }

    fn apply_block_rescaled(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        a_plus: f64,
        inv_a_minus: f64,
    ) {
        self.apply_block_mapped(x, y, k, Some((a_plus, inv_a_minus)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gershgorin::gershgorin_csr;

    fn cubic_stencil() -> StencilOp {
        StencilOp::hypercubic_uniform(&[3, 3, 3], &[true, true, true], 1.0, 0.0, true)
    }

    #[test]
    fn cubic_periodic_has_seven_stored_entries_per_row() {
        let s = cubic_stencil();
        assert_eq!(s.dim(), 27);
        assert_eq!(s.stored_entries(), 7 * 27);
        assert_eq!(s.model_entries(), 0, "matrix-free: no model traffic");
    }

    #[test]
    fn apply_is_bitwise_equal_to_materialized_csr() {
        for (s, name) in [
            (cubic_stencil(), "cubic"),
            (
                StencilOp::hypercubic_uniform(&[5], &[false], 1.3, -0.2, false),
                "open chain with onsite",
            ),
            (
                StencilOp::new(
                    StencilGeometry::Honeycomb { lx: 3, ly: 4, periodic: true },
                    1.0,
                    vec![0.0; 24],
                    false,
                ),
                "honeycomb",
            ),
        ] {
            let csr = s.to_csr();
            let d = s.dim();
            let x: Vec<f64> = (0..d).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
            assert_eq!(s.apply_alloc(&x), csr.apply_alloc(&x), "{name}");
            assert_eq!(s.stored_entries(), csr.nnz(), "{name}: entry count");
        }
    }

    #[test]
    fn block_apply_matches_column_loop() {
        let s = cubic_stencil();
        let d = s.dim();
        let k = 3;
        let x: Vec<f64> = (0..d * k).map(|i| (i as f64).cos()).collect();
        let blocked = crate::block::BlockOp::apply_block_alloc(&s, &x, k);
        for j in 0..k {
            let col = s.apply_alloc(&x[j * d..(j + 1) * d]);
            assert_eq!(&blocked[j * d..(j + 1) * d], &col[..], "column {j}");
        }
    }

    #[test]
    fn gershgorin_matches_csr_bounds() {
        let disorder: Vec<f64> = (0..12).map(|i| ((i % 5) as f64) * 0.3 - 0.6).collect();
        let s = StencilOp::new(
            StencilGeometry::Hypercubic { dims: vec![4, 3], periodic: vec![true, false] },
            0.9,
            disorder,
            true,
        );
        assert_eq!(s.gershgorin_bounds(), gershgorin_csr(&s.to_csr()));
    }

    #[test]
    fn extent_two_periodic_does_not_double_count() {
        let s = StencilOp::hypercubic_uniform(&[2], &[true], 1.0, 0.0, false);
        // One bond, seen from each endpoint: 2 stored entries, no diagonal.
        assert_eq!(s.stored_entries(), 2);
        let csr = s.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), -1.0);
    }

    #[test]
    fn extent_one_dimension_contributes_no_bonds() {
        let s = StencilOp::hypercubic_uniform(&[1, 4], &[true, true], 1.0, 0.0, false);
        assert_eq!(s.dim(), 4);
        assert_eq!(s.stored_entries(), 2 * 4, "ring of 4 sites only");
    }

    #[test]
    fn class_plan_lists_each_class_once() {
        // 48^3 periodic: 27 classes of six offsets each, one per x-line.
        let s = StencilOp::hypercubic_uniform(&[48; 3], &[true; 3], 1.0, 0.0, false);
        let plan = s.plan.as_ref().expect("hypercubic plan");
        assert_eq!(plan.classes.len(), 27);
        assert_eq!(plan.offsets.len(), 27 * 6);
        assert_eq!(plan.line_class.len(), 48 * 48);
        assert_eq!(s.stored_entries(), 6 * 48 * 48 * 48);
        // The interior class: -L^2, -L, -1, then 1, L, L^2.
        let interior = plan.span_offsets(plan.classes[13]);
        assert_eq!(interior, (&[-2304, -48, -1][..], &[1, 48, 2304][..]));
        // Never more classes than sites.
        let tiny = StencilOp::hypercubic_uniform(&[2, 1, 2], &[true; 3], 1.0, 0.0, false);
        assert_eq!(tiny.plan.as_ref().unwrap().classes.len(), 4);
    }

    #[test]
    #[should_panic(expected = "onsite length")]
    fn onsite_length_validated() {
        let _ = StencilOp::new(
            StencilGeometry::Hypercubic { dims: vec![3], periodic: vec![false] },
            1.0,
            vec![0.0; 2],
            false,
        );
    }
}
