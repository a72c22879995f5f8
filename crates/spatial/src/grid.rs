//! Dense counting-sort cell grid: the default spatial index.
//!
//! The bounding box of the points is cut into square cells, numbered
//! row-major, and one stable counting-sort pass bins the points into three
//! parallel cell-ordered columns (`xs`, `ys`, `payloads`) with a
//! `starts` offset array: cell `c` owns `[starts[c], starts[c+1])`. Within a
//! cell, points keep their input (payload) order.
//!
//! Because the cells of one grid row are adjacent in storage, the cells a
//! range probe overlaps in one row form a single contiguous **strip**. A
//! probe streams each strip straight through the lane kernel
//! ([`crate::kernels::filter_rect`]) with no per-probe gather
//! ([`SpatialIndex::RANGE_BATCH_NATIVE`]), then sorts the points that
//! passed: emission is globally **ascending by payload**
//! ([`SpatialIndex::RANGE_CANONICAL`]), a pure function of the matching
//! point set. On every single-node pool payloads are id-ordered rows, so
//! this is exactly the id-sorted order the cluster collector canonicalizes
//! to, and order-sensitive float-sum models are exactly distributable on
//! the grid (see `brace_scenario::builtin`).
//!
//! # Derived cell side
//!
//! Nobody configures the cell side. The grid targets about two points per
//! cell from the density observed over the bounding box; a visibility cap
//! ([`UniformGrid::with_cell`]) clamps the side to `[vis/4, vis]`, which
//! bounds a probe's read to `(2·vis + cell)²` of area under hotspots. The
//! side then doubles until the grid has at most `4n + 64` cells, which
//! bounds memory when a few points lie far from the rest. Degenerate
//! bounds (coincident or non-finite points) fall back to one cell — a
//! scan — which is always correct.
//!
//! # Maintenance
//!
//! [`SpatialIndex::update`] writes the moved positions into the
//! input-order columns and re-bins everything — bounds, cell side and
//! counting sort — in O(n + cells) into the same buffers. Emission depends
//! only on the point set, so a maintained grid and a fresh build answer
//! every query identically.

use crate::index::{dense_slots, finish_knn, knn_cmp, with_dist2_scratch, with_knn_scratch, SpatialIndex};
use crate::kernels::{dist2, filter_rect};
use brace_common::{Rect, Vec2};
use std::ops::Range;

/// Dense cell grid over the bounding box of its points. See module docs.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    /// Cap on the cell side (`INFINITY` when built without one).
    vis: f64,
    /// The points in input order: the re-bin source `update` writes into.
    px: Vec<f64>,
    py: Vec<f64>,
    pp: Vec<u32>,
    /// `payload -> input slot`, when payloads are dense (enables `update`).
    slots: Option<Vec<u32>>,
    /// Bounding box of the points; its low corner is the grid origin.
    bounds: Rect,
    cell: f64,
    inv: f64,
    cols: usize,
    rows: usize,
    /// Row-major cell offsets into the binned columns (`cells + 1` long).
    starts: Vec<u32>,
    /// Cell of each input point (counting-sort scratch).
    cell_of: Vec<u32>,
    /// The points binned by cell.
    xs: Vec<f64>,
    ys: Vec<f64>,
    payloads: Vec<u32>,
}

/// Cell side, columns and rows for `n` points spanning `bounds`, under the
/// visibility cap `vis` (see the module docs).
fn shape(bounds: &Rect, n: usize, vis: f64) -> (f64, usize, usize) {
    let (w, h) = (bounds.width(), bounds.height());
    if n == 0 || !w.is_finite() || !h.is_finite() {
        return (1.0, 1, 1);
    }
    // About two points per cell; collinear points use the 1-D density.
    let mut cell = (2.0 * w * h / n as f64).sqrt();
    if cell <= 0.0 {
        cell = 2.0 * w.max(h) / n as f64;
    }
    if vis.is_finite() {
        cell = cell.clamp(vis / 4.0, vis);
    }
    if cell <= 0.0 {
        return (1.0, 1, 1);
    }
    let cap = (4 * n + 64) as f64;
    loop {
        let (cols, rows) = ((w / cell).floor() + 1.0, (h / cell).floor() + 1.0);
        if cols * rows <= cap {
            return (cell, cols as usize, rows as usize);
        }
        cell *= 2.0;
    }
}

/// Cell coordinate of `v` on an axis starting at `lo` with `n` cells.
/// Monotone in `v` (each rounding step is), which is all range probes need
/// for exactness; out-of-range values clamp to the edge cells.
#[inline]
fn axis_cell(v: f64, lo: f64, inv: f64, n: usize) -> usize {
    (((v - lo) * inv) as usize).min(n - 1)
}

impl UniformGrid {
    /// Build with the cell side capped by `vis`, the visibility bound of
    /// the probes to come: the derived side is clamped to `[vis/4, vis]`.
    pub fn with_cell(points: &[(Vec2, u32)], vis: f64) -> Self {
        assert!(vis > 0.0, "visibility cap must be positive");
        let mut grid = UniformGrid {
            vis,
            px: points.iter().map(|&(p, _)| p.x).collect(),
            py: points.iter().map(|&(p, _)| p.y).collect(),
            pp: points.iter().map(|&(_, payload)| payload).collect(),
            slots: dense_slots(points),
            bounds: Rect::EMPTY,
            cell: 1.0,
            inv: 1.0,
            cols: 1,
            rows: 1,
            starts: Vec::new(),
            cell_of: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            payloads: Vec::new(),
        };
        grid.rebin();
        grid
    }

    /// The derived cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    #[inline]
    fn col(&self, x: f64) -> usize {
        axis_cell(x, self.bounds.lo.x, self.inv, self.cols)
    }

    #[inline]
    fn row(&self, y: f64) -> usize {
        axis_cell(y, self.bounds.lo.y, self.inv, self.rows)
    }

    /// Storage range of cells `c0..=c1` of grid row `row`.
    #[inline]
    fn strip(&self, row: usize, c0: usize, c1: usize) -> Range<usize> {
        let base = row * self.cols;
        self.starts[base + c0] as usize..self.starts[base + c1 + 1] as usize
    }

    /// Re-derive bounds and shape, then counting-sort the input-order
    /// columns into the binned ones, reusing every buffer.
    fn rebin(&mut self) {
        let n = self.pp.len();
        self.bounds = self.px.iter().zip(&self.py).fold(Rect::EMPTY, |b, (&x, &y)| b.extended(Vec2::new(x, y)));
        (self.cell, self.cols, self.rows) = shape(&self.bounds, n, self.vis);
        self.inv = 1.0 / self.cell;
        let (lo, inv, cols, rows) = (self.bounds.lo, self.inv, self.cols, self.rows);
        let cells = cols * rows;
        // Counts land one slot to the right, so the prefix sum leaves
        // `starts[c]` at the first slot of cell `c`.
        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        self.cell_of.clear();
        for (&x, &y) in self.px.iter().zip(&self.py) {
            let c = axis_cell(y, lo.y, inv, rows) * cols + axis_cell(x, lo.x, inv, cols);
            self.cell_of.push(c as u32);
            self.starts[c + 1] += 1;
        }
        for c in 1..=cells {
            self.starts[c] += self.starts[c - 1];
        }
        self.xs.resize(n, 0.0);
        self.ys.resize(n, 0.0);
        self.payloads.resize(n, 0);
        for (i, &c) in self.cell_of.iter().enumerate() {
            let at = self.starts[c as usize] as usize;
            self.starts[c as usize] += 1;
            self.xs[at] = self.px[i];
            self.ys[at] = self.py[i];
            self.payloads[at] = self.pp[i];
        }
        // The scatter advanced each `starts[c]` to the first slot of `c+1`;
        // shift back by one cell.
        self.starts.copy_within(0..cells, 1);
        self.starts[0] = 0;
    }

    /// Visit the storage strip of every grid row `rect` overlaps. Visits
    /// nothing for an empty rect or one that misses the bounds.
    fn for_strips(&self, rect: &Rect, mut f: impl FnMut(Range<usize>)) {
        if self.pp.is_empty() || !rect.intersects(&self.bounds) {
            return;
        }
        let (c0, c1) = (self.col(rect.lo.x), self.col(rect.hi.x));
        for row in self.row(rect.lo.y)..=self.row(rect.hi.y) {
            f(self.strip(row, c0, c1));
        }
    }

    /// Visit the storage ranges of the cells on ring `r` around cell
    /// `(qc, qr)`, clipped to the grid: whole strips for the ring's top and
    /// bottom rows, single cells for its sides. Returns `true` when the
    /// ring's square covers the whole grid.
    fn for_ring(&self, qc: usize, qr: usize, r: usize, mut f: impl FnMut(Range<usize>)) -> bool {
        let (c0, c1) = (qc.saturating_sub(r), (qc + r).min(self.cols - 1));
        let (r0, r1) = (qr.saturating_sub(r), (qr + r).min(self.rows - 1));
        for row in r0..=r1 {
            if row + r == qr || row == qr + r {
                f(self.strip(row, c0, c1));
            } else {
                if qc >= r {
                    f(self.strip(row, qc - r, qc - r));
                }
                if qc + r < self.cols {
                    f(self.strip(row, qc + r, qc + r));
                }
            }
        }
        c0 == 0 && r0 == 0 && c1 == self.cols - 1 && r1 == self.rows - 1
    }

    /// Exact ring search: leave in `best` the canonical `(dist², payload)`
    /// first `k` points (unsorted) nearest to `q`, excluding `exclude`.
    /// Every point outside the square of ring `r` lies more than `r` cells
    /// from `q`'s cell on some axis, so once the `k`-th best is strictly
    /// closer than that (less a rounding margin far above any ulp error)
    /// no unvisited point can displace it — ties included.
    fn ring_search(&self, q: Vec2, k: usize, exclude: Option<u32>, best: &mut Vec<(f64, u32)>) {
        best.clear();
        if k == 0 || self.pp.is_empty() {
            return;
        }
        let (qc, qr) = (self.col(q.x), self.row(q.y));
        let spread = self.cell * (self.cols + self.rows) as f64
            + (q.x - self.bounds.lo.x).abs()
            + (q.y - self.bounds.lo.y).abs();
        with_dist2_scratch(|d2| {
            for r in 0.. {
                let covered = self.for_ring(qc, qr, r, |s| {
                    dist2(&self.xs[s.clone()], &self.ys[s.clone()], q.x, q.y, d2);
                    best.extend(
                        d2.iter()
                            .zip(&self.payloads[s])
                            .filter(|&(_, &payload)| Some(payload) != exclude)
                            .map(|(&d, &payload)| (d, payload)),
                    );
                });
                if best.len() > k {
                    best.select_nth_unstable_by(k - 1, knn_cmp);
                    best.truncate(k);
                }
                if covered {
                    return;
                }
                let reach = r as f64 * self.cell - 1e-9 * (r as f64 * self.cell + spread);
                if best.len() == k && reach > 0.0 {
                    let kth = best.iter().map(|&(d, _)| d).fold(f64::NEG_INFINITY, f64::max);
                    if kth < reach * reach {
                        return;
                    }
                }
            }
        });
    }
}

impl SpatialIndex for UniformGrid {
    /// Every probe sorts the points that pass, so emission is ascending by
    /// payload: a pure function of the matching point set, independent of
    /// update history and of the derived cell side.
    const RANGE_CANONICAL: bool = true;

    /// The batched filter streams the grid's own cell-ordered columns, one
    /// contiguous strip per grid row, through the lane kernel — no
    /// per-probe gather.
    const RANGE_BATCH_NATIVE: bool = true;

    fn build(points: &[(Vec2, u32)]) -> Self {
        UniformGrid::with_cell(points, f64::INFINITY)
    }

    fn range(&self, rect: &Rect, out: &mut Vec<u32>) {
        let from = out.len();
        self.for_strips(rect, |s| {
            for i in s {
                if rect.contains(Vec2::new(self.xs[i], self.ys[i])) {
                    out.push(self.payloads[i]);
                }
            }
        });
        out[from..].sort_unstable();
    }

    /// Native batched range: each strip's columns go through
    /// [`filter_rect`] directly into `out`, then the appended payloads are
    /// sorted — the same sequence [`SpatialIndex::range`] emits.
    fn range_batch(&self, rect: &Rect, out: &mut Vec<u32>) {
        let from = out.len();
        self.for_strips(rect, |s| filter_rect(&self.xs[s.clone()], &self.ys[s.clone()], &self.payloads[s], rect, out));
        out[from..].sort_unstable();
    }

    /// Nearest by the canonical `(dist², payload)` order: ties go to the
    /// lowest payload.
    fn nearest(&self, q: Vec2, exclude: Option<u32>) -> Option<u32> {
        with_knn_scratch(|best| {
            self.ring_search(q, 1, exclude, best);
            best.first().map(|&(_, payload)| payload)
        })
    }

    /// Exact ring search; squared distances run as a lane kernel over each
    /// visited range ([`dist2`], the per-element arithmetic of
    /// `Vec2::dist2`), then the canonical `(distance, payload)` selection.
    fn k_nearest_into(&self, q: Vec2, k: usize, exclude: Option<u32>, out: &mut Vec<u32>) {
        out.clear();
        with_knn_scratch(|best| {
            self.ring_search(q, k, exclude, best);
            finish_knn(best, k, out);
        });
    }

    fn update(&mut self, moved: &[(u32, Vec2)]) -> bool {
        let Some(slots) = &self.slots else { return false };
        for &(payload, p) in moved {
            match slots.get(payload as usize) {
                Some(&slot) if slot != u32::MAX => {
                    self.px[slot as usize] = p.x;
                    self.py[slot as usize] = p.y;
                }
                _ => return false,
            }
        }
        if !moved.is_empty() {
            self.rebin();
        }
        true
    }

    fn len(&self) -> usize {
        self.pp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ScanIndex;
    use brace_common::DetRng;

    fn random_points(n: usize, seed: u64) -> Vec<(Vec2, u32)> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n).map(|i| (Vec2::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0)), i as u32)).collect()
    }

    fn cells(grid: &UniformGrid) -> usize {
        grid.starts.len() - 1
    }

    /// The grid answers every probe exactly like the scan over the same
    /// points: range and batched range as the same ascending sequence, and
    /// k-NN / nearest under the canonical `(dist², payload)` order.
    fn assert_matches_scan(grid: &UniformGrid, pts: &[(Vec2, u32)], rects: &[Rect], queries: &[Vec2]) {
        let scan = ScanIndex::build(pts);
        for rect in rects {
            let (mut want, mut scalar, mut batched) = (Vec::new(), Vec::new(), Vec::new());
            scan.range(rect, &mut want);
            want.sort_unstable();
            grid.range(rect, &mut scalar);
            grid.range_batch(rect, &mut batched);
            assert_eq!(scalar, want, "range diverged from scan for {rect:?}");
            assert_eq!(batched, want, "range_batch diverged from scan for {rect:?}");
        }
        for &q in queries {
            for k in [1, 3, 8] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                grid.k_nearest_into(q, k, Some(0), &mut a);
                scan.k_nearest_into(q, k, Some(0), &mut b);
                assert_eq!(a, b, "k-NN (k = {k}) diverged from scan at {q:?}");
            }
            let mut first = Vec::new();
            scan.k_nearest_into(q, 1, None, &mut first);
            assert_eq!(grid.nearest(q, None), first.first().copied(), "nearest diverged at {q:?}");
        }
    }

    #[test]
    fn grid_range_matches_scan() {
        let pts = random_points(400, 11);
        let grid = UniformGrid::with_cell(&pts, 7.0);
        let scan = ScanIndex::build(&pts);
        let mut rng = DetRng::seed_from_u64(12);
        for _ in 0..50 {
            let c = Vec2::new(rng.range(-60.0, 60.0), rng.range(-60.0, 60.0));
            let rect = Rect::centered(c, rng.range(0.0, 25.0));
            let mut a = Vec::new();
            let mut b = Vec::new();
            grid.range(&rect, &mut a);
            scan.range(&rect, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn grid_nearest_matches_scan() {
        let pts = random_points(200, 13);
        let grid = UniformGrid::with_cell(&pts, 5.0);
        let scan = ScanIndex::build(&pts);
        let mut rng = DetRng::seed_from_u64(14);
        for _ in 0..100 {
            let q = Vec2::new(rng.range(-70.0, 70.0), rng.range(-70.0, 70.0));
            let a = grid.nearest(q, None).unwrap();
            let b = scan.nearest(q, None).unwrap();
            let da = pts[a as usize].0.dist2(q);
            let db = pts[b as usize].0.dist2(q);
            assert!((da - db).abs() < 1e-12, "grid {da} vs scan {db}");
        }
    }

    #[test]
    fn grid_handles_negative_coordinates() {
        let pts = vec![(Vec2::new(-10.5, -0.1), 0), (Vec2::new(-9.9, -0.2), 1)];
        let grid = UniformGrid::with_cell(&pts, 1.0);
        let mut out = Vec::new();
        grid.range(&Rect::from_bounds(-11.0, -10.0, -1.0, 0.0), &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn auto_cell_build_works() {
        let pts = random_points(100, 15);
        let grid = UniformGrid::build(&pts);
        assert_eq!(grid.len(), 100);
        assert!(grid.cell_size() > 0.0);
        let mut out = Vec::new();
        grid.range(&Rect::EVERYTHING.intersection(&Rect::from_bounds(-50.0, 50.0, -50.0, 50.0)), &mut out);
        assert_eq!(out.len(), 100);
    }

    /// The derived side targets about two points per cell and respects the
    /// visibility clamp `[vis/4, vis]`.
    #[test]
    fn derived_cell_side_tracks_density_within_the_visibility_clamp() {
        let pts = random_points(10_000, 16);
        let free = UniformGrid::build(&pts);
        let per_cell = pts.len() as f64 / cells(&free) as f64;
        assert!((1.0..=4.0).contains(&per_cell), "{per_cell} points per cell");
        assert_eq!(UniformGrid::with_cell(&pts, 1.0).cell_size(), 1.0, "side capped at vis");
        assert_eq!(UniformGrid::with_cell(&pts, 400.0).cell_size(), 100.0, "side raised to vis/4");
    }

    #[test]
    fn empty_grid() {
        let grid = UniformGrid::build(&[]);
        assert!(grid.is_empty());
        assert_eq!(grid.nearest(Vec2::ZERO, None), None);
        let mut out = vec![9];
        grid.k_nearest_into(Vec2::ZERO, 3, None, &mut out);
        assert!(out.is_empty());
        grid.range_batch(&Rect::EVERYTHING, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn nearest_with_exclusion() {
        let pts = vec![(Vec2::ZERO, 0), (Vec2::new(1.0, 0.0), 1)];
        let grid = UniformGrid::with_cell(&pts, 1.0);
        assert_eq!(grid.nearest(Vec2::new(0.1, 0.0), Some(0)), Some(1));
    }

    #[test]
    fn far_query_still_finds_nearest() {
        let pts = vec![(Vec2::new(1000.0, 1000.0), 7)];
        let grid = UniformGrid::with_cell(&pts, 1.0);
        assert_eq!(grid.nearest(Vec2::ZERO, None), Some(7));
    }

    /// The canonical-order guarantee itself: narrow probes (one strip per
    /// row), wide probes and probes past the bounds all emit payloads in
    /// globally ascending order, and the native `range_batch` emits the
    /// exact same sequence.
    #[test]
    fn grid_range_emits_ascending_payloads_on_every_path() {
        let pts = random_points(400, 21);
        let grid = UniformGrid::with_cell(&pts, 7.0);
        let mut rng = DetRng::seed_from_u64(22);
        let mut probes: Vec<Rect> = (0..40)
            .map(|_| {
                let c = Vec2::new(rng.range(-60.0, 60.0), rng.range(-60.0, 60.0));
                Rect::centered(c, rng.range(0.0, 14.0))
            })
            .collect();
        probes.push(Rect::centered(Vec2::ZERO, 40.0));
        probes.push(Rect::from_bounds(-1e9, 1e9, -1e9, 1e9));
        for rect in probes {
            let (mut scalar, mut batched) = (Vec::new(), Vec::new());
            grid.range(&rect, &mut scalar);
            grid.range_batch(&rect, &mut batched);
            assert!(scalar.windows(2).all(|w| w[0] < w[1]), "non-ascending emission for {rect:?}: {scalar:?}");
            assert_eq!(scalar, batched, "range_batch sequence diverged for {rect:?}");
        }
    }

    /// Ascending emission survives incremental updates that move points
    /// across cells, on the scalar and the batched path alike.
    #[test]
    fn grid_emission_stays_ascending_after_updates() {
        let pts = random_points(120, 23);
        let mut grid = UniformGrid::with_cell(&pts, 5.0);
        let mut rng = DetRng::seed_from_u64(24);
        for round in 0..10 {
            let moved: Vec<(u32, Vec2)> = (0..40)
                .map(|_| {
                    let payload = rng.range(0.0, 120.0) as u32 % 120;
                    (payload, Vec2::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0)))
                })
                .collect();
            assert!(grid.update(&moved));
            let rect = Rect::centered(Vec2::new(rng.range(-40.0, 40.0), rng.range(-40.0, 40.0)), 9.0);
            let (mut out, mut batched) = (Vec::new(), Vec::new());
            grid.range(&rect, &mut out);
            grid.range_batch(&rect, &mut batched);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "round {round}: non-ascending {out:?}");
            assert_eq!(out, batched, "round {round}: batched sequence diverged");
        }
    }

    /// Every agent funneled into one hotspot cell, then scattered back out:
    /// after each phase the maintained grid answers exactly like a fresh
    /// build over the moved points, on both the scalar and the batched path.
    #[test]
    fn rebin_survives_hotspot_collapse_and_scatter() {
        let pts = random_points(200, 31);
        let mut grid = UniformGrid::with_cell(&pts, 5.0);
        let mut current = pts.clone();
        let mut rng = DetRng::seed_from_u64(32);
        for phase in 0..6 {
            let collapse = phase % 2 == 0;
            let moved: Vec<(u32, Vec2)> = (0..200u32)
                .map(|payload| {
                    let p = if collapse {
                        Vec2::new(rng.range(0.0, 4.9), rng.range(0.0, 4.9))
                    } else {
                        Vec2::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0))
                    };
                    (payload, p)
                })
                .collect();
            assert!(grid.update(&moved));
            for &(payload, p) in &moved {
                current[payload as usize].0 = p;
            }
            let fresh = UniformGrid::with_cell(&current, 5.0);
            for _ in 0..20 {
                let c = Vec2::new(rng.range(-55.0, 55.0), rng.range(-55.0, 55.0));
                let rect = Rect::centered(c, rng.range(0.0, 12.0));
                let (mut inc, mut inc_b, mut ref_s) = (Vec::new(), Vec::new(), Vec::new());
                grid.range(&rect, &mut inc);
                grid.range_batch(&rect, &mut inc_b);
                fresh.range(&rect, &mut ref_s);
                assert_eq!(inc, ref_s, "phase {phase}: incremental != fresh for {rect:?}");
                assert_eq!(inc, inc_b, "phase {phase}: batched sequence diverged for {rect:?}");
            }
            assert_eq!(grid.len(), 200);
        }
    }

    /// Duplicate payloads disable `update` but every range path must still
    /// work and agree scalar ≡ batched as a value sequence.
    #[test]
    fn duplicate_payloads_still_query_correctly() {
        let mut pts = random_points(64, 51);
        for (i, p) in pts.iter_mut().enumerate() {
            p.1 = (i % 8) as u32; // heavy duplication
        }
        let mut grid = UniformGrid::with_cell(&pts, 5.0);
        assert!(!grid.update(&[(0, Vec2::ZERO)]), "duplicates cannot maintain in place");
        let mut rng = DetRng::seed_from_u64(52);
        for _ in 0..20 {
            let rect = Rect::centered(Vec2::new(rng.range(-40.0, 40.0), rng.range(-40.0, 40.0)), rng.range(0.0, 20.0));
            let (mut scalar, mut batched) = (Vec::new(), Vec::new());
            grid.range(&rect, &mut scalar);
            grid.range_batch(&rect, &mut batched);
            assert_eq!(scalar, batched, "duplicate-payload sequence diverged for {rect:?}");
        }
    }

    /// Zero-area bounds: every point at one spot collapses the grid to a
    /// single cell, with and without a visibility cap.
    #[test]
    fn coincident_points_match_scan() {
        let pts: Vec<(Vec2, u32)> = (0..50).map(|i| (Vec2::new(3.0, -2.0), i)).collect();
        let rects = [
            Rect::centered(Vec2::new(3.0, -2.0), 0.0),
            Rect::centered(Vec2::new(3.0, -2.0), 1.0),
            Rect::centered(Vec2::new(3.5, -2.0), 0.25),
        ];
        let queries = [Vec2::new(3.0, -2.0), Vec2::new(100.0, 100.0)];
        for grid in [UniformGrid::build(&pts), UniformGrid::with_cell(&pts, 2.0)] {
            assert_eq!(cells(&grid), 1);
            assert_matches_scan(&grid, &pts, &rects, &queries);
        }
    }

    /// One far outlier stretches the bounds; the cell cap must keep the
    /// grid at most `4n + 64` cells while every probe stays exact.
    #[test]
    fn far_outlier_engages_the_cell_cap() {
        let mut pts = random_points(300, 61);
        pts.push((Vec2::new(1e7, -1e7), 300));
        let grid = UniformGrid::with_cell(&pts, 1.0);
        assert!(cells(&grid) <= 4 * pts.len() + 64, "{} cells for {} points", cells(&grid), pts.len());
        assert!(grid.cell_size() > 1.0, "the cap must have doubled the side");
        let mut rng = DetRng::seed_from_u64(62);
        let mut rects: Vec<Rect> =
            (0..20).map(|_| Rect::centered(Vec2::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0)), 3.0)).collect();
        rects.push(Rect::centered(Vec2::new(1e7, -1e7), 1.0));
        let queries = [Vec2::ZERO, Vec2::new(1e7, -1e7), Vec2::new(5e6, -5e6)];
        assert_matches_scan(&grid, &pts, &rects, &queries);
    }

    /// Coordinates near ±1e12: cell arithmetic far from the origin.
    #[test]
    fn huge_coordinates_match_scan() {
        let mut rng = DetRng::seed_from_u64(71);
        for base in [1e12, -1e12] {
            let pts: Vec<(Vec2, u32)> = (0..200)
                .map(|i| (Vec2::new(base + rng.range(-500.0, 500.0), base + rng.range(-500.0, 500.0)), i))
                .collect();
            let rects: Vec<Rect> = (0..20)
                .map(|_| {
                    Rect::centered(Vec2::new(base + rng.range(-600.0, 600.0), base + rng.range(-600.0, 600.0)), 40.0)
                })
                .collect();
            let queries = [Vec2::new(base, base), Vec2::new(base + 700.0, base - 700.0), Vec2::ZERO];
            assert_matches_scan(&UniformGrid::with_cell(&pts, 30.0), &pts, &rects, &queries);
            assert_matches_scan(&UniformGrid::build(&pts), &pts, &rects, &queries);
        }
        let spread = [(Vec2::new(-1e12, -1e12), 0), (Vec2::new(1e12, 1e12), 1), (Vec2::new(0.0, 1e12), 2)];
        let rects = [Rect::centered(Vec2::new(1e12, 1e12), 1.0), Rect::from_bounds(-1e12, 0.0, -1e12, 1e12)];
        assert_matches_scan(&UniformGrid::with_cell(&spread, 1.0), &spread, &rects, &[Vec2::ZERO]);
    }

    /// Probes entirely outside the bounds, and empty rects, emit nothing.
    #[test]
    fn outside_and_empty_probes_emit_nothing() {
        let pts = random_points(100, 81);
        let grid = UniformGrid::with_cell(&pts, 4.0);
        for rect in [
            Rect::from_bounds(60.0, 70.0, -10.0, 10.0),
            Rect::from_bounds(-10.0, 10.0, -90.0, -60.0),
            Rect::from_bounds(-200.0, -100.0, 100.0, 200.0),
            Rect::from_bounds(5.0, 4.0, -10.0, 10.0),
            Rect::EMPTY,
        ] {
            let (mut scalar, mut batched) = (vec![7], vec![7]);
            grid.range(&rect, &mut scalar);
            grid.range_batch(&rect, &mut batched);
            assert_eq!((scalar, batched), (vec![7], vec![7]), "{rect:?} emitted candidates");
        }
    }

    /// A re-bin after every point has left the old bounds re-derives the
    /// bounds and answers like a fresh build and like the scan.
    #[test]
    fn rebin_after_every_point_left_the_old_bounds() {
        let mut pts = random_points(150, 91);
        let mut grid = UniformGrid::with_cell(&pts, 6.0);
        let moved: Vec<(u32, Vec2)> =
            pts.iter().map(|&(p, payload)| (payload, p * 0.1 + Vec2::new(500.0, -800.0))).collect();
        assert!(grid.update(&moved));
        for &(payload, p) in &moved {
            pts[payload as usize].0 = p;
        }
        assert!(grid.bounds.lo.x >= 495.0 && grid.bounds.hi.y <= -795.0, "bounds not re-derived: {:?}", grid.bounds);
        let mut rng = DetRng::seed_from_u64(92);
        let mut rects: Vec<Rect> = (0..20)
            .map(|_| Rect::centered(Vec2::new(rng.range(494.0, 506.0), rng.range(-806.0, -794.0)), rng.range(0.0, 3.0)))
            .collect();
        rects.push(Rect::centered(Vec2::ZERO, 60.0));
        let queries = [Vec2::new(500.0, -800.0), Vec2::ZERO];
        assert_matches_scan(&grid, &pts, &rects, &queries);
        let fresh = UniformGrid::with_cell(&pts, 6.0);
        for rect in &rects {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            grid.range_batch(rect, &mut a);
            fresh.range_batch(rect, &mut b);
            assert_eq!(a, b, "maintained vs fresh diverged for {rect:?}");
        }
    }
}
