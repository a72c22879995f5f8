//! Batched lane kernels over candidate columns.
//!
//! The state-effect pattern freezes every position for the whole query
//! phase, so the probe hot path — *"which of these candidate points lie in
//! this rectangle / within this squared distance?"* — is a pure map over
//! flat `f64` columns with no loop-carried dependence. That is exactly the
//! shape that vectorizes, and this module is the single home for the
//! kernels the indexes and the executor batch through.
//!
//! # Dispatch: one SIMD path, one portable path
//!
//! [`filter_rect`] — which every range probe runs through (the grid's
//! strips, the scan's columns, the KD-tree's gathered leaves) — picks its
//! implementation by runtime feature detection
//! ([`std::arch::is_x86_feature_detected`]), never by configuration:
//!
//! * **AVX-512 (F + VL), x86-64.** Eight points per step: masked loads
//!   (so the `len % 8` tail is one more masked step, not a scalar loop),
//!   four ordered-quiet mask compares, and one compress-store that packs
//!   the passing payloads into `out` in input order.
//! * **Portable.** A branch-free compaction: every payload is written to
//!   the next output slot and the output length advances by the
//!   containment bit, so no data-dependent branch sits in the loop.
//!
//! Both evaluate exactly `Rect::contains`'s predicate — closed bounds,
//! `>=`/`<=` that fail on NaN, ±0 equal — so the dispatch never affects
//! results, only speed. `tests` pins both against the naive loop at every
//! length 0..=17.
//!
//! # Why canonicalized candidate order makes vectorization order-safe
//!
//! Filtering kernels *select*, they never *combine*: the emitted candidate
//! subsequence preserves the input order, so a batched filter composed with
//! the indexes' canonical emission order ([`crate::SpatialIndex::RANGE_CANONICAL`])
//! feeds the behavior's effect aggregation in exactly the order the scalar
//! path would have. Reduction-shaped model kernels (fish forces, traffic
//! gap scans) keep the same guarantee by splitting into a vectorized
//! per-candidate map (distances, directions, gaps — independent elements,
//! each the same IEEE-754 operation sequence as the scalar helper: no FMA
//! contraction, no reassociation) followed by an ordered scalar fold over
//! the mapped columns: the fold runs in canonical candidate order, so
//! float aggregation is bit-identical to the per-row path by construction.
//! `tests/properties.rs` proves the equivalence end to end (`kernel_*`
//! conformance properties).

use brace_common::Rect;

/// Reference lane width of the model kernels (fish forces, traffic gaps,
/// predator bites), whose tail tests straddle it: 4 × `f64`, one 256-bit
/// register. [`filter_rect`] does not chunk by it (see the module docs).
pub const LANES: usize = 4;

/// Reusable per-thread gather columns for batched range filtering: indexes
/// without native SoA storage gather candidate points (the KD-tree's
/// boundary-leaf slices) into these columns, then run [`filter_rect`] over
/// them. One scratch per thread keeps `SpatialIndex::range_batch`
/// allocation-free after warm-up. The scan and the grid never gather —
/// they filter their own columns in place (`RANGE_BATCH_NATIVE`).
#[derive(Debug, Default)]
pub struct GatherScratch {
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub payloads: Vec<u32>,
}

impl GatherScratch {
    /// Drop gathered candidates, keeping the allocations.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.payloads.clear();
    }

    /// Append one candidate point.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64, payload: u32) {
        self.xs.push(x);
        self.ys.push(y);
        self.payloads.push(payload);
    }

    /// Number of gathered candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }
}

brace_common::tls_scratch!(
    /// Run `f` with the thread's reusable [`GatherScratch`].
    pub fn with_gather_scratch -> GatherScratch
);

/// Append `payloads[i]` to `out` for every `i` with `(xs[i], ys[i])` inside
/// the closed rectangle `rect`, preserving input order and keeping whatever
/// `out` already holds. Bit-identical to the scalar `Rect::contains` loop
/// for every input on either dispatch path (see the module docs); an empty
/// `rect` emits nothing, exactly like `contains`.
///
/// # Panics
///
/// If `xs`, `ys` and `payloads` differ in length. The SIMD path reads all
/// three columns up to `xs.len()`, so the check is unconditional.
pub fn filter_rect(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect, out: &mut Vec<u32>) {
    assert!(
        xs.len() == ys.len() && xs.len() == payloads.len(),
        "filter_rect columns must be parallel: xs {}, ys {}, payloads {}",
        xs.len(),
        ys.len(),
        payloads.len()
    );
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        // SAFETY: AVX-512F and AVX-512VL were both detected at runtime just
        // above, and the assert above makes the three columns equally long.
        unsafe { filter_rect_avx512(xs, ys, payloads, rect, out) };
        return;
    }
    filter_rect_portable(xs, ys, payloads, rect, out);
}

/// Whether this CPU runs [`filter_rect`]'s AVX-512 path (F and VL).
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("avx512vl")
}

/// Portable form of [`filter_rect`]: a branch-free compaction. Every
/// payload is stored into the next free output slot and the output length
/// advances by the containment bit, so a rejected point is simply
/// overwritten by the next one. `&` (not `&&`) keeps the four compares
/// free of short-circuit branches.
pub(crate) fn filter_rect_portable(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect, out: &mut Vec<u32>) {
    let (lox, hix, loy, hiy) = (rect.lo.x, rect.hi.x, rect.lo.y, rect.hi.y);
    let base = out.len();
    out.resize(base + payloads.len(), 0);
    let dst = &mut out[base..];
    let mut len = 0;
    for ((&x, &y), &p) in xs.iter().zip(ys).zip(payloads) {
        dst[len] = p;
        len += ((x >= lox) & (x <= hix) & (y >= loy) & (y <= hiy)) as usize;
    }
    out.truncate(base + len);
}

/// AVX-512 form of [`filter_rect`], eight points per step (the tail step
/// masks its loads). `_CMP_GE_OQ`/`_CMP_LE_OQ` are the ordered-quiet
/// `>=`/`<=`, so NaN fails and `-0.0 == +0.0`, exactly as in scalar code.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512VL, and `ys` and `payloads`
/// must be at least `xs.len()` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
unsafe fn filter_rect_avx512(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect, out: &mut Vec<u32>) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let lox = _mm512_set1_pd(rect.lo.x);
    let hix = _mm512_set1_pd(rect.hi.x);
    let loy = _mm512_set1_pd(rect.lo.y);
    let hiy = _mm512_set1_pd(rect.hi.y);
    out.reserve(n);
    let base = out.len();
    let mut len = 0;
    let mut i = 0;
    while i < n {
        let live: __mmask8 = if n - i >= 8 { 0xFF } else { (1u8 << (n - i)) - 1 };
        // SAFETY: `live` only enables lanes `i..min(i + 8, n)`, inside all
        // three columns (the caller guarantees their lengths). Masked-off
        // lanes are never read: AVX-512 suppresses faults on them, so the
        // tail step may straddle the end of an allocation. The store writes
        // `popcount(pass) <= n - i` payloads starting at `base + len`, and
        // `len <= i`, so every written slot is below `base + n`, inside the
        // capacity reserved above.
        unsafe {
            let x = _mm512_maskz_loadu_pd(live, xs.as_ptr().add(i));
            let y = _mm512_maskz_loadu_pd(live, ys.as_ptr().add(i));
            let in_x = _mm512_mask_cmp_pd_mask::<_CMP_GE_OQ>(live, x, lox) & _mm512_cmp_pd_mask::<_CMP_LE_OQ>(x, hix);
            let in_y = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(y, loy) & _mm512_cmp_pd_mask::<_CMP_LE_OQ>(y, hiy);
            let pass = in_x & in_y;
            let p = _mm256_maskz_loadu_epi32(live, payloads.as_ptr().add(i).cast());
            _mm256_mask_compressstoreu_epi32(out.as_mut_ptr().add(base + len).cast(), pass, p);
            len += pass.count_ones() as usize;
        }
        i += 8;
    }
    // SAFETY: the first `len` slots after `base` were initialized by the
    // compress-stores above, and `base + len <= base + n` is within capacity.
    unsafe { out.set_len(base + len) };
}

/// Write the squared Euclidean distance from `(qx, qy)` to every
/// `(xs[i], ys[i])` into `out` (cleared and resized to the input length).
/// Each element is `dx*dx + dy*dy` — the exact operation sequence of
/// `Vec2::dist2` — so batched k-NN gathering aggregates the same bits the
/// per-point path would.
pub fn dist2(xs: &[f64], ys: &[f64], qx: f64, qy: f64, out: &mut Vec<f64>) {
    debug_assert_eq!(xs.len(), ys.len(), "coordinate columns must be parallel");
    out.clear();
    out.extend(xs.iter().zip(ys).map(|(&x, &y)| {
        let (dx, dy) = (x - qx, y - qy);
        dx * dx + dy * dy
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use brace_common::{DetRng, Vec2};

    fn naive_filter(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        for i in 0..xs.len() {
            if rect.contains(Vec2::new(xs[i], ys[i])) {
                out.push(payloads[i]);
            }
        }
        out
    }

    fn columns(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<u32>) {
        let mut rng = DetRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.range(-10.0, 10.0)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.range(-10.0, 10.0)).collect();
        let pls: Vec<u32> = (0..n as u32).collect();
        (xs, ys, pls)
    }

    /// Candidate counts of 0, 1, LANES−1, LANES, LANES+1 and 2·LANES−1
    /// through the dispatched path and the portable one, against the naive
    /// per-element loop.
    #[test]
    fn filter_rect_tail_counts_match_naive() {
        let rect = Rect::from_bounds(-5.0, 5.0, -5.0, 5.0);
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1] {
            let (xs, ys, pls) = columns(n, n as u64 + 7);
            let mut got = Vec::new();
            filter_rect(&xs, &ys, &pls, &rect, &mut got);
            assert_eq!(got, naive_filter(&xs, &ys, &pls, &rect), "count {n}");
            // The portable path must agree with whatever `filter_rect`
            // dispatched to (the AVX-512 path on x86-64 with AVX-512F/VL).
            let mut lanes = Vec::new();
            filter_rect_portable(&xs, &ys, &pls, &rect, &mut lanes);
            assert_eq!(lanes, got, "lane/arch dispatch divergence at count {n}");
        }
    }

    #[test]
    fn filter_rect_preserves_input_order() {
        let (xs, ys, pls) = columns(97, 3);
        let rect = Rect::from_bounds(-4.0, 9.0, -8.0, 3.0);
        let mut got = Vec::new();
        filter_rect(&xs, &ys, &pls, &rect, &mut got);
        assert_eq!(got, naive_filter(&xs, &ys, &pls, &rect));
        // Emission preserves input order (payloads were assigned in order).
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn filter_rect_boundary_and_empty_rect() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [0.0; 5];
        let pls = [0, 1, 2, 3, 4];
        // Closed containment: both boundary points included.
        let mut out = Vec::new();
        filter_rect(&xs, &ys, &pls, &Rect::from_bounds(2.0, 4.0, 0.0, 0.0), &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        // Empty rectangle (lo > hi) admits nothing — same as Rect::contains.
        out.clear();
        filter_rect(&xs, &ys, &pls, &Rect::EMPTY, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn filter_rect_denormal_and_signed_zero_positions() {
        let tiny = f64::MIN_POSITIVE; // smallest normal
        let denormal = f64::from_bits(1); // smallest subnormal
        let xs = [0.0, -0.0, denormal, -denormal, tiny, 1.0, -1.0];
        let ys = [denormal, 0.0, -0.0, tiny, -tiny, 0.0, 0.0];
        let pls: Vec<u32> = (0..xs.len() as u32).collect();
        let rect = Rect::from_bounds(-0.0, tiny, -tiny, tiny);
        let mut got = Vec::new();
        filter_rect(&xs, &ys, &pls, &rect, &mut got);
        assert_eq!(got, naive_filter(&xs, &ys, &pls, &rect));
        // ±0.0 compare equal: both zero-x points are inside [-0.0, tiny].
        assert!(got.contains(&0) && got.contains(&1));
    }

    /// A filter implementation under test: the portable one, and the
    /// AVX-512 one where the host has it.
    type FilterFn = fn(&[f64], &[f64], &[u32], &Rect, &mut Vec<u32>);

    /// Every filter path this host can run, by name. The AVX-512 path is
    /// skipped, with a printed note, on hosts without AVX-512F/VL, so the
    /// portable path is tested everywhere and the SIMD one wherever it can
    /// be dispatched to.
    fn filter_paths() -> Vec<(&'static str, FilterFn)> {
        let mut paths: Vec<(&'static str, FilterFn)> = vec![("portable", filter_rect_portable)];
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            paths.push(("avx512", |xs, ys, pls, rect, out| {
                assert!(ys.len() == xs.len() && pls.len() == xs.len());
                // SAFETY: AVX-512F/VL were detected above and the columns
                // were just checked to be parallel.
                unsafe { filter_rect_avx512(xs, ys, pls, rect, out) }
            }));
        }
        if paths.len() == 1 {
            println!("note: host lacks AVX-512F/VL; only the portable filter path is tested");
        }
        paths
    }

    /// Both paths at every length 0..=17 — so the masked AVX-512 tail runs
    /// at 7, 8, 9, 15, 16 and 17 points — appending behind a non-empty
    /// prefix that must survive untouched.
    #[test]
    fn filter_paths_match_naive_at_every_length() {
        let rect = Rect::from_bounds(-5.0, 5.0, -5.0, 5.0);
        let prefix = [u32::MAX, 7, 0];
        for (name, filter) in filter_paths() {
            for n in 0..=17 {
                let (xs, ys, pls) = columns(n, n as u64 + 101);
                let mut got = prefix.to_vec();
                filter(&xs, &ys, &pls, &rect, &mut got);
                let mut want = prefix.to_vec();
                want.extend(naive_filter(&xs, &ys, &pls, &rect));
                assert_eq!(got, want, "{name} path, length {n}");
            }
        }
    }

    /// Both paths on the predicate's edge cases: closed boundaries, an
    /// empty rect, NaN coordinates (never inside), ±0 (equal) and
    /// subnormals, spread over 19 points so they land in full and tail
    /// steps alike.
    #[test]
    fn filter_paths_match_naive_on_edge_coordinates() {
        let denormal = f64::from_bits(1);
        let nan = f64::NAN;
        let pts = [
            (2.0, -1.0), // closed corners of rect 0
            (4.0, 1.0),
            (1.9999999999999998, 0.0), // one ulp outside
            (4.000000000000001, 0.0),
            (nan, 0.0),
            (3.0, nan),
            (-0.0, 0.0), // ±0 on the zero rect
            (0.0, -0.0),
            (denormal, 0.0),
            (-denormal, 0.0),
            (3.0, 1.0000000000000002),
            (nan, nan),
            (2.0, -0.0),
            (4.0, denormal),
            (f64::INFINITY, 0.0),
            (3.0, -1.0),
            (-nan, 0.0),
            (2.5, -denormal),
            (4.0, 1.0),
        ];
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let pls: Vec<u32> = (0..xs.len() as u32).map(|i| i * 3 + 1).collect();
        let rects = [
            Rect::from_bounds(2.0, 4.0, -1.0, 1.0),
            Rect::from_bounds(-0.0, 0.0, -0.0, 0.0),
            Rect::from_bounds(-denormal, denormal, -denormal, denormal),
            Rect::from_bounds(3.0, 3.0, -1.0, 1.0),
            Rect::EMPTY,
            Rect::from_bounds(f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY),
        ];
        for (name, filter) in filter_paths() {
            for (r, rect) in rects.iter().enumerate() {
                for n in [7, 8, 9, 15, 16, 17, 19] {
                    let mut got = vec![42];
                    filter(&xs[..n], &ys[..n], &pls[..n], rect, &mut got);
                    let mut want = vec![42];
                    want.extend(naive_filter(&xs[..n], &ys[..n], &pls[..n], rect));
                    assert_eq!(got, want, "{name} path, rect {r}, length {n}");
                }
            }
        }
        // Spot checks of the predicate itself, on the full column.
        let mut closed = Vec::new();
        filter_rect(&xs, &ys, &pls, &rects[0], &mut closed);
        assert!(closed.contains(&pls[0]) && closed.contains(&pls[1]), "closed bounds admit both corners");
        assert!(!closed.contains(&pls[2]) && !closed.contains(&pls[3]), "one ulp outside is outside");
        assert!(!closed.contains(&pls[4]) && !closed.contains(&pls[5]), "NaN is never inside");
        let mut zero = Vec::new();
        filter_rect(&xs, &ys, &pls, &rects[1], &mut zero);
        assert_eq!(zero, vec![pls[6], pls[7]], "±0 compare equal");
    }

    /// Columns of different lengths are a caller bug that the SIMD path
    /// would turn into an out-of-bounds read; it panics in every build.
    #[test]
    #[should_panic(expected = "filter_rect columns must be parallel")]
    fn filter_rect_rejects_mismatched_columns() {
        let xs = [0.0; 9];
        let ys = [0.0; 3];
        let pls = [0u32; 9];
        filter_rect(&xs, &ys, &pls, &Rect::from_bounds(-1.0, 1.0, -1.0, 1.0), &mut Vec::new());
    }

    #[test]
    fn dist2_matches_per_point_ops_at_tail_counts() {
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1] {
            let (xs, ys, _) = columns(n, n as u64 + 31);
            let q = Vec2::new(0.25, -3.5);
            let mut got = Vec::new();
            dist2(&xs, &ys, q.x, q.y, &mut got);
            assert_eq!(got.len(), n);
            for i in 0..n {
                let want = Vec2::new(xs[i], ys[i]).dist2(q);
                assert_eq!(got[i].to_bits(), want.to_bits(), "count {n} element {i}");
            }
        }
    }

    #[test]
    fn gather_scratch_reuses_and_clears() {
        with_gather_scratch(|s| {
            s.clear();
            assert!(s.is_empty());
            s.push(1.0, 2.0, 7);
            assert_eq!(s.len(), 1);
        });
        with_gather_scratch(|s| {
            s.clear();
            assert!(s.is_empty(), "clear must drop candidates across uses");
        });
    }
}
