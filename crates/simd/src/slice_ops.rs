//! Whole-slice kernels in scalar-reference, emulated-lane, and hardware
//! forms.
//!
//! Every primitive the MI estimators use appears three ways:
//!
//! * `*_scalar` — a plain element-at-a-time loop. These are the paper's
//!   "vectorization disabled" baseline (experiment R4) and double as the
//!   reference implementations the laned forms are tested against.
//! * `*_emulated` — processes [`F32x16::LANES`] elements per step with a
//!   masked tail, accumulating into lane registers and reducing once at
//!   the end with the deterministic pairwise tree. Portable: plain arrays
//!   the optimizer may or may not vectorize.
//! * the undecorated public form — routes through the runtime
//!   [dispatch table](crate::dispatch) to real AVX-512F or AVX2+FMA
//!   intrinsics when the CPU has them (the `x86` module), falling back to
//!   the emulated form otherwise. `GNET_SIMD_FORCE` or
//!   [`crate::dispatch::force_backend`] override the choice.
//!
//! The laned forms intentionally mirror how the paper restructures the
//! B-spline accumulation: a single dense FMA stream, no per-element
//! branches, reductions deferred to the end. All backends share the same
//! accumulation shape and pairwise reduction tree, so `sum`/`dot`/`axpy`/
//! `scale` agree *bitwise* across backends on FMA hardware; `xlogx_sum`
//! agrees to a few ULP (vectorized `ln`).

use crate::dispatch;
use crate::joint::{BinWindows, PermRow, RowSource, BATCH};
use crate::lanes::F32x16;

/// Width used by the laned slice kernels.
pub const W: usize = F32x16::LANES;

// ---------------------------------------------------------------------------
// Scalar reference kernels ("no vectorization" baseline)
// ---------------------------------------------------------------------------

/// Sum of all elements (scalar reference).
pub fn sum_scalar(x: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for &v in x {
        acc += v;
    }
    acc
}

/// Dot product of two equal-length slices (scalar reference).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot_scalar(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0f32;
    for i in 0..x.len() {
        acc += x[i] * y[i];
    }
    acc
}

/// `y[i] += a * x[i]` (scalar reference).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy_scalar(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for i in 0..x.len() {
        y[i] += a * x[i];
    }
}

/// `Σ x_i ln x_i` with `0 ln 0 = 0` (scalar reference) — the inner sum of a
/// plug-in entropy estimate.
pub fn xlogx_sum_scalar(x: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for &v in x {
        if v > 0.0 {
            acc += v * v.ln();
        }
    }
    acc
}

/// Multiply every element by `a` in place (scalar reference).
pub fn scale_scalar(a: f32, x: &mut [f32]) {
    for v in x {
        *v *= a;
    }
}

// ---------------------------------------------------------------------------
// Dispatched kernels (the public API the estimators call)
// ---------------------------------------------------------------------------

/// Sum of all elements using 16-wide lanes with a masked tail.
///
/// Dispatches to the fastest backend the CPU supports (see
/// [`crate::dispatch`]).
pub fn sum(x: &[f32]) -> f32 {
    (dispatch::table().sum)(x)
}

/// Dot product using 16-wide FMA lanes with a masked tail.
///
/// ```
/// let x = vec![1.0f32; 20];
/// let y: Vec<f32> = (0..20).map(|i| i as f32).collect();
/// assert_eq!(gnet_simd::slice_ops::dot(&x, &y), 190.0);
/// ```
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    (dispatch::table().dot)(x, y)
}

/// `y[i] += a * x[i]` using 16-wide FMA lanes.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    (dispatch::table().axpy)(a, x, y)
}

/// `Σ x_i ln x_i` with `0 ln 0 = 0`, 16 lanes at a time.
///
/// The zero-padded tail load is safe here because padding lanes contribute
/// `0 ln 0 = 0` under the entropy convention. Hardware backends vectorize
/// `ln` and agree with the emulated/scalar forms to a few ULP per element
/// (they also treat positive *denormal* inputs as zero, a < 1e-36-nats
/// difference no real count grid can produce).
pub fn xlogx_sum(x: &[f32]) -> f32 {
    (dispatch::table().xlogx_sum)(x)
}

/// Multiply every element by `a` in place, 16 lanes at a time.
pub fn scale(a: f32, x: &mut [f32]) {
    (dispatch::table().scale)(a, x)
}

/// The paper's restructured joint-histogram accumulation on the dense
/// 16-lane layout: for each sample `s`, add `weights[s*k + i] · y_rows[s]`
/// (or `y_rows[perm[s]]` when a permutation is given) into the 16-float
/// grid row `first_bins[s] + i`, for `i in 0..k`.
///
/// One call performs `m·k` contiguous row FMAs — exactly one 512-bit FMA
/// each on AVX-512 — replacing the scalar kernel's `m·k²` scattered
/// multiply-adds. This raw-slice entry checks every index on each call
/// and then runs the one-grid case of [`joint_accumulate_w16_batch`].
///
/// # Panics
/// Panics if `grid` or `y_rows` is not a multiple of 16 long, if
/// `weights.len() != first_bins.len() * k`, if `k` is 0 or exceeds 16, if
/// any `first_bins[s] + k` exceeds the grid's row count, if `perm` (when
/// given) has the wrong length or an out-of-range index, or (without
/// `perm`) if `y_rows` has fewer rows than there are samples.
pub fn joint_accumulate_w16(
    grid: &mut [f32],
    first_bins: &[u16],
    weights: &[f32],
    k: usize,
    y_rows: &[f32],
    perm: Option<&[u32]>,
) {
    assert_eq!(
        grid.len() % W,
        0,
        "joint_accumulate_w16: grid not row-padded"
    );
    let x = BinWindows::new(first_bins, weights, k, grid.len() / W);
    let source = match perm {
        None => RowSource::Identity,
        Some(p) => {
            assert_eq!(p.len(), first_bins.len(), "permutation length mismatch");
            RowSource::Permuted(PermRow::new(p, y_rows.len() / W))
        }
    };
    joint_accumulate_w16_batch(grid, &x, y_rows, &[source]);
}

/// [`joint_accumulate_w16`] into `sources.len()` grids at once (at most
/// [`BATCH`]): grid `b` is `grids[b*rows*16..(b+1)*rows*16]` and pairs
/// sample `s` with `y` row `s` or `perm[s]` as `sources[b]` says. One
/// pass over `x`'s samples feeds every grid, so each sample's first bin
/// and weights are loaded once per batch. Every grid keeps the one-grid
/// summation order (samples, then weights, one FMA each), so each is
/// bit-identical to a [`joint_accumulate_w16`] call.
///
/// The index bounds come with the arguments' types ([`BinWindows`],
/// [`PermRow`]), so a call checks only O(1) shapes per grid.
///
/// # Panics
/// Panics if `sources` is empty or longer than [`BATCH`], if `grids` is
/// not `sources.len()` grids of `x.rows()` 16-float rows, if `y_rows` is
/// not a multiple of 16 long, or if a source does not fit `x` and
/// `y_rows` (wrong length, or more rows than `y_rows` holds).
pub fn joint_accumulate_w16_batch(
    grids: &mut [f32],
    x: &BinWindows<'_>,
    y_rows: &[f32],
    sources: &[RowSource<'_>],
) {
    (dispatch::table().joint_accumulate_w16_batch)(grids, x, y_rows, sources)
}

/// O(1)-per-grid shape checks shared by every batched backend. Together
/// with the proofs [`BinWindows`] and [`PermRow`] carry, they bound every
/// row the hardware backends touch through raw pointers.
pub(crate) fn check_joint_batch(
    grids: &[f32],
    x: &BinWindows<'_>,
    y_rows: &[f32],
    sources: &[RowSource<'_>],
) {
    assert!(
        (1..=BATCH).contains(&sources.len()),
        "joint_accumulate_w16: {} grids outside 1..={BATCH}",
        sources.len()
    );
    assert_eq!(
        grids.len(),
        sources.len() * x.rows() * W,
        "joint_accumulate_w16: grid batch shape"
    );
    assert_eq!(
        y_rows.len() % W,
        0,
        "joint_accumulate_w16: y_rows not row-padded"
    );
    let y_count = y_rows.len() / W;
    for source in sources {
        match *source {
            RowSource::Identity => assert!(
                y_count >= x.samples(),
                "joint_accumulate_w16: too few y rows"
            ),
            RowSource::Permuted(p) => {
                assert_eq!(p.len(), x.samples(), "permutation length mismatch");
                assert!(
                    p.rows() <= y_count,
                    "joint_accumulate_w16: perm index out of range"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Emulated laned kernels (portable fallback backend)
// ---------------------------------------------------------------------------

/// Sum of all elements using 16-wide lanes with a masked tail (portable
/// emulated backend).
pub fn sum_emulated(x: &[f32]) -> f32 {
    let mut acc = F32x16::zero();
    let chunks = x.len() / W;
    for c in 0..chunks {
        acc += F32x16::from_slice(&x[c * W..]);
    }
    let tail = &x[chunks * W..];
    if !tail.is_empty() {
        acc += F32x16::from_slice_padded(tail);
    }
    acc.reduce_add()
}

/// Dot product using 16-wide FMA lanes with a masked tail (portable
/// emulated backend).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot_emulated(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = F32x16::zero();
    let chunks = x.len() / W;
    for c in 0..chunks {
        let xv = F32x16::from_slice(&x[c * W..]);
        let yv = F32x16::from_slice(&y[c * W..]);
        acc = xv.mul_add(yv, acc);
    }
    let tail_at = chunks * W;
    if tail_at < x.len() {
        let xv = F32x16::from_slice_padded(&x[tail_at..]);
        let yv = F32x16::from_slice_padded(&y[tail_at..]);
        acc = xv.mul_add(yv, acc);
    }
    acc.reduce_add()
}

/// `y[i] += a * x[i]` using 16-wide FMA lanes (portable emulated backend).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy_emulated(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let av = F32x16::splat(a);
    let chunks = x.len() / W;
    for c in 0..chunks {
        let xv = F32x16::from_slice(&x[c * W..]);
        let yv = F32x16::from_slice(&y[c * W..]);
        xv.mul_add(av, yv).write_to_slice(&mut y[c * W..]);
    }
    for i in chunks * W..x.len() {
        y[i] = x[i].mul_add(a, y[i]);
    }
}

/// `Σ x_i ln x_i` with `0 ln 0 = 0`, 16 lanes at a time (portable emulated
/// backend).
///
/// The zero-padded tail load is safe here because padding lanes contribute
/// `0 ln 0 = 0` under the entropy convention.
pub fn xlogx_sum_emulated(x: &[f32]) -> f32 {
    let mut acc = F32x16::zero();
    let chunks = x.len() / W;
    for c in 0..chunks {
        acc += F32x16::from_slice(&x[c * W..]).xlogx();
    }
    let tail = &x[chunks * W..];
    if !tail.is_empty() {
        acc += F32x16::from_slice_padded(tail).xlogx();
    }
    acc.reduce_add()
}

/// Multiply every element by `a` in place, 16 lanes at a time (portable
/// emulated backend).
pub fn scale_emulated(a: f32, x: &mut [f32]) {
    let av = F32x16::splat(a);
    let chunks = x.len() / W;
    for c in 0..chunks {
        let xv = F32x16::from_slice(&x[c * W..]);
        (xv * av).write_to_slice(&mut x[c * W..]);
    }
    for v in &mut x[chunks * W..] {
        *v *= a;
    }
}

/// Portable emulated backend of [`joint_accumulate_w16_batch`]: the dense
/// row FMAs run on [`F32x16`] values loaded from and stored back to the
/// grid rows. Same per-cell operation order as the hardware backends, so
/// results agree bitwise on FMA hosts.
pub fn joint_accumulate_w16_batch_emulated(
    grids: &mut [f32],
    x: &BinWindows<'_>,
    y_rows: &[f32],
    sources: &[RowSource<'_>],
) {
    check_joint_batch(grids, x, y_rows, sources);
    let k = x.order();
    let grid_len = x.rows() * W;
    let mut y = [F32x16::zero(); BATCH];
    for (s, &fb) in x.first_bins().iter().enumerate() {
        for (yb, source) in y.iter_mut().zip(sources) {
            let ys = match *source {
                RowSource::Identity => s,
                RowSource::Permuted(p) => p.as_slice()[s] as usize, // cast-ok: u32 to usize widens losslessly
            };
            *yb = F32x16::from_slice(&y_rows[ys * W..]);
        }
        let fx = fb as usize; // cast-ok: u16 to usize widens losslessly
        for (i, &w) in x.weights()[s * k..s * k + k].iter().enumerate() {
            let wv = F32x16::splat(w);
            for (grid, yb) in grids.chunks_exact_mut(grid_len).zip(&y) {
                let row = &mut grid[(fx + i) * W..(fx + i + 1) * W];
                yb.mul_add(wv, F32x16::from_slice(row)).write_to_slice(row);
            }
        }
    }
}

/// Rank-4 outer-product accumulation used by the B-spline joint histogram:
/// for one sample with row weights `wx[0..k]` at bin `bx` and column weights
/// `wy[0..k]` at bin `by`, add `wx[i] * wy[j]` into the dense `b × b` grid.
///
/// `k` is the spline order (≤ 8 supported) and `stride` the row length of
/// `grid`. This is the scalar-per-sample form; the vectorized estimator in
/// `gnet-mi` instead restructures the loop so that lanes run across samples.
///
/// # Panics
/// Panics (in debug builds) on out-of-bounds bin indices.
#[inline]
pub fn outer_accumulate(
    grid: &mut [f32],
    stride: usize,
    bx: usize,
    wx: &[f32],
    by: usize,
    wy: &[f32],
) {
    for (i, &wxi) in wx.iter().enumerate() {
        let row = (bx + i) * stride + by;
        let dst = &mut grid[row..row + wy.len()];
        for (j, &wyj) in wy.iter().enumerate() {
            dst[j] = wxi.mul_add(wyj, dst[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f32, b: f32, tol: f32) -> bool {
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() <= tol * scale
    }

    #[test]
    fn sum_empty_is_zero() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum_scalar(&[]), 0.0);
    }

    #[test]
    fn sum_matches_scalar_on_non_multiple_length() {
        let x: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        assert!(close(sum(&x), sum_scalar(&x), 1e-6));
    }

    #[test]
    fn dot_basic() {
        let x = vec![1.0f32; 33];
        let y: Vec<f32> = (0..33).map(|i| i as f32).collect();
        assert_eq!(dot(&x, &y), (0..33).sum::<i32>() as f32);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_matches_scalar() {
        let x: Vec<f32> = (0..21).map(|i| i as f32 * 0.25).collect();
        let mut y1 = vec![1.0f32; 21];
        let mut y2 = y1.clone();
        axpy(2.5, &x, &mut y1);
        axpy_scalar(2.5, &x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!(close(*a, *b, 1e-6));
        }
    }

    #[test]
    fn xlogx_sum_of_uniform_distribution() {
        // H = -Σ p ln p = ln 8 for uniform over 8 outcomes.
        let p = vec![0.125f32; 8];
        let h = -xlogx_sum(&p);
        assert!(close(h, 8.0f32.ln(), 1e-6));
        assert!(close(-xlogx_sum_scalar(&p), 8.0f32.ln(), 1e-6));
    }

    #[test]
    fn xlogx_sum_ignores_zeros() {
        let mut p = vec![0.0f32; 40];
        p[3] = 0.5;
        p[29] = 0.5;
        assert!(close(xlogx_sum(&p), 2.0 * 0.5 * 0.5f32.ln(), 1e-6));
    }

    #[test]
    fn scale_matches_scalar() {
        let mut a: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let mut b = a.clone();
        scale(0.5, &mut a);
        scale_scalar(0.5, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn outer_accumulate_places_weights() {
        let b = 6;
        let mut grid = vec![0.0f32; b * b];
        outer_accumulate(&mut grid, b, 1, &[0.25, 0.5, 0.25], 2, &[0.5, 0.5, 0.0]);
        assert_eq!(grid[b + 2], 0.125);
        assert_eq!(grid[2 * b + 3], 0.25);
        assert_eq!(grid[3 * b + 2], 0.125);
        // Total mass added = (Σwx)(Σwy) = 1.0 * 1.0.
        let total: f32 = grid.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_sum_matches_scalar(x in proptest::collection::vec(-100.0f32..100.0, 0..200)) {
            // Tolerance must scale with the *mass* Σ|x|, not the result:
            // a near-zero sum of large terms legitimately differs between
            // summation orders by ≈ ε·Σ|x| (catastrophic cancellation).
            let mass: f32 = x.iter().map(|v| v.abs()).sum();
            let tol = 1e-6 * mass + 1e-4;
            prop_assert!((sum(&x) - sum_scalar(&x)).abs() <= tol);
        }

        #[test]
        fn prop_dot_matches_scalar(
            xy in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..200)
        ) {
            let x: Vec<f32> = xy.iter().map(|p| p.0).collect();
            let y: Vec<f32> = xy.iter().map(|p| p.1).collect();
            let mass: f32 = xy.iter().map(|p| (p.0 * p.1).abs()).sum();
            let tol = 1e-6 * mass + 1e-4;
            prop_assert!((dot(&x, &y) - dot_scalar(&x, &y)).abs() <= tol);
        }

        #[test]
        fn prop_xlogx_matches_scalar(x in proptest::collection::vec(0.0f32..1.0, 0..200)) {
            prop_assert!(close(xlogx_sum(&x), xlogx_sum_scalar(&x), 1e-4));
        }

        #[test]
        fn prop_axpy_matches_scalar(
            a in -5.0f32..5.0,
            xy in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..100)
        ) {
            let x: Vec<f32> = xy.iter().map(|p| p.0).collect();
            let mut y1: Vec<f32> = xy.iter().map(|p| p.1).collect();
            let mut y2 = y1.clone();
            axpy(a, &x, &mut y1);
            axpy_scalar(a, &x, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                prop_assert!(close(*u, *v, 1e-4));
            }
        }
    }

    // -- backend equivalence: every supported hardware backend vs emulated --

    use crate::dispatch::{self, with_forced, Backend};
    use crate::joint::RowPerms;

    fn naive_joint(
        rows: usize,
        first_bins: &[u16],
        weights: &[f32],
        k: usize,
        y_rows: &[f32],
        perm: Option<&[u32]>,
    ) -> Vec<f32> {
        let mut grid = vec![0.0f32; rows * W];
        for s in 0..first_bins.len() {
            let ys = perm.map_or(s, |p| p[s] as usize);
            for i in 0..k {
                let w = weights[s * k + i];
                let row = (first_bins[s] as usize + i) * W;
                for j in 0..W {
                    grid[row + j] = y_rows[ys * W + j].mul_add(w, grid[row + j]);
                }
            }
        }
        grid
    }

    #[test]
    fn joint_accumulate_matches_naive_reference() {
        let rows = 10;
        let k = 3;
        let m = 7;
        let first_bins: Vec<u16> = (0..7u16).map(|s| s % 7).collect();
        let weights: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let y_rows: Vec<f32> = (0..m * W).map(|i| (i as f32 * 0.11).cos()).collect();
        let perm: Vec<u32> = (0..7u32).rev().collect();
        for p in [None, Some(&perm[..])] {
            let mut grid = vec![0.0f32; rows * W];
            joint_accumulate_w16(&mut grid, &first_bins, &weights, k, &y_rows, p);
            assert_eq!(
                grid,
                naive_joint(rows, &first_bins, &weights, k, &y_rows, p)
            );
        }
    }

    #[test]
    #[should_panic(expected = "bin row out of range")]
    fn joint_accumulate_rejects_overflowing_bin() {
        let mut grid = vec![0.0f32; 4 * W];
        joint_accumulate_w16(&mut grid, &[3], &[1.0, 1.0], 2, &[0.0; W], None);
    }

    #[test]
    #[should_panic(expected = "perm index out of range")]
    fn joint_accumulate_rejects_bad_perm() {
        let mut grid = vec![0.0f32; 4 * W];
        joint_accumulate_w16(&mut grid, &[0], &[1.0], 1, &[0.0; W], Some(&[5]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64)
            .with_persistence("proptest-regressions/slice_ops_backend_equivalence.txt"))]

        /// `sum`/`dot`/`axpy`/`scale` share one arithmetic shape (lanewise
        /// chunk accumulation, correctly-rounded FMA, pairwise reduction
        /// tree) across all backends, so they must agree **bitwise** — the
        /// equivalence grade DESIGN.md §14 documents as "bitwise (0 ULP)".
        #[test]
        fn prop_linear_kernels_bitwise_across_backends(
            a in -5.0f32..5.0,
            xy in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..200)
        ) {
            let x: Vec<f32> = xy.iter().map(|p| p.0).collect();
            let y: Vec<f32> = xy.iter().map(|p| p.1).collect();
            let ref_sum = sum_emulated(&x);
            let ref_dot = dot_emulated(&x, &y);
            let mut ref_axpy = y.clone();
            axpy_emulated(a, &x, &mut ref_axpy);
            let mut ref_scale = x.clone();
            scale_emulated(a, &mut ref_scale);
            for b in Backend::supported() {
                let (s, d, ya, xs) = with_forced(b, || {
                    let mut ya = y.clone();
                    axpy(a, &x, &mut ya);
                    let mut xs = x.clone();
                    scale(a, &mut xs);
                    (sum(&x), dot(&x, &y), ya, xs)
                }).expect("supported backend");
                prop_assert_eq!(s.to_bits(), ref_sum.to_bits(), "sum on {}", b);
                prop_assert_eq!(d.to_bits(), ref_dot.to_bits(), "dot on {}", b);
                for (got, want) in ya.iter().zip(&ref_axpy) {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "axpy on {}", b);
                }
                for (got, want) in xs.iter().zip(&ref_scale) {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "scale on {}", b);
                }
            }
        }

        /// `xlogx_sum` vectorizes `ln`, so hardware backends agree with the
        /// emulated libm form to a few ULP per element, not bitwise.
        #[test]
        fn prop_xlogx_close_across_backends(
            x in proptest::collection::vec(0.0f32..1.0, 0..200)
        ) {
            let reference = xlogx_sum_emulated(&x);
            let mass: f32 = x.iter().map(|v| v.abs()).sum();
            let tol = 1e-5 * mass.max(1.0);
            for b in Backend::supported() {
                let got = with_forced(b, || xlogx_sum(&x)).expect("supported backend");
                prop_assert!(
                    (got - reference).abs() <= tol,
                    "xlogx_sum on {}: {} vs emulated {}", b, got, reference
                );
            }
        }

        /// The batched joint accumulator is pure FMA in the one-grid order,
        /// so every grid of every batch is bitwise equal to the naive
        /// one-grid reference, on every backend this host supports. Each
        /// backend's entry is called directly (no dispatch swap), over
        /// every batch tail length, q = 0, edge sample counts, orders
        /// 1..=8 and 2..=16 bins.
        #[test]
        fn prop_joint_batch_bitwise_on_every_backend(
            seed in 0u64..1000,
            m_pick in 0usize..5,
            q in 0usize..=8,
            k in 1usize..=8,
            bins in 2usize..=16,
        ) {
            let m = [1usize, 15, 16, 17, 1000][m_pick];
            let case = JointCase::new(seed, m, q, k, bins.max(k));
            for b in Backend::supported() {
                case.check(b);
            }
        }
    }

    /// A seeded batched-joint input: `x` windows, `y` rows and `q`
    /// in-range (not necessarily bijective) permutations.
    struct JointCase {
        rows: usize,
        k: usize,
        first_bins: Vec<u16>,
        weights: Vec<f32>,
        y_rows: Vec<f32>,
        perms: RowPerms,
    }

    impl JointCase {
        fn new(seed: u64, m: usize, q: usize, k: usize, rows: usize) -> Self {
            let mixu = |i: usize| {
                let z = (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                usize::try_from(z >> 40).unwrap()
            };
            let mixf = |i: usize| mixu(i) as f32 / (1u32 << 24) as f32;
            let perms = (0..q)
                .map(|p| {
                    (0..m)
                        .map(|s| u32::try_from(mixu(p * m + s + 90_000) % m).unwrap())
                        .collect()
                })
                .collect();
            Self {
                rows,
                k,
                first_bins: (0..m)
                    .map(|s| u16::try_from(mixu(s) % (rows - k + 1)).unwrap())
                    .collect(),
                weights: (0..m * k).map(|i| mixf(i + 1000)).collect(),
                y_rows: (0..m * W).map(|i| mixf(i + 50_000)).collect(),
                perms: RowPerms::new(m, perms).expect("indices are reduced mod m"),
            }
        }

        /// Run the observed pass plus every null through backend `b` in
        /// batches of `BATCH`, and compare each grid bitwise with
        /// `naive_joint`.
        fn check(&self, b: Backend) {
            let x = BinWindows::new(&self.first_bins, &self.weights, self.k, self.rows);
            let sources: Vec<RowSource<'_>> = core::iter::once(RowSource::Identity)
                .chain(self.perms.iter().map(RowSource::Permuted))
                .collect();
            let grid_len = self.rows * W;
            let kernel = dispatch::table_for(b).joint_accumulate_w16_batch;
            for batch in sources.chunks(BATCH) {
                let mut grids = vec![0.0f32; batch.len() * grid_len];
                kernel(&mut grids, &x, &self.y_rows, batch);
                for (grid, source) in grids.chunks_exact(grid_len).zip(batch) {
                    let perm = match *source {
                        RowSource::Identity => None,
                        RowSource::Permuted(p) => Some(p.as_slice()),
                    };
                    let want = naive_joint(
                        self.rows,
                        &self.first_bins,
                        &self.weights,
                        self.k,
                        &self.y_rows,
                        perm,
                    );
                    for (got, want) in grid.iter().zip(&want) {
                        assert_eq!(got.to_bits(), want.to_bits(), "joint batch on {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn joint_batch_covers_every_tail_length_on_every_backend() {
        // q + 1 = 1..=9 evaluations: full batches plus tails of 1, 2, 3
        // and none, and the q = 0 observed-only call.
        for q in 0..=8 {
            let case = JointCase::new(q as u64, 17, q, 3, 10);
            for b in Backend::supported() {
                case.check(b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn joint_accumulate_rejects_short_perm() {
        let mut grid = vec![0.0f32; 4 * W];
        joint_accumulate_w16(
            &mut grid,
            &[0, 1],
            &[1.0, 1.0],
            1,
            &[0.0; 2 * W],
            Some(&[1]),
        );
    }

    #[test]
    #[should_panic(expected = "too few y rows")]
    fn joint_accumulate_rejects_short_y() {
        let mut grid = vec![0.0f32; 4 * W];
        joint_accumulate_w16(&mut grid, &[0, 1], &[1.0, 1.0], 1, &[0.0; W], None);
    }

    #[test]
    #[should_panic(expected = "grid batch shape")]
    fn joint_batch_rejects_missing_grid() {
        let x = BinWindows::new(&[0], &[1.0], 1, 4);
        let mut grids = vec![0.0f32; 4 * W];
        joint_accumulate_w16_batch(
            &mut grids,
            &x,
            &[0.0; W],
            &[RowSource::Identity, RowSource::Identity],
        );
    }

    #[test]
    #[should_panic(expected = "perm index out of range")]
    fn joint_batch_rejects_perm_proven_for_more_rows() {
        // A permutation proven against 4 rows cannot read a 1-row `y`.
        let perm = PermRow::new(&[3], 4);
        let x = BinWindows::new(&[0], &[1.0], 1, 4);
        let mut grid = vec![0.0f32; 4 * W];
        joint_accumulate_w16_batch(&mut grid, &x, &[0.0; W], &[RowSource::Permuted(perm)]);
    }
}
