//! Vectorized B-spline MI kernel on the dense (lane-padded) weight layout.
//!
//! The restructuring at the heart of the paper: gene *y*'s per-sample
//! weights are expanded to a dense zero-padded row of `b_padded` floats
//! (one cache line for the TINGe default of 10 bins). The joint-grid update
//! for one sample then becomes `k` *contiguous, unit-stride* row FMAs
//!
//! ```text
//! for i in 0..k:  grid[fx + i][..] += wx[i] · y_row[..]
//! ```
//!
//! with no data-dependent store addresses inside the vector operation —
//! the only indirection left (which grid row) happens at row granularity.
//! This trades `m·k²` scattered scalar multiply-adds for `m·k` row-wide
//! FMAs the vector unit executes at full rate; with `b_padded = 16` each
//! row FMA is exactly one 512-bit instruction on the paper's hardware.
//!
//! The permuted variant reads `y`'s dense rows through a permutation index
//! — rows stay contiguous, so the vector body is unchanged; only the row
//! pointer hops. The permutation-null loop batches: one pass over `x`'s
//! samples feeds up to [`gnet_simd::BATCH`] grids (the observed pairing
//! and the nulls), so `x`'s first bins and weights load once per batch.
//! Each grid keeps the one-grid summation order, so every value is
//! bit-identical to evaluating it alone.

use crate::entropy::entropy_from_counts;
use gnet_bspline::{DenseWeights, SparseWeights};
use gnet_simd::slice_ops::{axpy, joint_accumulate_w16_batch};
use gnet_simd::{AlignedVec, BinWindows, F32x16, PermRow, RowPerms, RowSource};

/// Reusable joint-grid scratch for the vector kernel: `count` grids of
/// `bins` rows padded to the dense layout's stride, one after another on
/// 64-byte-aligned rows.
#[derive(Clone, Debug)]
pub struct VectorGrid {
    bins: usize,
    stride: usize,
    count: usize,
    data: AlignedVec,
}

impl VectorGrid {
    /// Allocate one grid compatible with `dense` (same stride).
    pub fn for_dense(dense: &DenseWeights) -> Self {
        Self::batch_for_dense(dense, 1)
    }

    /// Allocate `count` grids compatible with `dense`: the scratch of a
    /// batched null loop, which evaluates up to `count` pairings per pass.
    pub(crate) fn batch_for_dense(dense: &DenseWeights, count: usize) -> Self {
        Self {
            bins: dense.bins(),
            stride: dense.stride(),
            count,
            data: AlignedVec::zeroed(count * dense.bins() * dense.stride()),
        }
    }

    /// Number of (live) bin rows.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Padded row stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The first grid, rows × stride. Padding columns stay zero, so
    /// entropy over the whole slice equals entropy over the live cells.
    pub fn as_slice(&self) -> &[f32] {
        self.grid(0)
    }

    /// Grid `b`, rows × stride.
    fn grid(&self, b: usize) -> &[f32] {
        let len = self.bins * self.stride;
        &self.data[b * len..(b + 1) * len]
    }

    /// Zero the first `count` grids and return them, after checking they
    /// match `dense`'s layout.
    fn reset(&mut self, dense: &DenseWeights, count: usize) -> &mut [f32] {
        assert_eq!(self.stride, dense.stride(), "grid/dense stride mismatch");
        assert_eq!(self.bins, dense.bins(), "grid/dense bin mismatch");
        assert!(
            count <= self.count,
            "{count} pairings for {} grids",
            self.count
        );
        let grids = &mut self.data[..count * self.bins * self.stride];
        grids.fill(0.0);
        grids
    }
}

/// One gene pair's vector-kernel inputs, checked once per pair: the
/// genes share sample and bin counts, and — on the one-register-row
/// layout (`stride == 16`, i.e. `b ≤ 16`, which covers the TINGe default
/// of 10 bins) — `x`'s bin windows are proven to fit the grid. Every
/// evaluation of the pair then goes to the dispatched
/// [`joint_accumulate_w16_batch`] kernel with only O(1) shape checks:
/// `k` contiguous row FMAs per sample and grid — one 512-bit `vfmadd` per
/// row on AVX-512, two 256-bit ones on AVX2, the portable `F32x16` loop on
/// the emulated backend. Wider layouts fall back to the general row loop.
pub(crate) struct PairKernel<'a> {
    x: &'a SparseWeights,
    y: &'a DenseWeights,
    windows: Option<BinWindows<'a>>,
}

impl<'a> PairKernel<'a> {
    /// Check the pair (O(m) on the one-register-row layout).
    ///
    /// # Panics
    /// Panics if the genes disagree on sample or bin count, or have no
    /// samples.
    pub(crate) fn new(x: &'a SparseWeights, y: &'a DenseWeights) -> Self {
        check_pair(x, y);
        let one_row = y.stride() == F32x16::LANES && x.order() <= 8;
        let windows = one_row
            .then(|| BinWindows::new(x.first_bins_flat(), x.weights_flat(), x.order(), y.bins()));
        Self { x, y, windows }
    }

    /// Accumulate one unnormalized joint grid per source into the first
    /// `sources.len()` grids of `grid`.
    fn joint(&self, sources: &[RowSource<'_>], grid: &mut VectorGrid) {
        let stride = grid.stride;
        let grids = grid.reset(self.y, sources.len());
        if let Some(windows) = &self.windows {
            joint_accumulate_w16_batch(grids, windows, self.y.as_slice(), sources);
            return;
        }
        let len = grids.len() / sources.len();
        for (g, source) in grids.chunks_exact_mut(len).zip(sources) {
            for s in 0..self.x.samples() {
                let y_row = match *source {
                    RowSource::Identity => self.y.row(s),
                    RowSource::Permuted(p) => self.y.row(p.as_slice()[s] as usize), // cast-ok: u32 to usize widens losslessly
                };
                let fx = self.x.first_bin(s);
                for (i, &wxi) in self.x.sample_weights(s).iter().enumerate() {
                    // Row-wide FMA: one padded row of y scaled by one x weight.
                    axpy(wxi, y_row, &mut g[(fx + i) * stride..(fx + i + 1) * stride]);
                }
            }
        }
    }

    /// MI (nats) from one accumulated grid.
    fn mi_of(&self, grid: &[f32], hx: f64, hy: f64) -> f64 {
        // cast-ok: sample counts are far below f64's 2^53 exact-integer range
        hx + hy - entropy_from_counts(grid, self.x.samples() as f64)
    }

    /// MI (nats) of the pair under `source`, accumulated in grid 0.
    pub(crate) fn mi(&self, source: RowSource<'_>, hx: f64, hy: f64, grid: &mut VectorGrid) -> f64 {
        self.joint(&[source], grid);
        self.mi_of(grid.grid(0), hx, hy)
    }

    /// The observed MI and the MI under each permutation, in order. One
    /// pass over `x`'s samples feeds as many pairings as `grid` holds
    /// grids: the observed
    /// pass plus the first nulls, then the rest in full batches and one
    /// shorter tail. Each value is bit-identical to a one-at-a-time
    /// [`PairKernel::mi`].
    ///
    /// # Panics
    /// Panics if the permutations act on a different sample count.
    pub(crate) fn mi_with_nulls(
        &self,
        perms: &RowPerms,
        hx: f64,
        hy: f64,
        grid: &mut VectorGrid,
    ) -> (f64, Vec<f64>) {
        assert_eq!(
            perms.rows(),
            self.x.samples(),
            "permutation length mismatch"
        );
        let sources: Vec<RowSource<'_>> = core::iter::once(RowSource::Identity)
            .chain(perms.iter().map(RowSource::Permuted))
            .collect();
        let mut values = Vec::with_capacity(sources.len());
        for batch in sources.chunks(grid.count) {
            self.joint(batch, grid);
            values.extend((0..batch.len()).map(|b| self.mi_of(grid.grid(b), hx, hy)));
        }
        let null = values.split_off(1);
        (values[0], null)
    }
}

/// Accumulate the unnormalized joint grid of sparse-`x` against dense-`y`
/// into the first grid of `grid`.
///
/// # Panics
/// Panics on shape disagreements between `x`, `y`, and `grid`.
pub fn joint_counts(x: &SparseWeights, y: &DenseWeights, grid: &mut VectorGrid) {
    PairKernel::new(x, y).joint(&[RowSource::Identity], grid);
}

/// As [`joint_counts`] but pairing sample `s` of `x` with sample `perm[s]`
/// of `y`. Checks every index of `perm` (O(m)); the batched null loop of
/// [`crate::mi_with_nulls`] takes permutations proven once instead.
///
/// # Panics
/// As [`joint_counts`], plus if `perm.len()` differs from the sample count
/// or an index is out of range.
pub fn joint_counts_permuted(
    x: &SparseWeights,
    y: &DenseWeights,
    perm: &[u32],
    grid: &mut VectorGrid,
) {
    let pair = PairKernel::new(x, y);
    pair.joint(&[checked_perm(x, y, perm)], grid);
}

/// Mutual information (nats) via the vector kernel, given precomputed
/// marginal entropies.
pub fn mi(x: &SparseWeights, y: &DenseWeights, hx: f64, hy: f64, grid: &mut VectorGrid) -> f64 {
    PairKernel::new(x, y).mi(RowSource::Identity, hx, hy, grid)
}

/// Mutual information (nats) of `x` against permuted `y` via the vector
/// kernel. `hy` is the unpermuted marginal entropy (permutation invariant).
pub fn mi_permuted(
    x: &SparseWeights,
    y: &DenseWeights,
    perm: &[u32],
    hx: f64,
    hy: f64,
    grid: &mut VectorGrid,
) -> f64 {
    let pair = PairKernel::new(x, y);
    pair.mi(checked_perm(x, y, perm), hx, hy, grid)
}

/// `perm` checked against the pair (O(m)): one index per sample, each a
/// row of `y`.
fn checked_perm<'p>(x: &SparseWeights, y: &DenseWeights, perm: &'p [u32]) -> RowSource<'p> {
    assert_eq!(perm.len(), x.samples(), "permutation length mismatch");
    RowSource::Permuted(PermRow::new(perm, y.samples()))
}

fn check_pair(x: &SparseWeights, y: &DenseWeights) {
    assert_eq!(
        x.samples(),
        y.samples(),
        "genes must share the sample count"
    );
    assert_eq!(x.bins(), y.bins(), "genes must share the bin count");
    assert!(x.samples() > 0, "cannot compute MI over zero samples");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::entropy_nats;
    use crate::sparse_kernel;
    use gnet_bspline::BsplineBasis;
    use gnet_expr::normalize::rank_transform_profile;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn prep(values: &[f32], basis: &BsplineBasis) -> SparseWeights {
        SparseWeights::from_normalized(&rank_transform_profile(values), basis)
    }

    fn random_profiles(seed: u64, m: usize) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m).map(|_| rng.gen::<f32>()).collect();
        let b: Vec<f32> = (0..m).map(|_| rng.gen::<f32>()).collect();
        (a, b)
    }

    #[test]
    fn vector_kernel_matches_scalar_kernel() {
        let basis = BsplineBasis::tinge_default();
        for m in [1usize, 5, 16, 17, 100, 333] {
            let (a, b) = random_profiles(m as u64, m);
            let x = prep(&a, &basis);
            let y = prep(&b, &basis);
            let hx = entropy_nats(&x.marginal());
            let hy = entropy_nats(&y.marginal());

            let mut sgrid = vec![0.0; 100];
            let scalar = sparse_kernel::mi(&x, &y, hx, hy, &mut sgrid);

            let yd = y.to_dense();
            let mut vgrid = VectorGrid::for_dense(&yd);
            let vector = mi(&x, &yd, hx, hy, &mut vgrid);

            assert!(
                (scalar - vector).abs() < 1e-4,
                "m={m}: scalar {scalar} vs vector {vector}"
            );
        }
    }

    #[test]
    fn permuted_kernels_match_each_other() {
        let basis = BsplineBasis::new(4, 12);
        let m = 97u32; // prime
        let (a, b) = random_profiles(1234, m as usize);
        let x = prep(&a, &basis);
        let y = prep(&b, &basis);
        let hx = entropy_nats(&x.marginal());
        let hy = entropy_nats(&y.marginal());
        let perm: Vec<u32> = (0..m).map(|i| (i * 29) % m).collect();

        let mut sgrid = vec![0.0; 144];
        let scalar = sparse_kernel::mi_permuted(&x, &y, &perm, hx, hy, &mut sgrid);

        let yd = y.to_dense();
        let mut vgrid = VectorGrid::for_dense(&yd);
        let vector = mi_permuted(&x, &yd, &perm, hx, hy, &mut vgrid);

        assert!(
            (scalar - vector).abs() < 1e-4,
            "scalar {scalar} vs vector {vector}"
        );
    }

    #[test]
    fn permuted_y_equals_materialized_permuted_dense() {
        // Reading through the perm index must equal physically permuting
        // the dense rows first.
        let basis = BsplineBasis::tinge_default();
        let m = 53u32;
        let (a, b) = random_profiles(9, m as usize);
        let x = prep(&a, &basis);
        let y = prep(&b, &basis);
        let hx = entropy_nats(&x.marginal());
        let hy = entropy_nats(&y.marginal());
        let perm: Vec<u32> = (0..m).map(|i| (i * 23) % m).collect();

        let yd = y.to_dense();
        let mut g1 = VectorGrid::for_dense(&yd);
        let via_index = mi_permuted(&x, &yd, &perm, hx, hy, &mut g1);

        // Materialized: y_perm[s] = y[perm[s]] pairs x[s] with y[perm[s]].
        let yd_mat = yd.permuted(&perm);
        let mut g2 = VectorGrid::for_dense(&yd_mat);
        let via_copy = mi(&x, &yd_mat, hx, hy, &mut g2);

        assert!((via_index - via_copy).abs() < 1e-6);
    }

    #[test]
    fn grids_start_on_cache_lines() {
        let basis = BsplineBasis::tinge_default();
        let (a, b) = random_profiles(3, 40);
        let x = prep(&a, &basis);
        let yd = prep(&b, &basis).to_dense();
        let mut grid = VectorGrid::for_dense(&yd);
        assert_eq!(grid.as_slice().as_ptr() as usize % 64, 0);
        joint_counts(&x, &yd, &mut grid);
        assert_eq!(grid.clone().as_slice().as_ptr() as usize % 64, 0);
        let batch = VectorGrid::batch_for_dense(&yd, gnet_simd::BATCH);
        for g in 0..gnet_simd::BATCH {
            assert_eq!(batch.grid(g).as_ptr() as usize % 64, 0, "grid {g}");
        }
    }

    #[test]
    fn grid_mass_is_sample_count() {
        let basis = BsplineBasis::tinge_default();
        let (a, b) = random_profiles(2, 41);
        let x = prep(&a, &basis);
        let yd = prep(&b, &basis).to_dense();
        let mut grid = VectorGrid::for_dense(&yd);
        joint_counts(&x, &yd, &mut grid);
        let mass: f32 = grid.as_slice().iter().sum();
        assert!((mass - 41.0).abs() < 1e-4);
    }

    #[test]
    fn padding_columns_stay_zero() {
        let basis = BsplineBasis::tinge_default();
        let (a, b) = random_profiles(5, 29);
        let x = prep(&a, &basis);
        let yd = prep(&b, &basis).to_dense();
        let mut grid = VectorGrid::for_dense(&yd);
        joint_counts(&x, &yd, &mut grid);
        for r in 0..grid.bins() {
            let row = &grid.as_slice()[r * grid.stride()..(r + 1) * grid.stride()];
            for &v in &row[grid.bins()..] {
                assert_eq!(v, 0.0, "padding must stay zero");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_pairs() {
        // Computing pair A, then pair B, must give the same result as a
        // fresh grid for B (reset correctness).
        let basis = BsplineBasis::tinge_default();
        let (a, b) = random_profiles(6, 64);
        let (c, _) = random_profiles(7, 64);
        let x = prep(&a, &basis);
        let y = prep(&b, &basis);
        let z = prep(&c, &basis);
        let hx = entropy_nats(&x.marginal());
        let hy = entropy_nats(&y.marginal());
        let hz = entropy_nats(&z.marginal());

        let yd = y.to_dense();
        let zd = z.to_dense();
        let mut reused = VectorGrid::for_dense(&yd);
        let _ = mi(&x, &yd, hx, hy, &mut reused);
        let second = mi(&x, &zd, hx, hz, &mut reused);

        let mut fresh = VectorGrid::for_dense(&zd);
        let direct = mi(&x, &zd, hx, hz, &mut fresh);
        assert_eq!(second, direct);
    }

    #[test]
    #[should_panic(expected = "share the bin count")]
    fn mismatched_bins_panic() {
        let x = prep(&[1.0, 2.0, 3.0], &BsplineBasis::new(3, 10));
        let yd = prep(&[1.0, 2.0, 3.0], &BsplineBasis::new(3, 12)).to_dense();
        let mut grid = VectorGrid::for_dense(&yd);
        joint_counts(&x, &yd, &mut grid);
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn short_permutation_panics() {
        let basis = BsplineBasis::tinge_default();
        let x = prep(&[0.1, 0.5, 0.9], &basis);
        let yd = prep(&[0.3, 0.2, 0.7], &basis).to_dense();
        let mut grid = VectorGrid::for_dense(&yd);
        joint_counts_permuted(&x, &yd, &[1, 0], &mut grid);
    }

    #[test]
    #[should_panic(expected = "perm index out of range")]
    fn out_of_range_permutation_panics() {
        let basis = BsplineBasis::tinge_default();
        let x = prep(&[0.1, 0.5, 0.9], &basis);
        let yd = prep(&[0.3, 0.2, 0.7], &basis).to_dense();
        let mut grid = VectorGrid::for_dense(&yd);
        joint_counts_permuted(&x, &yd, &[1, 0, 3], &mut grid);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_scalar_vector_equivalence(
            seed in 0u64..1000,
            m in 2usize..150,
            order in 1usize..=4,
        ) {
            let basis = BsplineBasis::new(order, 10);
            let (a, b) = random_profiles(seed, m);
            let x = prep(&a, &basis);
            let y = prep(&b, &basis);
            let hx = entropy_nats(&x.marginal());
            let hy = entropy_nats(&y.marginal());
            let mut sgrid = vec![0.0; 100];
            let scalar = sparse_kernel::mi(&x, &y, hx, hy, &mut sgrid);
            let yd = y.to_dense();
            let mut vgrid = VectorGrid::for_dense(&yd);
            let vector = mi(&x, &yd, hx, hy, &mut vgrid);
            prop_assert!((scalar - vector).abs() < 2e-4,
                "scalar {} vs vector {}", scalar, vector);
        }

        #[test]
        fn prop_grid_padding_stays_zero_after_kernel(
            seed in 0u64..500,
            m in 2usize..150,
            order in 1usize..=4,
        ) {
            // The row-FMA loop accumulates wx·y_row over *padded* rows, so
            // the grid's padding columns receive only wx·0 contributions.
            // `mi` takes entropy over the whole padded slice on that
            // premise; if padding ever went nonzero (the exact corruption
            // the dropped-padding-zeroing mutation injects) every MI value
            // would silently shift. Checked bitwise, observed and permuted
            // paths alike, across a scratch-reuse cycle.
            let basis = BsplineBasis::new(order, 10);
            let (a, b) = random_profiles(seed, m);
            let x = prep(&a, &basis);
            let y = prep(&b, &basis);
            let yd = y.to_dense();
            let mut grid = VectorGrid::for_dense(&yd);
            let perm: Vec<u32> = (0..m as u32).rev().collect();
            joint_counts(&x, &yd, &mut grid);
            joint_counts_permuted(&x, &yd, &perm, &mut grid);
            joint_counts(&x, &yd, &mut grid);
            let (bins, stride) = (grid.bins(), grid.stride());
            for (idx, &v) in grid.as_slice().iter().enumerate() {
                if idx % stride >= bins {
                    prop_assert!(
                        v.to_bits() == 0.0f32.to_bits(),
                        "padding cell {idx} holds {v} after the kernel"
                    );
                }
            }
        }

        #[test]
        fn prop_mi_nonnegative(seed in 0u64..500, m in 4usize..200) {
            let basis = BsplineBasis::tinge_default();
            let (a, b) = random_profiles(seed, m);
            let x = prep(&a, &basis);
            let yd = prep(&b, &basis).to_dense();
            let hx = entropy_nats(&x.marginal());
            let hy = entropy_nats(&yd.marginal());
            let mut grid = VectorGrid::for_dense(&yd);
            let v = mi(&x, &yd, hx, hy, &mut grid);
            // Plug-in MI with marginals equal to the joint's own marginals
            // is a KL divergence ⇒ non-negative up to float rounding.
            prop_assert!(v > -1e-3, "MI {} went negative", v);
        }
    }
}
