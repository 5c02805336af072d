//! Per-gene preparation and the kernel-dispatch layer the pipeline uses.
//!
//! Preparation happens once per gene (B-spline weights + marginal entropy)
//! and is reused for all `n−1` pairs the gene participates in — the
//! amortization that makes whole-genome runs feasible and that the tiling
//! layer is built around. Gene contexts keep only the *sparse* weight
//! matrix; the dense expansion the vector kernel needs is materialized per
//! tile by the executor ([`PreparedGene::to_dense`]), which is exactly how
//! the paper bounds the working set to the L2 cache.

use crate::entropy::entropy_nats;
use crate::sparse_kernel;
use crate::vector_kernel::{self, PairKernel, VectorGrid};
use gnet_bspline::{BsplineBasis, DenseWeights, SparseWeights};
use gnet_expr::normalize::rank_transform_profile;
use gnet_expr::ExpressionMatrix;
use gnet_simd::{RowPerms, RowSource, BATCH};

/// Which B-spline kernel the pipeline dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum MiKernel {
    /// Scalar `k × k` scatter kernel on sparse weights (no-vec baseline).
    ScalarSparse,
    /// Row-FMA kernel on dense lane-padded weights (the paper's kernel).
    #[default]
    VectorDense,
}

/// One gene, prepared for pairwise MI: rank-transformed, B-spline weighted,
/// marginal entropy cached.
#[derive(Clone, Debug)]
pub struct PreparedGene {
    /// Sparse `m × k` weight matrix.
    pub sparse: SparseWeights,
    /// Marginal entropy `H(g)` in nats.
    pub h_marginal: f64,
}

impl PreparedGene {
    /// Prepare from a **raw** expression profile (rank transform applied
    /// internally).
    pub fn from_raw(values: &[f32], basis: &BsplineBasis) -> Self {
        Self::from_normalized(&rank_transform_profile(values), basis)
    }

    /// Prepare from an already `[0, 1]`-normalized profile.
    pub fn from_normalized(normalized: &[f32], basis: &BsplineBasis) -> Self {
        let sparse = SparseWeights::from_normalized(normalized, basis);
        let h_marginal = entropy_nats(&sparse.marginal());
        Self { sparse, h_marginal }
    }

    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.sparse.samples()
    }

    /// Expand to the dense layout the vector kernel consumes. Called once
    /// per tile column and reused across the tile's rows.
    pub fn to_dense(&self) -> DenseWeights {
        self.sparse.to_dense()
    }

    /// Approximate heap footprint in bytes (sparse form).
    pub fn heap_bytes(&self) -> usize {
        self.sparse.heap_bytes() + core::mem::size_of::<f64>()
    }
}

/// Prepare from a raw expression profile — free-function alias used by the
/// pipeline.
pub fn prepare_gene(values: &[f32], basis: &BsplineBasis) -> PreparedGene {
    PreparedGene::from_raw(values, basis)
}

/// Prepare every gene of a matrix (the pipeline's preprocessing +
/// weight-computation stages fused).
pub fn prepare_matrix(matrix: &ExpressionMatrix, basis: &BsplineBasis) -> Vec<PreparedGene> {
    (0..matrix.genes())
        .map(|g| prepare_gene(matrix.gene(g), basis))
        .collect()
}

/// Reusable per-thread scratch covering both kernels. The vector kernel's
/// scratch holds [`BATCH`] grids for the batched null loop.
#[derive(Clone, Debug)]
pub struct MiScratch {
    scalar_grid: Vec<f32>,
    vector_grid: Option<VectorGrid>,
    bins: usize,
}

impl MiScratch {
    /// Scratch for genes produced with `basis`.
    pub fn for_basis(basis: &BsplineBasis) -> Self {
        let b = basis.bins();
        Self {
            scalar_grid: vec![0.0; b * b],
            vector_grid: None,
            bins: b,
        }
    }

    fn vector_grid_for(&mut self, dense: &DenseWeights) -> &mut VectorGrid {
        let needs_new = match &self.vector_grid {
            Some(g) => g.bins() != dense.bins() || g.stride() != dense.stride(),
            None => true,
        };
        if needs_new {
            self.vector_grid = Some(VectorGrid::batch_for_dense(dense, BATCH));
        }
        self.vector_grid.as_mut().expect("just ensured")
    }
}

/// MI (nats) of a prepared pair with the scalar kernel.
pub fn mi_scalar(x: &PreparedGene, y: &PreparedGene, scratch: &mut MiScratch) -> f64 {
    debug_assert_eq!(scratch.bins, x.sparse.bins());
    sparse_kernel::mi(
        &x.sparse,
        &y.sparse,
        x.h_marginal,
        y.h_marginal,
        &mut scratch.scalar_grid,
    )
}

/// MI (nats) of a prepared pair with the vector kernel. `y_dense` must be
/// the dense expansion of `y` (cached by the tile executor).
pub fn mi_vector(
    x: &PreparedGene,
    y: &PreparedGene,
    y_dense: &DenseWeights,
    scratch: &mut MiScratch,
) -> f64 {
    let grid = scratch.vector_grid_for(y_dense);
    vector_kernel::mi(&x.sparse, y_dense, x.h_marginal, y.h_marginal, grid)
}

/// Result of evaluating one pair together with its permutation null.
#[derive(Clone, Debug, PartialEq)]
pub struct PairMi {
    /// MI (nats) of the observed pair.
    pub observed: f64,
    /// MI (nats) of the pair under each null permutation, in permutation
    /// order.
    pub null: Vec<f64>,
}

impl PairMi {
    /// Number of null permutations whose MI reached or exceeded the
    /// observed value — the numerator of the empirical p-value
    /// `(exceed + 1) / (q + 1)`.
    pub fn exceed_count(&self) -> usize {
        self.null.iter().filter(|&&v| v >= self.observed).count()
    }
}

/// Evaluate a pair and its `q` permutation nulls in one batched call — the
/// unit of work the tile executor schedules. Dispatches on `kernel`; the
/// dense expansion of `y` is only touched (and required to be `Some`) for
/// the vector kernel, which runs the observed pass and the nulls
/// [`BATCH`] at a time through one pass over `x`'s samples each.
///
/// # Panics
/// Panics if `kernel` is [`MiKernel::VectorDense`] and `y_dense` is `None`,
/// or if the permutations act on a different sample count.
pub fn mi_with_nulls(
    kernel: MiKernel,
    x: &PreparedGene,
    y: &PreparedGene,
    y_dense: Option<&DenseWeights>,
    perms: &RowPerms,
    scratch: &mut MiScratch,
) -> PairMi {
    let (hx, hy) = (x.h_marginal, y.h_marginal);
    match kernel {
        MiKernel::ScalarSparse => {
            let grid = &mut scratch.scalar_grid;
            let observed = sparse_kernel::mi(&x.sparse, &y.sparse, hx, hy, grid);
            let null = perms
                .iter()
                .map(|p| {
                    sparse_kernel::mi_permuted(&x.sparse, &y.sparse, p.as_slice(), hx, hy, grid)
                })
                .collect();
            PairMi { observed, null }
        }
        MiKernel::VectorDense => {
            let yd = y_dense.expect("vector kernel requires the dense expansion of y");
            let grid = scratch.vector_grid_for(yd);
            let (observed, null) =
                PairKernel::new(&x.sparse, yd).mi_with_nulls(perms, hx, hy, grid);
            PairMi { observed, null }
        }
    }
}

/// Result of the early-exit evaluation of one pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyExitMi {
    /// MI (nats) of the observed pair.
    pub observed: f64,
    /// True iff the observed value beat every null that was evaluated
    /// *and* evaluation ran to completion (i.e. the pair is a candidate).
    pub survived: bool,
    /// Joint-entropy evaluations actually performed (1 for the observed
    /// value plus however many nulls ran before the exit).
    pub joints_evaluated: u32,
}

/// Early-exit variant of [`mi_with_nulls`]: evaluation of the permutation
/// null stops at the **first** null that reaches the observed MI (the pair
/// can no longer become an edge), and is skipped entirely when the
/// observed MI does not clear `threshold` (a pair below the global
/// threshold is rejected regardless of its nulls). Nulls run one at a
/// time, so no evaluation past the exit is spent.
///
/// This is the adaptive optimization DESIGN.md §7 lists: it changes *no
/// decision* relative to the exact test with the same threshold, only the
/// amount of work — the expected null evaluations per null pair is ≈ 2
/// instead of `q`. It does not feed a pooled-null accumulator (it never
/// sees most nulls), so the caller must obtain the global threshold
/// elsewhere (fixed, or estimated from a sampled pre-pass).
pub fn mi_with_nulls_early_exit(
    kernel: MiKernel,
    x: &PreparedGene,
    y: &PreparedGene,
    y_dense: Option<&DenseWeights>,
    perms: &RowPerms,
    threshold: f64,
    scratch: &mut MiScratch,
) -> EarlyExitMi {
    let (hx, hy) = (x.h_marginal, y.h_marginal);
    let vector = match kernel {
        MiKernel::ScalarSparse => None,
        MiKernel::VectorDense => {
            let yd = y_dense.expect("vector kernel requires the dense expansion of y");
            Some((PairKernel::new(&x.sparse, yd), yd))
        }
    };
    let mut eval = |source: RowSource<'_>| match (&vector, source) {
        (Some((pair, yd)), _) => pair.mi(source, hx, hy, scratch.vector_grid_for(yd)),
        (None, RowSource::Identity) => {
            sparse_kernel::mi(&x.sparse, &y.sparse, hx, hy, &mut scratch.scalar_grid)
        }
        (None, RowSource::Permuted(p)) => sparse_kernel::mi_permuted(
            &x.sparse,
            &y.sparse,
            p.as_slice(),
            hx,
            hy,
            &mut scratch.scalar_grid,
        ),
    };
    let observed = eval(RowSource::Identity);
    let mut joints = 1u32;
    if observed <= threshold {
        return EarlyExitMi {
            observed,
            survived: false,
            joints_evaluated: joints,
        };
    }
    for p in perms.iter() {
        let null = eval(RowSource::Permuted(p));
        joints += 1;
        if null >= observed {
            return EarlyExitMi {
                observed,
                survived: false,
                joints_evaluated: joints,
            };
        }
    }
    EarlyExitMi {
        observed,
        survived: true,
        joints_evaluated: joints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_expr::synth;

    fn basis() -> BsplineBasis {
        BsplineBasis::tinge_default()
    }

    fn row_perms(m: u32, perms: Vec<Vec<u32>>) -> RowPerms {
        RowPerms::new(m as usize, perms).expect("test permutations are in range")
    }

    fn prepared_pair(seed: u64, m: usize) -> (PreparedGene, PreparedGene) {
        let matrix = synth::independent_gaussian(2, m, seed);
        let b = basis();
        (
            prepare_gene(matrix.gene(0), &b),
            prepare_gene(matrix.gene(1), &b),
        )
    }

    #[test]
    fn prepare_matrix_prepares_every_gene() {
        let m = synth::independent_uniform(5, 40, 1);
        let prepared = prepare_matrix(&m, &basis());
        assert_eq!(prepared.len(), 5);
        for p in &prepared {
            assert_eq!(p.samples(), 40);
            assert!(p.h_marginal > 0.0);
        }
    }

    #[test]
    fn kernels_agree_through_dispatch_layer() {
        let (x, y) = prepared_pair(3, 128);
        let mut scratch = MiScratch::for_basis(&basis());
        let s = mi_scalar(&x, &y, &mut scratch);
        let yd = y.to_dense();
        let v = mi_vector(&x, &y, &yd, &mut scratch);
        assert!((s - v).abs() < 1e-4, "scalar {s} vector {v}");
    }

    #[test]
    fn mi_with_nulls_batches_consistently() {
        let (x, y) = prepared_pair(8, 101);
        let m = 101u32;
        let perms = row_perms(
            m,
            (1..4)
                .map(|mult| (0..m).map(|i| (i * (2 * mult + 1)) % m).collect())
                .collect(),
        );
        let mut scratch = MiScratch::for_basis(&basis());

        let yd = y.to_dense();
        let scalar = mi_with_nulls(MiKernel::ScalarSparse, &x, &y, None, &perms, &mut scratch);
        let vector = mi_with_nulls(
            MiKernel::VectorDense,
            &x,
            &y,
            Some(&yd),
            &perms,
            &mut scratch,
        );

        assert_eq!(scalar.null.len(), 3);
        assert!((scalar.observed - vector.observed).abs() < 1e-4);
        for (a, b) in scalar.null.iter().zip(&vector.null) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn batched_nulls_are_bitwise_the_one_at_a_time_loop() {
        // Every tail length of the BATCH-wide null loop (q + 1 ≡ 0..3 mod
        // 4), q = 0, and a layout wider than one register row (20 bins,
        // the general row loop).
        for (bins, order) in [(10, 3), (16, 4), (20, 2)] {
            let b = BsplineBasis::new(order, bins);
            let matrix = synth::independent_gaussian(2, 97, bins as u64);
            let x = prepare_gene(matrix.gene(0), &b);
            let y = prepare_gene(matrix.gene(1), &b);
            let yd = y.to_dense();
            let mut scratch = MiScratch::for_basis(&b);
            let mut one = VectorGrid::for_dense(&yd);
            for q in 0..=9 {
                let perms = seeded_perms(97, q);
                let batched = mi_with_nulls(
                    MiKernel::VectorDense,
                    &x,
                    &y,
                    Some(&yd),
                    &perms,
                    &mut scratch,
                );
                let (hx, hy) = (x.h_marginal, y.h_marginal);
                let observed = vector_kernel::mi(&x.sparse, &yd, hx, hy, &mut one);
                assert_eq!(batched.observed.to_bits(), observed.to_bits(), "q={q}");
                assert_eq!(batched.null.len(), q);
                for (i, p) in perms.iter().enumerate() {
                    let null =
                        vector_kernel::mi_permuted(&x.sparse, &yd, p.as_slice(), hx, hy, &mut one);
                    assert_eq!(batched.null[i].to_bits(), null.to_bits(), "q={q} null {i}");
                }
            }
        }
    }

    /// `q` seeded Fisher–Yates bijections of `0..m`.
    fn seeded_perms(m: u32, q: usize) -> RowPerms {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(q as u64);
        let perms = (0..q)
            .map(|_| {
                let mut p: Vec<u32> = (0..m).collect();
                for i in (1..p.len()).rev() {
                    p.swap(i, rng.gen_range(0..=i));
                }
                p
            })
            .collect();
        row_perms(m, perms)
    }

    #[test]
    fn exceed_count_counts_ties_conservatively() {
        let pair = PairMi {
            observed: 0.5,
            null: vec![0.1, 0.5, 0.9, 0.4],
        };
        // Ties count as exceedances (conservative test).
        assert_eq!(pair.exceed_count(), 2);
    }

    #[test]
    #[should_panic(expected = "requires the dense expansion")]
    fn vector_kernel_without_dense_panics() {
        let (x, y) = prepared_pair(4, 32);
        let mut scratch = MiScratch::for_basis(&basis());
        let perms = RowPerms::default();
        let _ = mi_with_nulls(MiKernel::VectorDense, &x, &y, None, &perms, &mut scratch);
    }

    #[test]
    fn coupled_genes_beat_their_null() {
        let (matrix, truth) =
            synth::coupled_pairs(1, 600, gnet_expr::synth::Coupling::Linear(0.95), 17);
        let b = basis();
        let x = prepare_gene(matrix.gene(truth[0].0 as usize), &b);
        let y = prepare_gene(matrix.gene(truth[0].1 as usize), &b);
        let m = 600u32;
        let perms = row_perms(
            m,
            (0..20)
                .map(|r| (0..m).map(|i| (i * 7 + r * 13 + 1) % m).collect())
                .collect(),
        );
        let mut scratch = MiScratch::for_basis(&b);
        let yd = y.to_dense();
        let res = mi_with_nulls(
            MiKernel::VectorDense,
            &x,
            &y,
            Some(&yd),
            &perms,
            &mut scratch,
        );
        assert_eq!(
            res.exceed_count(),
            0,
            "no null should beat a 0.95-coupled pair"
        );
        assert!(res.observed > 0.3);
    }

    #[test]
    fn early_exit_agrees_with_exact_test() {
        let (matrix, _) = synth::coupled_pairs(6, 250, gnet_expr::synth::Coupling::Linear(0.7), 23);
        let b = basis();
        let prepared: Vec<_> = (0..matrix.genes())
            .map(|g| prepare_gene(matrix.gene(g), &b))
            .collect();
        let m = matrix.samples() as u32;
        let perms = row_perms(
            m,
            (0..12)
                .map(|r| (0..m).map(|i| (i * 7 + r * 11 + 3) % m).collect())
                .collect(),
        );
        let mut scratch = MiScratch::for_basis(&b);
        let threshold = 0.05;

        let mut exact_joints = 0u64;
        let mut early_joints = 0u64;
        for i in 0..matrix.genes() {
            for j in i + 1..matrix.genes() {
                let yd = prepared[j].to_dense();
                let exact = mi_with_nulls(
                    MiKernel::VectorDense,
                    &prepared[i],
                    &prepared[j],
                    Some(&yd),
                    &perms,
                    &mut scratch,
                );
                let exact_keeps = exact.observed > threshold && exact.exceed_count() == 0;
                exact_joints += 1 + perms.len() as u64;

                let early = mi_with_nulls_early_exit(
                    MiKernel::VectorDense,
                    &prepared[i],
                    &prepared[j],
                    Some(&yd),
                    &perms,
                    threshold,
                    &mut scratch,
                );
                early_joints += early.joints_evaluated as u64;
                assert_eq!(
                    early.survived, exact_keeps,
                    "pair ({i},{j}): early-exit decision diverged"
                );
                assert!((early.observed - exact.observed).abs() < 1e-9);
            }
        }
        assert!(
            early_joints * 2 < exact_joints,
            "early exit must at least halve the joint evaluations: {early_joints} vs {exact_joints}"
        );
    }

    #[test]
    fn early_exit_skips_nulls_below_threshold() {
        let (x, y) = prepared_pair(40, 64);
        let mut scratch = MiScratch::for_basis(&basis());
        let perms = row_perms(64, vec![(0..64u32).rev().collect(); 10]);
        let yd = y.to_dense();
        let res = mi_with_nulls_early_exit(
            MiKernel::VectorDense,
            &x,
            &y,
            Some(&yd),
            &perms,
            f64::INFINITY,
            &mut scratch,
        );
        assert!(!res.survived);
        assert_eq!(
            res.joints_evaluated, 1,
            "below-threshold pair must not touch nulls"
        );
    }

    #[test]
    fn scratch_adapts_to_different_layouts() {
        let b10 = BsplineBasis::tinge_default();
        // Order 1 so the I(X,X) = H(X) identity is exact (hard histogram).
        let b20 = BsplineBasis::new(1, 20);
        let g = synth::independent_uniform(1, 50, 5);
        let x10 = prepare_gene(g.gene(0), &b10);
        let x20 = prepare_gene(g.gene(0), &b20);
        let mut scratch = MiScratch::for_basis(&b10);
        let d10 = x10.to_dense();
        let _ = mi_vector(&x10, &x10, &d10, &mut scratch);
        // Switching to a wider layout must transparently reallocate.
        let d20 = x20.to_dense();
        let v = vector_kernel::mi(
            &x20.sparse,
            &d20,
            x20.h_marginal,
            x20.h_marginal,
            scratch.vector_grid_for(&d20),
        );
        assert!((v - x20.h_marginal).abs() < 1e-3, "I(X,X)=H(X)");
    }
}
