//! Deliberately broken vector-kernel variants for conformance self-checks.
//!
//! A differential oracle is only trustworthy if it demonstrably *fails*
//! when the kernel is wrong. This module packages the four historical
//! vectorization bug classes the paper's restructuring is most exposed to,
//! each as a drop-in replacement for [`crate::gene::mi_with_nulls`] on the
//! vector kernel:
//!
//! * [`KernelMutation::DroppedPaddingZeroing`] — the dense expansion's
//!   lane-padding columns are *not* zeroed (modeling an uninitialized
//!   allocation). The row FMAs then sweep junk into the joint grid's
//!   padding cells, and the entropy over the padded slice is wrong.
//! * [`KernelMutation::OffByOneBinIndex`] — every sample's weight window
//!   scatters one grid row too high (clamped at the top edge), the classic
//!   first-bin indexing slip when translating the scalar scatter into row
//!   arithmetic.
//! * [`KernelMutation::StaleGridScratch`] — the per-pair joint-grid
//!   scratch is not cleared between pairs, so every pair after the first
//!   accumulates on top of its predecessor's counts.
//! * [`KernelMutation::StaleBatchTail`] — the null loop's last, partial
//!   batch accumulates onto the previous batch's grids without a reset,
//!   so the tail nulls carry earlier evaluations' counts.
//!
//! None of these variants is reachable from the pipeline; the only caller
//! is `gnet-conformance --self-check`, which asserts that each mutation is
//! detected by the scalar-vs-vector differential oracle.

use crate::entropy::entropy_from_counts;
use crate::gene::{PairMi, PreparedGene};
use gnet_bspline::DenseWeights;
use gnet_simd::{RowPerms, BATCH};

/// The injectable kernel defects, in the order the self-check runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMutation {
    /// Dense lane-padding columns keep junk instead of zeros.
    DroppedPaddingZeroing,
    /// Weight windows land one grid row too high.
    OffByOneBinIndex,
    /// Joint-grid scratch is reused across pairs without a reset.
    StaleGridScratch,
    /// The last partial null batch reuses the previous batch's grids
    /// without a reset.
    StaleBatchTail,
}

impl KernelMutation {
    /// Every mutation, in self-check order.
    pub const ALL: [KernelMutation; 4] = [
        Self::DroppedPaddingZeroing,
        Self::OffByOneBinIndex,
        Self::StaleGridScratch,
        Self::StaleBatchTail,
    ];

    /// Short stable name used in conformance reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::DroppedPaddingZeroing => "dropped-padding-zeroing",
            Self::OffByOneBinIndex => "off-by-one-bin-index",
            Self::StaleGridScratch => "stale-grid-scratch",
            Self::StaleBatchTail => "stale-batch-tail",
        }
    }
}

/// A stateful evaluator that computes vector-kernel MI *with* one injected
/// defect. State (the grids [`KernelMutation::StaleGridScratch`] never
/// clears between pairs) persists across calls, exactly like the scratch
/// reuse it models.
#[derive(Clone, Debug)]
pub struct MutatedVectorKernel {
    mutation: KernelMutation,
    /// [`BATCH`] `bins × stride` joint grids, one after another.
    grids: Vec<f32>,
    bins: usize,
    stride: usize,
}

impl MutatedVectorKernel {
    /// An evaluator injecting `mutation`.
    pub fn new(mutation: KernelMutation) -> Self {
        Self {
            mutation,
            grids: Vec::new(),
            bins: 0,
            stride: 0,
        }
    }

    /// Which mutation this evaluator injects.
    pub fn mutation(&self) -> KernelMutation {
        self.mutation
    }

    /// Whether batch `batch` (of `len` pairings) starts from zeroed grids
    /// — the reset each stale-scratch mutation omits somewhere.
    fn resets(&self, batch: usize, len: usize) -> bool {
        match self.mutation {
            KernelMutation::StaleGridScratch => batch > 0,
            KernelMutation::StaleBatchTail => batch == 0 || len == BATCH,
            _ => true,
        }
    }

    /// Observed and null MI (nats) of a prepared pair through the mutated
    /// vector kernel. Mirrors the batched null loop of
    /// [`crate::gene::mi_with_nulls`] — the observed
    /// pass and the nulls, [`BATCH`] grids per pass — over the general
    /// row-FMA loop, with the defect injected.
    ///
    /// # Panics
    /// Panics on shape disagreements between `x`, `y_dense` and `perms`.
    pub fn mi_with_nulls(
        &mut self,
        x: &PreparedGene,
        y: &PreparedGene,
        y_dense: &DenseWeights,
        perms: &RowPerms,
    ) -> PairMi {
        let sx = &x.sparse;
        assert_eq!(sx.samples(), y_dense.samples(), "sample count mismatch");
        assert_eq!(sx.samples(), perms.rows(), "permutation length mismatch");
        assert_eq!(sx.bins(), y_dense.bins(), "bin count mismatch");
        let bins = y_dense.bins();
        let stride = y_dense.stride();
        let k = sx.order();
        let len = bins * stride;
        if self.bins != bins || self.stride != stride {
            self.bins = bins;
            self.stride = stride;
            self.grids = vec![0.0; BATCH * len];
        }

        // A poisoned copy of y's dense rows: what the expansion would hold
        // if the padding columns were never zeroed.
        let poisoned = if self.mutation == KernelMutation::DroppedPaddingZeroing {
            let mut p = y_dense.clone();
            for s in 0..p.samples() {
                let row = p.row_mut(s);
                for v in &mut row[bins..] {
                    *v = 0.25;
                }
            }
            Some(p)
        } else {
            None
        };
        let y_rows = poisoned.as_ref().unwrap_or(y_dense);

        let sources: Vec<Option<&[u32]>> = core::iter::once(None)
            .chain(perms.iter().map(|p| Some(p.as_slice())))
            .collect();
        let mut values = Vec::with_capacity(sources.len());
        for (batch, lanes) in sources.chunks(BATCH).enumerate() {
            let reset = self.resets(batch, lanes.len());
            let grids = &mut self.grids[..lanes.len() * len];
            if reset {
                grids.fill(0.0);
            }
            for (grid, perm) in grids.chunks_exact_mut(len).zip(lanes) {
                for s in 0..sx.samples() {
                    let fx = match self.mutation {
                        // One row too high, clamped so the write stays in
                        // bounds — the bug corrupts values, not memory.
                        KernelMutation::OffByOneBinIndex => (sx.first_bin(s) + 1).min(bins - k),
                        _ => sx.first_bin(s),
                    };
                    let y_row = y_rows.row(perm.map_or(s, |p| p[s] as usize)); // cast-ok: u32 to usize widens losslessly
                    for (i, &wxi) in sx.sample_weights(s).iter().enumerate() {
                        let row = &mut grid[(fx + i) * stride..(fx + i + 1) * stride];
                        for (cell, &yv) in row.iter_mut().zip(y_row) {
                            *cell += wxi * yv;
                        }
                    }
                }
                // cast-ok: sample counts are far below f64's 2^53 exact-integer range
                let hxy = entropy_from_counts(grid, sx.samples() as f64);
                values.push(x.h_marginal + y.h_marginal - hxy);
            }
        }
        let null = values.split_off(1);
        PairMi {
            observed: values[0],
            null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gene::{mi_with_nulls, prepare_gene, MiKernel, MiScratch};
    use gnet_bspline::BsplineBasis;
    use gnet_expr::synth;

    fn prepared_pair(seed: u64, m: usize) -> (PreparedGene, PreparedGene) {
        let matrix = synth::independent_gaussian(2, m, seed);
        let b = BsplineBasis::tinge_default();
        (
            prepare_gene(matrix.gene(0), &b),
            prepare_gene(matrix.gene(1), &b),
        )
    }

    /// `q` rotations of `0..m` — one full batch plus a one-grid tail for
    /// q = 4.
    fn rotations(m: usize, q: usize) -> RowPerms {
        let perms = (1..=q)
            .map(|r| (0..m).map(|s| ((s + r) % m) as u32).collect())
            .collect();
        RowPerms::new(m, perms).expect("rotations are in range")
    }

    fn worst_gap(a: &PairMi, b: &PairMi) -> f64 {
        core::iter::once((a.observed, b.observed))
            .chain(a.null.iter().copied().zip(b.null.iter().copied()))
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn every_mutation_diverges_from_the_true_kernel() {
        let (x, y) = prepared_pair(11, 120);
        let yd = y.to_dense();
        let perms = rotations(120, 4);
        let mut scratch = MiScratch::for_basis(&BsplineBasis::tinge_default());
        let truth = mi_with_nulls(
            MiKernel::VectorDense,
            &x,
            &y,
            Some(&yd),
            &perms,
            &mut scratch,
        );
        for mutation in KernelMutation::ALL {
            let mut mutant = MutatedVectorKernel::new(mutation);
            // Stale scratch is only observable from the second pair on.
            let first = mutant.mi_with_nulls(&x, &y, &yd, &perms);
            let second = mutant.mi_with_nulls(&x, &y, &yd, &perms);
            let worst = worst_gap(&first, &truth).max(worst_gap(&second, &truth));
            assert!(
                worst > 1e-3,
                "{}: mutated MI {first:?}/{second:?} vs true {truth:?} — not detectable",
                mutation.name()
            );
        }
    }

    #[test]
    fn stale_batch_tail_corrupts_only_the_tail_nulls() {
        let (x, y) = prepared_pair(3, 90);
        let yd = y.to_dense();
        let perms = rotations(90, 5); // batches of 4 + 2
        let mut scratch = MiScratch::for_basis(&BsplineBasis::tinge_default());
        let truth = mi_with_nulls(
            MiKernel::VectorDense,
            &x,
            &y,
            Some(&yd),
            &perms,
            &mut scratch,
        );
        let got = MutatedVectorKernel::new(KernelMutation::StaleBatchTail)
            .mi_with_nulls(&x, &y, &yd, &perms);
        assert!((got.observed - truth.observed).abs() < 1e-6);
        for q in 0..3 {
            assert!(
                (got.null[q] - truth.null[q]).abs() < 1e-6,
                "null {q} is in a full batch"
            );
        }
        for q in 3..5 {
            assert!(
                (got.null[q] - truth.null[q]).abs() > 1e-3,
                "tail null {q} must be stale"
            );
        }
    }

    #[test]
    fn unmutated_loop_matches_the_real_kernel() {
        // The mutated evaluator's baseline loop (defect aside) must be the
        // real batched null loop — otherwise a detection could be an
        // artifact of the reimplementation rather than the defect. A
        // fresh StaleGridScratch evaluator's FIRST pair has clean grids
        // and no defect.
        let (x, y) = prepared_pair(5, 77);
        let yd = y.to_dense();
        let perms = rotations(77, 6);
        let mut scratch = MiScratch::for_basis(&BsplineBasis::tinge_default());
        let truth = mi_with_nulls(
            MiKernel::VectorDense,
            &x,
            &y,
            Some(&yd),
            &perms,
            &mut scratch,
        );
        let mut mutant = MutatedVectorKernel::new(KernelMutation::StaleGridScratch);
        let first = mutant.mi_with_nulls(&x, &y, &yd, &perms);
        assert!(
            worst_gap(&first, &truth) < 1e-6,
            "baseline loop diverges: {first:?} vs {truth:?}"
        );
    }
}
