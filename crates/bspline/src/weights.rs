//! Per-gene B-spline weight matrices in the two layouts the MI kernels use.
//!
//! For a gene with `m` normalized samples, the estimator needs the basis
//! weights of every sample. The paper's central data-layout insight is that
//! the *same* information stored two ways has very different kernels:
//!
//! * [`SparseWeights`] — `m × k` weights plus a first-bin index per sample.
//!   Minimal memory and flops; the joint-histogram update is a `k × k`
//!   scatter per sample, which does not vectorize (gather/scatter on KNC is
//!   slow). This is the layout behind the scalar baseline kernel.
//! * [`DenseWeights`] — `m × b` with zeros outside the `k`-wide window,
//!   stored row-major (sample-major). The joint histogram for a pair is
//!   then `P = Xᵀ·Y / m`, a small dense GEMM whose inner loop streams over
//!   samples with FMA lanes — the restructuring that unlocks the Phi's
//!   512-bit unit. Rows are padded to a lane multiple so kernels need no
//!   tail handling.

use crate::basis::{BsplineBasis, MAX_ORDER};
use gnet_simd::lanes::F32x16;
use gnet_simd::AlignedVec;

/// Compact per-gene weight matrix: `k` weights + first-bin index per sample.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseWeights {
    /// Spline order `k` (weights per sample).
    order: usize,
    /// Number of bins `b` (bound for `first_bin[s] + k`).
    bins: usize,
    /// Number of samples `m`.
    samples: usize,
    /// `m` first-bin indices.
    first_bin: Vec<u16>,
    /// `m × k` weights, sample-major.
    weights: Vec<f32>,
}

impl SparseWeights {
    /// Compute the weight matrix of one gene from its normalized samples
    /// (each in `[0, 1]`; rank transformation upstream guarantees this).
    pub fn from_normalized(values: &[f32], basis: &BsplineBasis) -> Self {
        let k = basis.order();
        let mut first_bin = Vec::with_capacity(values.len());
        let mut weights = Vec::with_capacity(values.len() * k);
        for &x in values {
            let z = basis.sample_to_domain(x);
            let (first, w) = basis.eval_nonzero(z);
            first_bin.push(u16::try_from(first).expect("first + order <= bins <= 64 fits u16"));
            weights.extend_from_slice(&w[..k]);
        }
        Self {
            order: k,
            bins: basis.bins(),
            samples: values.len(),
            first_bin,
            weights,
        }
    }

    /// Spline order `k`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of bins `b`.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of samples `m`.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// First-bin index of sample `s`.
    #[inline(always)]
    pub fn first_bin(&self, s: usize) -> usize {
        self.first_bin[s] as usize // cast-ok: u16 to usize widens losslessly
    }

    /// The `k` weights of sample `s`.
    #[inline(always)]
    pub fn sample_weights(&self, s: usize) -> &[f32] {
        &self.weights[s * self.order..(s + 1) * self.order]
    }

    /// Marginal bin distribution `p[u] = (1/m) Σ_s w_s[u]`.
    pub fn marginal(&self) -> Vec<f32> {
        let mut p = vec![0.0f32; self.bins];
        for s in 0..self.samples {
            let fb = self.first_bin(s);
            for (j, &w) in self.sample_weights(s).iter().enumerate() {
                p[fb + j] += w;
            }
        }
        // cast-ok: sample counts are far below f32's 2^24 exact-integer range
        let inv_m = 1.0 / self.samples as f32;
        for v in &mut p {
            *v *= inv_m;
        }
        p
    }

    /// Reorder samples by a permutation: sample `s` of the result is sample
    /// `perm[s]` of `self`. Used by the permutation-testing null.
    ///
    /// # Panics
    /// Panics if `perm.len() != samples` or an index is out of range.
    pub fn permuted(&self, perm: &[u32]) -> Self {
        assert_eq!(perm.len(), self.samples, "permutation length mismatch");
        let k = self.order;
        let mut first_bin = Vec::with_capacity(self.samples);
        let mut weights = Vec::with_capacity(self.samples * k);
        for &src in perm {
            let s = src as usize; // cast-ok: u32 to usize widens losslessly
            first_bin.push(self.first_bin[s]);
            weights.extend_from_slice(self.sample_weights(s));
        }
        Self {
            first_bin,
            weights,
            ..*self
        }
    }

    /// Expand into the dense, lane-padded layout.
    pub fn to_dense(&self) -> DenseWeights {
        let mut dense = DenseWeights::zeroed(self.samples, self.bins);
        for s in 0..self.samples {
            let fb = self.first_bin(s);
            let row = dense.row_mut(s);
            for (j, &w) in self.sample_weights(s).iter().enumerate() {
                row[fb + j] = w;
            }
        }
        dense
    }

    /// Approximate heap footprint in bytes (used by the tile-size planner).
    pub fn heap_bytes(&self) -> usize {
        self.first_bin.len() * core::mem::size_of::<u16>()
            + self.weights.len() * core::mem::size_of::<f32>()
    }

    /// The flat first-bin index array (`m` entries) — for wire codecs.
    pub fn first_bins_flat(&self) -> &[u16] {
        &self.first_bin
    }

    /// The flat weight array (`m × k` entries, sample-major) — for wire
    /// codecs.
    pub fn weights_flat(&self) -> &[f32] {
        &self.weights
    }

    /// Reassemble from raw parts (the inverse of the flat accessors),
    /// validating every invariant. Used by the cluster substrate to
    /// deserialize shipped weight matrices.
    ///
    /// # Panics
    /// Panics on any shape or range violation.
    pub fn from_raw_parts(
        order: usize,
        bins: usize,
        samples: usize,
        first_bin: Vec<u16>,
        weights: Vec<f32>,
    ) -> Self {
        match Self::try_from_raw_parts(order, bins, samples, first_bin, weights) {
            Ok(w) => w,
            Err(reason) => panic!("{reason}"),
        }
    }

    /// Fallible [`Self::from_raw_parts`] for codecs that must map corrupt
    /// on-disk weight sections to typed decode errors instead of panicking.
    ///
    /// # Errors
    /// Returns a description of the first shape or range violation.
    pub fn try_from_raw_parts(
        order: usize,
        bins: usize,
        samples: usize,
        first_bin: Vec<u16>,
        weights: Vec<f32>,
    ) -> Result<Self, String> {
        if !(1..=crate::basis::MAX_ORDER).contains(&order) {
            return Err(format!("bad order {order}"));
        }
        if bins < order {
            return Err(format!("bins {bins} below order {order}"));
        }
        if first_bin.len() != samples {
            return Err(format!(
                "one first-bin index per sample: got {} for {samples} samples",
                first_bin.len()
            ));
        }
        if weights.len() != samples * order {
            return Err(format!(
                "k weights per sample: got {} for {samples} samples at order {order}",
                weights.len()
            ));
        }
        for &fb in &first_bin {
            // cast-ok: u16 to usize widens losslessly
            if fb as usize + order > bins {
                return Err(format!(
                    "first bin {fb} overruns the {bins}-bin grid at order {order}"
                ));
            }
        }
        Ok(Self {
            order,
            bins,
            samples,
            first_bin,
            weights,
        })
    }
}

/// Dense, zero-padded per-gene weight matrix (`m` rows × `b` columns, each
/// row padded to a multiple of the lane width). The buffer starts on a
/// 64-byte boundary, so every 16-float row fills exactly one cache line.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseWeights {
    samples: usize,
    bins: usize,
    /// Row stride ≥ bins, a multiple of `F32x16::LANES`.
    stride: usize,
    /// `samples × stride`, row-major; padding columns are zero.
    data: AlignedVec,
}

impl DenseWeights {
    /// All-zero matrix with lane-padded rows.
    pub fn zeroed(samples: usize, bins: usize) -> Self {
        let lanes = F32x16::LANES;
        let stride = bins.div_ceil(lanes) * lanes;
        Self {
            samples,
            bins,
            stride,
            data: AlignedVec::zeroed(samples * stride),
        }
    }

    /// Number of samples `m` (rows).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of bins `b` (meaningful columns).
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Padded row stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `s` including padding columns.
    #[inline(always)]
    pub fn row(&self, s: usize) -> &[f32] {
        &self.data[s * self.stride..(s + 1) * self.stride]
    }

    /// Mutable row `s` including padding columns.
    #[inline(always)]
    pub fn row_mut(&mut self, s: usize) -> &mut [f32] {
        &mut self.data[s * self.stride..(s + 1) * self.stride]
    }

    /// Whole backing slice (rows × stride).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Column `u` gathered into a contiguous vector (samples-long). The
    /// vectorized joint kernel uses column views to stream over samples.
    pub fn column(&self, u: usize) -> Vec<f32> {
        assert!(u < self.bins, "column {u} out of range");
        (0..self.samples)
            .map(|s| self.data[s * self.stride + u])
            .collect()
    }

    /// Marginal bin distribution `p[u] = (1/m) Σ_s row_s[u]`.
    pub fn marginal(&self) -> Vec<f32> {
        let mut p = vec![0.0f32; self.bins];
        for s in 0..self.samples {
            let row = self.row(s);
            for (u, acc) in p.iter_mut().enumerate() {
                *acc += row[u];
            }
        }
        // cast-ok: sample counts are far below f32's 2^24 exact-integer range
        let inv_m = 1.0 / self.samples as f32;
        for v in &mut p {
            *v *= inv_m;
        }
        p
    }

    /// Reorder rows by a permutation: row `s` of the result is row
    /// `perm[s]` of `self`.
    ///
    /// # Panics
    /// Panics if `perm.len() != samples`.
    pub fn permuted(&self, perm: &[u32]) -> Self {
        assert_eq!(perm.len(), self.samples, "permutation length mismatch");
        let mut out = Self::zeroed(self.samples, self.bins);
        for (dst, &src) in perm.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src as usize)); // cast-ok: u32 to usize widens losslessly
        }
        out
    }

    /// Column-major transpose of the padded matrix: `stride` rows of
    /// `samples_padded` entries, samples padded to a lane multiple. This is
    /// the layout the batched pair kernel streams over (lanes run across
    /// samples).
    pub fn transposed_columns(&self) -> TransposedWeights {
        let lanes = F32x16::LANES;
        let spad = self.samples.div_ceil(lanes) * lanes;
        let mut data = vec![0.0f32; self.bins * spad];
        for s in 0..self.samples {
            let row = self.row(s);
            for u in 0..self.bins {
                data[u * spad + s] = row[u];
            }
        }
        TransposedWeights {
            bins: self.bins,
            samples: self.samples,
            samples_padded: spad,
            data,
        }
    }

    /// Approximate heap footprint in bytes (alignment slack excluded).
    pub fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
    }
}

/// Column-major (bin-major) weight matrix: for each bin `u`, a contiguous,
/// zero-padded vector of that bin's weight across all samples.
///
/// `P[u][v] = Σ_s X.col(u)[s] · Y.col(v)[s]` becomes a plain lane dot
/// product of two contiguous streams — the exact shape of the paper's
/// vectorized inner loop.
#[derive(Clone, Debug, PartialEq)]
pub struct TransposedWeights {
    bins: usize,
    samples: usize,
    samples_padded: usize,
    /// `bins × samples_padded`, bin-major.
    data: Vec<f32>,
}

impl TransposedWeights {
    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of live samples (excluding padding).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Padded sample count (a lane multiple).
    pub fn samples_padded(&self) -> usize {
        self.samples_padded
    }

    /// The zero-padded sample stream of bin `u`.
    #[inline(always)]
    pub fn bin_stream(&self, u: usize) -> &[f32] {
        &self.data[u * self.samples_padded..(u + 1) * self.samples_padded]
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<f32>()
    }
}

/// Scratch-reusing batch conversion: weight matrices for many genes at once
/// from a row-major `genes × samples` matrix of normalized values.
pub fn sparse_weights_for_genes(
    normalized: &[f32],
    genes: usize,
    samples: usize,
    basis: &BsplineBasis,
) -> Vec<SparseWeights> {
    assert_eq!(normalized.len(), genes * samples, "matrix shape mismatch");
    let _ = MAX_ORDER; // layout invariant documented in `basis`
    (0..genes)
        .map(|g| SparseWeights::from_normalized(&normalized[g * samples..(g + 1) * samples], basis))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo_values() -> Vec<f32> {
        (0..37).map(|i| i as f32 / 36.0).collect()
    }

    #[test]
    fn sparse_marginal_is_probability_vector() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        let p = w.marginal();
        assert_eq!(p.len(), 10);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "marginal sums to {sum}");
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn dense_and_sparse_marginals_agree() {
        let basis = BsplineBasis::new(4, 12);
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        let d = w.to_dense();
        let ps = w.marginal();
        let pd = d.marginal();
        for (a, b) in ps.iter().zip(&pd) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn dense_rows_are_lane_padded_with_zeros() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis).to_dense();
        assert_eq!(w.stride() % F32x16::LANES, 0);
        for s in 0..w.samples() {
            for &v in &w.row(s)[w.bins()..] {
                assert_eq!(v, 0.0, "padding column must stay zero");
            }
        }
    }

    #[test]
    fn identity_permutation_is_noop() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        let m = u32::try_from(w.samples()).expect("test sample count fits u32");
        let id: Vec<u32> = (0..m).collect();
        assert_eq!(w.permuted(&id), w);
        let d = w.to_dense();
        assert_eq!(d.permuted(&id), d);
    }

    #[test]
    fn permutation_preserves_marginal() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        let m = u32::try_from(w.samples()).expect("test sample count fits u32");
        let perm: Vec<u32> = (0..m).map(|i| (i * 7 + 3) % m).collect(); // 37 prime ⇒ bijection
        let p0 = w.marginal();
        let p1 = w.permuted(&perm).marginal();
        for (a, b) in p0.iter().zip(&p1) {
            assert!(
                (a - b).abs() < 1e-6,
                "marginal must be permutation-invariant"
            );
        }
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn wrong_permutation_length_panics() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        let _ = w.permuted(&[0, 1, 2]);
    }

    #[test]
    fn transposed_columns_match_column_views() {
        let basis = BsplineBasis::new(3, 10);
        let d = SparseWeights::from_normalized(&demo_values(), &basis).to_dense();
        let t = d.transposed_columns();
        assert_eq!(t.samples_padded() % F32x16::LANES, 0);
        for u in 0..d.bins() {
            let col = d.column(u);
            let stream = t.bin_stream(u);
            assert_eq!(&stream[..col.len()], &col[..]);
            assert!(stream[col.len()..].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn batch_conversion_matches_individual() {
        let basis = BsplineBasis::tinge_default();
        let g0: Vec<f32> = (0..20).map(|i| i as f32 / 19.0).collect();
        let g1: Vec<f32> = (0..20).map(|i| ((i * i) % 20) as f32 / 19.0).collect();
        let mut flat = g0.clone();
        flat.extend_from_slice(&g1);
        let batch = sparse_weights_for_genes(&flat, 2, 20, &basis);
        assert_eq!(batch[0], SparseWeights::from_normalized(&g0, &basis));
        assert_eq!(batch[1], SparseWeights::from_normalized(&g1, &basis));
    }

    #[test]
    fn dense_rows_start_on_cache_lines() {
        let aligned = |d: &DenseWeights| (d.as_slice().as_ptr() as usize).is_multiple_of(64);
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        let dense = w.to_dense();
        let m = u32::try_from(w.samples()).expect("test sample count fits u32");
        let perm: Vec<u32> = (0..m).rev().collect();
        assert!(aligned(&DenseWeights::zeroed(37, 10)));
        assert!(aligned(&dense));
        assert!(aligned(&dense.permuted(&perm)));
        assert!(aligned(&dense.clone()));
        // The buffer holds whole rows, so equality, Debug and the heap
        // count see exactly samples × stride floats.
        assert_eq!(dense.as_slice().len(), 37 * dense.stride());
        assert_eq!(dense.clone(), dense);
        assert_eq!(
            format!("{:?}", DenseWeights::zeroed(1, 1)),
            format!(
                "DenseWeights {{ samples: 1, bins: 1, stride: 16, data: {:?} }}",
                [0.0f32; 16]
            )
        );
    }

    #[test]
    fn heap_bytes_are_sane() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        assert_eq!(w.heap_bytes(), 37 * 2 + 37 * 3 * 4);
        let d = w.to_dense();
        assert_eq!(d.heap_bytes(), 37 * d.stride() * 4);
    }

    proptest! {
        #[test]
        fn prop_sample_weights_sum_to_one(
            values in proptest::collection::vec(0.0f32..=1.0, 1..100),
            order in 1usize..=5,
        ) {
            let basis = BsplineBasis::new(order, 10);
            let w = SparseWeights::from_normalized(&values, &basis);
            for s in 0..w.samples() {
                let sum: f32 = w.sample_weights(s).iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(w.first_bin(s) + order <= w.bins());
            }
        }

        #[test]
        fn prop_dense_rows_partition_unity(
            values in proptest::collection::vec(0.0f32..=1.0, 1..100),
            order in 1usize..=5,
        ) {
            // The dense layout stores the same partition of unity as the
            // sparse one: each row's live cells sum to 1, every cell
            // outside the sample's k-wide window — including the lane
            // padding — is exactly 0.0 (bitwise; the kernels' entropy-
            // over-the-whole-slice shortcut depends on it).
            let basis = BsplineBasis::new(order, 10);
            let w = SparseWeights::from_normalized(&values, &basis);
            let d = w.to_dense();
            for s in 0..d.samples() {
                let row = d.row(s);
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4, "row {s} sums to {sum}");
                let fb = w.first_bin(s);
                for (u, &v) in row.iter().enumerate() {
                    if u < fb || u >= fb + order {
                        prop_assert!(
                            v.to_bits() == 0.0f32.to_bits(),
                            "row {s} col {u} outside the window holds {v}"
                        );
                    } else {
                        prop_assert!(v.to_bits() == w.sample_weights(s)[u - fb].to_bits());
                    }
                }
            }
        }

        #[test]
        fn prop_dense_roundtrip_marginal(values in proptest::collection::vec(0.0f32..=1.0, 1..80)) {
            let basis = BsplineBasis::tinge_default();
            let w = SparseWeights::from_normalized(&values, &basis);
            let ps = w.marginal();
            let pd = w.to_dense().marginal();
            for (a, b) in ps.iter().zip(&pd) {
                prop_assert!((a - b).abs() < 1e-5);
            }
        }
    }
}
