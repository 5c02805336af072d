//! Inputs of the batched joint-histogram kernel, each proven in range
//! once, where it is built.
//!
//! [`crate::slice_ops::joint_accumulate_w16_batch`] reads grid and `y`
//! rows through raw pointers. Its bounds rest on two facts:
//!
//! * every permutation index is below the number of `y` rows —
//!   [`RowPerms`] checks this once, when the shared permutation set is
//!   built, and hands out [`PermRow`]s that carry the proof;
//! * every sample's `k`-row window fits the grid — [`BinWindows`] checks
//!   this once per gene pair.
//!
//! A call then needs only O(1) shape checks, instead of re-scanning all
//! `m` indices on every evaluation.

use core::fmt;

use crate::slice_ops::W;

/// Most joint grids one batched call accumulates. One pass over `x`'s
/// samples feeds this many grids, so each sample's first bin and weights
/// are loaded once per batch.
pub const BATCH: usize = 4;

/// A permutation whose every index is proven below [`PermRow::rows`].
/// Only [`RowPerms::get`] and the checked [`PermRow::new`] make one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PermRow<'a> {
    idx: &'a [u32],
    rows: usize,
}

impl<'a> PermRow<'a> {
    /// Check every index of `idx` against `rows` (O(m)).
    ///
    /// # Panics
    /// Panics with "perm index out of range" if an index is `>= rows`.
    pub fn new(idx: &'a [u32], rows: usize) -> Self {
        for &i in idx {
            let i = i as usize; // cast-ok: u32 to usize widens losslessly
            assert!(i < rows, "joint_accumulate_w16: perm index out of range");
        }
        Self { idx, rows }
    }

    /// The indices.
    pub fn as_slice(self) -> &'a [u32] {
        self.idx
    }

    /// Number of indices (the sample count it pairs with).
    pub fn len(self) -> usize {
        self.idx.len()
    }

    /// True for an empty permutation.
    pub fn is_empty(self) -> bool {
        self.idx.is_empty()
    }

    /// Every index is below this row count.
    pub fn rows(self) -> usize {
        self.rows
    }
}

/// Where one grid of a batch reads its `y` rows from: sample `s` pairs
/// with row `s`, or with row `perm[s]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowSource<'a> {
    /// The observed pairing.
    Identity,
    /// A null pairing through a proven permutation.
    Permuted(PermRow<'a>),
}

/// Why a set of row permutations was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RowPermsError {
    /// Permutation `perm` has `len` entries instead of `rows`.
    Length {
        /// Which permutation.
        perm: usize,
        /// Its length.
        len: usize,
        /// The row count every permutation must match.
        rows: usize,
    },
    /// Entry `sample` of permutation `perm` names row `index >= rows`.
    OutOfRange {
        /// Which permutation.
        perm: usize,
        /// Which entry.
        sample: usize,
        /// The offending row index.
        index: u32,
        /// The row count.
        rows: usize,
    },
}

impl fmt::Display for RowPermsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Length { perm, len, rows } => {
                write!(f, "permutation {perm} has {len} entries, expected {rows}")
            }
            Self::OutOfRange {
                perm,
                sample,
                index,
                rows,
            } => write!(
                f,
                "permutation {perm} maps sample {sample} to row {index}, outside 0..{rows}"
            ),
        }
    }
}

impl std::error::Error for RowPermsError {}

/// A set of permutations of `0..rows`, each of length `rows` with every
/// index `< rows`, checked once in [`RowPerms::new`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowPerms {
    rows: usize,
    perms: Vec<Vec<u32>>,
}

impl RowPerms {
    /// Check and take `perms`.
    ///
    /// # Errors
    /// The first permutation with the wrong length or an index `>= rows`.
    pub fn new(rows: usize, perms: Vec<Vec<u32>>) -> Result<Self, RowPermsError> {
        for (perm, p) in perms.iter().enumerate() {
            if p.len() != rows {
                return Err(RowPermsError::Length {
                    perm,
                    len: p.len(),
                    rows,
                });
            }
            // cast-ok: u32 to usize widens losslessly
            if let Some(sample) = p.iter().position(|&i| i as usize >= rows) {
                return Err(RowPermsError::OutOfRange {
                    perm,
                    sample,
                    index: p[sample],
                    rows,
                });
            }
        }
        Ok(Self { rows, perms })
    }

    /// The row count `m` every permutation acts on.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of permutations `q`.
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// True when there are no permutations.
    pub fn is_empty(&self) -> bool {
        self.perms.is_empty()
    }

    /// Permutation `i`, carrying its range proof.
    pub fn get(&self, i: usize) -> PermRow<'_> {
        PermRow {
            idx: &self.perms[i],
            rows: self.rows,
        }
    }

    /// Every permutation, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PermRow<'_>> {
        self.perms.iter().map(|p| PermRow {
            idx: p,
            rows: self.rows,
        })
    }
}

/// One gene's per-sample windows — a first bin and `k` weights per
/// sample — proven to fit a grid of `rows` rows: `first_bins[s] + k <=
/// rows` for every `s`, and `k` weights per sample.
#[derive(Clone, Copy, Debug)]
pub struct BinWindows<'a> {
    first_bins: &'a [u16],
    weights: &'a [f32],
    k: usize,
    rows: usize,
}

impl<'a> BinWindows<'a> {
    /// Check the windows against a `rows`-row grid (O(m)).
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds 16, if `weights.len() !=
    /// first_bins.len() * k`, or if any `first_bins[s] + k > rows`.
    pub fn new(first_bins: &'a [u16], weights: &'a [f32], k: usize, rows: usize) -> Self {
        assert!(
            (1..=W).contains(&k),
            "joint_accumulate_w16: order {k} outside 1..={W}"
        );
        assert_eq!(
            weights.len(),
            first_bins.len() * k,
            "joint_accumulate_w16: weights shape"
        );
        // cast-ok: u16 to usize widens losslessly
        let last = first_bins.iter().map(|&fb| fb as usize).max().unwrap_or(0);
        assert!(
            first_bins.is_empty() || last + k <= rows,
            "joint_accumulate_w16: bin row out of range"
        );
        Self {
            first_bins,
            weights,
            k,
            rows,
        }
    }

    /// Number of samples `m`.
    pub fn samples(&self) -> usize {
        self.first_bins.len()
    }

    /// Spline order `k`.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Grid rows the windows fit.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// First bin per sample.
    pub fn first_bins(&self) -> &'a [u16] {
        self.first_bins
    }

    /// `k` weights per sample, sample-major.
    pub fn weights(&self) -> &'a [f32] {
        self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_perms_accept_in_range_permutations() {
        let set = RowPerms::new(3, vec![vec![2, 0, 1], vec![1, 2, 0]]).expect("valid");
        assert_eq!(set.rows(), 3);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(1).as_slice(), &[1, 2, 0]);
        assert_eq!(set.iter().map(|p| p.rows()).collect::<Vec<_>>(), [3, 3]);
        assert!(RowPerms::new(5, Vec::new()).expect("empty").is_empty());
    }

    #[test]
    fn row_perms_reject_out_of_range_and_wrong_length() {
        assert_eq!(
            RowPerms::new(3, vec![vec![0, 1, 2], vec![0, 3, 1]]),
            Err(RowPermsError::OutOfRange {
                perm: 1,
                sample: 1,
                index: 3,
                rows: 3
            })
        );
        assert_eq!(
            RowPerms::new(3, vec![vec![0, 1]]),
            Err(RowPermsError::Length {
                perm: 0,
                len: 2,
                rows: 3
            })
        );
    }

    #[test]
    #[should_panic(expected = "perm index out of range")]
    fn perm_row_rejects_out_of_range() {
        let _ = PermRow::new(&[0, 4], 4);
    }

    #[test]
    #[should_panic(expected = "bin row out of range")]
    fn bin_windows_reject_overflowing_bin() {
        let _ = BinWindows::new(&[0, 3], &[1.0, 0.0, 1.0, 0.0], 2, 4);
    }

    #[test]
    #[should_panic(expected = "weights shape")]
    fn bin_windows_reject_wrong_weight_count() {
        let _ = BinWindows::new(&[0, 1], &[1.0, 0.0, 1.0], 2, 4);
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn bin_windows_reject_zero_order() {
        let _ = BinWindows::new(&[], &[], 0, 4);
    }
}
