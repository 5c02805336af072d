//! Seeded permutation generation (Fisher–Yates) and the shared set.

use core::fmt;

use gnet_simd::{RowPerms, RowPermsError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Content, Deserialize, Serialize};

/// Draw a uniform random permutation of `0..m` with Fisher–Yates.
pub fn fisher_yates(m: usize, rng: &mut StdRng) -> Vec<u32> {
    let m32 = u32::try_from(m).expect("sample count fits the u32 permutation domain");
    let mut p: Vec<u32> = (0..m32).collect();
    // Classic downward Fisher–Yates: swap i with a uniform j ≤ i.
    for i in (1..m).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// Check that `p` is a bijection of `0..m`.
pub fn is_permutation(p: &[u32]) -> bool {
    let m = p.len();
    let mut seen = vec![false; m];
    for &v in p {
        let v = v as usize;
        if v >= m || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    true
}

/// The shared set of `q` permutations of the sample index space, drawn once
/// from a seed and reused for every gene pair.
///
/// Every way to build one yields bijections of `0..samples`:
/// [`PermutationSet::generate`] draws them, and deserialization checks
/// them through [`PermutationSet::try_from`]. The set holds them as a
/// [`RowPerms`], whose range proof the joint kernels rely on instead of
/// re-checking indices per call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PermutationSet {
    seed: u64,
    perms: RowPerms,
}

/// The serialized form of a [`PermutationSet`]: plain fields, unchecked.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PermutationSetWire {
    /// Sample-space size `m`.
    pub samples: usize,
    /// Seed the set was drawn from.
    pub seed: u64,
    /// The permutations.
    pub perms: Vec<Vec<u32>>,
}

/// Why a decoded permutation set was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PermutationSetError {
    /// A permutation has the wrong length or an index `>= samples`.
    Rows(RowPermsError),
    /// Permutation `perm` repeats a sample index.
    NotABijection {
        /// Which permutation.
        perm: usize,
    },
}

impl fmt::Display for PermutationSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rows(e) => write!(f, "invalid permutation set: {e}"),
            Self::NotABijection { perm } => {
                write!(
                    f,
                    "invalid permutation set: permutation {perm} repeats an index"
                )
            }
        }
    }
}

impl std::error::Error for PermutationSetError {}

impl TryFrom<PermutationSetWire> for PermutationSet {
    type Error = PermutationSetError;

    fn try_from(wire: PermutationSetWire) -> Result<Self, Self::Error> {
        let perms = RowPerms::new(wire.samples, wire.perms).map_err(PermutationSetError::Rows)?;
        if let Some(perm) = perms.iter().position(|p| !is_permutation(p.as_slice())) {
            return Err(PermutationSetError::NotABijection { perm });
        }
        Ok(Self {
            seed: wire.seed,
            perms,
        })
    }
}

impl From<&PermutationSet> for PermutationSetWire {
    fn from(set: &PermutationSet) -> Self {
        Self {
            samples: set.samples(),
            seed: set.seed,
            perms: set.perms.iter().map(|p| p.as_slice().to_vec()).collect(),
        }
    }
}

impl Serialize for PermutationSet {
    fn serialize(&self) -> Content {
        PermutationSetWire::from(self).serialize()
    }
}

impl Deserialize for PermutationSet {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        Self::try_from(PermutationSetWire::deserialize(content)?).map_err(serde::Error::custom)
    }
}

impl PermutationSet {
    /// Draw `q` permutations of `0..samples` from `seed`.
    ///
    /// ```
    /// use gnet_permute::PermutationSet;
    /// let set = PermutationSet::generate(100, 30, 42);
    /// assert_eq!(set.len(), 30);
    /// assert_eq!(set.get(0).len(), 100);
    /// // Deterministic per seed:
    /// assert_eq!(set, PermutationSet::generate(100, 30, 42));
    /// ```
    ///
    /// Identity permutations are rejected and redrawn (they would make the
    /// observed value one of its own nulls); for `samples < 2` no
    /// non-identity permutation exists, so `q` must then be zero.
    ///
    /// # Panics
    /// Panics if `samples < 2` while `q > 0`.
    pub fn generate(samples: usize, q: usize, seed: u64) -> Self {
        assert!(
            q == 0 || samples >= 2,
            "cannot draw non-identity permutations of fewer than 2 samples"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perms = Vec::with_capacity(q);
        while perms.len() < q {
            let p = fisher_yates(samples, &mut rng);
            let identity = p.iter().enumerate().all(|(i, &v)| v as usize == i);
            if !identity {
                perms.push(p);
            }
        }
        Self {
            seed,
            perms: RowPerms::new(samples, perms)
                .expect("Fisher–Yates draws permutations of 0..samples"),
        }
    }

    /// Number of permutations `q`.
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// True when `q == 0` (permutation testing disabled).
    pub fn is_empty(&self) -> bool {
        self.perms.is_empty()
    }

    /// Sample-space size `m` the permutations act on.
    pub fn samples(&self) -> usize {
        self.perms.rows()
    }

    /// Seed the set was drawn from (recorded for reproducibility).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Permutation `i`.
    pub fn get(&self, i: usize) -> &[u32] {
        self.perms.get(i).as_slice()
    }

    /// All permutations, in draw order, with their range proof — the
    /// shape `mi_with_nulls` expects.
    pub fn as_vecs(&self) -> &RowPerms {
        &self.perms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fisher_yates_produces_bijections() {
        let mut rng = StdRng::seed_from_u64(1);
        for m in [1usize, 2, 3, 10, 257] {
            let p = fisher_yates(m, &mut rng);
            assert_eq!(p.len(), m);
            assert!(is_permutation(&p));
        }
    }

    #[test]
    fn fisher_yates_is_roughly_uniform() {
        // Over many draws of permutations of 3, each of the 6 arrangements
        // should appear ≈ 1/6 of the time.
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = std::collections::HashMap::new();
        let draws = 6000;
        for _ in 0..draws {
            let p = fisher_yates(3, &mut rng);
            *counts.entry(p).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 6, "all 6 permutations must occur");
        for (p, &c) in &counts {
            let freq = c as f64 / draws as f64;
            assert!(
                (freq - 1.0 / 6.0).abs() < 0.03,
                "permutation {p:?} frequency {freq}"
            );
        }
    }

    #[test]
    fn is_permutation_rejects_invalid() {
        assert!(is_permutation(&[0, 1, 2]));
        assert!(is_permutation(&[]));
        assert!(!is_permutation(&[0, 0, 2]), "duplicate");
        assert!(!is_permutation(&[0, 3, 1]), "out of range");
    }

    #[test]
    fn set_is_deterministic_per_seed() {
        let a = PermutationSet::generate(50, 10, 42);
        let b = PermutationSet::generate(50, 10, 42);
        let c = PermutationSet::generate(50, 10, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10);
        assert_eq!(a.samples(), 50);
        assert_eq!(a.seed(), 42);
    }

    #[test]
    fn set_contains_no_identity() {
        // With m = 2 half of all draws are the identity, so rejection is
        // exercised hard here.
        let set = PermutationSet::generate(2, 20, 3);
        for i in 0..set.len() {
            assert_eq!(set.get(i), &[1, 0], "only non-identity permutation of 2");
        }
    }

    #[test]
    fn empty_set_is_allowed() {
        let set = PermutationSet::generate(10, 0, 1);
        assert!(set.is_empty());
        let degenerate = PermutationSet::generate(1, 0, 1);
        assert!(degenerate.is_empty());
    }

    #[test]
    #[should_panic(expected = "fewer than 2 samples")]
    fn tiny_sample_space_with_q_panics() {
        let _ = PermutationSet::generate(1, 5, 1);
    }

    fn wire(samples: usize, perms: Vec<Vec<u32>>) -> Content {
        PermutationSetWire {
            samples,
            seed: 9,
            perms,
        }
        .serialize()
    }

    #[test]
    fn serde_round_trips_a_generated_set() {
        let set = PermutationSet::generate(40, 6, 8);
        assert_eq!(PermutationSet::deserialize(&set.serialize()), Ok(set));
    }

    #[test]
    fn decoding_rejects_an_out_of_range_index() {
        let err = PermutationSet::try_from(PermutationSetWire {
            samples: 3,
            seed: 1,
            perms: vec![vec![2, 0, 1], vec![0, 3, 1]],
        });
        assert_eq!(
            err,
            Err(PermutationSetError::Rows(RowPermsError::OutOfRange {
                perm: 1,
                sample: 1,
                index: 3,
                rows: 3
            }))
        );
        let decoded = PermutationSet::deserialize(&wire(3, vec![vec![0, 3, 1]]));
        assert!(decoded.is_err_and(|e| e.to_string().contains("outside 0..3")));
    }

    #[test]
    fn decoding_rejects_a_wrong_length_permutation() {
        let err = PermutationSet::try_from(PermutationSetWire {
            samples: 3,
            seed: 1,
            perms: vec![vec![1, 0]],
        });
        assert_eq!(
            err,
            Err(PermutationSetError::Rows(RowPermsError::Length {
                perm: 0,
                len: 2,
                rows: 3
            }))
        );
        assert!(PermutationSet::deserialize(&wire(3, vec![vec![1, 0]])).is_err());
    }

    #[test]
    fn decoding_rejects_a_repeated_index() {
        let err = PermutationSet::deserialize(&wire(3, vec![vec![1, 0, 2], vec![1, 1, 2]]));
        assert!(err.is_err_and(|e| e.to_string().contains("permutation 1 repeats")));
    }

    proptest! {
        #[test]
        fn prop_generated_sets_are_bijections(m in 2usize..100, q in 1usize..20, seed: u64) {
            let set = PermutationSet::generate(m, q, seed);
            prop_assert_eq!(set.len(), q);
            for i in 0..q {
                prop_assert!(is_permutation(set.get(i)));
            }
        }
    }
}
