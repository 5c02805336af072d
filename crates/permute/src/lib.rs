//! Permutation testing for MI-network significance, TINGe style.
//!
//! TINGe assesses whether an observed mutual-information value could have
//! arisen by chance by comparing it against the MI of the same pair after
//! randomly permuting one gene's samples. Its two structural decisions —
//! both reproduced here — are what make the test affordable at
//! whole-genome scale:
//!
//! 1. **Shared permutations.** One fixed set of `q` permutations is drawn
//!    up front and reused for *every* pair ([`PermutationSet`]). The test
//!    stays exact per pair (any fixed permutation of an exchangeable null
//!    is valid), while the permuted weight matrices become reusable,
//!    batchable inputs for the vector kernel.
//! 2. **Pooled global threshold.** Per-pair exceedance alone cannot reach
//!    family-wise significance over `n(n−1)/2 ≈ 10⁸` tests with feasible
//!    `q`. TINGe therefore pools all `q · pairs` null MI values, models the
//!    pooled null, and derives one corrected threshold `I*`
//!    ([`PooledNull::global_threshold`]); an edge must beat its own `q`
//!    nulls *and* `I*`.

#![warn(missing_docs)]

pub mod normal;
pub mod permutation;
pub mod significance;

pub use permutation::{PermutationSet, PermutationSetError, PermutationSetWire};
pub use significance::{empirical_p_value, EdgeTest, PooledNull};
