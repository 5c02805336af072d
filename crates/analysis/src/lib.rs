//! Workspace-wide correctness tooling: custom source lints, the
//! deterministic scheduler race checker, and the ring-protocol model
//! checker, surfaced as `gnet analyze`.
//!
//! The crate has three independent parts:
//!
//! * [`lints`] — text/line-based source checks tuned to this repository's
//!   invariants (no `unwrap()` in library code, justified atomic orderings,
//!   documented `as` casts in kernel hot paths, no float `==` in
//!   statistical code, and the unsafe-audit family: justified `unsafe`,
//!   allowlist-only `Send`/`Sync` impls, justified `SeqCst`). They are
//!   deliberately *not* built on `syn`: a line-oriented scanner with
//!   comment/string/`#[cfg(test)]` tracking is enough for these rules,
//!   keeps the crate std-only, and makes every diagnostic trivially
//!   explainable as `file:line`.
//! * [`interleave`] — a seeded interleaving harness that runs the tile
//!   executor under every [`gnet_parallel::SchedulerPolicy`] and several
//!   thread counts with randomized tile-completion delays, asserting the
//!   merged MI matrix is *bitwise* identical to a single-threaded
//!   reference. This is the executable form of the scheduler module's
//!   "bitwise identical across policies" contract.
//! * [`protocol`] — a bounded model checker that drives the *real*
//!   [`gnet_cluster::protocol::RankMachine`] through every schedule a
//!   bounded adversary can produce (delivery orders, delays, drops,
//!   duplicates, crashes), with deadlock/livelock/census/coverage
//!   oracles, shrunk one-line replay specs, and a four-mutation
//!   self-check proving the checker catches real protocol bugs.
//!
//! Vetted exceptions to the lints live in an allowlist file (see
//! [`allowlist`]; stale entries are themselves reported); one run's
//! results aggregate into the versioned, schema-pinned JSON document in
//! [`report`].

#![warn(missing_docs)]

pub mod allowlist;
pub mod diagnostics;
pub mod interleave;
pub mod lints;
pub mod protocol;
pub mod report;
pub mod source;

pub use allowlist::Allowlist;
pub use diagnostics::{Diagnostic, Report};
pub use interleave::{check_determinism, InterleaveConfig, InterleaveError, InterleaveOutcome};
pub use lints::{all_lints, run_lints, Lint};
pub use source::SourceFile;
