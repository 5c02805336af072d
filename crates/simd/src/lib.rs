//! Fixed-width vector lanes and hardware SIMD kernels for the
//! mutual-information estimators.
//!
//! The IPDPS 2014 paper vectorizes its B-spline mutual-information kernel
//! with the Xeon Phi's 512-bit IMCI instruction set (16 × f32 lanes). This
//! crate provides both halves of that story:
//!
//! * Lane value types — [`F32x8`], [`F32x16`], [`F64x4`], [`F64x8`] — with
//!   arithmetic operators, FMA, and deterministic horizontal reductions.
//!   Portable plain-array code expressing the paper's *algorithmic*
//!   vectorization (dense, gather-free FMA streams over restructured
//!   data).
//! * Slice kernels — [`slice_ops`] — the whole-slice primitives the MI
//!   estimators are built from (`sum`, `dot`, `axpy`, `xlogx_sum`,
//!   `scale`, `joint_accumulate_w16{,_batch}`), each in a `_scalar` reference form,
//!   a portable `_emulated` laned form, and a dispatched public form that
//!   runs real `std::arch` intrinsics — AVX-512F (one 512-bit FMA per
//!   16-lane row, the paper's KNC shape) or AVX2+FMA (two 256-bit
//!   registers per row) — selected once at runtime by [`dispatch`] from
//!   `is_x86_feature_detected!`, with `GNET_SIMD_FORCE` / API overrides
//!   for testing and benchmarking every path.
//!
//! * Proven kernel inputs — [`joint`] — whose constructors check every
//!   row index once, so the batched joint kernel does only O(1) shape
//!   checks per call, and [`AlignedVec`], the 64-byte-aligned buffer the
//!   grids and dense weight rows live in.
//!
//! The [`VectorModel`] descriptor exports the lane geometry to the
//! `gnet-phi` machine model so simulated platforms can be given the vector
//! widths of the paper's hardware (16-lane Phi vs 8-lane AVX Xeon, plus
//! the AVX-512 Xeons the dispatcher targets today).

#![warn(missing_docs)]
// safety: this crate is the workspace's designated home for `std::arch`
// SIMD intrinsics (see the unsafe-audit policy note on `unsafe_code` in
// the root Cargo.toml). All unsafe is confined to `x86.rs`, where every
// raw-pointer intrinsic sits behind a safe entry wrapper that validates
// slice shapes first and a dispatch table that only selects a backend
// after runtime CPU-feature detection.
#![allow(unsafe_code)]

pub mod aligned;
pub mod dispatch;
pub mod joint;
pub mod lanes;
pub mod model;
pub mod slice_ops;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

pub use aligned::AlignedVec;
pub use dispatch::{active_backend, dispatch_report, Backend, DispatchReport};
pub use joint::{BinWindows, PermRow, RowPerms, RowPermsError, RowSource, BATCH};
pub use lanes::{F32x16, F32x8, F64x4, F64x8, LaneCount};
pub use model::VectorModel;
