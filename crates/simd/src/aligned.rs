//! A zero-initialised `f32` buffer whose first element sits on a 64-byte
//! boundary.
//!
//! The joint kernels read and write whole 16-float rows. In a plain
//! `Vec<f32>` (which the allocator aligns to 16 bytes) most of those
//! 64-byte rows straddle two cache lines, so every row load or store
//! touches two lines. [`AlignedVec`] starts on a line boundary, so a
//! buffer whose row stride is a multiple of 16 floats keeps every row on
//! exactly one line.

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Floats per 64-byte cache line.
const LINE: usize = 16;

/// A fixed-length, zero-initialised `f32` buffer starting on a 64-byte
/// boundary. It over-allocates by up to 15 floats (60 bytes) and starts
/// at the first 64-byte boundary inside the allocation; the allocation
/// itself keeps the allocator's default alignment, so zeroing stays a
/// `calloc` and freed blocks coalesce like any `Vec<f32>`'s. Dereferences
/// to `[f32]` of exactly [`AlignedVec::len`] elements; the slack is never
/// visible, so equality, `Debug` and [`AlignedVec::heap_bytes`] ignore it.
pub struct AlignedVec {
    data: Vec<f32>,
    /// Index of the first visible float: `data[offset]` sits on a 64-byte
    /// boundary.
    offset: usize,
    len: usize,
}

impl AlignedVec {
    /// `len` zeros.
    pub fn zeroed(len: usize) -> Self {
        let data = vec![0.0f32; len + LINE - 1];
        // `align_offset` counts floats; a 4-byte-aligned pointer is at
        // most 15 floats from the next 64-byte boundary.
        let offset = data.as_ptr().align_offset(LINE * 4).min(LINE - 1);
        Self { data, offset, len }
    }

    /// Number of visible floats.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no floats.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The visible floats.
    pub fn as_slice(&self) -> &[f32] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// The visible floats, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data[self.offset..self.offset + self.len]
    }

    /// Heap bytes of the visible floats (the alignment slack is not
    /// counted).
    pub fn heap_bytes(&self) -> usize {
        self.len * core::mem::size_of::<f32>()
    }
}

impl Clone for AlignedVec {
    /// A fresh allocation has its own boundary, so the copy re-aligns
    /// rather than copying the offset.
    fn clone(&self) -> Self {
        let mut copy = Self::zeroed(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl Default for AlignedVec {
    fn default() -> Self {
        Self::zeroed(0)
    }
}

impl Deref for AlignedVec {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aligned(v: &AlignedVec) -> bool {
        (v.as_ptr() as usize).is_multiple_of(64)
    }

    #[test]
    fn every_length_starts_on_a_cache_line() {
        for len in [0usize, 1, 15, 16, 17, 160, 1000] {
            let mut v = AlignedVec::zeroed(len);
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|&x| x == 0.0));
            if len > 0 {
                assert!(aligned(&v), "len {len}");
                v[len - 1] = 1.0;
                assert!(aligned(&v.clone()), "clone of len {len}");
            }
        }
    }

    #[test]
    fn slack_is_invisible_to_eq_debug_and_heap_bytes() {
        let mut a = AlignedVec::zeroed(3);
        let b = AlignedVec::zeroed(3);
        let slack = if a.offset > 0 { 0 } else { a.offset + 5 };
        a.data[slack] = 9.0; // outside the visible floats
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[0.0, 0.0, 0.0]");
        assert_eq!(a.heap_bytes(), 12);
        a[1] = 2.0;
        assert_ne!(a, b);
    }
}
