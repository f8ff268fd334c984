//! Shadow scanning entry points over the active [`crate::kernel`] table.
//!
//! Region checks, blame scans, and shadow validation all reduce to three
//! questions over a segment range: *is every shadow byte equal to X*, *where
//! is the first byte different from X*, and *where is the first byte ≥ X*.
//! Answering them through [`ShadowMemory::get`] costs a bounds check, an
//! `Option`, and a fill-byte fallback per segment. This module answers them
//! over borrowed slices, a 64-byte block and then a word at a time, while
//! preserving the fill-byte semantics for ranges that run past the mapped
//! shadow.
//!
//! The loops themselves live in [`crate::kernel`]; this module contributes
//! the [`SegmentView`] split of a requested range into mapped bytes plus a
//! virtual fill-valued tail.

use crate::kernel;
use crate::shadow::{SegmentIndex, ShadowMemory};

/// A borrowed view of the segment range `[lo, hi)` of a [`ShadowMemory`],
/// with the part beyond the mapped shadow (if any) reading as the fill byte.
///
/// The view splits the requested range once, up front, into a borrowed slice
/// of mapped shadow bytes plus a virtual fill-valued tail — after that, the
/// scanners below touch no `Option` and no bounds check per segment. The
/// mapped bytes hold each code XOR the fill byte (the *key*): an equality
/// scan compares against `byte ^ key`, and the ordered scan hands the key to
/// the kernel.
#[derive(Debug, Clone, Copy)]
pub struct SegmentView<'a> {
    /// First requested segment index (shadow-relative).
    start: SegmentIndex,
    /// Mapped part of the range, each code XOR `key`.
    mapped: &'a [u8],
    /// Number of requested segments past the mapped shadow.
    tail: u64,
    /// The shadow's fill byte: the key of `mapped`, and the value the
    /// `tail` segments read as.
    key: u8,
}

impl<'a> SegmentView<'a> {
    /// Number of segments in the view (mapped + virtual tail).
    pub fn len(&self) -> u64 {
        self.mapped.len() as u64 + self.tail
    }

    /// Whether the view covers no segments.
    pub fn is_empty(&self) -> bool {
        self.mapped.is_empty() && self.tail == 0
    }

    /// Whether every segment in the view reads as `byte`.
    #[inline]
    pub fn all_eq(&self, byte: u8) -> bool {
        kernel::active().all_eq(self.mapped, byte ^ self.key)
            && (self.tail == 0 || self.key == byte)
    }

    /// Segment index (shadow-relative) of the first segment not reading as
    /// `byte`.
    #[inline]
    pub fn first_ne(&self, byte: u8) -> Option<SegmentIndex> {
        if let Some(i) = kernel::active().first_ne(self.mapped, byte ^ self.key) {
            return Some(self.start + i as u64);
        }
        (self.tail > 0 && self.key != byte).then(|| self.start + self.mapped.len() as u64)
    }

    /// Segment index (shadow-relative) of the first segment reading as a
    /// value `>= threshold` (unsigned byte order).
    #[inline]
    pub fn first_ge(&self, threshold: u8) -> Option<SegmentIndex> {
        if let Some(i) = kernel::active().first_ge_keyed(self.mapped, threshold, self.key) {
            return Some(self.start + i as u64);
        }
        (self.tail > 0 && self.key >= threshold).then(|| self.start + self.mapped.len() as u64)
    }
}

impl ShadowMemory {
    /// Borrows the segment range `[lo, hi)` as a [`SegmentView`].
    ///
    /// This never panics: segments past the mapped shadow are represented as
    /// a fill-valued tail, matching the fill semantics of
    /// [`ShadowMemory::get`] — so checkers can scan ranges derived from wild
    /// pointers. A reversed range yields an empty view.
    pub fn view(&self, lo: SegmentIndex, hi: SegmentIndex) -> SegmentView<'_> {
        let hi = hi.max(lo);
        let mapped_lo = lo.min(self.len());
        let mapped_hi = hi.min(self.len());
        SegmentView {
            start: lo,
            mapped: self.stored(mapped_lo, mapped_hi),
            tail: hi - mapped_hi.max(lo),
            key: self.fill_byte(),
        }
    }

    /// Whether every segment in `[lo, hi)` reads as `byte` (fill semantics
    /// past the mapped shadow; true for an empty range).
    #[inline]
    pub fn all_eq(&self, lo: SegmentIndex, hi: SegmentIndex, byte: u8) -> bool {
        self.view(lo, hi).all_eq(byte)
    }

    /// First segment in `[lo, hi)` not reading as `byte`.
    #[inline]
    pub fn first_ne(&self, lo: SegmentIndex, hi: SegmentIndex, byte: u8) -> Option<SegmentIndex> {
        self.view(lo, hi).first_ne(byte)
    }

    /// First segment in `[lo, hi)` reading as a value `>= threshold`.
    #[inline]
    pub fn first_ge(
        &self,
        lo: SegmentIndex,
        hi: SegmentIndex,
        threshold: u8,
    ) -> Option<SegmentIndex> {
        self.view(lo, hi).first_ge(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AddressSpace;

    /// Byte-wise references the word-wide scanners must agree with.
    fn ref_first_ne(s: &ShadowMemory, lo: u64, hi: u64, byte: u8) -> Option<u64> {
        (lo..hi.max(lo)).find(|&i| s.get(i) != byte)
    }

    fn ref_first_ge(s: &ShadowMemory, lo: u64, hi: u64, t: u8) -> Option<u64> {
        (lo..hi.max(lo)).find(|&i| s.get(i) >= t)
    }

    fn ref_all_eq(s: &ShadowMemory, lo: u64, hi: u64, byte: u8) -> bool {
        (lo..hi.max(lo)).all(|i| s.get(i) == byte)
    }

    fn shadow_with(fill: u8, bytes: &[u8]) -> ShadowMemory {
        let space = AddressSpace::new(0x1_0000, 1 << 10); // 128 segments
        let mut s = ShadowMemory::new(&space, fill);
        for (i, &b) in bytes.iter().enumerate() {
            s.set(i as u64, b);
        }
        s
    }

    #[test]
    fn view_splits_mapped_and_tail() {
        let s = shadow_with(0xff, &[1, 2, 3]);
        let n = s.len();
        let v = s.view(n - 2, n + 3);
        assert_eq!(v.len(), 5);
        assert_eq!(v.mapped.len(), 2);
        // Entirely past the end: all tail.
        let v = s.view(n + 10, n + 14);
        assert_eq!(v.len(), 4);
        assert_eq!(v.mapped.len(), 0);
        assert!(v.all_eq(0xff));
        assert_eq!(v.first_ne(0xff), None);
        assert_eq!(v.first_ne(0), Some(n + 10));
        // Reversed ranges are empty, matching an empty loop over lo..hi.
        assert!(s.view(5, 2).is_empty());
        assert_eq!(s.first_ne(5, 2, 0), None);
    }

    #[test]
    fn fill_tail_obeys_get_semantics() {
        let s = shadow_with(0x4e, &[0x40; 8]);
        let n = s.len();
        // Uniform fill across the mapped/tail boundary: no mismatch.
        assert_eq!(s.first_ne(n - 4, n + 4, 0x4e), None);
        assert_eq!(s.first_ne(4, n + 4, 0x4e), Some(4), "mapped hit wins");
        assert_eq!(s.first_ne(n - 4, n + 4, 0x40), Some(n - 4));
        assert_eq!(s.first_ge(n - 4, n + 4, 0x4f), None);
        assert_eq!(s.first_ge(n - 4, n + 4, 0x4e), Some(n - 4));
        assert!(s.all_eq(n, n + 100, 0x4e));
        assert!(!s.all_eq(n, n + 100, 0x40));
    }

    #[test]
    fn scanners_agree_with_reference_on_dense_cases() {
        // Dense sweep of a small shadow: every (lo, hi) pair over a mix of
        // values, crossing the mapped end by up to 16 segments.
        let mut bytes = Vec::new();
        for i in 0..40u64 {
            bytes.push(match i % 5 {
                0 => 0x40,
                1 => 0x39,
                2 => 0x49,
                3 => 0x4e,
                _ => 0x00,
            });
        }
        let s = shadow_with(0x4e, &bytes);
        let n = s.len();
        for lo in (0..48).chain(n - 4..n + 8) {
            for hi in (lo..48).chain(n - 4..n + 16).filter(|&h| h >= lo) {
                for probe in [0x00u8, 0x39, 0x40, 0x49, 0x4e, 0x80, 0xff] {
                    assert_eq!(
                        s.first_ne(lo, hi, probe),
                        ref_first_ne(&s, lo, hi, probe),
                        "first_ne lo={lo} hi={hi} probe={probe:#x}"
                    );
                    assert_eq!(
                        s.first_ge(lo, hi, probe),
                        ref_first_ge(&s, lo, hi, probe),
                        "first_ge lo={lo} hi={hi} probe={probe:#x}"
                    );
                    assert_eq!(
                        s.all_eq(lo, hi, probe),
                        ref_all_eq(&s, lo, hi, probe),
                        "all_eq lo={lo} hi={hi} probe={probe:#x}"
                    );
                }
            }
        }
    }
}
