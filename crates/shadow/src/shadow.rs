//! Raw shadow memory: one metadata byte per 8-byte segment.
//!
//! This module is deliberately encoding-agnostic. ASan and GiantSan interpret
//! the shadow bytes differently (`giantsan-baselines` vs `giantsan-core`);
//! what they share — and what lives here — is the *mapping* from application
//! addresses to shadow bytes and bulk get/set operations over it.

use std::fmt;

use crate::{kernel, Addr, AddressSpace, SEGMENT_SIZE};

/// Index of a segment within a [`ShadowMemory`].
///
/// A `SegmentIndex` is relative to the shadow array, not an absolute
/// `addr >> 3` value: the shadow only spans the simulated address space, so
/// the base segment is subtracted once on entry. This mirrors ASan's
/// `(addr >> 3) + offset` shadow address computation with the offset folded in.
pub type SegmentIndex = u64;

/// Shadow memory for an [`AddressSpace`]: one byte per 8-byte segment.
///
/// # Example
///
/// ```
/// use giantsan_shadow::{AddressSpace, ShadowMemory};
/// let space = AddressSpace::new(0x1_0000, 1 << 16);
/// let mut shadow = ShadowMemory::new(&space, 0xff);
/// let s = shadow.segment_of(space.lo() + 64);
/// shadow.set_range(s, s + 4, 0);
/// assert_eq!(shadow.get(s + 3), 0);
/// assert_eq!(shadow.get(s + 4), 0xff);
/// ```
#[derive(Clone)]
pub struct ShadowMemory {
    /// Segment index of the first mapped segment (absolute `addr >> 3`).
    base_segment: u64,
    bytes: Vec<u8>,
    fill: u8,
}

impl fmt::Debug for ShadowMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShadowMemory")
            .field("segments", &self.bytes.len())
            .field("base_segment", &self.base_segment)
            .field("fill", &self.fill)
            .finish()
    }
}

impl ShadowMemory {
    /// Creates a shadow for `space`, with every segment set to `fill`.
    ///
    /// `fill` is the encoding-specific "unallocated" state code.
    pub fn new(space: &AddressSpace, fill: u8) -> Self {
        let segments = space.size() / SEGMENT_SIZE;
        ShadowMemory {
            base_segment: space.lo().segment(),
            bytes: vec![fill; segments as usize],
            fill,
        }
    }

    /// Number of segments covered.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Returns `true` if the shadow covers no segments (never true for a
    /// shadow built from a non-empty space).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The encoding-specific fill byte used for unmapped / unallocated
    /// segments.
    pub fn fill_byte(&self) -> u8 {
        self.fill
    }

    /// Maps an application address to its segment index.
    ///
    /// Addresses below the space clamp to segment 0 only in debug-panic
    /// fashion; callers are expected to pass mapped addresses (checkers call
    /// [`ShadowMemory::try_segment_of`] for possibly-wild pointers).
    pub fn segment_of(&self, addr: Addr) -> SegmentIndex {
        debug_assert!(
            addr.segment() >= self.base_segment,
            "address below shadowed space"
        );
        addr.segment() - self.base_segment
    }

    /// Maps an application address to its segment index, or `None` if the
    /// address lies outside the shadowed space.
    pub fn try_segment_of(&self, addr: Addr) -> Option<SegmentIndex> {
        let seg = addr.segment();
        if seg < self.base_segment {
            return None;
        }
        let rel = seg - self.base_segment;
        (rel < self.len()).then_some(rel)
    }

    /// Returns the first application address of segment `seg`.
    pub fn segment_base(&self, seg: SegmentIndex) -> Addr {
        Addr::new((self.base_segment + seg) * SEGMENT_SIZE)
    }

    /// Reads the shadow byte of segment `seg`.
    ///
    /// Out-of-range indexes read as the fill byte, so checks against wild
    /// pointers see "unallocated" rather than panicking.
    pub fn get(&self, seg: SegmentIndex) -> u8 {
        self.bytes.get(seg as usize).copied().unwrap_or(self.fill)
    }

    /// Writes the shadow byte of segment `seg`.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range: poisoning, unlike checking, only ever
    /// targets memory the allocator owns.
    pub fn set(&mut self, seg: SegmentIndex, value: u8) {
        self.bytes[seg as usize] = value;
    }

    /// Sets every segment in `[lo, hi)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn set_range(&mut self, lo: SegmentIndex, hi: SegmentIndex, value: u8) {
        kernel::active().fill(&mut self.bytes[lo as usize..hi as usize], value);
    }

    /// Returns a slice of the shadow bytes in `[lo, hi)` for bulk inspection.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice(&self, lo: SegmentIndex, hi: SegmentIndex) -> &[u8] {
        &self.bytes[lo as usize..hi as usize]
    }

    /// Returns a mutable slice of the shadow bytes in `[lo, hi)`; used by the
    /// linear-time poisoners.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_mut(&mut self, lo: SegmentIndex, hi: SegmentIndex) -> &mut [u8] {
        &mut self.bytes[lo as usize..hi as usize]
    }

    /// Resets the whole shadow to the fill byte.
    pub fn clear(&mut self) {
        let fill = self.fill;
        kernel::active().fill(&mut self.bytes, fill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow() -> (AddressSpace, ShadowMemory) {
        let space = AddressSpace::new(0x1_0000, 1 << 12);
        let shadow = ShadowMemory::new(&space, 0xfe);
        (space, shadow)
    }

    #[test]
    fn geometry() {
        let (space, shadow) = shadow();
        assert_eq!(shadow.len(), space.size() / SEGMENT_SIZE);
        assert!(!shadow.is_empty());
        assert_eq!(shadow.segment_of(space.lo()), 0);
        assert_eq!(shadow.segment_of(space.lo() + 8), 1);
        assert_eq!(shadow.segment_of(space.lo() + 15), 1);
        assert_eq!(shadow.segment_base(2), space.lo() + 16);
    }

    #[test]
    fn try_segment_rejects_wild_addresses() {
        let (space, shadow) = shadow();
        assert_eq!(shadow.try_segment_of(Addr::new(0)), None);
        assert_eq!(shadow.try_segment_of(space.hi()), None);
        assert_eq!(
            shadow.try_segment_of(space.hi() - 1),
            Some(shadow.len() - 1)
        );
        assert_eq!(shadow.try_segment_of(space.lo()), Some(0));
    }

    #[test]
    fn get_set_roundtrip() {
        let (_, mut shadow) = shadow();
        shadow.set(5, 0x40);
        assert_eq!(shadow.get(5), 0x40);
        assert_eq!(shadow.get(6), 0xfe);
    }

    #[test]
    fn out_of_range_get_reads_fill() {
        let (_, shadow) = shadow();
        assert_eq!(shadow.get(shadow.len() + 100), 0xfe);
    }

    #[test]
    fn range_ops() {
        let (_, mut shadow) = shadow();
        shadow.set_range(10, 20, 0);
        assert_eq!(shadow.slice(10, 20), &[0u8; 10][..]);
        assert_eq!(shadow.get(9), 0xfe);
        assert_eq!(shadow.get(20), 0xfe);
        shadow.slice_mut(10, 12).copy_from_slice(&[1, 2]);
        assert_eq!(shadow.get(10), 1);
        assert_eq!(shadow.get(11), 2);
        shadow.clear();
        assert_eq!(shadow.get(10), 0xfe);
    }

    #[test]
    fn debug_output_nonempty() {
        let (_, shadow) = shadow();
        assert!(format!("{shadow:?}").contains("ShadowMemory"));
    }
}
