//! Raw shadow memory: one metadata byte per 8-byte segment.
//!
//! This module is deliberately encoding-agnostic. ASan and GiantSan interpret
//! the shadow bytes differently (`giantsan-baselines` vs `giantsan-core`);
//! what they share — and what lives here — is the *mapping* from application
//! addresses to shadow bytes and bulk get/set operations over it.
//!
//! Each segment's code is stored XOR the shadow's fill byte, so a fresh
//! shadow is all zero bytes whatever its encoding. A large world's shadow
//! drops into the same thread-local parking as its address space (see the
//! [crate docs](crate)), and the next shadow of its size, under either tool,
//! starts from that buffer instead of writing the fill over every segment.
//! Nothing outside this crate sees the stored form: every accessor takes and
//! returns codes.

use std::fmt;

use crate::arena::Arena;
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
    /// Each segment's code XOR `fill`.
    bytes: Arena,
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
    /// `fill` is the encoding-specific "unallocated" state code. The shadow
    /// of a space that is kept mapped between sessions is kept too.
    pub fn new(space: &AddressSpace, fill: u8) -> Self {
        let segments = space.size() / SEGMENT_SIZE;
        ShadowMemory {
            base_segment: space.lo().segment(),
            bytes: Arena::zeroed(segments as usize, space.parks()),
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
    #[inline]
    pub fn get(&self, seg: SegmentIndex) -> u8 {
        self.bytes.get(seg as usize).copied().unwrap_or(0) ^ self.fill
    }

    /// Writes the shadow byte of segment `seg`.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range: poisoning, unlike checking, only ever
    /// targets memory the allocator owns.
    pub fn set(&mut self, seg: SegmentIndex, value: u8) {
        *self.bytes.word_mut(seg as usize) = [value ^ self.fill];
    }

    /// The stored bytes of `[lo, hi)` for writing, marked dirty first.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    fn range_mut(&mut self, lo: SegmentIndex, hi: SegmentIndex) -> &mut [u8] {
        assert!(
            lo <= hi && hi <= self.len(),
            "segment range {lo}..{hi} outside a shadow of {} segments",
            self.len()
        );
        self.bytes.slice_mut(lo as usize, (hi - lo) as usize)
    }

    /// Sets every segment in `[lo, hi)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn set_range(&mut self, lo: SegmentIndex, hi: SegmentIndex, value: u8) {
        let stored = value ^ self.fill;
        kernel::active().fill(self.range_mut(lo, hi), stored);
    }

    /// Writes the §4.1 folding pattern for an object of `hi − lo` full
    /// segments starting at `lo` (see [`kernel::Kernels::write_folded_run`]).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn write_folded_run(&mut self, lo: SegmentIndex, hi: SegmentIndex) {
        let key = self.fill;
        kernel::active().write_folded_run_keyed(self.range_mut(lo, hi), key);
    }

    /// The stored bytes of `[lo, hi)`, each code XOR the fill byte, for the
    /// scanners in [`crate::scan`].
    pub(crate) fn stored(&self, lo: SegmentIndex, hi: SegmentIndex) -> &[u8] {
        &self.bytes[lo as usize..hi as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{parked_lens, RECYCLE_MIN};

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
        assert!((10..20).all(|s| shadow.get(s) == 0));
        assert_eq!(shadow.get(9), 0xfe);
        assert_eq!(shadow.get(20), 0xfe);
        shadow.write_folded_run(10, 13);
        let run: Vec<u8> = (10..13).map(|s| shadow.get(s)).collect();
        let mut expect = [0u8; 3];
        kernel::scalar().write_folded_run(&mut expect);
        assert_eq!(run, expect);
        let len = shadow.len();
        shadow.set_range(0, len, 0xfe);
        assert!(shadow.all_eq(0, len, 0xfe));
    }

    #[test]
    fn a_fresh_shadow_stores_zeros_under_any_fill() {
        for fill in [0, 78, 0xfe, 0xff] {
            let space = AddressSpace::new(0x1_0000, 1 << 12);
            let mut shadow = ShadowMemory::new(&space, fill);
            assert!(shadow.bytes.iter().all(|&b| b == 0), "fill {fill:#x}");
            shadow.set(3, fill);
            shadow.set_range(4, 8, fill);
            assert!(shadow.bytes.iter().all(|&b| b == 0), "fill {fill:#x}");
            shadow.set(3, 0x40);
            assert_eq!(shadow.bytes[3], 0x40 ^ fill);
        }
    }

    #[test]
    #[should_panic(expected = "outside a shadow")]
    fn reversed_range_panics() {
        let (_, mut shadow) = shadow();
        shadow.set_range(5, 2, 0);
    }

    /// The smallest space whose shadow is parked, and that shadow's length.
    const LARGE: u64 = RECYCLE_MIN as u64;
    const LARGE_SEGMENTS: usize = RECYCLE_MIN / SEGMENT_SIZE as usize;
    /// Segments per dirty line, and per dirty-map word.
    const LINE: u64 = 64;
    const CHUNK: u64 = 4096;

    fn stores_zeros(s: &ShadowMemory) -> bool {
        kernel::active().all_eq(&s.bytes, 0)
    }

    /// Runs `write` on a GiantSan-filled shadow of a large space, drops it,
    /// and checks that the next shadow of that space, ASan-filled, reuses the
    /// buffer and reads as fresh.
    fn recycled_after(write: impl FnOnce(&mut ShadowMemory)) {
        let space = AddressSpace::new(0x1_0000, LARGE);
        let mut s = ShadowMemory::new(&space, 78);
        write(&mut s);
        assert!(!stores_zeros(&s), "the write changed nothing");
        let (ptr, map) = (s.bytes.as_ptr(), s.bytes.map_ptr());
        drop(s);
        assert_eq!(parked_lens(), [LARGE_SEGMENTS]);
        let next = ShadowMemory::new(&space, 0xff);
        assert_eq!(next.bytes.as_ptr(), ptr, "the parked shadow was not reused");
        assert_eq!(next.bytes.map_ptr(), map, "the parked map was not reused");
        assert!(stores_zeros(&next));
        assert!(next.all_eq(0, next.len(), 0xff));
    }

    #[test]
    fn set_marks_its_chunk() {
        recycled_after(|s| {
            s.set(CHUNK - 1, 0);
            s.set(CHUNK, 0);
            s.set(s.len() - 1, 0x40);
        });
    }

    #[test]
    fn set_marks_the_lines_on_both_sides_of_a_line_boundary() {
        recycled_after(|s| {
            s.set(LINE - 1, 0);
            s.set(LINE, 0);
            s.set(5 * LINE + 17, 0x40);
        });
    }

    #[test]
    fn ranges_starting_and_ending_mid_line() {
        recycled_after(|s| {
            s.set_range(LINE + 5, 4 * LINE + 9, 0);
            s.write_folded_run(CHUNK - 70, CHUNK + 70);
        });
    }

    #[test]
    fn a_one_line_range() {
        recycled_after(|s| {
            s.set_range(2 * LINE + 3, 2 * LINE + 20, 0);
            s.write_folded_run(9 * LINE, 10 * LINE);
        });
    }

    #[test]
    fn a_chunk_with_a_full_run_and_a_partial_run() {
        recycled_after(|s| {
            // Chunk 1 holds line 2 and lines 50–63; chunk 2 is whole and
            // chunk 3 holds line 0.
            s.set(CHUNK + 2 * LINE, 0x40);
            s.set_range(CHUNK + 50 * LINE + 1, 3 * CHUNK + 10, 0);
        });
    }

    #[test]
    fn set_range_marks_every_chunk_it_spans() {
        recycled_after(|s| {
            s.set_range(CHUNK - 3, 3 * CHUNK + 3, 0);
            s.set_range(s.len() - 5, s.len(), 0xfa);
        });
    }

    #[test]
    fn folded_runs_mark_every_chunk_they_span() {
        recycled_after(|s| s.write_folded_run(2 * CHUNK - 100, 4 * CHUNK + 7));
    }

    #[test]
    fn writes_after_a_refill_are_reset() {
        recycled_after(|s| {
            s.set_range(0, 2 * CHUNK, 0);
            s.set_range(0, 2 * CHUNK, 78);
            assert!(stores_zeros(s));
            s.set(CHUNK + 1, 0x40);
        });
    }

    #[test]
    fn a_world_parks_its_space_and_its_shadow_together() {
        let space = AddressSpace::new(0x1_0000, LARGE);
        let shadow = ShadowMemory::new(&space, 78);
        let ptrs = (space.bytes_ptr(), shadow.bytes.as_ptr());
        drop(shadow);
        drop(space);
        assert_eq!(parked_lens(), [LARGE_SEGMENTS, RECYCLE_MIN]);
        let space = AddressSpace::new(0x1_0000, LARGE);
        let shadow = ShadowMemory::new(&space, 0xff);
        assert_eq!((space.bytes_ptr(), shadow.bytes.as_ptr()), ptrs);
        assert_eq!(parked_lens(), []);
    }

    #[test]
    fn size_mismatch_frees_the_parked_shadow() {
        let space = AddressSpace::new(0x1_0000, LARGE);
        let mut shadow = ShadowMemory::new(&space, 78);
        shadow.set(7, 0);
        drop((space, shadow));
        assert_eq!(parked_lens(), [LARGE_SEGMENTS, RECYCLE_MIN]);
        let other = AddressSpace::new(0x1_0000, LARGE + 4096);
        assert_eq!(parked_lens(), [], "a space of another size frees both");
        let mut shadow = ShadowMemory::new(&other, 0xff);
        assert!(stores_zeros(&shadow));
        // The last chunk holds 512 segments: eight lines.
        let len = shadow.len();
        shadow.set_range(len - 600, len, 0);
        let (ptr, map) = (shadow.bytes.as_ptr(), shadow.bytes.map_ptr());
        drop(shadow);
        let shadow = ShadowMemory::new(&other, 78);
        assert_eq!((shadow.bytes.as_ptr(), shadow.bytes.map_ptr()), (ptr, map));
        assert!(stores_zeros(&shadow));
        drop((other, shadow));
        let n = RECYCLE_MIN + 4096;
        assert_eq!(parked_lens(), [n / SEGMENT_SIZE as usize, n]);
        let small = AddressSpace::new(0x1_0000, 4096);
        assert_eq!(parked_lens(), []);
        drop(ShadowMemory::new(&small, 78));
        assert_eq!(parked_lens(), [], "a small space's shadow is not parked");
    }

    #[test]
    fn session_unwinding_mid_write_leaves_the_next_shadow_fresh() {
        let unwound = std::panic::catch_unwind(|| {
            let space = AddressSpace::new(0x1_0000, LARGE);
            let mut s = ShadowMemory::new(&space, 78);
            s.set_range(100, CHUNK + 100, 0);
            s.write_folded_run(3 * CHUNK - 8, 3 * CHUNK + 8);
            // Poisoning past the end panics with the shadow still live.
            let len = s.len();
            s.set(len, 0);
        });
        assert!(unwound.is_err());
        assert_eq!(parked_lens(), [LARGE_SEGMENTS, RECYCLE_MIN]);
        let space = AddressSpace::new(0x1_0000, LARGE);
        let next = ShadowMemory::new(&space, 78);
        assert!(stores_zeros(&next));
        assert!(next.all_eq(0, next.len(), 78));
    }

    #[test]
    fn debug_output_nonempty() {
        let (_, shadow) = shadow();
        assert!(format!("{shadow:?}").contains("ShadowMemory"));
    }
}
