//! A flat simulated address space holding real bytes.

use std::fmt;

use crate::arena::{Arena, RECYCLE_MIN};
use crate::{align_up, Addr, SEGMENT_SIZE};

/// Error raised when an operation touches bytes outside the space.
///
/// Corresponds to a hardware fault (SIGSEGV) in a real process: the simulated
/// interpreter treats it as a crash that every tool, including native
/// execution, observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpaceError {
    /// First address of the faulting range.
    pub addr: Addr,
    /// Length of the faulting access in bytes.
    pub len: u64,
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access of {} bytes at {} is outside the simulated address space",
            self.len, self.addr
        )
    }
}

impl std::error::Error for SpaceError {}

/// A contiguous range of simulated memory with real backing bytes.
///
/// The space starts at a non-zero base so that the null page is unmapped,
/// like a real process image. All loads and stores performed by the mini-IR
/// interpreter land here, which means out-of-bounds writes in buggy workloads
/// corrupt *simulated* data only, while remaining observable to sanitizers.
///
/// A space of 32 MiB or more keeps its bytes mapped for the next space of
/// its size on the same thread, and its shadow does the same (see the
/// [crate docs](crate)); every new space still starts all zero.
///
/// # Example
///
/// ```
/// use giantsan_shadow::AddressSpace;
/// let mut space = AddressSpace::new(0x1_0000, 4096);
/// let p = space.lo();
/// space.write_u64(p, 0xdead_beef)?;
/// assert_eq!(space.read_u64(p)?, 0xdead_beef);
/// # Ok::<(), giantsan_shadow::SpaceError>(())
/// ```
#[derive(Clone)]
pub struct AddressSpace {
    base: u64,
    bytes: Arena,
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("lo", &self.lo())
            .field("hi", &self.hi())
            .field("size", &self.bytes.len())
            .finish()
    }
}

impl AddressSpace {
    /// Creates a space of `size` bytes starting at `base`.
    ///
    /// Both are rounded up to segment alignment so that the shadow mapping has
    /// no ragged edges.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero (the null page must stay unmapped) or `size`
    /// is zero.
    pub fn new(base: u64, size: u64) -> Self {
        assert!(base != 0, "address space must not contain the null page");
        assert!(size != 0, "address space must not be empty");
        let base = align_up(base, SEGMENT_SIZE);
        let size = align_up(size, SEGMENT_SIZE);
        AddressSpace {
            base,
            bytes: Arena::zeroed(size as usize, size as usize >= RECYCLE_MIN),
        }
    }

    /// Address of the first backing byte, to tell a recycled buffer apart.
    #[cfg(test)]
    pub(crate) fn bytes_ptr(&self) -> *const u8 {
        self.bytes.as_ptr()
    }

    /// Whether this space's bytes, and those of its shadow, are parked for
    /// the next world of its size when they drop.
    pub(crate) fn parks(&self) -> bool {
        self.bytes.parks()
    }

    /// Lowest mapped address.
    #[inline]
    pub fn lo(&self) -> Addr {
        Addr::new(self.base)
    }

    /// One past the highest mapped address.
    #[inline]
    pub fn hi(&self) -> Addr {
        Addr::new(self.base + self.bytes.len() as u64)
    }

    /// Total size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Returns `true` if the whole range `[addr, addr+len)` is mapped.
    #[inline]
    pub fn contains_range(&self, addr: Addr, len: u64) -> bool {
        let a = addr.raw();
        a >= self.base && len <= self.size() && a - self.base <= self.size() - len
    }

    #[inline]
    fn index(&self, addr: Addr, len: u64) -> Result<usize, SpaceError> {
        if self.contains_range(addr, len) {
            Ok((addr.raw() - self.base) as usize)
        } else {
            Err(SpaceError { addr, len })
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if any byte of the range is unmapped.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) -> Result<(), SpaceError> {
        let i = self.index(addr, buf.len() as u64)?;
        buf.copy_from_slice(&self.bytes[i..i + buf.len()]);
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if any byte of the range is unmapped.
    pub fn write(&mut self, addr: Addr, buf: &[u8]) -> Result<(), SpaceError> {
        let i = self.index(addr, buf.len() as u64)?;
        self.bytes.slice_mut(i, buf.len()).copy_from_slice(buf);
        Ok(())
    }

    /// Reads a little-endian integer of `width` bytes (1, 2, 4, or 8).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not one of 1, 2, 4, 8.
    #[inline]
    pub fn read_uint(&self, addr: Addr, width: u32) -> Result<u64, SpaceError> {
        Ok(match width {
            1 => u8::from_le_bytes(self.word(addr)?).into(),
            2 => u16::from_le_bytes(self.word(addr)?).into(),
            4 => u32::from_le_bytes(self.word(addr)?).into(),
            8 => u64::from_le_bytes(self.word(addr)?),
            _ => unsupported_width(width),
        })
    }

    /// Writes the low `width` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not one of 1, 2, 4, 8.
    // Forced: under a plain `#[inline]` the interpreter's store stayed a
    // call that returned its `Result` through memory.
    #[inline(always)]
    pub fn write_uint(&mut self, addr: Addr, value: u64, width: u32) -> Result<(), SpaceError> {
        match width {
            1 => self.put_word(addr, (value as u8).to_le_bytes()),
            2 => self.put_word(addr, (value as u16).to_le_bytes()),
            4 => self.put_word(addr, (value as u32).to_le_bytes()),
            8 => self.put_word(addr, value.to_le_bytes()),
            _ => unsupported_width(width),
        }
    }

    /// The `N` bytes at `addr`: one fixed-size copy, no length loop.
    #[inline]
    fn word<const N: usize>(&self, addr: Addr) -> Result<[u8; N], SpaceError> {
        let i = self.index(addr, N as u64)?;
        Ok(*self.bytes[i..]
            .first_chunk()
            .expect("an indexed word lies inside the space"))
    }

    /// Stores `bytes` at `addr`.
    #[inline]
    fn put_word<const N: usize>(&mut self, addr: Addr, bytes: [u8; N]) -> Result<(), SpaceError> {
        let i = self.index(addr, N as u64)?;
        *self.bytes.word_mut(i) = bytes;
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> Result<u64, SpaceError> {
        self.read_uint(addr, 8)
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), SpaceError> {
        self.write_uint(addr, value, 8)
    }

    /// Fills `[addr, addr+len)` with `byte` (the simulated `memset`).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    pub fn fill(&mut self, addr: Addr, byte: u8, len: u64) -> Result<(), SpaceError> {
        let i = self.index(addr, len)?;
        self.bytes.slice_mut(i, len as usize).fill(byte);
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` (the simulated `memcpy`;
    /// non-overlapping semantics are not required — the copy behaves like
    /// `memmove`).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if either range is unmapped.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u64) -> Result<(), SpaceError> {
        let si = self.index(src, len)?;
        let di = self.index(dst, len)?;
        self.bytes.copy_within(si, di, len as usize);
        Ok(())
    }
}

#[cold]
#[inline(never)]
fn unsupported_width(width: u32) -> ! {
    panic!("unsupported width {width}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::parked_lens;
    use crate::kernel;

    fn space() -> AddressSpace {
        AddressSpace::new(0x1_0000, 4096)
    }

    #[test]
    fn bounds_are_aligned() {
        let s = AddressSpace::new(0x1_0001, 4097);
        assert!(s.lo().is_segment_aligned());
        assert_eq!(s.size() % SEGMENT_SIZE, 0);
    }

    #[test]
    #[should_panic(expected = "null page")]
    fn zero_base_rejected() {
        let _ = AddressSpace::new(0, 4096);
    }

    #[test]
    fn round_trip_ints() {
        let mut s = space();
        let p = s.lo() + 16;
        for &w in &[1u32, 2, 4, 8] {
            let v = 0x1122_3344_5566_7788u64 & (u64::MAX >> (64 - 8 * w));
            s.write_uint(p, v, w).unwrap();
            assert_eq!(s.read_uint(p, w).unwrap(), v);
        }
    }

    #[test]
    fn out_of_range_faults() {
        let mut s = space();
        let past = s.hi();
        assert!(s.read_u64(past).is_err());
        assert!(s.write_u64(past - 4, 1).is_err());
        assert!(s.read_u64(Addr::new(0)).is_err());
        assert!(s.read_u64(s.lo() - 8).is_err());
        // Ranges straddling the top edge fault too.
        assert!(s.fill(s.hi() - 4, 0, 8).is_err());
    }

    #[test]
    fn words_at_the_edges_round_trip_or_fault() {
        let mut s = space();
        for w in [1u32, 2, 4, 8] {
            let len = u64::from(w);
            let v = 0x8877_6655_4433_2211u64 & (u64::MAX >> (64 - 8 * w));
            // The last word of the space, and the first.
            for at in [s.hi() - len, s.lo()] {
                s.write_uint(at, v, w).unwrap();
                assert_eq!(s.read_uint(at, w).unwrap(), v);
            }
            // One byte further up, and one below the space.
            for at in [s.hi() - len + 1, s.lo() - 1] {
                let fault = SpaceError { addr: at, len };
                assert_eq!(s.read_uint(at, w), Err(fault));
                assert_eq!(s.write_uint(at, v, w), Err(fault));
            }
        }
        // The faulting writes left the edges as they were.
        assert_eq!(s.read_u64(s.hi() - 8).unwrap(), 0x8877_6655_4433_2211);
    }

    #[test]
    #[should_panic(expected = "unsupported width 3")]
    fn width_three_read_panics() {
        let _ = space().read_uint(Addr::new(0x1_0000), 3);
    }

    #[test]
    #[should_panic(expected = "unsupported width 3")]
    fn width_three_write_panics_even_out_of_range() {
        let _ = space().write_uint(Addr::new(8), 1, 3);
    }

    #[test]
    fn contains_range_handles_overflowing_len() {
        let s = space();
        assert!(!s.contains_range(s.lo(), u64::MAX));
        assert!(s.contains_range(s.lo(), s.size()));
        assert!(!s.contains_range(s.lo() + 1, s.size()));
    }

    #[test]
    fn fill_and_copy() {
        let mut s = space();
        let a = s.lo();
        let b = s.lo() + 64;
        s.fill(a, 0xab, 32).unwrap();
        s.copy(b, a, 32).unwrap();
        assert_eq!(s.read_uint(b + 31, 1).unwrap(), 0xab);
        assert_eq!(s.read_uint(b + 24, 8).unwrap(), 0xabab_abab_abab_abab);
    }

    #[test]
    fn overlapping_copy_behaves_like_memmove() {
        let mut s = space();
        let a = s.lo();
        for i in 0..16u64 {
            s.write_uint(a + i, i, 1).unwrap();
        }
        s.copy(a + 4, a, 12).unwrap();
        for i in 0..12u64 {
            assert_eq!(s.read_uint(a + 4 + i, 1).unwrap(), i);
        }
    }

    /// The smallest space whose bytes are recycled.
    const LARGE: u64 = RECYCLE_MIN as u64;

    fn all_zero(s: &AddressSpace) -> bool {
        kernel::active().all_eq(&s.bytes, 0)
    }

    /// Drops `dirty` and returns the next space of its size, asserting that
    /// it reuses `dirty`'s buffer and dirty map and is all zero.
    fn recycled(dirty: AddressSpace) -> AddressSpace {
        assert!(!all_zero(&dirty), "the writes changed nothing");
        let (ptr, map, size) = (dirty.bytes.as_ptr(), dirty.bytes.map_ptr(), dirty.size());
        drop(dirty);
        assert_eq!(parked_lens(), [size as usize]);
        let next = AddressSpace::new(0x1_0000, size);
        assert_eq!(next.bytes.as_ptr(), ptr, "the parked buffer was not reused");
        assert_eq!(next.bytes.map_ptr(), map, "the parked map was not reused");
        assert_eq!(parked_lens(), []);
        assert!(all_zero(&next));
        next
    }

    /// Runs `write` on a large space, then checks that the next space
    /// reuses its buffer and reads all zero.
    fn recycled_after(write: impl FnOnce(&mut AddressSpace, Addr)) {
        let mut s = AddressSpace::new(0x1_0000, LARGE);
        let lo = s.lo();
        write(&mut s, lo);
        recycled(s);
    }

    /// Bytes per dirty line, and per dirty-map word.
    const LINE: u64 = 64;
    const CHUNK: u64 = 4096;

    #[test]
    fn a_word_straddling_two_lines_marks_both() {
        recycled_after(|s, lo| {
            s.write_u64(lo + LINE - 4, u64::MAX).unwrap();
            s.write_uint(lo + 3 * LINE - 1, 0xffff, 2).unwrap();
        });
    }

    #[test]
    fn a_word_straddling_a_chunk_boundary_marks_both_chunks() {
        recycled_after(|s, lo| {
            s.write_u64(lo + CHUNK - 4, u64::MAX).unwrap();
            s.write_uint(lo + 2 * CHUNK - 2, 0xffff_ffff, 4).unwrap();
        });
    }

    #[test]
    fn ranges_starting_and_ending_mid_line() {
        recycled_after(|s, lo| {
            s.fill(lo + 100, 0xab, 300).unwrap();
            // Mid-line at both ends, across a chunk boundary.
            s.write(lo + CHUNK - 90, &[0x5a; 200]).unwrap();
            // Mid-line at both ends, over whole chunks.
            s.fill(lo + 5 * CHUNK + 10, 1, 3 * CHUNK + 50).unwrap();
        });
    }

    #[test]
    fn a_one_line_range() {
        recycled_after(|s, lo| {
            s.fill(lo + 2 * LINE + 2, 0xcd, 20).unwrap();
            s.write(lo + 7 * LINE, &[7; LINE as usize]).unwrap();
        });
    }

    #[test]
    fn a_copy_into_a_straddling_destination() {
        recycled_after(|s, lo| {
            let src = lo + (1 << 20);
            s.fill(src, 0xee, 200).unwrap();
            s.copy(lo + 78 * LINE + 48, src, 50).unwrap();
            s.copy(lo + 3 * CHUNK - 100, src, 200).unwrap();
        });
    }

    #[test]
    fn a_chunk_with_a_full_run_and_a_partial_run() {
        recycled_after(|s, lo| {
            // Chunk 2 holds line 3 and lines 40–63; chunks 3 and 4 are whole
            // and chunk 5 holds lines 0–1.
            let c2 = lo + 2 * CHUNK;
            s.write_uint(c2 + 3 * LINE + 5, 0xff, 1).unwrap();
            s.fill(c2 + 40 * LINE + 10, 0x11, 3 * CHUNK - 40 * LINE + 90)
                .unwrap();
            // The last chunk whole, the one below it from line 63 on.
            let hi = s.hi();
            s.fill(hi - CHUNK - 30, 0x22, CHUNK + 30).unwrap();
        });
    }

    #[test]
    fn recycled_space_is_all_zero_after_every_write_path() {
        let mut s = AddressSpace::new(0x1_0000, LARGE);
        let (lo, hi) = (s.lo(), s.hi());
        s.write_uint(lo, 0xff, 1).unwrap();
        s.write_uint(hi - 1, 0xff, 1).unwrap();
        // Straddles the first dirty-map chunk boundary.
        s.write_u64(lo + 4092, u64::MAX).unwrap();
        s.write(lo + 3 * 4096 - 5, &[0x5a; 10]).unwrap();
        // Spans three chunks, then is copied across two others.
        s.fill(lo + 20_000, 0xab, 9000).unwrap();
        s.copy(lo + (1 << 20) + 100, lo + 20_000, 9000).unwrap();
        s.copy(hi - 6000, lo + 20_000, 6000).unwrap();
        assert!(!all_zero(&s));
        let mut s = recycled(s);
        // The second generation is reset too.
        s.fill(lo + 8191, 1, 2).unwrap();
        recycled(s);
    }

    #[test]
    fn size_mismatch_frees_the_parked_buffer() {
        let mut s = AddressSpace::new(0x1_0000, LARGE);
        s.write_u64(s.lo(), 7).unwrap();
        drop(s);
        assert_eq!(parked_lens(), [RECYCLE_MIN]);
        // The buffer and its map park and leave together.
        let mut other = AddressSpace::new(0x1_0000, LARGE + 72);
        assert_eq!(parked_lens(), []);
        assert!(all_zero(&other));
        // The last chunk holds 72 bytes: a line and a part of one.
        let hi = other.hi();
        other.write_uint(hi - 1, 0xff, 1).unwrap();
        other.fill(hi - 100, 0x33, 100).unwrap();
        let other = recycled(other);
        drop(other);
        assert_eq!(parked_lens(), [RECYCLE_MIN + 72]);
        let _small = AddressSpace::new(0x1_0000, 4096);
        assert_eq!(parked_lens(), []);
    }

    #[test]
    fn small_spaces_are_not_parked() {
        let s = AddressSpace::new(0x1_0000, LARGE - 8);
        drop(s);
        assert_eq!(parked_lens(), []);
    }

    #[test]
    fn session_unwinding_mid_write_leaves_the_next_space_zero() {
        let unwound = std::panic::catch_unwind(|| {
            let mut s = AddressSpace::new(0x1_0000, LARGE);
            let lo = s.lo();
            s.fill(lo + 4000, 0xee, 200).unwrap();
            s.write_u64(s.hi() - 8, u64::MAX).unwrap();
            // An unsupported width panics with the space still live.
            s.write_uint(lo, 1, 3).unwrap();
        });
        assert!(unwound.is_err());
        assert_eq!(parked_lens(), [RECYCLE_MIN]);
        let next = AddressSpace::new(0x1_0000, LARGE);
        assert!(all_zero(&next));
    }

    #[test]
    fn fault_error_displays() {
        let s = space();
        let err = s.read_u64(Addr::new(8)).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("outside the simulated address space"));
    }
}
