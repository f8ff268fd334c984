//! The backing bytes of an [`AddressSpace`](crate::AddressSpace) and of its
//! [`ShadowMemory`](crate::ShadowMemory), kept mapped between sessions when
//! the space is large.
//!
//! glibc serves every allocation of [`RECYCLE_MIN`] bytes or more with a
//! fresh `mmap` and unmaps it on free (`DEFAULT_MMAP_THRESHOLD_MAX` on
//! 64-bit), so each session of a large world paid a page fault and a page
//! zeroing for every page it touched, and every session filled its whole
//! shadow. Instead, a large world's buffers are reset to zero when they drop
//! and parked in a thread-local, and the next world of the same size on that
//! thread takes them. A shadow stores each code XOR its fill byte (see
//! [`ShadowMemory`](crate::ShadowMemory)), so a fresh shadow is all zero
//! whatever its tool, and one parked buffer serves every tool.
//!
//! A thread parks at most one buffer per length. A request that finds no
//! buffer of its length frees every parked one, so a thread keeps the
//! buffers of one world geometry at most.
//!
//! Only the 64-byte lines written since the buffer was zero are reset. The
//! dirty map keeps one `u64` per 4 KiB chunk, one bit per line. Every write
//! marks its lines *before* the bytes change, so a session that unwinds
//! mid-write is still reset in full, and a recycled buffer is byte-for-byte
//! a fresh one. The map is all zero again after the reset and parks with
//! its buffer.

use std::cell::RefCell;
use std::ops::Deref;

/// Log2 of the dirty granule, one cache line (64 B).
const LINE_SHIFT: u32 = 6;
/// Log2 of the bytes one map word covers (4 KiB: 64 lines).
const CHUNK_SHIFT: u32 = LINE_SHIFT + 6;

/// Smallest address space whose buffers are parked on drop.
pub(crate) const RECYCLE_MIN: usize = 32 << 20;

/// An all-zero buffer and its all-zero dirty map.
struct Parked {
    bytes: Vec<u8>,
    dirty: Vec<u64>,
}

thread_local! {
    /// The buffers the last large world on this thread left behind, at
    /// most one per length.
    static PARKED: RefCell<Vec<Parked>> = const { RefCell::new(Vec::new()) };
}

/// Zero-initialised bytes; a buffer that will be parked also keeps a dirty
/// map, one bit per 64-byte line.
#[derive(Clone)]
pub(crate) struct Arena {
    bytes: Vec<u8>,
    dirty: Vec<u64>,
}

impl Arena {
    /// `size` zero bytes, parked on drop if `parks`: the parked buffer of
    /// that size if there is one, otherwise a fresh allocation (and every
    /// parked buffer is freed).
    pub(crate) fn zeroed(size: usize, parks: bool) -> Self {
        let parked = PARKED
            .try_with(|slot| {
                let mut slot = slot.borrow_mut();
                match slot.iter().position(|p| p.bytes.len() == size) {
                    Some(i) => Some(slot.swap_remove(i)),
                    None => {
                        slot.clear();
                        None
                    }
                }
            })
            .ok()
            .flatten();
        // Only a buffer that will be parked needs a dirty map; small worlds
        // allocate nothing beyond their bytes.
        let Parked { bytes, mut dirty } = parked.unwrap_or_else(|| Parked {
            bytes: vec![0; size],
            dirty: Vec::new(),
        });
        if parks {
            dirty.resize(size.div_ceil(1 << CHUNK_SHIFT), 0);
        } else {
            dirty = Vec::new();
        }
        Arena { bytes, dirty }
    }

    /// Whether this buffer is parked when it drops.
    pub(crate) fn parks(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Marks the lines of `[i, i+len)`. The first and last chunk each take
    /// one OR of an edge mask, so the short ranges of redzones and small
    /// objects make no `memset` call; only the map words strictly between
    /// them are filled.
    #[inline]
    fn mark(&mut self, i: usize, len: usize) {
        if len > 0 && self.parks() {
            let (first, last) = (i >> LINE_SHIFT, (i + len - 1) >> LINE_SHIFT);
            let (lo, hi) = (first >> 6, last >> 6);
            let from_first = !0u64 << (first & 63);
            let to_last = !0u64 >> (63 - (last & 63));
            if lo == hi {
                self.dirty[lo] |= from_first & to_last;
            } else {
                self.dirty[lo] |= from_first;
                self.dirty[hi] |= to_last;
                if hi > lo + 1 {
                    self.dirty[lo + 1..hi].fill(!0);
                }
            }
        }
    }

    /// Marks the line holding byte `i`.
    #[inline]
    fn mark_line(&mut self, i: usize) {
        let line = i >> LINE_SHIFT;
        self.dirty[line >> 6] |= 1 << (line & 63);
    }

    /// The bytes `[i, i+len)` for writing, their lines marked dirty first.
    pub(crate) fn slice_mut(&mut self, i: usize, len: usize) -> &mut [u8] {
        self.mark(i, len);
        &mut self.bytes[i..i + len]
    }

    /// [`Arena::slice_mut`] for one load/store width: `N` is at most a
    /// line, so the word touches its first line and, only if it straddles
    /// a line boundary, the next. One OR in the common case and a
    /// fixed-size copy keep the interpreter's store path short.
    #[inline]
    pub(crate) fn word_mut<const N: usize>(&mut self, i: usize) -> &mut [u8; N] {
        const { assert!(N >= 1 && N <= 1 << LINE_SHIFT, "not a word") };
        if self.parks() {
            self.mark_line(i);
            if (i & ((1 << LINE_SHIFT) - 1)) + N > 1 << LINE_SHIFT {
                self.mark_line(i + N - 1);
            }
        }
        self.bytes[i..]
            .first_chunk_mut()
            .expect("a word lies inside the arena")
    }

    /// `memmove` of `len` bytes from offset `src` to offset `dst`.
    pub(crate) fn copy_within(&mut self, src: usize, dst: usize, len: usize) {
        self.mark(dst, len);
        self.bytes.copy_within(src..src + len, dst);
    }

    /// Zeroes every dirty line and clears the map: one `memset` per run of
    /// fully dirty chunks, so that glibc zeroes a long run with streaming
    /// stores, and one per run of dirty lines inside any other chunk.
    fn reset(&mut self) {
        let (bytes, dirty) = (&mut self.bytes[..], &mut self.dirty[..]);
        let len = bytes.len();
        let mut c = 0;
        while c < dirty.len() {
            // Most of a session's map is clean; skip it eight words at a time.
            if let Some(eight) = dirty.get(c..c + 8) {
                if eight.iter().fold(0, |acc, &w| acc | w) == 0 {
                    c += 8;
                    continue;
                }
            }
            let mut w = std::mem::take(&mut dirty[c]);
            let base = c << CHUNK_SHIFT;
            c += 1;
            if w == !0 {
                while c < dirty.len() && dirty[c] == !0 {
                    dirty[c] = 0;
                    c += 1;
                }
                bytes[base..(c << CHUNK_SHIFT).min(len)].fill(0);
                continue;
            }
            while w != 0 {
                let skip = w.trailing_zeros();
                let run = (w >> skip).trailing_ones();
                let start = base + ((skip as usize) << LINE_SHIFT);
                let end = start + ((run as usize) << LINE_SHIFT);
                bytes[start..end.min(len)].fill(0);
                // Adding the lowest set bit carries through the lowest run.
                w &= w.wrapping_add(w & w.wrapping_neg());
            }
        }
    }

    /// Address of the dirty map, to tell a recycled map apart.
    #[cfg(test)]
    pub(crate) fn map_ptr(&self) -> *const u64 {
        self.dirty.as_ptr()
    }
}

impl Deref for Arena {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        if !self.parks() {
            return;
        }
        self.reset();
        let parked = Parked {
            bytes: std::mem::take(&mut self.bytes),
            dirty: std::mem::take(&mut self.dirty),
        };
        // During thread teardown the slot may be gone; the buffer is then
        // simply freed, as is a second buffer of a length already parked.
        let _ = PARKED.try_with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.iter().all(|p| p.bytes.len() != parked.bytes.len()) {
                slot.push(parked);
            }
        });
    }
}

/// Lengths of the buffers parked on this thread, shortest first. Asserts
/// that each parked map covers its buffer and is all zero.
#[cfg(test)]
pub(crate) fn parked_lens() -> Vec<usize> {
    let mut lens: Vec<_> = PARKED.with(|slot| {
        slot.borrow()
            .iter()
            .map(|p| {
                assert_eq!(p.dirty.len(), p.bytes.len().div_ceil(1 << CHUNK_SHIFT));
                assert!(p.dirty.iter().all(|&w| w == 0), "a parked map is dirty");
                p.bytes.len()
            })
            .collect()
    });
    lens.sort_unstable();
    lens
}
