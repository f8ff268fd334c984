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
//! Only the 4 KiB chunks written since the buffer was zero are reset. Every
//! write marks its chunks in a dirty map *before* the bytes change, so a
//! session that unwinds mid-write is still reset in full, and a recycled
//! buffer is byte-for-byte a fresh one.

use std::cell::RefCell;
use std::ops::Deref;

/// Log2 of the dirty-map granule (4 KiB).
const CHUNK_SHIFT: u32 = 12;

/// Smallest address space whose buffers are parked on drop.
pub(crate) const RECYCLE_MIN: usize = 32 << 20;

thread_local! {
    /// The all-zero buffers the last large world on this thread left
    /// behind, at most one per length.
    static PARKED: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Zero-initialised bytes; a buffer that will be parked also keeps one dirty
/// flag per 4 KiB chunk.
#[derive(Clone)]
pub(crate) struct Arena {
    bytes: Vec<u8>,
    dirty: Vec<bool>,
}

impl Arena {
    /// `size` zero bytes, parked on drop if `parks`: the parked buffer of
    /// that size if there is one, otherwise a fresh allocation (and every
    /// parked buffer is freed).
    pub(crate) fn zeroed(size: usize, parks: bool) -> Self {
        let parked = PARKED
            .try_with(|slot| {
                let mut slot = slot.borrow_mut();
                match slot.iter().position(|b| b.len() == size) {
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
        let chunks = if parks {
            size.div_ceil(1 << CHUNK_SHIFT)
        } else {
            0
        };
        Arena {
            bytes: parked.unwrap_or_else(|| vec![0u8; size]),
            dirty: vec![false; chunks],
        }
    }

    /// Whether this buffer is parked when it drops.
    pub(crate) fn parks(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Marks the chunks of `[i, i+len)`. The first and last chunk take one
    /// flag store each, so the short ranges of redzones and small objects
    /// make no `memset` call; only the chunks strictly between them are
    /// filled.
    #[inline]
    fn mark(&mut self, i: usize, len: usize) {
        if len > 0 && self.parks() {
            let (first, last) = (i >> CHUNK_SHIFT, (i + len - 1) >> CHUNK_SHIFT);
            self.dirty[first] = true;
            self.dirty[last] = true;
            if last > first + 1 {
                self.dirty[first + 1..last].fill(true);
            }
        }
    }

    /// The bytes `[i, i+len)` for writing, their chunks marked dirty first.
    pub(crate) fn slice_mut(&mut self, i: usize, len: usize) -> &mut [u8] {
        self.mark(i, len);
        &mut self.bytes[i..i + len]
    }

    /// [`Arena::slice_mut`] for one load/store width: `N` is at most a
    /// chunk, so the word touches only its first and last chunk. Two flag
    /// stores and a fixed-size copy keep the interpreter's store path as
    /// short as it was without the dirty map.
    #[inline]
    pub(crate) fn word_mut<const N: usize>(&mut self, i: usize) -> &mut [u8; N] {
        const { assert!(N >= 1 && N <= 1 << CHUNK_SHIFT, "not a word") };
        if self.parks() {
            self.dirty[i >> CHUNK_SHIFT] = true;
            self.dirty[(i + N - 1) >> CHUNK_SHIFT] = true;
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
        // One `memset` per run of dirty chunks, so that glibc zeroes a long
        // run with streaming stores.
        let mut chunk = 0;
        while let Some(start) = self.dirty[chunk..].iter().position(|&d| d) {
            let start = chunk + start;
            let end = self.dirty[start..]
                .iter()
                .position(|&d| !d)
                .map_or(self.dirty.len(), |n| start + n);
            let hi = (end << CHUNK_SHIFT).min(self.bytes.len());
            self.bytes[start << CHUNK_SHIFT..hi].fill(0);
            chunk = end;
        }
        let bytes = std::mem::take(&mut self.bytes);
        // During thread teardown the slot may be gone; the buffer is then
        // simply freed, as is a second buffer of a length already parked.
        let _ = PARKED.try_with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.iter().all(|b| b.len() != bytes.len()) {
                slot.push(bytes);
            }
        });
    }
}

/// Lengths of the buffers parked on this thread, shortest first.
#[cfg(test)]
pub(crate) fn parked_lens() -> Vec<usize> {
    let mut lens: Vec<_> = PARKED.with(|slot| slot.borrow().iter().map(Vec::len).collect());
    lens.sort_unstable();
    lens
}
