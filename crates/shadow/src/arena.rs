//! The backing bytes of an [`AddressSpace`](crate::AddressSpace), kept
//! mapped between sessions when they are large.
//!
//! glibc serves every allocation of [`RECYCLE_MIN`] bytes or more with a
//! fresh `mmap` and unmaps it on free (`DEFAULT_MMAP_THRESHOLD_MAX` on
//! 64-bit), so each session of a large world paid a page fault and a page
//! zeroing for every page it touched. Instead, a large buffer that drops is
//! reset to zero and parked in a one-slot thread-local, and the next space
//! of the same size on that thread takes it. A thread holds at most one
//! parked buffer: a space of any other size frees it.
//!
//! Only the 4 KiB chunks written since the buffer was zero are reset. Every
//! write marks its chunks in a dirty map *before* the bytes change, so a
//! session that unwinds mid-write is still reset in full, and a recycled
//! buffer is byte-for-byte a fresh one.

use std::cell::Cell;
use std::ops::Deref;

/// Log2 of the dirty-map granule (4 KiB).
const CHUNK_SHIFT: u32 = 12;

/// Smallest buffer that is parked on drop.
pub(crate) const RECYCLE_MIN: usize = 32 << 20;

thread_local! {
    /// The all-zero buffer the last large space on this thread left behind.
    static PARKED: Cell<Option<Vec<u8>>> = const { Cell::new(None) };
}

/// Zero-initialised bytes; a buffer large enough to be parked also keeps one
/// dirty flag per 4 KiB chunk.
#[derive(Clone)]
pub(crate) struct Arena {
    bytes: Vec<u8>,
    dirty: Vec<bool>,
}

impl Arena {
    /// `size` zero bytes: the parked buffer if its size matches, otherwise
    /// a fresh allocation (and a parked buffer of another size is freed).
    pub(crate) fn zeroed(size: usize) -> Self {
        let bytes = match PARKED.try_with(Cell::take).ok().flatten() {
            Some(parked) if parked.len() == size => parked,
            _ => vec![0u8; size],
        };
        // Only a buffer that will be parked needs a dirty map; small spaces
        // allocate nothing beyond their bytes.
        let chunks = if size >= RECYCLE_MIN {
            size.div_ceil(1 << CHUNK_SHIFT)
        } else {
            0
        };
        Arena {
            bytes,
            dirty: vec![false; chunks],
        }
    }

    fn mark(&mut self, i: usize, len: usize) {
        if len > 0 && !self.dirty.is_empty() {
            self.dirty[i >> CHUNK_SHIFT..=(i + len - 1) >> CHUNK_SHIFT].fill(true);
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
        if !self.dirty.is_empty() {
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
        if self.bytes.len() < RECYCLE_MIN {
            return;
        }
        for (chunk, _) in self.dirty.iter().enumerate().filter(|(_, &d)| d) {
            let lo = chunk << CHUNK_SHIFT;
            let hi = (lo + (1 << CHUNK_SHIFT)).min(self.bytes.len());
            self.bytes[lo..hi].fill(0);
        }
        let bytes = std::mem::take(&mut self.bytes);
        // During thread teardown the slot may be gone; the buffer is then
        // simply freed.
        let _ = PARKED.try_with(|slot| slot.set(Some(bytes)));
    }
}

/// Length of the buffer parked on this thread, if any.
#[cfg(test)]
pub(crate) fn parked_len() -> Option<usize> {
    PARKED.with(|slot| {
        let parked = slot.take();
        let len = parked.as_ref().map(Vec::len);
        slot.set(parked);
        len
    })
}
