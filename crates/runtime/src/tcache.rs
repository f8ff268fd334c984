//! Thread-local allocation caches (paper §4.5).
//!
//! "The multi-thread guarantee of GiantSan is the same as ASan, i.e.,
//! thread-local caches are utilized to avoid locking on every call of the
//! malloc and free functions." This module reproduces that design point for
//! the simulated runtime: a [`ThreadCachedAllocator`] fronts a shared,
//! mutex-protected sanitizer with per-thread size-class bins. `free` pushes
//! into the local bin without locking; `alloc` first pops the local bin;
//! the shared sanitizer is only locked on bin miss or overflow flush.
//!
//! Like real ASan's per-thread quarantine caches, deferring the shared
//! `free` means a block parked in a local bin is recycled to the *same
//! thread* without entering the global quarantine — a bounded detection
//! window traded for scalability (bounded by [`ThreadCachedAllocator::BIN_CAP`]).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use giantsan_shadow::align_up;

use crate::{Allocation, HeapError, Region, Sanitizer};

/// Statistics of one thread's cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcacheStats {
    /// Allocations served from the local bin (no lock taken).
    pub local_hits: u64,
    /// Frees parked locally (no lock taken).
    pub local_frees: u64,
    /// Times the shared sanitizer was locked (allocation misses + flushes).
    pub shared_locks: u64,
}

/// A per-thread allocation front for a shared sanitizer.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use parking_lot::Mutex;
/// use giantsan_runtime::{NullSanitizer, Region, RuntimeConfig, ThreadCachedAllocator};
///
/// let shared = Arc::new(Mutex::new(NullSanitizer::new(RuntimeConfig::small())));
/// let mut tc = ThreadCachedAllocator::new(shared);
/// let a = tc.alloc(100, Region::Heap).unwrap();
/// tc.free(a);
/// // Same-size reallocation is served locally, without locking.
/// let b = tc.alloc(100, Region::Heap).unwrap();
/// assert_eq!(a.base, b.base);
/// assert_eq!(tc.stats().local_hits, 1);
/// tc.flush();
/// ```
#[derive(Debug)]
pub struct ThreadCachedAllocator<S: Sanitizer> {
    shared: Arc<Mutex<S>>,
    bins: HashMap<u64, Vec<Allocation>>,
    stats: TcacheStats,
}

impl<S: Sanitizer> ThreadCachedAllocator<S> {
    /// Blocks parked per size class before half the bin is flushed to the
    /// shared quarantine.
    pub const BIN_CAP: usize = 8;

    /// Creates a cache fronting `shared`.
    pub fn new(shared: Arc<Mutex<S>>) -> Self {
        ThreadCachedAllocator {
            shared,
            bins: HashMap::new(),
            stats: TcacheStats::default(),
        }
    }

    /// Local statistics.
    pub fn stats(&self) -> TcacheStats {
        self.stats
    }

    fn bin_key(size: u64) -> u64 {
        align_up(size.max(1), 8)
    }

    /// Allocates, preferring the local bin of the exact size class.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError`] when the shared arena is exhausted.
    pub fn alloc(&mut self, size: u64, region: Region) -> Result<Allocation, HeapError> {
        if region == Region::Heap {
            if let Some(bin) = self.bins.get_mut(&Self::bin_key(size)) {
                if let Some(a) = bin.pop() {
                    self.stats.local_hits += 1;
                    return Ok(a);
                }
            }
        }
        self.stats.shared_locks += 1;
        self.shared.lock().alloc(size, region)
    }

    /// Frees by parking the block in the local bin; flushes half the bin to
    /// the shared sanitizer when it overflows.
    pub fn free(&mut self, a: Allocation) {
        if a.region != Region::Heap {
            self.stats.shared_locks += 1;
            let _ = self.shared.lock().free(a.base);
            return;
        }
        let bin = self.bins.entry(Self::bin_key(a.size)).or_default();
        bin.push(a);
        self.stats.local_frees += 1;
        if bin.len() > Self::BIN_CAP {
            let drain: Vec<Allocation> = bin.drain(..Self::BIN_CAP / 2).collect();
            self.stats.shared_locks += 1;
            let mut shared = self.shared.lock();
            for b in drain {
                let _ = shared.free(b.base);
            }
        }
    }

    /// Returns every parked block to the shared sanitizer (thread exit).
    pub fn flush(&mut self) {
        let bins = std::mem::take(&mut self.bins);
        let blocks: Vec<Allocation> = bins.into_values().flatten().collect();
        if blocks.is_empty() {
            return;
        }
        self.stats.shared_locks += 1;
        let mut shared = self.shared.lock();
        for b in blocks {
            let _ = shared.free(b.base);
        }
    }
}

impl<S: Sanitizer> Drop for ThreadCachedAllocator<S> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullSanitizer, RuntimeConfig};

    fn shared() -> Arc<Mutex<NullSanitizer>> {
        Arc::new(Mutex::new(NullSanitizer::new(RuntimeConfig::small())))
    }

    #[test]
    fn local_reuse_avoids_locking() {
        let s = shared();
        let mut tc = ThreadCachedAllocator::new(Arc::clone(&s));
        let a = tc.alloc(64, Region::Heap).unwrap();
        let locks_after_first = tc.stats().shared_locks;
        tc.free(a);
        for _ in 0..10 {
            let b = tc.alloc(64, Region::Heap).unwrap();
            assert_eq!(b.base, a.base, "same-class block served locally");
            tc.free(b);
        }
        assert_eq!(tc.stats().local_hits, 10);
        assert_eq!(
            tc.stats().shared_locks,
            locks_after_first,
            "the malloc/free loop must not touch the lock"
        );
    }

    #[test]
    fn bin_overflow_flushes_half() {
        let s = shared();
        let mut tc = ThreadCachedAllocator::new(Arc::clone(&s));
        let blocks: Vec<_> = (0..=ThreadCachedAllocator::<NullSanitizer>::BIN_CAP)
            .map(|_| tc.alloc(32, Region::Heap).unwrap())
            .collect();
        let before = s.lock().counters().frees;
        for b in blocks {
            tc.free(b);
        }
        let after = s.lock().counters().frees;
        assert_eq!(
            (after - before) as usize,
            ThreadCachedAllocator::<NullSanitizer>::BIN_CAP / 2,
            "overflow flushes half the bin to the shared quarantine"
        );
    }

    #[test]
    fn flush_returns_everything() {
        let s = shared();
        let mut tc = ThreadCachedAllocator::new(Arc::clone(&s));
        let a = tc.alloc(16, Region::Heap).unwrap();
        let b = tc.alloc(24, Region::Heap).unwrap();
        tc.free(a);
        tc.free(b);
        tc.flush();
        assert_eq!(s.lock().counters().frees, 2);
        // After a flush the next allocation goes to the shared heap again.
        let _ = tc.alloc(16, Region::Heap).unwrap();
        assert!(tc.stats().shared_locks >= 3);
    }

    #[test]
    fn drop_flushes() {
        let s = shared();
        {
            let mut tc = ThreadCachedAllocator::new(Arc::clone(&s));
            let a = tc.alloc(16, Region::Heap).unwrap();
            tc.free(a);
        }
        assert_eq!(s.lock().counters().frees, 1);
    }

    #[test]
    fn stack_allocations_bypass_the_cache() {
        let s = shared();
        let mut tc = ThreadCachedAllocator::new(Arc::clone(&s));
        s.lock().push_frame();
        let a = tc.alloc(32, Region::Stack).unwrap();
        assert_eq!(a.region, Region::Stack);
        // Freeing a stack object goes (incorrectly, like real code would)
        // to the shared free path and is ignored by the null sanitizer.
        tc.free(a);
        assert_eq!(tc.stats().local_frees, 0);
    }

    #[test]
    fn concurrent_threads_share_one_world() {
        let s = shared();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    let mut tc = ThreadCachedAllocator::new(s);
                    let mut held = Vec::new();
                    for i in 0..200u64 {
                        let a = tc.alloc(16 + (i % 4) * 16, Region::Heap).unwrap();
                        held.push(a);
                        if held.len() > 4 {
                            tc.free(held.remove(0));
                        }
                    }
                    for a in held {
                        tc.free(a);
                    }
                    // The hot loop was overwhelmingly lock-free.
                    assert!(tc.stats().local_hits > 100, "{:?}", tc.stats());
                });
            }
        });
        // Every allocation was eventually returned.
        let guard = s.lock();
        assert_eq!(guard.counters().allocs - guard.counters().frees, 0);
    }
}
