//! The FIFO quarantine for freed heap blocks.
//!
//! Location-based sanitizers delay the reuse of freed memory so that dangling
//! pointers keep landing on poisoned shadow (paper §2.2). [`Quarantine`] is
//! ASan's byte-capped FIFO: blocks leave one at a time in arrival order
//! ("quarantine bypassing" is the limitation the paper acknowledges in §5.4).

use std::collections::VecDeque;

use crate::ObjectId;

/// A byte-capped FIFO of quarantined (freed, not yet reusable) blocks.
///
/// # Example
///
/// ```
/// use giantsan_runtime::Quarantine;
/// use giantsan_runtime::ObjectId;
///
/// let mut q = Quarantine::new(100);
/// assert_eq!(q.push(ObjectId(1), 60).count(), 0);
/// // Pushing 60 more exceeds the 100-byte cap: the first block is evicted.
/// let evicted: Vec<_> = q.push(ObjectId(2), 60).collect();
/// assert_eq!(evicted, vec![ObjectId(1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    cap: u64,
    used: u64,
    queue: VecDeque<(ObjectId, u64)>,
}

impl Quarantine {
    /// Creates a quarantine holding at most `cap` bytes. A zero cap disables
    /// quarantining: every push evicts immediately.
    pub fn new(cap: u64) -> Self {
        Quarantine {
            cap,
            used: 0,
            queue: VecDeque::new(),
        }
    }

    /// Bytes currently quarantined.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of blocks currently quarantined.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no blocks are quarantined.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Quarantines a block of `len` bytes, returning an iterator over the
    /// ids evicted to stay within the cap (oldest first). The pushed block
    /// itself is evicted immediately when `len` alone exceeds the cap.
    ///
    /// The iterator borrows the quarantine and evicts lazily; dropping it
    /// early still completes the evictions, so the cap invariant holds
    /// whether or not the caller consumes every item. No allocation happens
    /// when nothing is evicted — the reason this replaced the old
    /// `Vec<ObjectId>` return.
    pub fn push(&mut self, id: ObjectId, len: u64) -> Evictions<'_> {
        self.queue.push_back((id, len));
        self.used += len;
        Evictions { q: self }
    }

    /// Drains every block from the quarantine (oldest first), e.g. at world
    /// teardown. The iterator borrows the quarantine; dropping it early
    /// still leaves the quarantine empty.
    pub fn drain(&mut self) -> impl Iterator<Item = ObjectId> + '_ {
        self.used = 0;
        self.queue.drain(..).map(|(id, _)| id)
    }
}

/// Lazy eviction iterator returned by [`Quarantine::push`].
///
/// Yields the oldest blocks while the quarantine is over its cap. Dropping
/// the iterator finishes any remaining evictions.
#[derive(Debug)]
pub struct Evictions<'a> {
    q: &'a mut Quarantine,
}

impl Iterator for Evictions<'_> {
    type Item = ObjectId;

    fn next(&mut self) -> Option<ObjectId> {
        if self.q.used <= self.q.cap {
            return None;
        }
        let (old, olen) = self
            .q
            .queue
            .pop_front()
            .expect("used > cap implies nonempty queue");
        self.q.used -= olen;
        Some(old)
    }
}

impl Drop for Evictions<'_> {
    fn drop(&mut self) {
        // Restore the cap invariant even if the caller stopped iterating.
        while self.next().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_eviction_order() {
        let mut q = Quarantine::new(100);
        assert_eq!(q.push(ObjectId(1), 40).count(), 0);
        assert_eq!(q.push(ObjectId(2), 40).count(), 0);
        let ev: Vec<_> = q.push(ObjectId(3), 40).collect();
        assert_eq!(ev, vec![ObjectId(1)]);
        assert_eq!(q.used_bytes(), 80);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn oversized_block_evicts_through_itself() {
        let mut q = Quarantine::new(50);
        assert_eq!(q.push(ObjectId(1), 10).count(), 0);
        let ev: Vec<_> = q.push(ObjectId(2), 100).collect();
        assert_eq!(ev, vec![ObjectId(1), ObjectId(2)]);
        assert!(q.is_empty());
        assert_eq!(q.used_bytes(), 0);
    }

    #[test]
    fn zero_cap_disables_quarantine() {
        let mut q = Quarantine::new(0);
        let ev: Vec<_> = q.push(ObjectId(7), 8).collect();
        assert_eq!(ev, vec![ObjectId(7)]);
        assert!(q.is_empty());
    }

    #[test]
    fn dropping_the_iterator_still_evicts() {
        let mut q = Quarantine::new(50);
        q.push(ObjectId(1), 40).count();
        drop(q.push(ObjectId(2), 40));
        assert_eq!(q.used_bytes(), 40, "cap invariant restored by Drop");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_returns_all_in_order() {
        let mut q = Quarantine::new(1000);
        q.push(ObjectId(1), 10).count();
        q.push(ObjectId(2), 10).count();
        q.push(ObjectId(3), 10).count();
        let all: Vec<_> = q.drain().collect();
        assert_eq!(all, vec![ObjectId(1), ObjectId(2), ObjectId(3)]);
        assert!(q.is_empty());
        assert_eq!(q.used_bytes(), 0);
    }
}
