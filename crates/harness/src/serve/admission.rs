//! Admission control: per-client token buckets and a bounded job queue.
//!
//! Two gates stand between a submission and a worker:
//!
//! 1. **Rate limit** — every client (the `X-Client` header, falling back to
//!    the peer IP) owns a token bucket refilled at `rate` tokens/second up
//!    to `burst`. A submission without a token is shed with `429` and a
//!    `Retry-After` telling the client when a token will exist. Buckets are
//!    lazily created and periodically pruned, so an attacker cycling client
//!    ids cannot grow the table without bound.
//! 2. **Bounded queue** — accepted jobs enter a FIFO of fixed capacity.
//!    When the workers fall behind and the queue fills, further submissions
//!    are shed with `429 + Retry-After` (load shedding, not buffering:
//!    unbounded queues turn overload into latency and memory growth).
//!
//! Shedding is deliberately cheap — no allocation beyond the response — so
//! the service degrades gracefully: past saturation, throughput stays at
//! the pool's capacity and excess load is bounced in O(1) per request.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A per-client token bucket.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Tokens available, in token-microseconds (scaled to avoid floats).
    tokens_us: u64,
    /// Last refill instant.
    refreshed: Instant,
}

/// Per-client token-bucket rate limiter.
#[derive(Debug)]
pub struct RateLimiter {
    /// Refill rate in tokens per second; 0 disables the limiter.
    rate: u32,
    /// Bucket capacity in tokens.
    burst: u32,
    buckets: Mutex<HashMap<String, Bucket>>,
}

/// The outcome of asking the limiter for one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateDecision {
    /// Token granted.
    Admit,
    /// Shed; retry after the embedded number of whole seconds (≥ 1).
    Shed {
        /// Seconds until a token is expected (rounded up, minimum 1).
        retry_after_s: u64,
    },
}

const TOKEN_US: u64 = 1_000_000;

impl RateLimiter {
    /// A limiter granting `rate` submissions/second with bursts of `burst`.
    /// `rate == 0` disables rate limiting entirely.
    pub fn new(rate: u32, burst: u32) -> RateLimiter {
        RateLimiter {
            rate,
            burst: burst.max(1),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Takes one token for `client`, refilling the bucket first.
    pub fn admit(&self, client: &str) -> RateDecision {
        if self.rate == 0 {
            return RateDecision::Admit;
        }
        let now = Instant::now();
        let mut buckets = self.buckets.lock().expect("rate limiter poisoned");
        // Opportunistic pruning keeps the table bounded against client-id
        // churn: full buckets that have not been touched lately carry no
        // information (a fresh bucket is also full).
        if buckets.len() >= 4096 {
            let burst_us = self.burst as u64 * TOKEN_US;
            buckets.retain(|_, b| b.tokens_us < burst_us);
        }
        let bucket = buckets.entry(client.to_string()).or_insert(Bucket {
            tokens_us: self.burst as u64 * TOKEN_US,
            refreshed: now,
        });
        let elapsed_us = now.duration_since(bucket.refreshed).as_micros() as u64;
        let refill = elapsed_us.saturating_mul(self.rate as u64);
        bucket.tokens_us = (bucket.tokens_us + refill).min(self.burst as u64 * TOKEN_US);
        bucket.refreshed = now;
        if bucket.tokens_us >= TOKEN_US {
            bucket.tokens_us -= TOKEN_US;
            RateDecision::Admit
        } else {
            let deficit_us = TOKEN_US - bucket.tokens_us;
            let wait_us = deficit_us.div_ceil(self.rate as u64);
            RateDecision::Shed {
                retry_after_s: wait_us.div_ceil(TOKEN_US).max(1),
            }
        }
    }
}

/// Why a push into the bounded queue was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueRefusal {
    /// The queue is at capacity — shed with 429.
    Full {
        /// Suggested client back-off in seconds.
        retry_after_s: u64,
    },
    /// The queue is draining for shutdown — shed with 503.
    Draining,
}

/// A bounded MPMC FIFO with shutdown semantics.
///
/// Producers (HTTP handlers) [`BoundedQueue::push`], or
/// [`BoundedQueue::reserve`] a slot before building the item and then
/// [`Slot::fill`] it; consumers (job workers) [`BoundedQueue::pop`],
/// blocking until an item or drain. Closing the queue wakes every waiter:
/// producers start refusing, consumers drain what is left and then observe
/// `None`.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    available: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    /// Slots handed out by [`BoundedQueue::reserve`] and not yet filled or
    /// dropped; they count against the capacity.
    reserved: usize,
    closed: bool,
}

/// A place in a [`BoundedQueue`], held between
/// [`BoundedQueue::reserve`] and [`Slot::fill`]. Dropping it unfilled
/// gives the place back.
#[derive(Debug)]
pub struct Slot<'q, T> {
    queue: &'q BoundedQueue<T>,
}

impl<T> Slot<'_, T> {
    /// Enqueues `item` in the reserved place. A slot reserved before the
    /// queue closed is still filled: the item joins the drain.
    pub fn fill(self, item: T) {
        let queue = self.queue;
        std::mem::forget(self);
        let mut inner = queue.inner.lock().expect("queue poisoned");
        inner.reserved -= 1;
        inner.items.push_back(item);
        drop(inner);
        queue.available.notify_one();
    }
}

impl<T> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        // A poisoned queue refuses every later call anyway; a drop must not
        // panic.
        if let Ok(mut inner) = self.queue.inner.lock() {
            inner.reserved -= 1;
        }
    }
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                reserved: 0,
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The queue's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (for metrics/readiness; racy by nature).
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Enqueues `item`, refusing when full or draining.
    pub fn push(&self, item: T) -> Result<(), QueueRefusal> {
        self.reserve()?.fill(item);
        Ok(())
    }

    /// Takes one place in the queue for an item not built yet, refusing
    /// when full or draining. A refused caller has done no work for the
    /// item.
    pub fn reserve(&self) -> Result<Slot<'_, T>, QueueRefusal> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(QueueRefusal::Draining);
        }
        if inner.items.len() + inner.reserved >= self.capacity {
            // Retry-After scales with how deep the backlog is: a full queue
            // of slow jobs needs a longer back-off than a blip.
            return Err(QueueRefusal::Full {
                retry_after_s: (self.capacity as u64 / 64).clamp(1, 30),
            });
        }
        inner.reserved += 1;
        Ok(Slot { queue: self })
    }

    /// Dequeues the next item, blocking while the queue is open and empty.
    /// `None` means the queue is closed **and** fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).expect("queue poisoned");
        }
    }

    /// Closes the queue: producers refuse, blocked consumers wake, items
    /// already queued are still handed out (drain semantics).
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bucket_admits_burst_then_sheds_with_retry_after() {
        let rl = RateLimiter::new(1, 3);
        for _ in 0..3 {
            assert_eq!(rl.admit("alice"), RateDecision::Admit);
        }
        match rl.admit("alice") {
            RateDecision::Shed { retry_after_s } => assert!(retry_after_s >= 1),
            other => panic!("expected shed, got {other:?}"),
        }
        // A different client has its own bucket.
        assert_eq!(rl.admit("bob"), RateDecision::Admit);
    }

    #[test]
    fn zero_rate_disables_limiting() {
        let rl = RateLimiter::new(0, 1);
        for _ in 0..100 {
            assert_eq!(rl.admit("anyone"), RateDecision::Admit);
        }
    }

    #[test]
    fn queue_sheds_when_full_and_drains_on_close() {
        let q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(matches!(q.push(3), Err(QueueRefusal::Full { .. })));
        q.close();
        assert!(matches!(q.push(4), Err(QueueRefusal::Draining)));
        // Drain semantics: queued items survive the close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_reserved_slot_counts_until_filled_or_dropped() {
        let q = BoundedQueue::new(1);
        let slot = q.reserve().unwrap();
        assert!(matches!(q.push(1), Err(QueueRefusal::Full { .. })));
        drop(slot);
        let slot = q.reserve().unwrap();
        q.close();
        assert!(matches!(q.reserve(), Err(QueueRefusal::Draining)));
        // Reserved before the close, the slot still joins the drain.
        slot.fill(2);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = std::sync::Arc::new(BoundedQueue::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(7u32).unwrap();
        assert_eq!(t.join().unwrap(), Some(7));
    }
}
