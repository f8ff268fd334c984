//! Property tests for the first-fit free-list heap: over random op streams
//! interleaving acquires and releases, live blocks never overlap and stay
//! inside the heap range, `bytes_in_use` / `high_water` track a byte-wise
//! model exactly, wrong-length and double releases are rejected without
//! side effects, and releasing everything coalesces back to one free block.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use giantsan_runtime::{HeapError, SimHeap};
use giantsan_shadow::{align_up, Addr, SEGMENT_SIZE};

const HEAP_LO: u64 = 0x1_0000;
const HEAP_LEN: u64 = 64 << 10;

/// Ops per generated stream (the strategy vectors share this length).
const STREAM: usize = 128;

/// One live block as the model sees it.
#[derive(Debug, Clone, Copy)]
struct Live {
    addr: u64,
    /// The caller's request length; `release` is called with it.
    request: u64,
    /// Bytes the heap reserved: the request rounded up to a segment.
    reserved: u64,
}

/// Asserts that a rejected release left every observable unchanged.
fn assert_unchanged(h: &SimHeap, in_use: u64, high: u64, free: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        h.bytes_in_use(),
        in_use,
        "rejected release moved bytes_in_use"
    );
    prop_assert_eq!(h.high_water(), high, "rejected release moved high_water");
    prop_assert_eq!(
        h.free_blocks(),
        free,
        "rejected release touched the free list"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random acquire/release streams with interleaved bad releases.
    #[test]
    fn op_streams_keep_blocks_disjoint_and_accounting_exact(
        // Decoded per op: kind < 3 acquires, 3 releases, 4 releases with a
        // wrong length first, 5 releases and then releases again.
        kinds in prop::collection::vec(0u32..6, STREAM),
        lens in prop::collection::vec(1u64..=4096, STREAM),
        victims in prop::collection::vec(0usize..usize::MAX, STREAM),
    ) {
        let (lo, hi) = (HEAP_LO, HEAP_LO + HEAP_LEN);
        let mut h = SimHeap::new(Addr::new(lo), Addr::new(hi));
        let mut live: Vec<Live> = Vec::new();
        let mut model_in_use = 0u64;
        let mut model_high = 0u64;

        for i in 0..STREAM {
            if kinds[i] < 3 {
                let len = lens[i];
                let addr = match h.acquire(len) {
                    Ok(a) => a.raw(),
                    Err(HeapError::OutOfMemory { .. }) => continue,
                    Err(e) => panic!("acquire({len}): {e}"),
                };
                let reserved = align_up(len, SEGMENT_SIZE);
                prop_assert!(addr % SEGMENT_SIZE == 0, "block {:#x} is misaligned", addr);
                prop_assert!(
                    addr >= lo && addr + reserved <= hi,
                    "block [{:#x}, {:#x}) escapes the heap [{:#x}, {:#x})",
                    addr, addr + reserved, lo, hi
                );
                for l in &live {
                    let disjoint = addr + reserved <= l.addr || l.addr + l.reserved <= addr;
                    prop_assert!(
                        disjoint,
                        "block [{:#x}, {:#x}) overlaps live [{:#x}, {:#x})",
                        addr, addr + reserved, l.addr, l.addr + l.reserved
                    );
                }
                live.push(Live { addr, request: len, reserved });
                model_in_use += reserved;
                model_high = model_high.max(model_in_use);
            } else {
                if live.is_empty() {
                    continue;
                }
                let l = live.swap_remove(victims[i] % live.len());
                if kinds[i] == 4 {
                    // One more segment always changes the rounded length.
                    let free = h.free_blocks();
                    let wrong = h.release(Addr::new(l.addr), l.request + SEGMENT_SIZE);
                    prop_assert!(matches!(wrong, Err(HeapError::UnknownBlock { .. })));
                    assert_unchanged(&h, model_in_use, model_high, free)?;
                }
                h.release(Addr::new(l.addr), l.request).unwrap();
                model_in_use -= l.reserved;
                if kinds[i] == 5 {
                    let free = h.free_blocks();
                    let again = h.release(Addr::new(l.addr), l.request);
                    prop_assert!(matches!(again, Err(HeapError::UnknownBlock { .. })));
                    assert_unchanged(&h, model_in_use, model_high, free)?;
                }
            }
            prop_assert_eq!(h.bytes_in_use(), model_in_use, "bytes_in_use tracks the model");
            prop_assert_eq!(h.high_water(), model_high, "high_water is the running peak");
        }

        // Releasing everything coalesces the heap back into one free block
        // that a whole-heap request can take.
        for l in live.drain(..) {
            h.release(Addr::new(l.addr), l.request).unwrap();
        }
        prop_assert_eq!(h.bytes_in_use(), 0u64);
        prop_assert_eq!(h.high_water(), model_high, "releasing does not lower the peak");
        prop_assert_eq!(h.free_blocks(), 1usize, "free list coalesces to one block");
        prop_assert_eq!(h.acquire(HEAP_LEN).map(Addr::raw), Ok(lo));
    }
}
