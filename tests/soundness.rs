//! Property-based soundness tests for the core data structures: the O(1)
//! region checker against a byte-wise oracle, quasi-bound cache soundness,
//! and poisoning invariants — over randomized heap layouts.

use proptest::prelude::*;

use giantsan::core::{check_region, check_region_bytewise, encoding, poison, GiantSan};
use giantsan::runtime::{AccessKind, CacheSlot, Region, RuntimeConfig, Sanitizer};
use giantsan::shadow::{AddressSpace, ShadowMemory};

/// Sets the segments of the aligned range `[start, start + len)` to `code`.
fn poison_range(shadow: &mut ShadowMemory, start: giantsan::shadow::Addr, len: u64, code: u8) {
    let lo = shadow.segment_of(start);
    shadow.set_range(lo, lo + len / 8, code);
}

/// Builds a shadow holding several objects with redzones, returning their
/// (base, size) list.
fn layout(sizes: &[u64]) -> (ShadowMemory, Vec<(giantsan::shadow::Addr, u64)>) {
    let space = AddressSpace::new(0x1_0000, 1 << 18);
    let mut shadow = ShadowMemory::new(&space, encoding::UNALLOCATED);
    let mut objects = Vec::new();
    let mut cursor = space.lo() + 64;
    for &size in sizes {
        poison_range(&mut shadow, cursor, 16, encoding::HEAP_LEFT_REDZONE);
        cursor += 16;
        poison::poison_object(&mut shadow, cursor, size);
        objects.push((cursor, size));
        let user = giantsan::shadow::align_up(size.max(1), 8);
        poison_range(&mut shadow, cursor + user, 16, encoding::HEAP_RIGHT_REDZONE);
        cursor += user + 16;
    }
    (shadow, objects)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The O(1) checker and the byte-wise oracle agree on arbitrary regions
    /// over arbitrary multi-object layouts.
    #[test]
    fn region_check_matches_oracle(
        sizes in prop::collection::vec(1u64..600, 1..5),
        obj_idx in 0usize..5,
        lo_off in -24i64..640,
        len in 0i64..640,
    ) {
        let (shadow, objects) = layout(&sizes);
        let (base, _) = objects[obj_idx % objects.len()];
        let l = base.offset(lo_off);
        let r = l.offset(len);
        let fast = check_region(&shadow, l, r).is_ok();
        let oracle = check_region_bytewise(&shadow, l, r).is_ok();
        prop_assert_eq!(fast, oracle, "[{:?}, {:?})", l, r);
    }

    /// Folding degrees never claim memory beyond the object.
    #[test]
    fn folding_never_overclaims(size in 1u64..100_000) {
        let (shadow, objects) = layout(&[size]);
        let (base, _) = objects[0];
        let segs = size / 8;
        for j in 0..segs {
            let code = shadow.get(shadow.segment_of(base + j * 8));
            let claimed = encoding::addressable_bytes(code);
            prop_assert!(claimed > 0, "segment {j} not folded");
            prop_assert!(
                j * 8 + claimed <= segs * 8,
                "segment {j} claims past the object ({claimed} bytes)"
            );
            // And the claim is tight: more than half the remaining run.
            prop_assert!(2 * claimed > segs * 8 - j * 8);
        }
    }

    /// The quasi-bound cache never admits an out-of-bounds access and never
    /// rejects an in-bounds one, for any access pattern.
    #[test]
    fn quasi_bound_is_exact(
        size in 8u64..2048,
        offsets in prop::collection::vec(-64i64..2200, 1..40),
    ) {
        let mut san = GiantSan::new(RuntimeConfig::small());
        let a = san.alloc(size, Region::Heap).unwrap();
        let mut slot = CacheSlot::new();
        for off in offsets {
            let ok = san
                .cached_check(&mut slot, a.base, off, 4, AccessKind::Read)
                .is_ok();
            let valid = off >= 0 && (off + 4) as u64 <= size;
            prop_assert_eq!(ok, valid, "offset {} of object size {}", off, size);
        }
        // The final check still passes while the object is live.
        prop_assert!(san.loop_final_check(&slot, a.base, AccessKind::Read).is_ok());
    }

    /// Quasi-bound refresh count respects the paper's ⌈log2(n/8)⌉ bound for
    /// monotone forward walks.
    #[test]
    fn quasi_bound_update_bound(size_words in 1u64..4096) {
        let size = size_words * 8;
        let mut san = GiantSan::new(RuntimeConfig::default());
        let a = san.alloc(size, Region::Heap).unwrap();
        let mut slot = CacheSlot::new();
        for off in (0..size).step_by(8) {
            san.cached_check(&mut slot, a.base, off as i64, 8, AccessKind::Read)
                .unwrap();
        }
        let bound = 64 - size_words.leading_zeros() + 1; // ⌈log2⌉ + slack
        prop_assert!(
            slot.updates <= bound,
            "{} updates for {} words (bound {})",
            slot.updates,
            size_words,
            bound
        );
    }

    /// ASan and GiantSan produce identical verdicts for single accesses at
    /// any offset (the encodings differ, the semantics must not).
    #[test]
    fn asan_giantsan_access_parity(
        size in 1u64..512,
        off in -32i64..600,
        width in prop::sample::select(vec![1u32, 2, 4, 8]),
    ) {
        let mut gs = GiantSan::new(RuntimeConfig::small());
        let ga = gs.alloc(size, Region::Heap).unwrap();
        let mut asan = giantsan::baselines::Asan::new(RuntimeConfig::small());
        let aa = asan.alloc(size, Region::Heap).unwrap();
        let g = gs.check_access(ga.base.offset(off), width, AccessKind::Read).is_ok();
        let a = asan.check_access(aa.base.offset(off), width, AccessKind::Read).is_ok();
        prop_assert_eq!(g, a, "size={} off={} width={}", size, off, width);
    }
}
