//! One lifecycle script under both shadow encodings.
//!
//! GiantSan and ASan poison allocations, frees, reallocs and frame pops
//! through one shared runtime (`giantsan_runtime::ShadowedWorld`); only
//! their codes and the writing of a live user region differ. This test runs
//! the same script against both tools and checks every segment the script
//! touches, and the lifecycle counters, against a table of each encoding's
//! expected codes.

use giantsan_baselines::Asan;
use giantsan_core::GiantSan;
use giantsan_runtime::{
    AccessKind, Counters, ErrorKind, ErrorReport, MetadataFault, ObjectInfo, Region, RuntimeConfig,
    Sanitizer,
};
use giantsan_shadow::{codes, Addr, ShadowMemory, SEGMENT_SIZE};

/// What one encoding writes for each lifecycle state.
struct Encoding {
    heap_left: u8,
    heap_right: u8,
    stack: u8,
    global: u8,
    freed: u8,
    unallocated: u8,
    dead_stack: u8,
    /// The codes of a live user region of `size > 0` bytes.
    user: fn(u64) -> Vec<u8>,
}

/// GiantSan: the §4.1 folding pattern, error codes 73–78, and dead stack
/// slots read as unallocated.
const GIANTSAN: Encoding = Encoding {
    heap_left: 74,
    heap_right: 73,
    stack: 76,
    global: 77,
    freed: 75,
    unallocated: 78,
    dead_stack: 78,
    user: |size| {
        let q = size / SEGMENT_SIZE;
        let mut v: Vec<u8> = (0..q)
            .map(|j| codes::folded(codes::degree_at(q, j)))
            .collect();
        if size % SEGMENT_SIZE > 0 {
            v.push(codes::partial((size % SEGMENT_SIZE) as u32));
        }
        v
    },
};

/// ASan: flat zeros with a `k`-partial tail, the classic redzone bytes, and
/// dead stack slots poisoned as stack redzone.
const ASAN: Encoding = Encoding {
    heap_left: 0xfa,
    heap_right: 0xfb,
    stack: 0xf2,
    global: 0xf9,
    freed: 0xfd,
    unallocated: 0xff,
    dead_stack: 0xf2,
    user: |size| {
        let mut v = vec![0u8; (size / SEGMENT_SIZE) as usize];
        if size % SEGMENT_SIZE > 0 {
            v.push((size % SEGMENT_SIZE) as u8);
        }
        v
    },
};

/// 16-byte redzones (two segments a side) and a quarantine that holds one
/// of the script's small blocks but not two.
fn config() -> RuntimeConfig {
    RuntimeConfig::small()
        .to_builder()
        .redzone(16)
        .quarantine_cap(64)
        .build()
}

/// The codes of the `n` segments from `start` on.
fn codes_at(shadow: &ShadowMemory, start: Addr, n: u64) -> Vec<u8> {
    let first = shadow.segment_of(start);
    (first..first + n).map(|s| shadow.get(s)).collect()
}

fn segments(info: &ObjectInfo) -> u64 {
    info.block_len / SEGMENT_SIZE
}

/// The codes a live object's block holds: redzone, user region, redzone. A
/// zero-size object's one user segment is left as the heap had it.
fn live(e: &Encoding, info: &ObjectInfo) -> Vec<u8> {
    let (left, right) = match info.region {
        Region::Heap => (e.heap_left, e.heap_right),
        Region::Stack => (e.stack, e.stack),
        Region::Global => (e.global, e.global),
    };
    let mut v = vec![left; 2];
    if info.size == 0 {
        v.push(e.unallocated);
    } else {
        v.extend((e.user)(info.size));
    }
    v.extend([right; 2]);
    assert_eq!(v.len() as u64, segments(info));
    v
}

fn info<S: Sanitizer>(san: &S, base: Addr) -> ObjectInfo {
    let objects = san.world().objects();
    objects
        .live_at_base(base)
        .or_else(|| objects.dead_block_containing(base))
        .expect("the script's objects are all registered")
        .clone()
}

fn run<S: Sanitizer>(mut san: S, shadow: fn(&S) -> &ShadowMemory, e: &Encoding) {
    let block =
        |san: &S, info: &ObjectInfo| codes_at(shadow(san), info.block_start, segments(info));
    let fill = |n: u64, code: u8| vec![code; n as usize];

    // Heap objects of 0, 1, 8, 13 and 4096 bytes, a stack slot and a global.
    let heap: Vec<Addr> = [0u64, 1, 8, 13, 4096]
        .iter()
        .map(|&size| san.alloc(size, Region::Heap).unwrap().base)
        .collect();
    let [h0, h1, h8, h13, h4096] = heap[..] else {
        unreachable!()
    };
    san.push_frame();
    let slot = san.alloc(24, Region::Stack).unwrap().base;
    let global = san.alloc(16, Region::Global).unwrap().base;
    for base in [h0, h1, h8, h13, h4096, slot, global] {
        let i = info(&san, base);
        assert_eq!(
            block(&san, &i),
            live(e, &i),
            "{:?} {}-byte object",
            i.region,
            i.size
        );
    }

    // A free into quarantine, then a second free that evicts the first.
    let i13 = info(&san, h13);
    san.free(h13).unwrap();
    assert_eq!(block(&san, &i13), fill(segments(&i13), e.freed));
    let i8 = info(&san, h8);
    san.free(h8).unwrap();
    assert_eq!(block(&san, &i8), fill(segments(&i8), e.freed));
    assert_eq!(
        block(&san, &i13),
        fill(segments(&i13), e.unallocated),
        "evicted"
    );

    // A realloc: the new block is live, the old one freed, and the old
    // block's entry into quarantine evicts the 8-byte object's.
    let i1 = info(&san, h1);
    let moved = san.realloc(h1, 20).unwrap().base;
    assert_ne!(moved, h1);
    let inew = info(&san, moved);
    assert_eq!(block(&san, &inew), live(e, &inew));
    assert_eq!(block(&san, &i1), fill(segments(&i1), e.freed));
    assert_eq!(
        block(&san, &i8),
        fill(segments(&i8), e.unallocated),
        "evicted"
    );

    // A frame pop: the slot's whole block becomes dead stack.
    let islot = info(&san, slot);
    san.pop_frame();
    assert_eq!(block(&san, &islot), fill(segments(&islot), e.dead_stack));

    // An invalid free is reported and counted.
    assert_eq!(
        san.free(h4096 + 8).unwrap_err().kind,
        ErrorKind::InvalidFree
    );

    // Containment heals a flipped code on a live, a dead and a wild address.
    let wild = inew.block_start + inew.block_len + 4096;
    for addr in [h4096 + 800, i1.block_start + 8, wild] {
        let seg = shadow(&san).segment_of(addr);
        let before = shadow(&san).get(seg);
        assert!(san.inject_metadata_fault(addr, MetadataFault::BitFlip { bit: 3 }));
        assert_eq!(shadow(&san).get(seg), before ^ 8);
        san.contain(&ErrorReport::new(ErrorKind::Unknown, addr, 1));
        assert_eq!(shadow(&san).get(seg), before, "healed at {addr}");
    }
    let i4096 = info(&san, h4096);
    assert_eq!(block(&san, &i4096), live(e, &i4096));
    assert_eq!(block(&san, &i1), fill(segments(&i1), e.freed));
    assert_eq!(
        shadow(&san).get(shadow(&san).segment_of(wild)),
        e.unallocated
    );

    // Every block the script touched, at the end.
    for base in [h0, h4096, global, moved] {
        let i = info(&san, base);
        assert_eq!(block(&san, &i), live(e, &i));
    }
    for (i, code) in [(&i13, e.unallocated), (&i8, e.unallocated), (&i1, e.freed)] {
        assert_eq!(block(&san, i), fill(segments(i), code));
    }
    assert_eq!(block(&san, &islot), fill(segments(&islot), e.dead_stack));

    // Stores: the live layouts (4 + 5 + 5 + 6 + 516 + 7 + 6), the two frees
    // and one eviction (6 + 5 + 6), the realloc's new block, freed block and
    // eviction (7 + 5 + 5), the frame pop (7), and containment re-poisoning
    // the 4096-byte block, the freed block and one wild segment
    // (516 + 5 + 1).
    let want = Counters {
        allocs: 8,
        frees: 4,
        stack_allocs: 1,
        shadow_stores: 549 + 17 + 17 + 7 + 522,
        reports: 1,
        ..Counters::default()
    };
    assert_eq!(*san.counters(), want);
}

/// Checks one byte at `addr`, which must fail, and returns the report.
fn report_at<S: Sanitizer>(san: &mut S, addr: Addr) -> ErrorReport {
    san.check_access(addr, 1, AccessKind::Read)
        .expect_err("a dead block is not addressable")
}

/// Containment over a dead block writes back the code its lifecycle wrote:
/// a check before and after it reports the same kind.
fn contain_keeps_dead_codes<S: Sanitizer>(
    mut san: S,
    shadow: fn(&S) -> &ShadowMemory,
    e: &Encoding,
) {
    let block =
        |san: &S, info: &ObjectInfo| codes_at(shadow(san), info.block_start, segments(info));
    let fill = |n: u64, code: u8| vec![code; n as usize];
    san.push_frame();
    let slot = san.alloc(24, Region::Stack).unwrap().base;
    san.pop_frame();
    let quarantined = san.alloc(13, Region::Heap).unwrap().base;
    let evicted = san.alloc(8, Region::Heap).unwrap().base;
    san.free(evicted).unwrap();
    san.free(quarantined).unwrap();
    for (base, code) in [
        (slot, e.dead_stack),
        (quarantined, e.freed),
        (evicted, e.unallocated),
    ] {
        let i = info(&san, base);
        assert_eq!(block(&san, &i), fill(segments(&i), code));
        let before = report_at(&mut san, base);
        san.contain(&before);
        assert_eq!(block(&san, &i), fill(segments(&i), code), "{:?}", i.state);
        assert_eq!(report_at(&mut san, base).kind, before.kind, "{:?}", i.state);
    }
}

#[test]
fn one_lifecycle_script_under_both_encodings() {
    run(GiantSan::new(config()), GiantSan::shadow, &GIANTSAN);
    run(Asan::new(config()), Asan::shadow, &ASAN);
}

#[test]
fn containment_keeps_the_code_of_a_dead_block_under_both_encodings() {
    contain_keeps_dead_codes(GiantSan::new(config()), GiantSan::shadow, &GIANTSAN);
    contain_keeps_dead_codes(Asan::new(config()), Asan::shadow, &ASAN);
}
