//! AddressSanitizer baseline (Serebryany et al., ATC 2012; paper §2.2).
//!
//! ASan's shadow encoding has **low protection density**: one shadow byte
//! safeguards at most 8 application bytes, so checking an `S`-byte region
//! loads `⌈S/8⌉` shadow bytes. That linear guardian walk is precisely the
//! overhead GiantSan's folded segments eliminate; keeping it honest here is
//! what gives the benchmark comparisons their shape.

use giantsan_runtime::{
    AccessKind, Allocation, CheckResult, Counters, ErrorKind, ErrorReport, HeapError,
    MetadataFault, Region, RuntimeConfig, Sanitizer, ShadowCodes, ShadowedWorld, World,
};
use giantsan_shadow::{Addr, SegmentIndex, ShadowMemory, SEGMENT_SIZE};

/// ASan shadow state codes (the classic byte values).
pub mod codes {
    /// All 8 bytes of the segment are addressable.
    pub const GOOD: u8 = 0;
    /// Heap left redzone.
    pub const HEAP_LEFT: u8 = 0xfa;
    /// Heap right redzone.
    pub const HEAP_RIGHT: u8 = 0xfb;
    /// Freed heap region (quarantined).
    pub const FREED: u8 = 0xfd;
    /// Stack redzone / dead stack memory.
    pub const STACK: u8 = 0xf2;
    /// Global redzone.
    pub const GLOBAL: u8 = 0xf9;
    /// Memory the allocator never handed out.
    pub const UNALLOCATED: u8 = 0xff;

    /// Returns `true` for k-partial codes (1..=7).
    pub const fn is_partial(code: u8) -> bool {
        code >= 1 && code <= 7
    }
}

/// ASan's lifecycle codes: a user region of `GOOD` segments and a `k`-partial
/// tail, and dead stack slots poisoned as stack redzone.
#[derive(Debug)]
struct AsanCodes;

impl ShadowCodes for AsanCodes {
    const HEAP_LEFT: u8 = codes::HEAP_LEFT;
    const HEAP_RIGHT: u8 = codes::HEAP_RIGHT;
    const STACK: u8 = codes::STACK;
    const GLOBAL: u8 = codes::GLOBAL;
    const FREED: u8 = codes::FREED;
    const UNALLOCATED: u8 = codes::UNALLOCATED;
    const DEAD_STACK: u8 = codes::STACK;

    fn poison_user(shadow: &mut ShadowMemory, first: SegmentIndex, size: u64) -> u64 {
        let q = size / SEGMENT_SIZE;
        let rem = (size % SEGMENT_SIZE) as u8;
        if q > 0 {
            shadow.set_range(first, first + q, codes::GOOD);
        }
        if rem > 0 {
            shadow.set(first + q, rem);
        }
        q + u64::from(rem > 0)
    }
}

/// Classifies an ASan shadow code into a report kind.
pub fn classify(code: u8) -> ErrorKind {
    match code {
        codes::HEAP_RIGHT => ErrorKind::HeapBufferOverflow,
        codes::HEAP_LEFT => ErrorKind::HeapBufferUnderflow,
        codes::FREED => ErrorKind::UseAfterFree,
        codes::STACK => ErrorKind::StackBufferOverflow,
        codes::GLOBAL => ErrorKind::GlobalBufferOverflow,
        codes::UNALLOCATED => ErrorKind::Wild,
        c if codes::is_partial(c) => ErrorKind::HeapBufferOverflow,
        _ => ErrorKind::Unknown,
    }
}

/// The ASan baseline sanitizer.
///
/// # Example
///
/// ```
/// use giantsan_baselines::Asan;
/// use giantsan_runtime::{AccessKind, Region, RuntimeConfig, Sanitizer};
///
/// let mut san = Asan::new(RuntimeConfig::small());
/// let a = san.alloc(1024, Region::Heap).unwrap();
/// san.check_region(a.base, a.base + 1024, AccessKind::Write).unwrap();
/// // The linear guardian walk loaded one shadow byte per segment.
/// assert_eq!(san.counters().shadow_loads, 128);
/// ```
#[derive(Debug)]
pub struct Asan {
    rt: ShadowedWorld<AsanCodes>,
}

impl Asan {
    /// Creates an ASan instance over a fresh world.
    pub fn new(config: RuntimeConfig) -> Self {
        Asan {
            rt: ShadowedWorld::new(config),
        }
    }

    /// Read-only view of the shadow (tests and diagnostics).
    pub fn shadow(&self) -> &ShadowMemory {
        &self.rt.shadow
    }

    /// Number of addressable bytes segment code `v` exposes within itself.
    #[inline]
    fn exposed(v: u8) -> u64 {
        if v == codes::GOOD {
            SEGMENT_SIZE
        } else if codes::is_partial(v) {
            v as u64
        } else {
            0
        }
    }

    fn report(&mut self, addr: Addr, code: u8, len: u64, kind: AccessKind) -> ErrorReport {
        self.rt.counters.reports += 1;
        let classified = if codes::is_partial(code) {
            // Partial violation: the following redzone identifies the region.
            let next = self.rt.code_at(addr + SEGMENT_SIZE);
            if next > 7 {
                classify(next)
            } else {
                ErrorKind::HeapBufferOverflow
            }
        } else {
            classify(code)
        };
        ErrorReport::new(classified, addr, len).with_access(kind)
    }
}

impl Sanitizer for Asan {
    fn name(&self) -> &'static str {
        "ASan"
    }

    fn world(&self) -> &World {
        &self.rt.world
    }

    fn world_mut(&mut self) -> &mut World {
        &mut self.rt.world
    }

    fn counters(&self) -> &Counters {
        &self.rt.counters
    }

    fn counters_mut(&mut self) -> &mut Counters {
        &mut self.rt.counters
    }

    fn alloc(&mut self, size: u64, region: Region) -> Result<Allocation, HeapError> {
        self.rt.alloc(size, region)
    }

    fn free(&mut self, base: Addr) -> CheckResult {
        self.rt.free(base)
    }

    fn realloc(&mut self, base: Addr, new_size: u64) -> Result<Allocation, ErrorReport> {
        self.rt.realloc(base, new_size)
    }

    fn push_frame(&mut self) {
        self.rt.world.push_frame();
    }

    fn pop_frame(&mut self) {
        self.rt.pop_frame();
    }

    #[inline]
    fn check_access(&mut self, addr: Addr, width: u32, kind: AccessKind) -> CheckResult {
        // Example 1 of the paper: one load, compare against the partial code.
        debug_assert!(width <= 8);
        let off = addr.segment_offset();
        if off + width as u64 <= SEGMENT_SIZE {
            self.rt.counters.shadow_loads += 1;
            self.rt.counters.fast_checks += 1;
            let v = self.rt.code_at(addr);
            if v != codes::GOOD && off + width as u64 > Self::exposed(v) {
                return Err(self.report(addr, v, width as u64, kind));
            }
            Ok(())
        } else {
            // Straddling access: ASan emits two checks.
            let split = SEGMENT_SIZE - off;
            self.check_access(addr, split as u32, kind)?;
            self.check_access(addr + split, width - split as u32, kind)
        }
    }

    fn check_region(&mut self, lo: Addr, hi: Addr, kind: AccessKind) -> CheckResult {
        // The guardian function: one shadow byte guards at most 8 bytes, so
        // the whole range must be swept — the `Θ(N)` cost column of Table 1.
        // The sweep skips clean 64-byte blocks of guardians at a time, then
        // locates the first bad one a word at a time, like production ASan's
        // `mem_is_zero`; `shadow_loads` still counts one load per segment
        // *semantically* walked, exactly as the byte-at-a-time reference
        // does: the encoding's cost model is the experiment, the scan width
        // is plumbing.
        if lo >= hi {
            return Ok(());
        }
        self.rt.counters.slow_checks += 1;
        let shadow = &self.rt.shadow;
        if shadow.try_segment_of(lo).is_none() && lo < shadow.segment_base(0) {
            // Below the shadowed space: unallocated from the first byte.
            self.rt.counters.shadow_loads += 1;
            return Err(self.report(lo, codes::UNALLOCATED, hi - lo, kind));
        }
        let lo_seg = shadow.segment_of(lo);
        let last_seg = lo_seg + (Addr::new(hi.raw() - 1).segment() - lo.segment());
        match shadow.first_ne(lo_seg, last_seg + 1, codes::GOOD) {
            None => {
                // Every guardian is GOOD: the walk visits each one and passes.
                self.rt.counters.shadow_loads += last_seg - lo_seg + 1;
                Ok(())
            }
            Some(s) => {
                // The walk stops at the first non-GOOD guardian.
                self.rt.counters.shadow_loads += s - lo_seg + 1;
                let v = shadow.get(s);
                let exposed = Self::exposed(v);
                let seg_base = shadow.segment_base(s);
                let first = if s == lo_seg { lo } else { seg_base };
                if first - seg_base >= exposed {
                    return Err(self.report(first, v, hi - lo, kind));
                }
                let covered_end = seg_base + exposed;
                if covered_end >= hi {
                    return Ok(());
                }
                // Partial guardian inside the region: the next byte is bad.
                Err(self.report(covered_end, v, hi - lo, kind))
            }
        }
    }

    fn contain(&mut self, report: &ErrorReport) {
        self.rt.contain(report.addr);
    }

    fn inject_metadata_fault(&mut self, addr: Addr, fault: MetadataFault) -> bool {
        match fault {
            MetadataFault::BitFlip { bit } => self.rt.flip_bit(addr, bit),
            // ASan's flat encoding has no folded codes to downgrade.
            MetadataFault::FoldDowngrade => false,
        }
    }

    fn shadow_probe(&self, addr: Addr) -> Option<u8> {
        self.rt.shadow_probe(addr)
    }
}

impl Asan {
    /// Byte-at-a-time reference for [`Sanitizer::check_region`]: the
    /// pre-scanner guardian walk, kept as the differential-testing baseline.
    /// Updates the same counters the same way, so differential tests can
    /// compare full counter state, not just verdicts.
    pub fn check_region_reference(&mut self, lo: Addr, hi: Addr, kind: AccessKind) -> CheckResult {
        if lo >= hi {
            return Ok(());
        }
        self.rt.counters.slow_checks += 1;
        let mut a = lo;
        while a < hi {
            self.rt.counters.shadow_loads += 1;
            let v = self.rt.code_at(a);
            let exposed = Self::exposed(v);
            let off = a.segment_offset();
            if off >= exposed {
                return Err(self.report(a, v, hi - lo, kind));
            }
            let seg_base = Addr::new(a.raw() & !(SEGMENT_SIZE - 1));
            let covered_end = seg_base + exposed;
            if covered_end >= hi {
                return Ok(());
            }
            if exposed < SEGMENT_SIZE {
                // Partial segment inside the region: the next byte is bad.
                return Err(self.report(covered_end, v, hi - lo, kind));
            }
            a = seg_base + SEGMENT_SIZE;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn san() -> Asan {
        Asan::new(RuntimeConfig::small())
    }

    #[test]
    fn shadow_poisoning_matches_asan_layout() {
        let mut s = san();
        let a = s.alloc(20, Region::Heap).unwrap();
        let seg = s.shadow().segment_of(a.base);
        assert_eq!(s.shadow().get(seg - 1), codes::HEAP_LEFT);
        assert_eq!(s.shadow().get(seg), 0);
        assert_eq!(s.shadow().get(seg + 1), 0);
        assert_eq!(s.shadow().get(seg + 2), 4); // 20 = 2*8 + 4
        assert_eq!(s.shadow().get(seg + 3), codes::HEAP_RIGHT);
    }

    #[test]
    fn instruction_check_matches_example_1() {
        let mut s = san();
        let a = s.alloc(12, Region::Heap).unwrap();
        assert!(s.check_access(a.base, 8, AccessKind::Read).is_ok());
        assert!(s.check_access(a.base + 8, 4, AccessKind::Read).is_ok());
        assert!(s.check_access(a.base + 9, 4, AccessKind::Read).is_err());
        assert!(s.check_access(a.base + 12, 1, AccessKind::Read).is_err());
        assert!(s.check_access(a.base - 1, 1, AccessKind::Read).is_err());
    }

    #[test]
    fn region_check_is_linear_in_size() {
        let mut s = san();
        let a = s.alloc(4096, Region::Heap).unwrap();
        s.counters_mut().reset();
        s.check_region(a.base, a.base + 4096, AccessKind::Write)
            .unwrap();
        assert_eq!(s.counters().shadow_loads, 512, "one load per segment");
    }

    #[test]
    fn region_check_detects_overflow_and_stops() {
        let mut s = san();
        let a = s.alloc(64, Region::Heap).unwrap();
        let err = s
            .check_region(a.base, a.base + 80, AccessKind::Write)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::HeapBufferOverflow);
        // Walks 8 good segments + 1 redzone segment, then stops.
        assert_eq!(s.counters().shadow_loads, 9);
    }

    #[test]
    fn scan_walk_matches_reference_exactly() {
        // The word-wide walk must be observationally identical to the
        // byte-at-a-time reference: same verdict (including the reported
        // address and kind) AND the same counter state, on every region over
        // a layout that exercises good runs, partial tails, redzones, freed
        // blocks, and out-of-space addresses.
        let setup = || {
            let mut s = san();
            let a = s.alloc(96, Region::Heap).unwrap();
            let b = s.alloc(20, Region::Heap).unwrap();
            let c = s.alloc(64, Region::Heap).unwrap();
            s.free(b.base).unwrap();
            (
                s,
                [a.base, b.base, c.base, Addr::new(8), Addr::new(1 << 40)],
            )
        };
        let (mut fast, bases) = setup();
        let (mut slow, _) = setup();
        for base in bases {
            for lo_off in 0..24u64 {
                for len in 0..130u64 {
                    let (lo, hi) = (base + lo_off, base + lo_off + len);
                    fast.counters_mut().reset();
                    slow.counters_mut().reset();
                    let got = fast.check_region(lo, hi, AccessKind::Read);
                    let want = slow.check_region_reference(lo, hi, AccessKind::Read);
                    assert_eq!(
                        got.as_ref().map_err(|e| (e.addr, e.kind)),
                        want.as_ref().map_err(|e| (e.addr, e.kind)),
                        "verdict diverged on [{lo}, {hi})"
                    );
                    assert_eq!(
                        fast.counters(),
                        slow.counters(),
                        "counters diverged on [{lo}, {hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn region_check_partial_tail() {
        let mut s = san();
        let a = s.alloc(20, Region::Heap).unwrap();
        assert!(s
            .check_region(a.base, a.base + 20, AccessKind::Read)
            .is_ok());
        assert!(s
            .check_region(a.base, a.base + 21, AccessKind::Read)
            .is_err());
        assert!(s
            .check_region(a.base + 4, a.base + 20, AccessKind::Read)
            .is_ok());
    }

    #[test]
    fn straddling_access_splits() {
        let mut s = san();
        let a = s.alloc(16, Region::Heap).unwrap();
        assert!(s.check_access(a.base + 4, 8, AccessKind::Read).is_ok());
        assert!(s.check_access(a.base + 12, 8, AccessKind::Read).is_err());
    }

    #[test]
    fn temporal_errors() {
        let mut s = san();
        let a = s.alloc(32, Region::Heap).unwrap();
        s.free(a.base).unwrap();
        let err = s.check_access(a.base, 8, AccessKind::Read).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UseAfterFree);
        assert_eq!(s.free(a.base).unwrap_err().kind, ErrorKind::DoubleFree);
    }

    #[test]
    fn stack_slots_poisoned_after_pop() {
        let mut s = san();
        s.push_frame();
        let a = s.alloc(16, Region::Stack).unwrap();
        assert!(s.check_access(a.base, 8, AccessKind::Write).is_ok());
        s.pop_frame();
        let err = s.check_access(a.base, 8, AccessKind::Write).unwrap_err();
        assert_eq!(err.kind, ErrorKind::StackBufferOverflow);
    }

    #[test]
    fn redzone_bypass_is_a_false_negative() {
        // The instruction-level check only inspects the accessed bytes: a
        // large offset that lands in another object is missed (§4.4.1's
        // motivation, Table 5).
        let mut s = san();
        let a = s.alloc(64, Region::Heap).unwrap();
        let victim = s.alloc(64, Region::Heap).unwrap();
        let off = victim.base - a.base;
        assert!(s
            .check_access(a.base.offset(off as i64), 8, AccessKind::Write)
            .is_ok());
    }

    #[test]
    fn wild_and_null_accesses_reported() {
        let mut s = san();
        let err = s.check_access(Addr::NULL, 8, AccessKind::Read).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Wild);
    }

    #[test]
    fn region_check_with_unaligned_start() {
        let mut s = san();
        let a = s.alloc(64, Region::Heap).unwrap();
        assert!(s
            .check_region(a.base + 3, a.base + 61, AccessKind::Read)
            .is_ok());
        assert!(s
            .check_region(a.base + 3, a.base + 65, AccessKind::Read)
            .is_err());
        // Starting inside the left redzone.
        assert!(s
            .check_region(a.base - 3, a.base + 8, AccessKind::Read)
            .is_err());
    }

    #[test]
    fn realloc_maintains_asan_shadow() {
        let mut s = san();
        let a = s.alloc(48, Region::Heap).unwrap();
        s.world_mut().space_mut().write_u64(a.base, 77).unwrap();
        let b = s.realloc(a.base, 96).unwrap();
        assert_eq!(s.world().space().read_u64(b.base).unwrap(), 77);
        assert!(s
            .check_region(b.base, b.base + 96, AccessKind::Write)
            .is_ok());
        let err = s.check_access(a.base, 8, AccessKind::Read).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UseAfterFree);
        assert_eq!(
            s.realloc(b.base + 8, 16).unwrap_err().kind,
            ErrorKind::InvalidFree
        );
    }

    #[test]
    fn classify_covers_all_codes() {
        assert_eq!(classify(codes::HEAP_RIGHT), ErrorKind::HeapBufferOverflow);
        assert_eq!(classify(codes::HEAP_LEFT), ErrorKind::HeapBufferUnderflow);
        assert_eq!(classify(codes::FREED), ErrorKind::UseAfterFree);
        assert_eq!(classify(codes::STACK), ErrorKind::StackBufferOverflow);
        assert_eq!(classify(codes::GLOBAL), ErrorKind::GlobalBufferOverflow);
        assert_eq!(classify(codes::UNALLOCATED), ErrorKind::Wild);
        assert_eq!(classify(3), ErrorKind::HeapBufferOverflow);
        assert_eq!(classify(0xee), ErrorKind::Unknown);
    }
}
