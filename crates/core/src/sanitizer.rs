//! The GiantSan tool: segment-folding shadow + O(1) operation-level checks.

use giantsan_runtime::{
    AccessKind, Allocation, CacheSlot, CheckResult, Counters, ErrorKind, ErrorReport, FreeOutcome,
    HeapError, ObjectInfo, Region, RuntimeConfig, Sanitizer, World,
};
use giantsan_shadow::{align_up, Addr, ShadowMemory, SEGMENT_SIZE};

use crate::check::{self, BadSpot, CheckPath};
use crate::encoding;
use crate::poison;

/// The GiantSan sanitizer (paper §4).
///
/// Differences from ASan are exactly the paper's contributions:
///
/// * allocation poisons the shadow with the **binary folding pattern**
///   instead of flat zeros ([`crate::poison::poison_object`]);
/// * region checks run **Algorithm 1** in O(1) instead of a linear walk;
/// * [`Sanitizer::cached_check`] implements the **quasi-bound** history cache
///   (Figure 9), converging to the object bound in `⌈log2(n/8)⌉` updates;
/// * [`Sanitizer::check_anchored`] checks from the object's base pointer so a
///   small redzone cannot be bypassed (§4.4.1).
///
/// # Example
///
/// ```
/// use giantsan_core::GiantSan;
/// use giantsan_runtime::{AccessKind, Region, RuntimeConfig, Sanitizer};
///
/// let mut san = GiantSan::new(RuntimeConfig::small());
/// let a = san.alloc(100, Region::Heap).unwrap();
/// assert!(san.check_region(a.base, a.base + 100, AccessKind::Read).is_ok());
/// let err = san
///     .check_region(a.base, a.base + 101, AccessKind::Read)
///     .unwrap_err();
/// assert_eq!(err.kind, giantsan_runtime::ErrorKind::HeapBufferOverflow);
/// ```
#[derive(Debug)]
pub struct GiantSan {
    world: World,
    shadow: ShadowMemory,
    counters: Counters,
    options: GiantSanOptions,
}

/// Optional behaviours of the GiantSan runtime, covering the mitigation
/// alternatives the paper sketches for its reverse-traversal limitation
/// (§5.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GiantSanOptions {
    /// Keep anchor-based enhancement for negative offsets (the default).
    /// Turning this off is the paper's *first* alternative: underflow
    /// detection degrades to ASan's instruction-level mode — cheaper on
    /// reverse traversals, but a large negative offset can again bypass the
    /// redzone.
    pub underflow_anchor: bool,
    /// The paper's *second* alternative: on the first negative-offset miss,
    /// locate the lower bound of the addressable run by enumerating folding
    /// degrees ([`GiantSan::locate_lower_bound`]) and cache it as a
    /// quasi-lower-bound, making subsequent reverse accesses register
    /// compares.
    pub reverse_mitigation: bool,
}

impl Default for GiantSanOptions {
    fn default() -> Self {
        GiantSanOptions {
            underflow_anchor: true,
            reverse_mitigation: false,
        }
    }
}

impl GiantSanOptions {
    /// Returns the options with anchor-based underflow detection toggled.
    pub fn with_underflow_anchor(mut self, on: bool) -> Self {
        self.underflow_anchor = on;
        self
    }

    /// Returns the options with the §5.4 reverse-traversal mitigation
    /// toggled.
    pub fn with_reverse_mitigation(mut self, on: bool) -> Self {
        self.reverse_mitigation = on;
        self
    }
}

/// Non-consuming fluent builder for [`GiantSan`], covering both the runtime
/// configuration and every [`GiantSanOptions`] knob.
///
/// # Example
///
/// ```
/// use giantsan_core::GiantSan;
/// use giantsan_runtime::RuntimeConfig;
///
/// let san = GiantSan::builder()
///     .config(RuntimeConfig::small())
///     .reverse_mitigation(true)
///     .build();
/// assert_eq!(san.options().reverse_mitigation, true);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GiantSanBuilder {
    config: RuntimeConfig,
    options: GiantSanOptions,
}

impl GiantSanBuilder {
    /// Sets the runtime configuration (defaults to [`RuntimeConfig::default`]).
    pub fn config(&mut self, config: RuntimeConfig) -> &mut Self {
        self.config = config;
        self
    }

    /// Replaces the whole option block at once.
    pub fn options(&mut self, options: GiantSanOptions) -> &mut Self {
        self.options = options;
        self
    }

    /// Toggles anchor-based underflow detection (§5.4 first alternative when
    /// off).
    pub fn underflow_anchor(&mut self, on: bool) -> &mut Self {
        self.options.underflow_anchor = on;
        self
    }

    /// Toggles the quasi-lower-bound reverse-traversal mitigation (§5.4
    /// second alternative).
    pub fn reverse_mitigation(&mut self, on: bool) -> &mut Self {
        self.options.reverse_mitigation = on;
        self
    }

    /// Builds a GiantSan instance over a fresh world (the builder stays
    /// usable for further sessions).
    pub fn build(&self) -> GiantSan {
        GiantSan::with_options(self.config.clone(), self.options.clone())
    }
}

impl GiantSan {
    /// Creates a GiantSan instance over a fresh world.
    pub fn new(config: RuntimeConfig) -> Self {
        Self::with_options(config, GiantSanOptions::default())
    }

    /// Starts a fluent [`GiantSanBuilder`] with default config and options.
    pub fn builder() -> GiantSanBuilder {
        GiantSanBuilder::default()
    }

    /// The option block this instance runs with.
    pub fn options(&self) -> &GiantSanOptions {
        &self.options
    }

    /// Creates a GiantSan instance with explicit [`GiantSanOptions`].
    pub fn with_options(config: RuntimeConfig, options: GiantSanOptions) -> Self {
        let world = World::new(config);
        let shadow = ShadowMemory::new(world.space(), encoding::UNALLOCATED);
        GiantSan {
            world,
            shadow,
            counters: Counters::default(),
            options,
        }
    }

    /// Locates the lowest address `L` such that `[L, anchor)` is entirely
    /// addressable, by enumerating folding degrees: doubling probes
    /// `anchor − 8·2^k` for an (≥k)-folded segment, then a binary refinement
    /// — at most `2·⌈log2(n/8)⌉` shadow loads for an `n`-byte run (§5.4's
    /// second mitigation alternative).
    ///
    /// `anchor` itself need not be addressable (one-past-the-end pointers
    /// are the common reverse-traversal anchor).
    pub fn locate_lower_bound(&mut self, anchor: Addr) -> Addr {
        let end_seg = anchor.segment(); // absolute segment index
        let seg_addr = |seg: u64| Addr::new(seg * SEGMENT_SIZE);
        let covered_from = |this: &mut Self, seg: u64, k: u32| -> bool {
            // Is the segment at `seg` (≥k)-folded, i.e. does it certify 2^k
            // good segments — exactly the gap up to the current low mark?
            let Some(rel) = this.shadow.try_segment_of(seg_addr(seg)) else {
                return false;
            };
            this.counters.shadow_loads += 1;
            this.shadow.get(rel) <= encoding::folded(k.min(encoding::MAX_DEGREE))
        };
        // Doubling phase: grow the certified run [low, end).
        let mut low = end_seg;
        let mut k = 0u32;
        while k <= encoding::MAX_DEGREE {
            let span = 1u64 << k;
            let Some(cand) = end_seg.checked_sub(span) else {
                break;
            };
            if !covered_from(self, cand, k) {
                break;
            }
            low = cand;
            k += 1;
        }
        // Refinement phase: extend below `low` by decreasing powers.
        while k > 0 {
            k -= 1;
            let span = 1u64 << k;
            if let Some(cand) = low.checked_sub(span) {
                if covered_from(self, cand, k) {
                    low = cand;
                }
            }
        }
        seg_addr(low)
    }

    /// Read-only view of the shadow memory (tests and diagnostics).
    pub fn shadow(&self) -> &ShadowMemory {
        &self.shadow
    }

    /// Failure-injection hook: overwrite one shadow byte, simulating
    /// metadata corruption (a stray write into the shadow mapping or a
    /// runtime bug). Used by the consistency validator's tests to prove
    /// checks fail *closed* under corruption.
    pub fn corrupt_shadow_for_testing(&mut self, addr: Addr, code: u8) {
        let seg = self.shadow.segment_of(addr);
        self.shadow.set(seg, code);
    }

    fn redzone_code(region: Region, left: bool) -> u8 {
        match (region, left) {
            (Region::Heap, true) => encoding::HEAP_LEFT_REDZONE,
            (Region::Heap, false) => encoding::HEAP_RIGHT_REDZONE,
            (Region::Stack, _) => encoding::STACK_REDZONE,
            (Region::Global, _) => encoding::GLOBAL_REDZONE,
        }
    }

    fn poison_allocation(&mut self, info: &ObjectInfo) {
        let rz = info.base - info.block_start;
        let user_len = align_up(info.size.max(1), SEGMENT_SIZE);
        let mut stores = 0;
        stores += poison::poison_range(
            &mut self.shadow,
            info.block_start,
            rz,
            Self::redzone_code(info.region, true),
        );
        stores += poison::poison_object(&mut self.shadow, info.base, info.size);
        let right_start = info.base + user_len;
        let right_len = info.block_len - rz - user_len;
        stores += poison::poison_range(
            &mut self.shadow,
            right_start,
            right_len,
            Self::redzone_code(info.region, false),
        );
        self.counters.shadow_stores += stores;
    }

    fn poison_block(&mut self, info: &ObjectInfo, code: u8) {
        self.counters.shadow_stores +=
            poison::poison_range(&mut self.shadow, info.block_start, info.block_len, code);
    }

    /// Poisons a fresh allocation's redzones and folded user region.
    fn poison_new(&mut self, a: &Allocation) {
        let info = self
            .world
            .objects()
            .get(a.id)
            .expect("fresh allocation must be registered")
            .clone();
        self.poison_allocation(&info);
    }

    /// Marks a freed block as freed and resets the blocks the quarantine
    /// evicted to unallocated.
    fn poison_freed(&mut self, outcome: &FreeOutcome) {
        self.poison_block(&outcome.freed, encoding::FREED);
        for info in &outcome.recycled {
            self.poison_block(info, encoding::UNALLOCATED);
        }
    }

    /// Maps a failed check to an error report, classifying by the shadow code
    /// (and, for partial-segment violations, by peeking at the following
    /// redzone to learn the region kind).
    fn report(&self, spot: BadSpot, len: u64, kind: AccessKind) -> ErrorReport {
        let code = if spot.code <= 72 {
            // Partial segment violated: the object's region is identified by
            // the redzone that follows it.
            let next_seg = self
                .shadow
                .try_segment_of(spot.addr + SEGMENT_SIZE)
                .map(|s| self.shadow.get(s))
                .unwrap_or(encoding::UNALLOCATED);
            if encoding::is_error(next_seg) {
                next_seg
            } else {
                encoding::HEAP_RIGHT_REDZONE
            }
        } else {
            spot.code
        };
        ErrorReport::new(classify(code), spot.addr, len).with_access(kind)
    }

    /// Folds a check outcome into the counters without branching: the
    /// fast/slow split becomes two unconditional adds of a 0/1 flag, so the
    /// per-access bookkeeping never costs a mispredict.
    #[inline]
    fn note_outcome(&mut self, outcome: check::CheckOutcome) {
        self.counters.shadow_loads += outcome.loads as u64;
        let slow = (outcome.path == CheckPath::Slow) as u64;
        self.counters.fast_checks += 1 - slow;
        self.counters.slow_checks += slow;
    }

    #[inline]
    fn run_region(&mut self, lo: Addr, hi: Addr, kind: AccessKind) -> CheckResult {
        let result = check::check_region(&self.shadow, lo, hi);
        let outcome = match &result {
            Ok(o) => *o,
            Err((_, o)) => *o,
        };
        self.note_outcome(outcome);
        match result {
            Ok(_) => Ok(()),
            Err((spot, _)) => {
                // The O(1) verdict is exact, but a suffix-fold mismatch can
                // blame a folded segment rather than the first bad byte. The
                // report path is cold: pin the precise spot with the
                // byte-wise scan, like a real sanitizer's error reporter.
                let spot = check::check_region_bytewise(&self.shadow, lo, hi)
                    .err()
                    .unwrap_or(spot);
                self.counters.reports += 1;
                Err(self.report(spot, hi - lo, kind))
            }
        }
    }
}

/// Maps a GiantSan shadow error code to the report classification.
pub fn classify(code: u8) -> ErrorKind {
    match code {
        encoding::HEAP_RIGHT_REDZONE => ErrorKind::HeapBufferOverflow,
        encoding::HEAP_LEFT_REDZONE => ErrorKind::HeapBufferUnderflow,
        encoding::FREED => ErrorKind::UseAfterFree,
        encoding::STACK_REDZONE => ErrorKind::StackBufferOverflow,
        encoding::GLOBAL_REDZONE => ErrorKind::GlobalBufferOverflow,
        encoding::UNALLOCATED => ErrorKind::Wild,
        _ => ErrorKind::Unknown,
    }
}

impl Sanitizer for GiantSan {
    fn name(&self) -> &'static str {
        "GiantSan"
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    fn alloc(&mut self, size: u64, region: Region) -> Result<Allocation, HeapError> {
        let a = self.world.alloc(size, region)?;
        self.counters.allocs += 1;
        if region == Region::Stack {
            self.counters.stack_allocs += 1;
        }
        self.poison_new(&a);
        Ok(a)
    }

    fn free(&mut self, base: Addr) -> CheckResult {
        self.counters.frees += 1;
        match self.world.free(base) {
            Ok(outcome) => {
                self.poison_freed(&outcome);
                Ok(())
            }
            Err(report) => {
                self.counters.reports += 1;
                Err(report)
            }
        }
    }

    fn realloc(&mut self, base: Addr, new_size: u64) -> Result<Allocation, ErrorReport> {
        match self.world.realloc(base, new_size) {
            Ok((a, outcome)) => {
                self.counters.allocs += 1;
                self.counters.frees += 1;
                self.poison_new(&a);
                self.poison_freed(&outcome);
                Ok(a)
            }
            Err(report) => {
                self.counters.reports += 1;
                Err(report)
            }
        }
    }

    fn push_frame(&mut self) {
        self.world.push_frame();
    }

    fn pop_frame(&mut self) {
        for info in self.world.pop_frame() {
            self.poison_block(&info, encoding::UNALLOCATED);
        }
    }

    #[inline]
    fn check_access(&mut self, addr: Addr, width: u32, kind: AccessKind) -> CheckResult {
        let result = check::check_small(&self.shadow, addr, width);
        let outcome = match &result {
            Ok(o) => *o,
            Err((_, o)) => *o,
        };
        self.note_outcome(outcome);
        match result {
            Ok(_) => Ok(()),
            Err((spot, _)) => {
                self.counters.reports += 1;
                Err(self.report(spot, width as u64, kind))
            }
        }
    }

    #[inline]
    fn check_region(&mut self, lo: Addr, hi: Addr, kind: AccessKind) -> CheckResult {
        self.run_region(lo, hi, kind)
    }

    #[inline]
    fn check_anchored(
        &mut self,
        anchor: Addr,
        access_lo: Addr,
        access_hi: Addr,
        kind: AccessKind,
    ) -> CheckResult {
        if access_lo < anchor {
            if !self.options.underflow_anchor {
                // §5.4 first alternative: ignore the anchor for negative
                // offsets — ASan-mode accuracy, ASan-mode cost.
                return self.run_region(access_lo, access_hi, kind);
            }
            // Underflow side: a dedicated CI from the access up to the anchor
            // (§4.3; the paper keeps no lower quasi-bound).
            self.counters.underflow_checks += 1;
            self.run_region(access_lo, anchor.max(access_hi), kind)
        } else {
            self.run_region(anchor, access_hi, kind)
        }
    }

    #[inline]
    fn cached_check(
        &mut self,
        slot: &mut CacheSlot,
        base: Addr,
        offset: i64,
        width: u32,
        kind: AccessKind,
    ) -> CheckResult {
        // Figure 9, made sound: compare the access *end* against the
        // quasi-bound, and derive the refreshed bound from the folded
        // segment's own base so it never overclaims past the fold.
        if offset >= 0 {
            let end = offset as u64 + width as u64;
            if end <= slot.ub {
                self.counters.cache_hits += 1;
                return Ok(());
            }
            // Miss: anchored region check, then refresh the quasi-bound from
            // the folded segment covering the accessed address.
            self.counters.cache_updates += 1;
            slot.updates += 1;
            self.check_anchored(base, base.offset(offset), base.offset(end as i64), kind)?;
            let acc = base.offset(offset);
            let seg_base = Addr::new(acc.raw() & !(SEGMENT_SIZE - 1));
            let v = self
                .shadow
                .try_segment_of(acc)
                .map(|s| self.shadow.get(s))
                .unwrap_or(encoding::UNALLOCATED);
            self.counters.shadow_loads += 1;
            let u = encoding::addressable_bytes(v);
            let covered_end = seg_base.raw() + u;
            slot.ub = slot.ub.max(covered_end.saturating_sub(base.raw()));
            Ok(())
        } else {
            let access_end = offset + width as i64;
            // Quasi-lower-bound hit (only populated by the §5.4 mitigation).
            if offset >= slot.lb && access_end <= 0 {
                self.counters.cache_hits += 1;
                return Ok(());
            }
            if !self.options.underflow_anchor {
                // First §5.4 alternative: degrade to ASan's instruction-level
                // mode — only the accessed bytes are inspected.
                return self.check_access(base.offset(offset), width, kind);
            }
            // Dedicated underflow CI up to the anchor.
            let verdict =
                self.check_anchored(base, base.offset(offset), base.offset(access_end), kind);
            if verdict.is_ok() && self.options.reverse_mitigation && base.is_segment_aligned() {
                // Second §5.4 alternative: locate the run's lower bound once
                // and serve subsequent descending accesses from the cache.
                let low = self.locate_lower_bound(base);
                slot.lb = slot.lb.min(-((base - low) as i64));
                slot.updates += 1;
                self.counters.cache_updates += 1;
            }
            verdict
        }
    }

    fn loop_final_check(&mut self, slot: &CacheSlot, base: Addr, kind: AccessKind) -> CheckResult {
        // Figure 9 line 14: CI(y, y + ub) — catches objects freed while the
        // cache was admitting accesses. The quasi-lower-bound (§5.4 second
        // alternative) admits descending accesses the same way, so the freed
        // window it covered needs the symmetric check CI(y + lb, y).
        if slot.lb < 0 {
            self.run_region(base.offset(slot.lb), base, kind)?;
        }
        if slot.ub == 0 {
            return Ok(());
        }
        self.run_region(base, base.offset(slot.ub as i64), kind)
    }

    fn supports_caching(&self) -> bool {
        true
    }

    fn contain(&mut self, report: &ErrorReport) {
        // Heal the shadow around the faulting address from the ground-truth
        // object table: corrupted or stale folded codes are re-derived, so
        // one bad byte cannot cascade into a storm of follow-on reports.
        let addr = report.addr;
        if let Some(info) = self.world.objects().live_block_containing(addr).cloned() {
            self.poison_allocation(&info);
        } else if let Some(info) = self.world.objects().dead_block_containing(addr).cloned() {
            self.poison_block(&info, encoding::FREED);
        } else if let Some(seg) = self.shadow.try_segment_of(addr) {
            self.shadow.set(seg, encoding::UNALLOCATED);
            self.counters.shadow_stores += 1;
        }
    }

    fn inject_metadata_fault(
        &mut self,
        addr: Addr,
        fault: giantsan_runtime::MetadataFault,
    ) -> bool {
        let Some(seg) = self.shadow.try_segment_of(addr) else {
            return false;
        };
        match fault {
            giantsan_runtime::MetadataFault::BitFlip { bit } => {
                let cur = self.shadow.get(seg);
                self.shadow.set(seg, cur ^ (1 << (bit & 7)));
                true
            }
            giantsan_runtime::MetadataFault::FoldDowngrade => {
                // Losing a fold is the sound direction: the code claims
                // *fewer* addressable segments, never more.
                let cur = self.shadow.get(seg);
                if cur < giantsan_shadow::codes::GOOD {
                    self.shadow.set(seg, giantsan_shadow::codes::GOOD);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn shadow_probe(&self, addr: Addr) -> Option<u8> {
        // Read-only: telemetry observes the folded code without counting a
        // shadow load, so traced and untraced runs stay byte-identical.
        self.shadow.try_segment_of(addr).map(|s| self.shadow.get(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn san() -> GiantSan {
        GiantSan::new(RuntimeConfig::small())
    }

    #[test]
    fn alloc_poisons_folding_pattern() {
        let mut s = san();
        let a = s.alloc(68, Region::Heap).unwrap();
        let seg = s.shadow.segment_of(a.base);
        let expect = [61u8, 62, 62, 62, 62, 63, 63, 64, 68];
        assert_eq!(s.shadow.slice(seg, seg + 9), &expect);
        // Redzones on both sides.
        assert_eq!(s.shadow.get(seg - 1), encoding::HEAP_LEFT_REDZONE);
        assert_eq!(s.shadow.get(seg + 9), encoding::HEAP_RIGHT_REDZONE);
    }

    #[test]
    fn overflow_and_underflow_classified() {
        let mut s = san();
        let a = s.alloc(64, Region::Heap).unwrap();
        let over = s
            .check_access(a.base + 64, 8, AccessKind::Write)
            .unwrap_err();
        assert_eq!(over.kind, ErrorKind::HeapBufferOverflow);
        let under = s.check_access(a.base - 8, 8, AccessKind::Read).unwrap_err();
        assert_eq!(under.kind, ErrorKind::HeapBufferUnderflow);
    }

    #[test]
    fn partial_segment_violation_classified_as_overflow() {
        let mut s = san();
        let a = s.alloc(12, Region::Heap).unwrap();
        let err = s
            .check_access(a.base + 12, 1, AccessKind::Read)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::HeapBufferOverflow);
    }

    #[test]
    fn use_after_free_detected_until_recycled() {
        let mut s = GiantSan::new(
            RuntimeConfig::small()
                .to_builder()
                .quarantine_cap(1 << 12)
                .build(),
        );
        let a = s.alloc(32, Region::Heap).unwrap();
        s.free(a.base).unwrap();
        let err = s.check_access(a.base, 8, AccessKind::Read).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UseAfterFree);
    }

    #[test]
    fn quarantine_bypass_is_a_known_false_negative() {
        // §5.4: once the quarantine evicts and the block is reallocated, a
        // dangling access looks valid.
        let mut s = GiantSan::new(
            RuntimeConfig::small()
                .to_builder()
                .quarantine_cap(0)
                .build(),
        );
        let a = s.alloc(32, Region::Heap).unwrap();
        s.free(a.base).unwrap();
        let b = s.alloc(32, Region::Heap).unwrap();
        assert_eq!(a.base, b.base);
        assert!(s.check_access(a.base, 8, AccessKind::Read).is_ok());
    }

    #[test]
    fn stack_and_global_errors_classified() {
        let mut s = san();
        s.push_frame();
        let st = s.alloc(24, Region::Stack).unwrap();
        let err = s
            .check_access(st.base + 24, 8, AccessKind::Write)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::StackBufferOverflow);
        s.pop_frame();
        let g = s.alloc(16, Region::Global).unwrap();
        let err = s
            .check_access(g.base + 16, 4, AccessKind::Write)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::GlobalBufferOverflow);
    }

    #[test]
    fn dead_stack_slot_access_fails() {
        let mut s = san();
        s.push_frame();
        let st = s.alloc(24, Region::Stack).unwrap();
        assert!(s.check_access(st.base, 8, AccessKind::Read).is_ok());
        s.pop_frame();
        assert!(s.check_access(st.base, 8, AccessKind::Read).is_err());
    }

    #[test]
    fn anchored_check_defeats_redzone_bypass() {
        // §4.4.1: a huge offset jumps clean over the 16-byte redzone into
        // another object; the instruction-level check misses it, the
        // anchored check does not.
        let mut s = san();
        let a = s.alloc(64, Region::Heap).unwrap();
        let _pad: Vec<_> = (0..8)
            .map(|_| s.alloc(256, Region::Heap).unwrap())
            .collect();
        let victim = s.alloc(256, Region::Heap).unwrap();
        let off = (victim.base + 16) - a.base;
        // The bypassing access itself lands on addressable bytes...
        assert!(s
            .check_access(a.base.offset(off as i64), 8, AccessKind::Write)
            .is_ok());
        // ...but the anchored region check catches it.
        let err = s
            .check_anchored(
                a.base,
                a.base.offset(off as i64),
                a.base.offset(off as i64 + 8),
                AccessKind::Write,
            )
            .unwrap_err();
        assert!(err.kind.is_spatial());
    }

    #[test]
    fn quasi_bound_converges_logarithmically() {
        let mut s = san();
        let n: u64 = 4096;
        let a = s.alloc(n, Region::Heap).unwrap();
        let mut slot = CacheSlot::new();
        for off in (0..n).step_by(8) {
            s.cached_check(&mut slot, a.base, off as i64, 8, AccessKind::Read)
                .unwrap();
        }
        let bound = (n / 8).ilog2() + 1;
        assert!(
            slot.updates <= bound,
            "updates {} exceed ⌈log2(n/8)⌉ {}",
            slot.updates,
            bound
        );
        assert_eq!(slot.ub, n);
        // The vast majority of the 512 accesses were cache hits.
        assert!(s.counters().cache_hits >= 512 - bound as u64 - 1);
    }

    #[test]
    fn quasi_bound_never_admits_out_of_bounds() {
        // Soundness at every size: walk past the end; the first OOB access
        // must be reported despite the cache.
        for size in [8u64, 12, 24, 64, 100, 256] {
            let mut s = san();
            let a = s.alloc(size, Region::Heap).unwrap();
            let mut slot = CacheSlot::new();
            for off in (0..size + 32).step_by(4) {
                let r = s.cached_check(&mut slot, a.base, off as i64, 4, AccessKind::Read);
                let valid = off + 4 <= size;
                assert_eq!(r.is_ok(), valid, "size={size} off={off}");
                if !valid {
                    break;
                }
            }
        }
    }

    #[test]
    fn cached_negative_offsets_always_checked() {
        let mut s = san();
        let a = s.alloc(64, Region::Heap).unwrap();
        let mut slot = CacheSlot::new();
        s.cached_check(&mut slot, a.base, 0, 8, AccessKind::Read)
            .unwrap();
        let before = s.counters().underflow_checks;
        let err = s
            .cached_check(&mut slot, a.base, -8, 8, AccessKind::Read)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::HeapBufferUnderflow);
        assert_eq!(s.counters().underflow_checks, before + 1);
    }

    #[test]
    fn loop_final_check_catches_mid_loop_free() {
        let mut s = san();
        let a = s.alloc(256, Region::Heap).unwrap();
        let mut slot = CacheSlot::new();
        s.cached_check(&mut slot, a.base, 0, 8, AccessKind::Write)
            .unwrap();
        assert!(slot.ub > 0);
        s.free(a.base).unwrap();
        // Cache still admits (that is the point of the final check)...
        assert!(s
            .cached_check(&mut slot, a.base, 8, 8, AccessKind::Write)
            .is_ok());
        // ...and the loop-exit check reports the deallocation.
        let err = s
            .loop_final_check(&slot, a.base, AccessKind::Write)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::UseAfterFree);
    }

    #[test]
    fn loop_final_check_catches_mid_loop_realloc() {
        // A realloc (shrink, possibly moving the object) invalidates a
        // quasi-bound built on the old extent: the loop-exit check over the
        // remembered range must report, whether the old base is now freed or
        // truncated.
        let mut s = san();
        let a = s.alloc(256, Region::Heap).unwrap();
        let mut slot = CacheSlot::new();
        s.cached_check(&mut slot, a.base, 248, 8, AccessKind::Write)
            .unwrap();
        assert_eq!(slot.ub, 256);
        s.realloc(a.base, 64).unwrap();
        let err = s
            .loop_final_check(&slot, a.base, AccessKind::Write)
            .unwrap_err();
        assert!(
            matches!(
                err.kind,
                ErrorKind::UseAfterFree | ErrorKind::HeapBufferOverflow
            ),
            "stale quasi-bound after realloc not reported: {:?}",
            err.kind
        );
    }

    #[test]
    fn loop_final_check_catches_mid_loop_free_on_reverse_traversal() {
        // Regression: with the §5.4 reverse mitigation the cache admits
        // descending accesses below the quasi-lower-bound; a mid-loop free
        // must still surface at loop exit even when ub was never populated.
        let mut s = GiantSan::builder()
            .config(RuntimeConfig::small())
            .reverse_mitigation(true)
            .build();
        let n: u64 = 256;
        let a = s.alloc(n, Region::Heap).unwrap();
        let end = a.base + n;
        let mut slot = CacheSlot::new();
        s.cached_check(&mut slot, end, -8, 8, AccessKind::Read)
            .unwrap();
        assert!(slot.lb < 0, "mitigation must populate the lower bound");
        assert_eq!(slot.ub, 0, "reverse loop never grows the upper bound");
        s.free(a.base).unwrap();
        // The cache still admits in-bounds descending accesses...
        assert!(s
            .cached_check(&mut slot, end, -16, 8, AccessKind::Read)
            .is_ok());
        // ...so the loop-exit check must validate [base+lb, base) too.
        let err = s
            .loop_final_check(&slot, end, AccessKind::Read)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::UseAfterFree);
    }

    #[test]
    fn builder_matches_with_options() {
        let built = GiantSan::builder()
            .underflow_anchor(false)
            .reverse_mitigation(true)
            .build();
        assert_eq!(
            *built.options(),
            GiantSanOptions {
                underflow_anchor: false,
                reverse_mitigation: true,
            }
        );
        assert_eq!(
            *GiantSan::builder().build().options(),
            GiantSanOptions::default()
        );
    }

    #[test]
    fn recycled_blocks_are_unpoisoned_for_reuse() {
        let mut s = GiantSan::new(
            RuntimeConfig::small()
                .to_builder()
                .quarantine_cap(64)
                .build(),
        );
        let a = s.alloc(8, Region::Heap).unwrap();
        s.free(a.base).unwrap();
        // Pushing more frees evicts `a`; its shadow returns to unallocated,
        // then reallocation repoisons it as live.
        for _ in 0..4 {
            let x = s.alloc(64, Region::Heap).unwrap();
            s.free(x.base).unwrap();
        }
        let b = s.alloc(8, Region::Heap).unwrap();
        assert!(s.check_access(b.base, 8, AccessKind::Read).is_ok());
    }

    #[test]
    fn free_errors_are_reported() {
        let mut s = san();
        let a = s.alloc(64, Region::Heap).unwrap();
        assert_eq!(s.free(a.base + 8).unwrap_err().kind, ErrorKind::InvalidFree);
        s.free(a.base).unwrap();
        assert_eq!(s.free(a.base).unwrap_err().kind, ErrorKind::DoubleFree);
        assert_eq!(s.counters().reports, 2);
    }

    #[test]
    fn locate_lower_bound_finds_object_base() {
        let mut s = san();
        for size in [8u64, 16, 24, 64, 100, 1000, 4096] {
            let a = s.alloc(size, Region::Heap).unwrap();
            // Anchor at the end of the *good-segment run*: a trailing
            // partial segment is not part of it.
            let good_end = a.base + size / 8 * 8;
            assert_eq!(
                s.locate_lower_bound(good_end),
                a.base,
                "size {size}: wrong lower bound"
            );
            // From an interior aligned point too.
            if size >= 16 {
                assert_eq!(s.locate_lower_bound(a.base + 8), a.base);
            }
        }
    }

    #[test]
    fn locate_lower_bound_stops_at_partial_tail() {
        // One past a k-partial segment, the run below the anchor is not all
        // good: the locator must not extend through it.
        let mut s = san();
        let a = s.alloc(100, Region::Heap).unwrap(); // 12 good + 4-partial
        let past_partial = a.base + 104;
        assert_eq!(s.locate_lower_bound(past_partial), past_partial);
    }

    #[test]
    fn locate_lower_bound_is_logarithmic() {
        let mut s = san();
        let n = 1u64 << 16;
        let a = s.alloc(n, Region::Heap).unwrap();
        s.counters_mut().reset();
        let low = s.locate_lower_bound(a.base + n);
        assert_eq!(low, a.base);
        assert!(
            s.counters().shadow_loads <= 2 * (n / 8).ilog2() as u64 + 4,
            "{} loads for a {}-byte run",
            s.counters().shadow_loads,
            n
        );
    }

    #[test]
    fn reverse_mitigation_caches_descending_accesses() {
        let mut s = GiantSan::builder()
            .config(RuntimeConfig::small())
            .reverse_mitigation(true)
            .build();
        let n: u64 = 4096;
        let a = s.alloc(n, Region::Heap).unwrap();
        let end = a.base + n;
        let mut slot = CacheSlot::new();
        for k in 1..=(n / 8) {
            s.cached_check(&mut slot, end, -(8 * k as i64), 8, AccessKind::Read)
                .unwrap();
        }
        // One underflow CI + one lower-bound location, then all hits.
        assert_eq!(s.counters().underflow_checks, 1);
        assert_eq!(s.counters().cache_hits, n / 8 - 1);
        assert_eq!(slot.lb, -(n as i64));
        // Descending past the object start is still reported.
        let err = s
            .cached_check(&mut slot, end, -(n as i64) - 8, 8, AccessKind::Read)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::HeapBufferUnderflow);
    }

    #[test]
    fn reverse_mitigation_soundness_at_every_size() {
        for size in [8u64, 24, 100, 256, 1000] {
            let mut s = GiantSan::builder()
                .config(RuntimeConfig::small())
                .reverse_mitigation(true)
                .build();
            let a = s.alloc(size, Region::Heap).unwrap();
            // Reverse traversal of the whole-word prefix, anchored one past
            // the last full word (the `p = buf + n; *--p` idiom).
            let words = size / 8 * 8;
            let end = a.base + words;
            let mut slot = CacheSlot::new();
            for k in 1..=(words / 8 + 4) {
                let off = -(8 * k as i64);
                let r = s.cached_check(&mut slot, end, off, 8, AccessKind::Read);
                let valid = 8 * k <= words;
                assert_eq!(r.is_ok(), valid, "size={size} k={k}");
            }
        }
    }

    #[test]
    fn no_underflow_anchor_degrades_to_asan_mode() {
        // The first §5.4 alternative: a large negative offset that lands in
        // another live object bypasses the redzone, exactly like ASan.
        let mut s = GiantSan::builder()
            .config(RuntimeConfig::small())
            .underflow_anchor(false)
            .build();
        let victim = s.alloc(256, Region::Heap).unwrap();
        let a = s.alloc(64, Region::Heap).unwrap();
        let dist = (a.base - victim.base) as i64;
        let mut slot = CacheSlot::new();
        // Lands inside the victim: instruction-level check passes (the
        // accuracy cost the paper warns about)...
        assert!(s
            .cached_check(&mut slot, a.base, -dist + 8, 8, AccessKind::Read)
            .is_ok());
        // ...while the default anchored configuration reports it.
        let mut strict = san();
        let victim = strict.alloc(256, Region::Heap).unwrap();
        let a = strict.alloc(64, Region::Heap).unwrap();
        let dist = (a.base - victim.base) as i64;
        let mut slot = CacheSlot::new();
        assert!(strict
            .cached_check(&mut slot, a.base, -dist + 8, 8, AccessKind::Read)
            .is_err());
    }

    #[test]
    fn counters_track_paths() {
        let mut s = san();
        let a = s.alloc(4096, Region::Heap).unwrap();
        s.check_region(a.base, a.base + 4096, AccessKind::Read)
            .unwrap();
        assert_eq!(s.counters().fast_checks, 1);
        assert_eq!(s.counters().shadow_loads, 1);
        // A region not starting at a fold boundary big enough: slow path.
        s.check_region(a.base + 8, a.base + 4096, AccessKind::Read)
            .unwrap();
        assert!(s.counters().slow_checks >= 1);
    }
}
