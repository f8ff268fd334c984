//! The sanitizer API every tool implements, plus the native baseline.

use giantsan_shadow::Addr;

use crate::{
    AccessKind, Allocation, CheckResult, Counters, ErrorReport, HeapError, MetadataFault, Region,
    RuntimeConfig, World,
};

/// Per-pointer history-cache state (the paper's quasi-bound, §4.3).
///
/// The slot is dumb data owned by the instrumented program (one local
/// variable per cached pointer, like `ub` in Figure 9); the sanitizer
/// interprets it in [`Sanitizer::cached_check`]. Tools without history
/// caching simply ignore it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSlot {
    /// Exclusive upper bound, in bytes relative to the cached pointer, below
    /// which accesses are known safe. Starts at 0 ("size unknown").
    pub ub: u64,
    /// Inclusive lower bound (≤ 0), in bytes relative to the cached pointer,
    /// above which accesses are known safe. The paper keeps no quasi-lower
    /// bound by default; GiantSan's optional reverse-traversal mitigation
    /// (§5.4, second alternative) fills this by locating the lower bound of
    /// the addressable run through the folded segments.
    pub lb: i64,
    /// Number of times either bound was refreshed; the paper proves the
    /// upper bound converges in at most `⌈log2(n/8)⌉` refreshes for an
    /// `n`-byte object.
    pub updates: u32,
}

impl CacheSlot {
    /// A fresh, empty cache slot.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A memory-safety tool attached to a simulated [`World`].
///
/// The trait surfaces exactly the hook points the paper's runtime uses:
/// allocation/deallocation events (shadow poisoning), instruction-level
/// checks, operation-level region checks of arbitrary size, anchor-based
/// checks, and history-cached checks. Default implementations degrade
/// gracefully: a tool that cannot check regions in O(1) may override
/// [`Sanitizer::check_region`] with a linear loop (ASan does), and a tool
/// without history caching inherits a `cached_check` that performs a plain
/// anchored check on every access.
///
/// `Send` is a supertrait: every tool owns its world outright (no shared
/// interior mutability), and the batch-execution engine moves freshly built
/// sessions onto worker threads.
pub trait Sanitizer: Send {
    /// Short tool name, e.g. `"GiantSan"`.
    fn name(&self) -> &'static str;

    /// The world this tool runs in.
    fn world(&self) -> &World;

    /// Mutable world access (used by the interpreter for data loads/stores).
    fn world_mut(&mut self) -> &mut World;

    /// Check statistics accumulated so far.
    fn counters(&self) -> &Counters;

    /// Mutable access to the statistics.
    fn counters_mut(&mut self) -> &mut Counters;

    /// Allocates an object and poisons its metadata.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError`] when the arena is exhausted.
    fn alloc(&mut self, size: u64, region: Region) -> Result<Allocation, HeapError>;

    /// Frees a heap object, updating metadata.
    ///
    /// # Errors
    ///
    /// Returns an error report for invalid/double/wild frees.
    fn free(&mut self, base: Addr) -> CheckResult;

    /// Reallocates a heap object, maintaining metadata for the new block,
    /// the copied contents, and the quarantined old block.
    ///
    /// # Errors
    ///
    /// Returns the same reports as [`Sanitizer::free`] for invalid bases.
    fn realloc(&mut self, base: Addr, new_size: u64) -> Result<Allocation, ErrorReport>;

    /// Enters a stack frame.
    fn push_frame(&mut self);

    /// Leaves the current stack frame, poisoning dead slots.
    fn pop_frame(&mut self);

    /// Instruction-level check of `width` bytes at `addr` (ASan's classic
    /// `w ≤ 8` fast path).
    fn check_access(&mut self, addr: Addr, width: u32, kind: AccessKind) -> CheckResult;

    /// Operation-level check that `[lo, hi)` is entirely addressable.
    fn check_region(&mut self, lo: Addr, hi: Addr, kind: AccessKind) -> CheckResult;

    /// Anchor-based check (§4.4.1): validate the whole range between the
    /// object's base pointer (`anchor`) and the far edge of the access, so
    /// that a one-byte redzone suffices to catch redzone-bypassing offsets.
    ///
    /// The default derives the covering range and defers to
    /// [`Sanitizer::check_region`].
    fn check_anchored(
        &mut self,
        anchor: Addr,
        access_lo: Addr,
        access_hi: Addr,
        kind: AccessKind,
    ) -> CheckResult {
        let lo = anchor.min(access_lo);
        let hi = anchor.max(access_hi);
        self.check_region(lo, hi, kind)
    }

    /// History-cached check of `width` bytes at `base + offset` (§4.3).
    ///
    /// The default ignores the slot and performs an anchored check, which is
    /// what a tool without history caching must do for every access.
    fn cached_check(
        &mut self,
        _slot: &mut CacheSlot,
        base: Addr,
        offset: i64,
        width: u32,
        kind: AccessKind,
    ) -> CheckResult {
        let lo = base.offset(offset);
        self.check_access(lo, width, kind)
    }

    /// Final check after a cached loop finishes (Figure 9 line 14), catching
    /// deallocation races the cache may have skipped over.
    fn loop_final_check(
        &mut self,
        _slot: &CacheSlot,
        _base: Addr,
        _kind: AccessKind,
    ) -> CheckResult {
        Ok(())
    }

    /// Whether this tool benefits from history caching (drives the planner's
    /// `Cached` category accounting).
    fn supports_caching(&self) -> bool {
        false
    }

    /// Extra bookkeeping hook for stack allocations.
    fn note_stack_alloc(&mut self) {
        self.counters_mut().stack_allocs += 1;
    }

    /// Containment hook, called by the interpreter under
    /// [`crate::RecoveryPolicy::Recover`] after `report` was recorded and
    /// the faulting access skipped. The shadow tools heal their shadow from
    /// the object table ([`crate::ShadowedWorld::contain`]); the default,
    /// for tools without shadow state, does nothing — skipping the access
    /// is the whole containment.
    fn contain(&mut self, _report: &ErrorReport) {}

    /// Applies a deterministic [`MetadataFault`] to this tool's shadow
    /// metadata at `addr`, returning `true` when the tool has metadata there
    /// to corrupt. The default (no shadow) injects nothing.
    ///
    /// The interpreter calls this right after a successful `alloc` when the
    /// run's fault plan arms a [`crate::FaultKind::ShadowBitFlip`] or
    /// [`crate::FaultKind::FoldDowngrade`] at that allocation; a run with
    /// no plan never calls it.
    fn inject_metadata_fault(&mut self, _addr: Addr, _fault: MetadataFault) -> bool {
        false
    }

    /// Read-only peek at the shadow byte covering `addr`, for telemetry.
    ///
    /// Tools with encoded shadow metadata (GiantSan's folded segments,
    /// ASan's partial-byte encoding) return the raw byte so a trace can
    /// record folding degrees and poison codes alongside each check. The
    /// default — tools without shadow state — returns `None`.
    ///
    /// Implementations must not touch counters or any mutable state: the
    /// interpreter only calls this when tracing is enabled, and a probe
    /// that perturbed counters would make traced and untraced runs diverge.
    fn shadow_probe(&self, _addr: Addr) -> Option<u8> {
        None
    }
}

/// Native execution: no redzones, no quarantine, no checks.
///
/// This is the "Native" column of Table 2 — the baseline every overhead
/// ratio is computed against.
///
/// # Example
///
/// ```
/// use giantsan_runtime::{AccessKind, NullSanitizer, Region, RuntimeConfig, Sanitizer};
/// use giantsan_shadow::Addr;
///
/// let mut native = NullSanitizer::new(RuntimeConfig::small());
/// let a = native.alloc(16, Region::Heap).unwrap();
/// // Even a wildly out-of-bounds access is admitted: natively there is no
/// // detection, only (possible) corruption.
/// assert!(native
///     .check_access(a.base + 4096, 8, AccessKind::Write)
///     .is_ok());
/// ```
#[derive(Debug)]
pub struct NullSanitizer {
    world: World,
    counters: Counters,
}

impl NullSanitizer {
    /// Creates a native world from `config`, forcing redzones and quarantine
    /// off (a stock allocator has neither).
    pub fn new(config: RuntimeConfig) -> Self {
        let native_cfg = config.to_builder().redzone(0).quarantine_cap(0).build();
        NullSanitizer {
            world: World::new(native_cfg),
            counters: Counters::default(),
        }
    }
}

impl Sanitizer for NullSanitizer {
    fn name(&self) -> &'static str {
        "Native"
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
        self.counters.allocs += 1;
        if region == Region::Stack {
            self.counters.stack_allocs += 1;
        }
        self.world.alloc(size, region)
    }

    fn free(&mut self, base: Addr) -> CheckResult {
        self.counters.frees += 1;
        // Native `free` on a bad pointer is undefined behaviour, not a
        // report; the simulator simply ignores it.
        let _ = self.world.free(base);
        Ok(())
    }

    fn realloc(&mut self, base: Addr, new_size: u64) -> Result<Allocation, crate::ErrorReport> {
        self.counters.allocs += 1;
        self.counters.frees += 1;
        match self.world.realloc(base, new_size) {
            Ok((a, _)) => Ok(a),
            // Undefined behaviour natively: serve a fresh block, no report.
            Err(_) => self
                .world
                .alloc(new_size, Region::Heap)
                .map_err(|_| crate::ErrorReport::new(crate::ErrorKind::Unknown, base, new_size)),
        }
    }

    fn push_frame(&mut self) {
        self.world.push_frame();
    }

    fn pop_frame(&mut self) {
        let _ = self.world.pop_frame();
    }

    fn check_access(&mut self, _addr: Addr, _width: u32, _kind: AccessKind) -> CheckResult {
        Ok(())
    }

    fn check_region(&mut self, _lo: Addr, _hi: Addr, _kind: AccessKind) -> CheckResult {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_never_reports() {
        let mut n = NullSanitizer::new(RuntimeConfig::small());
        let a = n.alloc(8, Region::Heap).unwrap();
        assert!(n.check_access(a.base + 100, 8, AccessKind::Read).is_ok());
        assert!(n
            .check_region(a.base, a.base + 4096, AccessKind::Write)
            .is_ok());
        assert!(n.free(a.base).is_ok());
        assert!(n.free(a.base).is_ok(), "double free is silently ignored");
    }

    #[test]
    fn native_has_no_redzones() {
        let mut n = NullSanitizer::new(RuntimeConfig::default());
        let a = n.alloc(24, Region::Heap).unwrap();
        let info = n.world().objects().get(a.id).unwrap();
        assert_eq!(info.base, info.block_start);
        assert_eq!(info.block_len, 24);
    }

    #[test]
    fn native_reuses_memory_immediately() {
        let mut n = NullSanitizer::new(RuntimeConfig::small());
        let a = n.alloc(8, Region::Heap).unwrap();
        n.free(a.base).unwrap();
        let b = n.alloc(8, Region::Heap).unwrap();
        assert_eq!(a.base, b.base);
    }

    #[test]
    fn default_cached_check_falls_back_to_plain_check() {
        let mut n = NullSanitizer::new(RuntimeConfig::small());
        let a = n.alloc(64, Region::Heap).unwrap();
        let mut slot = CacheSlot::new();
        assert!(n
            .cached_check(&mut slot, a.base, 8, 4, AccessKind::Read)
            .is_ok());
        assert_eq!(slot, CacheSlot::new(), "native leaves the slot untouched");
        assert!(n.loop_final_check(&slot, a.base, AccessKind::Read).is_ok());
        assert!(!n.supports_caching());
    }

    #[test]
    fn frame_hooks_do_not_leak() {
        let mut n = NullSanitizer::new(RuntimeConfig::small());
        n.push_frame();
        let s = n.alloc(32, Region::Stack).unwrap();
        assert_eq!(s.region, Region::Stack);
        n.pop_frame();
        assert_eq!(n.world().stack().bytes_in_use(), 0);
        assert_eq!(n.counters().stack_allocs, 1);
    }
}
