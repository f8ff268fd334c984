//! ASan-- baseline (Zhang et al., USENIX Security 2022; paper §5).
//!
//! ASan-- "debloats" ASan: its runtime encoding and checks are ASan's, but a
//! static-analysis pass removes redundant checks (must-alias duplicates,
//! dominated checks, loop-invariant hoisting). In this reproduction the
//! *planner* (`giantsan-analysis`) carries that difference — it emits an
//! elimination-only instrumentation plan when targeting ASan-- — so the
//! runtime here is a thin identity wrapper that only changes the tool name.

use giantsan_runtime::{
    AccessKind, Allocation, CacheSlot, CheckResult, Counters, HeapError, Region, RuntimeConfig,
    Sanitizer, World,
};
use giantsan_shadow::Addr;

use crate::Asan;

/// The ASan-- baseline: ASan's runtime with check-elimination
/// instrumentation.
///
/// # Example
///
/// ```
/// use giantsan_baselines::AsanMinusMinus;
/// use giantsan_runtime::{RuntimeConfig, Sanitizer};
///
/// let san = AsanMinusMinus::new(RuntimeConfig::small());
/// assert_eq!(san.name(), "ASan--");
/// ```
#[derive(Debug)]
pub struct AsanMinusMinus {
    inner: Asan,
}

impl AsanMinusMinus {
    /// Creates an ASan-- instance over a fresh world.
    pub fn new(config: RuntimeConfig) -> Self {
        AsanMinusMinus {
            inner: Asan::with_name(config, "ASan--"),
        }
    }
}

impl Sanitizer for AsanMinusMinus {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn world(&self) -> &World {
        self.inner.world()
    }

    fn world_mut(&mut self) -> &mut World {
        self.inner.world_mut()
    }

    fn counters(&self) -> &Counters {
        self.inner.counters()
    }

    fn counters_mut(&mut self) -> &mut Counters {
        self.inner.counters_mut()
    }

    fn alloc(&mut self, size: u64, region: Region) -> Result<Allocation, HeapError> {
        self.inner.alloc(size, region)
    }

    fn free(&mut self, base: Addr) -> CheckResult {
        self.inner.free(base)
    }

    fn realloc(
        &mut self,
        base: Addr,
        new_size: u64,
    ) -> Result<Allocation, giantsan_runtime::ErrorReport> {
        self.inner.realloc(base, new_size)
    }

    fn push_frame(&mut self) {
        self.inner.push_frame()
    }

    fn pop_frame(&mut self) {
        self.inner.pop_frame()
    }

    #[inline]
    fn check_access(&mut self, addr: Addr, width: u32, kind: AccessKind) -> CheckResult {
        self.inner.check_access(addr, width, kind)
    }

    fn check_region(&mut self, lo: Addr, hi: Addr, kind: AccessKind) -> CheckResult {
        self.inner.check_region(lo, hi, kind)
    }

    fn check_anchored(
        &mut self,
        anchor: Addr,
        access_lo: Addr,
        access_hi: Addr,
        kind: AccessKind,
    ) -> CheckResult {
        self.inner
            .check_anchored(anchor, access_lo, access_hi, kind)
    }

    fn cached_check(
        &mut self,
        slot: &mut CacheSlot,
        base: Addr,
        offset: i64,
        width: u32,
        kind: AccessKind,
    ) -> CheckResult {
        self.inner.cached_check(slot, base, offset, width, kind)
    }

    fn loop_final_check(&mut self, slot: &CacheSlot, base: Addr, kind: AccessKind) -> CheckResult {
        self.inner.loop_final_check(slot, base, kind)
    }

    fn contain(&mut self, report: &giantsan_runtime::ErrorReport) {
        self.inner.contain(report)
    }

    fn inject_metadata_fault(
        &mut self,
        addr: Addr,
        fault: giantsan_runtime::MetadataFault,
    ) -> bool {
        self.inner.inject_metadata_fault(addr, fault)
    }

    fn shadow_probe(&self, addr: Addr) -> Option<u8> {
        self.inner.shadow_probe(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_runtime::ErrorKind;

    #[test]
    fn behaves_exactly_like_asan() {
        let mut mm = AsanMinusMinus::new(RuntimeConfig::small());
        let mut asan = Asan::new(RuntimeConfig::small());
        let a1 = mm.alloc(100, Region::Heap).unwrap();
        let a2 = asan.alloc(100, Region::Heap).unwrap();
        assert_eq!(a1.base, a2.base);
        for off in [-1i64, 0, 50, 99, 100, 200] {
            let r1 = mm.check_access(a1.base.offset(off), 1, AccessKind::Read);
            let r2 = asan.check_access(a2.base.offset(off), 1, AccessKind::Read);
            assert_eq!(r1.is_ok(), r2.is_ok(), "offset {off}");
        }
        assert_eq!(mm.counters().shadow_loads, asan.counters().shadow_loads);
    }

    #[test]
    fn detection_parity_on_temporal_errors() {
        let mut mm = AsanMinusMinus::new(RuntimeConfig::small());
        let a = mm.alloc(32, Region::Heap).unwrap();
        mm.free(a.base).unwrap();
        assert_eq!(
            mm.check_access(a.base, 8, AccessKind::Read)
                .unwrap_err()
                .kind,
            ErrorKind::UseAfterFree
        );
    }

    #[test]
    fn frame_hooks_delegate() {
        let mut mm = AsanMinusMinus::new(RuntimeConfig::small());
        mm.push_frame();
        let s = mm.alloc(16, Region::Stack).unwrap();
        mm.pop_frame();
        assert!(mm.check_access(s.base, 8, AccessKind::Read).is_err());
        assert!(!mm.supports_caching());
    }
}
