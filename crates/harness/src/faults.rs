//! Deterministic fault injection: seeded fault plans and the injecting
//! sanitizer wrapper.
//!
//! A [`FaultPlan`] is pure data attached to a [`crate::SessionSpec`]: it
//! names which faults to inject (shadow bit flips, folded-code downgrades,
//! allocator OOM, quarantine exhaustion, interpreter step budgets) and at
//! which allocation events. Because the plan travels with the spec and every
//! batch worker rebuilds its session from the spec, a given `(seed, cell)`
//! pair injects the identical fault schedule at any `--threads N` — the
//! property the `repro faults` campaign's digest check locks down.
//!
//! Injection happens in [`FaultySanitizer`], a generic wrapper that keeps
//! the interpreter monomorphized: wrapping a concrete tool instantiates the
//! whole interpreter loop at `FaultySanitizer<Tool>`, so clean-run dispatch
//! is untouched.

use giantsan_runtime::{
    AccessKind, Allocation, CacheSlot, CheckResult, Counters, ErrorReport, HeapError,
    MetadataFault, Region, Sanitizer, World,
};
use giantsan_shadow::Addr;

/// One fault to inject, triggered by an allocation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip `bit` of the shadow byte covering `base + byte_offset` of the
    /// triggering allocation (models metadata corruption).
    ShadowBitFlip {
        /// Offset into the triggering allocation whose covering shadow byte
        /// is corrupted.
        byte_offset: u64,
        /// Bit index to flip, `0..8`.
        bit: u8,
    },
    /// Downgrade the folded code covering `base + byte_offset` to its
    /// unfolded form (GiantSan loses folding performance but stays sound;
    /// flat-encoding tools have nothing to downgrade).
    FoldDowngrade {
        /// Offset into the triggering allocation whose covering code is
        /// downgraded.
        byte_offset: u64,
    },
    /// Fail the triggering allocation with out-of-memory.
    AllocOom,
    /// Run the whole session with the quarantine capped at `cap` bytes,
    /// forcing early recycling (temporal-detection pressure).
    QuarantineExhaustion {
        /// Quarantine byte capacity forced on the session.
        cap: u64,
    },
    /// Run the interpreter with at most `max_steps` statements.
    StepBudget {
        /// Statement budget forced on the execution.
        max_steps: u64,
    },
}

/// A [`FaultKind`] armed at the `alloc_index`-th allocation of the run
/// (0-based, counting every `alloc` the program performs).
///
/// Session-wide kinds ([`FaultKind::QuarantineExhaustion`],
/// [`FaultKind::StepBudget`]) ignore the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Which fault to inject.
    pub kind: FaultKind,
    /// Allocation ordinal that triggers it.
    pub alloc_index: u64,
}

/// A deterministic, seedable schedule of faults for one session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (recorded for reproducibility).
    pub seed: u64,
    /// The armed faults, in arming order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan carrying `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one armed fault.
    pub fn with_event(mut self, kind: FaultKind, alloc_index: u64) -> Self {
        self.events.push(FaultEvent { kind, alloc_index });
        self
    }

    /// The step budget this plan imposes, if any (smallest wins).
    pub fn step_budget(&self) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::StepBudget { max_steps } => Some(max_steps),
                _ => None,
            })
            .min()
    }

    /// The quarantine cap this plan forces, if any (smallest wins).
    pub fn quarantine_cap(&self) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::QuarantineExhaustion { cap } => Some(cap),
                _ => None,
            })
            .min()
    }
}

/// `splitmix64`: the tiny, high-quality PRNG step used to derive fault
/// schedules from seeds. Advances `state` and returns the next value.
///
/// Deterministic by construction — the same seed always unfolds into the
/// same schedule, independent of thread count or platform.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A sanitizer wrapper that injects the faults of a [`FaultPlan`] while
/// delegating every real operation to the wrapped tool.
///
/// Allocation-triggered faults fire when the matching allocation ordinal is
/// reached: OOM replaces the allocation's result, metadata faults corrupt
/// the tool's shadow right after the allocation succeeds (via
/// [`Sanitizer::inject_metadata_fault`]). Session-wide faults (quarantine
/// cap, step budget) are applied by [`crate::SessionSpec`] at session/exec
/// construction instead.
#[derive(Debug)]
pub struct FaultySanitizer<S> {
    inner: S,
    events: Vec<FaultEvent>,
    allocs_seen: u64,
    injected: u64,
}

impl<S: Sanitizer> FaultySanitizer<S> {
    /// Wraps `inner`, arming the allocation-triggered events of `plan`.
    pub fn new(inner: S, plan: &FaultPlan) -> Self {
        FaultySanitizer {
            inner,
            events: plan.events.clone(),
            allocs_seen: 0,
            injected: 0,
        }
    }

    /// Number of faults that actually fired so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

impl<S: Sanitizer> Sanitizer for FaultySanitizer<S> {
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
        let ordinal = self.allocs_seen;
        self.allocs_seen += 1;
        if self
            .events
            .iter()
            .any(|e| e.alloc_index == ordinal && matches!(e.kind, FaultKind::AllocOom))
        {
            self.injected += 1;
            return Err(HeapError::OutOfMemory { requested: size });
        }
        let a = self.inner.alloc(size, region)?;
        for i in 0..self.events.len() {
            let e = self.events[i];
            if e.alloc_index != ordinal {
                continue;
            }
            let fired = match e.kind {
                FaultKind::ShadowBitFlip { byte_offset, bit } => self
                    .inner
                    .inject_metadata_fault(a.base + byte_offset, MetadataFault::BitFlip { bit }),
                FaultKind::FoldDowngrade { byte_offset } => self
                    .inner
                    .inject_metadata_fault(a.base + byte_offset, MetadataFault::FoldDowngrade),
                _ => false,
            };
            self.injected += fired as u64;
        }
        Ok(a)
    }

    fn free(&mut self, base: Addr) -> CheckResult {
        self.inner.free(base)
    }

    fn realloc(&mut self, base: Addr, new_size: u64) -> Result<Allocation, ErrorReport> {
        self.allocs_seen += 1;
        self.inner.realloc(base, new_size)
    }

    fn push_frame(&mut self) {
        self.inner.push_frame();
    }

    fn pop_frame(&mut self) {
        self.inner.pop_frame();
    }

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

    fn supports_caching(&self) -> bool {
        self.inner.supports_caching()
    }

    fn note_stack_alloc(&mut self) {
        self.inner.note_stack_alloc();
    }

    fn contain(&mut self, report: &ErrorReport) {
        self.inner.contain(report);
    }

    fn inject_metadata_fault(&mut self, addr: Addr, fault: MetadataFault) -> bool {
        self.inner.inject_metadata_fault(addr, fault)
    }

    fn shadow_probe(&self, addr: Addr) -> Option<u8> {
        self.inner.shadow_probe(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_core::GiantSan;
    use giantsan_runtime::RuntimeConfig;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
    }

    #[test]
    fn oom_fires_at_the_armed_ordinal() {
        let plan = FaultPlan::new(1).with_event(FaultKind::AllocOom, 1);
        let mut f = FaultySanitizer::new(GiantSan::new(RuntimeConfig::small()), &plan);
        assert!(f.alloc(8, Region::Heap).is_ok());
        assert!(f.alloc(8, Region::Heap).is_err());
        assert!(f.alloc(8, Region::Heap).is_ok());
        assert_eq!(f.injected(), 1);
        // The failed allocation never reached the tool's counters.
        assert_eq!(f.counters().allocs, 2);
    }

    #[test]
    fn bit_flip_corrupts_and_check_fails_closed() {
        let plan = FaultPlan::new(2).with_event(
            FaultKind::ShadowBitFlip {
                byte_offset: 0,
                bit: 3,
            },
            0,
        );
        let mut f = FaultySanitizer::new(GiantSan::new(RuntimeConfig::small()), &plan);
        let a = f.alloc(64, Region::Heap).unwrap();
        assert_eq!(f.injected(), 1);
        // The flipped code makes the first segment claim less (or garbage);
        // a full-object check must not pass silently *and* must not panic.
        let _ = f.check_region(a.base, a.base + 64, AccessKind::Read);
    }

    #[test]
    fn fold_downgrade_is_sound() {
        let plan = FaultPlan::new(3).with_event(FaultKind::FoldDowngrade { byte_offset: 0 }, 0);
        let mut f = FaultySanitizer::new(GiantSan::new(RuntimeConfig::small()), &plan);
        let a = f.alloc(256, Region::Heap).unwrap();
        assert_eq!(f.injected(), 1);
        // Losing a fold never admits an invalid access (sound direction)...
        assert!(f
            .check_region(a.base, a.base + 257, AccessKind::Read)
            .is_err());
        // ...and the segment still admits accesses it genuinely covers: the
        // downgraded code claims exactly its own 8 bytes.
        assert!(f.check_access(a.base, 8, AccessKind::Read).is_ok());
    }

    #[test]
    fn plan_level_overrides_pick_smallest() {
        let plan = FaultPlan::new(4)
            .with_event(FaultKind::StepBudget { max_steps: 500 }, 0)
            .with_event(FaultKind::StepBudget { max_steps: 100 }, 0)
            .with_event(FaultKind::QuarantineExhaustion { cap: 64 }, 0);
        assert_eq!(plan.step_budget(), Some(100));
        assert_eq!(plan.quarantine_cap(), Some(64));
        assert_eq!(FaultPlan::new(0).step_budget(), None);
    }
}
