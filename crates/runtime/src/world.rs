//! The simulated world a sanitizer runs in: address space, heap, stack,
//! globals, quarantine, and the ground-truth object table.

use giantsan_shadow::{align_up, Addr, AddressSpace, SEGMENT_SIZE};

use crate::{
    ErrorKind, ErrorReport, HeapError, ObjectId, ObjectInfo, ObjectTable, Quarantine,
    RuntimeConfig, SimHeap, StackSim,
};
use std::collections::HashMap;

/// Kind of memory an object lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// `malloc`-style heap storage.
    Heap,
    /// `alloca`-style stack storage, released when its frame pops.
    Stack,
    /// Program-lifetime global storage, never released.
    Global,
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Region::Heap => "heap",
            Region::Stack => "stack",
            Region::Global => "global",
        })
    }
}

/// A successful allocation: the user-visible base pointer plus identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Object identity in the ground-truth table.
    pub id: ObjectId,
    /// First byte of the user region; always 8-byte aligned.
    pub base: Addr,
    /// Exact requested size in bytes.
    pub size: u64,
    /// Region the object lives in.
    pub region: Region,
}

/// What happened when an object was freed.
#[derive(Debug, Clone)]
pub struct FreeOutcome {
    /// The object that was just freed (now quarantined).
    pub freed: ObjectInfo,
    /// Objects evicted from quarantine whose memory returned to the free
    /// list; the sanitizer must reset their shadow to "unallocated".
    pub recycled: Vec<ObjectInfo>,
}

/// The full simulated runtime environment.
///
/// Layout (low to high addresses): global arena, heap arena, stack arena.
/// All sanitizers share this structure; they differ only in how they poison
/// shadow memory and perform checks. The world enforces the paper's 8-byte
/// alignment strategy: every user base address is segment aligned, so no two
/// objects share a segment (§2, footnote 2).
///
/// # Example
///
/// ```
/// use giantsan_runtime::{Region, RuntimeConfig, World};
///
/// let mut w = World::new(RuntimeConfig::small());
/// let a = w.alloc(100, Region::Heap)?;
/// assert_eq!(a.base.raw() % 8, 0);
/// let outcome = w.free(a.base).unwrap();
/// assert_eq!(outcome.freed.id, a.id);
/// # Ok::<(), giantsan_runtime::HeapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct World {
    config: RuntimeConfig,
    space: AddressSpace,
    heap: SimHeap,
    stack: StackSim,
    globals_next: Addr,
    globals_end: Addr,
    objects: ObjectTable,
    quarantine: Quarantine,
    /// Stack blocks outstanding, keyed by block start, for frame pops.
    stack_blocks: HashMap<u64, ObjectId>,
}

/// Base simulated address of the world (the null page below is unmapped).
pub(crate) const WORLD_BASE: u64 = 0x1_0000;

impl World {
    /// Builds a world from `config`.
    pub fn new(config: RuntimeConfig) -> Self {
        let global_size = align_up(config.global_size.max(SEGMENT_SIZE), SEGMENT_SIZE);
        let heap_size = align_up(config.heap_size.max(SEGMENT_SIZE), SEGMENT_SIZE);
        let stack_size = align_up(config.stack_size.max(SEGMENT_SIZE), SEGMENT_SIZE);
        let total = global_size + heap_size + stack_size;
        let space = AddressSpace::new(WORLD_BASE, total);
        let globals_lo = space.lo();
        let heap_lo = globals_lo + global_size;
        let stack_lo = heap_lo + heap_size;
        let stack_hi = stack_lo + stack_size;
        // A guard gap above the stack keeps small stack overflows *mapped*,
        // like a real process where caller frames sit above the current one;
        // only wildly large overflows fault.
        let guard = align_up((stack_size / 4).min(64 << 10), SEGMENT_SIZE);
        World {
            heap: SimHeap::new(heap_lo, stack_lo),
            stack: StackSim::new(stack_lo, stack_hi - guard),
            globals_next: globals_lo,
            globals_end: heap_lo,
            objects: ObjectTable::new(),
            quarantine: Quarantine::new(config.quarantine_cap),
            stack_blocks: HashMap::new(),
            space,
            config,
        }
    }

    /// The runtime configuration this world was built from.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The backing address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable access to the backing address space (data loads/stores).
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The ground-truth object table.
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// The heap arena (statistics).
    pub fn heap(&self) -> &SimHeap {
        &self.heap
    }

    /// The stack simulator (statistics).
    pub fn stack(&self) -> &StackSim {
        &self.stack
    }

    /// Redzone size in bytes actually laid out (config value rounded up to
    /// segment alignment; zero stays zero).
    pub fn effective_redzone(&self) -> u64 {
        if self.config.redzone == 0 {
            0
        } else {
            align_up(self.config.redzone, SEGMENT_SIZE)
        }
    }

    /// Allocates `size` bytes in `region` with redzones on both sides.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`] when the arena is exhausted.
    pub fn alloc(&mut self, size: u64, region: Region) -> Result<Allocation, HeapError> {
        let rz = self.effective_redzone();
        let user_len = align_up(size.max(1), SEGMENT_SIZE);
        let total = user_len + 2 * rz;
        let block = match region {
            Region::Heap => self.heap.acquire(total)?,
            Region::Stack => self.stack.alloca(total)?,
            Region::Global => {
                if self.globals_end - self.globals_next < total {
                    return Err(HeapError::OutOfMemory { requested: total });
                }
                let b = self.globals_next;
                self.globals_next += total;
                b
            }
        };
        let base = block + rz;
        let id = self.objects.insert(base, size, region, block, total);
        if region == Region::Stack {
            self.stack_blocks.insert(block.raw(), id);
        }
        Ok(Allocation {
            id,
            base,
            size,
            region,
        })
    }

    /// Allocates `size` bytes but reserves `reserve` bytes of arena with no
    /// redzones: the rounded-up-allocation policy of BBC/LFP-style tools
    /// (paper §2.1). The object's block is the whole reserved slot, so the
    /// ground-truth table still records the exact requested `size`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`] when the arena is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `reserve` is smaller than the segment-aligned `size`.
    pub fn alloc_reserved(
        &mut self,
        size: u64,
        reserve: u64,
        region: Region,
    ) -> Result<Allocation, HeapError> {
        let user_len = align_up(size.max(1), SEGMENT_SIZE);
        assert!(reserve >= user_len, "reservation smaller than object");
        let block = match region {
            Region::Heap => self.heap.acquire(reserve)?,
            Region::Stack => self.stack.alloca(reserve)?,
            Region::Global => {
                if self.globals_end - self.globals_next < reserve {
                    return Err(HeapError::OutOfMemory { requested: reserve });
                }
                let b = self.globals_next;
                self.globals_next += reserve;
                b
            }
        };
        let id = self.objects.insert(block, size, region, block, reserve);
        if region == Region::Stack {
            self.stack_blocks.insert(block.raw(), id);
        }
        Ok(Allocation {
            id,
            base: block,
            size,
            region,
        })
    }

    /// Frees the heap object whose base is exactly `base`.
    ///
    /// The freed block enters the quarantine; evicted blocks return to the
    /// free list and are reported in the outcome so callers can unpoison
    /// them.
    ///
    /// # Errors
    ///
    /// Produces the allocator-API error reports of Table 3's CWE families:
    /// [`ErrorKind::InvalidFree`] when `base` points inside (but not at the
    /// start of) a live object or at a stack/global object,
    /// [`ErrorKind::DoubleFree`] when it points into an already-freed block,
    /// and [`ErrorKind::Wild`] otherwise.
    pub fn free(&mut self, base: Addr) -> Result<FreeOutcome, ErrorReport> {
        if let Some(info) = self.objects.live_at_base(base) {
            if info.region != Region::Heap {
                return Err(ErrorReport::new(ErrorKind::InvalidFree, base, info.size));
            }
            let id = info.id;
            let freed = self.objects.mark_quarantined(id);
            let mut recycled = Vec::new();
            for evicted in self.quarantine.push(id, freed.block_len) {
                let info = self.objects.mark_recycled(evicted);
                self.heap
                    .release(info.block_start, info.block_len)
                    .expect("quarantined block must be releasable");
                recycled.push(info);
            }
            return Ok(FreeOutcome { freed, recycled });
        }
        if let Some(live) = self.objects.live_containing(base) {
            return Err(ErrorReport::new(ErrorKind::InvalidFree, base, live.size));
        }
        if self.objects.dead_block_containing(base).is_some() {
            return Err(ErrorReport::new(ErrorKind::DoubleFree, base, 0));
        }
        Err(ErrorReport::new(ErrorKind::Wild, base, 0))
    }

    /// Reallocates the heap object at `base` to `new_size` bytes: allocates
    /// a new block, copies the overlapping prefix of the *data*, and frees
    /// the old block through the quarantine (so stale pointers keep landing
    /// on poisoned shadow).
    ///
    /// Returns the new allocation plus the free outcome of the old block.
    ///
    /// # Errors
    ///
    /// Returns the same reports as [`World::free`] for invalid bases. When
    /// the new block cannot be allocated it returns [`ErrorKind::Unknown`]
    /// (address `base`, size `new_size`) and changes nothing: the old object
    /// stays live with its data, and a later `free` of it succeeds.
    pub fn realloc(
        &mut self,
        base: Addr,
        new_size: u64,
    ) -> Result<(Allocation, FreeOutcome), ErrorReport> {
        let old = match self.objects.live_at_base(base) {
            Some(o) if o.region == Region::Heap => o.clone(),
            Some(o) => return Err(ErrorReport::new(ErrorKind::InvalidFree, base, o.size)),
            None => {
                // Reuse free()'s classification for the error cases.
                return Err(self
                    .free(base)
                    .err()
                    .unwrap_or_else(|| ErrorReport::new(ErrorKind::Wild, base, 0)));
            }
        };
        let new = self
            .alloc(new_size, Region::Heap)
            .map_err(|_| ErrorReport::new(ErrorKind::Unknown, base, new_size))?;
        let copy_len = old.size.min(new_size);
        if copy_len > 0 {
            self.space
                .copy(new.base, old.base, copy_len)
                .expect("both objects are mapped");
        }
        let outcome = self
            .free(base)
            .expect("old object verified live at its base");
        Ok((new, outcome))
    }

    /// Enters a stack frame.
    pub fn push_frame(&mut self) {
        self.stack.push_frame();
    }

    /// Leaves the current stack frame, returning the objects whose slots
    /// died so the sanitizer can poison them as unaddressable.
    pub fn pop_frame(&mut self) -> Vec<ObjectInfo> {
        let mut dead = Vec::new();
        for (block, _) in self.stack.pop_frame() {
            let id = self
                .stack_blocks
                .remove(&block.raw())
                .expect("stack block without object");
            self.objects.mark_quarantined(id);
            dead.push(self.objects.mark_recycled(id));
        }
        dead
    }

    /// Bytes currently held in quarantine.
    pub fn quarantined_bytes(&self) -> u64 {
        self.quarantine.used_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::new(RuntimeConfig::small())
    }

    #[test]
    fn layout_is_disjoint_and_aligned() {
        let w = world();
        assert!(w.heap.lo() >= w.space.lo());
        assert!(w.stack.sp() <= w.space.hi());
        assert!(w.heap.lo().is_segment_aligned());
    }

    #[test]
    fn heap_alloc_has_redzones_registered() {
        let mut w = world();
        let a = w.alloc(100, Region::Heap).unwrap();
        let info = w.objects.get(a.id).unwrap().clone();
        assert_eq!(info.base - info.block_start, 16);
        assert_eq!(info.block_len, 16 + 104 + 16); // 100 rounds to 104
        assert!(a.base.is_segment_aligned());
    }

    #[test]
    fn zero_redzone_layout() {
        let mut w = World::new(RuntimeConfig::small().to_builder().redzone(0).build());
        let a = w.alloc(32, Region::Heap).unwrap();
        let info = w.objects.get(a.id).unwrap();
        assert_eq!(info.base, info.block_start);
        assert_eq!(info.block_len, 32);
    }

    #[test]
    fn two_allocations_never_share_a_segment() {
        let mut w = World::new(RuntimeConfig::small().to_builder().redzone(0).build());
        let a = w.alloc(1, Region::Heap).unwrap();
        let b = w.alloc(1, Region::Heap).unwrap();
        assert_ne!(a.base.segment(), b.base.segment());
    }

    #[test]
    fn free_quarantines_then_recycles() {
        let mut w = World::new(
            RuntimeConfig::small()
                .to_builder()
                .quarantine_cap(64)
                .build(),
        );
        let a = w.alloc(8, Region::Heap).unwrap();
        let out = w.free(a.base).unwrap();
        assert_eq!(out.freed.id, a.id);
        assert!(out.recycled.is_empty());
        assert!(w.quarantined_bytes() > 0);
        // Next frees push the first out of the 64-byte quarantine.
        let b = w.alloc(8, Region::Heap).unwrap();
        let out = w.free(b.base).unwrap();
        assert_eq!(out.recycled.len(), 1);
        assert_eq!(out.recycled[0].id, a.id);
    }

    #[test]
    fn invalid_free_classifications() {
        let mut w = world();
        let a = w.alloc(64, Region::Heap).unwrap();
        // Interior pointer: CWE-761.
        let err = w.free(a.base + 8).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidFree);
        // Stack object.
        w.push_frame();
        let s = w.alloc(16, Region::Stack).unwrap();
        assert_eq!(w.free(s.base).unwrap_err().kind, ErrorKind::InvalidFree);
        // Double free.
        w.free(a.base).unwrap();
        assert_eq!(w.free(a.base).unwrap_err().kind, ErrorKind::DoubleFree);
        // Wild free.
        assert_eq!(w.free(Addr::new(0x100)).unwrap_err().kind, ErrorKind::Wild);
    }

    #[test]
    fn frame_pop_kills_stack_objects() {
        let mut w = world();
        w.push_frame();
        let a = w.alloc(32, Region::Stack).unwrap();
        let b = w.alloc(32, Region::Stack).unwrap();
        let dead = w.pop_frame();
        assert_eq!(dead.len(), 2);
        assert!(dead.iter().any(|o| o.id == a.id));
        assert!(dead.iter().any(|o| o.id == b.id));
        assert!(!w.objects.valid_access(a.base, 1));
        assert!(!w.objects.valid_access(b.base, 1));
    }

    #[test]
    fn globals_bump_and_exhaust() {
        let mut w = World::new(RuntimeConfig::small().to_builder().global_size(256).build());
        let g1 = w.alloc(32, Region::Global).unwrap();
        let g2 = w.alloc(32, Region::Global).unwrap();
        assert!(g2.base > g1.base);
        assert!(w.alloc(1 << 12, Region::Global).is_err());
    }

    #[test]
    fn quarantine_delays_reuse() {
        let mut w = World::new(
            RuntimeConfig::small()
                .to_builder()
                .quarantine_cap(1 << 16)
                .build(),
        );
        let a = w.alloc(8, Region::Heap).unwrap();
        w.free(a.base).unwrap();
        let b = w.alloc(8, Region::Heap).unwrap();
        assert_ne!(a.base, b.base, "quarantine must delay address reuse");
    }

    #[test]
    fn alloc_reserved_records_requested_size_and_reserved_block() {
        let mut w = world();
        let a = w.alloc_reserved(100, 128, Region::Heap).unwrap();
        let info = w.objects().get(a.id).unwrap();
        assert_eq!(info.size, 100);
        assert_eq!(info.block_len, 128);
        assert_eq!(info.base, info.block_start, "no redzones in this path");
        // Ground truth still uses the requested size.
        assert!(w.objects().valid_access(a.base, 100));
        assert!(!w.objects().valid_access(a.base, 101));
    }

    #[test]
    #[should_panic(expected = "reservation smaller")]
    fn alloc_reserved_rejects_short_reservation() {
        let mut w = world();
        let _ = w.alloc_reserved(100, 64, Region::Heap);
    }

    #[test]
    fn realloc_moves_data_and_classifies_errors() {
        let mut w = world();
        let a = w.alloc(32, Region::Heap).unwrap();
        w.space_mut().write_u64(a.base, 0xabcd).unwrap();
        let (b, outcome) = w.realloc(a.base, 64).unwrap();
        assert_eq!(outcome.freed.id, a.id);
        assert_eq!(w.space().read_u64(b.base).unwrap(), 0xabcd);
        assert!(w.objects().valid_access(b.base, 64));
        assert!(!w.objects().valid_access(a.base, 1));
        // Error paths.
        assert_eq!(
            w.realloc(b.base + 8, 16).unwrap_err().kind,
            ErrorKind::InvalidFree
        );
        w.push_frame();
        let s = w.alloc(16, Region::Stack).unwrap();
        assert_eq!(
            w.realloc(s.base, 32).unwrap_err().kind,
            ErrorKind::InvalidFree
        );
        w.free(b.base).unwrap();
        assert_eq!(
            w.realloc(b.base, 16).unwrap_err().kind,
            ErrorKind::DoubleFree
        );
        assert_eq!(
            w.realloc(Addr::new(0x10), 16).unwrap_err().kind,
            ErrorKind::Wild
        );
    }

    #[test]
    fn realloc_allocation_failure_leaves_old_object_live() {
        let mut w = world();
        let a = w.alloc(32, Region::Heap).unwrap();
        w.space_mut().write_u64(a.base, 0xfeed).unwrap();
        let too_big = w.config().heap_size + 1;
        let err = w.realloc(a.base, too_big).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Unknown);
        assert_eq!(err.addr, a.base);
        assert_eq!(w.space().read_u64(a.base).unwrap(), 0xfeed);
        assert!(w.objects().valid_access(a.base, 32));
        assert_eq!(w.quarantined_bytes(), 0, "nothing was freed");
        let out = w.free(a.base).unwrap();
        assert_eq!(out.freed.id, a.id);
    }

    #[test]
    fn realloc_shrink_copies_prefix_only() {
        let mut w = world();
        let a = w.alloc(64, Region::Heap).unwrap();
        for i in 0..8u64 {
            w.space_mut().write_u64(a.base + i * 8, i + 1).unwrap();
        }
        let (b, _) = w.realloc(a.base, 24).unwrap();
        for i in 0..3u64 {
            assert_eq!(w.space().read_u64(b.base + i * 8).unwrap(), i + 1);
        }
        assert_eq!(w.objects().get(b.id).unwrap().size, 24);
    }

    #[test]
    fn zero_quarantine_reuses_immediately() {
        let mut w = World::new(
            RuntimeConfig::small()
                .to_builder()
                .quarantine_cap(0)
                .build(),
        );
        let a = w.alloc(8, Region::Heap).unwrap();
        let out = w.free(a.base).unwrap();
        assert_eq!(out.recycled.len(), 1);
        let b = w.alloc(8, Region::Heap).unwrap();
        assert_eq!(a.base, b.base, "first fit reuses the hole immediately");
    }
}
