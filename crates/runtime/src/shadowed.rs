//! The lifecycle every shadow tool shares (GiantSan is ASan's runtime with a
//! new encoding and new checks, paper §1): redzone layout, quarantine and
//! eviction poisoning, realloc, frame pops, containment and bit flips,
//! written once over the encoding's [`ShadowCodes`].

use std::marker::PhantomData;

use giantsan_shadow::{align_up, Addr, SegmentIndex, ShadowMemory, SEGMENT_SIZE};

use crate::{
    Allocation, CheckResult, Counters, ErrorReport, FreeOutcome, HeapError, ObjectInfo,
    ObjectState, Region, RuntimeConfig, World,
};

/// The codes an encoding gives each lifecycle state, and how it writes a
/// live user region. Implemented by zero-sized marker types, so
/// [`ShadowedWorld`] is monomorphised per tool.
pub trait ShadowCodes {
    /// Heap left redzone.
    const HEAP_LEFT: u8;
    /// Heap right redzone.
    const HEAP_RIGHT: u8;
    /// Stack redzone, both sides of a slot.
    const STACK: u8;
    /// Global redzone, both sides of a global.
    const GLOBAL: u8;
    /// A freed block held in quarantine.
    const FREED: u8;
    /// Memory never handed out, or taken back: the shadow's fill.
    const UNALLOCATED: u8;
    /// A stack slot whose frame has popped.
    const DEAD_STACK: u8;

    /// Writes the user region of a `size`-byte object starting at segment
    /// `first` (nothing for `size == 0`) and returns the bytes written.
    fn poison_user(shadow: &mut ShadowMemory, first: SegmentIndex, size: u64) -> u64;
}

/// A [`World`], its shadow under encoding `E`, and the owning tool's
/// counters.
///
/// Every method that changes the world's objects poisons the shadow to
/// match and counts `allocs`, `stack_allocs`, `frees`, `shadow_stores`, and
/// `reports` for the allocator-API errors of `free` and `realloc`. The tool
/// reads the shadow and counts its checks through the public fields;
/// allocating through `world` directly would skip the poisoning.
#[derive(Debug)]
pub struct ShadowedWorld<E> {
    /// The world: objects, heap, stack and data.
    pub world: World,
    /// The shadow, filled with `E::UNALLOCATED`.
    pub shadow: ShadowMemory,
    /// The tool's counters.
    pub counters: Counters,
    codes: PhantomData<E>,
}

impl<E: ShadowCodes> ShadowedWorld<E> {
    /// Builds a world from `config` with every segment unallocated.
    pub fn new(config: RuntimeConfig) -> Self {
        let world = World::new(config);
        let shadow = ShadowMemory::new(world.space(), E::UNALLOCATED);
        ShadowedWorld {
            world,
            shadow,
            counters: Counters::default(),
            codes: PhantomData,
        }
    }

    /// The code covering `addr` (`None` outside the space); counts no load.
    #[inline]
    pub fn shadow_probe(&self, addr: Addr) -> Option<u8> {
        self.shadow.try_segment_of(addr).map(|s| self.shadow.get(s))
    }

    /// The code covering `addr` (unallocated outside the space); counts no
    /// load.
    #[inline]
    pub fn code_at(&self, addr: Addr) -> u8 {
        self.shadow_probe(addr).unwrap_or(E::UNALLOCATED)
    }

    /// Allocates an object and poisons its redzones and user region.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError`] when the arena is exhausted.
    pub fn alloc(&mut self, size: u64, region: Region) -> Result<Allocation, HeapError> {
        let a = self.world.alloc(size, region)?;
        self.counters.allocs += 1;
        if region == Region::Stack {
            self.counters.stack_allocs += 1;
        }
        self.poison_new(&a);
        Ok(a)
    }

    /// Frees the heap object at `base`: its block becomes freed, and the
    /// blocks the quarantine evicts become unallocated.
    ///
    /// # Errors
    ///
    /// Returns and counts [`World::free`]'s report.
    pub fn free(&mut self, base: Addr) -> CheckResult {
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

    /// Moves the heap object at `base` to a new `new_size`-byte block,
    /// poisoning the new block live and the old one freed.
    ///
    /// # Errors
    ///
    /// Returns and counts [`World::realloc`]'s report.
    pub fn realloc(&mut self, base: Addr, new_size: u64) -> Result<Allocation, ErrorReport> {
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

    /// Leaves the current stack frame, poisoning its slots as dead stack.
    pub fn pop_frame(&mut self) {
        for info in self.world.pop_frame() {
            self.counters.shadow_stores += poison_block(&mut self.shadow, &info, E::DEAD_STACK);
        }
    }

    /// Heals the shadow around `addr` from the object table, so one corrupt
    /// or stale code cannot cascade into follow-on reports: a live block is
    /// poisoned afresh, a dead one with the code its free, eviction or frame
    /// pop wrote, any other segment unallocated.
    pub fn contain(&mut self, addr: Addr) {
        let objects = self.world.objects();
        self.counters.shadow_stores += if let Some(info) = objects.live_block_containing(addr) {
            poison_object::<E>(&mut self.shadow, info)
        } else if let Some(info) = objects.dead_block_containing(addr) {
            let code = match (info.state, info.region) {
                (ObjectState::Recycled, Region::Stack) => E::DEAD_STACK,
                (ObjectState::Recycled, _) => E::UNALLOCATED,
                _ => E::FREED,
            };
            poison_block(&mut self.shadow, info, code)
        } else if let Some(seg) = self.shadow.try_segment_of(addr) {
            self.shadow.set(seg, E::UNALLOCATED);
            1
        } else {
            0
        };
    }

    /// Flips bit `bit & 7` of the code covering `addr`; `false` outside the
    /// shadowed space. Counts nothing: it models corruption.
    pub fn flip_bit(&mut self, addr: Addr, bit: u8) -> bool {
        let Some(seg) = self.shadow.try_segment_of(addr) else {
            return false;
        };
        let cur = self.shadow.get(seg);
        self.shadow.set(seg, cur ^ (1 << (bit & 7)));
        true
    }

    fn poison_new(&mut self, a: &Allocation) {
        let info = self
            .world
            .objects()
            .get(a.id)
            .expect("fresh allocation must be registered");
        self.counters.shadow_stores += poison_object::<E>(&mut self.shadow, info);
    }

    fn poison_freed(&mut self, outcome: &FreeOutcome) {
        self.counters.shadow_stores += poison_block(&mut self.shadow, &outcome.freed, E::FREED);
        for info in &outcome.recycled {
            self.counters.shadow_stores += poison_block(&mut self.shadow, info, E::UNALLOCATED);
        }
    }
}

/// Writes a live object's redzones and user region; returns the stores.
fn poison_object<E: ShadowCodes>(shadow: &mut ShadowMemory, info: &ObjectInfo) -> u64 {
    let (left, right) = match info.region {
        Region::Heap => (E::HEAP_LEFT, E::HEAP_RIGHT),
        Region::Stack => (E::STACK, E::STACK),
        Region::Global => (E::GLOBAL, E::GLOBAL),
    };
    let rz = info.base - info.block_start;
    let user_len = align_up(info.size.max(1), SEGMENT_SIZE);
    let first = shadow.segment_of(info.base);
    poison_range(shadow, info.block_start, rz, left)
        + E::poison_user(shadow, first, info.size)
        + poison_range(
            shadow,
            info.base + user_len,
            info.block_len - rz - user_len,
            right,
        )
}

/// Sets a whole block, redzones included, to `code`.
fn poison_block(shadow: &mut ShadowMemory, info: &ObjectInfo, code: u8) -> u64 {
    poison_range(shadow, info.block_start, info.block_len, code)
}

/// Sets the segments of the aligned range `[start, start + len)` to `code`.
fn poison_range(shadow: &mut ShadowMemory, start: Addr, len: u64, code: u8) -> u64 {
    if len == 0 {
        return 0;
    }
    let lo = shadow.segment_of(start);
    let hi = lo + len / SEGMENT_SIZE;
    shadow.set_range(lo, hi, code);
    hi - lo
}
