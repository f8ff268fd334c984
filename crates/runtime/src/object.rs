//! Ground-truth object table.
//!
//! Real sanitizers have no oracle: they infer validity from shadow metadata.
//! In simulation we additionally keep the *exact* requested bounds of every
//! object, which lets the harness count false negatives and false positives
//! precisely (the paper's Tables 3–5) and lets property tests compare each
//! tool's verdict with the truth.

use std::collections::BTreeMap;
use std::fmt;

use giantsan_shadow::Addr;

use crate::world::Region;

/// Unique identifier of an allocated object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Lifecycle state of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectState {
    /// Allocated and accessible.
    Live,
    /// Freed, memory still reserved (in quarantine or a dead stack frame).
    Quarantined,
    /// Freed and its memory returned for reuse.
    Recycled,
}

/// Everything the runtime knows about one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Unique id.
    pub id: ObjectId,
    /// First byte of the user region (8-byte aligned).
    pub base: Addr,
    /// Exact requested size in bytes (not rounded).
    pub size: u64,
    /// Memory region kind.
    pub region: Region,
    /// Start of the underlying block including redzones.
    pub block_start: Addr,
    /// Length of the underlying block including redzones.
    pub block_len: u64,
    /// Lifecycle state.
    pub state: ObjectState,
}

impl ObjectInfo {
    /// One past the last valid byte of the user region.
    pub fn end(&self) -> Addr {
        self.base + self.size
    }

    /// Returns `true` if `[addr, addr+len)` lies inside the user region.
    pub fn contains_range(&self, addr: Addr, len: u64) -> bool {
        addr >= self.base && addr.raw().saturating_add(len) <= self.end().raw()
    }
}

/// The ground-truth table of all objects ever allocated in a [`crate::World`].
///
/// # Example
///
/// ```
/// use giantsan_runtime::{NullSanitizer, Region, RuntimeConfig, Sanitizer};
///
/// let mut s = NullSanitizer::new(RuntimeConfig::small());
/// let a = s.alloc(40, Region::Heap).unwrap();
/// let table = s.world().objects();
/// assert!(table.valid_access(a.base, 40));
/// assert!(!table.valid_access(a.base, 41)); // one byte past the end
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectTable {
    /// Every object ever allocated, indexed by id: ids are handed out
    /// densely from 0 and an object is never removed.
    objects: Vec<ObjectInfo>,
    /// Live objects indexed by base address for range queries.
    live_by_base: BTreeMap<u64, ObjectId>,
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new live object and returns its id.
    pub fn insert(
        &mut self,
        base: Addr,
        size: u64,
        region: Region,
        block_start: Addr,
        block_len: u64,
    ) -> ObjectId {
        let id = ObjectId(self.objects.len() as u64);
        self.objects.push(ObjectInfo {
            id,
            base,
            size,
            region,
            block_start,
            block_len,
            state: ObjectState::Live,
        });
        self.live_by_base.insert(base.raw(), id);
        id
    }

    /// Looks up an object by id (live or dead).
    pub fn get(&self, id: ObjectId) -> Option<&ObjectInfo> {
        self.objects.get(usize::try_from(id.0).ok()?)
    }

    /// The object with id `id`, which this table handed out.
    fn info(&self, id: ObjectId) -> &ObjectInfo {
        &self.objects[id.0 as usize]
    }

    /// Finds the live object whose base is exactly `base`.
    pub fn live_at_base(&self, base: Addr) -> Option<&ObjectInfo> {
        self.live_by_base.get(&base.raw()).map(|&id| self.info(id))
    }

    /// Finds the live object containing `addr`, if any.
    pub fn live_containing(&self, addr: Addr) -> Option<&ObjectInfo> {
        let (_, id) = self.live_by_base.range(..=addr.raw()).next_back()?;
        let info = self.info(*id);
        info.contains_range(addr, 1).then_some(info)
    }

    /// Finds the live object whose *block* range (including redzones or
    /// class-slot padding) contains `addr`, if any. LFP-style tools use this
    /// to recover the slot a pointer belongs to.
    pub fn live_block_containing(&self, addr: Addr) -> Option<&ObjectInfo> {
        let in_block = |o: &ObjectInfo| {
            addr >= o.block_start && addr.raw() < o.block_start.raw() + o.block_len
        };
        if let Some((_, id)) = self.live_by_base.range(..=addr.raw()).next_back() {
            let o = self.info(*id);
            if in_block(o) {
                return Some(o);
            }
        }
        // The successor's block may begin before its base (left redzone).
        if let Some((_, id)) = self.live_by_base.range(addr.raw()..).next() {
            let o = self.info(*id);
            if in_block(o) {
                return Some(o);
            }
        }
        None
    }

    /// Finds the most recently allocated non-live object whose *block* range
    /// contains `addr` (for use-after-free classification): the one with
    /// the largest id, so the search runs from the newest object back.
    pub fn dead_block_containing(&self, addr: Addr) -> Option<&ObjectInfo> {
        self.objects.iter().rev().find(|o| {
            o.state != ObjectState::Live
                && addr >= o.block_start
                && addr.raw() < o.block_start.raw() + o.block_len
        })
    }

    /// Marks a live object freed-but-reserved. Returns the updated info.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown (a runtime-internal invariant violation).
    pub fn mark_quarantined(&mut self, id: ObjectId) -> ObjectInfo {
        let info = self
            .objects
            .get_mut(id.0 as usize)
            .expect("unknown object id");
        debug_assert_eq!(info.state, ObjectState::Live);
        info.state = ObjectState::Quarantined;
        self.live_by_base.remove(&info.base.raw());
        info.clone()
    }

    /// Marks a quarantined object's memory as recycled. Returns the updated
    /// info.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn mark_recycled(&mut self, id: ObjectId) -> ObjectInfo {
        let info = self
            .objects
            .get_mut(id.0 as usize)
            .expect("unknown object id");
        info.state = ObjectState::Recycled;
        info.clone()
    }

    /// Ground truth: is `[addr, addr+len)` entirely inside one live object?
    pub fn valid_access(&self, addr: Addr, len: u64) -> bool {
        match self.live_containing(addr) {
            Some(o) => o.contains_range(addr, len),
            None => false,
        }
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.live_by_base.len()
    }

    /// Total number of objects ever allocated.
    pub fn total_count(&self) -> usize {
        self.objects.len()
    }

    /// Iterates over live objects in base-address order.
    pub fn iter_live(&self) -> impl Iterator<Item = &ObjectInfo> + '_ {
        self.live_by_base.values().map(move |&id| self.info(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(base: u64, size: u64) -> (ObjectTable, ObjectId) {
        let mut t = ObjectTable::new();
        let id = t.insert(
            Addr::new(base),
            size,
            Region::Heap,
            Addr::new(base - 16),
            size + 32,
        );
        (t, id)
    }

    #[test]
    fn insert_and_lookup() {
        let (t, id) = table_with(0x1000, 40);
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.total_count(), 1);
        let info = t.get(id).unwrap();
        assert_eq!(info.size, 40);
        assert_eq!(info.end(), Addr::new(0x1028));
        assert_eq!(t.live_at_base(Addr::new(0x1000)).unwrap().id, id);
        assert!(t.live_at_base(Addr::new(0x1008)).is_none());
    }

    #[test]
    fn containment_queries() {
        let (t, _) = table_with(0x1000, 40);
        assert!(t.valid_access(Addr::new(0x1000), 40));
        assert!(t.valid_access(Addr::new(0x1020), 8));
        assert!(!t.valid_access(Addr::new(0x1000), 41));
        assert!(!t.valid_access(Addr::new(0x0fff), 1));
        assert!(!t.valid_access(Addr::new(0x1028), 1));
        assert!(t.live_containing(Addr::new(0x1027)).is_some());
        assert!(t.live_containing(Addr::new(0x1028)).is_none());
    }

    #[test]
    fn lifecycle_transitions() {
        let (mut t, id) = table_with(0x1000, 40);
        let q = t.mark_quarantined(id);
        assert_eq!(q.state, ObjectState::Quarantined);
        assert_eq!(t.live_count(), 0);
        assert!(!t.valid_access(Addr::new(0x1000), 1));
        // Dead-block classification finds the quarantined object, including
        // via its redzone.
        assert_eq!(t.dead_block_containing(Addr::new(0x0ff8)).unwrap().id, id);
        let r = t.mark_recycled(id);
        assert_eq!(r.state, ObjectState::Recycled);
        assert_eq!(t.dead_block_containing(Addr::new(0x1000)).unwrap().id, id);
    }

    #[test]
    fn dead_block_prefers_most_recent() {
        let mut t = ObjectTable::new();
        let a = t.insert(Addr::new(0x1000), 8, Region::Heap, Addr::new(0x0ff0), 48);
        t.mark_quarantined(a);
        t.mark_recycled(a);
        // Same block reused by a newer object, then freed again.
        let b = t.insert(Addr::new(0x1000), 8, Region::Heap, Addr::new(0x0ff0), 48);
        t.mark_quarantined(b);
        assert_eq!(t.dead_block_containing(Addr::new(0x1000)).unwrap().id, b);
    }

    #[test]
    fn iter_live_is_sorted() {
        let mut t = ObjectTable::new();
        t.insert(Addr::new(0x3000), 8, Region::Heap, Addr::new(0x3000), 8);
        t.insert(Addr::new(0x1000), 8, Region::Heap, Addr::new(0x1000), 8);
        t.insert(Addr::new(0x2000), 8, Region::Stack, Addr::new(0x2000), 8);
        let bases: Vec<_> = t.iter_live().map(|o| o.base.raw()).collect();
        assert_eq!(bases, vec![0x1000, 0x2000, 0x3000]);
    }

    #[test]
    fn dense_ids_track_ten_thousand_objects() {
        // 10K objects over 1,000 block slots in scrambled order; each insert
        // first frees the slot's live object, recycling every third.
        const SLOTS: u64 = 1000;
        let base_of = |slot: u64| 0x10_0000 + slot * 64;
        let mut t = ObjectTable::new();
        let mut live: BTreeMap<u64, ObjectId> = BTreeMap::new();
        let mut newest_dead: BTreeMap<u64, ObjectId> = BTreeMap::new();
        for i in 0..10_000u64 {
            let slot = (i * 7919) % SLOTS;
            let base = base_of(slot);
            if let Some(old) = live.remove(&base) {
                assert_eq!(t.mark_quarantined(old).state, ObjectState::Quarantined);
                if old.0 % 3 == 0 {
                    assert_eq!(t.mark_recycled(old).state, ObjectState::Recycled);
                }
                newest_dead.insert(base, old);
            }
            let id = t.insert(
                Addr::new(base),
                8 + slot % 24,
                Region::Heap,
                Addr::new(base - 16),
                64,
            );
            assert_eq!(id, ObjectId(i));
            live.insert(base, id);
        }
        assert_eq!(t.total_count(), 10_000);
        assert_eq!(t.live_count(), live.len());
        let iterated: Vec<_> = t.iter_live().map(|o| (o.base.raw(), o.id)).collect();
        assert_eq!(iterated, live.into_iter().collect::<Vec<_>>());
        for i in [0u64, 1, 4_999, 9_999] {
            let o = t.get(ObjectId(i)).unwrap();
            assert_eq!(
                (o.id, o.base.raw()),
                (ObjectId(i), base_of((i * 7919) % SLOTS))
            );
        }
        assert!(t.get(ObjectId(10_000)).is_none());
        assert!(t.get(ObjectId(u64::MAX)).is_none());
        // Every slot has held ten objects; its newest dead one wins, also
        // when found through the left redzone.
        for (base, id) in newest_dead {
            assert_eq!(t.dead_block_containing(Addr::new(base)).unwrap().id, id);
            assert_eq!(
                t.dead_block_containing(Addr::new(base - 16)).unwrap().id,
                id
            );
        }
    }

    #[test]
    fn object_id_display() {
        assert_eq!(format!("{}", ObjectId(3)), "obj#3");
    }
}
