#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! Simulated allocator runtime and the sanitizer API.
//!
//! The GiantSan paper builds on ASan's runtime support library: a hooked
//! allocator that pads objects with *redzones*, delays reuse through a
//! *quarantine*, keeps everything 8-byte aligned, and exposes the events a
//! sanitizer needs to maintain its shadow metadata. This crate implements
//! that substrate for the simulated address space of `giantsan-shadow`:
//!
//! * [`SimHeap`] — a first-fit free-list heap with configurable redzones;
//! * [`Quarantine`] — a FIFO byte-capped quarantine (temporal-error defence);
//! * [`StackSim`] — simulated stack frames with per-slot redzones;
//! * [`ObjectTable`] — ground-truth object bounds used as an oracle when
//!   counting false negatives/positives (a luxury real sanitizers lack);
//! * [`World`] — the bundle of space + heap + stack + table a sanitizer runs in;
//! * [`ShadowedWorld`] — a world and its shadow, poisoned through the one
//!   lifecycle GiantSan and ASan share over their [`ShadowCodes`];
//! * [`Sanitizer`] — the trait every runtime (GiantSan, ASan, LFP, and the
//!   native no-op baseline) implements; ASan-- runs ASan's;
//! * [`Counters`] — the metadata-loading / check statistics behind the
//!   paper's ablation study (Figure 10).
//!
//! # Example
//!
//! ```
//! use giantsan_runtime::{AccessKind, NullSanitizer, RuntimeConfig, Region, Sanitizer};
//!
//! let mut native = NullSanitizer::new(RuntimeConfig::default());
//! let a = native.alloc(100, Region::Heap).unwrap();
//! // Native never reports.
//! assert!(native.check_access(a.base, 8, AccessKind::Read).is_ok());
//! native.free(a.base).unwrap();
//! ```

mod config;
mod counters;
mod heap;
mod object;
mod quarantine;
mod recovery;
mod report;
mod sanitizer;
mod shadowed;
mod stack;
mod world;

pub use config::{HeapBackend, RuntimeConfig, RuntimeConfigBuilder};
pub use counters::Counters;
pub use heap::{HeapError, SimHeap};
pub use object::{ObjectId, ObjectInfo, ObjectState, ObjectTable};
pub use quarantine::{Evictions, Quarantine};
pub use recovery::{
    Admission, FaultEvent, FaultKind, MetadataFault, RecoveryPolicy, RecoveryState,
    MAX_REPORTS_PER_KIND, MAX_REPORTS_PER_SITE,
};
pub use report::{AccessKind, CheckResult, ErrorKind, ErrorReport};
pub use sanitizer::{CacheSlot, NullSanitizer, Sanitizer};
pub use shadowed::{ShadowCodes, ShadowedWorld};
pub use stack::StackSim;
pub use world::{Allocation, FreeOutcome, Region, World};
