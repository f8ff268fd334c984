#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! Simulated address space and raw shadow memory substrate.
//!
//! The GiantSan paper ([Ling et al., ASPLOS 2024]) builds its sanitizer on a
//! process's real virtual memory plus a compact shadow mapping. This crate
//! provides the equivalent substrate for a *simulated* process: a flat
//! [`AddressSpace`] holding real bytes, and a [`ShadowMemory`] storing one
//! metadata byte per 8-byte *segment* of that space.
//!
//! The substitution preserves the behaviour that matters to the paper: shadow
//! encodings, poisoning, and region checks all operate on segment indexes and
//! shadow byte values, which are identical whether the underlying space is a
//! real `mmap` region or a `Vec<u8>`. Working in simulation additionally lets
//! the test suite use a ground-truth oracle (see `giantsan-runtime`).
//!
//! Unlike a real process image, a simulated space and its shadow are built
//! and dropped once per session. A space of 32 MiB or more (glibc maps every
//! allocation of that size fresh and unmaps it on free) keeps its bytes
//! mapped when it drops, and so does its shadow: the 64-byte lines the
//! session wrote are zeroed, and each buffer is parked for the next world of
//! the same size on the same thread. A shadow stores each code XOR its fill
//! byte, so a zeroed buffer is a fresh shadow under every encoding, and one
//! parked buffer serves GiantSan and ASan alike. A thread parks at most one
//! buffer per length, and a request of a length not parked frees them all.
//! Every space therefore starts all zero and every shadow all fill, as fresh
//! ones would.
//!
//! # Example
//!
//! ```
//! use giantsan_shadow::{AddressSpace, ShadowMemory, SEGMENT_SIZE};
//!
//! let space = AddressSpace::new(0x1_0000, 1 << 20);
//! let mut shadow = ShadowMemory::new(&space, 0xff);
//! let seg = shadow.segment_of(space.lo());
//! shadow.set(seg, 0);
//! assert_eq!(shadow.get(seg), 0);
//! assert_eq!(SEGMENT_SIZE, 8);
//! ```
//!
//! [Ling et al., ASPLOS 2024]: https://doi.org/10.1145/3620665.3640391

mod addr;
mod arena;
pub mod codes;
pub mod kernel;
mod scan;
mod shadow;
mod space;

pub use addr::{align_down, align_up, Addr, SEGMENT_SHIFT, SEGMENT_SIZE};
pub use kernel::Kernels;
pub use scan::SegmentView;
pub use shadow::{SegmentIndex, ShadowMemory};
pub use space::{AddressSpace, SpaceError};
