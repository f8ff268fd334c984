#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! The paper's primary contribution: **segment folding**.
//!
//! GiantSan (Ling et al., ASPLOS 2024) raises the *protection density* of
//! location-based sanitizers — the number of bytes one shadow byte can
//! safeguard — by summarising runs of fully-addressable 8-byte segments into
//! *folded segments*: a shadow code `64 − x` promises that the next `2^x`
//! segments contain no non-addressable byte. On top of this encoding the
//! crate implements:
//!
//! * [`poison`] — the linear-time binary-folding poisoner (Figure 5 pattern);
//! * [`check`] — Algorithm 1: region checks of arbitrary size in O(1);
//! * [`GiantSan`] — the full sanitizer: anchor-based checks (§4.4.1) and the
//!   quasi-bound history cache (§4.3) layered on the encoding, implementing
//!   [`giantsan_runtime::Sanitizer`].
//!
//! # Example: the headline effect
//!
//! ```
//! use giantsan_core::GiantSan;
//! use giantsan_runtime::{AccessKind, Region, RuntimeConfig, Sanitizer};
//!
//! let mut san = GiantSan::new(RuntimeConfig::small());
//! let kb = san.alloc(1024, Region::Heap).unwrap();
//!
//! // Checking 1 KiB takes ONE shadow load (ASan needs 128).
//! san.check_region(kb.base, kb.base + 1024, AccessKind::Write).unwrap();
//! assert_eq!(san.counters().shadow_loads, 1);
//! ```

pub mod check;
pub mod encoding;
pub mod poison;
mod report;
mod sanitizer;
pub mod validate;

pub use check::{
    check_region, check_region_aligned, check_region_bytewise, check_region_bytewise_reference,
    check_small,
};
pub use check::{BadSpot, CheckOutcome, CheckPath};
pub use report::{describe_code, render_report};
pub use sanitizer::{classify, GiantSan, GiantSanOptions};
pub use validate::{validate_shadow, ShadowInconsistency};
