#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! Baseline sanitizers the GiantSan paper evaluates against.
//!
//! * [`Asan`] — AddressSanitizer: the classic low-density shadow encoding
//!   with instruction-level checks and a linear-time region guardian;
//! * [`Lfp`] — low-fat pointers: pointer-derived bounds over rounded-up size
//!   classes, cheap checks, rounding false negatives, weak stack coverage.
//!
//! Together with `giantsan_core::GiantSan` and
//! [`giantsan_runtime::NullSanitizer`] these are the runtimes behind the
//! five columns of the paper's Table 2. ASan-- (Zhang et al., USENIX
//! Security 2022) has no runtime of its own: it is [`Asan`] under the
//! elimination and promotion plan of `ToolProfile::asan_minus_minus` in
//! `giantsan-analysis`, the same way GiantSan's ablation variants are
//! `GiantSan` under a smaller pass set.
//!
//! # Example
//!
//! ```
//! use giantsan_baselines::{Asan, Lfp};
//! use giantsan_runtime::{AccessKind, Region, RuntimeConfig, Sanitizer};
//!
//! let mut asan = Asan::new(RuntimeConfig::small());
//! let a = asan.alloc(1024, Region::Heap).unwrap();
//! asan.check_region(a.base, a.base + 1024, AccessKind::Read).unwrap();
//! assert_eq!(asan.counters().shadow_loads, 128); // Θ(N) guardian
//!
//! let mut lfp = Lfp::new(RuntimeConfig::small());
//! let b = lfp.alloc(600, Region::Heap).unwrap();
//! // Rounded to the 768-byte class: a 100-byte overflow is invisible.
//! assert!(lfp.check_access(b.base + 700, 1, AccessKind::Read).is_ok());
//! ```

pub mod asan;
pub mod lfp;

pub use asan::Asan;
pub use lfp::Lfp;
