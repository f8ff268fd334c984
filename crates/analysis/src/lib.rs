#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! Static analyses and the instrumentation planner.
//!
//! Reproduces the compilation phase of GiantSan (§4.4): given a mini-IR
//! program and a [`ToolProfile`] describing a sanitizer's capabilities, the
//! planner produces a [`giantsan_ir::CheckPlan`] that the interpreter
//! executes. The analyses are the four of the paper's Table 1:
//!
//! | Analysis | Module | Effect |
//! |---|---|---|
//! | constant propagation | [`affine::const_eval`] | must-alias merging of constant-offset checks |
//! | predefined semantics | (interpreter) | `memset`/`memcpy` checked as one region |
//! | loop bound analysis (SCEV) | [`affine::decompose`] | check-in-loop promotion |
//! | must-alias analysis | [`analyze`] | aliased check elimination |
//!
//! plus history-cache assignment (§4.3) for whatever promotion cannot cover.
//!
//! The planner is organised as a pass pipeline (see [`pipeline`]): each
//! analysis above is a discrete pass over a shared context, profiles are
//! declarative [`PassSet`]s, and every site records which pass decided it
//! ([`Provenance`]) along with per-pass [`PassStats`].
//!
//! # Example
//!
//! ```
//! use giantsan_analysis::{analyze, ToolProfile};
//! use giantsan_ir::{Expr, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new("loop");
//! let n = b.input(0);
//! let buf = b.alloc_heap(Expr::input(0) * 8);
//! b.for_loop(0i64, n, |b, i| {
//!     b.store(buf, Expr::var(i) * 8, 8, Expr::var(i));
//! });
//! let prog = b.build();
//!
//! // GiantSan promotes the N per-iteration checks into one CI(buf, buf+8N).
//! let analysis = analyze(&prog, &ToolProfile::giantsan());
//! assert_eq!(analysis.plan.loops.len(), 1);
//! ```

pub mod affine;
mod passes;
pub mod pipeline;
mod planner;
mod profile;

pub use pipeline::{PassId, PassSet, PassStats, Provenance};
pub use planner::{analyze, analyze_recorded, Analysis, SiteFate};
pub use profile::ToolProfile;
