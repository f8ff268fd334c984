#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! Mini-IR and interpreter: the compiler/execution substrate standing in for
//! LLVM in the GiantSan reproduction.
//!
//! The paper implements GiantSan as an LLVM-12 instrumentation pass plus a
//! runtime library. The reproduction's calibration notes flag LLVM pass
//! development as the awkward dependency, so this crate substitutes a small
//! structured IR that exposes exactly the facts the paper's static analyses
//! consume (Table 1): constant offsets, must-aliased base pointers, affine
//! loop indexes with knowable (or deliberately *opaque*) bounds, and the
//! `memset`/`memcpy` intrinsics — plus an interpreter that executes programs
//! against any [`giantsan_runtime::Sanitizer`] under a [`CheckPlan`].
//!
//! * [`Expr`], [`Stmt`], [`Program`] — the IR itself;
//! * [`ProgramBuilder`] — fluent construction;
//! * [`CheckPlan`], [`SiteAction`], [`LoopPlan`] — instrumentation as data
//!   (Figure 8c/9 of the paper);
//! * [`run`] — the interpreter: real loads/stores in the simulated space,
//!   checks per plan, reports collected, crashes modelled as faults.
//!
//! # Example
//!
//! ```
//! use giantsan_ir::{CheckPlan, ExecConfig, Expr, ProgramBuilder, run};
//! use giantsan_core::GiantSan;
//! use giantsan_runtime::RuntimeConfig;
//!
//! // for i in 0..N { buf[i] = i } with an off-by-one on the last round.
//! let mut b = ProgramBuilder::new("off-by-one");
//! let n = b.input(0);
//! let buf = b.alloc_heap(Expr::input(0) * 8);
//! b.for_loop(0i64, n + 1, |b, i| {
//!     b.store(buf, Expr::var(i) * 8, 8, Expr::var(i));
//! });
//! let prog = b.build();
//!
//! let mut san = GiantSan::new(RuntimeConfig::small());
//! let result = run(
//!     &prog,
//!     &[16],
//!     &mut san,
//!     &CheckPlan::all_direct(&prog),
//!     &ExecConfig::default(),
//! );
//! assert!(result.detected());
//! ```

mod builder;
mod expr;
mod interp;
mod lower;
mod plan;
mod program;
pub mod watchdog;

pub use builder::ProgramBuilder;
pub use expr::{Expr, VarId};
pub use interp::{run, run_with, ExecConfig, ExecResult, Termination};
pub use plan::{CacheId, CheckPlan, LoopPlan, PreCheck, SiteAction};
pub use program::{LoopId, Program, PtrId, SiteId, Stmt};
