#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each artefact is one [`Study`]: its cells, its per-cell payload, and a
//! render pass that folds the records into the table. The CLI, campaigns,
//! the service and the tests all run that one computation.
//!
//! | Paper artefact | Study | CLI |
//! |---|---|---|
//! | Table 2 (SPEC overhead + ablation) | [`experiments::table2::Table2Entry`] | `repro table2` |
//! | Figure 10 (check breakdown) | [`experiments::fig10::Fig10Entry`] | `repro fig10` |
//! | Table 3 (Juliet detection) | [`experiments::table3::Table3Entry`] | `repro table3` |
//! | Table 4 (CVE detection) | [`experiments::table4::Table4Entry`] | `repro table4` |
//! | Table 5 (Magma redzones) | [`experiments::table5::Table5Entry`] | `repro table5` |
//! | Figure 11 (traversals) | [`experiments::fig11::Fig11Entry`] | `repro fig11` |
//! | Fault-injection campaign | [`experiments::fault_study::FaultsEntry`] | `repro faults` |
//! | Telemetry trace (JSONL + Chrome + Prometheus) | [`experiments::trace::TraceEntry`] | `repro trace` |
//!
//! Timing experiments report the analytic cost model ([`CostModel`],
//! paper-style overhead percentages); wall-clock time is measured by the
//! `wallbench/` benchmark.
//!
//! # Example
//!
//! ```no_run
//! use giantsan_harness::experiments::table2::{Table2, Table2Entry};
//! use giantsan_harness::{BatchRunner, Campaign, StudyOpts};
//!
//! let records = Campaign::new(&Table2Entry, StudyOpts::default())
//!     .unwrap()
//!     .run_all(&BatchRunner::default());
//! println!("{}", Table2::from_records(&records).render());
//! ```

pub mod batch;
pub mod campaign;
pub mod cli;
pub mod cost;
pub mod csv;
pub mod experiments;
pub mod faults;
pub mod json;
pub mod matrix;
pub mod serve;
pub mod session;
pub mod study;
mod table;
mod tool;

pub use batch::{
    BatchOutcome, BatchRunner, BatchSpan, BatchTrace, CellFailure, CellSpan, FailureSummary,
    TraceSink,
};
pub use campaign::{Campaign, CampaignError, ResumeStats, ShardSpec};
pub use cli::CliOpts;
pub use cost::{geomean, CostModel};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultySanitizer};
pub use session::{SessionSpec, ToolBuilder};
pub use study::{Record, Study, StudyOpts, StudyOutput, StudyRegistry};
pub use table::{pct, TextTable};
pub use tool::{run_planned, run_tool, RunOutcome, Tool};
