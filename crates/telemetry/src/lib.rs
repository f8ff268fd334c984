#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! End-to-end telemetry for the GiantSan reproduction.
//!
//! The stack can *count* what its sanitizers do ([`giantsan_runtime`
//! counters][counters]) but, before this crate, could not *see* it: which
//! check sites go slow-path, how fast the quasi-bound converges on a given
//! loop, where wall-clock goes inside a batch run. This crate provides the
//! recording abstraction and the export pipeline that answer those
//! questions continuously:
//!
//! * [`Recorder`] — the sink trait the interpreter, the sanitizers, the
//!   analysis pipeline, and the batch engine emit into. Its associated
//!   `ENABLED` const makes the disabled case **zero-cost**: every emission
//!   site is guarded by `if R::ENABLED`, so instantiating a caller at
//!   [`NoopRecorder`] (the default everywhere) compiles the telemetry code
//!   out entirely — determinism digests and timings are untouched.
//! * [`TraceRecorder`] — the enabled implementation: an in-memory event
//!   stream plus deterministic sampling [`Histograms`].
//! * [`Event`] / [`EventKind`] — the event taxonomy (checks with path and
//!   folded code, poison/unpoison spans, quasi-bound updates, allocator
//!   ops, recovery containments, analysis passes, run summaries).
//! * [`export`] — three exporters: JSON Lines ([`export::events_jsonl`]),
//!   Chrome `trace_event` format loadable in Perfetto / `chrome://tracing`
//!   ([`export::ChromeTrace`]), and a Prometheus-style text exposition
//!   ([`export::prometheus`]).
//! * [`span`] — causal spans with deterministic parent-linked ids
//!   connecting an HTTP request to the shard, cell, pass, and check
//!   hot-spot work it caused.
//! * [`flight`] — a bounded lock-free per-worker flight recorder whose
//!   ring contents can be dumped as a JSONL + Chrome-trace bundle when a
//!   cell wedges, panics, or a SIGUSR1 arrives.
//!
//! # The thread-invariance rule
//!
//! The **data plane** — every [`Event`] payload and every histogram sample —
//! is counter-driven: sequence numbers, site ids, byte counts, fold degrees.
//! **No wall-clock and no worker identity ever enter an event**, so the
//! sorted event stream and its FNV-1a digest are invariant under thread
//! count and scheduling order; `tests/determinism.rs` pins this. Wall-clock
//! and worker ids exist only in the **presentation plane** (the Chrome trace
//! of batch scheduling), which visualises real machine behaviour and is not
//! digested.
//!
//! [counters]: https://docs.rs/giantsan-runtime
//!
//! # Example
//!
//! ```
//! use giantsan_telemetry::{CheckPathKind, EventKind, Recorder, TraceRecorder};
//!
//! let mut rec = TraceRecorder::for_cell(0);
//! rec.record(EventKind::Check {
//!     site: 1,
//!     path: CheckPathKind::Slow,
//!     write: false,
//!     loads: 2,
//!     region: 1024,
//!     code: Some(giantsan_shadow::codes::folded(7)),
//! });
//! assert_eq!(rec.events().len(), 1);
//! assert_eq!(rec.histograms().region_sizes.count, 1);
//! assert_eq!(rec.histograms().site(1).unwrap()[CheckPathKind::Slow], 1);
//! ```

pub mod event;
pub mod export;
pub mod flight;
pub mod hist;
pub mod recorder;
pub mod span;

pub use event::{
    fnv1a, site_label, CheckPathKind, Event, EventKind, Fnv1a, LOOP_FINAL_SITE, PRE_CHECK_SITE,
};
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use hist::{Histograms, Log2Hist, PathMix};
pub use recorder::{NoopRecorder, Recorder, TraceRecorder};
pub use span::{span_id, Span, SpanKind, SpanSet};
