//! The parallel batch-execution engine.
//!
//! Every experiment in this harness is a *cell matrix*: a list of
//! independent (tool × workload × size × seed) runs whose results are folded
//! into one table. [`BatchRunner`] executes such a matrix across a scoped
//! worker pool with dynamic scheduling — workers steal the next unclaimed
//! cell from a shared atomic cursor, so a straggler cell never idles the
//! rest of the pool — and reassembles results **by cell index**, which makes
//! the merged output independent of thread count and completion order.
//!
//! Determinism contract: for a pure `job`, `runner.map(items, job)` returns
//! byte-for-byte the same `Vec` for every thread count, including 1. The
//! differential test `tests/determinism.rs` and the CI smoke job enforce
//! this end-to-end on the experiment CSVs.
//!
//! Fault tolerance: each cell runs once, inside `catch_unwind`, so a
//! panicking cell is *isolated* — it is quarantined as a [`CellFailure`]
//! while every other cell completes normally. Cells are pure functions of
//! their inputs, so running a panicked cell again would only panic again.
//! [`BatchRunner::try_map`] reports partial results plus a
//! [`FailureSummary`]; [`BatchRunner::map`] keeps the infallible signature
//! by panicking with the summary *after* the whole matrix has drained.
//!
//! Observation: an attached [`FlightRecorder`] (see
//! [`BatchRunner::with_flight`]) is the one record of scheduling — which
//! worker ran which cell when, and which shard each cell belonged to.
//!
//! # Example
//!
//! ```
//! use giantsan_harness::BatchRunner;
//! let runner = BatchRunner::new(4);
//! let squares = runner.map(&[1u64, 2, 3, 4, 5], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use giantsan_telemetry::{span_id, FlightEventKind, FlightRecorder, SpanKind};

/// Flight-recorder attachment (see [`BatchRunner::with_flight`]): the shared
/// recorder, the causal span the batch's cells hang under, and the global
/// index of the batch's first cell (shard-relative batches record global
/// cell indices so dumps correlate with campaign labels).
#[derive(Debug, Clone)]
struct FlightPlan {
    recorder: Arc<FlightRecorder>,
    parent_span: u64,
    index_base: u64,
}

impl FlightPlan {
    fn cell_span(&self, i: usize) -> (u64, u64) {
        let cell = self.index_base + i as u64;
        (span_id(self.parent_span, SpanKind::Cell, cell), cell)
    }
}

/// One cell that panicked and was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Index of the failed cell in the input matrix.
    pub index: usize,
    /// The panic message.
    pub message: String,
    /// `true` when the cell was cancelled by the per-cell watchdog (see
    /// [`BatchRunner::with_cell_deadline`]) rather than crashing.
    pub timed_out: bool,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.timed_out {
            return write!(f, "cell {} exceeded its deadline", self.index);
        }
        write!(f, "cell {} panicked: {}", self.index, self.message)
    }
}

/// Failure record of one [`BatchRunner::try_map`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSummary {
    /// Quarantined cells, sorted by cell index.
    pub failures: Vec<CellFailure>,
}

impl FailureSummary {
    /// `true` when every cell succeeded.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of quarantined cells.
    pub fn quarantined(&self) -> usize {
        self.failures.len()
    }
}

impl fmt::Display for FailureSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("all cells succeeded");
        }
        write!(
            f,
            "{} cell(s) quarantined; first: {}",
            self.failures.len(),
            self.failures[0]
        )
    }
}

/// Partial results plus the failure record of a fault-isolated batch run.
#[derive(Debug)]
pub struct BatchOutcome<R> {
    /// Per-cell results in item order; `None` marks a quarantined cell.
    pub results: Vec<Option<R>>,
    /// What failed.
    pub summary: FailureSummary,
}

/// A worker pool that executes experiment cells with deterministic merging.
///
/// The pool is scoped: threads are spawned per map call and joined before it
/// returns, so borrowed cell data needs no `'static` lifetime. Panicking
/// cells do **not** tear down the pool: each cell runs once inside
/// `catch_unwind` and a panicking one is quarantined into a
/// [`FailureSummary`], while the remaining cells complete and merge
/// normally.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    threads: usize,
    cell_deadline: Option<Duration>,
    flight: Option<FlightPlan>,
}

impl PartialEq for BatchRunner {
    /// Two runners are equal when they schedule identically (same worker
    /// count); an attached flight recorder observes scheduling without
    /// changing it, so it does not participate in equality.
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
    }
}

impl Eq for BatchRunner {}

impl BatchRunner {
    /// A runner with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
            cell_deadline: None,
            flight: None,
        }
    }

    /// Arms the per-cell watchdog: every cell gets at most `budget` of wall
    /// clock. A cell that overruns is cancelled at its next cooperative poll
    /// point (`giantsan_ir::watchdog::poll` — the interpreter polls every
    /// [`giantsan_ir::watchdog::POLL_INTERVAL`] steps) and quarantined as a
    /// timed-out [`CellFailure`], so a runaway cell costs one deadline and
    /// never wedges the pool.
    ///
    /// Cancellation is cooperative: a cell that never reaches a poll point
    /// (a tight loop outside the interpreter) is not interruptible. Service
    /// submissions always execute through the interpreter, which is the
    /// runaway surface this protects.
    #[must_use]
    pub fn with_cell_deadline(mut self, budget: Duration) -> Self {
        self.cell_deadline = Some(budget);
        self
    }

    /// Attaches a [`FlightRecorder`]: every subsequent `map`/`try_map` call
    /// records cell lifecycle events (start, end, timeout, quarantine) into
    /// the bounded rings, attributed to the causal span
    /// `span_id(parent_span, SpanKind::Cell, index_base + i)`. `index_base`
    /// is the global index of the batch's first cell, so shard-relative
    /// batches record campaign-global cell indices (see
    /// [`BatchRunner::in_shard`]). Recording is lock-free and
    /// allocation-free; it is observation-only and never changes results.
    #[must_use]
    pub fn with_flight(
        mut self,
        recorder: Arc<FlightRecorder>,
        parent_span: u64,
        index_base: u64,
    ) -> Self {
        self.flight = Some(FlightPlan {
            recorder,
            parent_span,
            index_base,
        });
        self
    }

    /// Runs `body` as shard `shard` of a campaign, covering the global
    /// cells `range`. With a flight recorder attached, a `ShardStart` /
    /// `ShardEnd` pair brackets `body` on ring 0 under the span
    /// `span_id(parent_span, SpanKind::Shard, shard)`, and `body` gets a
    /// runner whose cells hang under that span with global indices from
    /// `range.start`. Without one, `body` gets this runner unchanged.
    pub fn in_shard<R>(
        &self,
        shard: usize,
        range: Range<usize>,
        body: impl FnOnce(&BatchRunner) -> R,
    ) -> R {
        let Some(plan) = &self.flight else {
            return body(self);
        };
        let fr = &plan.recorder;
        let span = span_id(plan.parent_span, SpanKind::Shard, shard as u64);
        let (shard, cells) = (shard as u64, range.len() as u64);
        fr.record(0, FlightEventKind::ShardStart, span, shard, cells);
        let runner =
            self.clone()
                .with_flight(Arc::clone(fr), span, plan.index_base + range.start as u64);
        let out = body(&runner);
        fr.record(0, FlightEventKind::ShardEnd, span, shard, cells);
        out
    }

    /// A single-threaded runner: cells run inline, in order.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The host's available parallelism (1 when it cannot be queried).
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Number of workers this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `job` over every item and returns the results in item order.
    ///
    /// `job` receives the cell index alongside the item (seed derivation and
    /// labelling often need it). With one worker — or one item — everything
    /// runs inline on the caller's thread with zero scheduling overhead,
    /// which is also the reference ordering the parallel path must match.
    ///
    /// # Panics
    ///
    /// If any cell panics, this panics with the [`FailureSummary`] — but
    /// only after every other cell has completed. Callers that want the
    /// partial results instead use [`BatchRunner::try_map`].
    pub fn map<T, R, F>(&self, items: &[T], job: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let outcome = self.try_map(items, job);
        if !outcome.summary.is_clean() {
            panic!("batch failed: {}", outcome.summary);
        }
        outcome
            .results
            .into_iter()
            .map(|r| r.expect("clean batch must have every result"))
            .collect()
    }

    /// Fault-isolated variant of [`BatchRunner::map`]: never panics because
    /// of a failing cell. Each cell runs once; a cell that panics is
    /// quarantined (its slot is `None`) and recorded in the summary, while
    /// all other cells run to completion.
    ///
    /// The summary is deterministic for a deterministic `job`: failures are
    /// sorted by cell index.
    pub fn try_map<T, R, F>(&self, items: &[T], job: F) -> BatchOutcome<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let deadline = self.cell_deadline;
        let flight = self.flight.as_ref();
        let run_cell = |i: usize, worker: usize, item: &T| -> Result<R, CellFailure> {
            // (recorder, cell span id, global cell index) when a flight
            // recorder is attached; the span links the ring dump back to
            // the causal chain in `spans.jsonl`.
            let black_box = flight.map(|f| {
                let (span, cell) = f.cell_span(i);
                (&*f.recorder, span, cell)
            });
            let flight_mark = |kind: FlightEventKind| {
                if let Some((fr, span, cell)) = black_box {
                    fr.record(worker, kind, span, cell, 0);
                }
            };
            flight_mark(FlightEventKind::CellStart);
            let cell = || {
                // The guard disarms the watchdog on every exit path, the
                // timeout panic included.
                let _watch = deadline.map(giantsan_ir::watchdog::arm);
                job(i, item)
            };
            match std::panic::catch_unwind(AssertUnwindSafe(cell)) {
                Ok(r) => {
                    flight_mark(FlightEventKind::CellEnd);
                    Ok(r)
                }
                Err(payload) => {
                    let timed_out = giantsan_ir::watchdog::is_timeout_payload(payload.as_ref());
                    if timed_out {
                        flight_mark(FlightEventKind::Timeout);
                    }
                    flight_mark(FlightEventKind::Quarantine);
                    Err(CellFailure {
                        index: i,
                        message: panic_message(payload.as_ref()),
                        timed_out,
                    })
                }
            }
        };

        let cells: Vec<CellRecord<R>> = if self.threads == 1 || n <= 1 {
            items
                .iter()
                .enumerate()
                .map(|(i, t)| (i, run_cell(i, 0, t)))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let workers = self.threads.min(n);
            let shards: Vec<Vec<CellRecord<R>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let run_cell = &run_cell;
                        let cursor = &cursor;
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            loop {
                                // Work stealing: claim the next cell.
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(item) = items.get(i) else { break };
                                local.push((i, run_cell(i, w, item)));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        // Worker bodies never unwind (cells are caught),
                        // so a join error is a harness bug.
                        h.join().expect("batch worker must not panic")
                    })
                    .collect()
            });
            shards.into_iter().flatten().collect()
        };

        // Deterministic merge: place every result at its cell index, so the
        // output order owes nothing to scheduling.
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut failures: Vec<CellFailure> = Vec::new();
        for (i, r) in cells {
            match r {
                Ok(v) => {
                    debug_assert!(results[i].is_none(), "cell {i} executed twice");
                    results[i] = Some(v);
                }
                Err(fail) => failures.push(fail),
            }
        }
        failures.sort_by_key(|f| f.index);
        BatchOutcome {
            results,
            summary: FailureSummary { failures },
        }
    }
}

/// One executed cell: its index and result.
type CellRecord<R> = (usize, Result<R, CellFailure>);

/// Renders a caught panic payload (the `&str`/`String` cases panics almost
/// always carry).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Default for BatchRunner {
    /// A runner sized to the machine's available parallelism.
    fn default() -> Self {
        Self::new(Self::available_parallelism())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let reference = BatchRunner::serial().map(&items, |i, x| (i as u64) * 1000 + x);
        for threads in [2, 3, 4, 8, 64] {
            let got = BatchRunner::new(threads).map(&items, |i, x| (i as u64) * 1000 + x);
            assert_eq!(got, reference, "{threads} threads");
        }
    }

    #[test]
    fn empty_and_singleton_matrices() {
        let r = BatchRunner::new(8);
        assert_eq!(r.map(&[] as &[u64], |_, x| *x), Vec::<u64>::new());
        assert_eq!(r.map(&[42u64], |i, x| x + i as u64), vec![42]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(BatchRunner::new(0).threads(), 1);
        assert!(BatchRunner::default().threads() >= 1);
    }

    #[test]
    fn uneven_cell_costs_still_merge_deterministically() {
        // Cells with wildly different costs exercise the stealing path: the
        // long cell is claimed once and the rest drain around it.
        let items: Vec<u64> = (0..64).collect();
        let job = |_: usize, x: &u64| {
            let rounds = if *x == 0 { 200_000 } else { 100 };
            (0..rounds).fold(*x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        assert_eq!(
            BatchRunner::new(4).map(&items, job),
            BatchRunner::serial().map(&items, job)
        );
    }

    #[test]
    fn panicking_cell_is_quarantined_not_fatal() {
        for threads in [1, 2, 8] {
            let items: Vec<u64> = (0..8).collect();
            let runs = AtomicUsize::new(0);
            let outcome = BatchRunner::new(threads).try_map(&items, |i, x| {
                if i == 3 {
                    runs.fetch_add(1, Ordering::Relaxed);
                    panic!("cell 3 panicked");
                }
                x * 2
            });
            // The panicking cell ran exactly once.
            assert_eq!(runs.load(Ordering::Relaxed), 1, "{threads} threads");
            assert_eq!(outcome.summary.quarantined(), 1, "{threads} threads");
            let fail = &outcome.summary.failures[0];
            assert_eq!(fail.index, 3);
            assert!(!fail.timed_out);
            assert!(fail.message.contains("cell 3 panicked"));
            // Every other cell still completed and merged in order.
            assert!(outcome.results[3].is_none());
            for (i, r) in outcome.results.iter().enumerate() {
                if i != 3 {
                    assert_eq!(*r, Some(i as u64 * 2));
                }
            }
            assert!(!outcome.summary.is_clean());
            assert!(outcome.summary.to_string().contains("quarantined"));
        }
    }

    #[test]
    fn timed_out_cells_are_quarantined() {
        let items: Vec<u64> = (0..6).collect();
        let runs = AtomicUsize::new(0);
        let outcome = BatchRunner::new(2)
            .with_cell_deadline(Duration::from_millis(20))
            .try_map(&items, |i, x| {
                if i == 2 {
                    runs.fetch_add(1, Ordering::Relaxed);
                    // Unbounded cooperative loop: spins until the watchdog
                    // cancels it at a poll point.
                    loop {
                        giantsan_ir::watchdog::poll();
                        std::hint::spin_loop();
                    }
                }
                x * 3
            });
        assert_eq!(outcome.summary.quarantined(), 1);
        let fail = &outcome.summary.failures[0];
        assert!(fail.timed_out);
        assert_eq!(fail.index, 2);
        assert_eq!(fail.message, giantsan_ir::watchdog::TIMEOUT_PAYLOAD);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert!(fail.to_string().contains("deadline"));
        for (i, r) in outcome.results.iter().enumerate() {
            if i != 2 {
                assert_eq!(*r, Some(i as u64 * 3));
            }
        }
    }

    #[test]
    fn deadline_leaves_fast_cells_untouched() {
        let items: Vec<u64> = (0..32).collect();
        let plain = BatchRunner::new(4).map(&items, |_, x| x + 1);
        let timed = BatchRunner::new(4)
            .with_cell_deadline(Duration::from_secs(60))
            .map(&items, |_, x| x + 1);
        assert_eq!(plain, timed);
    }

    #[test]
    fn flight_recorder_sees_the_cell_lifecycle_with_global_indices() {
        let fr = Arc::new(FlightRecorder::new(2, 64));
        let items: Vec<u64> = (0..4).collect();
        let parent = 0x5111;
        let outcome = BatchRunner::new(2)
            .with_flight(Arc::clone(&fr), parent, 100)
            .try_map(&items, |i, x| {
                if i == 1 {
                    panic!("boom");
                }
                x + 1
            });
        assert_eq!(outcome.summary.quarantined(), 1);
        let snap = fr.snapshot();
        // Cells record *global* indices (index_base + i) and spans derived
        // from the given parent, so the dump correlates with spans.jsonl.
        assert!(snap
            .iter()
            .any(|e| e.kind == FlightEventKind::CellEnd && e.a == 100));
        let q = snap
            .iter()
            .find(|e| e.kind == FlightEventKind::Quarantine)
            .unwrap();
        assert_eq!(q.a, 101);
        assert_eq!(q.span, span_id(parent, SpanKind::Cell, 101));
        let starts = snap
            .iter()
            .filter(|e| e.kind == FlightEventKind::CellStart)
            .count();
        // One start per cell, the failing one included.
        assert_eq!(starts, 4);
        assert_eq!(fr.recorded(), 8);
    }

    #[test]
    fn shards_bracket_their_cells_under_the_shard_span() {
        let fr = Arc::new(FlightRecorder::new(2, 64));
        let items: Vec<u64> = (0..3).collect();
        let parent = 0x5111;
        let runner = BatchRunner::new(2).with_flight(Arc::clone(&fr), parent, 0);
        let out = runner.in_shard(1, 10..13, |r| r.map(&items, |_, x| x + 1));
        assert_eq!(out, vec![1, 2, 3]);
        let snap = fr.snapshot();
        let shard = span_id(parent, SpanKind::Shard, 1);
        let kinds: Vec<FlightEventKind> = snap
            .iter()
            .filter(|e| e.span == shard)
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            [FlightEventKind::ShardStart, FlightEventKind::ShardEnd]
        );
        // Cells carry global indices under the shard's span.
        let mut cells: Vec<u64> = snap
            .iter()
            .filter(|e| e.kind == FlightEventKind::CellEnd)
            .inspect(|e| assert_eq!(e.span, span_id(shard, SpanKind::Cell, e.a)))
            .map(|e| e.a)
            .collect();
        cells.sort_unstable();
        assert_eq!(cells, [10, 11, 12]);
        // No recorder: the body runs on the runner as is.
        let plain = BatchRunner::new(2).in_shard(0, 0..3, |r| r.map(&items, |_, x| *x));
        assert_eq!(plain, items);
    }

    #[test]
    fn map_surfaces_permanent_failures_after_draining() {
        let items: Vec<u64> = (0..8).collect();
        let done = AtomicUsize::new(0);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            BatchRunner::new(2).map(&items, |i, x| {
                if i == 5 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::Relaxed);
                *x
            })
        }))
        .unwrap_err();
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("batch failed"), "{msg}");
        assert!(msg.contains("cell 5"), "{msg}");
        // The other 7 cells all ran before the failure surfaced.
        assert_eq!(done.load(Ordering::Relaxed), 7);
    }
}
