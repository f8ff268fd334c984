//! Crash flight recorder: bounded, lock-free, per-worker event rings.
//!
//! The JSONL event stream and the histograms answer "what did the run do";
//! the flight recorder answers "what was the machine doing *right before it
//! went wrong*". Each worker owns a fixed-capacity ring of small
//! fixed-width slots; recording is one `fetch_add` plus a handful of
//! relaxed atomic stores — **no locks, no allocation, no branches that
//! grow** — so it is safe to leave armed on the hot path permanently. When
//! the ring wraps, the oldest entries are overwritten and the overwrite
//! count is reported, never hidden.
//!
//! A dump ([`FlightRecorder::snapshot`] → [`FlightRecorder::to_jsonl`] /
//! [`FlightRecorder::to_chrome`]) can be taken at any moment — from the
//! serve watchdog path, the per-cell quarantine path, or a SIGUSR1 handler
//! — including while workers are still writing. A slot being overwritten
//! mid-read can yield one torn event; dumps are **presentation-plane**
//! forensics (they carry wall-clock and worker identity by design) and are
//! never digested, so that tear is acceptable where a lock on the hot path
//! would not be.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::export::ChromeTrace;

/// Default per-worker ring capacity (events).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// What a flight event marks. Encoded as one byte in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A batch cell started (`a` = cell index).
    CellStart,
    /// A batch cell finished cleanly (`a` = cell index).
    CellEnd,
    /// The watchdog fired: the cell exceeded its deadline (`a` = cell).
    Timeout,
    /// A cell was quarantined — it panicked or timed out (`a` = cell).
    Quarantine,
    /// A shard started (`a` = shard index, `b` = cell count).
    ShardStart,
    /// A shard committed (`a` = shard index, `b` = cell count).
    ShardEnd,
    /// A job started (`a` = job ordinal).
    JobStart,
    /// A job reached a terminal phase (`a` = job ordinal).
    JobEnd,
    /// Free-form marker (`a`/`b` caller-defined).
    Mark,
}

impl FlightEventKind {
    /// Short stable name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::CellStart => "cell_start",
            FlightEventKind::CellEnd => "cell_end",
            FlightEventKind::Timeout => "timeout",
            FlightEventKind::Quarantine => "quarantine",
            FlightEventKind::ShardStart => "shard_start",
            FlightEventKind::ShardEnd => "shard_end",
            FlightEventKind::JobStart => "job_start",
            FlightEventKind::JobEnd => "job_end",
            FlightEventKind::Mark => "mark",
        }
    }

    fn code(self) -> u64 {
        match self {
            FlightEventKind::CellStart => 0,
            FlightEventKind::CellEnd => 1,
            FlightEventKind::Timeout => 2,
            FlightEventKind::Quarantine => 3,
            FlightEventKind::ShardStart => 4,
            FlightEventKind::ShardEnd => 5,
            FlightEventKind::JobStart => 6,
            FlightEventKind::JobEnd => 7,
            FlightEventKind::Mark => 8,
        }
    }

    fn from_code(code: u64) -> Self {
        match code {
            0 => FlightEventKind::CellStart,
            1 => FlightEventKind::CellEnd,
            2 => FlightEventKind::Timeout,
            3 => FlightEventKind::Quarantine,
            4 => FlightEventKind::ShardStart,
            5 => FlightEventKind::ShardEnd,
            6 => FlightEventKind::JobStart,
            7 => FlightEventKind::JobEnd,
            _ => FlightEventKind::Mark,
        }
    }
}

/// One decoded flight event, as returned by [`FlightRecorder::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Ring (worker) the event was recorded on.
    pub worker: u32,
    /// Microseconds since the recorder was created (wall-clock;
    /// presentation plane only).
    pub ts_us: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Causal span id the event is attributed to (0 when unattributed).
    pub span: u64,
    /// First payload word (kind-specific, see [`FlightEventKind`]).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

/// One slot: five words, each stored with a relaxed atomic so concurrent
/// dump reads are race-free (if possibly torn across words).
#[derive(Debug)]
struct Slot {
    ts_us: AtomicU64,
    kind: AtomicU64,
    span: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            ts_us: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            span: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// One worker's ring: a monotone push counter plus `capacity` slots.
#[derive(Debug)]
struct Ring {
    pushed: AtomicU64,
    slots: Box<[Slot]>,
}

/// The flight recorder: one fixed ring per worker, shared by reference.
#[derive(Debug)]
pub struct FlightRecorder {
    origin: Instant,
    rings: Box<[Ring]>,
}

impl FlightRecorder {
    /// A recorder with `workers` rings of `capacity` slots each. All memory
    /// is allocated here, once; [`Self::record`] never allocates.
    pub fn new(workers: usize, capacity: usize) -> Self {
        let workers = workers.max(1);
        let capacity = capacity.max(1);
        let rings = (0..workers)
            .map(|_| Ring {
                pushed: AtomicU64::new(0),
                slots: (0..capacity).map(|_| Slot::empty()).collect(),
            })
            .collect();
        FlightRecorder {
            origin: Instant::now(),
            rings,
        }
    }

    /// Number of per-worker rings.
    pub fn workers(&self) -> usize {
        self.rings.len()
    }

    /// Per-ring slot capacity.
    pub fn capacity(&self) -> usize {
        self.rings[0].slots.len()
    }

    /// Records one event on `worker`'s ring (modulo the ring count, so a
    /// caller with more threads than rings still lands somewhere). Hot
    /// path: one `fetch_add` + five relaxed stores, no allocation.
    pub fn record(&self, worker: usize, kind: FlightEventKind, span: u64, a: u64, b: u64) {
        let ring = &self.rings[worker % self.rings.len()];
        let n = ring.pushed.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(n as usize) % ring.slots.len()];
        let ts = self.origin.elapsed().as_micros() as u64;
        slot.ts_us.store(ts, Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.span.store(span, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
    }

    /// Total events ever recorded, across all rings.
    pub fn recorded(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.pushed.load(Ordering::Relaxed))
            .sum()
    }

    /// Events lost to ring wrap-around (recorded minus retained).
    pub fn overwritten(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| {
                let pushed = r.pushed.load(Ordering::Relaxed);
                pushed.saturating_sub(r.slots.len() as u64)
            })
            .sum()
    }

    /// Decodes the retained events of every ring, oldest first within a
    /// ring, merged and sorted by timestamp then worker.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut out = Vec::new();
        for (w, ring) in self.rings.iter().enumerate() {
            let cap = ring.slots.len() as u64;
            let pushed = ring.pushed.load(Ordering::Acquire);
            let start = pushed.saturating_sub(cap);
            for n in start..pushed {
                let slot = &ring.slots[(n as usize) % ring.slots.len()];
                out.push(FlightEvent {
                    worker: w as u32,
                    ts_us: slot.ts_us.load(Ordering::Relaxed),
                    kind: FlightEventKind::from_code(slot.kind.load(Ordering::Relaxed)),
                    span: slot.span.load(Ordering::Relaxed),
                    a: slot.a.load(Ordering::Relaxed),
                    b: slot.b.load(Ordering::Relaxed),
                });
            }
        }
        out.sort_by_key(|e| (e.ts_us, e.worker));
        out
    }

    /// Renders a self-contained JSONL dump: a header line carrying the ring
    /// geometry and the overwrite count (losses are reported, never
    /// hidden), then one line per retained event.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"flight\":\"v1\",\"workers\":{},\"capacity\":{},\"recorded\":{},\"overwritten\":{}}}",
            self.workers(),
            self.capacity(),
            self.recorded(),
            self.overwritten()
        );
        for e in self.snapshot() {
            let _ = writeln!(
                out,
                "{{\"ts_us\":{},\"worker\":{},\"ev\":\"{}\",\"span\":\"{:#018x}\",\"a\":{},\"b\":{}}}",
                e.ts_us,
                e.worker,
                e.kind.name(),
                e.span,
                e.a,
                e.b
            );
        }
        out
    }

    /// Renders the retained events as a self-contained Chrome `trace_event`
    /// file (process 1, see [`Self::render_chrome`]), loadable in Perfetto.
    pub fn to_chrome(&self, process: &str) -> String {
        let mut t = ChromeTrace::new();
        self.render_chrome(&mut t, 1, process);
        t.finish()
    }

    /// Renders the retained events into `t` as process `pid`: a
    /// `scheduler` track (tid 0) with one slice per shard, one track per
    /// worker ring (tid `w + 1`) with one slice per cell, and an instant for
    /// every other event. Several recorders can share one trace under
    /// distinct pids.
    pub fn render_chrome(&self, t: &mut ChromeTrace, pid: u32, process: &str) {
        t.process_name(pid, process);
        t.thread_name(pid, 0, "scheduler");
        for w in 0..self.workers() {
            t.thread_name(pid, w as u32 + 1, &format!("worker {w}"));
        }
        // Starts awaiting their end. Cells pair on their worker's ring as
        // (worker, cell, span, ts); shards pair by span as (shard, span, ts).
        let mut cells: Vec<(u32, u64, u64, u64)> = Vec::new();
        let mut shards: Vec<(u64, u64, u64)> = Vec::new();
        for e in self.snapshot() {
            match e.kind {
                FlightEventKind::CellStart => cells.push((e.worker, e.a, e.span, e.ts_us)),
                FlightEventKind::ShardStart => shards.push((e.a, e.span, e.ts_us)),
                FlightEventKind::CellEnd => {
                    if let Some(pos) = cells
                        .iter()
                        .rposition(|&(w, cell, _, _)| w == e.worker && cell == e.a)
                    {
                        let (w, cell, span, start) = cells.remove(pos);
                        t.complete(
                            pid,
                            w + 1,
                            &format!("cell {cell}"),
                            "cell",
                            start as f64,
                            e.ts_us.saturating_sub(start) as f64,
                            &[("span", &format!("{span:#018x}"))],
                        );
                    }
                }
                FlightEventKind::ShardEnd => {
                    if let Some(pos) = shards.iter().rposition(|&(_, span, _)| span == e.span) {
                        let (shard, span, start) = shards.remove(pos);
                        t.complete(
                            pid,
                            0,
                            &format!("shard {shard}"),
                            "shard",
                            start as f64,
                            e.ts_us.saturating_sub(start) as f64,
                            &[
                                ("cells", &e.b.to_string()),
                                ("span", &format!("{span:#018x}")),
                            ],
                        );
                    }
                }
                kind => t.instant(pid, e.worker + 1, kind.name(), e.ts_us as f64),
            }
        }
        // Unclosed slices (the wedged ones — the reason dumps exist) render
        // as instants so they are visible rather than silently dropped.
        for (w, cell, _, ts) in cells {
            t.instant(pid, w + 1, &format!("cell {cell} (unfinished)"), ts as f64);
        }
        for (shard, _, ts) in shards {
            t.instant(pid, 0, &format!("shard {shard} (unfinished)"), ts as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_retains_the_newest_events_and_counts_overwrites() {
        let fr = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            fr.record(0, FlightEventKind::Mark, 0, i, 0);
        }
        assert_eq!(fr.recorded(), 10);
        assert_eq!(fr.overwritten(), 6);
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 4);
        let kept: Vec<u64> = snap.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest overwritten first");
    }

    #[test]
    fn rings_are_per_worker_and_jsonl_reports_losses() {
        let fr = FlightRecorder::new(2, 8);
        fr.record(0, FlightEventKind::CellStart, 0xabc, 1, 1);
        fr.record(1, FlightEventKind::Quarantine, 0xdef, 2, 0);
        assert_eq!(fr.workers(), 2);
        assert_eq!(fr.capacity(), 8);
        let text = fr.to_jsonl();
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"flight\":\"v1\""));
        assert!(header.contains("\"overwritten\":0"));
        assert!(text.contains("\"ev\":\"cell_start\""));
        assert!(text.contains("\"ev\":\"quarantine\""));
        assert!(text.contains("\"span\":\"0x0000000000000def\""));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn chrome_dump_pairs_cells_and_keeps_wedged_ones_visible() {
        let fr = FlightRecorder::new(1, 16);
        fr.record(0, FlightEventKind::ShardStart, 9, 0, 2);
        fr.record(0, FlightEventKind::CellStart, 1, 5, 0);
        fr.record(0, FlightEventKind::CellEnd, 1, 5, 0);
        fr.record(0, FlightEventKind::CellStart, 2, 6, 0);
        fr.record(0, FlightEventKind::Timeout, 2, 6, 0);
        fr.record(0, FlightEventKind::ShardStart, 10, 1, 4);
        let json = fr.to_chrome("flight");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"cell 5\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("timeout"));
        assert!(json.contains("cell 6 (unfinished)"));
        assert!(json.contains("shard 1 (unfinished)"));
        fr.record(0, FlightEventKind::ShardEnd, 9, 0, 2);
        let json = fr.to_chrome("flight");
        assert_eq!(json.matches("\"cat\":\"shard\"").count(), 1);
        assert!(json.contains("\"name\":\"shard 0\""));
        assert!(json.contains("\"name\":\"scheduler\""));
    }

    #[test]
    fn concurrent_recording_never_loses_the_count() {
        let fr = std::sync::Arc::new(FlightRecorder::new(4, 32));
        std::thread::scope(|s| {
            for w in 0..4 {
                let fr = fr.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        fr.record(w, FlightEventKind::Mark, 0, i, 0);
                    }
                });
            }
        });
        assert_eq!(fr.recorded(), 400);
        assert_eq!(fr.overwritten(), 400 - 4 * 32);
        assert_eq!(fr.snapshot().len(), 4 * 32);
    }
}
