//! The recording abstraction: [`Recorder`], [`NoopRecorder`], and
//! [`TraceRecorder`].

use crate::event::{Event, EventKind};
use crate::hist::Histograms;

/// A sink for telemetry events.
///
/// Emission sites throughout the stack are written as
///
/// ```ignore
/// if R::ENABLED {
///     rec.record(EventKind::Check { .. });
/// }
/// ```
///
/// so a caller monomorphized at [`NoopRecorder`] (`ENABLED == false`)
/// compiles the whole branch — including any delta computation feeding the
/// event — out of the binary. This is the zero-cost-when-disabled contract:
/// the default interpreter entry points instantiate at [`NoopRecorder`], so
/// determinism digests and benchmark numbers are identical with and without
/// the telemetry layer present.
pub trait Recorder {
    /// Whether this recorder observes anything at all. Emission sites guard
    /// on it so disabled telemetry has no runtime representation.
    const ENABLED: bool;

    /// Records one event. Must be infallible and cheap; heavy work belongs
    /// in the exporters.
    fn record(&mut self, kind: EventKind);
}

/// The default recorder: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _kind: EventKind) {}
}

/// Default in-memory event cap of a [`TraceRecorder`].
///
/// The histograms keep sampling past the cap; only the raw event stream is
/// truncated, and the number of dropped events is reported (never silently).
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// The enabled recorder: buffers the event stream and samples the
/// deterministic histograms as events arrive.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecorder {
    cell: u32,
    seq: u64,
    events: Vec<Event>,
    hists: Histograms,
    max_events: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder whose events are tagged with `cell`.
    pub fn for_cell(cell: u32) -> Self {
        Self::with_capacity(cell, DEFAULT_MAX_EVENTS)
    }

    /// A recorder with an explicit event cap (histograms are uncapped).
    pub fn with_capacity(cell: u32, max_events: usize) -> Self {
        TraceRecorder {
            cell,
            seq: 0,
            events: Vec::new(),
            hists: Histograms::default(),
            max_events,
            dropped: 0,
        }
    }

    /// The recorded event stream, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The sampled histograms.
    pub fn histograms(&self) -> &Histograms {
        &self.hists
    }

    /// Events that exceeded the cap and were not buffered (they were still
    /// sampled into the histograms).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The cell this recorder tags its events with.
    pub fn cell(&self) -> u32 {
        self.cell
    }

    /// Consumes the recorder, returning the event stream, the histograms,
    /// and the dropped-event count.
    pub fn finish(self) -> (Vec<Event>, Histograms, u64) {
        (self.events, self.hists, self.dropped)
    }
}

impl Recorder for TraceRecorder {
    const ENABLED: bool = true;

    fn record(&mut self, kind: EventKind) {
        self.hists.observe(&kind);
        if self.events.len() < self.max_events {
            self.events.push(Event {
                cell: self.cell,
                seq: self.seq,
                kind,
            });
        } else {
            self.dropped += 1;
        }
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CheckPathKind;

    #[test]
    fn noop_is_disabled_and_inert() {
        const { assert!(!NoopRecorder::ENABLED) };
        let mut n = NoopRecorder;
        n.record(EventKind::Run {
            steps: 1,
            native_work: 1,
            reports: 0,
        });
    }

    #[test]
    fn trace_recorder_sequences_and_tags_events() {
        let mut r = TraceRecorder::for_cell(7);
        for i in 0..3 {
            r.record(EventKind::Alloc {
                size: i,
                stack: false,
                poison: 0,
            });
        }
        const { assert!(TraceRecorder::ENABLED) };
        assert_eq!(r.cell(), 7);
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(r.events().iter().all(|e| e.cell == 7));
        assert_eq!(r.histograms().alloc_sizes.count, 3);
    }

    #[test]
    fn cap_drops_events_but_keeps_sampling() {
        let mut r = TraceRecorder::with_capacity(0, 2);
        for site in 0..5 {
            r.record(EventKind::Check {
                site,
                path: CheckPathKind::Fast,
                write: false,
                loads: 0,
                region: 8,
                code: None,
            });
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.histograms().region_sizes.count, 5, "sampling continues");
        let (events, hists, dropped) = r.finish();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 3);
        assert_eq!(hists.sites.len(), 5);
    }
}
