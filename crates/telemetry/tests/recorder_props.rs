//! Property tests for `TraceRecorder` overflow: at capacity the recorder
//! must drop **deterministically** (the first `max_events` emissions are
//! retained, every later one is dropped — never a sample) and the dropped
//! count must survive every export path, so a truncated trace can never
//! masquerade as a complete one.

use proptest::prelude::*;

use giantsan_telemetry::export::{events_jsonl, prometheus};
use giantsan_telemetry::{EventKind, Recorder, TraceRecorder};

fn event_for(v: u64) -> EventKind {
    match v % 3 {
        0 => EventKind::Alloc {
            size: v,
            stack: false,
            poison: v / 8,
        },
        1 => EventKind::Free { poison: v % 17 },
        _ => EventKind::Run {
            steps: v,
            native_work: v / 2,
            reports: 0,
        },
    }
}

fn record_all(cap: usize, values: &[u64]) -> TraceRecorder {
    let mut r = TraceRecorder::with_capacity(0, cap);
    for &v in values {
        r.record(event_for(v));
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The retained prefix is exactly the first `cap` emissions, in order,
    /// with contiguous sequence numbers — overflow never reorders, samples,
    /// or replaces.
    #[test]
    fn overflow_keeps_the_deterministic_prefix(
        values in prop::collection::vec(0u64..1 << 20, 0..64),
        cap in 0usize..48,
    ) {
        let r = record_all(cap, &values);
        let kept = values.len().min(cap);
        prop_assert_eq!(r.events().len(), kept);
        prop_assert_eq!(r.dropped(), (values.len() - kept) as u64);
        for (i, e) in r.events().iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64);
            prop_assert_eq!(&e.kind, &event_for(values[i]));
        }
        // Two identical emission streams truncate identically.
        let again = record_all(cap, &values);
        prop_assert_eq!(events_jsonl(r.events()), events_jsonl(again.events()));
    }

    /// `dropped` survives export: `finish()` hands it back untouched and the
    /// Prometheus exposition reports it as `giantsan_trace_events_dropped_total`.
    #[test]
    fn dropped_count_survives_export(
        values in prop::collection::vec(0u64..1 << 20, 0..64),
        cap in 0usize..48,
    ) {
        let r = record_all(cap, &values);
        let expected = (values.len().saturating_sub(cap)) as u64;
        prop_assert_eq!(r.dropped(), expected);

        let exposition = prometheus("test", &[], r.histograms(), r.dropped());
        let line = format!("giantsan_trace_events_dropped_total {expected}");
        prop_assert!(exposition.contains(&line), "missing `{}`", line);

        let (events, _, dropped) = r.finish();
        prop_assert_eq!(dropped, expected);
        prop_assert_eq!(events.len(), values.len().min(cap));
    }

    /// Histograms keep sampling past the cap: the overflow affects only the
    /// buffered stream, never the statistics.
    #[test]
    fn sampling_continues_past_the_cap(
        values in prop::collection::vec(0u64..1 << 20, 0..64),
        cap in 0usize..16,
    ) {
        let capped = record_all(cap, &values);
        let uncapped = record_all(values.len() + 1, &values);
        prop_assert_eq!(capped.histograms(), uncapped.histograms());
    }
}
