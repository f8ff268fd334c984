//! Property tests for the deterministic histograms: merging is associative,
//! commutative, and shard-count invariant — the algebra the batch engine's
//! thread-invariance guarantee rests on.

use proptest::prelude::*;

use giantsan_telemetry::{CheckPathKind, EventKind, Histograms, Log2Hist};

fn observe_all(values: &[u64]) -> Histograms {
    let mut h = Histograms::default();
    for &v in values {
        h.observe(&event_for(v));
    }
    h
}

/// Derives a mixed event from one sample so every histogram participates.
fn event_for(v: u64) -> EventKind {
    match v % 3 {
        0 => EventKind::Check {
            site: (v % 7) as u32,
            path: match v % 4 {
                0 => CheckPathKind::Fast,
                1 => CheckPathKind::Slow,
                2 => CheckPathKind::CacheHit,
                _ => CheckPathKind::CacheUpdate,
            },
            write: v.is_multiple_of(2),
            loads: (v % 4) as u32,
            region: v,
            code: Some(giantsan_shadow::codes::folded((v % 61) as u32)),
        },
        1 => EventKind::Alloc {
            size: v,
            stack: v.is_multiple_of(2),
            poison: v / 8,
        },
        _ => EventKind::QuasiBound {
            site: (v % 5) as u32,
            old_ub: v / 2,
            new_ub: v,
            step: (v % 9) as u32,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Element-wise bucket addition never loses or invents samples.
    #[test]
    fn log2_hist_merge_preserves_count_and_sum(a in prop::collection::vec(0u64..u64::MAX, 0..64),
                                               b in prop::collection::vec(0u64..u64::MAX, 0..64)) {
        let mut ha = Log2Hist::default();
        for &v in &a { ha.record(v); }
        let mut hb = Log2Hist::default();
        for &v in &b { hb.record(v); }
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count, (a.len() + b.len()) as u64);
        let direct: u64 = merged.buckets.iter().sum();
        prop_assert_eq!(direct, merged.count);
    }

    /// merge(a, b) == merge(b, a) for the full histogram set.
    #[test]
    fn merge_is_commutative(a in prop::collection::vec(0u64..1 << 40, 0..48),
                            b in prop::collection::vec(0u64..1 << 40, 0..48)) {
        let ha = observe_all(&a);
        let hb = observe_all(&b);
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// (a + b) + c == a + (b + c).
    #[test]
    fn merge_is_associative(a in prop::collection::vec(0u64..1 << 40, 0..32),
                            b in prop::collection::vec(0u64..1 << 40, 0..32),
                            c in prop::collection::vec(0u64..1 << 40, 0..32)) {
        let (ha, hb, hc) = (observe_all(&a), observe_all(&b), observe_all(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Sharding the sample stream across any number of worker-local
    /// histograms and merging them back yields the single-shard histogram:
    /// thread-shard count never changes the merged result.
    #[test]
    fn shard_count_is_invisible(values in prop::collection::vec(0u64..1 << 40, 0..96),
                                shards in 1usize..9) {
        let reference = observe_all(&values);
        let mut parts: Vec<Histograms> = (0..shards).map(|_| Histograms::default()).collect();
        for (i, &v) in values.iter().enumerate() {
            parts[i % shards].observe(&event_for(v));
        }
        let mut merged = Histograms::default();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged, reference);
    }
}
