//! Property tests: the word-wide scanners agree with a byte-wise reference
//! built on `ShadowMemory::get` — over random shadow contents, random
//! `(lo, hi)` ranges (empty, unaligned, straddling, and fully out of range),
//! and every interesting fill/probe byte class (below 0x80, above 0x80, and
//! the exact threshold).

use proptest::prelude::*;

use giantsan_shadow::kernel;
use giantsan_shadow::{AddressSpace, ShadowMemory};

/// Builds a shadow of `segments` segments with `fill`, then plants `writes`
/// as (index, value) pairs inside the mapped range.
fn shadow_with(segments: u64, fill: u8, writes: &[(u64, u8)]) -> ShadowMemory {
    let space = AddressSpace::new(0x1_0000, segments * 8);
    let mut s = ShadowMemory::new(&space, fill);
    for &(i, v) in writes {
        s.set(i % segments, v);
    }
    s
}

fn ref_first_ne(s: &ShadowMemory, lo: u64, hi: u64, byte: u8) -> Option<u64> {
    (lo..hi.max(lo)).find(|&i| s.get(i) != byte)
}

fn ref_first_ge(s: &ShadowMemory, lo: u64, hi: u64, t: u8) -> Option<u64> {
    (lo..hi.max(lo)).find(|&i| s.get(i) >= t)
}

fn ref_all_eq(s: &ShadowMemory, lo: u64, hi: u64, byte: u8) -> bool {
    (lo..hi.max(lo)).all(|i| s.get(i) == byte)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `first_ne` / `first_ge` / `all_eq` match the byte-wise reference for
    /// arbitrary contents and ranges, including ranges reaching past the
    /// mapped shadow (where fill semantics must hold).
    #[test]
    fn scanners_match_bytewise_reference(
        segments in 1u64..96,
        fill in prop::sample::select(vec![0u8, 0x40, 0x4e, 0x7f, 0x80, 0xfa, 0xff]),
        writes in prop::collection::vec(0u64..96, 0..24),
        values in prop::collection::vec(0u8..=255, 24),
        lo in 0u64..112,
        len in 0u64..112,
        probe in 0u8..=255,
    ) {
        let planted: Vec<(u64, u8)> = writes
            .iter()
            .zip(values.iter())
            .map(|(&i, &v)| (i, v))
            .collect();
        let s = shadow_with(segments, fill, &planted);
        let hi = lo + len;
        prop_assert_eq!(
            s.first_ne(lo, hi, probe),
            ref_first_ne(&s, lo, hi, probe),
            "first_ne segs={} lo={} hi={} probe={:#x}", segments, lo, hi, probe
        );
        prop_assert_eq!(
            s.first_ge(lo, hi, probe),
            ref_first_ge(&s, lo, hi, probe),
            "first_ge segs={} lo={} hi={} probe={:#x}", segments, lo, hi, probe
        );
        prop_assert_eq!(
            s.all_eq(lo, hi, probe),
            ref_all_eq(&s, lo, hi, probe),
            "all_eq segs={} lo={} hi={} probe={:#x}", segments, lo, hi, probe
        );
    }

    /// A shadow stores each code XOR its fill byte, so it poisons and scans
    /// through the keyed kernels. Under no key and under both encodings'
    /// fill bytes, a folded run written through the shadow reads back as the
    /// unkeyed kernel's codes, the segments around it keep theirs, and
    /// `first_ge` at thresholds of 128 and above matches the byte-wise
    /// reference.
    #[test]
    fn keyed_shadows_write_and_scan_codes(
        segments in 1u64..96,
        fill in prop::sample::select(vec![0u8, 78, 0xff]),
        writes in prop::collection::vec(0u64..96, 0..24),
        values in prop::collection::vec(0u8..=255, 24),
        run_lo in 0u64..96,
        run_len in 0u64..96,
        lo in 0u64..112,
        len in 0u64..112,
        threshold in 128u8..=255,
    ) {
        let planted: Vec<(u64, u8)> = writes
            .iter()
            .zip(values.iter())
            .map(|(&i, &v)| (i, v))
            .collect();
        let mut s = shadow_with(segments, fill, &planted);
        let before: Vec<u8> = (0..segments).map(|i| s.get(i)).collect();
        let run_lo = run_lo % segments;
        let run_hi = (run_lo + run_len).min(segments);
        s.write_folded_run(run_lo, run_hi);
        let mut expect = before;
        kernel::scalar().write_folded_run(&mut expect[run_lo as usize..run_hi as usize]);
        let got: Vec<u8> = (0..segments).map(|i| s.get(i)).collect();
        prop_assert_eq!(got, expect, "fill={:#x} run {}..{}", fill, run_lo, run_hi);
        let hi = lo + len;
        prop_assert_eq!(
            s.first_ge(lo, hi, threshold),
            ref_first_ge(&s, lo, hi, threshold),
            "fill={:#x} lo={} hi={} threshold={:#x}", fill, lo, hi, threshold
        );
    }

    /// The scanners are internally consistent: `all_eq ⇔ first_ne == None`,
    /// and any `first_ge` hit is itself `>= threshold` with everything before
    /// it below the threshold.
    #[test]
    fn scanner_internal_consistency(
        segments in 1u64..64,
        fill in 0u8..=255,
        writes in prop::collection::vec(0u64..64, 0..16),
        values in prop::collection::vec(0u8..=255, 16),
        lo in 0u64..80,
        len in 0u64..80,
        probe in 0u8..=255,
    ) {
        let planted: Vec<(u64, u8)> = writes
            .iter()
            .zip(values.iter())
            .map(|(&i, &v)| (i, v))
            .collect();
        let s = shadow_with(segments, fill, &planted);
        let hi = lo + len;
        prop_assert_eq!(s.all_eq(lo, hi, probe), s.first_ne(lo, hi, probe).is_none());
        if let Some(at) = s.first_ge(lo, hi, probe) {
            prop_assert!((lo..hi).contains(&at));
            prop_assert!(s.get(at) >= probe);
            prop_assert!((lo..at).all(|i| s.get(i) < probe));
        } else {
            prop_assert!((lo..hi).all(|i| s.get(i) < probe));
        }
    }
}
