//! Differential property tests: `simd` vs `swar` vs `scalar` kernel
//! backends on random shadow patterns.
//!
//! The backend contract says the three tables may differ in speed only —
//! for every input they must return byte-identical answers. These tests pit
//! all backends (obtained explicitly via [`kernel::select`], independent of
//! the process-wide dispatch) against each other and against the scalar
//! reference:
//!
//! * raw slices of arbitrary bytes, with lengths straddling every step
//!   width (1/8/16/32) and thresholds on both sides of 128 — the range
//!   where the SWAR `has_byte_gt` identity needs its byte-loop fallback;
//! * [`ShadowMemory`] ranges reaching past the mapped shadow, where every
//!   backend's answer on the mapped bytes, stitched to the fill-byte tail,
//!   must match the byte-wise ground truth (mirroring
//!   `first_ge_handles_thresholds_above_128` in spirit);
//! * the bulk writers (`fill`, `write_folded_run`), byte-compared across
//!   backends.

use proptest::prelude::*;

use giantsan_shadow::kernel::{self, Backend};
use giantsan_shadow::{AddressSpace, ShadowMemory};

/// Slice lengths straddling every backend's step width (1/8/16/32 bytes).
fn lens() -> Vec<usize> {
    vec![
        0, 1, 2, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 40, 47, 48, 63, 64, 65, 100, 127, 128,
        129, 200,
    ]
}

/// Probe/fill bytes hitting both sides of the 0x80 sign bit and the
/// saturation edges the SWAR identity and `max_epu8` care about.
const EDGE_BYTES: [u8; 12] = [
    0x00, 0x01, 0x40, 0x4e, 0x7f, 0x80, 0x81, 0xc8, 0xc9, 0xfe, 0xff, 0x48,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Scan kernels agree across all three backends on random slices —
    /// including thresholds >= 128, where swar must route around its
    /// `has_byte_gt` precondition and simd's `max_epu8` compare is exact.
    #[test]
    fn scan_kernels_agree_on_random_slices(
        len in prop::sample::select(lens()),
        base in prop::sample::select(EDGE_BYTES.to_vec()),
        write_at in prop::collection::vec(0usize..256, 0..12),
        write_val in prop::collection::vec(0u8..=255, 12),
        probe in 0u8..=255,
    ) {
        let mut s = vec![base; len];
        if len > 0 {
            for (&i, &v) in write_at.iter().zip(write_val.iter()) {
                s[i % len] = v;
            }
        }
        let scalar = kernel::select(Backend::Scalar);
        for backend in [Backend::Swar, Backend::Simd] {
            let k = kernel::select(backend);
            // The random probe plus every edge byte as a threshold: the
            // edge list guarantees the >= 128 territory is hit every case.
            for p in EDGE_BYTES.iter().copied().chain([probe]) {
                prop_assert_eq!(
                    k.first_ne(&s, p),
                    scalar.first_ne(&s, p),
                    "first_ne {} len={} probe={:#x}", k.name(), len, p
                );
                prop_assert_eq!(
                    k.first_ge(&s, p),
                    scalar.first_ge(&s, p),
                    "first_ge {} len={} probe={:#x}", k.name(), len, p
                );
                prop_assert_eq!(
                    k.all_eq(&s, p),
                    scalar.all_eq(&s, p),
                    "all_eq {} len={} probe={:#x}", k.name(), len, p
                );
            }
        }
    }

    /// Write kernels produce byte-identical output across backends for every
    /// length (fill) and run shape (write_folded_run).
    #[test]
    fn write_kernels_agree_on_every_length(
        len in prop::sample::select(lens()),
        value in 0u8..=255,
        garbage in 0u8..=255,
    ) {
        let scalar = kernel::select(Backend::Scalar);
        let mut expect_fill = vec![garbage; len];
        scalar.fill(&mut expect_fill, value);
        let mut expect_run = vec![garbage; len];
        scalar.write_folded_run(&mut expect_run);
        for backend in [Backend::Swar, Backend::Simd] {
            let k = kernel::select(backend);
            let mut out = vec![garbage; len];
            k.fill(&mut out, value);
            prop_assert_eq!(&out, &expect_fill, "fill {} len={}", k.name(), len);
            let mut out = vec![garbage; len];
            k.write_folded_run(&mut out);
            prop_assert_eq!(&out, &expect_run, "folded run {} len={}", k.name(), len);
        }
    }

    /// ShadowMemory-level scans on ranges running past the mapped shadow:
    /// the fill-byte tail is stitched on above the kernels, so every
    /// backend's answer on the mapped bytes plus the tail — and the active
    /// table's own `ShadowMemory` answer — must match the ground truth.
    #[test]
    fn fill_tails_survive_every_backend(
        segments in 1u64..64,
        fill in prop::sample::select(EDGE_BYTES.to_vec()),
        write_at in prop::collection::vec(0u64..64, 0..12),
        write_val in prop::collection::vec(0u8..=255, 12),
        lo in 0u64..80,
        len in 0u64..80,
        probe in 0u8..=255,
    ) {
        let space = AddressSpace::new(0x1_0000, segments * 8);
        let mut s = ShadowMemory::new(&space, fill);
        for (&i, &v) in write_at.iter().zip(write_val.iter()) {
            s.set(i % segments, v);
        }
        let hi = lo + len;

        // Reference on get(): the fill-tail ground truth.
        let expect = (
            (lo..hi).find(|&i| s.get(i) != probe),
            (lo..hi).find(|&i| s.get(i) >= probe),
            (lo..hi).all(|i| s.get(i) == probe),
        );
        let active = (
            s.first_ne(lo, hi, probe),
            s.first_ge(lo, hi, probe),
            s.all_eq(lo, hi, probe),
        );
        prop_assert_eq!(active, expect, "active lo={} hi={} probe={:#x}", lo, hi, probe);
        let mapped = s.view(lo, hi).mapped();
        let tail = lo + mapped.len() as u64..hi;
        for backend in Backend::ALL {
            let k = kernel::select(backend);
            let at = |i: usize| lo + i as u64;
            let got = (
                k.first_ne(mapped, probe)
                    .map(at)
                    .or_else(|| tail.clone().find(|&i| s.get(i) != probe)),
                k.first_ge(mapped, probe)
                    .map(at)
                    .or_else(|| tail.clone().find(|&i| s.get(i) >= probe)),
                k.all_eq(mapped, probe) && tail.clone().all(|i| s.get(i) == probe),
            );
            prop_assert_eq!(
                got, expect,
                "{} lo={} hi={} probe={:#x}", backend, lo, hi, probe
            );
        }
    }
}

/// Deterministic pin of the worked threshold example across every backend —
/// the kernel-level mirror of `scan.rs`'s
/// `first_ge_handles_thresholds_above_128`.
#[test]
fn thresholds_above_128_agree_everywhere() {
    let mut v = vec![0u8, 10, 127, 128, 200, 250, 255, 3];
    v.extend(std::iter::repeat_n(0x40, 40)); // push past SSE2/AVX2 widths
    v.push(0xff);
    for backend in Backend::ALL {
        let k = kernel::select(backend);
        assert_eq!(k.first_ge(&v, 0), Some(0), "{}", k.name());
        assert_eq!(k.first_ge(&v, 1), Some(1), "{}", k.name());
        assert_eq!(k.first_ge(&v, 128), Some(3), "{}", k.name());
        assert_eq!(k.first_ge(&v, 129), Some(4), "{}", k.name());
        assert_eq!(k.first_ge(&v, 201), Some(5), "{}", k.name());
        assert_eq!(k.first_ge(&v, 251), Some(6), "{}", k.name());
        assert_eq!(k.first_ge(&v, 255), Some(6), "{}", k.name());
        assert_eq!(k.first_ge(&v[7..8], 255), None, "{}", k.name());
        assert_eq!(k.first_ge(&[1u8; 48], 2), None, "{}", k.name());
    }
}
