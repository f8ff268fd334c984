//! Differential property tests: the active `swar` kernel against the
//! `scalar` reference on random shadow patterns.
//!
//! The kernel contract says the two tables may differ in speed only — for
//! every input they must return byte-identical answers. These tests pit
//! [`kernel::active`] against [`kernel::scalar`]:
//!
//! * raw slices of arbitrary bytes, with lengths straddling the 8-byte word
//!   and the 64-byte block the `swar` scans skip whole, and thresholds on
//!   both sides of 128 — the range where the SWAR word test falls back to
//!   a sign-bit over-approximation;
//! * [`ShadowMemory`] ranges reaching past the mapped shadow, where each
//!   table's answer on the mapped bytes, stitched to the fill-byte tail,
//!   must match the byte-wise ground truth;
//! * the bulk writers (`fill`, `write_folded_run`), byte-compared;
//! * the keyed kernels a [`ShadowMemory`] scans and poisons through
//!   (`first_ge_keyed`, `write_folded_run_keyed`) under the fill bytes of
//!   both encodings and key 0: `swar` against `scalar`, and the decoded
//!   bytes (`stored ^ key`) against the unkeyed kernel;
//! * one hit after a clean prefix of whole blocks, at a uniformly drawn
//!   offset of the next block, so a kernel that misreads any one offset of
//!   a 64-byte block fails about one case in 64.
//!
//! The block prefix is vectorised only in optimised builds, so run these
//! with `--release` as well.

use proptest::prelude::*;

use giantsan_shadow::kernel;
use giantsan_shadow::{AddressSpace, ShadowMemory};

/// Slice lengths straddling the 8-byte word and the 64-byte block.
fn lens() -> Vec<usize> {
    vec![
        0, 1, 2, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 40, 47, 48, 63, 64, 65, 100, 127, 128,
        129, 191, 192, 193, 200,
    ]
}

/// Probe/fill bytes hitting both sides of the 0x80 sign bit and the
/// saturation edges of the SWAR identity and the block fold.
const EDGE_BYTES: [u8; 12] = [
    0x00, 0x01, 0x40, 0x4e, 0x7f, 0x80, 0x81, 0xc8, 0xc9, 0xfe, 0xff, 0x48,
];

/// Keys a shadow stores its codes under: none, GiantSan's fill byte (78) and
/// ASan's (0xff).
const KEYS: [u8; 3] = [0, 78, 0xff];

/// `bytes` with every byte XOR `key`.
fn xor(bytes: &[u8], key: u8) -> Vec<u8> {
    bytes.iter().map(|&b| b ^ key).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Scan kernels agree with the reference on random slices — including
    /// thresholds >= 128, where the SWAR word test cannot use its
    /// `has_byte_gt` identity.
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
        let (scalar, k) = (kernel::scalar(), kernel::active());
        // The random probe plus every edge byte as a threshold: the edge
        // list guarantees the >= 128 territory is hit every case.
        for p in EDGE_BYTES.iter().copied().chain([probe]) {
            prop_assert_eq!(
                k.first_ne(&s, p),
                scalar.first_ne(&s, p),
                "first_ne len={} probe={:#x}", len, p
            );
            prop_assert_eq!(
                k.first_ge(&s, p),
                scalar.first_ge(&s, p),
                "first_ge len={} probe={:#x}", len, p
            );
            prop_assert_eq!(
                k.all_eq(&s, p),
                scalar.all_eq(&s, p),
                "all_eq len={} probe={:#x}", len, p
            );
        }
    }

    /// The keyed ordered scan agrees with the reference under every key and
    /// threshold, and equals the unkeyed scan of the decoded bytes; the
    /// thresholds of 128 and above are each checked on every case.
    #[test]
    fn keyed_first_ge_agrees_and_decodes(
        len in prop::sample::select(lens()),
        base in prop::sample::select(EDGE_BYTES.to_vec()),
        write_at in prop::collection::vec(0usize..256, 0..12),
        write_val in prop::collection::vec(0u8..=255, 12),
        probe in 0u8..=255,
    ) {
        let mut stored = vec![base; len];
        if len > 0 {
            for (&i, &v) in write_at.iter().zip(write_val.iter()) {
                stored[i % len] = v;
            }
        }
        let thresholds = (128u8..=255).step_by(9).chain([0x80, 0xfe, 0xff, probe]);
        for key in KEYS {
            let decoded = xor(&stored, key);
            for t in thresholds.clone() {
                let expect = kernel::scalar().first_ge(&decoded, t);
                for k in [kernel::scalar(), kernel::active()] {
                    prop_assert_eq!(
                        k.first_ge_keyed(&stored, t, key),
                        expect,
                        "{} len={} key={:#x} threshold={:#x}", k.name(), len, key, t
                    );
                }
            }
        }
    }

    /// Write kernels produce byte-identical output to the reference for
    /// every length (fill) and run shape (write_folded_run).
    #[test]
    fn write_kernels_agree_on_every_length(
        len in prop::sample::select(lens()),
        value in 0u8..=255,
        garbage in 0u8..=255,
    ) {
        let (scalar, k) = (kernel::scalar(), kernel::active());
        let mut expect_fill = vec![garbage; len];
        scalar.fill(&mut expect_fill, value);
        let mut expect_run = vec![garbage; len];
        scalar.write_folded_run(&mut expect_run);
        let mut out = vec![garbage; len];
        k.fill(&mut out, value);
        prop_assert_eq!(&out, &expect_fill, "fill len={}", len);
        let mut out = vec![garbage; len];
        k.write_folded_run(&mut out);
        prop_assert_eq!(&out, &expect_run, "folded run len={}", len);
        for key in KEYS {
            let mut expect_keyed = vec![garbage; len];
            scalar.write_folded_run_keyed(&mut expect_keyed, key);
            prop_assert_eq!(
                &xor(&expect_keyed, key), &expect_run,
                "scalar folded run decoded under key {:#x}, len={}", key, len
            );
            let mut out = vec![garbage; len];
            k.write_folded_run_keyed(&mut out, key);
            prop_assert_eq!(
                &out, &expect_keyed,
                "keyed folded run key={:#x} len={}", key, len
            );
        }
    }

    /// A single hit at a uniform offset of the block after a clean prefix:
    /// every scan must find it (or, for `all_eq`, see it), exactly where the
    /// byte-wise ground truth puts it, under every key a shadow stores its
    /// codes with.
    #[test]
    fn one_hit_after_clean_blocks_is_found(
        blocks in 0usize..4,
        at in 0usize..64,
        tail in 0usize..72,
        key in prop::sample::select(KEYS.to_vec()),
        hit in 1u8..=255,
    ) {
        // Decoded, the slice is all zeros except `hit` at `pos`.
        let pos = blocks * 64 + at;
        let mut stored = vec![key; blocks * 64 + 64 + tail];
        stored[pos] = hit ^ key;
        for k in [kernel::scalar(), kernel::active()] {
            prop_assert_eq!(k.first_ne(&stored, key), Some(pos), "{} first_ne", k.name());
            prop_assert!(!k.all_eq(&stored, key), "{} all_eq", k.name());
            prop_assert_eq!(
                k.first_ge_keyed(&stored, hit, key), Some(pos),
                "{} first_ge_keyed threshold={:#x}", k.name(), hit
            );
            if hit < u8::MAX {
                prop_assert_eq!(
                    k.first_ge_keyed(&stored, hit + 1, key), None,
                    "{} first_ge_keyed threshold={:#x}", k.name(), hit + 1
                );
            }
        }
    }

    /// ShadowMemory-level scans on ranges running past the mapped shadow:
    /// the fill-byte tail is stitched on above the kernels, so each table's
    /// answer on the mapped codes plus the tail — and the shadow's own
    /// answer — must match the ground truth.
    #[test]
    fn fill_tails_survive_every_kernel(
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
        let mapped_hi = hi.min(segments).max(lo);
        let mapped: Vec<u8> = (lo..mapped_hi).map(|i| s.get(i)).collect();
        let tail = mapped_hi..hi;
        for k in [kernel::scalar(), kernel::active()] {
            let at = |i: usize| lo + i as u64;
            let got = (
                k.first_ne(&mapped, probe)
                    .map(at)
                    .or_else(|| tail.clone().find(|&i| s.get(i) != probe)),
                k.first_ge(&mapped, probe)
                    .map(at)
                    .or_else(|| tail.clone().find(|&i| s.get(i) >= probe)),
                k.all_eq(&mapped, probe) && tail.clone().all(|i| s.get(i) == probe),
            );
            prop_assert_eq!(
                got, expect,
                "{} lo={} hi={} probe={:#x}", k.name(), lo, hi, probe
            );
        }
    }
}

/// Deterministic pin of the worked threshold example on both tables.
#[test]
fn thresholds_above_128_agree_everywhere() {
    let mut v = vec![0u8, 10, 127, 128, 200, 250, 255, 3];
    v.extend(std::iter::repeat_n(0x40, 120)); // push past the first block
    v.push(0xff);
    for k in [kernel::scalar(), kernel::active()] {
        assert_eq!(k.first_ge(&v, 0), Some(0), "{}", k.name());
        assert_eq!(k.first_ge(&v, 1), Some(1), "{}", k.name());
        assert_eq!(k.first_ge(&v, 128), Some(3), "{}", k.name());
        assert_eq!(k.first_ge(&v, 129), Some(4), "{}", k.name());
        assert_eq!(k.first_ge(&v, 201), Some(5), "{}", k.name());
        assert_eq!(k.first_ge(&v, 251), Some(6), "{}", k.name());
        assert_eq!(k.first_ge(&v, 255), Some(6), "{}", k.name());
        assert_eq!(k.first_ge(&v[7..8], 255), None, "{}", k.name());
        assert_eq!(k.first_ge(&v[7..], 0x41), Some(121), "{}", k.name());
        assert_eq!(k.first_ge(&[1u8; 200], 2), None, "{}", k.name());
    }
}
