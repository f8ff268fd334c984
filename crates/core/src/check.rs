//! O(1) region checking with folded segments (paper §4.2, Algorithm 1).
//!
//! A region `[L, R)` is safe iff every segment except possibly the last is
//! "good" and the first `R mod 8` bytes of the last segment are addressable.
//! Because any `N` consecutive good segments are the union of two
//! `⌊log2 N⌋`-folded segments (Figure 6), the check needs at most three
//! shadow loads regardless of `N`:
//!
//! 1. **fast check** — the prefix folded segment at `m[L/8]` alone covers the
//!    region (the common case: folds cover > 50 % of any safe run);
//! 2. **slow check** — otherwise validate that the prefix covers at least
//!    half, that a suffix folded segment of the same degree ends at the last
//!    segment boundary, and that the trailing partial segment has enough
//!    addressable bytes.

use giantsan_shadow::{Addr, ShadowMemory, SEGMENT_SIZE};

use crate::encoding::{addressable_bytes, exposed_bytes, exposes_prefix, GOOD};

/// Where and why a region check failed: the shadow code observed and the
/// first address it implicates. The sanitizer maps this to an
/// [`giantsan_runtime::ErrorReport`] via [`crate::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadSpot {
    /// Address at which the violation is reported.
    pub addr: Addr,
    /// Shadow code that triggered the report.
    pub code: u8,
}

/// Which path admitted the region (drives the Figure 10 breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckPath {
    /// The single-load fast check sufficed.
    Fast,
    /// The slow check (up to three loads) ran.
    Slow,
}

/// Outcome of a region check: path taken plus shadow loads performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Path that decided the verdict.
    pub path: CheckPath,
    /// Number of shadow bytes loaded.
    pub loads: u32,
}

impl CheckOutcome {
    fn fast(loads: u32) -> Self {
        CheckOutcome {
            path: CheckPath::Fast,
            loads,
        }
    }

    fn slow(loads: u32) -> Self {
        CheckOutcome {
            path: CheckPath::Slow,
            loads,
        }
    }
}

/// Algorithm 1: checks the segment-aligned region `[l, r)` in O(1).
///
/// `l` must be segment aligned (the paper's precondition, guaranteed by the
/// 8-byte alignment strategy when anchoring at object bases). `r` is
/// arbitrary.
///
/// # Errors
///
/// Returns the offending [`BadSpot`] if any byte of `[l, r)` may be
/// non-addressable.
///
/// # Panics
///
/// Panics in debug builds if `l` is unaligned or `r < l`.
pub fn check_region_aligned(
    shadow: &ShadowMemory,
    l: Addr,
    r: Addr,
) -> Result<CheckOutcome, (BadSpot, CheckOutcome)> {
    debug_assert!(l.is_segment_aligned(), "CI precondition: L ≡ 0 (mod 8)");
    debug_assert!(l <= r);
    let len = r - l;
    if len == 0 {
        return Ok(CheckOutcome::fast(0));
    }
    // Line 1: v = m[L/8]; line 2: u = (v ≤ 64) << (67 − v).
    let v = load(shadow, l);
    let u = addressable_bytes(v);
    // Line 3 (fast check): the prefix fold covers the whole region.
    if u >= len {
        return Ok(CheckOutcome::fast(1));
    }
    let mut loads = 1;
    if len >= SEGMENT_SIZE {
        // Line 5: the prefix must cover at least half of the region.
        if 2 * u < len {
            let spot = BadSpot {
                addr: l.offset(u as i64),
                code: v,
            };
            return Err((spot, CheckOutcome::slow(loads)));
        }
        // Line 8: a suffix folded segment of the same degree must end at the
        // last segment boundary of the region.
        let suffix = Addr::new(align_down_u(r.raw() - u));
        loads += 1;
        let sv = load(shadow, suffix);
        if sv != v {
            let spot = BadSpot {
                addr: suffix,
                code: sv,
            };
            return Err((spot, CheckOutcome::slow(loads)));
        }
    }
    // Line 12: the trailing partial segment must expose ≥ R mod 8 bytes.
    let tail_bytes = (r.raw() & (SEGMENT_SIZE - 1)) as u8;
    if tail_bytes != 0 {
        loads += 1;
        let last = Addr::new(align_down_u(r.raw() - 1));
        let tv = load(shadow, last);
        if !exposes_prefix(tv, tail_bytes) {
            let spot = BadSpot {
                addr: last,
                code: tv,
            };
            return Err((spot, CheckOutcome::slow(loads)));
        }
    }
    Ok(CheckOutcome::slow(loads))
}

/// General region check for possibly-unaligned `l`: one extra load validates
/// the leading partial segment, then Algorithm 1 takes over — still O(1).
///
/// Used for underflow checks like `CI(y + 4j, y)` (Figure 9 line 10), whose
/// left edge is not anchored at an object base.
///
/// # Errors
///
/// Returns the offending [`BadSpot`] if any byte of `[l, r)` may be
/// non-addressable.
pub fn check_region(
    shadow: &ShadowMemory,
    l: Addr,
    r: Addr,
) -> Result<CheckOutcome, (BadSpot, CheckOutcome)> {
    debug_assert!(l <= r);
    if l.is_segment_aligned() {
        return check_region_aligned(shadow, l, r);
    }
    if l == r {
        return Ok(CheckOutcome::fast(0));
    }
    // Leading unaligned fragment: bytes [l, seg_end) of l's segment. The
    // addressable bytes of a segment always form a prefix, so the fragment is
    // safe iff the segment exposes at least (fragment end − segment base)
    // bytes.
    let seg_base = Addr::new(align_down_u(l.raw()));
    let seg_end = seg_base + SEGMENT_SIZE;
    let upto = r.min(seg_end);
    let needed = (upto - seg_base) as u8;
    let v = load(shadow, l);
    // Folded segments expose all 8 bytes; k-partial segments expose k.
    // `v ≤ 72 − needed` covers both by monotonicity.
    if !exposes_prefix(v, needed) {
        let spot = BadSpot { addr: l, code: v };
        return Err((spot, CheckOutcome::slow(1)));
    }
    if upto == r {
        return Ok(CheckOutcome::fast(1));
    }
    match check_region_aligned(shadow, seg_end, r) {
        Ok(o) => Ok(CheckOutcome {
            path: o.path,
            loads: o.loads + 1,
        }),
        Err((spot, o)) => Err((
            spot,
            CheckOutcome {
                path: o.path,
                loads: o.loads + 1,
            },
        )),
    }
}

/// Checks a small instruction-level access of `width ≤ 8` bytes at `addr`
/// with a single load when the access stays within one segment.
///
/// # Errors
///
/// Returns the offending [`BadSpot`] if the access may touch a
/// non-addressable byte.
pub fn check_small(
    shadow: &ShadowMemory,
    addr: Addr,
    width: u32,
) -> Result<CheckOutcome, (BadSpot, CheckOutcome)> {
    debug_assert!(width <= 8);
    let off = addr.segment_offset();
    if off + width as u64 <= SEGMENT_SIZE {
        let needed = (off + width as u64) as u8;
        let v = load(shadow, addr);
        if !exposes_prefix(v, needed) {
            let spot = BadSpot { addr, code: v };
            return Err((spot, CheckOutcome::fast(1)));
        }
        Ok(CheckOutcome::fast(1))
    } else {
        check_region(shadow, addr, addr.offset(width as i64))
    }
}

/// Linear walk over `[l, r)` reporting the first non-addressable byte.
///
/// This is the blame scan the sanitizer runs after the O(1) check fails (to
/// pin the exact offending byte) and the oracle the property tests compare
/// the O(1) checkers against. It is word-wide: one leading-segment probe,
/// then a `u64`-chunked [`ShadowMemory::first_ge`] sweep for the first
/// segment that is not fully exposed — eight segments per step instead of a
/// shadow load per segment. Byte-identical to
/// [`check_region_bytewise_reference`] (enforced by differential tests).
pub fn check_region_bytewise(shadow: &ShadowMemory, l: Addr, r: Addr) -> Result<(), BadSpot> {
    if l >= r {
        return Ok(());
    }
    if shadow.try_segment_of(l).is_none() && l < shadow.segment_base(0) {
        // Below the shadowed space: segment indexes would underflow, and the
        // region starts unallocated anyway. The reference walk handles it.
        return check_region_bytewise_reference(shadow, l, r);
    }
    // Leading segment: its addressable bytes form a prefix, so `[l, r)` is
    // covered up to `min(r, segment base + exposed)`.
    let v = load(shadow, l);
    let exposed = exposed_bytes(v);
    if l.segment_offset() >= exposed {
        return Err(BadSpot { addr: l, code: v });
    }
    let seg_base = Addr::new(align_down_u(l.raw()));
    let covered = r.min(seg_base + exposed);
    if covered < r && covered.segment() == seg_base.segment() {
        return Err(BadSpot {
            addr: covered,
            code: v,
        });
    }
    let a = seg_base + SEGMENT_SIZE;
    if a >= r {
        return Ok(());
    }
    // Interior segments `[a, align_down(r-1))` must all be fully exposed
    // (code <= GOOD): scan word-wide for the first that is not. The final
    // segment only needs `r mod 8` bytes, so it is checked separately.
    let lo = shadow.segment_of(a);
    let last = shadow.segment_of(Addr::new(align_down_u(r.raw() - 1)));
    if let Some(bad) = shadow.first_ge(lo, last, GOOD + 1) {
        let code = shadow.get(bad);
        // The exposed prefix of the offending segment ends strictly inside
        // it; the byte right after is the first bad one.
        return Err(BadSpot {
            addr: shadow.segment_base(bad) + exposed_bytes(code),
            code,
        });
    }
    let tail_code = shadow.get(last);
    let tail_exposed = exposed_bytes(tail_code);
    if tail_exposed < r - shadow.segment_base(last) {
        return Err(BadSpot {
            addr: shadow.segment_base(last) + tail_exposed,
            code: tail_code,
        });
    }
    Ok(())
}

/// Byte-at-a-time reference for [`check_region_bytewise`]: the pre-scanner
/// implementation, kept as the differential-testing baseline.
pub fn check_region_bytewise_reference(
    shadow: &ShadowMemory,
    l: Addr,
    r: Addr,
) -> Result<(), BadSpot> {
    let mut a = l;
    while a < r {
        let v = load(shadow, a);
        let exposed = exposed_bytes(v);
        let off = a.segment_offset();
        if off >= exposed {
            return Err(BadSpot { addr: a, code: v });
        }
        // Skip to the end of the exposed prefix or the region end.
        let seg_base = Addr::new(align_down_u(a.raw()));
        a = r.min(seg_base + exposed);
        if a < r && a.segment() == seg_base.segment() {
            // Exposed prefix ends inside the segment: the next byte is bad.
            return Err(BadSpot { addr: a, code: v });
        }
    }
    Ok(())
}

#[inline]
fn load(shadow: &ShadowMemory, addr: Addr) -> u8 {
    match shadow.try_segment_of(addr) {
        Some(seg) => shadow.get(seg),
        None => shadow.fill_byte(),
    }
}

#[inline]
const fn align_down_u(v: u64) -> u64 {
    v & !(SEGMENT_SIZE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{self, UNALLOCATED};
    use crate::poison::poison_object;
    use giantsan_shadow::AddressSpace;

    /// Sets the segments of the aligned range `[start, start + len)` to
    /// `code`.
    fn poison_range(shadow: &mut ShadowMemory, start: Addr, len: u64, code: u8) {
        let lo = shadow.segment_of(start);
        shadow.set_range(lo, lo + len / 8, code);
    }

    /// Builds a shadow with one object of `size` bytes at offset 64, with
    /// 16-byte redzones around it.
    fn world(size: u64) -> (Addr, ShadowMemory) {
        let space = AddressSpace::new(0x1_0000, 1 << 16);
        let mut shadow = ShadowMemory::new(&space, UNALLOCATED);
        let base = space.lo() + 64;
        poison_range(&mut shadow, base - 16, 16, encoding::HEAP_LEFT_REDZONE);
        poison_object(&mut shadow, base, size);
        let rz_start = base + giantsan_shadow::align_up(size, 8);
        poison_range(&mut shadow, rz_start, 16, encoding::HEAP_RIGHT_REDZONE);
        (base, shadow)
    }

    #[test]
    fn whole_object_check_is_fast_and_constant() {
        for size in [8u64, 64, 1024, 65536 / 4] {
            let (base, shadow) = world(size);
            let out = check_region_aligned(&shadow, base, base.offset(size as i64)).unwrap();
            assert!(out.loads <= 3, "size {size}: {} loads", out.loads);
        }
    }

    #[test]
    fn one_kilobyte_region_needs_one_load_not_128() {
        // The paper's motivating example (§1): ASan loads 128 shadow bytes
        // for a 1 KiB region; a folded prefix answers in one.
        let (base, shadow) = world(1024);
        let out = check_region_aligned(&shadow, base, base + 1024).unwrap();
        assert_eq!(out.path, CheckPath::Fast);
        assert_eq!(out.loads, 1);
    }

    #[test]
    fn overflow_detected_at_every_size() {
        for size in [1u64, 7, 8, 12, 100, 1000, 4096] {
            let (base, shadow) = world(size);
            // One byte past the end must fail.
            let r = base.offset(size as i64 + 1);
            assert!(
                check_region_aligned(&shadow, base, r).is_err(),
                "size {size} overflow missed"
            );
            // The exact size must pass.
            assert!(
                check_region_aligned(&shadow, base, base.offset(size as i64)).is_ok(),
                "size {size} false positive"
            );
        }
    }

    #[test]
    fn interior_regions_pass() {
        let (base, shadow) = world(256);
        for (lo, hi) in [(0i64, 1), (8, 16), (40, 200), (248, 256), (0, 255)] {
            assert!(
                check_region(&shadow, base.offset(lo), base.offset(hi)).is_ok(),
                "[{lo},{hi}) rejected"
            );
        }
    }

    #[test]
    fn unaligned_left_edge() {
        let (base, shadow) = world(64);
        assert!(check_region(&shadow, base.offset(3), base.offset(64)).is_ok());
        assert!(check_region(&shadow, base.offset(3), base.offset(65)).is_err());
        assert!(check_region(&shadow, base.offset(61), base.offset(64)).is_ok());
        assert!(check_region(&shadow, base.offset(-3), base.offset(4)).is_err());
        // Zero-length unaligned region is trivially fine.
        assert!(check_region(&shadow, base.offset(3), base.offset(3)).is_ok());
    }

    #[test]
    fn unaligned_within_partial_segment() {
        // Object of 13 bytes: one good segment + 5-partial.
        let (base, shadow) = world(13);
        assert!(check_region(&shadow, base.offset(9), base.offset(13)).is_ok());
        assert!(check_region(&shadow, base.offset(9), base.offset(14)).is_err());
        assert!(check_region(&shadow, base.offset(12), base.offset(13)).is_ok());
        assert!(check_region(&shadow, base.offset(13), base.offset(14)).is_err());
    }

    #[test]
    fn matches_bytewise_oracle_exhaustively() {
        // Every (size, lo, hi) on a small object: O(1) verdict == oracle.
        for size in 1..=96u64 {
            let (base, shadow) = world(size);
            for lo in 0..=(size + 24) {
                for hi in lo..=(size + 24) {
                    let l = base.offset(lo as i64 - 8);
                    let r = base.offset(hi as i64 - 8);
                    let fast = check_region(&shadow, l, r).is_ok();
                    let oracle = check_region_bytewise(&shadow, l, r).is_ok();
                    assert_eq!(
                        fast,
                        oracle,
                        "size={size} region=[{}, {}) disagree",
                        lo as i64 - 8,
                        hi as i64 - 8
                    );
                }
            }
        }
    }

    #[test]
    fn small_access_checks() {
        let (base, shadow) = world(16);
        assert!(check_small(&shadow, base, 8).is_ok());
        assert!(check_small(&shadow, base.offset(8), 8).is_ok());
        assert!(check_small(&shadow, base.offset(12), 4).is_ok());
        assert!(check_small(&shadow, base.offset(13), 4).is_err());
        assert!(check_small(&shadow, base.offset(16), 1).is_err());
        // Straddling access within the object.
        assert!(check_small(&shadow, base.offset(6), 4).is_ok());
    }

    #[test]
    fn freed_region_reported_with_freed_code() {
        let (base, mut shadow) = world(64);
        poison_range(&mut shadow, base, 64, encoding::FREED);
        let (spot, _) = check_region_aligned(&shadow, base, base + 8).unwrap_err();
        assert_eq!(spot.code, encoding::FREED);
        assert_eq!(spot.addr.segment(), base.segment());
    }

    #[test]
    fn wild_addresses_fail_as_unallocated() {
        let (_, shadow) = world(64);
        let wild = Addr::new(0x10);
        let (spot, _) = check_region(&shadow, wild, wild + 8).unwrap_err();
        assert_eq!(spot.code, UNALLOCATED);
    }

    #[test]
    fn fast_check_covers_majority_of_prefix_regions() {
        // For regions starting at the object base, the fold at the base
        // covers > 50% of the object, so more than half the possible region
        // lengths take the fast path (the paper's coverage argument).
        let (base, shadow) = world(4096);
        let mut fast = 0;
        let total = 4096 / 8;
        for segs in 1..=total {
            let out = check_region_aligned(&shadow, base, base + segs * 8).unwrap();
            if out.path == CheckPath::Fast {
                fast += 1;
            }
        }
        assert!(fast * 2 > total, "fast {fast}/{total}");
    }

    #[test]
    fn suffix_mismatch_detects_holes() {
        // Two objects adjacent modulo redzones: a region spanning the gap
        // must fail even though both ends are addressable.
        let space = AddressSpace::new(0x1_0000, 1 << 14);
        let mut shadow = ShadowMemory::new(&space, UNALLOCATED);
        let a = space.lo();
        poison_object(&mut shadow, a, 64);
        poison_range(&mut shadow, a + 64, 16, encoding::HEAP_RIGHT_REDZONE);
        poison_object(&mut shadow, a + 80, 64);
        assert!(check_region_aligned(&shadow, a, a + 144).is_err());
        assert!(check_region_aligned(&shadow, a, a + 64).is_ok());
        assert!(check_region_aligned(&shadow, a + 80, a + 144).is_ok());
    }

    #[test]
    fn zero_length_region_is_free() {
        let (base, shadow) = world(8);
        let out = check_region_aligned(&shadow, base, base).unwrap();
        assert_eq!(out.loads, 0);
    }

    #[test]
    fn scan_walk_is_byte_identical_to_reference() {
        // The word-wide blame scan must return the exact same Result —
        // including the BadSpot address and code — as the byte-at-a-time
        // reference, across sizes, offsets, freed runs, and wild pointers.
        for size in 1..=96u64 {
            let (base, shadow) = world(size);
            for lo in 0..=(size + 24) {
                for hi in lo..=(size + 24) {
                    let l = base.offset(lo as i64 - 8);
                    let r = base.offset(hi as i64 - 8);
                    assert_eq!(
                        check_region_bytewise(&shadow, l, r),
                        check_region_bytewise_reference(&shadow, l, r),
                        "size={size} region=[{}, {})",
                        lo as i64 - 8,
                        hi as i64 - 8
                    );
                }
            }
        }
        // Freed interior: blame lands on the first freed segment.
        let (base, mut shadow) = world(128);
        poison_range(&mut shadow, base + 40, 24, encoding::FREED);
        for (lo, hi) in [(0i64, 128), (0, 48), (40, 64), (32, 41), (63, 64)] {
            assert_eq!(
                check_region_bytewise(&shadow, base.offset(lo), base.offset(hi)),
                check_region_bytewise_reference(&shadow, base.offset(lo), base.offset(hi)),
                "freed [{lo},{hi})"
            );
        }
        // Wild-low pointer delegates to the reference path.
        let wild = Addr::new(0x10);
        assert_eq!(
            check_region_bytewise(&shadow, wild, wild + 64),
            check_region_bytewise_reference(&shadow, wild, wild + 64),
        );
        // Region running past the shadowed space (fill tail).
        let past = base.offset(1 << 17);
        assert_eq!(
            check_region_bytewise(&shadow, base, past),
            check_region_bytewise_reference(&shadow, base, past),
        );
    }
}
