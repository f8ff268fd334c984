//! Linear-time shadow poisoning with the binary folding pattern (§4.1).
//!
//! An allocated object of `q` full segments is summarised by giving segment
//! `j` the folding degree `⌊log2(q − j)⌋`: one `(t)`-folded segment, then
//! runs of `2^i` consecutive `(i)`-folded segments down to a single
//! `(0)`-folded segment (Figure 5 of the paper). A trailing `size mod 8`
//! bytes become one *k*-partial segment.
//!
//! The writer fills the pattern run-by-run, touching each shadow byte exactly
//! once — the same linear cost as ASan's `memset`-style poisoning — through
//! the active [`giantsan_shadow::kernel`] backend's `write_folded_run`
//! (word-at-a-time on the `swar` and `simd` backends).

use giantsan_shadow::{kernel, Addr, ShadowMemory, SEGMENT_SIZE};

use crate::encoding::{folded, partial};

/// Computes the folding degree of segment `j` out of `q` good segments:
/// `⌊log2(q − j)⌋`, capped at [`crate::encoding::MAX_DEGREE`].
///
/// The canonical definition lives in [`giantsan_shadow::codes::degree_at`]
/// (next to the codes it indexes and the kernels that write it); this is a
/// re-export for the checkers and validators in this crate.
///
/// # Panics
///
/// Panics if `j >= q`.
///
/// # Example
///
/// ```
/// use giantsan_core::poison::degree_at;
/// // Figure 5: an object with 8 full segments.
/// let degrees: Vec<u32> = (0..8).map(|j| degree_at(8, j)).collect();
/// assert_eq!(degrees, [3, 2, 2, 2, 2, 1, 1, 0]);
/// ```
pub use giantsan_shadow::codes::degree_at;

/// Poisons the shadow of an object's user region `[base, base + size)` with
/// the canonical folding pattern.
///
/// `base` must be segment aligned (the runtime guarantees it). Returns the
/// number of shadow bytes written, which the caller adds to its poisoning
/// counters.
///
/// # Panics
///
/// Panics if `base` is not segment aligned.
pub fn poison_object(shadow: &mut ShadowMemory, base: Addr, size: u64) -> u64 {
    assert!(base.is_segment_aligned(), "object base must be 8-aligned");
    if size == 0 {
        return 0;
    }
    let first = shadow.segment_of(base);
    let q = size / SEGMENT_SIZE;
    let rem = (size % SEGMENT_SIZE) as u32;
    let mut written = 0;

    if q > 0 {
        // The run decomposition (segment j has degree ⌊log2(q − j)⌋, so the
        // degree-d segments form one contiguous run) and the fill width both
        // live in the kernel backend now.
        kernel::active().write_folded_run(shadow.slice_mut(first, first + q));
        written += q;
    }
    if rem > 0 {
        shadow.set(first + q, partial(rem));
        written += 1;
    }
    written
}

/// Sets every segment overlapping `[start, start + len)` to `code`
/// (redzones, freed, unallocated). Returns shadow bytes written.
///
/// `start` and `len` must be segment aligned, which holds for all block and
/// redzone boundaries produced by the runtime.
///
/// # Panics
///
/// Panics if the range is not segment aligned.
pub fn poison_range(shadow: &mut ShadowMemory, start: Addr, len: u64, code: u8) -> u64 {
    assert!(start.is_segment_aligned() && len.is_multiple_of(SEGMENT_SIZE));
    if len == 0 {
        return 0;
    }
    let lo = shadow.segment_of(start);
    let hi = lo + len / SEGMENT_SIZE;
    shadow.set_range(lo, hi, code);
    hi - lo
}

/// Reference (quadratic) poisoner used by tests and benchmarks to validate
/// the run-based writer: computes each segment's degree independently.
pub fn poison_object_reference(shadow: &mut ShadowMemory, base: Addr, size: u64) -> u64 {
    assert!(base.is_segment_aligned());
    if size == 0 {
        return 0;
    }
    let first = shadow.segment_of(base);
    let q = size / SEGMENT_SIZE;
    let rem = (size % SEGMENT_SIZE) as u32;
    for j in 0..q {
        shadow.set(first + j, folded(degree_at(q, j)));
    }
    if rem > 0 {
        shadow.set(first + q, partial(rem));
    }
    q + u64::from(rem > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding;
    use giantsan_shadow::AddressSpace;

    fn fresh(segments: u64) -> (AddressSpace, ShadowMemory) {
        let space = AddressSpace::new(0x1_0000, segments * SEGMENT_SIZE);
        let shadow = ShadowMemory::new(&space, encoding::UNALLOCATED);
        (space, shadow)
    }

    #[test]
    fn figure_5_pattern() {
        // Object of 68 bytes: shadow (3)(2)(2)(2)(2)(1)(1)(0) 4-part.
        let (space, mut shadow) = fresh(32);
        let n = poison_object(&mut shadow, space.lo(), 68);
        assert_eq!(n, 9);
        let expect = [61, 62, 62, 62, 62, 63, 63, 64, 68];
        assert_eq!(shadow.slice(0, 9), &expect);
        assert_eq!(shadow.get(9), encoding::UNALLOCATED);
    }

    #[test]
    fn matches_reference_for_all_small_sizes() {
        for size in 1..=2048u64 {
            let (space, mut a) = fresh(512);
            let (_, mut b) = fresh(512);
            let wa = poison_object(&mut a, space.lo(), size);
            let wb = poison_object_reference(&mut b, space.lo(), size);
            assert_eq!(wa, wb, "written count for size {size}");
            assert_eq!(
                a.slice(0, 300),
                b.slice(0, 300),
                "pattern mismatch for size {size}"
            );
        }
    }

    #[test]
    fn tiny_objects() {
        let (space, mut shadow) = fresh(8);
        assert_eq!(poison_object(&mut shadow, space.lo(), 0), 0);
        poison_object(&mut shadow, space.lo(), 1);
        assert_eq!(shadow.get(0), partial(1));
        poison_object(&mut shadow, space.lo(), 8);
        assert_eq!(shadow.get(0), folded(0));
        poison_object(&mut shadow, space.lo(), 9);
        assert_eq!(shadow.get(0), folded(0));
        assert_eq!(shadow.get(1), partial(1));
    }

    #[test]
    fn power_of_two_counts() {
        // 2^i consecutive (i)-folded segments (paper §4.1).
        let (space, mut shadow) = fresh(64);
        poison_object(&mut shadow, space.lo(), 32 * 8);
        let mut counts = std::collections::HashMap::new();
        for s in 0..32 {
            *counts.entry(shadow.get(s)).or_insert(0u64) += 1;
        }
        assert_eq!(counts[&folded(5)], 1);
        assert_eq!(counts[&folded(4)], 16);
        assert_eq!(counts[&folded(3)], 8);
        assert_eq!(counts[&folded(2)], 4);
        assert_eq!(counts[&folded(1)], 2);
        assert_eq!(counts[&folded(0)], 1);
    }

    #[test]
    fn degree_claims_never_exceed_object() {
        // Soundness: the fold claimed by segment j must stay inside [j, q).
        for q in 1..=512u64 {
            for j in 0..q {
                let d = degree_at(q, j);
                assert!(j + (1 << d) <= q, "q={q} j={j} d={d} overclaims");
            }
        }
    }

    #[test]
    fn degree_claims_are_tight() {
        // ⌊log2⌋ claims more than half of the remaining run (the paper's
        // "> 50%" fast-check coverage argument).
        for q in 1..=512u64 {
            for j in 0..q {
                let d = degree_at(q, j);
                assert!(2u64 << d > q - j, "q={q} j={j} claim not tight");
            }
        }
    }

    #[test]
    fn poison_range_sets_codes() {
        let (space, mut shadow) = fresh(16);
        let n = poison_range(&mut shadow, space.lo() + 16, 32, encoding::FREED);
        assert_eq!(n, 4);
        assert_eq!(shadow.get(1), encoding::UNALLOCATED);
        assert_eq!(shadow.get(2), encoding::FREED);
        assert_eq!(shadow.get(5), encoding::FREED);
        assert_eq!(shadow.get(6), encoding::UNALLOCATED);
        assert_eq!(poison_range(&mut shadow, space.lo(), 0, encoding::FREED), 0);
    }

    #[test]
    fn monotone_within_object() {
        // Codes are non-decreasing across an object's segments: deeper folds
        // come first.
        let (space, mut shadow) = fresh(300);
        poison_object(&mut shadow, space.lo(), 2000);
        let segs = 2000 / 8;
        for s in 1..segs {
            assert!(shadow.get(s) >= shadow.get(s - 1));
        }
    }
}
