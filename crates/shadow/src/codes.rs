//! The folded-code algebra (paper §4.1 Definition 1, §4.2): encode, decode,
//! and the single-comparison prefix test, in one place.
//!
//! One 8-bit unsigned code per 8-byte segment:
//!
//! | code     | meaning                                                            |
//! |----------|--------------------------------------------------------------------|
//! | `64 − i` | *(i)-folded* segment: the next `2^i` segments are all addressable  |
//! | `72 − k` | *k-partial* segment: only its first `k` bytes (1 ≤ k ≤ 7) are addressable |
//! | `> 72`   | error codes (redzones, freed, unallocated — named by the codec)    |
//!
//! The encoding is *monotone*: a smaller code means more consecutive
//! addressable bytes follow, so "does this segment expose at least `n` bytes?"
//! is the single comparison `m[p] ≤ 72 − n`, and "is it at least
//! (x)-folded?" is `m[p] ≤ 64 − x`.
//!
//! These helpers are the one shared implementation of the fast-check decode
//! `u = (v ≤ 64) << (67 − v)` and its relatives: the O(1) region checker and
//! the word-wide blame scan in `giantsan-core` both call through here instead
//! of re-deriving the bit trick (the `giantsan-core::encoding` module
//! re-exports everything and adds the error-code *policy* — which code means
//! redzone, freed, and so on).

/// Code of a plain "good" segment — a (0)-folded segment summarising itself.
pub const GOOD: u8 = 64;

/// Largest folding degree the codec will emit.
///
/// The paper bounds the degree by 64 (object sizes < 2^64); we cap at 60 so
/// that the decode shift `67 − code` stays below 64 and the decoded byte
/// count fits in a `u64` without overflow. A degree-60 fold already covers
/// 8 · 2^60 bytes, far beyond any simulated object.
pub const MAX_DEGREE: u32 = 60;

/// Smallest folded code (`64 − MAX_DEGREE`).
pub const MIN_FOLDED: u8 = GOOD - MAX_DEGREE as u8;

/// First partial code (`7`-partial).
pub const PARTIAL_7: u8 = 65;

/// Last partial code (`1`-partial).
pub const PARTIAL_1: u8 = 71;

/// Returns the shadow code of an *(degree)*-folded segment.
///
/// # Panics
///
/// Panics if `degree > MAX_DEGREE`.
///
/// # Example
///
/// ```
/// use giantsan_shadow::codes::{folded, GOOD};
/// assert_eq!(folded(0), GOOD);
/// assert_eq!(folded(3), 61);
/// ```
pub const fn folded(degree: u32) -> u8 {
    assert!(degree <= MAX_DEGREE, "folding degree out of range");
    GOOD - degree as u8
}

/// Returns the shadow code of a *k*-partial segment.
///
/// # Panics
///
/// Panics if `k` is not in `1..=7`.
///
/// # Example
///
/// ```
/// use giantsan_shadow::codes::partial;
/// assert_eq!(partial(4), 68);
/// ```
pub const fn partial(k: u32) -> u8 {
    assert!(k >= 1 && k <= 7, "partial byte count out of range");
    72 - k as u8
}

/// Computes the folding degree of segment `j` out of `q` good segments:
/// `⌊log2(q − j)⌋`, capped at [`MAX_DEGREE`] (paper §4.1 Figure 5).
///
/// This is the one shared definition of the canonical poisoning pattern:
/// `giantsan-core::poison` delegates here, and both [`crate::kernel`]
/// tables' `write_folded_run` are verified against it.
///
/// # Panics
///
/// Panics if `j >= q`.
///
/// # Example
///
/// ```
/// use giantsan_shadow::codes::degree_at;
/// // Figure 5: an object with 8 full segments.
/// let degrees: Vec<u32> = (0..8).map(|j| degree_at(8, j)).collect();
/// assert_eq!(degrees, [3, 2, 2, 2, 2, 1, 1, 0]);
/// ```
pub const fn degree_at(q: u64, j: u64) -> u32 {
    assert!(j < q, "segment index beyond object");
    let remaining = q - j;
    let degree = 63 - remaining.leading_zeros();
    if degree < MAX_DEGREE {
        degree
    } else {
        MAX_DEGREE
    }
}

/// Extracts the folding degree of a folded code, or `None` otherwise.
pub const fn folding_degree(code: u8) -> Option<u32> {
    if code <= GOOD && code >= MIN_FOLDED {
        Some((GOOD - code) as u32)
    } else {
        None
    }
}

/// Extracts `k` from a *k*-partial code, or `None` otherwise.
pub const fn partial_bytes(code: u8) -> Option<u32> {
    if code >= PARTIAL_7 && code <= PARTIAL_1 {
        Some((72 - code) as u32)
    } else {
        None
    }
}

/// Returns `true` for error codes (`> 72`).
pub const fn is_error(code: u8) -> bool {
    code > 72
}

/// The paper's branch-free decode (§4.2): the number of addressable bytes
/// guaranteed to follow the *segment base* of a segment with this code —
/// `(code ≤ 64) << (67 − code)`, i.e. `8 · 2^degree` for folded segments and
/// `0` for everything else.
///
/// # Example
///
/// ```
/// use giantsan_shadow::codes::{addressable_bytes, folded, partial};
/// assert_eq!(addressable_bytes(folded(0)), 8);
/// assert_eq!(addressable_bytes(folded(5)), 8 << 5);
/// assert_eq!(addressable_bytes(partial(3)), 0);
/// assert_eq!(addressable_bytes(75), 0);
/// ```
#[inline]
pub const fn addressable_bytes(code: u8) -> u64 {
    if code <= GOOD {
        // Codes below MIN_FOLDED never occur; clamp defensively so the shift
        // cannot exceed 63 even on corrupted shadow.
        let shift = 67 - if code < MIN_FOLDED { MIN_FOLDED } else { code } as u32;
        1u64 << shift
    } else {
        0
    }
}

/// Number of addressable bytes a segment with this code exposes *within
/// itself*: 8 for folded codes, `k` for *k*-partial ones, 0 for errors.
///
/// # Example
///
/// ```
/// use giantsan_shadow::codes::{exposed_bytes, folded, partial};
/// assert_eq!(exposed_bytes(folded(9)), 8);
/// assert_eq!(exposed_bytes(partial(3)), 3);
/// assert_eq!(exposed_bytes(78), 0);
/// ```
#[inline]
pub const fn exposed_bytes(code: u8) -> u64 {
    if code <= GOOD {
        8
    } else if code <= PARTIAL_1 {
        (72 - code) as u64
    } else {
        0
    }
}

/// Does a segment with this code expose at least `needed` addressable bytes
/// (from its own base)? By monotonicity this is the single comparison
/// `code ≤ 72 − needed`, valid for `1 ≤ needed ≤ 8` — folded segments expose
/// all 8 bytes, *k*-partial ones expose `k`.
///
/// # Example
///
/// ```
/// use giantsan_shadow::codes::{exposes_prefix, folded, partial};
/// assert!(exposes_prefix(folded(0), 8));
/// assert!(exposes_prefix(partial(5), 5));
/// assert!(!exposes_prefix(partial(5), 6));
/// ```
#[inline]
pub const fn exposes_prefix(code: u8, needed: u8) -> bool {
    code <= 72 - needed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposed_prefix_agrees_with_exposed_bytes() {
        for code in 0..=u8::MAX {
            for needed in 1..=8u8 {
                assert_eq!(
                    exposes_prefix(code, needed),
                    exposed_bytes(code) >= needed as u64,
                    "code {code} needed {needed}"
                );
            }
        }
    }

    #[test]
    fn decode_is_the_paper_shift() {
        for degree in 0..=MAX_DEGREE {
            assert_eq!(addressable_bytes(folded(degree)), 8u64 << degree);
        }
    }
}
