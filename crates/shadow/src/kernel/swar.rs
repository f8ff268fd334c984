//! The `swar` kernel: clean 64-byte blocks skipped by a vectorisable fold,
//! then SIMD-within-a-register, eight bytes per `u64` step.
//!
//! Each scan runs in two stages. The *block prefix* folds every whole
//! 64-byte block into one boolean (`first_ne`, `all_eq`: every byte equals
//! the probe; `first_ge`: the largest decoded byte is below the threshold)
//! and skips the blocks with no hit. The fold has no early exit and no
//! index bookkeeping, so the compiler vectorises it to the target's
//! baseline vector ISA (SSE2 on x86-64) with no intrinsics and no feature
//! detection. This is the shape of compiler-rt's `mem_is_zero`, an OR
//! reduction over a whole region, which ASan's `__asan_region_is_poisoned`
//! checks a region with. The *word loop* then starts at the first block with
//! a hit (or at the tail) and locates it exactly, with exact SWAR predicates
//! from the classic bit-twiddling repertoire: each predicate is a
//! word-level boolean ("does this word contain a hit?"), and the hit word is
//! re-scanned by byte to extract the index. That split keeps the fast path
//! branch-light without giving up byte-precise answers, and sidesteps the
//! borrow-propagation subtleties of per-byte SWAR masks.
//!
//! Endianness: words are loaded with `from_le_bytes`, so `trailing_zeros`
//! maps to the lowest-indexed byte on any host.

use super::folded_runs;

/// Width of a block the prefix skips whole: one cache line.
const BLOCK: usize = 64;

/// `0x0101…01`: a 1 in every byte lane.
const LSB: u64 = u64::from_le_bytes([1; 8]);
/// `0x8080…80`: the sign bit of every byte lane.
const MSB: u64 = u64::from_le_bytes([0x80; 8]);

/// Loads a `u64` from an 8-byte chunk (little-endian lane order).
#[inline]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"))
}

/// Splats `byte` across all eight lanes.
#[inline]
fn splat(byte: u8) -> u64 {
    LSB * byte as u64
}

/// Length of the longest prefix of `s` made of whole [`BLOCK`]s that
/// `clean` accepts: the bytes a scan may skip without looking further.
#[inline]
fn clean_prefix(s: &[u8], clean: impl Fn(&[u8; BLOCK]) -> bool) -> usize {
    let (blocks, _) = s.as_chunks::<BLOCK>();
    blocks.iter().take_while(|b| clean(b)).count() * BLOCK
}

/// Whether every byte of `block` equals `byte`.
#[inline]
fn block_all_eq(block: &[u8; BLOCK], byte: u8) -> bool {
    block.iter().fold(true, |all, &b| all & (b == byte))
}

/// Exact word-level boolean: does `x` contain a byte strictly greater than
/// `n`?
///
/// The SWAR `hasmore` identity requires `n <= 127`; larger `n` routes to a
/// byte loop, so the predicate is exact for *every* `n` — release builds
/// included. (Earlier revisions only `debug_assert!`ed the precondition,
/// leaving release builds one unguarded call away from false negatives.)
#[inline]
fn has_byte_gt(x: u64, n: u8) -> bool {
    if n >= 128 {
        // wrapping_add(splat(127 - n)) underflows its precondition; fall
        // back to the exact byte comparison.
        return x.to_le_bytes().into_iter().any(|b| b > n);
    }
    (x.wrapping_add(splat(127 - n)) | x) & MSB != 0
}

pub(super) fn first_ne(s: &[u8], byte: u8) -> Option<usize> {
    let skip = clean_prefix(s, |b| block_all_eq(b, byte));
    first_ne_words(&s[skip..], byte).map(|i| skip + i)
}

fn first_ne_words(s: &[u8], byte: u8) -> Option<usize> {
    let pattern = splat(byte);
    let mut chunks = s.chunks_exact(8);
    for (w, chunk) in chunks.by_ref().enumerate() {
        let x = word(chunk) ^ pattern;
        if x != 0 {
            return Some(w * 8 + x.trailing_zeros() as usize / 8);
        }
    }
    let base = s.len() & !7;
    chunks
        .remainder()
        .iter()
        .position(|&b| b != byte)
        .map(|i| base + i)
}

pub(super) fn all_eq(s: &[u8], byte: u8) -> bool {
    // A dedicated loop (rather than `first_ne(..).is_none()`) lets the
    // compiler drop the index bookkeeping entirely.
    let skip = clean_prefix(s, |b| block_all_eq(b, byte));
    let s = &s[skip..];
    let pattern = splat(byte);
    let mut chunks = s.chunks_exact(8);
    for chunk in chunks.by_ref() {
        if word(chunk) != pattern {
            return false;
        }
    }
    chunks.remainder().iter().all(|&b| b == byte)
}

pub(super) fn first_ge(s: &[u8], threshold: u8, key: u8) -> Option<usize> {
    if threshold == 0 {
        // Every byte qualifies.
        return if s.is_empty() { None } else { Some(0) };
    }
    let skip = clean_prefix(s, |b| {
        b.iter().fold(0, |max, &x| max.max(x ^ key)) < threshold
    });
    first_ge_words(&s[skip..], threshold, key).map(|i| skip + i)
}

fn first_ge_words(s: &[u8], threshold: u8, key: u8) -> Option<usize> {
    let key_word = splat(key);
    let mut chunks = s.chunks_exact(8);
    for (w, chunk) in chunks.by_ref().enumerate() {
        let x = word(chunk) ^ key_word;
        // Word-level test, exact and false-negative-free in both arms:
        // * threshold <= 128: `b >= t` ⇔ `b > t-1`, and `has_byte_gt` is
        //   exact for n = t-1 <= 127;
        // * threshold > 128: only bytes with the sign bit set can qualify,
        //   so `x & MSB != 0` over-approximates and the byte re-scan settles
        //   it (false positives cost one 8-byte loop, never correctness).
        let hit = if threshold <= 128 {
            has_byte_gt(x, threshold - 1)
        } else {
            x & MSB != 0
        };
        if hit {
            if let Some(i) = chunk.iter().position(|&b| b ^ key >= threshold) {
                return Some(w * 8 + i);
            }
        }
    }
    let base = s.len() & !7;
    chunks
        .remainder()
        .iter()
        .position(|&b| b ^ key >= threshold)
        .map(|i| base + i)
}

pub(super) fn fill(dst: &mut [u8], byte: u8) {
    // `slice::fill` on `u8` lowers to `memset`, which is already word-wide
    // (or better); that IS the swar-tier bulk write.
    dst.fill(byte);
}

pub(super) fn write_folded_run(dst: &mut [u8], key: u8) {
    folded_runs(dst.len() as u64, |lo, hi, code| {
        dst[lo as usize..hi as usize].fill(code ^ key);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_byte_gt_is_exact_for_every_n() {
        // The regression the promoted guard pins: n >= 128 used to be a
        // debug_assert, so release builds silently computed garbage.
        let samples = [
            0u64,
            u64::MAX,
            word(&[0, 10, 127, 128, 200, 250, 255, 3]),
            word(&[128; 8]),
            word(&[127; 8]),
            word(&[0, 0, 0, 0, 0, 0, 0, 255]),
            word(&[129, 0, 0, 0, 0, 0, 0, 0]),
            0x8000_0000_0000_0000,
            0x0101_0101_0101_0101,
        ];
        for x in samples {
            for n in 0..=u8::MAX {
                let expect = x.to_le_bytes().into_iter().any(|b| b > n);
                assert_eq!(has_byte_gt(x, n), expect, "x={x:#018x} n={n}");
            }
        }
    }

    #[test]
    fn has_byte_gt_255_is_never_true() {
        assert!(!has_byte_gt(u64::MAX, 255));
        assert!(!has_byte_gt(0, 255));
    }
}
