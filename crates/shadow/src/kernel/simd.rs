//! The `simd` backend: explicit x86-64 vector scans, 16 (SSE2) or 32
//! (AVX2) bytes per step.
//!
//! Only the scans are vectorized. The bulk writers (`fill`,
//! `write_folded_run`) are the SWAR ones: the kernel sweep measured the
//! vector writers slower than SWAR at every region size (AVX2
//! `write_folded_run` 34 vs 26 ns at 1 KiB, 208 vs 81 ns at 64 KiB), and
//! `fill` is memset-bound on every backend.
//!
//! Both widths share one shape per scan: compare a full vector, extract a
//! per-lane bitmask with `movemask`, and let `trailing_zeros` name the first
//! hit lane — the vector analogue of the SWAR word-then-byte split, except
//! the mask is already byte-precise so no re-scan is needed. Unsigned `>=`
//! (which has no direct SSE/AVX compare) uses the max identity:
//! `b >= t ⇔ max_epu8(b, t) == b`, exact for **every** threshold including
//! `>= 128` — no sign-flip trick, no over-approximation. The keyed scan
//! XORs each loaded vector with the splatted key first, one more instruction
//! per step.
//!
//! Tails shorter than a vector fall through to the `swar` loops, so the two
//! backends trivially agree there.
//!
//! # Safety
//!
//! The AVX2 functions are `#[target_feature]` and reached only through the
//! [`AVX2`] table, which [`super::simd_resolved`] installs strictly after
//! `is_x86_feature_detected!("avx2")` succeeds. SSE2 is part of the x86-64
//! baseline, so [`SSE2`] needs no gate beyond the architecture itself. The
//! remaining `unsafe` is the unaligned vector loads, which are valid for any
//! `len >= width` slice region.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::{
    __m128i, __m256i, _mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_max_epu8, _mm256_movemask_epi8,
    _mm256_set1_epi8, _mm256_xor_si256, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_max_epu8,
    _mm_movemask_epi8, _mm_set1_epi8, _mm_xor_si128,
};

use super::{swar, Backend, Kernels};

/// Kernel table installed on AVX2-capable hosts.
pub(super) static AVX2: Kernels = Kernels {
    name: "simd-avx2",
    backend: Backend::Simd,
    first_ne: first_ne_avx2,
    first_ge: first_ge_avx2,
    all_eq: all_eq_avx2,
    fill: swar::fill,
    write_folded_run: swar::write_folded_run,
};

/// Kernel table installed on SSE2-only hosts.
pub(super) static SSE2: Kernels = Kernels {
    name: "simd-sse2",
    backend: Backend::Simd,
    first_ne: first_ne_sse2,
    first_ge: first_ge_sse2,
    all_eq: all_eq_sse2,
    fill: swar::fill,
    write_folded_run: swar::write_folded_run,
};

// ---------------------------------------------------------------- AVX2 ----

fn first_ne_avx2(s: &[u8], byte: u8) -> Option<usize> {
    // SAFETY: this table is only installed after the AVX2 CPUID probe.
    unsafe { first_ne_avx2_impl(s, byte) }
}

#[target_feature(enable = "avx2")]
unsafe fn first_ne_avx2_impl(s: &[u8], byte: u8) -> Option<usize> {
    unsafe {
        let pattern = _mm256_set1_epi8(byte as i8);
        let mut i = 0usize;
        while i + 32 <= s.len() {
            let v = _mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i);
            let mask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, pattern)) as u32;
            if mask != u32::MAX {
                return Some(i + (!mask).trailing_zeros() as usize);
            }
            i += 32;
        }
        swar::first_ne(&s[i..], byte).map(|j| i + j)
    }
}

fn first_ge_avx2(s: &[u8], threshold: u8, key: u8) -> Option<usize> {
    // SAFETY: this table is only installed after the AVX2 CPUID probe.
    unsafe { first_ge_avx2_impl(s, threshold, key) }
}

#[target_feature(enable = "avx2")]
unsafe fn first_ge_avx2_impl(s: &[u8], threshold: u8, key: u8) -> Option<usize> {
    unsafe {
        let t = _mm256_set1_epi8(threshold as i8);
        let k = _mm256_set1_epi8(key as i8);
        let mut i = 0usize;
        while i + 32 <= s.len() {
            let v = _mm256_xor_si256(_mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i), k);
            // b >= t (unsigned) ⇔ max_epu8(b, t) == b.
            let ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, t), v);
            let mask = _mm256_movemask_epi8(ge) as u32;
            if mask != 0 {
                return Some(i + mask.trailing_zeros() as usize);
            }
            i += 32;
        }
        swar::first_ge(&s[i..], threshold, key).map(|j| i + j)
    }
}

fn all_eq_avx2(s: &[u8], byte: u8) -> bool {
    // SAFETY: this table is only installed after the AVX2 CPUID probe.
    unsafe { all_eq_avx2_impl(s, byte) }
}

#[target_feature(enable = "avx2")]
unsafe fn all_eq_avx2_impl(s: &[u8], byte: u8) -> bool {
    unsafe {
        let pattern = _mm256_set1_epi8(byte as i8);
        let mut i = 0usize;
        while i + 32 <= s.len() {
            let v = _mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i);
            if _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, pattern)) as u32 != u32::MAX {
                return false;
            }
            i += 32;
        }
        swar::all_eq(&s[i..], byte)
    }
}

// ---------------------------------------------------------------- SSE2 ----

fn first_ne_sse2(s: &[u8], byte: u8) -> Option<usize> {
    // SAFETY: SSE2 is part of the x86-64 baseline.
    unsafe { first_ne_sse2_impl(s, byte) }
}

#[target_feature(enable = "sse2")]
unsafe fn first_ne_sse2_impl(s: &[u8], byte: u8) -> Option<usize> {
    unsafe {
        let pattern = _mm_set1_epi8(byte as i8);
        let mut i = 0usize;
        while i + 16 <= s.len() {
            let v = _mm_loadu_si128(s.as_ptr().add(i) as *const __m128i);
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi8(v, pattern)) as u32;
            if mask != 0xffff {
                return Some(i + (!mask & 0xffff).trailing_zeros() as usize);
            }
            i += 16;
        }
        swar::first_ne(&s[i..], byte).map(|j| i + j)
    }
}

fn first_ge_sse2(s: &[u8], threshold: u8, key: u8) -> Option<usize> {
    // SAFETY: SSE2 is part of the x86-64 baseline.
    unsafe { first_ge_sse2_impl(s, threshold, key) }
}

#[target_feature(enable = "sse2")]
unsafe fn first_ge_sse2_impl(s: &[u8], threshold: u8, key: u8) -> Option<usize> {
    unsafe {
        let t = _mm_set1_epi8(threshold as i8);
        let k = _mm_set1_epi8(key as i8);
        let mut i = 0usize;
        while i + 16 <= s.len() {
            let v = _mm_xor_si128(_mm_loadu_si128(s.as_ptr().add(i) as *const __m128i), k);
            let ge = _mm_cmpeq_epi8(_mm_max_epu8(v, t), v);
            let mask = _mm_movemask_epi8(ge) as u32;
            if mask != 0 {
                return Some(i + mask.trailing_zeros() as usize);
            }
            i += 16;
        }
        swar::first_ge(&s[i..], threshold, key).map(|j| i + j)
    }
}

fn all_eq_sse2(s: &[u8], byte: u8) -> bool {
    // SAFETY: SSE2 is part of the x86-64 baseline.
    unsafe { all_eq_sse2_impl(s, byte) }
}

#[target_feature(enable = "sse2")]
unsafe fn all_eq_sse2_impl(s: &[u8], byte: u8) -> bool {
    unsafe {
        let pattern = _mm_set1_epi8(byte as i8);
        let mut i = 0usize;
        while i + 16 <= s.len() {
            let v = _mm_loadu_si128(s.as_ptr().add(i) as *const __m128i);
            if _mm_movemask_epi8(_mm_cmpeq_epi8(v, pattern)) as u32 != 0xffff {
                return false;
            }
            i += 16;
        }
        swar::all_eq(&s[i..], byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises both width-specific tables directly (not just whichever one
    /// the probe picked), guarded per table by the feature check.
    #[test]
    fn both_widths_agree_with_swar_on_mask_edges() {
        let mut tables: Vec<&Kernels> = vec![&SSE2];
        if std::arch::is_x86_feature_detected!("avx2") {
            tables.push(&AVX2);
        }
        for k in tables {
            for len in [15usize, 16, 17, 31, 32, 33, 47, 48, 64, 96] {
                for hit in [0, 1, len / 2, len - 1] {
                    let mut v = vec![0x40u8; len];
                    v[hit] = 0x90; // sign bit set: exercises unsigned compare
                    assert_eq!(k.first_ne(&v, 0x40), Some(hit), "{} len={len}", k.name());
                    assert_eq!(
                        k.first_ge(&v, 0x90),
                        Some(hit),
                        "{} len={len} threshold above 128",
                        k.name()
                    );
                    assert_eq!(k.first_ge(&v, 0x91), None, "{} len={len}", k.name());
                    assert!(!k.all_eq(&v, 0x40), "{} len={len}", k.name());
                }
            }
        }
    }
}
