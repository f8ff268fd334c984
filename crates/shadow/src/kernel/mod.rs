//! Shadow kernels: the byte-granular scan and bulk-write loops every check
//! and every poisoning operation bottoms out in.
//!
//! Segment folding makes region *checks* O(log n), but each folded check —
//! and every blame scan, validator sweep, ASan guardian walk, and
//! alloc/free poison — still ends in a loop over raw shadow bytes. This
//! module owns those loops:
//!
//! * [`Kernels::first_ne`] / [`Kernels::first_ge`] / [`Kernels::all_eq`] —
//!   the scan surface (region checks, blame scans, shadow validation);
//! * [`Kernels::fill`] / [`Kernels::write_folded_run`] — the bulk-write
//!   surface (redzone/freed poisoning and the §4.1 folding pattern written
//!   on every allocation).
//!
//! # One kernel and its reference
//!
//! | table    | step width | role |
//! |----------|------------|------|
//! | `swar`   | 64-byte blocks, then 8-byte words | [`active()`]: every caller scans and writes through it |
//! | `scalar` | 1 byte     | [`scalar()`]: the reference the tests compare `swar` against |
//!
//! The `swar` scans skip clean 64-byte blocks with a byte fold that the
//! compiler vectorises to the target's baseline vector ISA, then locate the
//! hit with `u64` word predicates (the `swar` module docs). That is the
//! shape of compiler-rt's `mem_is_zero`, which the paper's ASan checks a
//! region with. It is portable, safe Rust and the same on every host: there
//! is no CPUID probe and no override, so a measurement names one kernel
//! (DESIGN §15). A [`Kernels`] is a table of plain function pointers — no
//! trait objects — and the functions behind it are monomorphic and fully
//! optimised.
//!
//! # The digest-invariance contract
//!
//! The two tables may differ in *speed only*. For every input, both return
//! byte-identical answers: the same `Option<usize>` from the scanners, the
//! same bytes from the writers. The same holds under every *key*: a
//! [`ShadowMemory`](crate::ShadowMemory) stores each code XOR its fill byte,
//! so the two kernels that compare or write codes by value rather than
//! against a caller's byte, [`Kernels::first_ge_keyed`] and
//! [`Kernels::write_folded_run_keyed`], take that byte as a key and act on
//! `stored ^ key`; key 0 is the plain kernel. Counters never observe the
//! scan width (semantic loads are counted by the checkers, not the
//! kernels), so interpreter digests, golden plans, and campaign digests do
//! not depend on it. The differential tests compare [`active()`] against
//! [`scalar()`] to enforce it.

use crate::codes;

mod scalar;
mod swar;

/// A kernel dispatch table: one function pointer per hot loop.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    name: &'static str,
    first_ne: fn(&[u8], u8) -> Option<usize>,
    first_ge: fn(&[u8], u8, u8) -> Option<usize>,
    all_eq: fn(&[u8], u8) -> bool,
    fill: fn(&mut [u8], u8),
    write_folded_run: fn(&mut [u8], u8),
}

impl Kernels {
    /// Identity label for telemetry and host fingerprints (`swar` for
    /// [`active()`], `scalar` for the reference).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Index of the first byte of `s` not equal to `byte`.
    #[inline]
    pub fn first_ne(&self, s: &[u8], byte: u8) -> Option<usize> {
        (self.first_ne)(s, byte)
    }

    /// Index of the first byte of `s` that is `>= threshold` (unsigned).
    ///
    /// Exact for *every* threshold, including `>= 128`: the SWAR word test
    /// routes thresholds its `n <= 127` identity cannot express to a sign-bit
    /// over-approximation settled byte by byte.
    #[inline]
    pub fn first_ge(&self, s: &[u8], threshold: u8) -> Option<usize> {
        (self.first_ge)(s, threshold, 0)
    }

    /// [`Kernels::first_ge`] over bytes stored XOR `key`: the index of the
    /// first byte `b` of `s` with `b ^ key >= threshold` (unsigned).
    #[inline]
    pub fn first_ge_keyed(&self, s: &[u8], threshold: u8, key: u8) -> Option<usize> {
        (self.first_ge)(s, threshold, key)
    }

    /// Whether every byte of `s` equals `byte` (true for the empty slice).
    #[inline]
    pub fn all_eq(&self, s: &[u8], byte: u8) -> bool {
        (self.all_eq)(s, byte)
    }

    /// Sets every byte of `dst` to `byte` (redzone / freed / unallocated
    /// poisoning).
    #[inline]
    pub fn fill(&self, dst: &mut [u8], byte: u8) {
        (self.fill)(dst, byte)
    }

    /// Writes the canonical §4.1 folding pattern for `dst.len()` full
    /// segments into `dst`: segment `j` receives `folded(⌊log2(q − j)⌋)`
    /// with the degree capped at [`codes::MAX_DEGREE`].
    #[inline]
    pub fn write_folded_run(&self, dst: &mut [u8]) {
        (self.write_folded_run)(dst, 0)
    }

    /// [`Kernels::write_folded_run`] for bytes stored XOR `key`: segment
    /// `j` receives its folded code XOR `key`.
    #[inline]
    pub fn write_folded_run_keyed(&self, dst: &mut [u8], key: u8) {
        (self.write_folded_run)(dst, key)
    }
}

static SCALAR: Kernels = Kernels {
    name: "scalar",
    first_ne: scalar::first_ne,
    first_ge: scalar::first_ge,
    all_eq: scalar::all_eq,
    fill: scalar::fill,
    write_folded_run: scalar::write_folded_run,
};

static SWAR: Kernels = Kernels {
    name: "swar",
    first_ne: swar::first_ne,
    first_ge: swar::first_ge,
    all_eq: swar::all_eq,
    fill: swar::fill,
    write_folded_run: swar::write_folded_run,
};

/// The kernel table every caller scans and writes through: `swar`, on every
/// host (see the module docs).
#[inline]
pub fn active() -> &'static Kernels {
    &SWAR
}

/// The byte-at-a-time reference table, for tests that check [`active()`]
/// against it.
pub fn scalar() -> &'static Kernels {
    &SCALAR
}

/// Decomposes the §4.1 folding pattern for `q` full segments into its
/// constant-code runs, highest degree first: segment `j` has degree
/// `⌊log2(q − j)⌋` (capped), so the degree-`d` segments are exactly those
/// with `q − j ∈ [2^d, 2^{d+1})` — a contiguous run. The `swar` writer
/// fills each run; debug builds cross-check the `scalar` writer against it.
fn folded_runs(q: u64, mut emit: impl FnMut(u64, u64, u8)) {
    if q == 0 {
        return;
    }
    let t = codes::degree_at(q, 0);
    let mut d = t;
    loop {
        // Degrees are capped at MAX_DEGREE, so the top run may span several
        // powers of two.
        let hi_remaining = if d == t { q } else { (2u64 << d) - 1 };
        let lo_remaining = 1u64 << d;
        let j_lo = q - hi_remaining.min(q);
        let j_hi = q - lo_remaining + 1; // exclusive: j with remaining >= 2^d
        emit(j_lo, j_hi, codes::folded(d));
        if d == 0 {
            break;
        }
        d -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_the_swar_table() {
        assert!(std::ptr::eq(active(), &SWAR));
        assert_eq!(active().name(), "swar");
        assert_eq!(scalar().name(), "scalar");
    }

    #[test]
    fn every_backend_agrees_on_dense_patterns() {
        // Parity on deliberately adversarial shapes: a hit at every offset,
        // lengths around the 8-byte word and the 64-byte block, the fill
        // bytes of both encodings as keys, and codes (hence thresholds) on
        // both sides of 128. Every other byte decodes to 0x40.
        let lens = [
            0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 193,
        ];
        for len in lens {
            for key in [0u8, 78, 0xff] {
                let clean = vec![0x40 ^ key; len];
                for hit in 0..len {
                    for code in [0x41u8, 0x80, 0xc8, 0xfe] {
                        let mut v = clean.clone();
                        v[hit] = code ^ key;
                        for k in [&SCALAR, &SWAR] {
                            let at = format!("{} len={len} key={key:#x} hit={hit}", k.name());
                            assert_eq!(k.first_ne(&v, 0x40 ^ key), Some(hit), "{at}");
                            assert!(!k.all_eq(&v, 0x40 ^ key), "{at}");
                            assert_eq!(k.first_ge_keyed(&v, 0x41, key), Some(hit), "{at}");
                            assert_eq!(k.first_ge_keyed(&v, code, key), Some(hit), "{at}");
                            assert_eq!(k.first_ge_keyed(&v, code + 1, key), None, "{at}");
                        }
                    }
                }
                for k in [&SCALAR, &SWAR] {
                    let at = format!("{} len={len} key={key:#x}", k.name());
                    assert_eq!(k.first_ne(&clean, 0x40 ^ key), None, "{at}");
                    assert!(k.all_eq(&clean, 0x40 ^ key), "{at}");
                    assert_eq!(k.first_ge_keyed(&clean, 0x41, key), None, "{at}");
                    assert_eq!(k.first_ge_keyed(&clean, 0xff, key), None, "{at}");
                    assert_eq!(
                        k.first_ge_keyed(&clean, 0, key),
                        (len > 0).then_some(0),
                        "{at}: threshold 0 admits every byte"
                    );
                }
            }
        }
    }

    #[test]
    fn every_backend_writes_identical_patterns() {
        for q in [0usize, 1, 2, 3, 7, 8, 9, 31, 32, 68, 127, 128, 1000] {
            let mut reference = vec![0u8; q];
            SCALAR.write_folded_run(&mut reference);
            let mut out = vec![0u8; q];
            SWAR.write_folded_run(&mut out);
            assert_eq!(out, reference, "q={q}");
            for k in [&SCALAR, &SWAR] {
                let mut out = vec![0u8; q];
                k.fill(&mut out, 0x4e);
                assert!(out.iter().all(|&x| x == 0x4e), "{} fill q={q}", k.name());
            }
        }
    }

    #[test]
    fn folded_runs_cover_exactly_once_in_descending_degree() {
        for q in 1..=600u64 {
            let mut covered = vec![0u32; q as usize];
            let mut last_code = 0u8;
            folded_runs(q, |lo, hi, code| {
                assert!(lo < hi, "q={q}: empty run");
                assert!(code >= last_code, "q={q}: runs must descend in degree");
                last_code = code;
                for j in lo..hi {
                    covered[j as usize] += 1;
                    assert_eq!(code, codes::folded(codes::degree_at(q, j)), "q={q} j={j}");
                }
            });
            assert!(covered.iter().all(|&c| c == 1), "q={q}: not a partition");
        }
    }
}
