//! Shadow kernels: the byte-granular scan and bulk-write loops every check
//! and every poisoning operation bottoms out in, with three selectable
//! backends behind one dispatch table.
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
//! # Backends
//!
//! | backend  | step width | notes |
//! |----------|------------|-------|
//! | `scalar` | 1 byte     | the reference the others are tested against |
//! | `swar`   | 8 bytes    | SIMD-within-a-register `u64` predicates |
//! | `simd`   | 16/32 bytes| explicit `core::arch` SSE2/AVX2 scans, portable fallback elsewhere |
//!
//! Every `simd` table writes with the `swar` writers; the `simd` module docs
//! give the measurement behind that.
//!
//! # Dispatch
//!
//! The active table is the `simd` backend, resolved **once**, on first use,
//! by a `OnceLock`'d CPUID probe that picks the widest variant the host
//! supports (AVX2 → SSE2 → portable fallback, which reuses the SWAR loops).
//! There is no user override: `scalar` is the reference the others are
//! tested against, `swar` the portable path, and [`select`] hands out any
//! table explicitly for tests and benchmarks. A [`Kernels`] is a table of
//! plain function pointers — no trait objects — so every hot-path call is
//! one predictable indirect call, and the functions behind it are
//! monomorphic and fully optimised.
//!
//! # The digest-invariance contract
//!
//! Backends may differ in *speed only*. For every input, all three return
//! byte-identical answers: the same `Option<usize>` from the scanners, the
//! same bytes from the writers. The same holds under every *key*: a
//! [`ShadowMemory`](crate::ShadowMemory) stores each code XOR its fill byte,
//! so the two kernels that compare or write codes by value rather than
//! against a caller's byte, [`Kernels::first_ge_keyed`] and
//! [`Kernels::write_folded_run_keyed`], take that byte as a key and act on
//! `stored ^ key`; key 0 is the plain kernel. Counters never observe the
//! scan width (semantic loads are counted by the checkers, not the
//! kernels), so interpreter digests, golden plans, and campaign digests are
//! identical under every backend. The differential tests compare every [`select`]
//! table against `scalar` to enforce it.

use std::sync::OnceLock;

use crate::codes;

mod scalar;
#[cfg(target_arch = "x86_64")]
mod simd;
mod swar;

pub use swar::has_byte_gt;

/// A selectable kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Byte-at-a-time reference loops.
    Scalar,
    /// `u64` SIMD-within-a-register loops (eight bytes per step).
    Swar,
    /// Explicit SSE2/AVX2 kernels where the host supports them, otherwise a
    /// portable fallback equivalent to [`Backend::Swar`].
    Simd,
}

impl Backend {
    /// Every backend, in reference-to-widest order.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Swar, Backend::Simd];
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Scalar => "scalar",
            Backend::Swar => "swar",
            Backend::Simd => "simd",
        })
    }
}

/// The kernel dispatch table: one function pointer per hot loop, resolved
/// once at startup (see the module docs) so the hot path never re-probes.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    name: &'static str,
    backend: Backend,
    first_ne: fn(&[u8], u8) -> Option<usize>,
    first_ge: fn(&[u8], u8, u8) -> Option<usize>,
    all_eq: fn(&[u8], u8) -> bool,
    fill: fn(&mut [u8], u8),
    write_folded_run: fn(&mut [u8], u8),
}

impl Kernels {
    /// Identity label for telemetry (`scalar`, `swar`, `simd-avx2`,
    /// `simd-sse2`, or `simd-portable`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The backend this table belongs to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Index of the first byte of `s` not equal to `byte`.
    #[inline]
    pub fn first_ne(&self, s: &[u8], byte: u8) -> Option<usize> {
        (self.first_ne)(s, byte)
    }

    /// Index of the first byte of `s` that is `>= threshold` (unsigned).
    ///
    /// Exact for *every* threshold, including `>= 128`: the SWAR backend
    /// routes word predicates whose `n > 127` precondition would be violated
    /// to a byte loop, and the SIMD backends use an unsigned-max compare
    /// that has no threshold restriction.
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
    /// poisoning, shadow clears).
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
    backend: Backend::Scalar,
    first_ne: scalar::first_ne,
    first_ge: scalar::first_ge,
    all_eq: scalar::all_eq,
    fill: scalar::fill,
    write_folded_run: scalar::write_folded_run,
};

static SWAR: Kernels = Kernels {
    name: "swar",
    backend: Backend::Swar,
    first_ne: swar::first_ne,
    first_ge: swar::first_ge,
    all_eq: swar::all_eq,
    fill: swar::fill,
    write_folded_run: swar::write_folded_run,
};

/// Fallback `simd` table for hosts with no supported vector extension: the
/// SWAR loops under the `simd` identity, so the `simd` backend exists (and
/// names itself honestly) everywhere.
static SIMD_PORTABLE: Kernels = Kernels {
    name: "simd-portable",
    backend: Backend::Simd,
    first_ne: swar::first_ne,
    first_ge: swar::first_ge,
    all_eq: swar::all_eq,
    fill: swar::fill,
    write_folded_run: swar::write_folded_run,
};

/// Resolves the `simd` backend for this host, once: the CPUID probe behind
/// the module-level dispatch rules.
fn simd_resolved() -> &'static Kernels {
    static RESOLVED: OnceLock<&'static Kernels> = OnceLock::new();
    RESOLVED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return &simd::AVX2;
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                return &simd::SSE2;
            }
        }
        &SIMD_PORTABLE
    })
}

/// Returns the kernel table of an explicit backend, independent of the
/// process-wide selection. `Backend::Simd` resolves to the widest variant
/// the host supports. Differential tests compare backends through this
/// without touching global state.
pub fn select(backend: Backend) -> &'static Kernels {
    match backend {
        Backend::Scalar => &SCALAR,
        Backend::Swar => &SWAR,
        Backend::Simd => simd_resolved(),
    }
}

/// The process-wide active kernel table: the CPUID-resolved `simd`
/// backend (see the module docs). The first call runs the probe; later
/// calls are one atomic load.
#[inline]
pub fn active() -> &'static Kernels {
    simd_resolved()
}

/// Decomposes the §4.1 folding pattern for `q` full segments into its
/// constant-code runs, highest degree first: segment `j` has degree
/// `⌊log2(q − j)⌋` (capped), so the degree-`d` segments are exactly those
/// with `q − j ∈ [2^d, 2^{d+1})` — a contiguous run. Shared by every
/// backend's [`Kernels::write_folded_run`]; only the fill width differs.
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
    fn select_returns_the_requested_backend() {
        for b in Backend::ALL {
            let k = select(b);
            assert_eq!(k.backend(), b, "{}", k.name());
        }
        assert_eq!(select(Backend::Scalar).name(), "scalar");
        assert_eq!(select(Backend::Swar).name(), "swar");
        assert!(select(Backend::Simd).name().starts_with("simd"));
    }

    #[test]
    fn active_is_the_resolved_simd_table() {
        assert!(std::ptr::eq(active(), select(Backend::Simd)));
    }

    #[test]
    fn every_backend_agrees_on_dense_patterns() {
        // Cross-backend parity on deliberately adversarial shapes: hits at
        // every lane offset of the widest (32-byte) step, lengths around
        // every width boundary, thresholds on both sides of 128.
        let kernels: Vec<_> = Backend::ALL.iter().map(|&b| select(b)).collect();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100] {
            for hit in 0..len {
                let mut v = vec![0x40u8; len];
                v[hit] = 0xfe;
                for k in &kernels {
                    assert_eq!(k.first_ne(&v, 0x40), Some(hit), "{} len={len}", k.name());
                    assert_eq!(k.first_ge(&v, 0x41), Some(hit), "{} len={len}", k.name());
                    assert_eq!(k.first_ge(&v, 0xfe), Some(hit), "{} len={len}", k.name());
                    assert_eq!(k.first_ge(&v, 0xff), None, "{} len={len}", k.name());
                    assert!(!k.all_eq(&v, 0x40), "{} len={len}", k.name());
                }
            }
            let v = vec![0x40u8; len];
            for k in &kernels {
                assert_eq!(k.first_ne(&v, 0x40), None, "{}", k.name());
                assert_eq!(k.first_ge(&v, 0x41), None, "{}", k.name());
                assert!(k.all_eq(&v, 0x40), "{}", k.name());
                assert_eq!(
                    k.first_ge(&v, 0),
                    if len == 0 { None } else { Some(0) },
                    "{}: threshold 0 admits every byte",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn every_backend_writes_identical_patterns() {
        for q in [0usize, 1, 2, 3, 7, 8, 9, 31, 32, 68, 127, 128, 1000] {
            let mut reference = vec![0u8; q];
            SCALAR.write_folded_run(&mut reference);
            for b in [Backend::Swar, Backend::Simd] {
                let mut out = vec![0u8; q];
                select(b).write_folded_run(&mut out);
                assert_eq!(out, reference, "{b} q={q}");
            }
            for b in Backend::ALL {
                let mut out = vec![0u8; q];
                select(b).fill(&mut out, 0x4e);
                assert!(out.iter().all(|&x| x == 0x4e), "{b} fill q={q}");
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
