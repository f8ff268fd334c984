//! Kernel backend sweep: `scalar` vs `swar` vs `simd` shadow kernels.
//!
//! `repro bench` runs the PR 6 half of the benchmark suite in two parts,
//! emitted to `BENCH_PR6.json`:
//!
//! 1. **Microbenches** — each kernel (`first_ne`, `first_ge`, `fill`,
//!    `write_folded_run`) timed on shadow slices sized to the paper's
//!    region-check scales (1 KiB – 64 KiB of application memory, i.e.
//!    128 – 8192 shadow bytes), once per backend through
//!    [`kernel::select`]. The headline figure is `simd_vs_swar` on the
//!    region scans: ≥ 1.5× on an AVX2 host, honestly ~1.0× where the
//!    `simd` backend resolves to the portable fallback.
//! 2. **Digest parity** — the same clean SPEC-like mix as `BENCH_PR5`, run
//!    end-to-end under each backend via [`kernel::force`]: the interpreter
//!    digest and the sanitizer-counter digest must be byte-identical across
//!    all three, pinning the backend contract ("speed only") at the level
//!    the campaign digests observe.
//!
//! Wall-clock fields vary run to run and host to host; the digest fields
//! and the resolved kernel names are deterministic.

use std::fmt::Write as _;
use std::time::Instant;

use giantsan_shadow::kernel::{self, Backend};
use giantsan_telemetry::{fnv1a, NoopRecorder};
use giantsan_workloads::spec_workload;

use crate::tool::Tool;

/// Application-region sizes swept (bytes); shadow slices are 1/8 of these.
pub const REGION_SIZES: [u64; 4] = [1024, 4096, 16384, 65536];

/// One (kernel × region size) microbench row.
#[derive(Debug, Clone)]
pub struct KernelCase {
    /// Kernel under test (`first_ne`, `first_ge`, `fill`,
    /// `write_folded_run`).
    pub kernel: String,
    /// Application-region size the shadow slice models (bytes).
    pub region_bytes: u64,
    /// Best-of-5 ns/call per backend.
    pub scalar_ns: f64,
    /// Best-of-5 ns/call, `swar` backend.
    pub swar_ns: f64,
    /// Best-of-5 ns/call, `simd` backend (whatever width resolved).
    pub simd_ns: f64,
}

impl KernelCase {
    /// Speedup of the simd backend over the swar baseline.
    pub fn simd_vs_swar(&self) -> f64 {
        self.swar_ns / self.simd_ns.max(1e-9)
    }

    /// Speedup of the swar backend over the scalar reference.
    pub fn swar_vs_scalar(&self) -> f64 {
        self.scalar_ns / self.swar_ns.max(1e-9)
    }
}

/// End-to-end digests of the clean mix under one forced backend.
#[derive(Debug, Clone)]
pub struct BackendDigest {
    /// Backend label (`scalar` / `swar` / `simd`).
    pub backend: &'static str,
    /// Resolved kernel-table name (e.g. `simd-avx2`).
    pub kernel: &'static str,
    /// XOR-mixed interpreter digests across the mix.
    pub exec_digest: u64,
    /// FNV-1a over the summed sanitizer counters.
    pub counters_digest: u64,
}

/// The `BENCH_PR6.json` payload.
#[derive(Debug, Clone)]
pub struct BenchPr6Report {
    /// What `Backend::Simd` resolved to on this host.
    pub simd_kernel: &'static str,
    /// Microbench rows, kernel-major then size-ascending.
    pub cases: Vec<KernelCase>,
    /// Per-backend end-to-end digests (scalar, swar, simd order).
    pub digests: Vec<BackendDigest>,
}

impl BenchPr6Report {
    /// All backends produced identical interpreter and counter digests.
    pub fn digest_invariant(&self) -> bool {
        self.digests.windows(2).all(|w| {
            w[0].exec_digest == w[1].exec_digest && w[0].counters_digest == w[1].counters_digest
        })
    }

    /// Whether the host's `simd` backend is real vector code (false when it
    /// resolved to the portable fallback, where ~1.0× is the honest result).
    pub fn simd_is_vector(&self) -> bool {
        self.simd_kernel != "simd-portable"
    }

    /// The headline metric: worst simd-vs-swar speedup across the *scan*
    /// kernels at regions of 4 KiB and up.
    pub fn scan_speedup_floor(&self) -> f64 {
        self.cases
            .iter()
            .filter(|c| c.region_bytes >= 4096 && c.kernel.starts_with("first_"))
            .map(KernelCase::simd_vs_swar)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the artefact as JSON (hand-rolled: numbers and ASCII only).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"BENCH_PR6\",\n");
        let _ = writeln!(s, "  \"simd_kernel\": \"{}\",", self.simd_kernel);
        let _ = writeln!(s, "  \"simd_is_vector\": {},", self.simd_is_vector());
        s.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"kernel\": \"{}\", \"region_bytes\": {}, \"scalar_ns\": {:.1}, \
                 \"swar_ns\": {:.1}, \"simd_ns\": {:.1}, \"swar_vs_scalar\": {:.2}, \
                 \"simd_vs_swar\": {:.2}}}",
                c.kernel,
                c.region_bytes,
                c.scalar_ns,
                c.swar_ns,
                c.simd_ns,
                c.swar_vs_scalar(),
                c.simd_vs_swar()
            );
            s.push_str(if i + 1 < self.cases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"digests\": [\n");
        for (i, d) in self.digests.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"backend\": \"{}\", \"kernel\": \"{}\", \"exec_digest\": \"{:016x}\", \
                 \"counters_digest\": \"{:016x}\"}}",
                d.backend, d.kernel, d.exec_digest, d.counters_digest
            );
            s.push_str(if i + 1 < self.digests.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(
            s,
            "  \"scan_speedup_floor_4k\": {:.2},",
            self.scan_speedup_floor()
        );
        let _ = writeln!(s, "  \"digest_invariant\": {}", self.digest_invariant());
        s.push_str("}\n");
        s
    }

    /// Human-readable summary for the console.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "simd backend resolved to `{}`{}",
            self.simd_kernel,
            if self.simd_is_vector() {
                ""
            } else {
                " (no vector unit: ~1.0x expected)"
            }
        );
        let _ = writeln!(
            s,
            "{:<18} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8}",
            "kernel", "region", "scalar ns", "swar ns", "simd ns", "sw/sc", "si/sw"
        );
        for c in &self.cases {
            let _ = writeln!(
                s,
                "{:<18} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>7.2}x {:>7.2}x",
                c.kernel,
                c.region_bytes,
                c.scalar_ns,
                c.swar_ns,
                c.simd_ns,
                c.swar_vs_scalar(),
                c.simd_vs_swar()
            );
        }
        let _ = writeln!(
            s,
            "scan speedup floor (>=4 KiB): {:.2}x",
            self.scan_speedup_floor()
        );
        for d in &self.digests {
            let _ = writeln!(
                s,
                "digests under {:<6} ({:<13}): exec {:016x}, counters {:016x}",
                d.backend, d.kernel, d.exec_digest, d.counters_digest
            );
        }
        let _ = writeln!(
            s,
            "digest invariance across backends: {}",
            if self.digest_invariant() {
                "identical"
            } else {
                "MISMATCH"
            }
        );
        s
    }
}

/// Times `f`, returning the best-of-5 nanoseconds per call (batch size grown
/// until one batch takes >= 1 ms; minimum over samples).
fn time_ns<F: FnMut() -> u64>(mut f: F) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        if start.elapsed().as_micros() >= 1000 {
            break;
        }
        iters *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let per = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per);
    }
    best
}

/// Times one kernel on one backend over a `segs`-byte shadow slice.
///
/// The scan inputs are clean-shadow worst cases (no early exit): a uniform
/// GOOD slice for `first_ne`, and `first_ge` with threshold `GOOD + 1` —
/// exactly the region-check and guardian-walk loops.
fn time_backend(op: &str, backend: Backend, segs: usize) -> f64 {
    use giantsan_shadow::codes::GOOD;
    let k = kernel::select(backend);
    let clean = vec![GOOD; segs];
    let mut out = vec![0u8; segs];
    match op {
        "first_ne" => time_ns(|| k.first_ne(&clean, GOOD).map_or(0, |i| i as u64)),
        "first_ge" => time_ns(|| k.first_ge(&clean, GOOD + 1).map_or(0, |i| i as u64)),
        "fill" => time_ns(|| {
            k.fill(&mut out, GOOD);
            out[segs - 1] as u64
        }),
        "write_folded_run" => time_ns(|| {
            k.write_folded_run(&mut out);
            out[segs - 1] as u64
        }),
        other => unreachable!("unknown kernel op {other}"),
    }
}

/// Runs the clean SPEC-like mix under the *currently active* backend and
/// returns `(exec_digest, counters_digest)`.
fn end_to_end_digests() -> (u64, u64) {
    let workloads: Vec<_> = ["519.lbm_r", "505.mcf_r", "557.xz_r"]
        .iter()
        .map(|id| spec_workload(id, 2).expect("known workload"))
        .collect();
    let spec = Tool::GiantSan.builder().spec();
    let mut steps = 0u64;
    let mut digest = 0u64;
    let mut counter_bytes = Vec::new();
    for w in &workloads {
        let plan = Tool::GiantSan.plan(&w.program);
        let out = spec.run_planned_recorded(&w.program, &plan, &w.inputs, &mut NoopRecorder);
        assert!(
            out.result.reports.is_empty(),
            "benchmark workload must be clean"
        );
        steps += out.result.steps;
        digest ^= out.result.digest().rotate_left(steps as u32 % 63);
        for (name, value) in out.counters.fields() {
            counter_bytes.extend_from_slice(name.as_bytes());
            counter_bytes.extend_from_slice(&value.to_le_bytes());
        }
    }
    (digest, fnv1a(&counter_bytes))
}

/// Runs only the digest-parity half of the sweep: the clean mix end-to-end
/// under each forced backend, restoring the backend that was active on entry
/// (the forced windows are benign: every backend returns identical results
/// by contract).
fn digest_parity() -> Vec<BackendDigest> {
    let restore = kernel::active().backend();
    let mut digests = Vec::new();
    for backend in Backend::ALL {
        kernel::force(backend);
        let (exec_digest, counters_digest) = end_to_end_digests();
        digests.push(BackendDigest {
            backend: backend.label(),
            kernel: kernel::active().name(),
            exec_digest,
            counters_digest,
        });
    }
    kernel::force(restore);
    digests
}

/// Runs the timing half of the sweep: every kernel on every backend over the
/// region-size ladder.
fn timing_sweep() -> Vec<KernelCase> {
    let mut cases = Vec::new();
    for op in ["first_ne", "first_ge", "fill", "write_folded_run"] {
        for region in REGION_SIZES {
            let segs = (region / 8) as usize;
            cases.push(KernelCase {
                kernel: op.to_string(),
                region_bytes: region,
                scalar_ns: time_backend(op, Backend::Scalar, segs),
                swar_ns: time_backend(op, Backend::Swar, segs),
                simd_ns: time_backend(op, Backend::Simd, segs),
            });
        }
    }
    cases
}

/// Runs the kernel backend sweep (timing + digest parity).
pub fn run_bench() -> BenchPr6Report {
    BenchPr6Report {
        simd_kernel: kernel::select(Backend::Simd).name(),
        cases: timing_sweep(),
        digests: digest_parity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let r = BenchPr6Report {
            simd_kernel: "simd-avx2",
            cases: vec![KernelCase {
                kernel: "first_ge".into(),
                region_bytes: 4096,
                scalar_ns: 400.0,
                swar_ns: 100.0,
                simd_ns: 40.0,
            }],
            digests: vec![
                BackendDigest {
                    backend: "scalar",
                    kernel: "scalar",
                    exec_digest: 0xbeef,
                    counters_digest: 0xcafe,
                },
                BackendDigest {
                    backend: "simd",
                    kernel: "simd-avx2",
                    exec_digest: 0xbeef,
                    counters_digest: 0xcafe,
                },
            ],
        };
        let j = r.to_json();
        assert!(j.contains("\"simd_vs_swar\": 2.50"), "{j}");
        assert!(j.contains("\"swar_vs_scalar\": 4.00"), "{j}");
        assert!(j.contains("\"digest_invariant\": true"), "{j}");
        assert!(j.contains("\"scan_speedup_floor_4k\": 2.50"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!((r.scan_speedup_floor() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn backends_produce_identical_end_to_end_digests() {
        // The digest-parity half of the bench, without the timing half (which
        // is too slow for the test suite at full sizes).
        let restore = kernel::active().backend();
        let mut digests = Vec::new();
        for backend in Backend::ALL {
            kernel::force(backend);
            digests.push(end_to_end_digests());
        }
        kernel::force(restore);
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "backend changed execution: {digests:?}"
        );
    }
}
