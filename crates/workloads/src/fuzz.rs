//! Random program generation for differential testing and fuzzing.
//!
//! Two generators with known ground truth:
//!
//! * [`safe_program`] — memory-safe by construction: every access stays
//!   inside a live object. Any report from any tool is a false positive;
//!   any data divergence from native execution is an instrumentation bug.
//! * [`buggy_program`] — a safe program with exactly one injected violation
//!   of a chosen [`InjectedBug`] geometry. Detection expectations per tool
//!   follow from the geometry (e.g. far overflows land inside a live
//!   neighbour and are invisible to instruction-level checks).
//!
//! The harness study `repro fuzz` drives these across many seeds and
//! reports a per-tool false-negative/false-positive matrix;
//! `tests/differential.rs` and `tests/bug_injection.rs` assert the
//! invariants per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use giantsan_ir::{Expr, Program, ProgramBuilder, PtrId};

/// A generated program with its inputs.
#[derive(Debug, Clone)]
pub struct FuzzProgram {
    /// The program.
    pub program: Program,
    /// Runtime inputs.
    pub inputs: Vec<i64>,
}

/// The injected violation's geometry, which determines each tool's expected
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectedBug {
    /// 1–8 bytes past the end: lands in the redzone; every location-based
    /// tool sees it.
    OverflowNear,
    /// Far past the end, inside a live neighbour: the redzone bypass that
    /// only anchored (or huge-redzone) checks catch.
    OverflowFar,
    /// 1–8 bytes before the start.
    UnderflowNear,
    /// Read through a dangling pointer, no reallocation in between.
    UseAfterFree,
    /// An over-long `strcpy` into a short stack buffer.
    StackStrcpy,
}

impl InjectedBug {
    /// All injectable geometries.
    pub const ALL: [InjectedBug; 5] = [
        InjectedBug::OverflowNear,
        InjectedBug::OverflowFar,
        InjectedBug::UnderflowNear,
        InjectedBug::UseAfterFree,
        InjectedBug::StackStrcpy,
    ];

    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            InjectedBug::OverflowNear => "overflow-near",
            InjectedBug::OverflowFar => "overflow-far",
            InjectedBug::UnderflowNear => "underflow-near",
            InjectedBug::UseAfterFree => "use-after-free",
            InjectedBug::StackStrcpy => "stack-strcpy",
        }
    }
}

/// Emits random benign traffic over the given live buffers.
fn benign_traffic(b: &mut ProgramBuilder, rng: &mut StdRng, live: &[(PtrId, i64)], stmts: usize) {
    for _ in 0..stmts {
        let (ptr, size) = live[rng.gen_range(0..live.len())];
        match rng.gen_range(0..8) {
            0 => {
                let off = rng.gen_range(0..size - 8);
                b.store(ptr, off, 8, rng.gen_range(0..size / 8));
            }
            1 => {
                let words = size / 8;
                let n = rng.gen_range(1..=words);
                b.for_loop(0i64, n, |b, i| {
                    b.store(ptr, Expr::var(i) * 8, 8, Expr::var(i));
                });
            }
            2 => {
                let words = size / 8;
                let n = rng.gen_range(1..=words);
                b.for_loop_opaque(0i64, n, |b, i| {
                    b.load_discard(ptr, Expr::var(i) * 8, 8);
                });
            }
            3 => {
                let words = size / 8;
                let n = rng.gen_range(1..=words);
                b.for_loop_rev_opaque(0i64, n, |b, i| {
                    b.load_discard(ptr, Expr::var(i) * 8, 8);
                });
            }
            4 => {
                let words = size / 8;
                b.store(ptr, 0i64, 8, rng.gen_range(0..words));
                let j = b.load(ptr, 0i64, 8);
                b.load_discard(ptr, Expr::var(j) * 8, 8);
            }
            5 => {
                let len = rng.gen_range(1..=size / 2);
                b.memset(ptr, 0i64, len, 0x5ai64);
                if size >= 32 {
                    b.memcpy(ptr, size / 2, ptr, 0i64, size / 2 - 8);
                }
            }
            6 => {
                b.frame(|b| {
                    let s = b.alloc_stack(64);
                    b.for_loop(0i64, 8i64, |b, i| {
                        b.store(s, Expr::var(i) * 8, 8, Expr::var(i));
                    });
                });
            }
            _ => {
                let t = b.alloc_heap(48);
                b.store(t, 0i64, 8, 1i64);
                b.store(t, 40i64, 8, 2i64);
                b.free(t);
            }
        }
    }
}

/// Generates a random memory-safe program (ground truth: zero violations).
pub fn safe_program(seed: u64) -> FuzzProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(format!("fuzz-safe-{seed}"));
    let mut live: Vec<(PtrId, i64)> = Vec::new();
    for _ in 0..rng.gen_range(2..5) {
        let size = *[64i64, 128, 256, 512].get(rng.gen_range(0..4)).unwrap();
        live.push((b.alloc_heap(size), size));
    }
    let n = rng.gen_range(4..12);
    benign_traffic(&mut b, &mut rng, &live, n);
    for (ptr, _) in live {
        b.free(ptr);
    }
    FuzzProgram {
        program: b.build(),
        inputs: vec![],
    }
}

/// Generates a program with exactly one injected violation of `bug`'s
/// geometry (ground truth: exactly one violation, at the end).
pub fn buggy_program(seed: u64, bug: InjectedBug) -> FuzzProgram {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb06);
    let mut b = ProgramBuilder::new(format!("fuzz-{}-{seed}", bug.name()));
    // Neighbours around the victim so far overflows land in live memory.
    let before = b.alloc_heap(512);
    let size = *[64i64, 96, 160, 256].get(rng.gen_range(0..4)).unwrap();
    let victim = b.alloc_heap(size);
    let after = b.alloc_heap(512);
    let traffic = rng.gen_range(2..6);
    benign_traffic(
        &mut b,
        &mut rng,
        &[(before, 512), (victim, size), (after, 512)],
        traffic,
    );
    match bug {
        InjectedBug::OverflowNear => {
            b.store(victim, size + rng.gen_range(0..8), 1, 0x41i64);
        }
        InjectedBug::OverflowFar => {
            b.store(victim, size + 64 + rng.gen_range(0..256), 1, 0x41i64);
        }
        InjectedBug::UnderflowNear => {
            b.store(victim, -rng.gen_range(1..9), 1, 0x41i64);
        }
        InjectedBug::UseAfterFree => {
            b.free(victim);
            b.load_discard(victim, 0i64, 8);
        }
        InjectedBug::StackStrcpy => {
            let strlen = 48 + rng.gen_range(0..16);
            let src = b.alloc_heap(strlen + 1);
            b.memset(src, 0i64, strlen, 65i64);
            b.store(src, strlen, 1, 0i64);
            b.frame(|b| {
                let s = b.alloc_stack(16);
                b.strcpy(s, 0i64, src, 0i64);
            });
            b.free(src);
        }
    }
    if bug != InjectedBug::UseAfterFree {
        b.free(victim);
    }
    b.free(before);
    b.free(after);
    FuzzProgram {
        program: b.build(),
        inputs: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_analysis::{analyze, ToolProfile};
    use giantsan_core::GiantSan;
    use giantsan_ir::{run, ExecConfig, Termination};
    use giantsan_runtime::{NullSanitizer, RuntimeConfig};

    #[test]
    fn safe_programs_finish_cleanly() {
        for seed in 0..30 {
            let fp = safe_program(seed);
            let mut native = NullSanitizer::new(RuntimeConfig::small());
            let plan = giantsan_ir::CheckPlan::none(&fp.program);
            let r = run(
                &fp.program,
                &fp.inputs,
                &mut native,
                &plan,
                &ExecConfig::default(),
            );
            assert_eq!(r.termination, Termination::Finished, "seed {seed}");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(safe_program(7).program, safe_program(7).program);
        assert_eq!(
            buggy_program(7, InjectedBug::OverflowFar).program,
            buggy_program(7, InjectedBug::OverflowFar).program
        );
    }

    #[test]
    fn every_bug_kind_is_detected_by_giantsan() {
        for seed in 0..10 {
            for bug in InjectedBug::ALL {
                let fp = buggy_program(seed, bug);
                let plan = analyze(&fp.program, &ToolProfile::giantsan()).plan;
                let mut san = GiantSan::new(RuntimeConfig::small());
                let r = run(
                    &fp.program,
                    &fp.inputs,
                    &mut san,
                    &plan,
                    &ExecConfig::default(),
                );
                assert!(r.detected(), "{} seed {seed}", bug.name());
            }
        }
    }
}
