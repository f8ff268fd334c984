//! Quasi-bound cache invalidation audit (paper §4.3, Figure 9).
//!
//! The history cache admits accesses below a remembered upper bound without
//! touching shadow memory, so `free`/`realloc` are the correctness-critical
//! events: a stale quasi-bound must never *suppress* a use-after-free or a
//! post-realloc overflow. The implementation maintains three invariants,
//! each pinned by a test here:
//!
//! 1. **Loop-exit re-validation** (Figure 9 line 14): a `free` inside the
//!    loop may be admitted by the cache mid-loop, but `loop_final_check`
//!    re-checks `CI(y, y + ub)` at loop exit and reports it.
//! 2. **Planner refusal**: a pointer *redefined* in the loop (`realloc`)
//!    gets neither a cache slot nor a promoted pre-check — every access is
//!    checked individually.
//! 3. **Slot reset at loop entry**: quasi-bounds never survive from one loop
//!    to the next, so a `free`/`realloc` between two loops is caught at the
//!    first access of the second loop, not admitted from history.
//!
//! With the §5.4 reverse-traversal mitigation enabled, the cache also keeps
//! a quasi-*lower*-bound for end-anchored descending traversals — and every
//! invariant above must hold symmetrically below the anchor: the loop-exit
//! re-validation covers `CI(y + lb, y)`, and slots (lower bound included)
//! reset at loop entry. The `quasi_lower_bound_*` tests pin that symmetry.

use giantsan::analysis::{analyze, SiteFate, ToolProfile};
use giantsan::core::{GiantSan, GiantSanOptions};
use giantsan::ir::{run, ExecConfig, Expr, Program, ProgramBuilder};
use giantsan::runtime::{ErrorKind, RuntimeConfig, Sanitizer};

fn run_giantsan(prog: &Program, inputs: &[i64], profile: &ToolProfile) -> giantsan::ir::ExecResult {
    let a = analyze(prog, profile);
    let mut san = GiantSan::new(RuntimeConfig::small());
    run(prog, inputs, &mut san, &a.plan, &ExecConfig::default())
}

/// Like [`run_giantsan`] but with the §5.4 reverse-traversal mitigation on
/// (quasi-lower-bounds populated), returning the sanitizer too so tests can
/// assert the cache actually admitted accesses.
fn run_reverse_mitigated(prog: &Program, inputs: &[i64]) -> (giantsan::ir::ExecResult, GiantSan) {
    let a = analyze(prog, &ToolProfile::giantsan());
    let mut san = GiantSan::with_options(
        RuntimeConfig::small(),
        GiantSanOptions {
            reverse_mitigation: true,
            ..GiantSanOptions::default()
        },
    );
    let r = run(prog, inputs, &mut san, &a.plan, &ExecConfig::default());
    (r, san)
}

/// Invariant 1: a mid-loop `free` admitted by a quasi-bound hit is still
/// reported — the loop-exit final check re-validates the whole cached range.
#[test]
fn mid_loop_free_cannot_be_suppressed_by_the_cache() {
    let mut b = ProgramBuilder::new("uaf-cached");
    let p = b.alloc_heap(256);
    let idx = b.alloc_heap(64);
    b.store(idx, 0i64, 8, 1i64);
    b.for_loop(0i64, 2i64, |b, i| {
        // The data-dependent offset forces the quasi-bound cached path for
        // p; the in-loop free is a barrier that blocks promotion but, by
        // design, not caching.
        let j = b.load(idx, 0i64, 8);
        b.load_discard(p, Expr::var(j) * 8, 8);
        b.if_nonzero(Expr::from(1i64) - Expr::var(i), |b| b.free(p));
    });
    let prog = b.build();

    for profile in [ToolProfile::giantsan(), ToolProfile::giantsan_cache_only()] {
        let a = analyze(&prog, &profile);
        assert_eq!(
            a.fates[2],
            SiteFate::Cached,
            "{}: the p access must take the cached path for this test to \
             exercise staleness",
            profile.name
        );
        let r = run_giantsan(&prog, &[], &profile);
        assert!(
            r.detected(),
            "{}: use-after-free suppressed by a stale quasi-bound",
            profile.name
        );
        assert!(
            r.reports.iter().any(|e| e.kind == ErrorKind::UseAfterFree),
            "{}: expected a use-after-free report, got {:?}",
            profile.name,
            r.reports
        );
    }
}

/// Invariant 2: `realloc` inside the loop redefines the pointer, so the
/// planner must refuse both caching and promotion — and the per-access
/// checks then catch the post-realloc overflow.
#[test]
fn in_loop_realloc_blocks_caching_and_overflow_is_reported() {
    let mut b = ProgramBuilder::new("realloc-cached");
    let p = b.alloc_heap(256);
    b.for_loop(0i64, 2i64, |b, i| {
        // In bounds of the original 256, out of bounds after the shrink.
        b.store(p, 200i64, 8, 7i64);
        b.if_nonzero(Expr::from(1i64) - Expr::var(i), |b| b.realloc(p, 64i64));
    });
    let prog = b.build();

    let a = analyze(&prog, &ToolProfile::giantsan());
    assert_eq!(a.plan.num_caches, 0, "realloc'd pointer must not be cached");
    assert!(
        a.plan.loops.values().all(|lp| lp.pre_checks.is_empty()),
        "realloc'd pointer must not be promoted"
    );
    let r = run_giantsan(&prog, &[], &ToolProfile::giantsan());
    assert!(r.detected(), "post-realloc overflow missed");
    assert!(
        r.reports
            .iter()
            .any(|e| e.kind == ErrorKind::HeapBufferOverflow),
        "expected a heap overflow report, got {:?}",
        r.reports
    );
}

/// Invariant 3 (free): quasi-bounds do not survive across loops — a free
/// between two cached loops is reported at the second loop's first access.
#[test]
fn quasi_bound_does_not_survive_across_loops_after_free() {
    let mut b = ProgramBuilder::new("uaf-cross-loop");
    let p = b.alloc_heap(256);
    let idx = b.alloc_heap(64);
    b.store(idx, 0i64, 8, 4i64);
    let cached_loop = |b: &mut ProgramBuilder| {
        b.for_loop(0i64, 4i64, |b, _| {
            let j = b.load(idx, 0i64, 8);
            b.load_discard(p, Expr::var(j) * 8, 8);
        });
    };
    cached_loop(&mut b);
    b.free(p);
    cached_loop(&mut b);
    let prog = b.build();

    let a = analyze(&prog, &ToolProfile::giantsan());
    // Both p accesses ride the cache; the idx loads are hoisted.
    assert_eq!(a.fates[2], SiteFate::Cached);
    assert_eq!(a.fates[4], SiteFate::Cached);
    let r = run_giantsan(&prog, &[], &ToolProfile::giantsan());
    assert!(
        r.reports.iter().any(|e| e.kind == ErrorKind::UseAfterFree),
        "freed object admitted from a previous loop's quasi-bound: {:?}",
        r.reports
    );
}

/// Invariant 1, below the anchor: a mid-loop `free` admitted by a
/// quasi-*lower*-bound hit is still reported — the loop-exit final check
/// re-validates `CI(y + lb, y)`, the descending window the cache covered.
#[test]
fn quasi_lower_bound_free_is_caught_by_the_final_check() {
    let mut b = ProgramBuilder::new("uaf-cached-reverse");
    let p = b.alloc_heap(256);
    let idx = b.alloc_heap(64);
    b.store(idx, 0i64, 8, 1i64);
    // The paper's end-anchored idiom: every offset from `end` is negative,
    // so only the mitigation's lower bound can admit these from history.
    let end = b.ptr_add(p, 256i64);
    b.for_loop(0i64, 2i64, |b, i| {
        let j = b.load(idx, 0i64, 8);
        b.load_discard(end, Expr::var(j) * -8, 8);
        b.if_nonzero(Expr::from(1i64) - Expr::var(i), |b| b.free(p));
    });
    let prog = b.build();

    let a = analyze(&prog, &ToolProfile::giantsan());
    assert_eq!(
        a.fates[2],
        SiteFate::Cached,
        "the end-anchored access must take the cached path for this test to \
         exercise lower-bound staleness"
    );
    let (r, san) = run_reverse_mitigated(&prog, &[]);
    assert!(
        san.counters().cache_hits >= 1,
        "the second iteration must be admitted by the quasi-lower-bound \
         (got {:?})",
        san.counters()
    );
    assert!(
        r.detected(),
        "use-after-free below the anchor suppressed by a stale quasi-lower-bound"
    );
    assert!(
        r.reports.iter().any(|e| e.kind == ErrorKind::UseAfterFree),
        "expected a use-after-free report, got {:?}",
        r.reports
    );
}

/// Invariant 3, below the anchor: quasi-lower-bounds do not survive across
/// loops — after a shrinking realloc between two end-anchored reverse loops,
/// the second loop's first access lands in the released tail and must be
/// reported, not admitted from the first loop's lower bound.
#[test]
fn quasi_lower_bound_does_not_survive_realloc_shrink() {
    let mut b = ProgramBuilder::new("realloc-cached-reverse");
    let p = b.alloc_heap(256);
    let idx = b.alloc_heap(64);
    b.store(idx, 0i64, 8, 1i64);
    let end = b.ptr_add(p, 256i64);
    let reverse_loop = |b: &mut ProgramBuilder| {
        b.for_loop(0i64, 4i64, |b, _| {
            let j = b.load(idx, 0i64, 8);
            // [end - 8, end): the last word of the original 256, released
            // once the object shrinks to 64.
            b.load_discard(end, Expr::var(j) * -8, 8);
        });
    };
    reverse_loop(&mut b);
    b.realloc(p, 64i64);
    reverse_loop(&mut b);
    let prog = b.build();

    let (r, san) = run_reverse_mitigated(&prog, &[]);
    assert!(
        san.counters().cache_hits >= 1,
        "the first loop must converge onto its quasi-lower-bound (got {:?})",
        san.counters()
    );
    assert!(
        r.reports
            .iter()
            .any(|e| e.kind == ErrorKind::HeapBufferOverflow || e.kind == ErrorKind::UseAfterFree),
        "access into the realloc-released tail admitted from a previous \
         loop's quasi-lower-bound: {:?}",
        r.reports
    );
}

/// Invariant 3 (realloc): after a shrinking realloc between two cached
/// loops, an access within the *old* bound must be reported as an overflow
/// by the second loop — the first loop's quasi-bound is gone.
#[test]
fn quasi_bound_does_not_survive_across_loops_after_realloc() {
    let mut b = ProgramBuilder::new("realloc-cross-loop");
    let p = b.alloc_heap(256);
    let idx = b.alloc_heap(64);
    b.store(idx, 0i64, 8, 20i64); // access [160, 168): inside 256, outside 64
    let cached_loop = |b: &mut ProgramBuilder| {
        b.for_loop(0i64, 4i64, |b, _| {
            let j = b.load(idx, 0i64, 8);
            b.load_discard(p, Expr::var(j) * 8, 8);
        });
    };
    cached_loop(&mut b);
    b.realloc(p, 64i64);
    cached_loop(&mut b);
    let prog = b.build();

    let r = run_giantsan(&prog, &[], &ToolProfile::giantsan());
    assert!(
        r.reports
            .iter()
            .any(|e| e.kind == ErrorKind::HeapBufferOverflow || e.kind == ErrorKind::UseAfterFree),
        "post-realloc overflow admitted from a previous loop's quasi-bound: {:?}",
        r.reports
    );
}
