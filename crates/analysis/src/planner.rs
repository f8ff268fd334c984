//! The instrumentation planner: from a program and a tool profile to a
//! [`CheckPlan`].
//!
//! This is the reproduction of the paper's compilation-phase pipeline
//! (§4.4). [`analyze`] runs the pass pipeline (see [`crate::pipeline`]): the
//! planner first gives every access its instruction-level check, then —
//! pass set permitting — merges must-aliased constant-offset checks
//! (Aliased Check Elimination), hoists loop-invariant checks, promotes
//! affine in-loop checks to one pre-header region check (Check-in-Loop
//! Promotion via the SCEV-style [`crate::affine`] decomposition), and routes
//! everything else through quasi-bound history caches. The worked example is
//! Figure 8: five checks become `CI(p, p+8)`, `CI(x, x+4N)` and one cached
//! check for `y[j]`.

use std::collections::HashMap;
use std::time::Instant;

use giantsan_ir::{CheckPlan, Program};

use crate::passes;
use crate::pipeline::{AnalysisCtx, PassId, PassOutcome, PassStats, Provenance};
use crate::profile::ToolProfile;

/// Why a site ended up with its action (static accounting for Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteFate {
    /// Plain instruction-level check.
    Direct,
    /// Anchored operation check.
    Anchored,
    /// Carries a merged region check covering eliminated aliases.
    MergeLeader,
    /// Eliminated: covered by a merge leader.
    MergedAway,
    /// Eliminated: hoisted to a loop pre-header (invariant or affine).
    Promoted,
    /// Routed through a quasi-bound cache.
    Cached,
    /// Memory intrinsic checked as a region by the runtime guardian.
    MemIntrinsic,
    /// Eliminated: the access is provably in bounds at compile time (a
    /// constant offset into a constant-size allocation with no intervening
    /// free) — no runtime check is needed at all.
    StaticallySafe,
}

/// A produced plan plus its static accounting and observability records.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The executable plan.
    pub plan: CheckPlan,
    /// Static fate of every site, indexed by [`giantsan_ir::SiteId`].
    pub fates: Vec<SiteFate>,
    /// Which pass decided each site, and why (`None` for site ids that
    /// never appear in the program).
    pub provenance: Vec<Option<Provenance>>,
    /// One row per pipeline stage, in execution order.
    pub pass_stats: Vec<PassStats>,
}

impl Analysis {
    /// Counts sites per fate.
    pub fn fate_counts(&self) -> HashMap<SiteFate, usize> {
        let mut m = HashMap::new();
        for f in &self.fates {
            *m.entry(*f).or_insert(0) += 1;
        }
        m
    }

    /// Renders the plan human-readably: one line per site, then the
    /// per-loop pre-checks (the "instrumented source" view of Figure 8c).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, fate) in self.fates.iter().enumerate() {
            let _ = writeln!(out, "site s{i}: {}", fate.describe());
        }
        let mut loops: Vec<_> = self.plan.loops.iter().collect();
        loops.sort_by_key(|(id, _)| **id);
        for (id, lp) in loops {
            for pre in &lp.pre_checks {
                let _ = writeln!(
                    out,
                    "loop {id} pre-header: CI({} + {}, {} + {})",
                    pre.ptr, pre.lo, pre.ptr, pre.hi
                );
            }
            for (cache, ptr) in &lp.caches {
                let _ = writeln!(out, "loop {id}: quasi-bound slot #{} for {ptr}", cache.0);
            }
        }
        out
    }

    /// Renders the per-site provenance table: fate, deciding pass, and the
    /// pass's recorded reasoning.
    pub fn render_provenance(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, fate) in self.fates.iter().enumerate() {
            match &self.provenance[i] {
                Some(p) => {
                    let _ = writeln!(
                        out,
                        "s{i:<4} {:<15} [{:<13}] {}",
                        format!("{fate:?}"),
                        p.pass.name(),
                        p.reason
                    );
                }
                None => {
                    let _ = writeln!(out, "s{i:<4} {:<15} [{:<13}] -", format!("{fate:?}"), "-");
                }
            }
        }
        out
    }

    /// Renders the per-pass statistics table (one row per pipeline stage).
    ///
    /// Wall time is left out so the table is identical run to run.
    pub fn render_pass_stats(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("pass           on   visited  transformed  eliminated\n");
        for s in &self.pass_stats {
            let _ = writeln!(
                out,
                "{:<14} {:<3} {:>8} {:>12} {:>11}",
                s.pass.name(),
                if s.enabled { "yes" } else { "no" },
                s.visited,
                s.transformed,
                s.eliminated
            );
        }
        out
    }
}

impl SiteFate {
    /// One-line description of the fate.
    pub fn describe(self) -> &'static str {
        match self {
            SiteFate::Direct => "instruction-level check every execution",
            SiteFate::Anchored => "anchored operation check every execution",
            SiteFate::MergeLeader => "merged region check (covers aliased sites)",
            SiteFate::MergedAway => "eliminated (covered by a merged check)",
            SiteFate::Promoted => "eliminated (hoisted to a loop pre-header CI)",
            SiteFate::Cached => "history-cached (quasi-bound)",
            SiteFate::MemIntrinsic => "region-checked by the runtime guardian",
            SiteFate::StaticallySafe => "eliminated (statically in bounds)",
        }
    }
}

/// Runs the planner for `program` under `profile`: every pipeline stage in
/// canonical order, each skipped unless the profile enables it. The result
/// carries the plan, the fate and provenance tables, and one [`PassStats`]
/// row per stage (disabled stages appear with `enabled: false` and zero
/// counters).
///
/// # Example
///
/// The paper's Figure 8 merging result:
///
/// ```
/// use giantsan_analysis::{analyze, SiteFate, ToolProfile};
/// use giantsan_ir::{Expr, ProgramBuilder};
///
/// // p[0] + p[10] + p[20] — three aliased constant-offset loads into a
/// // runtime-sized buffer (a constant-size one would be statically safe).
/// let mut b = ProgramBuilder::new("alias");
/// let n = b.input(0);
/// let p = b.alloc_heap(n);
/// let _ = b.load(p, 0i64, 8);
/// let _ = b.load(p, 80i64, 8);
/// let _ = b.load(p, 160i64, 8);
/// let prog = b.build();
///
/// let a = analyze(&prog, &ToolProfile::giantsan());
/// assert_eq!(a.fates[0], SiteFate::MergeLeader);
/// assert_eq!(a.fates[1], SiteFate::MergedAway);
/// assert_eq!(a.fates[2], SiteFate::MergedAway);
/// ```
pub fn analyze(program: &Program, profile: &ToolProfile) -> Analysis {
    analyze_recorded(program, profile, &mut giantsan_telemetry::NoopRecorder)
}

/// [`analyze`] with a telemetry recorder: each pipeline stage additionally
/// emits one [`Pass`] event carrying its counters (the deterministic subset
/// of [`PassStats`] — wall time stays out of the data plane).
///
/// [`Pass`]: giantsan_telemetry::EventKind::Pass
pub fn analyze_recorded<R: giantsan_telemetry::Recorder>(
    program: &Program,
    profile: &ToolProfile,
    rec: &mut R,
) -> Analysis {
    let mut cx = AnalysisCtx::new(program, profile);
    let mut stats = Vec::with_capacity(PassId::PIPELINE.len());
    for pass in passes::registry() {
        let id = pass.id();
        let enabled = profile.enables(id);
        let start = Instant::now();
        let out = if enabled {
            pass.run(&mut cx)
        } else {
            PassOutcome::default()
        };
        if R::ENABLED {
            rec.record(giantsan_telemetry::EventKind::Pass {
                pass: id.name(),
                enabled,
                visited: out.visited,
                transformed: out.transformed,
                eliminated: out.eliminated,
            });
        }
        stats.push(PassStats {
            pass: id,
            enabled,
            visited: out.visited,
            transformed: out.transformed,
            eliminated: out.eliminated,
            wall: start.elapsed(),
        });
    }
    Analysis {
        plan: CheckPlan {
            sites: cx.actions,
            loops: cx.plans,
            num_caches: cx.num_caches,
        },
        fates: cx.fates,
        provenance: cx.provenance,
        pass_stats: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_ir::{Expr, LoopId, ProgramBuilder, SiteAction};

    /// The paper's Figure 8a program.
    fn figure8() -> Program {
        let mut b = ProgramBuilder::new("figure8");
        let n = b.input(0);
        // int *x = p[0]; int *y = p[1]; modelled as two buffers.
        let x = b.alloc_heap(Expr::input(0) * 4);
        let y = b.alloc_heap(Expr::input(0) * 4 + 1024);
        b.for_loop(0i64, n, |b, i| {
            let j = b.load(x, Expr::var(i) * 4, 4); // site 0
            b.store(y, Expr::var(j) * 4, 4, Expr::var(i)); // site 1
        });
        b.memset(x, 0i64, Expr::input(0) * 4, 0i64); // site 2
        b.free(x);
        b.free(y);
        b.build()
    }

    #[test]
    fn figure8_giantsan_plan_matches_figure_8c() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::giantsan());
        // x[i] promoted to CI(x, x+4N); y[j] cached; memset checked as region.
        assert_eq!(a.fates[0], SiteFate::Promoted);
        assert_eq!(a.fates[1], SiteFate::Cached);
        assert_eq!(a.fates[2], SiteFate::MemIntrinsic);
        let lp = &a.plan.loops[&LoopId(0)];
        assert_eq!(lp.pre_checks.len(), 1);
        assert_eq!(lp.caches.len(), 1);
        assert_eq!(a.plan.num_caches, 1);
        // The promoted region is [0, 4N): anchored at x.
        assert_eq!(lp.pre_checks[0].lo, Expr::Const(0));
        assert_eq!(lp.pre_checks[0].hi.eval(&[], &[100]), 400);
    }

    #[test]
    fn figure8_asan_plan_is_all_direct() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::asan());
        assert_eq!(a.fates[0], SiteFate::Direct);
        assert_eq!(a.fates[1], SiteFate::Direct);
        assert!(a.plan.loops.is_empty());
        assert_eq!(a.plan.num_caches, 0);
    }

    #[test]
    fn figure8_asan_mm_promotes_but_does_not_cache() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::asan_minus_minus());
        assert_eq!(a.fates[0], SiteFate::Promoted);
        assert_eq!(a.fates[1], SiteFate::Direct, "no caching in ASan--");
        // Non-anchored: the promoted range keeps its computed lower bound.
        let lp = &a.plan.loops[&LoopId(0)];
        assert_eq!(lp.pre_checks[0].lo.eval(&[], &[100]), 0);
    }

    #[test]
    fn cache_only_profile_caches_everything_in_loops() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::giantsan_cache_only());
        assert_eq!(a.fates[0], SiteFate::Cached);
        assert_eq!(a.fates[1], SiteFate::Cached);
        assert_eq!(a.plan.num_caches, 2);
    }

    #[test]
    fn elimination_only_promotes_and_anchors_the_rest() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::giantsan_elimination_only());
        assert_eq!(a.fates[0], SiteFate::Promoted);
        assert_eq!(a.fates[1], SiteFate::Anchored);
    }

    #[test]
    fn opaque_bounds_block_promotion() {
        let mut b = ProgramBuilder::new("opaque");
        let n = b.input(0);
        let p = b.alloc_heap(Expr::input(0) * 8);
        b.for_loop_opaque(0i64, n, |b, i| {
            b.load_discard(p, Expr::var(i) * 8, 8);
        });
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_eq!(a.fates[0], SiteFate::Cached);
        let a = analyze(&prog, &ToolProfile::asan_minus_minus());
        assert_eq!(a.fates[0], SiteFate::Direct);
    }

    #[test]
    fn frees_inside_loops_block_promotion() {
        let mut b = ProgramBuilder::new("barrier");
        let n = b.input(0);
        let p = b.alloc_heap(4096);
        b.for_loop(0i64, n, |b, i| {
            b.load_discard(p, Expr::var(i) * 8, 8);
            let q = b.alloc_heap(16);
            b.free(q);
        });
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_eq!(
            a.fates[0],
            SiteFate::Cached,
            "allocation churn in the loop must force the cached path"
        );
    }

    #[test]
    fn invariant_access_hoisted() {
        let mut b = ProgramBuilder::new("invariant");
        let n = b.input(0);
        let p = b.alloc_heap(64);
        b.for_loop(0i64, n, |b, _| {
            b.load_discard(p, 8i64, 8);
        });
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::asan_minus_minus());
        assert_eq!(a.fates[0], SiteFate::Promoted);
        let lp = &a.plan.loops[&LoopId(0)];
        assert_eq!(lp.pre_checks[0].lo, Expr::Const(8));
        assert_eq!(lp.pre_checks[0].hi, Expr::Const(16));
    }

    #[test]
    fn reverse_affine_promotes_with_flipped_range() {
        let mut b = ProgramBuilder::new("rev");
        let n = b.input(0);
        let p = b.alloc_heap(Expr::input(0) * 8);
        b.for_loop_rev(0i64, n, |b, i| {
            b.load_discard(p, Expr::var(i) * 8, 8);
        });
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        // Direction does not matter for the range: still [0, 8N).
        assert_eq!(a.fates[0], SiteFate::Promoted);
        let lp = &a.plan.loops[&LoopId(0)];
        assert_eq!(lp.pre_checks[0].hi.eval(&[], &[64]), 512);
    }

    #[test]
    fn negative_stride_promotion() {
        let mut b = ProgramBuilder::new("negstride");
        let n = b.input(0);
        let p = b.alloc_heap(Expr::input(0) * 8);
        // offset = 8*(N-1) - 8*i: walks backward with a forward loop.
        b.for_loop(0i64, n, |b, i| {
            b.load_discard(p, (Expr::input(0) - 1) * 8 - Expr::var(i) * 8, 8);
        });
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_eq!(a.fates[0], SiteFate::Promoted);
        let lp = &a.plan.loops[&LoopId(0)];
        // For N = 4: region [0, 32).
        assert_eq!(lp.pre_checks[0].lo.eval(&[], &[4]), 0);
        assert_eq!(lp.pre_checks[0].hi.eval(&[], &[4]), 32);
    }

    #[test]
    fn merging_respects_barriers() {
        let mut b = ProgramBuilder::new("barrier2");
        let p = b.alloc_heap(64);
        b.load_discard(p, 0i64, 8);
        b.free(p);
        let q = b.alloc_heap(64);
        let _ = q;
        b.load_discard(p, 8i64, 8); // use-after-free, separately checked
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_ne!(a.fates[0], SiteFate::MergedAway);
        assert_ne!(a.fates[1], SiteFate::MergedAway);
    }

    #[test]
    fn merged_region_covers_hull_and_underflow_keeps_sign() {
        let mut b = ProgramBuilder::new("hull");
        let n = b.input(0);
        let p = b.alloc_heap(n);
        b.store(p, 16i64, 8, 1i64);
        b.load_discard(p, 40i64, 4);
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        match &a.plan.sites[0] {
            SiteAction::Region { lo, hi } => {
                // Anchored: extends down to the base.
                assert_eq!(lo, &Expr::Const(0));
                assert_eq!(hi, &Expr::Const(44));
            }
            other => panic!("expected region, got {other:?}"),
        }
        // For ASan--, the hull spans 6 segments but only replaces 2 checks:
        // the linear guardian makes that merge unprofitable, so it is
        // refused.
        let a = analyze(&prog, &ToolProfile::asan_minus_minus());
        assert_eq!(a.plan.sites[0], SiteAction::Direct);
        assert_eq!(a.plan.sites[1], SiteAction::Direct);
    }

    #[test]
    fn asan_mm_merges_only_when_profitable() {
        // Three 8-byte accesses inside one 16-byte hull: the 2-segment walk
        // replaces 3 checks — profitable even for a linear guardian.
        let mut b = ProgramBuilder::new("dense");
        let n = b.input(0);
        let p = b.alloc_heap(n);
        b.load_discard(p, 0i64, 8);
        b.load_discard(p, 4i64, 8);
        b.load_discard(p, 8i64, 8);
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::asan_minus_minus());
        assert_eq!(a.fates[0], SiteFate::MergeLeader);
        assert_eq!(a.fates[1], SiteFate::MergedAway);
        assert_eq!(a.fates[2], SiteFate::MergedAway);
        match &a.plan.sites[0] {
            SiteAction::Region { lo, hi } => {
                assert_eq!(lo, &Expr::Const(0));
                assert_eq!(hi, &Expr::Const(16));
            }
            other => panic!("expected region, got {other:?}"),
        }
    }

    #[test]
    fn lfp_profile_anchors_every_site() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::lfp());
        assert_eq!(a.fates[0], SiteFate::Anchored);
        assert_eq!(a.fates[1], SiteFate::Anchored);
        assert!(a.plan.loops.is_empty());
    }

    #[test]
    fn constant_nests_hoist_to_the_outermost_loop() {
        // A stencil-style nest with constant inner bounds: the promoted
        // check climbs to the outer (runtime-bounded) loop and runs once per
        // outer iteration instead of once per row.
        let mut b = ProgramBuilder::new("nest");
        let steps = b.input(0);
        let p = b.alloc_heap(64 * 64 * 8);
        b.for_loop(0i64, steps, |b, _| {
            b.for_loop(1i64, 63i64, |b, y| {
                b.for_loop(1i64, 63i64, |b, x| {
                    b.load_discard(p, (Expr::var(y) * 64 + Expr::var(x)) * 8, 8);
                });
            });
        });
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_eq!(a.fates[0], SiteFate::Promoted);
        // The pre-check lives on the outermost loop (id 0), anchored at the
        // base for the anchored profile.
        let lp = &a.plan.loops[&LoopId(0)];
        assert_eq!(lp.pre_checks.len(), 1);
        assert_eq!(lp.pre_checks[0].lo.as_const(), Some(0));
        assert_eq!(lp.pre_checks[0].hi.as_const(), Some((62 * 64 + 62) * 8 + 8));
        assert!(!a.plan.loops.contains_key(&LoopId(2)));
        // The non-anchored profile keeps the true widened lower offset.
        let a = analyze(&prog, &ToolProfile::asan_minus_minus());
        let lp = &a.plan.loops[&LoopId(0)];
        assert_eq!(lp.pre_checks[0].lo.as_const(), Some((64 + 1) * 8));
    }

    #[test]
    fn hoisting_stops_at_possibly_empty_loops() {
        // The middle loop's bound is a runtime input: it may run zero times,
        // so lifting the inner check past it would fire for accesses that
        // never happen. The check must stay on the inner loop.
        let mut b = ProgramBuilder::new("maybe-empty");
        let outer_n = b.input(0);
        let mid_n = b.input(1);
        let p = b.alloc_heap(4096);
        b.for_loop(0i64, outer_n, |b, _| {
            b.for_loop(0i64, mid_n.clone(), |b, _| {
                b.for_loop(0i64, 8i64, |b, x| {
                    b.load_discard(p, Expr::var(x) * 8, 8);
                });
            });
        });
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_eq!(a.fates[0], SiteFate::Promoted);
        // Hoisted out of the constant x-loop (id 2) to the mid loop (id 1),
        // but no further: the mid loop's own trip is not provably positive.
        assert!(a.plan.loops.contains_key(&LoopId(1)));
        assert!(!a.plan.loops.contains_key(&LoopId(0)));
        // Soundness at runtime: mid_n = 0 with a tiny buffer must not
        // report.
        let mut b = ProgramBuilder::new("maybe-empty-2");
        let outer_n = b.input(0);
        let mid_n = b.input(1);
        let p = b.alloc_heap(8);
        b.for_loop(0i64, outer_n, |b, _| {
            b.for_loop(0i64, mid_n.clone(), |b, _| {
                b.for_loop(0i64, 8i64, |b, x| {
                    b.load_discard(p, Expr::var(x) * 8, 8);
                });
            });
        });
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        let mut san = giantsan_core::GiantSan::new(giantsan_runtime::RuntimeConfig::small());
        let r = giantsan_ir::run(
            &prog,
            &[5, 0],
            &mut san,
            &a.plan,
            &giantsan_ir::ExecConfig::default(),
        );
        assert!(r.reports.is_empty(), "{:?}", r.reports.first());
    }

    #[test]
    fn strcpy_sites_are_guardian_checked() {
        let mut b = ProgramBuilder::new("strcpy");
        let src = b.alloc_heap(64);
        let dst = b.alloc_heap(64);
        b.strcpy(dst, 0i64, src, 0i64);
        let prog = b.build();
        for profile in [ToolProfile::giantsan(), ToolProfile::asan()] {
            let a = analyze(&prog, &profile);
            assert_eq!(a.fates[0], SiteFate::MemIntrinsic, "{}", profile.name);
        }
    }

    #[test]
    fn realloc_blocks_promotion_and_caching() {
        // The pointer is redefined by realloc inside the loop: neither a
        // hoisted pre-check nor a cache slot may survive the move.
        let mut b = ProgramBuilder::new("realloc-loop");
        let n = b.input(0);
        let p = b.alloc_heap(4096);
        b.for_loop(0i64, n, |b, i| {
            b.load_discard(p, Expr::var(i) * 8, 8);
            b.realloc(p, 4096i64);
        });
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert!(
            matches!(a.fates[0], SiteFate::Anchored | SiteFate::Direct),
            "got {:?}",
            a.fates[0]
        );
        assert_eq!(a.plan.num_caches, 0);
        assert!(a.plan.loops.is_empty() || a.plan.loops[&LoopId(0)].pre_checks.is_empty());
    }

    #[test]
    fn fate_counts_sum_to_sites() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::giantsan());
        let total: usize = a.fate_counts().values().sum();
        assert_eq!(total, prog.num_sites as usize);
    }

    #[test]
    fn statically_safe_accesses_need_no_check() {
        // Constant offsets inside a fresh constant-size allocation: zero
        // runtime checks; the same offsets past the size still get checks.
        let mut b = ProgramBuilder::new("static");
        let p = b.alloc_heap(48);
        b.store(p, 0i64, 8, 1i64);
        b.store(p, 40i64, 8, 2i64);
        b.load_discard(p, 44i64, 4); // 44+4 = 48: still inside
        b.load_discard(p, 48i64, 1); // one past: needs a check
        b.free(p);
        b.load_discard(p, 0i64, 8); // after free: freshness is dead
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_eq!(a.fates[0], SiteFate::StaticallySafe);
        assert_eq!(a.fates[1], SiteFate::StaticallySafe);
        assert_eq!(a.fates[2], SiteFate::StaticallySafe);
        assert_ne!(a.fates[3], SiteFate::StaticallySafe);
        assert_ne!(a.fates[4], SiteFate::StaticallySafe);
        // ASan (no elimination) still checks everything.
        let a = analyze(&prog, &ToolProfile::asan());
        assert!(a.fates.iter().all(|f| *f == SiteFate::Direct));
    }

    #[test]
    fn static_safety_is_block_local_and_killed_by_redefinition() {
        let mut b = ProgramBuilder::new("static-scope");
        let p = b.alloc_heap(64);
        // Inside a nested construct: freshness does not propagate.
        b.if_nonzero(1i64, |b| {
            b.store(p, 0i64, 8, 1i64);
        });
        // Redefinition by ptr_add kills it for the alias.
        let q = b.ptr_add(p, 8i64);
        b.store(q, 0i64, 8, 2i64);
        let prog = b.build();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_ne!(a.fates[0], SiteFate::StaticallySafe, "nested block");
        assert_ne!(a.fates[1], SiteFate::StaticallySafe, "derived pointer");
    }

    #[test]
    fn render_shows_sites_and_prechecks() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::giantsan());
        let s = a.render();
        assert!(s.contains("site s0: eliminated (hoisted"), "{s}");
        assert!(s.contains("site s1: history-cached"), "{s}");
        assert!(s.contains("pre-header: CI(p0 + 0, p0 +"), "{s}");
        assert!(s.contains("quasi-bound slot #0 for p1"), "{s}");
    }

    #[test]
    fn provenance_names_the_deciding_pass() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_eq!(a.provenance.len(), prog.num_sites as usize);
        let p0 = a.provenance[0].as_ref().unwrap();
        assert_eq!(p0.pass, PassId::Promote);
        assert!(p0.reason.contains("affine stride 4"), "{}", p0.reason);
        let p1 = a.provenance[1].as_ref().unwrap();
        assert_eq!(p1.pass, PassId::Cache);
        let p2 = a.provenance[2].as_ref().unwrap();
        assert_eq!(p2.pass, PassId::ConstProp);
        let s = a.render_provenance();
        assert!(s.contains("[promote"), "{s}");
        assert!(s.contains("[cache"), "{s}");
    }

    #[test]
    fn pass_stats_cover_the_whole_pipeline() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::giantsan());
        assert_eq!(a.pass_stats.len(), PassId::PIPELINE.len());
        // Every pass of the full profile is enabled and the decisions add
        // up: promote 1, cache 1, const-prop settles the intrinsic.
        assert!(a.pass_stats.iter().all(|s| s.enabled));
        let by = |id: PassId| a.pass_stats.iter().find(|s| s.pass == id).unwrap();
        assert_eq!(by(PassId::Promote).transformed, 1);
        assert_eq!(by(PassId::Cache).transformed, 1);
        assert_eq!(by(PassId::Finalize).transformed, 0);
        let s = a.render_pass_stats();
        assert!(s.contains("const-prop"), "{s}");
        assert!(s.contains("promote"), "{s}");
    }

    #[test]
    fn disabled_passes_decide_nothing() {
        let prog = figure8();
        let a = analyze(&prog, &ToolProfile::asan());
        for s in &a.pass_stats {
            if !s.enabled {
                assert_eq!(s.transformed, 0, "{:?}", s.pass);
            }
        }
        // Everything lands in finalize for ASan (but the intrinsic site is
        // settled by const-prop).
        let fin = a
            .pass_stats
            .iter()
            .find(|s| s.pass == PassId::Finalize)
            .unwrap();
        assert_eq!(fin.transformed, 2);
    }
}
