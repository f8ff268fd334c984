//! `promote`: check-in-loop promotion (paper §4.4.2, Figure 8c).
//!
//! An access whose offset decomposes as `coeff·i + base` over the innermost
//! loop's induction variable is replaced by one region pre-check in a loop
//! pre-header covering the whole iteration range. Loop-invariant accesses
//! (`coeff == 0`) hoist under the elimination family (the ASan-- style
//! optimisation, keyed on the `merge` pass being enabled); true affine
//! accesses additionally need a transparent, loop-invariant trip count
//! (`loop-bounds` facts).
//!
//! The hull then climbs outward through enclosing loops it is still affine
//! in (`hoist_hull`), stopping at allocation barriers, pointer
//! redefinitions, and loops without a provably positive trip count.
//! Promotion is refused outright when the innermost loop has a barrier or
//! redefines the pointer — the pre-check would test stale memory.

use giantsan_ir::{Expr, LoopId, PreCheck, PtrId, SiteAction};

use crate::affine;
use crate::passes::Pass;
use crate::pipeline::{AnalysisCtx, LoopCtx, PassId, PassOutcome};
use crate::planner::SiteFate;

pub(crate) struct PromotePass;

impl Pass for PromotePass {
    fn id(&self) -> PassId {
        PassId::Promote
    }

    fn run(&self, cx: &mut AnalysisCtx<'_>) -> PassOutcome {
        let mut out = PassOutcome::default();
        for idx in 0..cx.sites.len() {
            if cx.decided[idx] {
                continue;
            }
            let Some(rec) = cx.sites[idx].clone() else {
                continue;
            };
            let Some(inner) = rec.loops.last().cloned() else {
                continue;
            };
            out.visited += 1;
            let has_barrier = cx.barriers.get(&inner.id).copied().unwrap_or(false);
            let ptr_varies = cx.ptr_defs_in_loop.contains(&(rec.ptr, inner.id));
            if has_barrier || ptr_varies {
                continue;
            }
            let Some(aff) = affine::decompose(&rec.offset, inner.id, inner.var, &cx.env) else {
                continue;
            };
            let promotable = if aff.coeff == 0 {
                // Loop-invariant check: hoisting is part of the elimination
                // family.
                cx.profile.enables(PassId::Merge)
            } else {
                // Affine: needs a knowable, invariant trip count.
                !inner.opaque && cx.bounds_invariant.get(&inner.id).copied().unwrap_or(false)
            };
            if !promotable {
                continue;
            }
            let (lo, hi) = promoted_range(&aff, &inner, rec.width);
            let (target, lo, hi) = hoist_hull(cx, &rec.loops, lo, hi, rec.ptr);
            cx.plans
                .entry(target)
                .or_default()
                .pre_checks
                .push(PreCheck {
                    ptr: rec.ptr,
                    lo,
                    hi,
                    kind: rec.kind,
                });
            let reason = if aff.coeff == 0 {
                format!("loop-invariant range; CI hoisted to loop {target}'s pre-header")
            } else {
                format!(
                    "affine stride {} over loop {}; CI hoisted to loop {target}'s pre-header",
                    aff.coeff, inner.id
                )
            };
            out.transformed += 1;
            out.eliminated += 1;
            cx.decide_site(
                idx,
                SiteAction::Skip,
                SiteFate::Promoted,
                PassId::Promote,
                reason,
            );
        }
        out
    }
}

/// Builds the `[lo, hi)` offset expressions of a promoted check:
/// `CI(x + min, x + max + width)` over the loop's iteration range. Lower
/// bounds stay raw; the `anchor` pass folds in the §4.4.1 anchor for
/// anchored tools (Figure 8c's `CI(x, x+4N)`).
fn promoted_range(aff: &affine::Affine, l: &LoopCtx, width: u8) -> (Expr, Expr) {
    let a = aff.coeff;
    let b = || aff.base.clone();
    let lo_i = || l.lo.clone();
    let hi_i = || l.hi.clone() - 1;
    if a >= 0 {
        (
            affine::fold(lo_i() * a + b()),
            affine::fold(hi_i() * a + b() + width as i64),
        )
    } else {
        (
            affine::fold(hi_i() * a + b()),
            affine::fold(lo_i() * a + b() + width as i64),
        )
    }
}

/// Hoists a promoted hull `[lo, hi)` outward through the loop stack,
/// widening it over each induction variable it is affine in. Returns the
/// loop to attach the pre-check to and the widened hull.
fn hoist_hull(
    cx: &AnalysisCtx<'_>,
    stack: &[LoopCtx],
    mut lo: Expr,
    mut hi: Expr,
    ptr: PtrId,
) -> (LoopId, Expr, Expr) {
    let mut level = stack.len() - 1;
    while level > 0 {
        let current = &stack[level];
        let parent = &stack[level - 1];
        // The loop being left must provably execute at least once, so the
        // widened endpoints correspond to accesses that really run.
        let trip_positive = cx.trip_positive.get(&current.id).copied().unwrap_or(false);
        if !trip_positive
            || cx.barriers.get(&parent.id).copied().unwrap_or(false)
            || cx.ptr_defs_in_loop.contains(&(ptr, parent.id))
        {
            break;
        }
        // Widen the hull over the *parent's* induction variable: the bounds
        // may still reference it after leaving `current`.
        let (Some(alo), Some(ahi)) = (
            affine::decompose(&lo, parent.id, parent.var, &cx.env),
            affine::decompose(&hi, parent.id, parent.var, &cx.env),
        ) else {
            break;
        };
        let plo = || parent.lo.clone();
        let phi = || parent.hi.clone() - 1;
        lo = affine::fold(if alo.coeff >= 0 {
            plo() * alo.coeff + alo.base
        } else {
            phi() * alo.coeff + alo.base
        });
        hi = affine::fold(if ahi.coeff >= 0 {
            phi() * ahi.coeff + ahi.base
        } else {
            plo() * ahi.coeff + ahi.base
        });
        level -= 1;
    }
    (stack[level].id, lo, hi)
}
