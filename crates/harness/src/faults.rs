//! Deterministic fault injection: seeded fault plans.
//!
//! A [`FaultPlan`] is pure data attached to a [`crate::SessionSpec`]: it
//! names which faults to inject (shadow bit flips, folded-code downgrades,
//! allocator OOM, quarantine exhaustion, interpreter step budgets) and at
//! which allocation events. Because the plan travels with the spec and every
//! batch worker rebuilds its session from the spec, a given `(seed, cell)`
//! pair injects the identical fault schedule at any `--threads N` — the
//! property the `repro faults` campaign's digest check locks down.
//!
//! The plan is applied entirely when a session is built: the quarantine cap
//! goes into the session's `RuntimeConfig`, and the step budget and the
//! armed events go into its [`giantsan_ir::ExecConfig`], whose `Alloc` and
//! `Realloc` steps fire the allocation-triggered events. No wrapper stands
//! between the interpreter and the tool, so a faulty run executes the same
//! monomorphized interpreter as a clean one.

pub use giantsan_runtime::{FaultEvent, FaultKind};

/// A deterministic, seedable schedule of faults for one session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (recorded for reproducibility).
    pub seed: u64,
    /// The armed faults, in arming order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan carrying `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one armed fault.
    pub fn with_event(mut self, kind: FaultKind, alloc_index: u64) -> Self {
        self.events.push(FaultEvent { kind, alloc_index });
        self
    }

    /// The step budget this plan imposes, if any (smallest wins).
    pub fn step_budget(&self) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::StepBudget { max_steps } => Some(max_steps),
                _ => None,
            })
            .min()
    }

    /// The quarantine cap this plan forces, if any (smallest wins).
    pub fn quarantine_cap(&self) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::QuarantineExhaustion { cap } => Some(cap),
                _ => None,
            })
            .min()
    }
}

/// `splitmix64`: the tiny, high-quality PRNG step used to derive fault
/// schedules from seeds. Advances `state` and returns the next value.
///
/// Deterministic by construction — the same seed always unfolds into the
/// same schedule, independent of thread count or platform.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOutcome, SessionSpec, Tool};
    use giantsan_ir::{Expr, Program, ProgramBuilder, PtrId, Termination};
    use giantsan_runtime::RuntimeConfig;

    /// Runs `program` on `inputs` under GiantSan at
    /// [`RuntimeConfig::small`] with `plan` armed (or no plan).
    fn run_under(program: &Program, inputs: &[i64], plan: Option<FaultPlan>) -> RunOutcome {
        SessionSpec {
            config: RuntimeConfig::small(),
            faults: plan,
            ..SessionSpec::new(Tool::GiantSan)
        }
        .run(program, inputs)
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
    }

    #[test]
    fn plan_level_overrides_pick_smallest() {
        let plan = FaultPlan::new(4)
            .with_event(FaultKind::StepBudget { max_steps: 500 }, 0)
            .with_event(FaultKind::StepBudget { max_steps: 100 }, 0)
            .with_event(FaultKind::QuarantineExhaustion { cap: 64 }, 0);
        assert_eq!(plan.step_budget(), Some(100));
        assert_eq!(plan.quarantine_cap(), Some(64));
        assert_eq!(FaultPlan::new(0).step_budget(), None);
    }

    /// A crash with the reason an armed OOM leaves for a `size`-byte
    /// request.
    fn oom_crash(size: u64) -> Termination {
        Termination::Crashed {
            reason: format!("allocation failure: simulated heap exhausted serving {size} bytes"),
        }
    }

    #[test]
    fn oom_fires_at_the_armed_ordinal() {
        let mut b = ProgramBuilder::new("three-allocs");
        b.alloc_heap(8i64);
        b.alloc_global(16i64);
        b.alloc_heap(24i64);
        let prog = b.build();
        for tool in Tool::ALL {
            let run = |plan| {
                SessionSpec {
                    config: RuntimeConfig::small(),
                    faults: Some(plan),
                    ..SessionSpec::new(tool)
                }
                .run(&prog, &[])
            };
            // The global allocation is ordinal 1: it fails with the user
            // size and never reaches the tool's counters.
            let out = run(FaultPlan::new(1).with_event(FaultKind::AllocOom, 1));
            assert_eq!(out.result.termination, oom_crash(16), "{tool:?}");
            assert_eq!(out.result.steps, 2, "{tool:?}");
            assert_eq!(out.counters.allocs, 1, "{tool:?}");
            // An ordinal past the last allocation never fires.
            let out = run(FaultPlan::new(1).with_event(FaultKind::AllocOom, 3));
            assert_eq!(out.result.termination, Termination::Finished, "{tool:?}");
            assert_eq!(out.counters.allocs, 3, "{tool:?}");
        }
    }

    #[test]
    fn realloc_takes_an_ordinal_but_never_fires() {
        // alloc (ordinal 0) -> realloc (1) -> alloc (2).
        let mut b = ProgramBuilder::new("alloc-realloc-alloc");
        let p = b.alloc_heap(16i64);
        b.store(p, 0i64, 8, 5i64);
        b.realloc(p, 32i64);
        b.load_discard(p, 0i64, 8);
        b.alloc_heap(24i64);
        let prog = b.build();
        let oom_at = |ordinal| Some(FaultPlan::new(5).with_event(FaultKind::AllocOom, ordinal));
        // Armed at 2, the run crashes at the second `alloc`, after the
        // realloc completed: the load behind it read the moved value.
        let out = run_under(&prog, &[], oom_at(2));
        assert_eq!(out.result.termination, oom_crash(24));
        assert_eq!(out.result.steps, 5);
        assert_eq!(out.result.checksum, 5);
        assert_eq!(out.counters.frees, 1, "the realloc released the old block");
        // Armed at the realloc's own ordinal, nothing fires.
        let clean = run_under(&prog, &[], None);
        let out = run_under(&prog, &[], oom_at(1));
        assert_eq!(out.result.termination, Termination::Finished);
        assert_eq!(out.result.digest(), clean.result.digest());
        assert_eq!(out.counters, clean.counters);
    }

    #[test]
    fn bit_flip_corrupts_and_check_fails_closed() {
        // Flipping bit 1 of the first code of a 64-byte object makes it
        // claim less than the object: the in-bounds full-object write is
        // reported (a false positive) instead of admitted, and the run goes
        // on without a crash.
        let mut b = ProgramBuilder::new("flip");
        let p = b.alloc_heap(64i64);
        b.memset(p, 0i64, 64i64, 1i64);
        let prog = b.build();
        let flip = FaultKind::ShadowBitFlip {
            byte_offset: 0,
            bit: 1,
        };
        let clean = run_under(&prog, &[], None);
        assert!(clean.result.reports.is_empty());
        let out = run_under(&prog, &[], Some(FaultPlan::new(2).with_event(flip, 0)));
        assert_eq!(out.result.termination, Termination::Finished);
        assert_eq!(out.result.reports.len(), 1);
        assert_eq!(out.counters.reports, 1);
        assert_eq!(out.counters.allocs, clean.counters.allocs);
    }

    #[test]
    fn fold_downgrade_is_sound() {
        // The access offset is an input, so the planner cannot prove it safe.
        let downgraded = |access: &dyn Fn(&mut ProgramBuilder, PtrId, Expr)| {
            let mut b = ProgramBuilder::new("downgrade");
            let p = b.alloc_heap(256i64);
            let offset = b.input(0);
            access(&mut b, p, offset);
            let downgrade = FaultKind::FoldDowngrade { byte_offset: 0 };
            let plan = FaultPlan::new(3).with_event(downgrade, 0);
            run_under(&b.build(), &[0], Some(plan))
        };
        // Losing a fold never admits an invalid access (sound direction)...
        let out = downgraded(&|b, p, off| b.memset(p, off, 257i64, 1i64));
        assert_eq!(out.result.termination, Termination::Finished);
        assert_eq!(out.result.reports.len(), 1);
        assert_eq!(out.result.reports[0].len, 257);
        // ...the O(1) full-object check fails closed (a false positive on
        // a valid write)...
        let out = downgraded(&|b, p, off| b.memset(p, off, 256i64, 1i64));
        assert_eq!(out.result.termination, Termination::Finished);
        assert_eq!(out.result.reports.len(), 1);
        // ...and the downgraded code still admits the 8 bytes it covers.
        let out = downgraded(&|b, p, off| b.load_discard(p, off, 8));
        assert_eq!(out.result.termination, Termination::Finished);
        assert_eq!(out.counters.total_checks(), 1);
        assert!(out.result.reports.is_empty());
    }
}
