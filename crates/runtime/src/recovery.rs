//! Recover-mode policy: what happens after an [`ErrorReport`] is raised.
//!
//! Production ASan ships `halt_on_error=0` ("recover mode") so a fuzzing
//! campaign survives thousands of reports per run. This module reproduces
//! that control knob for every tool in the workspace: a [`RecoveryPolicy`]
//! chosen on [`crate::RuntimeConfig`] decides whether the interpreter halts
//! at the first report, keeps recording every report (the paper's SPEC
//! configuration), or *recovers* — deduplicating reports per site, rate
//! limiting them per error kind, and containing the faulting access so
//! execution continues on a sound state.

use std::collections::HashMap;

use crate::report::{ErrorKind, ErrorReport};

/// What the runtime does after a check raises an [`ErrorReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Stop execution at the first report (ASan's default deployment mode).
    Halt,
    /// Record every report and keep executing, with no deduplication. This
    /// is the paper's SPEC/detection-study configuration and the historical
    /// behaviour of `halt_on_error: false`, so it is the default.
    #[default]
    Continue,
    /// Recover mode: deduplicate per (site, kind) up to
    /// [`MAX_REPORTS_PER_SITE`], rate-limit per kind to
    /// [`MAX_REPORTS_PER_KIND`], and contain the faulting access (skip it /
    /// re-poison) so the run keeps producing trustworthy results after an
    /// error.
    Recover,
}

impl RecoveryPolicy {
    /// The recover policy, [`RecoveryPolicy::Recover`].
    pub fn recover() -> Self {
        RecoveryPolicy::Recover
    }

    /// Whether execution stops at the first report.
    pub fn halts(&self) -> bool {
        matches!(self, RecoveryPolicy::Halt)
    }

    /// Whether faulting accesses are contained rather than performed.
    pub fn contains_faults(&self) -> bool {
        matches!(self, RecoveryPolicy::Recover)
    }
}

/// Maximum reports [`RecoveryPolicy::Recover`] records for one (site, kind)
/// pair; further reports from the same site are suppressed (counted, not
/// recorded). Mirrors ASan's one-report-per-PC dedup in recover mode.
pub const MAX_REPORTS_PER_SITE: u32 = 1;

/// Maximum reports [`RecoveryPolicy::Recover`] records per [`ErrorKind`]
/// across all sites.
pub const MAX_REPORTS_PER_KIND: u32 = 20;

/// Verdict of [`RecoveryState::admit`] for one raised report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Stop execution (policy is [`RecoveryPolicy::Halt`]).
    Halt,
    /// Record the report and continue.
    Record,
    /// Drop the report (deduplicated or rate-limited) and continue.
    Suppress,
}

/// Per-run dedup/rate-limit bookkeeping for recover mode.
///
/// Keys are `(site, kind)`; reports without a site id share one synthetic
/// site per kind so anonymous reports are still rate-limited. All state is
/// per-execution, so batch cells never share it and runs stay deterministic
/// under any thread count.
#[derive(Debug, Default)]
pub struct RecoveryState {
    per_site: HashMap<(Option<u32>, ErrorKind), u32>,
    per_kind: HashMap<ErrorKind, u32>,
}

impl RecoveryState {
    /// A fresh state with no reports admitted yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decides what to do with `report` under `policy`, updating the dedup
    /// counts when the policy is [`RecoveryPolicy::Recover`].
    pub fn admit(&mut self, policy: &RecoveryPolicy, report: &ErrorReport) -> Admission {
        match policy {
            RecoveryPolicy::Halt => Admission::Halt,
            RecoveryPolicy::Continue => Admission::Record,
            RecoveryPolicy::Recover => {
                let site_count = self.per_site.entry((report.site, report.kind)).or_insert(0);
                let kind_count = self.per_kind.entry(report.kind).or_insert(0);
                if *site_count >= MAX_REPORTS_PER_SITE || *kind_count >= MAX_REPORTS_PER_KIND {
                    Admission::Suppress
                } else {
                    *site_count += 1;
                    *kind_count += 1;
                    Admission::Record
                }
            }
        }
    }

    /// Clears all dedup state (for reusing a session across executions).
    pub fn reset(&mut self) {
        self.per_site.clear();
        self.per_kind.clear();
    }
}

/// A deterministic corruption applied to a tool's shadow metadata.
///
/// Fault-injection campaigns use these to model bit rot / metadata races:
/// a [`FaultKind`] armed at an allocation makes the interpreter ask the
/// tool (via [`crate::Sanitizer::inject_metadata_fault`]) to corrupt its
/// own encoding, and the campaign observes whether checks still behave
/// sanely under [`RecoveryPolicy::Recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataFault {
    /// Flip one bit of the shadow byte covering the given address.
    BitFlip {
        /// Bit index to flip, `0..8`.
        bit: u8,
    },
    /// Downgrade a folded segment code to its unfolded form (GiantSan's
    /// `64 − x → 64`), losing folding performance but staying sound.
    FoldDowngrade,
}

/// One fault of a fault plan, triggered by an allocation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip `bit` of the shadow byte covering `base + byte_offset` of the
    /// triggering allocation (models metadata corruption).
    ShadowBitFlip {
        /// Offset into the triggering allocation whose covering shadow byte
        /// is corrupted.
        byte_offset: u64,
        /// Bit index to flip, `0..8`.
        bit: u8,
    },
    /// Downgrade the folded code covering `base + byte_offset` to its
    /// unfolded form (GiantSan loses folding performance but stays sound;
    /// flat-encoding tools have nothing to downgrade).
    FoldDowngrade {
        /// Offset into the triggering allocation whose covering code is
        /// downgraded.
        byte_offset: u64,
    },
    /// Fail the triggering allocation with out-of-memory.
    AllocOom,
    /// Run the whole session with the quarantine capped at `cap` bytes,
    /// forcing early recycling (temporal-detection pressure).
    QuarantineExhaustion {
        /// Quarantine byte capacity forced on the session.
        cap: u64,
    },
    /// Run the interpreter with at most `max_steps` statements.
    StepBudget {
        /// Statement budget forced on the execution.
        max_steps: u64,
    },
}

/// A [`FaultKind`] armed at the `alloc_index`-th allocation of the run
/// (0-based, counting every `alloc` and `realloc` the program performs).
///
/// Session-wide kinds ([`FaultKind::QuarantineExhaustion`],
/// [`FaultKind::StepBudget`]) ignore the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Which fault to inject.
    pub kind: FaultKind,
    /// Allocation ordinal that triggers it.
    pub alloc_index: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(kind: ErrorKind, site: Option<u32>) -> ErrorReport {
        let r = ErrorReport::new(kind, giantsan_shadow::Addr::new(0x1000), 8);
        match site {
            Some(s) => r.with_site(s),
            None => r,
        }
    }

    #[test]
    fn halt_policy_always_halts() {
        let mut st = RecoveryState::new();
        let r = report(ErrorKind::HeapBufferOverflow, Some(1));
        assert_eq!(st.admit(&RecoveryPolicy::Halt, &r), Admission::Halt);
        assert_eq!(st.admit(&RecoveryPolicy::Halt, &r), Admission::Halt);
    }

    #[test]
    fn continue_policy_records_everything() {
        let mut st = RecoveryState::new();
        let r = report(ErrorKind::UseAfterFree, Some(3));
        for _ in 0..100 {
            assert_eq!(st.admit(&RecoveryPolicy::Continue, &r), Admission::Record);
        }
    }

    #[test]
    fn recover_dedups_per_site() {
        let mut st = RecoveryState::new();
        let p = RecoveryPolicy::recover();
        let r = report(ErrorKind::HeapBufferOverflow, Some(7));
        assert_eq!(st.admit(&p, &r), Admission::Record);
        assert_eq!(st.admit(&p, &r), Admission::Suppress);
        // A different site of the same kind is still admitted.
        let r2 = report(ErrorKind::HeapBufferOverflow, Some(8));
        assert_eq!(st.admit(&p, &r2), Admission::Record);
    }

    #[test]
    fn recover_rate_limits_per_kind() {
        assert_eq!(MAX_REPORTS_PER_KIND, 20);
        let mut st = RecoveryState::new();
        let p = RecoveryPolicy::recover();
        for site in 0..20 {
            let r = report(ErrorKind::UseAfterFree, Some(site));
            assert_eq!(st.admit(&p, &r), Admission::Record, "site {site}");
        }
        // The 21st distinct site finds the kind budget spent.
        let r = report(ErrorKind::UseAfterFree, Some(20));
        assert_eq!(st.admit(&p, &r), Admission::Suppress, "kind budget spent");
        // Other kinds have their own budget.
        let r = report(ErrorKind::HeapBufferUnderflow, Some(99));
        assert_eq!(st.admit(&p, &r), Admission::Record);
    }

    #[test]
    fn anonymous_reports_share_one_site_budget() {
        let mut st = RecoveryState::new();
        let p = RecoveryPolicy::recover();
        let r = report(ErrorKind::InvalidFree, None);
        assert_eq!(st.admit(&p, &r), Admission::Record);
        assert_eq!(st.admit(&p, &r), Admission::Suppress);
    }

    #[test]
    fn reset_restores_budgets() {
        let mut st = RecoveryState::new();
        let p = RecoveryPolicy::recover();
        let r = report(ErrorKind::InvalidFree, Some(1));
        assert_eq!(st.admit(&p, &r), Admission::Record);
        st.reset();
        assert_eq!(st.admit(&p, &r), Admission::Record);
    }

    #[test]
    fn default_policy_is_continue() {
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::Continue);
        assert!(!RecoveryPolicy::default().halts());
        assert!(RecoveryPolicy::recover().contains_faults());
    }
}
