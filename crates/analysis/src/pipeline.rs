//! The planner's pass pipeline: discrete passes over a shared analysis
//! context.
//!
//! [`analyze`](crate::analyze) runs discrete passes in a fixed canonical
//! order (see [`PassId::PIPELINE`]), each reading and extending one shared
//! `AnalysisCtx`. A [`crate::ToolProfile`] selects which passes run — the
//! paper's capability flags (§4.3–§4.4) are exactly pass subsets — and every
//! pass records:
//!
//! - per-pass statistics ([`PassStats`]: sites visited / transformed /
//!   eliminated, wall time), and
//! - a per-site provenance trace ([`Provenance`]: which pass decided the
//!   site's fate, and why).
//!
//! # Ordering constraints
//!
//! The canonical order is not arbitrary (DESIGN.md §12):
//!
//! 1. `const-prop` is structural: it builds the definition environment, the
//!    loop table, allocation barriers and the site records every later pass
//!    consumes, and settles memory intrinsics. It always runs.
//! 2. `must-alias` must precede `static-safety` and `merge` (it discovers
//!    both the candidate groups and the fresh-allocation sizes).
//! 3. `static-safety` must precede `merge`: statically-safe sites leave
//!    their group before the merge hull is computed.
//! 4. `merge` must precede `promote`, and `promote` must precede `cache`:
//!    each pass only considers sites the earlier passes left undecided.
//! 5. `loop-bounds` may run anywhere before `promote` (its only consumer).
//! 6. `anchor` runs after all placement decisions: it upgrades the leftover
//!    sites to anchored operation checks and rewrites provably non-negative
//!    constant lower bounds (of merged regions and promoted pre-checks) to
//!    the object base (§4.4.1).
//! 7. `finalize` is structural and last: whatever is still undecided gets a
//!    plain instruction-level check.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use giantsan_ir::{CacheId, Expr, LoopId, LoopPlan, Program, PtrId, SiteAction, VarId};
use giantsan_runtime::AccessKind;

use crate::affine::DefEnv;
use crate::planner::SiteFate;
use crate::profile::ToolProfile;

/// Identity of one pipeline stage, in canonical execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PassId {
    /// Structural: constant propagation plus context building (definition
    /// environment, loop table, barriers, site records, intrinsic fates).
    ConstProp,
    /// Must-alias grouping of constant-offset accesses per pointer.
    MustAlias,
    /// Loop trip-count and bound-invariance facts (SCEV-style).
    LoopBounds,
    /// Elision of accesses provably inside a fresh constant-size allocation.
    StaticSafety,
    /// Aliased-check elimination: one region check per must-alias group.
    Merge,
    /// Check-in-loop promotion of affine/invariant accesses to pre-headers.
    Promote,
    /// Quasi-bound history-cache assignment (§4.3).
    Cache,
    /// Anchored operation checks and lower-bound anchoring (§4.4.1).
    Anchor,
    /// Structural: leftover sites get plain instruction-level checks.
    Finalize,
}

impl PassId {
    /// Every pass, in the canonical pipeline order.
    pub const PIPELINE: [PassId; 9] = [
        PassId::ConstProp,
        PassId::MustAlias,
        PassId::LoopBounds,
        PassId::StaticSafety,
        PassId::Merge,
        PassId::Promote,
        PassId::Cache,
        PassId::Anchor,
        PassId::Finalize,
    ];

    /// Short name used in reports and CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            PassId::ConstProp => "const-prop",
            PassId::MustAlias => "must-alias",
            PassId::LoopBounds => "loop-bounds",
            PassId::StaticSafety => "static-safety",
            PassId::Merge => "merge",
            PassId::Promote => "promote",
            PassId::Cache => "cache",
            PassId::Anchor => "anchor",
            PassId::Finalize => "finalize",
        }
    }

    /// Structural passes build context or settle leftovers; they run for
    /// every profile and cannot be disabled.
    pub fn is_structural(self) -> bool {
        matches!(self, PassId::ConstProp | PassId::Finalize)
    }

    const fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// A set of enabled passes: the declarative form of a tool configuration.
///
/// The two structural passes ([`PassId::ConstProp`], [`PassId::Finalize`])
/// are members of every set built from [`PassSet::structural`] and cannot be
/// removed with [`PassSet::without`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PassSet(u16);

impl PassSet {
    /// The set containing no passes at all (not even structural ones); the
    /// pipeline still runs structural passes regardless.
    pub const fn empty() -> Self {
        PassSet(0)
    }

    /// The minimal set: just the always-run structural passes.
    pub fn structural() -> Self {
        PassSet::empty()
            .with(PassId::ConstProp)
            .with(PassId::Finalize)
    }

    /// Every pass in the pipeline.
    pub fn full() -> Self {
        PassId::PIPELINE
            .iter()
            .fold(PassSet::empty(), |s, p| s.with(*p))
    }

    /// Returns the set with `pass` added.
    #[must_use]
    pub const fn with(self, pass: PassId) -> Self {
        PassSet(self.0 | pass.bit())
    }

    /// Returns the set with `pass` removed. Structural passes are kept: the
    /// pipeline cannot run without them.
    #[must_use]
    pub fn without(self, pass: PassId) -> Self {
        if pass.is_structural() {
            self
        } else {
            PassSet(self.0 & !pass.bit())
        }
    }

    /// Is `pass` in the set?
    pub const fn contains(self, pass: PassId) -> bool {
        self.0 & pass.bit() != 0
    }

    /// The member passes, in canonical pipeline order.
    pub fn iter(self) -> impl Iterator<Item = PassId> {
        PassId::PIPELINE
            .into_iter()
            .filter(move |p| self.contains(*p))
    }

    /// Number of member passes.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no pass is a member.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Debug for PassSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut set = f.debug_set();
        for p in self.iter() {
            set.entry(&p.name());
        }
        set.finish()
    }
}

/// Which pass decided a site's fate, and the pass's own one-line reasoning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The deciding pass.
    pub pass: PassId,
    /// Human-readable justification recorded at decision time.
    pub reason: String,
}

/// Observability record for one pipeline stage of one [`analyze`] run.
///
/// [`analyze`]: crate::analyze
#[derive(Debug, Clone)]
pub struct PassStats {
    /// Which pass this row describes.
    pub pass: PassId,
    /// Whether the profile enabled the pass (structural passes always are).
    pub enabled: bool,
    /// Sites (or loops, for `loop-bounds`) the pass examined.
    pub visited: u64,
    /// Sites whose plan entry the pass rewrote.
    pub transformed: u64,
    /// Sites whose runtime check the pass removed entirely.
    pub eliminated: u64,
    /// Wall time spent inside the pass.
    pub wall: Duration,
}

/// Per-pass counters returned by a pass run; [`crate::analyze`] wraps them into
/// [`PassStats`] together with the enable flag and wall time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassOutcome {
    pub visited: u64,
    pub transformed: u64,
    pub eliminated: u64,
}

/// A loop's static description, as seen on the walk stack.
#[derive(Debug, Clone)]
pub(crate) struct LoopCtx {
    pub id: LoopId,
    pub var: VarId,
    pub lo: Expr,
    pub hi: Expr,
    pub opaque: bool,
}

/// One access site awaiting a placement decision.
#[derive(Debug, Clone)]
pub(crate) struct SiteRec {
    pub ptr: PtrId,
    pub offset: Expr,
    pub width: u8,
    pub kind: AccessKind,
    /// Enclosing loop stack at the access, outermost first.
    pub loops: Vec<LoopCtx>,
}

/// A must-alias candidate group: constant-offset accesses to one pointer
/// with no intervening kill, in site order.
#[derive(Debug, Clone)]
pub(crate) struct AliasGroup {
    pub ptr: PtrId,
    /// Member site indices, in access order.
    pub members: Vec<usize>,
}

/// The shared mutable state every pass reads and extends.
///
/// Facts flow strictly forward: `const-prop` fills the environment and site
/// tables, `must-alias` the groups and freshness records, `loop-bounds` the
/// per-loop facts; the deciding passes then consume those and write
/// decisions (action + fate + provenance) per site.
pub(crate) struct AnalysisCtx<'p> {
    pub program: &'p Program,
    pub profile: &'p ToolProfile,

    // -- facts from const-prop (structural) --
    pub env: DefEnv,
    pub loops: HashMap<LoopId, LoopCtx>,
    pub barriers: HashMap<LoopId, bool>,
    pub ptr_defs_in_loop: HashSet<(PtrId, LoopId)>,
    pub sites: Vec<Option<SiteRec>>,
    pub const_offsets: Vec<Option<i64>>,

    // -- facts from must-alias --
    pub groups: Vec<AliasGroup>,
    pub fresh_at_site: Vec<Option<i64>>,

    // -- facts from loop-bounds --
    pub trip_positive: HashMap<LoopId, bool>,
    pub bounds_invariant: HashMap<LoopId, bool>,

    // -- decisions --
    pub actions: Vec<SiteAction>,
    pub fates: Vec<SiteFate>,
    pub provenance: Vec<Option<Provenance>>,
    pub decided: Vec<bool>,
    pub plans: HashMap<LoopId, LoopPlan>,
    pub caches: HashMap<(LoopId, PtrId), CacheId>,
    pub num_caches: u32,
}

impl<'p> AnalysisCtx<'p> {
    pub(crate) fn new(program: &'p Program, profile: &'p ToolProfile) -> Self {
        let n = program.num_sites as usize;
        AnalysisCtx {
            program,
            profile,
            env: DefEnv::new(),
            loops: HashMap::new(),
            barriers: HashMap::new(),
            ptr_defs_in_loop: HashSet::new(),
            sites: vec![None; n],
            const_offsets: vec![None; n],
            groups: Vec::new(),
            fresh_at_site: vec![None; n],
            trip_positive: HashMap::new(),
            bounds_invariant: HashMap::new(),
            actions: vec![SiteAction::Direct; n],
            fates: vec![SiteFate::Direct; n],
            provenance: vec![None; n],
            decided: vec![false; n],
            plans: HashMap::new(),
            caches: HashMap::new(),
            num_caches: 0,
        }
    }

    /// Finalises one site: action, fate, provenance, and no further pass may
    /// touch it.
    pub(crate) fn decide_site(
        &mut self,
        idx: usize,
        action: SiteAction,
        fate: SiteFate,
        pass: PassId,
        reason: String,
    ) {
        self.actions[idx] = action;
        self.fates[idx] = fate;
        self.decided[idx] = true;
        self.provenance[idx] = Some(Provenance { pass, reason });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_order_is_canonical_and_complete() {
        assert_eq!(PassId::PIPELINE.len(), 9);
        assert_eq!(PassId::PIPELINE[0], PassId::ConstProp);
        assert_eq!(PassId::PIPELINE[8], PassId::Finalize);
        // Strictly ascending: PassId's derive(Ord) matches pipeline order.
        assert!(PassId::PIPELINE.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn structural_passes_cannot_be_removed() {
        let s = PassSet::structural();
        assert_eq!(s.without(PassId::ConstProp), s);
        assert_eq!(s.without(PassId::Finalize), s);
        assert!(PassSet::full()
            .without(PassId::Cache)
            .contains(PassId::Merge));
        assert!(!PassSet::full()
            .without(PassId::Cache)
            .contains(PassId::Cache));
    }

    #[test]
    fn pass_set_debug_lists_names() {
        let s = PassSet::structural().with(PassId::Cache);
        let d = format!("{s:?}");
        assert!(d.contains("const-prop") && d.contains("cache"), "{d}");
    }

    #[test]
    fn pass_set_iter_is_in_pipeline_order() {
        let s = PassSet::empty()
            .with(PassId::Anchor)
            .with(PassId::ConstProp)
            .with(PassId::Merge);
        let v: Vec<PassId> = s.iter().collect();
        assert_eq!(v, vec![PassId::ConstProp, PassId::Merge, PassId::Anchor]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(PassSet::empty().is_empty());
    }

    #[test]
    fn disabled_passes_report_zero_counters() {
        let mut b = giantsan_ir::ProgramBuilder::new("t");
        let p = b.alloc_heap(64);
        b.load_discard(p, 0i64, 8);
        let prog = b.build();
        let a = crate::analyze(&prog, &ToolProfile::asan());
        let cache = a
            .pass_stats
            .iter()
            .find(|s| s.pass == PassId::Cache)
            .unwrap();
        assert!(!cache.enabled);
        assert_eq!(cache.visited + cache.transformed + cache.eliminated, 0);
        let scan = a
            .pass_stats
            .iter()
            .find(|s| s.pass == PassId::ConstProp)
            .unwrap();
        assert!(scan.enabled, "structural passes run for every profile");
        assert!(scan.visited > 0);
    }
}
