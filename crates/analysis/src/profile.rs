//! Tool profiles: declarative pass configurations for each sanitizer.
//!
//! A profile is a name, a [`PassSet`] selecting which pipeline passes run,
//! and one runtime cost-model fact (`linear_region_checks`). The paper's
//! ablation study (Table 2, right columns) is exactly a sweep over pass
//! subsets: GiantSan with the caching passes only, with the elimination
//! passes only, and with both. The baselines are fixed points in the same
//! space: ASan enables nothing, ASan-- enables the elimination and
//! promotion passes over a linear-walk runtime, LFP only anchors.

use crate::pipeline::{PassId, PassSet};

/// Instrumentation capabilities of a tool, as the set of planner passes its
/// compilation pipeline runs.
///
/// # Example
///
/// ```
/// use giantsan_analysis::{PassId, ToolProfile};
/// let g = ToolProfile::giantsan();
/// assert!(g.caching() && g.elimination() && g.anchored() && g.operation_level());
/// assert!(g.enables(PassId::Cache));
/// let a = ToolProfile::asan();
/// assert!(!a.caching() && !a.elimination() && !a.anchored());
/// assert!(a.enables(PassId::ConstProp), "structural passes always run");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolProfile {
    /// Display name of the configuration.
    pub name: &'static str,
    /// The passes this tool's pipeline runs.
    passes: PassSet,
    /// The runtime's region check walks one shadow byte per segment
    /// (ASan's guardian) instead of GiantSan's O(1) fold check. Merging is
    /// then only profitable when it saves more per-access checks than the
    /// merged walk costs.
    pub linear_region_checks: bool,
}

/// The elimination family (§4.4.2): must-alias grouping, static-safety
/// elision, and aliased-check merging.
fn elimination_passes(s: PassSet) -> PassSet {
    s.with(PassId::MustAlias)
        .with(PassId::StaticSafety)
        .with(PassId::Merge)
}

/// The promotion family (§4.4.2): loop-bound facts plus check-in-loop
/// promotion.
fn promotion_passes(s: PassSet) -> PassSet {
    s.with(PassId::LoopBounds).with(PassId::Promote)
}

impl ToolProfile {
    /// An arbitrary named pass configuration (the structural passes are
    /// always included).
    pub fn custom(name: &'static str, passes: PassSet, linear_region_checks: bool) -> Self {
        ToolProfile {
            name,
            passes: passes.with(PassId::ConstProp).with(PassId::Finalize),
            linear_region_checks,
        }
    }

    /// Full GiantSan: elimination + promotion + caching + anchoring.
    pub fn giantsan() -> Self {
        let p = promotion_passes(elimination_passes(PassSet::structural()))
            .with(PassId::Cache)
            .with(PassId::Anchor);
        ToolProfile::custom("GiantSan", p, false)
    }

    /// Ablation: history caching only (no merging/promotion).
    pub fn giantsan_cache_only() -> Self {
        let p = PassSet::structural()
            .with(PassId::Cache)
            .with(PassId::Anchor);
        ToolProfile::custom("GiantSan-CacheOnly", p, false)
    }

    /// Ablation: check elimination/promotion only (no caching).
    pub fn giantsan_elimination_only() -> Self {
        let p = promotion_passes(elimination_passes(PassSet::structural())).with(PassId::Anchor);
        ToolProfile::custom("GiantSan-EliminationOnly", p, false)
    }

    /// Stock ASan: instruction-level checks everywhere.
    pub fn asan() -> Self {
        ToolProfile::custom("ASan", PassSet::structural(), true)
    }

    /// ASan--: static check elimination over the ASan runtime.
    pub fn asan_minus_minus() -> Self {
        let p = promotion_passes(elimination_passes(PassSet::structural()));
        ToolProfile::custom("ASan--", p, true)
    }

    /// LFP: pointer-derived bounds checked at every access (anchored by
    /// construction — the bound comes from the source pointer), no static
    /// optimisation.
    pub fn lfp() -> Self {
        ToolProfile::custom("LFP", PassSet::structural().with(PassId::Anchor), false)
    }

    /// Native execution: no checks at all (the plan is never consulted, but
    /// analysing under this profile yields all-direct sites).
    pub fn native() -> Self {
        ToolProfile::custom("Native", PassSet::structural(), false)
    }

    /// The passes this profile's pipeline runs.
    pub fn passes(&self) -> PassSet {
        self.passes
    }

    /// Does this profile run `pass`? Structural passes always do.
    pub fn enables(&self, pass: PassId) -> bool {
        pass.is_structural() || self.passes.contains(pass)
    }

    /// This profile minus one pass (structural passes cannot be dropped).
    /// The name is kept.
    #[must_use]
    pub fn without_pass(mut self, pass: PassId) -> Self {
        self.passes = self.passes.without(pass);
        self
    }

    /// May merge and hoist checks into region checks covering whole
    /// operations (requires a runtime that can check regions; GiantSan does
    /// it in O(1), ASan-- pays a linear walk).
    pub fn operation_level(&self) -> bool {
        self.enables(PassId::Promote)
    }

    /// May use the quasi-bound history cache (§4.3).
    pub fn caching(&self) -> bool {
        self.enables(PassId::Cache)
    }

    /// Checks are anchored at the object base pointer (§4.4.1).
    pub fn anchored(&self) -> bool {
        self.enables(PassId::Anchor)
    }

    /// May eliminate must-aliased / dominated checks (§4.4.2).
    pub fn elimination(&self) -> bool {
        self.enables(PassId::Merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_profiles_partition_capabilities() {
        let cache = ToolProfile::giantsan_cache_only();
        let elim = ToolProfile::giantsan_elimination_only();
        assert!(cache.caching() && !cache.elimination());
        assert!(!elim.caching() && elim.elimination());
        // Full GiantSan is the union of the two ablation pass sets.
        let g = ToolProfile::giantsan();
        assert!(g.caching() == cache.caching() && g.elimination() == elim.elimination());
        for p in cache.passes().iter() {
            assert!(g.enables(p), "{:?} missing from full GiantSan", p);
        }
        for p in elim.passes().iter() {
            assert!(g.enables(p), "{:?} missing from full GiantSan", p);
        }
    }

    #[test]
    fn baseline_profiles() {
        assert!(ToolProfile::asan_minus_minus().elimination());
        assert!(!ToolProfile::asan_minus_minus().caching());
        assert!(ToolProfile::lfp().anchored());
        assert!(!ToolProfile::lfp().elimination());
        assert_eq!(ToolProfile::native().name, "Native");
        assert!(ToolProfile::asan().linear_region_checks);
        assert!(!ToolProfile::giantsan().linear_region_checks);
    }

    #[test]
    fn capability_queries_match_pass_sets() {
        let g = ToolProfile::giantsan();
        assert_eq!(g.passes(), PassSet::full());
        let no_cache = g.clone().without_pass(PassId::Cache);
        assert!(!no_cache.caching() && no_cache.elimination());
        assert_eq!(no_cache.name, "GiantSan");
    }

    #[test]
    fn custom_profiles_always_run_structural_passes() {
        let p = ToolProfile::custom("bare", PassSet::empty(), false);
        assert!(p.enables(PassId::ConstProp));
        assert!(p.enables(PassId::Finalize));
        assert!(!p.enables(PassId::Cache));
    }
}
