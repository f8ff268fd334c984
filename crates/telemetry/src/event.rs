//! The event taxonomy: everything the stack can report about itself.
//!
//! Events are **data-plane** records: every field is a deterministic
//! counter, id, or byte count. Wall-clock durations and worker identities
//! are deliberately unrepresentable here (see the crate docs for the
//! thread-invariance rule); they belong to the presentation plane built by
//! [`crate::export::ChromeTrace`].

/// Sentinel site id for promoted pre-header region checks: the planner
/// eliminated the originating sites, so the hoisted check cannot be charged
/// to any one of them.
pub const PRE_CHECK_SITE: u32 = u32::MAX;

/// Sentinel site id for the loop-exit finalisation check of a history cache
/// (Figure 9 line 14), which likewise has no single originating site.
pub const LOOP_FINAL_SITE: u32 = u32::MAX - 1;

/// Human-readable label for a site id, mapping the sentinels to stable
/// names (`"pre-header"` / `"loop-final"`).
pub fn site_label(site: u32) -> String {
    match site {
        PRE_CHECK_SITE => "pre-header".to_string(),
        LOOP_FINAL_SITE => "loop-final".to_string(),
        s => format!("site {s}"),
    }
}

/// Which path a runtime check took, classified from the sanitizer's own
/// counters (the same split Figure 10 of the paper plots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckPathKind {
    /// The O(1) fast path sufficed (folded-segment compare / small check).
    Fast,
    /// The slow path ran (prefix + suffix + partial validation).
    Slow,
    /// Admitted by the quasi-bound history cache without a metadata load.
    CacheHit,
    /// A cache miss that refreshed the quasi-bound (implies a real check).
    CacheUpdate,
    /// A dedicated underflow (negative offset) check.
    Underflow,
    /// Pointer-arithmetic bounds computation (LFP-style tools).
    Arith,
    /// The planner eliminated the site; no runtime work was performed.
    Skipped,
}

impl CheckPathKind {
    /// Short stable name used in JSONL/Prometheus output.
    pub fn name(self) -> &'static str {
        match self {
            CheckPathKind::Fast => "fast",
            CheckPathKind::Slow => "slow",
            CheckPathKind::CacheHit => "cache_hit",
            CheckPathKind::CacheUpdate => "cache_update",
            CheckPathKind::Underflow => "underflow",
            CheckPathKind::Arith => "arith",
            CheckPathKind::Skipped => "skipped",
        }
    }

    /// `true` for the paths that load or recompute metadata (everything the
    /// hot-spot table charges as "slow-path share").
    pub fn is_slow_path(self) -> bool {
        matches!(
            self,
            CheckPathKind::Slow | CheckPathKind::CacheUpdate | CheckPathKind::Underflow
        )
    }
}

/// One structured telemetry event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A runtime check at an instrumented site.
    Check {
        /// Site id within the program.
        site: u32,
        /// Path taken, classified from counter deltas.
        path: CheckPathKind,
        /// `true` for writes, `false` for reads.
        write: bool,
        /// Shadow bytes loaded by this check.
        loads: u32,
        /// Checked region size in bytes.
        region: u64,
        /// Shadow/folded code observed at the access address, when the tool
        /// keeps byte-granular metadata there.
        code: Option<u8>,
    },
    /// A quasi-bound (history cache) refresh: `old_ub` → `new_ub`.
    QuasiBound {
        /// Site id of the cached access.
        site: u32,
        /// Previous exclusive upper bound.
        old_ub: u64,
        /// Refreshed exclusive upper bound.
        new_ub: u64,
        /// Refresh ordinal (the paper bounds it by `⌈log2(n/8)⌉`).
        step: u32,
    },
    /// An allocation was served and its metadata poisoned.
    Alloc {
        /// Requested object size in bytes.
        size: u64,
        /// `true` for stack slots, `false` for heap blocks.
        stack: bool,
        /// Shadow bytes written while poisoning (0 for shadow-less tools).
        poison: u64,
    },
    /// A free was served (metadata re-poisoned, block quarantined).
    Free {
        /// Shadow bytes written while re-poisoning.
        poison: u64,
    },
    /// A realloc moved an object.
    Realloc {
        /// New object size in bytes.
        new_size: u64,
        /// Shadow bytes written for the new + old blocks.
        poison: u64,
    },
    /// A report was recorded and execution continued (record-and-continue).
    Report {
        /// Site id the report is attributed to, when known.
        site: Option<u32>,
    },
    /// A report was contained under recover mode: the access was skipped and
    /// the tool healed its metadata.
    Contained {
        /// Site id the report is attributed to, when known.
        site: Option<u32>,
        /// `true` when the report was dropped by dedup/rate limits (still
        /// contained, not recorded).
        suppressed: bool,
    },
    /// One analysis-pipeline pass finished (subsumes the per-pass
    /// `PassStats` counters; wall time stays out of the data plane).
    Pass {
        /// Pass name (canonical pipeline spelling).
        pass: &'static str,
        /// Whether the profile enabled the pass.
        enabled: bool,
        /// Sites (or loops) the pass examined.
        visited: u64,
        /// Sites whose plan entry the pass rewrote.
        transformed: u64,
        /// Sites whose runtime check the pass removed entirely.
        eliminated: u64,
    },
    /// End-of-run summary emitted by the interpreter.
    Run {
        /// Executed statement count.
        steps: u64,
        /// Abstract units of real memory work.
        native_work: u64,
        /// Reports raised during the run.
        reports: u64,
    },
}

/// One recorded event: the cell it belongs to, its per-cell sequence
/// number (the deterministic "timestamp"), and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Trace cell (experiment cell index, or 0 for the planner scope).
    pub cell: u32,
    /// Emission ordinal within the cell, starting at 0.
    pub seq: u64,
    /// The payload.
    pub kind: EventKind,
}

/// Incremental 64-bit FNV-1a hasher: the digest behind every trace
/// artefact, interpreter result, span id, fault campaign, batch matrix and
/// campaign blob.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    /// Folds `bytes` into the running hash.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_names_are_stable_and_slowness_is_classified() {
        assert_eq!(CheckPathKind::Fast.name(), "fast");
        assert_eq!(CheckPathKind::CacheUpdate.name(), "cache_update");
        assert!(CheckPathKind::Slow.is_slow_path());
        assert!(CheckPathKind::Underflow.is_slow_path());
        assert!(!CheckPathKind::Fast.is_slow_path());
        assert!(!CheckPathKind::CacheHit.is_slow_path());
        assert!(!CheckPathKind::Skipped.is_slow_path());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
