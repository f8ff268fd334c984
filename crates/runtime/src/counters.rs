//! Check and metadata-loading statistics.
//!
//! These counters drive the reproduction of the paper's ablation study
//! (Figure 10) and the analytic cost model used for Table 2: every sanitizer
//! records how many shadow bytes it loaded, which check path each protection
//! task took, and how much poisoning work it performed.

use std::fmt;
use std::ops::AddAssign;

/// Runtime statistics accumulated by a [`crate::Sanitizer`].
///
/// All fields are plain event counts; the harness combines them with a cost
/// model to estimate overhead, and reports the `fast_checks` /
/// `slow_checks` / `cache_hits` split that Figure 10 of the paper plots.
///
/// # Example
///
/// ```
/// use giantsan_runtime::Counters;
/// let mut a = Counters::default();
/// a.shadow_loads = 10;
/// let mut b = Counters::default();
/// b.shadow_loads = 5;
/// a += &b;
/// assert_eq!(a.shadow_loads, 15);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Shadow bytes loaded by checks (not by poisoning).
    pub shadow_loads: u64,
    /// Region/instruction checks where the fast path sufficed.
    pub fast_checks: u64,
    /// Checks that had to run the slow path (prefix + suffix + partial).
    pub slow_checks: u64,
    /// Accesses admitted by a history cache (quasi-bound) without any
    /// metadata load.
    pub cache_hits: u64,
    /// Cache misses that refreshed the quasi-bound (each implies a check).
    pub cache_updates: u64,
    /// Dedicated underflow (negative offset) checks.
    pub underflow_checks: u64,
    /// Pointer-arithmetic bounds computations (LFP-style tools).
    pub arith_checks: u64,
    /// Shadow bytes written while poisoning/unpoisoning.
    pub shadow_stores: u64,
    /// Heap allocations served.
    pub allocs: u64,
    /// Heap frees served.
    pub frees: u64,
    /// Stack slots created.
    pub stack_allocs: u64,
    /// Extra instructions spent simulating a protected stack (LFP's
    /// incomplete stack protection penalty, paper §5.2).
    pub stack_sim_ops: u64,
    /// Error reports raised.
    pub reports: u64,
    /// Reports recorded in recover mode after which execution continued
    /// (the access was contained instead of performed).
    pub errors_recovered: u64,
    /// Reports dropped by recover-mode dedup/rate limits (still counted in
    /// `reports` by the raising tool, but not recorded by the interpreter).
    pub errors_suppressed: u64,
    /// Bulk shadow writes performed at heap-block granularity instead of
    /// per object. Every tool poisons per object, so this stays 0; the
    /// field is kept because the pinned run digests and the benchmark's
    /// `alloc.bulk_poison_runs` metric name every counter.
    pub bulk_poison_runs: u64,
}

impl Counters {
    /// Every counter field, in declaration order.
    ///
    /// This is the single authoritative field list for exporters (CSV
    /// headers, Prometheus series): [`Counters::field_values`] yields values
    /// in the same order, and a unit test pins the list against the struct
    /// so a new field cannot be added without updating both.
    pub const FIELD_NAMES: [&'static str; 16] = [
        "shadow_loads",
        "fast_checks",
        "slow_checks",
        "cache_hits",
        "cache_updates",
        "underflow_checks",
        "arith_checks",
        "shadow_stores",
        "allocs",
        "frees",
        "stack_allocs",
        "stack_sim_ops",
        "reports",
        "errors_recovered",
        "errors_suppressed",
        "bulk_poison_runs",
    ];

    /// Counter values in [`Counters::FIELD_NAMES`] order.
    pub fn field_values(&self) -> [u64; 16] {
        [
            self.shadow_loads,
            self.fast_checks,
            self.slow_checks,
            self.cache_hits,
            self.cache_updates,
            self.underflow_checks,
            self.arith_checks,
            self.shadow_stores,
            self.allocs,
            self.frees,
            self.stack_allocs,
            self.stack_sim_ops,
            self.reports,
            self.errors_recovered,
            self.errors_suppressed,
            self.bulk_poison_runs,
        ]
    }

    /// `(name, value)` pairs in declaration order, ready for an exporter.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
        Self::FIELD_NAMES.into_iter().zip(self.field_values())
    }

    /// Rebuilds a `Counters` from values in [`Counters::FIELD_NAMES`] order —
    /// the inverse of [`Counters::field_values`], used when campaign
    /// checkpoints are read back from disk.
    pub fn from_field_values(values: [u64; 16]) -> Self {
        let [shadow_loads, fast_checks, slow_checks, cache_hits, cache_updates, underflow_checks, arith_checks, shadow_stores, allocs, frees, stack_allocs, stack_sim_ops, reports, errors_recovered, errors_suppressed, bulk_poison_runs] =
            values;
        Counters {
            shadow_loads,
            fast_checks,
            slow_checks,
            cache_hits,
            cache_updates,
            underflow_checks,
            arith_checks,
            shadow_stores,
            allocs,
            frees,
            stack_allocs,
            stack_sim_ops,
            reports,
            errors_recovered,
            errors_suppressed,
            bulk_poison_runs,
        }
    }

    /// Total number of checks executed on any path.
    pub fn total_checks(&self) -> u64 {
        self.fast_checks
            + self.slow_checks
            + self.cache_hits
            + self.underflow_checks
            + self.arith_checks
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Counters::default();
    }

    /// Folds another counter set into this one.
    ///
    /// This is the reduction step of the batch-execution engine: each worker
    /// accumulates counters for the cells it executed, and the merged report
    /// is independent of how cells were distributed across workers because
    /// counter addition is commutative and associative.
    ///
    /// # Example
    ///
    /// ```
    /// use giantsan_runtime::Counters;
    /// let mut total = Counters::default();
    /// let mut worker = Counters::default();
    /// worker.fast_checks = 7;
    /// total.merge(&worker);
    /// total.merge(&worker);
    /// assert_eq!(total.fast_checks, 14);
    /// ```
    pub fn merge(&mut self, other: &Counters) {
        *self += other;
    }
}

impl AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, rhs: &Counters) {
        self.shadow_loads += rhs.shadow_loads;
        self.fast_checks += rhs.fast_checks;
        self.slow_checks += rhs.slow_checks;
        self.cache_hits += rhs.cache_hits;
        self.cache_updates += rhs.cache_updates;
        self.underflow_checks += rhs.underflow_checks;
        self.arith_checks += rhs.arith_checks;
        self.shadow_stores += rhs.shadow_stores;
        self.allocs += rhs.allocs;
        self.frees += rhs.frees;
        self.stack_allocs += rhs.stack_allocs;
        self.stack_sim_ops += rhs.stack_sim_ops;
        self.reports += rhs.reports;
        self.errors_recovered += rhs.errors_recovered;
        self.errors_suppressed += rhs.errors_suppressed;
        self.bulk_poison_runs += rhs.bulk_poison_runs;
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loads={} fast={} slow={} cached={} updates={} under={} arith={} \
             stores={} allocs={} frees={} stacks={} stacksim={} reports={} \
             recovered={} suppressed={} bulkruns={}",
            self.shadow_loads,
            self.fast_checks,
            self.slow_checks,
            self.cache_hits,
            self.cache_updates,
            self.underflow_checks,
            self.arith_checks,
            self.shadow_stores,
            self.allocs,
            self.frees,
            self.stack_allocs,
            self.stack_sim_ops,
            self.reports,
            self.errors_recovered,
            self.errors_suppressed,
            self.bulk_poison_runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = Counters {
            fast_checks: 3,
            slow_checks: 1,
            cache_hits: 5,
            underflow_checks: 2,
            arith_checks: 4,
            ..Counters::default()
        };
        assert_eq!(a.total_checks(), 15);
        let b = a;
        a += &b;
        assert_eq!(a.total_checks(), 30);
        a.reset();
        assert_eq!(a, Counters::default());
    }

    #[test]
    fn merge_covers_recovery_counters() {
        let mut total = Counters::default();
        let worker = Counters {
            reports: 4,
            errors_recovered: 3,
            errors_suppressed: 9,
            ..Counters::default()
        };
        total.merge(&worker);
        total.merge(&worker);
        assert_eq!(total.errors_recovered, 6);
        assert_eq!(total.errors_suppressed, 18);
        assert_eq!(total.reports, 8);
        let s = format!("{total}");
        assert!(s.contains("recovered=6") && s.contains("suppressed=18"));
        // Display names every exporter field (one `k=v` pair per field).
        assert_eq!(s.matches('=').count(), Counters::FIELD_NAMES.len(), "{s}");
    }

    #[test]
    fn display_is_nonempty() {
        let c = Counters::default();
        assert!(format!("{c}").contains("loads=0"));
    }

    /// Pins the exporter field list against the struct definition. Adding a
    /// field to `Counters` breaks the exhaustive destructuring below until
    /// `FIELD_NAMES` / `field_values` / `AddAssign` / `Display` are updated
    /// to match.
    #[test]
    fn field_list_is_exhaustive_and_ordered() {
        let mut c = Counters::default();
        for (i, slot) in [
            &mut c.shadow_loads,
            &mut c.fast_checks,
            &mut c.slow_checks,
            &mut c.cache_hits,
            &mut c.cache_updates,
            &mut c.underflow_checks,
            &mut c.arith_checks,
            &mut c.shadow_stores,
            &mut c.allocs,
            &mut c.frees,
            &mut c.stack_allocs,
            &mut c.stack_sim_ops,
            &mut c.reports,
            &mut c.errors_recovered,
            &mut c.errors_suppressed,
            &mut c.bulk_poison_runs,
        ]
        .into_iter()
        .enumerate()
        {
            *slot = i as u64 + 1;
        }
        // Exhaustive destructure: a new field fails this match to compile.
        let Counters {
            shadow_loads,
            fast_checks,
            slow_checks,
            cache_hits,
            cache_updates,
            underflow_checks,
            arith_checks,
            shadow_stores,
            allocs,
            frees,
            stack_allocs,
            stack_sim_ops,
            reports,
            errors_recovered,
            errors_suppressed,
            bulk_poison_runs,
        } = c;
        let by_decl = [
            shadow_loads,
            fast_checks,
            slow_checks,
            cache_hits,
            cache_updates,
            underflow_checks,
            arith_checks,
            shadow_stores,
            allocs,
            frees,
            stack_allocs,
            stack_sim_ops,
            reports,
            errors_recovered,
            errors_suppressed,
            bulk_poison_runs,
        ];
        assert_eq!(c.field_values(), by_decl, "field_values order drifted");
        assert_eq!(Counters::FIELD_NAMES.len(), by_decl.len());
        let expected: Vec<(&str, u64)> = Counters::FIELD_NAMES
            .into_iter()
            .zip((1..=16).map(|v| v as u64))
            .collect();
        assert_eq!(c.fields().collect::<Vec<_>>(), expected);
        // The PR4 recovery counters and the PR8 bulk counter keep their slots.
        assert_eq!(Counters::FIELD_NAMES[13], "errors_recovered");
        assert_eq!(Counters::FIELD_NAMES[14], "errors_suppressed");
        assert_eq!(Counters::FIELD_NAMES[15], "bulk_poison_runs");
        // Merging doubles every field — AddAssign covers the full list.
        let snapshot = c;
        c += &snapshot;
        assert_eq!(
            c.field_values(),
            by_decl.map(|v| v * 2),
            "AddAssign missed a field"
        );
    }
}
