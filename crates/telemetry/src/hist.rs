//! Deterministic sampling histograms.
//!
//! Everything here is counter-driven: a histogram is a pure function of the
//! recorded values, merging is element-wise addition (commutative and
//! associative, so shard count and merge order never change the result —
//! pinned by `tests/hist_props.rs`), and no wall-clock ever enters a bucket.

use std::collections::BTreeMap;

use giantsan_shadow::codes;

use crate::event::{CheckPathKind, EventKind};

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds values `v` with `2^(i-1) <= v < 2^i` (bucket 0 holds
/// exactly 0), i.e. `index(v) = 64 - v.leading_zeros()`.
///
/// # Example
///
/// ```
/// use giantsan_telemetry::Log2Hist;
/// let mut h = Log2Hist::default();
/// h.record(0);
/// h.record(1);
/// h.record(1024);
/// assert_eq!(h.count, 3);
/// assert_eq!(h.sum, 1025);
/// assert_eq!(h.buckets[0], 1); // the zero
/// assert_eq!(h.buckets[1], 1); // the one
/// assert_eq!(h.buckets[11], 1); // 1024 in [1024, 2048)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    /// `buckets[i]` counts samples in `[2^(i-1), 2^i)`; `buckets[0]` counts
    /// zeros.
    pub buckets: [u64; 65],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Hist {
    /// Bucket index for `v`.
    pub fn index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds `other` into `self` (element-wise; order-independent).
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Index of the highest non-empty bucket, if any sample was recorded.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

/// Per-site check-path mix: how often each path was taken at one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathMix {
    /// Fast-path checks.
    pub fast: u64,
    /// Slow-path checks.
    pub slow: u64,
    /// History-cache hits.
    pub cache_hits: u64,
    /// History-cache refreshes.
    pub cache_updates: u64,
    /// Dedicated underflow checks.
    pub underflow: u64,
    /// Pointer-arithmetic checks.
    pub arith: u64,
    /// Planner-eliminated visits (no runtime work).
    pub skipped: u64,
}

impl PathMix {
    /// Total visits across every path.
    pub fn total(&self) -> u64 {
        self.fast
            + self.slow
            + self.cache_hits
            + self.cache_updates
            + self.underflow
            + self.arith
            + self.skipped
    }

    /// Fraction of visits that took a metadata-loading slow path.
    pub fn slow_share(&self) -> f64 {
        let slow = self.slow + self.cache_updates + self.underflow;
        slow as f64 / self.total().max(1) as f64
    }

    fn bump(&mut self, path: CheckPathKind) {
        match path {
            CheckPathKind::Fast => self.fast += 1,
            CheckPathKind::Slow => self.slow += 1,
            CheckPathKind::CacheHit => self.cache_hits += 1,
            CheckPathKind::CacheUpdate => self.cache_updates += 1,
            CheckPathKind::Underflow => self.underflow += 1,
            CheckPathKind::Arith => self.arith += 1,
            CheckPathKind::Skipped => self.skipped += 1,
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &PathMix) {
        self.fast += other.fast;
        self.slow += other.slow;
        self.cache_hits += other.cache_hits;
        self.cache_updates += other.cache_updates;
        self.underflow += other.underflow;
        self.arith += other.arith;
        self.skipped += other.skipped;
    }
}

/// The full deterministic histogram set a [`crate::TraceRecorder`] samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histograms {
    /// Checked region sizes, in bytes.
    pub region_sizes: Log2Hist,
    /// Folding degrees of folded shadow codes observed at checks.
    pub fold_depths: Log2Hist,
    /// Quasi-bound refresh ordinals (convergence lengths).
    pub convergence: Log2Hist,
    /// Allocation sizes, in bytes.
    pub alloc_sizes: Log2Hist,
    /// Per-site check-path mix (BTreeMap: deterministic iteration order).
    pub sites: BTreeMap<u32, PathMix>,
}

impl Histograms {
    /// Samples whatever `kind` carries into the relevant histograms.
    pub fn observe(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Check {
                site,
                path,
                region,
                code,
                ..
            } => {
                self.region_sizes.record(*region);
                if let Some(degree) = code.and_then(codes::folding_degree) {
                    self.fold_depths.record(degree as u64);
                }
                self.sites.entry(*site).or_default().bump(*path);
            }
            EventKind::QuasiBound { step, .. } => {
                self.convergence.record(*step as u64);
            }
            EventKind::Alloc { size, .. } => {
                self.alloc_sizes.record(*size);
            }
            _ => {}
        }
    }

    /// The mix recorded for `site`, if it was ever visited.
    pub fn site(&self, site: u32) -> Option<&PathMix> {
        self.sites.get(&site)
    }

    /// Folds `other` into `self`; shard-count and order invariant.
    pub fn merge(&mut self, other: &Histograms) {
        self.region_sizes.merge(&other.region_sizes);
        self.fold_depths.merge(&other.fold_depths);
        self.convergence.merge(&other.convergence);
        self.alloc_sizes.merge(&other.alloc_sizes);
        for (site, mix) in &other.sites {
            self.sites.entry(*site).or_default().merge(mix);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_are_log2() {
        assert_eq!(Log2Hist::index(0), 0);
        assert_eq!(Log2Hist::index(1), 1);
        assert_eq!(Log2Hist::index(2), 2);
        assert_eq!(Log2Hist::index(3), 2);
        assert_eq!(Log2Hist::index(4), 3);
        assert_eq!(Log2Hist::index(u64::MAX), 64);
        assert_eq!(Log2Hist::upper_bound(0), 0);
        assert_eq!(Log2Hist::upper_bound(3), 7);
        assert_eq!(Log2Hist::upper_bound(64), u64::MAX);
    }

    #[test]
    fn observe_routes_events_to_the_right_histograms() {
        let mut h = Histograms::default();
        h.observe(&EventKind::Check {
            site: 3,
            path: CheckPathKind::Slow,
            write: true,
            loads: 2,
            region: 64,
            code: Some(codes::folded(4)),
        });
        h.observe(&EventKind::QuasiBound {
            site: 3,
            old_ub: 0,
            new_ub: 128,
            step: 2,
        });
        h.observe(&EventKind::Alloc {
            size: 100,
            stack: false,
            poison: 16,
        });
        h.observe(&EventKind::Run {
            steps: 1,
            native_work: 1,
            reports: 0,
        });
        assert_eq!(h.region_sizes.count, 1);
        assert_eq!(h.fold_depths.sum, 4);
        assert_eq!(h.convergence.count, 1);
        assert_eq!(h.alloc_sizes.sum, 100);
        let mix = h.site(3).unwrap();
        assert_eq!(mix.slow, 1);
        assert_eq!(mix.total(), 1);
        assert!(mix.slow_share() > 0.99);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Histograms::default();
        let mut b = Histograms::default();
        for v in [1u64, 2, 3] {
            a.observe(&EventKind::Alloc {
                size: v,
                stack: false,
                poison: 0,
            });
        }
        b.observe(&EventKind::Alloc {
            size: 3,
            stack: true,
            poison: 0,
        });
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.alloc_sizes.count, 4);
        assert_eq!(merged.alloc_sizes.sum, 9);
        // Merging the other way gives the same histogram.
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(merged, other_way);
    }
}
