//! Deterministic sampling histograms.
//!
//! Everything here is counter-driven: a histogram is a pure function of the
//! recorded values, merging is element-wise addition (commutative and
//! associative, so shard count and merge order never change the result —
//! pinned by `tests/hist_props.rs`), and no wall-clock ever enters a bucket.

use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

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

/// Per-site check-path mix: how often each path was taken at one site,
/// indexed by [`CheckPathKind`] (counts in [`CheckPathKind::ALL`] order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathMix(pub [u64; CheckPathKind::ALL.len()]);

impl Index<CheckPathKind> for PathMix {
    type Output = u64;

    fn index(&self, path: CheckPathKind) -> &u64 {
        &self.0[path as usize]
    }
}

impl IndexMut<CheckPathKind> for PathMix {
    fn index_mut(&mut self, path: CheckPathKind) -> &mut u64 {
        &mut self.0[path as usize]
    }
}

impl PathMix {
    /// Total visits across every path.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Visits that took a metadata-loading slow path
    /// ([`CheckPathKind::is_slow_path`]).
    pub fn slow_paths(&self) -> u64 {
        CheckPathKind::ALL
            .into_iter()
            .filter(|p| p.is_slow_path())
            .map(|p| self[p])
            .sum()
    }

    /// Fraction of visits that took a metadata-loading slow path.
    pub fn slow_share(&self) -> f64 {
        self.slow_paths() as f64 / self.total().max(1) as f64
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &PathMix) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
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
                self.sites.entry(*site).or_default()[*path] += 1;
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
        assert_eq!(mix[CheckPathKind::Slow], 1);
        assert_eq!(mix.total(), 1);
        assert_eq!(mix.slow_paths(), 1);
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
