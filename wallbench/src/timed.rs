//! Outside-in timing of the sanitizer layer.
//!
//! [`TimedSanitizer`] wraps a tool and forwards every [`Sanitizer`] method,
//! the defaulted ones included: a wrapper that let `cached_check` fall back
//! to the trait default would silently turn GiantSan's quasi-bound cache
//! off and time a different program. Every call is counted exactly; about
//! one call in 64 is timed. The gap to the next timed call is drawn by
//! hashing the sample ordinal (uniform in 1..=127), so the samples cannot
//! alias with a loop whose body makes a fixed number of calls, and an
//! untimed call costs a counter increment and a decrement. Each probe
//! starts at its own phase, so every call of a rare op is timed with
//! probability 1/64 across runs. Each sample has the calibrated cost of
//! the clock reads removed and is later scaled by `calls / samples`.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use giantsan_runtime::{
    AccessKind, Allocation, CacheSlot, CheckResult, Counters, ErrorReport, HeapError,
    MetadataFault, Region, Sanitizer, World,
};
use giantsan_shadow::Addr;

/// The sanitizer calls the wrapper times, grouped by layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `check_access`.
    Access,
    /// `check_region`.
    Region,
    /// `check_anchored`.
    Anchored,
    /// `cached_check`.
    Cached,
    /// `loop_final_check`.
    LoopFinal,
    /// `alloc`.
    Alloc,
    /// `free`.
    Free,
    /// `realloc`.
    Realloc,
    /// `push_frame`.
    PushFrame,
    /// `pop_frame`.
    PopFrame,
}

impl Op {
    /// Every op, check layer first.
    pub const ALL: [Op; 10] = [
        Op::Access,
        Op::Region,
        Op::Anchored,
        Op::Cached,
        Op::LoopFinal,
        Op::Alloc,
        Op::Free,
        Op::Realloc,
        Op::PushFrame,
        Op::PopFrame,
    ];

    /// `true` for the check layer, `false` for the allocation layer.
    pub fn is_check(self) -> bool {
        (self as usize) < 5
    }

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Access => "check_access",
            Op::Region => "check_region",
            Op::Anchored => "check_anchored",
            Op::Cached => "cached_check",
            Op::LoopFinal => "loop_final_check",
            Op::Alloc => "alloc",
            Op::Free => "free",
            Op::Realloc => "realloc",
            Op::PushFrame => "push_frame",
            Op::PopFrame => "pop_frame",
        }
    }
}

/// One timed call, kept as a span under its program run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which call.
    pub op: Op,
    /// Start, relative to the probe's origin.
    pub start: Duration,
    /// Measured duration with the clock cost removed.
    pub ns: u64,
}

/// Sampled spans kept per program run and op; the counts stay exact.
pub const SPANS_PER_OP: usize = 16;

/// A timed call that reads longer than this lost its core part-way, to a
/// preemption or to the hypervisor running another guest: the calls the
/// probe times take nanoseconds to tens of microseconds. Such a sample is
/// dropped, since scaled by the sampling rate one of them would add
/// milliseconds to a layer whose calls cost a few nanoseconds each.
const PREEMPTED_NS: f64 = 100_000.0;

/// The clock costs every sample estimate is corrected by.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// What an empty `Instant::now()` pair measures; subtracted per sample.
    pub pair_ns: f64,
    /// The wall cost of one sampled call's two clock reads.
    pub sample_cost_ns: f64,
    /// The wall cost of counting one call.
    pub call_cost_ns: f64,
}

impl Calibration {
    /// Measures the clock and bookkeeping costs on this host (medians of
    /// repeated batches, a few milliseconds in total).
    pub fn measure() -> Calibration {
        const N: u32 = 20_000;
        let mut pairs: Vec<u64> = (0..N)
            .map(|_| {
                let t0 = Instant::now();
                let t1 = Instant::now();
                (t1 - t0).as_nanos() as u64
            })
            .collect();
        pairs.sort_unstable();
        let pair_ns = pairs[pairs.len() / 2] as f64;
        let per_batch = |f: &dyn Fn() -> u64| {
            let mut batches: Vec<f64> = (0..9)
                .map(|_| {
                    let t = Instant::now();
                    black_box(f());
                    t.elapsed().as_nanos() as f64 / f64::from(N)
                })
                .collect();
            batches.sort_by(f64::total_cmp);
            batches[batches.len() / 2]
        };
        let sample_cost_ns = per_batch(&|| {
            let mut acc = 0u64;
            for _ in 0..N {
                let t0 = Instant::now();
                acc = acc.wrapping_add(black_box(t0.elapsed().as_nanos() as u64));
            }
            acc
        });
        let call_cost_ns = per_batch(&|| {
            let mut probe = Probe::new(Calibration {
                pair_ns: 0.0,
                sample_cost_ns: 0.0,
                call_cost_ns: 0.0,
            });
            let mut acc = 0u64;
            for _ in 0..N {
                acc += u64::from(black_box(&mut probe).tick(Op::Access));
            }
            acc
        });
        Calibration {
            pair_ns,
            sample_cost_ns,
            call_cost_ns,
        }
    }
}

/// Counts, sampled times and spans for one run under a [`TimedSanitizer`].
#[derive(Debug, Clone)]
pub struct Probe {
    cal: Calibration,
    origin: Instant,
    /// Untimed calls left before the next timed one.
    countdown: u64,
    /// Feeds the gap hash: the probe's phase plus its samples so far.
    state: u64,
    /// Exact calls per [`Op`].
    pub calls: [u64; 10],
    /// Timed calls per [`Op`].
    pub sampled: [u64; 10],
    /// Summed corrected durations of the timed calls per [`Op`].
    pub sampled_ns: [u64; 10],
    /// Byte length of the timed region and anchored checks.
    pub region_bytes: Vec<u64>,
    /// The first [`SPANS_PER_OP`] timed calls of each op.
    pub spans: Vec<Sample>,
}

/// A 64-bit mixer (the splitmix64 finaliser).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Probes created so far in this process; each starts at its own phase.
static PROBES: AtomicU64 = AtomicU64::new(0);

impl Probe {
    /// An empty probe whose span clock starts now.
    pub fn new(cal: Calibration) -> Probe {
        let state = mix(PROBES.fetch_add(1, Ordering::Relaxed)) << 20;
        Probe {
            cal,
            origin: Instant::now(),
            countdown: mix(state) % 127,
            state,
            calls: [0; 10],
            sampled: [0; 10],
            sampled_ns: [0; 10],
            region_bytes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Counts one call and says whether to time it (about 1 in 64).
    #[inline]
    fn tick(&mut self, op: Op) -> bool {
        self.calls[op as usize] += 1;
        if self.countdown > 0 {
            self.countdown -= 1;
            return false;
        }
        self.state += 1;
        self.countdown = mix(self.state) % 127;
        true
    }

    #[inline]
    fn record(&mut self, op: Op, t0: Instant, end: Instant) {
        let raw = (end - t0).as_nanos() as f64;
        if raw > PREEMPTED_NS {
            return;
        }
        let ns = (raw - self.cal.pair_ns).max(0.0) as u64;
        self.sampled[op as usize] += 1;
        self.sampled_ns[op as usize] += ns;
        if self.sampled[op as usize] <= SPANS_PER_OP as u64 {
            self.spans.push(Sample {
                op,
                start: t0 - self.origin,
                ns,
            });
        }
    }

    /// Estimated seconds spent inside the calls of one layer: each op's
    /// sampled time scaled by its own `calls / samples` (nothing for an op
    /// no sample fell on in this run).
    pub fn layer_s(&self, check: bool) -> f64 {
        let ns: f64 = Op::ALL
            .iter()
            .filter(|o| o.is_check() == check)
            .map(|&o| o as usize)
            .filter(|&i| self.sampled[i] > 0)
            .map(|i| self.sampled_ns[i] as f64 * self.calls[i] as f64 / self.sampled[i] as f64)
            .sum();
        ns * 1e-9
    }

    /// Exact calls into one layer.
    pub fn layer_calls(&self, check: bool) -> u64 {
        Op::ALL
            .iter()
            .filter(|o| o.is_check() == check)
            .map(|&o| self.calls[o as usize])
            .sum()
    }

    /// Estimated seconds the probe itself added to the run: the counters
    /// on every call plus the clock reads of every sample.
    pub fn overhead_s(&self) -> f64 {
        let calls: u64 = self.calls.iter().sum();
        let sampled: u64 = self.sampled.iter().sum();
        (calls as f64 * self.cal.call_cost_ns + sampled as f64 * self.cal.sample_cost_ns) * 1e-9
    }
}

/// A [`Sanitizer`] that forwards every call to `inner` and times a sample
/// of them into a [`Probe`].
#[derive(Debug)]
pub struct TimedSanitizer<'p, S> {
    inner: S,
    probe: &'p mut Probe,
}

impl<'p, S: Sanitizer> TimedSanitizer<'p, S> {
    /// Wraps `inner`, recording into `probe`; sample spans are timed from
    /// this moment.
    pub fn new(inner: S, probe: &'p mut Probe) -> Self {
        probe.origin = Instant::now();
        TimedSanitizer { inner, probe }
    }
}

/// Times one forwarded call when the probe samples it.
macro_rules! timed {
    ($self:ident, $op:expr, $call:expr) => {
        timed!($self, $op, $call, ())
    };
    ($self:ident, $op:expr, $call:expr, $on_sample:expr) => {{
        if $self.probe.tick($op) {
            $on_sample;
            let t0 = Instant::now();
            let r = $call;
            let end = Instant::now();
            $self.probe.record($op, t0, end);
            r
        } else {
            $call
        }
    }};
}

impl<S: Sanitizer> Sanitizer for TimedSanitizer<'_, S> {
    #[inline]
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    #[inline]
    fn world(&self) -> &World {
        self.inner.world()
    }

    #[inline]
    fn world_mut(&mut self) -> &mut World {
        self.inner.world_mut()
    }

    #[inline]
    fn counters(&self) -> &Counters {
        self.inner.counters()
    }

    #[inline]
    fn counters_mut(&mut self) -> &mut Counters {
        self.inner.counters_mut()
    }

    #[inline]
    fn alloc(&mut self, size: u64, region: Region) -> Result<Allocation, HeapError> {
        timed!(self, Op::Alloc, self.inner.alloc(size, region))
    }

    #[inline]
    fn free(&mut self, base: Addr) -> CheckResult {
        timed!(self, Op::Free, self.inner.free(base))
    }

    #[inline]
    fn realloc(&mut self, base: Addr, new_size: u64) -> Result<Allocation, ErrorReport> {
        timed!(self, Op::Realloc, self.inner.realloc(base, new_size))
    }

    #[inline]
    fn push_frame(&mut self) {
        timed!(self, Op::PushFrame, self.inner.push_frame())
    }

    #[inline]
    fn pop_frame(&mut self) {
        timed!(self, Op::PopFrame, self.inner.pop_frame())
    }

    #[inline]
    fn check_access(&mut self, addr: Addr, width: u32, kind: AccessKind) -> CheckResult {
        timed!(self, Op::Access, self.inner.check_access(addr, width, kind))
    }

    #[inline]
    fn check_region(&mut self, lo: Addr, hi: Addr, kind: AccessKind) -> CheckResult {
        timed!(
            self,
            Op::Region,
            self.inner.check_region(lo, hi, kind),
            self.probe
                .region_bytes
                .push(hi.raw().saturating_sub(lo.raw()))
        )
    }

    #[inline]
    fn check_anchored(
        &mut self,
        anchor: Addr,
        access_lo: Addr,
        access_hi: Addr,
        kind: AccessKind,
    ) -> CheckResult {
        timed!(
            self,
            Op::Anchored,
            self.inner
                .check_anchored(anchor, access_lo, access_hi, kind),
            self.probe
                .region_bytes
                .push(anchor.max(access_hi).raw() - anchor.min(access_lo).raw())
        )
    }

    #[inline]
    fn cached_check(
        &mut self,
        slot: &mut CacheSlot,
        base: Addr,
        offset: i64,
        width: u32,
        kind: AccessKind,
    ) -> CheckResult {
        timed!(
            self,
            Op::Cached,
            self.inner.cached_check(slot, base, offset, width, kind)
        )
    }

    #[inline]
    fn loop_final_check(&mut self, slot: &CacheSlot, base: Addr, kind: AccessKind) -> CheckResult {
        timed!(
            self,
            Op::LoopFinal,
            self.inner.loop_final_check(slot, base, kind)
        )
    }

    #[inline]
    fn supports_caching(&self) -> bool {
        self.inner.supports_caching()
    }

    #[inline]
    fn note_stack_alloc(&mut self) {
        self.inner.note_stack_alloc();
    }

    #[inline]
    fn contain(&mut self, report: &ErrorReport) {
        self.inner.contain(report);
    }

    #[inline]
    fn inject_metadata_fault(&mut self, addr: Addr, fault: MetadataFault) -> bool {
        self.inner.inject_metadata_fault(addr, fault)
    }

    #[inline]
    fn shadow_probe(&self, addr: Addr) -> Option<u8> {
        self.inner.shadow_probe(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_that_lost_its_core_is_dropped() {
        let mut p = Probe::new(Calibration {
            pair_ns: 30.0,
            sample_cost_ns: 0.0,
            call_cost_ns: 0.0,
        });
        let t0 = Instant::now();
        p.record(Op::Access, t0, t0 + Duration::from_micros(2));
        p.record(Op::Access, t0, t0 + Duration::from_millis(3));
        assert_eq!(p.sampled[Op::Access as usize], 1);
        assert_eq!(p.sampled_ns[Op::Access as usize], 1_970);
    }
}
