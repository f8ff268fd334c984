//! The clocks and the host-speed reference the end-to-end times are
//! measured with.
//!
//! The benchmark runs on virtual machines that share their cores with
//! other tenants, and their load reaches a run in two ways. The hypervisor
//! takes the core away for a while (steal), or the guest runs another
//! thread on it; a wall clock counts that wait, a thread's CPU clock does
//! not, so single-threaded work is timed with [`thread_cpu`]. And a tenant
//! on the sibling hyperthread or sharing the caches slows every instruction
//! that does run, often by a third and for minutes at a time, which no clock
//! can tell from slower code. Between measured operations the benchmark
//! therefore times a fixed piece of its own work: sorting the same
//! pseudo-random keys, in a buffer allocated once, through the standard
//! library only, so no change to the repository's crates can make it faster
//! or slower. A measured time is reported normalised, as
//! `seconds × NOMINAL_S / reference`, where `reference` is the median
//! reference time taken around it: the time the operation takes on a host
//! where the reference takes [`NOMINAL_S`]. Sorting is branchy,
//! cache-resident work like the interpreter's and slows with it.

use std::hint::black_box;
use std::os::raw::{c_int, c_long};
use std::time::Duration;

use crate::stats::median;
use crate::Metric;

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has used. On a guest with steal-time
/// accounting (Linux's default under KVM) it leaves out the time the
/// hypervisor ran something else on the core.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the clock id
    // is a constant the kernel defines; `clock_gettime` writes only `*tp`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux kernel");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// What the reference work takes in the quiet stretches of the host the
/// baseline was recorded on (`README.md`). Normalised seconds are seconds on
/// a host running at that speed.
pub const NOMINAL_S: f64 = 0.55e-3;

/// Keys sorted per pass.
const KEYS: usize = 4096;
/// Sorting passes per sample.
const PASSES: usize = 8;

/// Reference samples taken during one run.
#[derive(Debug, Clone)]
pub struct Reference {
    keys: Vec<u32>,
    /// Samples since the last [`Reference::scale`].
    pending: Vec<f64>,
    /// Every sample of the run.
    all: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    /// No samples yet.
    pub fn new() -> Reference {
        Reference {
            keys: vec![0; KEYS],
            pending: Vec::new(),
            all: Vec::new(),
        }
    }

    /// Times the reference work once, in thread CPU time. Every sample
    /// sorts the same keys.
    pub fn sample(&mut self) {
        let t = thread_cpu();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..PASSES {
            for k in self.keys.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *k = x as u32;
            }
            black_box(&mut self.keys).sort_unstable();
        }
        let s = (thread_cpu() - t).as_secs_f64();
        self.pending.push(s);
        self.all.push(s);
    }

    /// The factor that normalises the seconds measured around the samples
    /// taken since the previous call: [`NOMINAL_S`] over their median (1
    /// when there were none).
    pub fn scale(&mut self) -> f64 {
        let m = median(&self.pending);
        self.pending.clear();
        if m > 0.0 {
            NOMINAL_S / m
        } else {
            1.0
        }
    }

    /// `reference_ms`, the row printed for reading: the median sample of the
    /// run, with its quartiles.
    pub fn metric(&self) -> Metric {
        let ms: Vec<f64> = self.all.iter().map(|s| s * 1e3).collect();
        Metric::of("reference_ms", "ms", &ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_only_the_samples_since_the_previous_call() {
        let mut r = Reference::new();
        assert_eq!(r.scale(), 1.0);
        for _ in 0..3 {
            r.sample();
        }
        assert_eq!(r.scale(), NOMINAL_S / median(&r.all));
        assert_eq!(r.scale(), 1.0);
        r.sample();
        assert_eq!(r.scale(), NOMINAL_S / r.all[3]);
        assert_eq!(r.metric().n, 4);
    }

    #[test]
    fn the_thread_clock_counts_work_but_not_sleep() {
        let t = thread_cpu();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu() - t;
        assert!(slept < Duration::from_millis(10), "{slept:?}");
        let t = thread_cpu();
        let mut r = Reference::new();
        r.sample();
        assert!(thread_cpu() - t >= Duration::from_secs_f64(r.all[0]));
    }
}
