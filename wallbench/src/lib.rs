#![warn(missing_docs)]

//! `giantsan-wallbench`: the repository's end-to-end benchmark.
//!
//! Four seeded workloads load the layers of the system differently (see
//! `README.md` for why each exists):
//!
//! * `spec` — the 24 Table 2 programs, interpreter-bound;
//! * `region` — large `memset`/`memcpy` and derived-pointer loads, the
//!   workload where region checks and ASan's linear shadow scans show;
//! * `churn` — allocation, reallocation and frame churn over a large live
//!   heap, the workload where the allocator and poisoning show;
//! * `detect` — an in-process `repro serve` instance driven over loopback
//!   by closed-loop clients submitting fault-injection and Juliet jobs.
//!
//! A plain run measures the end-to-end metrics with tracing off, in thread
//! CPU time wherever one thread does the measured work, each time
//! normalised by a host-speed [`reference`] timed between the measured
//! operations. A traced run (`--trace`) measures every layer from outside,
//! by timing calls into its public functions ([`timed`] for the sanitizer
//! layer), and writes the spans.

pub mod detect;
pub mod host;
mod layers;
pub mod programs;
pub mod reference;
mod stats;
pub mod timed;

use std::path::PathBuf;
use std::time::Duration;

use giantsan_harness::json::Json;

use crate::reference::Reference;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 2 programs.
    Spec,
    /// Region-check-heavy generated programs.
    Region,
    /// Allocation-heavy generated programs.
    Churn,
    /// The detection service under closed-loop load.
    Detect,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Spec,
        Workload::Region,
        Workload::Churn,
        Workload::Detect,
    ];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Spec => "spec",
            Workload::Region => "region",
            Workload::Churn => "churn",
            Workload::Detect => "detect",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The recorded benchmark size.
    Full,
    /// A few hundred milliseconds per workload, for tests.
    Smoke,
}

/// Everything one workload run is parameterised by.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Run the traced pass instead of the end-to-end pass.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Directory for the service's data and the span files.
    pub out_dir: PathBuf,
    /// The digest a `faults` job at the CI seed must produce: the pinned
    /// golden digest, except in the test that checks a wrong one fails.
    pub faults_golden: u64,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            seed: 1,
            seconds: Duration::from_secs(24),
            trace: false,
            size: Size::Full,
            out_dir: PathBuf::from(".bench_out"),
            faults_golden: golden_faults_digest(),
        }
    }
}

/// The digest `repro faults --seed 0xg1an75an` pins in the repository.
pub fn golden_faults_digest() -> u64 {
    let text = include_str!("../../tests/golden/faults_digest.txt").trim();
    u64::from_str_radix(text.trim_start_matches("0x"), 16).expect("golden digest is hex")
}

/// The end-to-end metrics every workload reports with tracing off:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("native_s", "s"),
    ("giantsan_s", "s"),
    ("asan_s", "s"),
    ("cases_per_s", "cases/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-up is repeated until this much time is spent (and at least
/// [`SETUP_MIN_REPS`] times, at most [`SETUP_MAX_REPS`]), so its median is
/// taken over enough repetitions to sit above the clock's and the host's
/// millisecond noise.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Fewest set-up repetitions at full size.
const SETUP_MIN_REPS: usize = 5;
/// Most set-up repetitions.
const SETUP_MAX_REPS: usize = 400;

/// Reference samples taken before each set-up repetition. A repetition of
/// `detect` ends waiting on the server's threads; the first busy
/// millisecond after such a wait runs on a cold core, and these samples
/// absorb it instead of the repetition.
const SETUP_WARM_SAMPLES: usize = 3;

/// The median of the seconds `rep` returns over repeated set-ups (once at
/// smoke size), normalised by the reference samples taken before each.
/// `rep` returns `None` for a set-up that failed; it records the failure
/// itself.
pub(crate) fn median_setup(
    size: Size,
    reference: &mut Reference,
    mut rep: impl FnMut() -> Option<f64>,
) -> f64 {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    for i in 0.. {
        for _ in 0..SETUP_WARM_SAMPLES {
            reference.sample();
        }
        if let Some(s) = rep() {
            times.push(s);
        }
        let done = i + 1;
        if size == Size::Smoke
            || done >= SETUP_MAX_REPS
            || (done >= SETUP_MIN_REPS && start.elapsed() >= SETUP_BUDGET)
        {
            break;
        }
    }
    stats::median(&times) * reference.scale()
}

/// `op_p50_ms`, the median latency of the operations that took `ms`
/// milliseconds each. Their 95th percentile goes to `extra`, the rows
/// printed for reading: on a shared host the tail of single runs follows
/// slowdowns of the host lasting seconds more than it follows the code.
pub(crate) fn op_latency(ms: &[f64], extra: &mut Vec<Metric>) -> Metric {
    let at = |name: &str, p: f64| Metric {
        n: ms.len(),
        ..Metric::one(name, "ms", stats::percentile(ms, p))
    };
    extra.push(at("op_p95_ms", 0.95));
    at("op_p50_ms", 0.50)
}

/// One reported number with the spread of the samples it summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: the median of the samples.
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Metric {
    /// The median of `samples`, with their quartiles.
    pub fn of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, q3) = stats::quartiles(samples);
        Metric {
            name: name.into(),
            unit,
            value: stats::median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A single measured value.
    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::of(name, unit, &[value])
    }
}

/// A span kept in memory during a traced run and written as JSONL at exit.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the run.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer boundary this span times (`round`, `program`, `check_region`,
    /// `job`, `shard`, `cell`, …).
    pub name: String,
    /// Start in microseconds since the start of its root.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Extra fields (tool, program, counts, estimated self time).
    pub attrs: Json,
}

impl Span {
    /// The span as one compact JSON line.
    pub fn to_json(&self) -> String {
        let mut j = Json::obj()
            .field("id", self.id)
            .field("parent", self.parent)
            .field("name", self.name.as_str())
            .field("start_us", self.start_us)
            .field("dur_us", self.dur_us);
        if let Json::Object(fields) = &self.attrs {
            for (k, v) in fields {
                j = j.field(k, v.clone());
            }
        }
        j.render_compact()
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: program runs and jobs.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// A description of each failure (first few only).
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Vec<Metric>,
    /// Further numbers printed for reading but not listed there.
    pub extra: Vec<Metric>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// `true` when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The benchmark's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self.metrics.iter().fold(Json::obj(), |o, m| {
            o.field(
                &m.name,
                Json::obj().field("value", m.value).field("unit", m.unit),
            )
        });
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .render_compact()
    }
}

/// A small seeded generator (splitmix64) for the generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded by `seed` mixed with a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e3779b97f4a7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        giantsan_harness::faults::splitmix64(&mut self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Log-uniform in `[lo, hi]`, rounded down to a multiple of 8 and at
    /// least `lo` (`8 <= lo <= hi`).
    pub fn log_uniform8(&mut self, lo: u64, hi: u64) -> u64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let x = ((lo as f64).ln() + u * ((hi as f64).ln() - (lo as f64).ln())).exp();
        ((x as u64) & !7).clamp(lo, hi)
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Runs one workload.
pub fn run(workload: Workload, opts: &Opts) -> Outcome {
    match workload {
        Workload::Detect => detect::run(opts),
        w => programs::run(w, opts),
    }
}
