//! The program workloads (`spec`, `region`, `churn`): seeded programs run
//! under Native, GiantSan and ASan, timed at the run boundary, with a
//! traced pass that splits each run into interpreter, check and
//! allocation time.

use std::time::{Duration, Instant};

use giantsan_analysis::{analyze, PassId, SiteFate};
use giantsan_baselines::Asan;
use giantsan_core::{GiantSan, GiantSanOptions};
use giantsan_harness::json::Json;
use giantsan_harness::{geomean, BatchRunner, Tool};
use giantsan_ir::{CheckPlan, ExecConfig, ExecResult, Expr, Program, ProgramBuilder, Termination};
use giantsan_runtime::{Counters, NullSanitizer, RecoveryPolicy, RuntimeConfig, Sanitizer};
use giantsan_workloads::fuzz::{buggy_program, safe_program, InjectedBug};
use giantsan_workloads::spec_suite;

use crate::reference::{thread_cpu, Reference};
use crate::stats::{median, percentile, quartiles};
use crate::timed::{Calibration, Op, Probe, TimedSanitizer};
use crate::{layers, median_setup, op_latency, Metric, Opts, Outcome, Rng, Size, Span, Workload};

/// The tools every program runs under, in Table 2 order.
pub const TOOLS: [Tool; 3] = [Tool::Native, Tool::GiantSan, Tool::Asan];

/// Metric-name suffix of each of [`TOOLS`].
pub(crate) const TOOL_KEYS: [&str; 3] = ["native", "giantsan", "asan"];

/// One generated program and its inputs.
#[derive(Debug, Clone)]
pub struct Case {
    /// Program name (unique within a workload).
    pub name: String,
    /// The program.
    pub program: Program,
    /// Its inputs.
    pub inputs: Vec<i64>,
    /// Whether the program carries an injected bug (reports expected).
    pub buggy: bool,
}

/// The generated programs of `workload`, in the order the seed sets.
///
/// `detect` yields the fuzz corpus its fault-injection jobs run, so the
/// traced `detect` run can time the same program layers.
pub fn cases(workload: Workload, size: Size, seed: u64) -> Vec<Case> {
    let smoke = size == Size::Smoke;
    let mut out: Vec<Case> = match workload {
        Workload::Spec => spec_suite(if smoke { 1 } else { 8 })
            .into_iter()
            .map(|w| Case {
                name: w.id,
                program: w.program,
                inputs: w.inputs,
                buggy: false,
            })
            .collect(),
        Workload::Region => {
            let (programs, ops, repeats) = if smoke { (3, 40, 1) } else { (12, 1500, 8) };
            (0..programs)
                .map(|i| region_program(&mut Rng::new(seed, 0x7e61 + i), i, ops, repeats))
                .collect()
        }
        Workload::Churn => {
            let shape = if smoke {
                ChurnShape {
                    resident: 2_000,
                    ring: 64,
                    sweeps: 2,
                    temps: 16,
                    frames: 8,
                }
            } else {
                ChurnShape::FULL
            };
            let programs = if smoke { 2 } else { 4 };
            (0..programs)
                .map(|i| churn_program(&mut Rng::new(seed, 0xc4a7 + i), i, &shape))
                .collect()
        }
        Workload::Detect => {
            let mut v = Vec::new();
            for s in 0..5u64 {
                let fp = safe_program(s);
                v.push(Case {
                    name: fp.program.name.clone(),
                    program: fp.program,
                    inputs: fp.inputs,
                    buggy: false,
                });
                for bug in InjectedBug::ALL {
                    let fp = buggy_program(s, bug);
                    v.push(Case {
                        name: fp.program.name.clone(),
                        program: fp.program,
                        inputs: fp.inputs,
                        buggy: true,
                    });
                }
            }
            v
        }
    };
    Rng::new(seed, 0x0de4).shuffle(&mut out);
    out
}

/// The runtime configuration `workload` runs under.
pub fn config(workload: Workload) -> RuntimeConfig {
    match workload {
        Workload::Spec | Workload::Region => RuntimeConfig::default(),
        // About 50K live objects averaging 1.3 KiB outgrow the default
        // 64 MiB heap.
        Workload::Churn => RuntimeConfig::builder().heap_size(128 << 20).build(),
        // What a fault-injection cell runs under.
        Workload::Detect => RuntimeConfig::small()
            .to_builder()
            .recovery(RecoveryPolicy::recover())
            .build(),
    }
}

/// Memory objects the region programs copy between. Two of them and their
/// shadow stay inside one core's 2 MiB L2, so the workload times checks and
/// copies, not how much of the cache shared with other tenants it keeps.
const REGION_OBJ: i64 = 1 << 18;
/// Leading inputs of a region program: operations, loads per operation,
/// repeats.
const REGION_HEADER: i64 = 3;
/// Tape fields per region operation: memset-A, copy-A-to-B, copy-B-to-A
/// flags, then length, destination and source offsets.
const REGION_FIELDS: i64 = 6;
/// Derived-pointer loads per region operation.
const REGION_LOADS: i64 = 8;

/// A Figure 11-style region program: `ops` memsets and memcpys of
/// 256 B–64 KiB (log-uniform) at data-dependent offsets into two 256 KiB
/// heap objects, each followed by loads at random offsets through a
/// pointer derived from the operation's destination; the whole sequence
/// runs `repeats` times.
fn region_program(rng: &mut Rng, index: u64, ops: u64, repeats: i64) -> Case {
    let ops = ops as i64;
    let load_base = REGION_HEADER + REGION_FIELDS * ops;
    let mut inputs = vec![ops, REGION_LOADS, repeats];
    let mut loads = Vec::with_capacity((ops * REGION_LOADS) as usize);
    for _ in 0..ops {
        let kind = rng.below(3) as usize;
        let len = rng.log_uniform8(256, 1 << 16) as i64;
        let dst = rng.below(((REGION_OBJ - len) / 8 + 1) as u64) as i64 * 8;
        let src = rng.below(((REGION_OBJ - len) / 8 + 1) as u64) as i64 * 8;
        let mut flags = [0i64; 3];
        flags[kind] = 1;
        inputs.extend(flags);
        inputs.extend([len, dst, src]);
        for _ in 0..REGION_LOADS {
            loads.push(rng.below(((REGION_OBJ - dst) / 8) as u64) as i64 * 8);
        }
    }
    inputs.extend(loads);

    let mut b = ProgramBuilder::new(format!("region-{index}"));
    let n = b.input(0);
    let per_op = b.input(1);
    let repeats = b.input(2);
    let a = b.alloc_heap(REGION_OBJ);
    let c = b.alloc_heap(REGION_OBJ);
    b.for_loop_opaque(0i64, repeats, |b, _| {
        b.for_loop_opaque(0i64, n.clone(), |b, i| {
            let at = |k: i64| Expr::input_at(Expr::var(i) * REGION_FIELDS + (REGION_HEADER + k));
            let len = b.let_(at(3));
            let dst = b.let_(at(4));
            let src = b.let_(at(5));
            b.if_nonzero(at(0), |b| {
                b.memset(a, Expr::var(dst), Expr::var(len), Expr::var(i));
            });
            b.if_nonzero(at(1), |b| {
                b.memcpy(c, Expr::var(dst), a, Expr::var(src), Expr::var(len));
            });
            b.if_nonzero(at(2), |b| {
                b.memcpy(a, Expr::var(dst), c, Expr::var(src), Expr::var(len));
            });
            let q = b.ptr_add(a, Expr::var(dst));
            b.for_loop_opaque(0i64, per_op.clone(), |b, j| {
                let off = Expr::input_at(Expr::var(i) * REGION_LOADS + Expr::var(j) + load_base);
                let _ = b.load(q, off, 8);
            });
        });
    });
    b.free(a);
    b.free(c);
    Case {
        name: format!("region-{index}"),
        program: b.build(),
        inputs,
        buggy: false,
    }
}

/// Dimensions of one churn program.
#[derive(Debug, Clone, Copy)]
struct ChurnShape {
    /// Objects allocated up front and kept live to the end.
    resident: usize,
    /// Ring slots reallocated once per sweep.
    ring: usize,
    /// Sweeps over the ring.
    sweeps: usize,
    /// Short-lived heap objects per sweep.
    temps: usize,
    /// Stack frames per sweep.
    frames: usize,
}

impl ChurnShape {
    const FULL: ChurnShape = ChurnShape {
        resident: 48_000,
        ring: 1024,
        sweeps: 12,
        temps: 128,
        frames: 32,
    };
}

/// An allocation-churn program: a resident population plus a ring of
/// objects (about 50K live in total), sizes 16 B–8 KiB log-uniform; each
/// sweep reallocates every ring slot, allocates and frees short-lived
/// objects and pushes stack frames, touching each object at both ends.
fn churn_program(rng: &mut Rng, index: u64, s: &ChurnShape) -> Case {
    let mut inputs: Vec<i64> = vec![
        s.resident as i64,
        s.sweeps as i64,
        s.temps as i64,
        s.frames as i64,
    ];
    let mut tape = |n: usize, lo: u64, hi: u64, inputs: &mut Vec<i64>| {
        let at = inputs.len() as i64;
        inputs.extend((0..n).map(|_| rng.log_uniform8(lo, hi) as i64));
        at
    };
    let t_res = tape(s.resident, 16, 8192, &mut inputs);
    let t_ring0 = tape(s.ring, 16, 8192, &mut inputs);
    let t_ring = tape(s.ring * s.sweeps, 16, 8192, &mut inputs);
    let t_tmp = tape(s.temps * s.sweeps, 16, 8192, &mut inputs);
    let t_frm = tape(s.frames * s.sweeps, 16, 512, &mut inputs);
    let (ring_n, temps, frames) = (s.ring as i64, s.temps as i64, s.frames as i64);

    let mut b = ProgramBuilder::new(format!("churn-{index}"));
    let resident = b.input(0);
    let sweeps = b.input(1);
    let temps_n = b.input(2);
    let frames_n = b.input(3);
    b.for_loop_opaque(0i64, resident, |b, i| {
        let sz = b.let_(Expr::input_at(Expr::var(i) + t_res));
        let r = b.alloc_heap(Expr::var(sz));
        b.store(r, 0i64, 8, Expr::var(i));
        b.store(r, Expr::var(sz) - 8, 8, Expr::var(i));
    });
    let ring: Vec<_> = (0..ring_n)
        .map(|k| {
            let p = b.alloc_heap(Expr::input((t_ring0 + k) as usize));
            b.store(p, 0i64, 8, k);
            p
        })
        .collect();
    b.for_loop_opaque(0i64, sweeps, |b, sw| {
        for (k, &p) in ring.iter().enumerate() {
            let sz = b.let_(Expr::input_at(Expr::var(sw) * ring_n + (t_ring + k as i64)));
            b.realloc(p, Expr::var(sz));
            b.store(p, Expr::var(sz) - 8, 8, Expr::var(sw));
            let _ = b.load(p, 0i64, 8);
        }
        b.for_loop_opaque(0i64, temps_n.clone(), |b, j| {
            let sz = b.let_(Expr::input_at(Expr::var(sw) * temps + Expr::var(j) + t_tmp));
            let t = b.alloc_heap(Expr::var(sz));
            b.store(t, 0i64, 8, Expr::var(j));
            b.store(t, Expr::var(sz) - 8, 8, Expr::var(j));
            let _ = b.load(t, 0i64, 8);
            b.free(t);
        });
        b.for_loop_opaque(0i64, frames_n.clone(), |b, j| {
            b.frame(|b| {
                let sz = b.let_(Expr::input_at(
                    Expr::var(sw) * frames + Expr::var(j) + t_frm,
                ));
                let st = b.alloc_stack(Expr::var(sz));
                b.store(st, Expr::var(sz) - 8, 8, Expr::var(j));
            });
        });
    });
    for p in ring {
        b.free(p);
    }
    Case {
        name: format!("churn-{index}"),
        program: b.build(),
        inputs,
        buggy: false,
    }
}

/// A case with one instrumentation plan per tool.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The program.
    pub case: Case,
    /// Plans in [`TOOLS`] order.
    pub plans: Vec<CheckPlan>,
}

/// What planning a workload cost, for the `analysis` layer.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    /// Seconds spent in `analyze()`.
    pub analyze_s: f64,
    /// Milliseconds per pipeline pass, summed over every analysis.
    pub pass_ms: Vec<(PassId, f64)>,
    /// Static access sites over all programs.
    pub sites: u64,
    /// GiantSan sites eliminated statically (merged, promoted, proven).
    pub eliminated: u64,
    /// GiantSan sites routed through a quasi-bound cache.
    pub cached: u64,
}

/// Plans every case for every tool through `analyze()` (Native runs
/// uninstrumented).
pub fn plan_all(cases: Vec<Case>) -> (Vec<Planned>, PlanStats) {
    let mut st = PlanStats {
        pass_ms: PassId::PIPELINE.iter().map(|&p| (p, 0.0)).collect(),
        ..PlanStats::default()
    };
    let planned = cases
        .into_iter()
        .map(|case| {
            st.sites += u64::from(case.program.num_sites);
            let plans = TOOLS
                .iter()
                .map(|&tool| {
                    if tool == Tool::Native {
                        return CheckPlan::none(&case.program);
                    }
                    let t = Instant::now();
                    let a = analyze(&case.program, &tool.profile());
                    st.analyze_s += t.elapsed().as_secs_f64();
                    for ps in &a.pass_stats {
                        if let Some(slot) = st.pass_ms.iter_mut().find(|(p, _)| *p == ps.pass) {
                            slot.1 += ps.wall.as_secs_f64() * 1e3;
                        }
                    }
                    if tool == Tool::GiantSan {
                        for f in &a.fates {
                            match f {
                                SiteFate::MergedAway
                                | SiteFate::Promoted
                                | SiteFate::StaticallySafe => st.eliminated += 1,
                                SiteFate::Cached => st.cached += 1,
                                _ => {}
                            }
                        }
                    }
                    a.plan
                })
                .collect();
            Planned { case, plans }
        })
        .collect();
    (planned, st)
}

/// The observable result of one program run.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// The interpreter's result.
    pub result: ExecResult,
    /// The tool's counters after the run.
    pub counters: Counters,
    /// Wall time of the whole run: session construction, interpretation
    /// and teardown, as a user of the tool waits for it.
    pub total: Duration,
    /// The same run's thread CPU time: the wall time less the waits for a
    /// core that other tenants of the host cause.
    pub cpu: Duration,
    /// Wall time of the interpreter call alone.
    pub interp: Duration,
}

/// Runs `case` under `tool` in a fresh session, timed from outside; with
/// a `probe`, the session is wrapped in a [`TimedSanitizer`].
pub fn execute(
    tool: Tool,
    cfg: &RuntimeConfig,
    case: &Case,
    plan: &CheckPlan,
    probe: Option<&mut Probe>,
) -> RunOut {
    let exec = ExecConfig {
        recovery: cfg.recovery,
        ..ExecConfig::default()
    };
    let t0 = Instant::now();
    let c0 = thread_cpu();
    let (result, counters, interp) = match tool {
        Tool::Native => drive(NullSanitizer::new(cfg.clone()), case, plan, &exec, probe),
        Tool::GiantSan => drive(
            GiantSan::with_options(cfg.clone(), GiantSanOptions::default()),
            case,
            plan,
            &exec,
            probe,
        ),
        Tool::Asan => drive(Asan::new(cfg.clone()), case, plan, &exec, probe),
        other => panic!(
            "the benchmark runs Native, GiantSan and ASan, not {}",
            other.name()
        ),
    };
    RunOut {
        result,
        counters,
        total: t0.elapsed(),
        cpu: thread_cpu() - c0,
        interp,
    }
}

fn drive<S: Sanitizer>(
    san: S,
    case: &Case,
    plan: &CheckPlan,
    exec: &ExecConfig,
    probe: Option<&mut Probe>,
) -> (ExecResult, Counters, Duration) {
    match probe {
        Some(p) => {
            let mut timed = TimedSanitizer::new(san, p);
            let t = Instant::now();
            let r = giantsan_ir::run(&case.program, &case.inputs, &mut timed, plan, exec);
            let d = t.elapsed();
            (r, *timed.counters(), d)
        }
        None => {
            let mut san = san;
            let t = Instant::now();
            let r = giantsan_ir::run(&case.program, &case.inputs, &mut san, plan, exec);
            let d = t.elapsed();
            (r, *san.counters(), d)
        }
    }
}

/// Checks one program's three runs (in [`TOOLS`] order) against the
/// oracles: every run finished, a clean program raised no report, and the
/// sanitized checksums equal the native one.
pub(crate) fn check_runs(case: &Case, outs: &[RunOut]) -> Vec<String> {
    let mut bad = Vec::new();
    if case.buggy {
        return bad;
    }
    let native = outs[0].result.checksum;
    for (tool, out) in TOOLS.iter().zip(outs) {
        if out.result.termination != Termination::Finished {
            bad.push(format!(
                "{} under {}: {:?}",
                case.name,
                tool.name(),
                out.result.termination
            ));
        } else if !out.result.reports.is_empty() {
            bad.push(format!(
                "{} under {}: {} report(s) on a clean program, first: {}",
                case.name,
                tool.name(),
                out.result.reports.len(),
                out.result.reports[0]
            ));
        } else if out.result.checksum != native {
            bad.push(format!(
                "{} under {}: checksum {:#x} differs from native {:#x}",
                case.name,
                tool.name(),
                out.result.checksum,
                native
            ));
        }
    }
    bad
}

/// Program generation plus planning, repeated by [`median_setup`]: the
/// median set-up time (thread CPU seconds, normalised), the plans of the
/// last repetition and its planning cost.
fn setup(
    workload: Workload,
    opts: &Opts,
    reference: &mut Reference,
) -> (f64, Vec<Planned>, PlanStats) {
    let mut last = None;
    let setup_s = median_setup(opts.size, reference, || {
        let t = thread_cpu();
        let planned = plan_all(cases(workload, opts.size, opts.seed));
        let s = (thread_cpu() - t).as_secs_f64();
        last = Some(planned);
        Some(s)
    });
    let (planned, st) = last.expect("at least one set-up repetition");
    (setup_s, planned, st)
}

/// Runs a program workload: the end-to-end pass, or with `opts.trace`
/// the traced pass.
pub(crate) fn run(workload: Workload, opts: &Opts) -> Outcome {
    let mut reference = Reference::new();
    let (setup_s, planned, plan_stats) = setup(workload, opts, &mut reference);
    let cfg = config(workload);
    let mut out = Outcome::default();
    if opts.trace {
        let cal = Calibration::measure();
        let ledger = ledger(&planned, &cfg, opts, &cal, &mut out);
        out.metrics = ledger;
        out.metrics.extend(plan_metrics(&plan_stats));
        out.metrics.extend(batch_metrics(&planned, &cfg));
        out.metrics.extend(layers::shadow_metrics());
    } else {
        out.metrics = end_to_end(&planned, &cfg, opts, &mut reference, &mut out);
        out.metrics.push(Metric::one("setup_s", "s", setup_s));
        out.metrics.push(Metric::one(
            "peak_rss_mb",
            "MiB",
            crate::host::peak_rss_mb(),
        ));
        out.extra.push(reference.metric());
    }
    out
}

/// The run times of a closed-loop timed phase.
pub(crate) struct Rounds {
    /// Normalised CPU seconds of each case's runs under each of [`TOOLS`],
    /// one per round.
    runs: Vec<[Vec<f64>; 3]>,
    /// The same runs' wall seconds.
    wall: Vec<[Vec<f64>; 3]>,
    /// Normalised CPU seconds of each round's runs together.
    round_s: Vec<f64>,
}

impl Rounds {
    /// `native_s`, `giantsan_s` and `asan_s`: one pass of every program
    /// under the tool, assembled from each run's median across rounds (its
    /// quartiles from the runs' quartiles), so a burst of load from another
    /// tenant of the host moves only the runs it overlapped, not a pass.
    /// The same passes in wall seconds, `wall_<tool>_s`, go to `extra`.
    pub(crate) fn tool_metrics(&self, extra: &mut Vec<Metric>) -> Vec<Metric> {
        let pass = |runs: &[[Vec<f64>; 3]], t: usize, name: String| {
            let sum = |f: fn(&[f64]) -> f64| -> f64 { runs.iter().map(|r| f(&r[t])).sum() };
            Metric {
                name,
                unit: "s",
                value: sum(median),
                q1: sum(|v| quartiles(v).0),
                q3: sum(|v| quartiles(v).1),
                n: self.round_s.len(),
            }
        };
        for (t, key) in TOOL_KEYS.iter().enumerate() {
            extra.push(pass(&self.wall, t, format!("wall_{key}_s")));
        }
        TOOL_KEYS
            .iter()
            .enumerate()
            .map(|(t, key)| pass(&self.runs, t, format!("{key}_s")))
            .collect()
    }
}

/// Measured time between reference samples in a closed loop.
const REFERENCE_EVERY: Duration = Duration::from_millis(20);
/// Reference samples that close a segment of rounds.
const SEGMENT_SAMPLES: usize = 5;

/// The closed-loop timed phase: rounds of every program under every tool
/// until `budget` is spent (at least three rounds; one at smoke size). The
/// round index rotates which tool runs first. After a program's three runs
/// the reference is sampled once [`REFERENCE_EVERY`] has passed since the
/// previous sample; the rounds run since the previous segment closed are
/// normalised together by the median of the samples taken among them, a
/// segment closing at the first round end with [`SEGMENT_SAMPLES`] samples
/// (a round of `spec`, a few dozen rounds of `detect`'s short programs).
/// Every run goes through [`check_runs`], and its digest must not change
/// between rounds.
pub(crate) fn closed_loop(
    planned: &[Planned],
    cfg: &RuntimeConfig,
    budget: Duration,
    size: Size,
    reference: &mut Reference,
    out: &mut Outcome,
) -> Rounds {
    let mut runs: Vec<[Vec<f64>; 3]> = vec![Default::default(); planned.len()];
    let mut wall = runs.clone();
    let mut round_s = Vec::new();
    let mut first_digests: Vec<[u64; 3]> = Vec::new();
    // CPU and wall seconds of the rounds waiting for their segment to close.
    let mut segment: Vec<Vec<[(f64, f64); 3]>> = Vec::new();
    let mut samples = 1;
    reference.sample();
    let mut last_sample = Instant::now();
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let mut round: Vec<[(f64, f64); 3]> = vec![[(0.0, 0.0); 3]; planned.len()];
        for (ci, p) in planned.iter().enumerate() {
            let mut outs: Vec<Option<RunOut>> = vec![None, None, None];
            for k in 0..TOOLS.len() {
                let t = (k + rounds) % TOOLS.len();
                let o = execute(TOOLS[t], cfg, &p.case, &p.plans[t], None);
                round[ci][t] = (o.cpu.as_secs_f64(), o.total.as_secs_f64());
                outs[t] = Some(o);
            }
            if last_sample.elapsed() >= REFERENCE_EVERY {
                reference.sample();
                samples += 1;
                last_sample = Instant::now();
            }
            let outs: Vec<RunOut> = outs
                .into_iter()
                .map(|o| o.expect("every tool ran"))
                .collect();
            let digests = [0, 1, 2].map(|t| outs[t].result.digest());
            if rounds == 0 {
                first_digests.push(digests);
            }
            let mut bad = check_runs(&p.case, &outs);
            for t in 0..3 {
                if digests[t] != first_digests[ci][t] {
                    bad.push(format!(
                        "{} under {}: digest changed between rounds",
                        p.case.name,
                        TOOLS[t].name()
                    ));
                }
            }
            out.attempted += 3;
            for b in bad {
                out.fail(b);
            }
        }
        segment.push(round);
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / rounds as f64;
        let done = size == Size::Smoke || (rounds >= 3 && elapsed + mean > budget.as_secs_f64());
        if done || samples >= SEGMENT_SAMPLES {
            if done {
                reference.sample();
            }
            let scale = reference.scale();
            for round in segment.drain(..) {
                for (ci, r) in round.iter().enumerate() {
                    for t in 0..TOOLS.len() {
                        runs[ci][t].push(r[t].0 * scale);
                        wall[ci][t].push(r[t].1);
                    }
                }
                round_s.push(round.iter().flatten().map(|r| r.0).sum::<f64>() * scale);
            }
            samples = 0;
        }
        if done {
            break;
        }
    }
    Rounds {
        runs,
        wall,
        round_s,
    }
}

/// The end-to-end metrics of a program workload: the per-tool passes,
/// program runs per second of each round, and the latency percentiles of
/// every run (rounds × programs × tools samples, so the full sizes leave
/// more than ten beyond the 95th percentile), all in normalised CPU time.
fn end_to_end(
    planned: &[Planned],
    cfg: &RuntimeConfig,
    opts: &Opts,
    reference: &mut Reference,
    out: &mut Outcome,
) -> Vec<Metric> {
    let r = closed_loop(planned, cfg, opts.seconds, opts.size, reference, out);
    let per_round = (planned.len() * TOOLS.len()) as f64;
    let rate: Vec<f64> = r.round_s.iter().map(|s| per_round / s).collect();
    let op_ms: Vec<f64> = r
        .runs
        .iter()
        .flat_map(|c| c.iter().flatten())
        .map(|s| s * 1e3)
        .collect();
    let mut m = r.tool_metrics(&mut out.extra);
    m.push(Metric::of("cases_per_s", "cases/s", &rate));
    m.push(op_latency(&op_ms, &mut out.extra));
    m
}

/// Per-tool sums over the traced and untraced passes of a ledger.
/// Run times are kept per case so each case contributes its median across
/// passes; layer estimates and counts are summed over the traced passes.
#[derive(Debug, Default, Clone)]
struct ToolLedger {
    /// Interpreter-call seconds of each case's untraced runs.
    untraced: Vec<Vec<f64>>,
    /// Interpreter-call seconds of each case's traced runs.
    traced: Vec<Vec<f64>>,
    /// Whole-run seconds of each case's untraced runs.
    totals: Vec<Vec<f64>>,
    check_s: f64,
    alloc_s: f64,
    overhead_s: f64,
    check_calls: u64,
    region_calls: u64,
    alloc_calls: u64,
    region_bytes: Vec<f64>,
    counters: Counters,
    steps: u64,
}

impl ToolLedger {
    /// The sum over cases of each case's median of `runs`.
    fn assembled(runs: &[Vec<f64>]) -> f64 {
        runs.iter().map(|r| median(r)).sum()
    }
}

/// The per-layer ledger of the `ir`, `check`, `alloc`, `sanitizer` and
/// `telemetry` layers: rounds until `opts.seconds` is spent, at least one
/// (exactly one at smoke size). A round runs every program under every tool
/// twice, back to back: once plain and once through a [`TimedSanitizer`],
/// alternating which goes first, so a slow stretch of the host moves both
/// runs of a pair alike. The two runs must agree on every digest and
/// counter.
pub(crate) fn ledger(
    planned: &[Planned],
    cfg: &RuntimeConfig,
    opts: &Opts,
    cal: &Calibration,
    out: &mut Outcome,
) -> Vec<Metric> {
    let mut tl: Vec<ToolLedger> = (0..3)
        .map(|_| ToolLedger {
            untraced: vec![Vec::new(); planned.len()],
            traced: vec![Vec::new(); planned.len()],
            totals: vec![Vec::new(); planned.len()],
            ..ToolLedger::default()
        })
        .collect();
    let start = Instant::now();
    let mut rounds = 0usize;
    let mut next_id = 1u64;
    loop {
        let round_id = next_id;
        next_id += 1;
        let round_start = Instant::now();
        let mut spans = Vec::new();
        for (ci, p) in planned.iter().enumerate() {
            let mut outs = Vec::new();
            for (t, &tool) in TOOLS.iter().enumerate() {
                let plain_first = (rounds + ci + t).is_multiple_of(2);
                let run_plain = || execute(tool, cfg, &p.case, &p.plans[t], None);
                let plain_before = plain_first.then(run_plain);
                let mut probe = Probe::new(*cal);
                let at = round_start.elapsed();
                let o = execute(tool, cfg, &p.case, &p.plans[t], Some(&mut probe));
                let plain = plain_before.unwrap_or_else(run_plain);
                if plain.result.digest() != o.result.digest() || plain.counters != o.counters {
                    out.fail(format!(
                        "{} under {}: traced run differs from untraced",
                        p.case.name,
                        tool.name()
                    ));
                }
                let l = &mut tl[t];
                l.untraced[ci].push(plain.interp.as_secs_f64());
                l.totals[ci].push(plain.total.as_secs_f64());
                let (check_s, alloc_s) = (probe.layer_s(true), probe.layer_s(false));
                l.traced[ci].push(o.interp.as_secs_f64());
                l.check_s += check_s;
                l.alloc_s += alloc_s;
                l.overhead_s += probe.overhead_s();
                l.check_calls += probe.layer_calls(true);
                l.alloc_calls += probe.layer_calls(false);
                l.region_calls +=
                    probe.calls[Op::Region as usize] + probe.calls[Op::Anchored as usize];
                l.region_bytes
                    .extend(probe.region_bytes.iter().map(|&b| b as f64));
                l.counters += &o.counters;
                l.steps += o.result.steps;
                if rounds == 0 {
                    let id = next_id;
                    next_id += 1;
                    let interp_us = o.interp.as_secs_f64() * 1e6;
                    spans.push(Span {
                        id,
                        parent: round_id,
                        name: "program".to_string(),
                        start_us: at.as_secs_f64() * 1e6,
                        dur_us: interp_us,
                        attrs: Json::obj()
                            .field("program", p.case.name.as_str())
                            .field("tool", TOOL_KEYS[t])
                            .field("steps", o.result.steps)
                            .field("check_us", check_s * 1e6)
                            .field("alloc_us", alloc_s * 1e6)
                            .field("self_us", interp_us - (check_s + alloc_s) * 1e6),
                    });
                    for s in &probe.spans {
                        spans.push(Span {
                            id: next_id,
                            parent: id,
                            name: s.op.name().to_string(),
                            start_us: (at + s.start).as_secs_f64() * 1e6,
                            dur_us: s.ns as f64 / 1e3,
                            attrs: Json::obj().field("sampled", true),
                        });
                        next_id += 1;
                    }
                }
                outs.push(plain);
            }
            for b in check_runs(&p.case, &outs) {
                out.fail(b);
            }
            out.attempted += 3;
        }
        if rounds == 0 {
            out.spans.push(Span {
                id: round_id,
                parent: 0,
                name: "round".to_string(),
                start_us: 0.0,
                dur_us: round_start.elapsed().as_secs_f64() * 1e6,
                attrs: Json::obj(),
            });
            out.spans.extend(spans);
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if opts.size == Size::Smoke
            || elapsed + elapsed / rounds as f64 > opts.seconds.as_secs_f64()
        {
            break;
        }
    }

    let n = rounds as f64;
    let mut m = Vec::new();
    let steps = tl[0].steps as f64 / n;
    let untraced_s: Vec<f64> = tl
        .iter()
        .map(|l| ToolLedger::assembled(&l.untraced))
        .collect();
    let traced_s: Vec<f64> = tl
        .iter()
        .map(|l| ToolLedger::assembled(&l.traced))
        .collect();
    let self_s: Vec<f64> = tl
        .iter()
        .zip(&traced_s)
        .map(|(l, tr)| tr - (l.check_s + l.alloc_s + l.overhead_s) / n)
        .collect();
    m.push(Metric::one("ir.steps", "count", steps));
    for (t, key) in TOOL_KEYS.iter().enumerate() {
        m.push(Metric::one(format!("ir.self_s.{key}"), "s", self_s[t]));
    }
    m.push(Metric::one(
        "ir.ns_per_step.native",
        "ns",
        self_s[0] * 1e9 / steps.max(1.0),
    ));
    for (t, key) in TOOL_KEYS.iter().enumerate().skip(1) {
        let l = &tl[t];
        let checks = l.counters.total_checks().max(1) as f64;
        m.push(Metric::one(
            format!("check.calls.{key}"),
            "count",
            l.check_calls as f64 / n,
        ));
        m.push(Metric::one(
            format!("check.region_calls.{key}"),
            "count",
            l.region_calls as f64 / n,
        ));
        m.push(Metric::one(
            format!("check.self_s.{key}"),
            "s",
            l.check_s / n,
        ));
        m.push(Metric::one(
            format!("check.ns_per_call.{key}"),
            "ns",
            l.check_s * 1e9 / l.check_calls.max(1) as f64,
        ));
        m.push(Metric::one(
            format!("check.shadow_loads.{key}"),
            "count",
            l.counters.shadow_loads as f64 / n,
        ));
        m.push(Metric::one(
            format!("check.slow_share.{key}"),
            "ratio",
            l.counters.slow_checks as f64 / checks,
        ));
        if t == 1 {
            m.push(Metric::one(
                "check.cache_hit_share.giantsan",
                "ratio",
                l.counters.cache_hits as f64 / checks,
            ));
        }
        m.push(Metric::one(
            format!("check.region_bytes_p50.{key}"),
            "B",
            percentile(&l.region_bytes, 0.50),
        ));
        m.push(Metric::one(
            format!("check.region_bytes_p90.{key}"),
            "B",
            percentile(&l.region_bytes, 0.90),
        ));
    }
    m.push(Metric::one(
        "alloc.calls",
        "count",
        tl[0].alloc_calls as f64 / n,
    ));
    for (t, key) in TOOL_KEYS.iter().enumerate() {
        let l = &tl[t];
        m.push(Metric::one(
            format!("alloc.self_s.{key}"),
            "s",
            l.alloc_s / n,
        ));
        m.push(Metric::one(
            format!("alloc.ns_per_call.{key}"),
            "ns",
            l.alloc_s * 1e9 / l.alloc_calls.max(1) as f64,
        ));
    }
    for (t, key) in TOOL_KEYS.iter().enumerate().skip(1) {
        m.push(Metric::one(
            format!("alloc.shadow_stores.{key}"),
            "count",
            tl[t].counters.shadow_stores as f64 / n,
        ));
    }
    m.push(Metric::one(
        "alloc.bulk_poison_runs.giantsan",
        "count",
        tl[1].counters.bulk_poison_runs as f64 / n,
    ));
    let per_case: Vec<Vec<f64>> = tl
        .iter()
        .map(|l| l.totals.iter().map(|r| median(r)).collect())
        .collect();
    for (t, key) in TOOL_KEYS.iter().enumerate() {
        m.push(Metric::one(
            format!("sanitizer.{key}_s"),
            "s",
            per_case[t].iter().sum::<f64>(),
        ));
    }
    let ratio = |a: usize, b: usize| {
        let r: Vec<f64> = per_case[a]
            .iter()
            .zip(&per_case[b])
            .map(|(x, y)| x / y.max(1e-12))
            .collect();
        geomean(&r)
    };
    m.push(Metric::one(
        "sanitizer.giantsan_overhead_pct",
        "%",
        (ratio(1, 0) - 1.0) * 100.0,
    ));
    m.push(Metric::one(
        "sanitizer.asan_overhead_pct",
        "%",
        (ratio(2, 0) - 1.0) * 100.0,
    ));
    m.push(Metric::one(
        "sanitizer.giantsan_vs_asan",
        "ratio",
        ratio(1, 2),
    ));
    for (t, key) in TOOL_KEYS.iter().enumerate() {
        let overhead_s = tl[t].overhead_s / n;
        m.push(Metric::one(
            format!("telemetry.trace_overhead_pct.{key}"),
            "%",
            (traced_s[t] - untraced_s[t]) / untraced_s[t] * 100.0,
        ));
        m.push(Metric::one(
            format!("telemetry.sum_residual_pct.{key}"),
            "%",
            (traced_s[t] - overhead_s - untraced_s[t]).abs() / untraced_s[t] * 100.0,
        ));
    }
    m
}

/// The `analysis` layer, from the planning done during set-up.
pub(crate) fn plan_metrics(st: &PlanStats) -> Vec<Metric> {
    let mut m = vec![Metric::one("analysis.plan_s", "s", st.analyze_s)];
    for (pass, ms) in &st.pass_ms {
        m.push(Metric::one(
            format!("analysis.pass_ms.{}", pass.name()),
            "ms",
            *ms,
        ));
    }
    m.push(Metric::one("analysis.sites", "count", st.sites as f64));
    m.push(Metric::one(
        "analysis.sites_eliminated.giantsan",
        "count",
        st.eliminated as f64,
    ));
    m.push(Metric::one(
        "analysis.sites_cached.giantsan",
        "count",
        st.cached as f64,
    ));
    m
}

/// The `batch` layer: one pass of every (program, tool) cell through
/// `BatchRunner::new(2).map`, each cell timed.
fn batch_metrics(planned: &[Planned], cfg: &RuntimeConfig) -> Vec<Metric> {
    let cells: Vec<(usize, usize)> = (0..planned.len())
        .flat_map(|c| (0..TOOLS.len()).map(move |t| (c, t)))
        .collect();
    let runner = BatchRunner::new(2);
    let t = Instant::now();
    let cell_s = runner.map(&cells, |_, &(c, tl)| {
        let p = &planned[c];
        execute(TOOLS[tl], cfg, &p.case, &p.plans[tl], None)
            .total
            .as_secs_f64()
    });
    layers::batch_metrics(&cell_s, runner.threads(), t.elapsed().as_secs_f64())
}
