//! The `detect` workload: an in-process `repro serve` instance on loopback
//! (2 workers, 1 thread per job, queue capacity 16) driven by 2
//! closed-loop clients through a seeded stream of 4-shard jobs.
//!
//! Seven jobs in eight are `faults` campaigns at fresh seeds, so jobs share
//! no work; one in eight is `table3 --div 32` (Juliet, with ground-truth
//! labels); every 64th is `faults` at the CI seed, whose digest the
//! repository pins. Each job runs hundreds of millisecond-scale programs,
//! so planning, the batch engine, durable shard commits and the HTTP and
//! scheduler path carry the time. The service phase takes three quarters
//! of the measured time, in windows of 16 jobs with the host-speed
//! reference sampled between them; in the last quarter the fuzz corpus
//! those cells run is timed in process under each tool, for the per-tool
//! metrics.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use giantsan_harness::campaign::{records_digest, shard_range, Campaign, ShardSpec};
use giantsan_harness::json::Json;
use giantsan_harness::serve::{ServeConfig, Server};
use giantsan_harness::study::{StudyOpts, StudyRegistry};
use giantsan_harness::BatchRunner;

use crate::reference::{thread_cpu, Reference};
use crate::stats::{median, percentile};
use crate::timed::Calibration;
use crate::{
    layers, median_setup, op_latency, programs, Metric, Opts, Outcome, Rng, Size, Span, Workload,
};

/// Job workers in the server.
const WORKERS: usize = 2;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Admission queue capacity.
const QUEUE_CAP: usize = 16;
/// Shards per job.
const SHARDS: usize = 4;
/// Jobs per window of the service phase.
const WINDOW: usize = 16;
/// Reference samples taken before and after each window.
const REFERENCE_SAMPLES: usize = 3;
/// Jobs re-run serially in-process after the timed phase.
const ORACLE_SAMPLE: usize = 32;
/// The seed CI pins `repro faults` at.
const CI_SEED: &str = "0xg1an75an";

/// One job of the stream.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Position in the stream.
    pub index: usize,
    /// Study name.
    pub study: &'static str,
    /// Study options (`seed` for `faults`, `div` for `table3`).
    pub opts: StudyOpts,
}

impl JobSpec {
    /// The `index`-th job of the stream seeded by `seed`.
    pub fn nth(seed: u64, index: usize) -> JobSpec {
        let block = (index / 8) as u64;
        let table3_slot = Rng::new(seed, 0x7ab3 ^ (block << 8)).below(8) as usize;
        let (study, opts) = if index.is_multiple_of(64) {
            (
                "faults",
                StudyOpts {
                    seed: giantsan_harness::cli::parse_seed(CI_SEED),
                    ..StudyOpts::default()
                },
            )
        } else if index % 8 == table3_slot {
            (
                "table3",
                StudyOpts {
                    div: 32,
                    ..StudyOpts::default()
                },
            )
        } else {
            (
                "faults",
                StudyOpts {
                    seed: Rng::new(seed, 0xfa17 ^ ((index as u64) << 16)).next_u64(),
                    ..StudyOpts::default()
                },
            )
        };
        JobSpec { index, study, opts }
    }

    /// `true` for a `faults` job at the CI seed.
    pub fn is_ci(&self) -> bool {
        self.index.is_multiple_of(64)
    }

    /// The submission body.
    pub fn body(&self) -> String {
        let params = if self.study == "table3" {
            Json::obj().field("div", self.opts.div)
        } else {
            Json::obj().field("seed", format!("{:#x}", self.opts.seed))
        };
        Json::obj()
            .field("study", self.study)
            .field("params", params)
            .field("shards", SHARDS)
            .render_compact()
    }
}

/// One raw HTTP/1.1 exchange (the server closes every connection after
/// one response); `(status, body)`, status 0 on a transport error.
fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return (0, String::new());
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
    if s.write_all(raw.as_bytes()).is_err() {
        return (0, String::new());
    }
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    let status = out
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = out
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"))
}

fn post(addr: SocketAddr, client: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: bench\r\nX-Client: {client}\r\nContent-Length: \
             {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// A started server and its data directory.
struct Service {
    server: Server,
    dir: PathBuf,
}

impl Service {
    fn start(dir: PathBuf) -> std::io::Result<Service> {
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            queue_capacity: QUEUE_CAP,
            workers: WORKERS,
            threads_per_job: 1,
            ..ServeConfig::default()
        })?;
        Ok(Service { server, dir })
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Polls `/readyz` until it answers 200 (`false` after 30 s).
    fn wait_ready(&self) -> bool {
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(30) {
            if get(self.addr(), "/readyz").0 == 200 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// Stops the server, waits for its threads and deletes its data.
    fn shut_down(self) {
        self.server.stop();
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    id: String,
    state: String,
    digest: Option<u64>,
    /// Cells the job ran.
    cells: u64,
    submit_ms: f64,
    latency_ms: f64,
    /// Responses with status 0, 429 or 5xx while serving this job.
    bad_status: Vec<u16>,
}

/// Submits `spec` and polls it to a terminal state.
fn drive_job(addr: SocketAddr, client: &str, spec: JobSpec) -> JobRecord {
    let mut rec = JobRecord {
        spec,
        id: String::new(),
        state: String::new(),
        digest: None,
        cells: 0,
        submit_ms: 0.0,
        latency_ms: 0.0,
        bad_status: Vec::new(),
    };
    let t0 = Instant::now();
    let (status, body) = post(addr, client, &rec.spec.body());
    rec.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    if status != 202 {
        rec.bad_status.push(status);
        rec.state = format!("submit answered {status}: {}", body.trim());
        return rec;
    }
    rec.id = Json::parse(&body)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default();
    loop {
        let (status, body) = get(addr, &format!("/v1/jobs/{}", rec.id));
        if status != 200 {
            rec.bad_status.push(status);
            if status == 0 || status == 404 {
                rec.state = format!("status poll answered {status}");
                return rec;
            }
        }
        let snap = Json::parse(&body).unwrap_or(Json::Null);
        let state = snap.get("state").and_then(Json::as_str).unwrap_or("");
        if matches!(state, "completed" | "failed" | "timed-out") {
            rec.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            rec.state = state.to_string();
            rec.digest = snap.get("digest").and_then(Json::as_hex);
            rec.cells = snap.get("cells_done").and_then(Json::as_u64).unwrap_or(0);
            return rec;
        }
        if t0.elapsed() > Duration::from_secs(60) {
            rec.state = format!("still `{state}` after 60 s");
            return rec;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One window of the service phase.
#[derive(Debug, Clone)]
struct Window {
    /// Stream indices of the window's jobs.
    jobs: Range<usize>,
    /// Wall seconds from the window's first submission to its last
    /// completion.
    wall_s: f64,
    /// The reference's normalising factor around the window.
    scale: f64,
}

/// Runs the closed loop for `budget`, in windows of [`WINDOW`] jobs: each
/// client submits the next job of the window as soon as its previous one
/// completed; once every job of the window has, the reference is sampled
/// while the service is idle, and the next window starts. Jobs in flight
/// when the budget runs out are waited for.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    budget: Duration,
    max_jobs: usize,
    reference: &mut Reference,
) -> (Vec<JobRecord>, Vec<Window>) {
    let records = Mutex::new(Vec::new());
    let mut windows = Vec::new();
    let phase = Instant::now();
    let mut first = 0;
    while first < max_jobs && phase.elapsed() < budget {
        let jobs = first..(first + WINDOW).min(max_jobs);
        let next = AtomicUsize::new(jobs.start);
        for _ in 0..REFERENCE_SAMPLES {
            reference.sample();
        }
        let t = Instant::now();
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (next, records, end) = (&next, &records, jobs.end);
                s.spawn(move || {
                    let client = format!("bench-{c}");
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= end {
                            break;
                        }
                        let rec = drive_job(addr, &client, JobSpec::nth(seed, i));
                        records.lock().expect("client panicked").push(rec);
                    }
                });
            }
        });
        let wall_s = t.elapsed().as_secs_f64();
        for _ in 0..REFERENCE_SAMPLES {
            reference.sample();
        }
        first = jobs.end;
        windows.push(Window {
            jobs,
            wall_s,
            scale: reference.scale(),
        });
    }
    let mut v = records.into_inner().expect("client panicked");
    v.sort_by_key(|r| r.spec.index);
    (v, windows)
}

/// The digest of `spec` run serially in-process.
fn serial_digest(registry: &StudyRegistry, spec: &JobSpec) -> u64 {
    let study = registry
        .get(spec.study)
        .expect("stream studies are registered");
    let records = Campaign::new(study, spec.opts.clone())
        .expect("stream specs are valid")
        .run_all(&BatchRunner::serial());
    records_digest(&records)
}

/// The `N` after `prefix` in a rendered report line.
fn report_number(report: &str, prefix: &str) -> Option<u64> {
    report.lines().find_map(|l| {
        let rest = l.trim().strip_prefix(prefix)?.trim();
        let tok = rest.split_whitespace().next()?;
        match tok.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => tok.parse().ok(),
        }
    })
}

/// Applies every job oracle: the job completed without a 429, 5xx or
/// transport error; a CI-seed `faults` job reproduces the pinned digest; a
/// `table3` job reports no false positive; and a seeded sample of jobs
/// matches a serial in-process run of the same spec.
fn check_jobs(
    addr: SocketAddr,
    records: &[JobRecord],
    opts: &Opts,
    sample: usize,
    out: &mut Outcome,
) {
    let registry = StudyRegistry::builtin();
    let mut bad: Vec<Option<String>> = vec![None; records.len()];
    for (i, r) in records.iter().enumerate() {
        if r.state != "completed" {
            bad[i] = Some(format!(
                "job {} ({}): {}",
                r.spec.index, r.spec.study, r.state
            ));
        } else if !r.bad_status.is_empty() {
            bad[i] = Some(format!(
                "job {}: responses {:?}",
                r.spec.index, r.bad_status
            ));
        } else if r.spec.is_ci() || r.spec.study == "table3" {
            let (status, report) = get(addr, &format!("/v1/jobs/{}/report", r.id));
            if status != 200 {
                bad[i] = Some(format!("job {}: report answered {status}", r.spec.index));
            } else if r.spec.is_ci() {
                let d = report_number(&report, "summary digest:");
                if d != Some(opts.faults_golden) {
                    bad[i] = Some(format!(
                        "job {}: CI-seed faults digest {d:#x?}, golden {:#x}",
                        r.spec.index, opts.faults_golden
                    ));
                }
            } else {
                let fp = report_number(&report, "False positives on non-buggy twins:");
                if fp != Some(0) {
                    bad[i] = Some(format!(
                        "job {}: Juliet false positives {fp:?}",
                        r.spec.index
                    ));
                }
            }
        }
    }
    let mut picks: Vec<usize> = (0..records.len()).filter(|&i| bad[i].is_none()).collect();
    Rng::new(opts.seed, 0x0ac1e).shuffle(&mut picks);
    let mut cache: Vec<(JobSpec, u64)> = Vec::new();
    for &i in picks.iter().take(sample) {
        let r = &records[i];
        let key = |s: &JobSpec| (s.study, s.opts.params());
        let expected = match cache.iter().find(|(s, _)| key(s) == key(&r.spec)) {
            Some(&(_, d)) => d,
            None => {
                let d = serial_digest(&registry, &r.spec);
                cache.push((r.spec.clone(), d));
                d
            }
        };
        if r.digest != Some(expected) {
            bad[i] = Some(format!(
                "job {}: served digest {:#x?} differs from serial {expected:#x}",
                r.spec.index, r.digest
            ));
        }
    }
    out.attempted += records.len() as u64;
    for b in bad.into_iter().flatten() {
        out.fail(b);
    }
}

/// Set-up, repeated by [`median_setup`]: generating and planning the fuzz
/// corpus the per-tool passes run, then a cold server start (binding the
/// listener, opening and recovering the job registry, starting the
/// scheduler and acceptor threads). Returns the median planning seconds
/// (thread CPU time, normalised) and the last repetition's plans with their
/// planning cost; the server starts' CPU milliseconds go to `out.extra` as
/// `server_start_ms`.
///
/// The start is a reading row, not part of `setup_s`: it is mostly thread
/// creation and file-system calls, kernel work whose CPU cost on a shared
/// host follows the other tenants' load. Within a few minutes the median
/// start of one process took 0.4 ms and of another 2 ms, while the
/// reference did not move. Each start must answer `/readyz` with 200
/// before the server stops.
fn setup(
    dir: &Path,
    opts: &Opts,
    reference: &mut Reference,
    out: &mut Outcome,
) -> (f64, (Vec<programs::Planned>, programs::PlanStats)) {
    let mut r = 0;
    let mut last = None;
    let mut start_ms = Vec::new();
    let setup_s = median_setup(opts.size, reference, || {
        r += 1;
        let t = thread_cpu();
        let planned = programs::plan_all(programs::cases(Workload::Detect, opts.size, opts.seed));
        let s = (thread_cpu() - t).as_secs_f64();
        let t = thread_cpu();
        let started = Service::start(dir.join(format!("setup-{r}")));
        start_ms.push((thread_cpu() - t).as_secs_f64() * 1e3);
        last = Some(planned);
        match started {
            Ok(svc) => {
                let ready = svc.wait_ready().then_some(s);
                if ready.is_none() {
                    out.fail("server never became ready".to_string());
                }
                svc.shut_down();
                ready
            }
            Err(e) => {
                out.fail(format!("server failed to start: {e}"));
                None
            }
        }
    });
    out.extra
        .push(Metric::of("server_start_ms", "ms", &start_ms));
    (setup_s, last.expect("at least one set-up repetition"))
}

/// Runs the `detect` workload.
pub(crate) fn run(opts: &Opts) -> Outcome {
    let run_start = Instant::now();
    let smoke = opts.size == Size::Smoke;
    let dir = opts.out_dir.join(format!("detect-{}", std::process::id()));
    let mut out = Outcome::default();
    let mut reference = Reference::new();
    let (setup_s, (planned, plan_stats)) = setup(&dir, opts, &mut reference, &mut out);
    let svc = match Service::start(dir.join("serve")) {
        Ok(s) if s.wait_ready() => s,
        Ok(s) => {
            s.shut_down();
            out.fail("server never became ready".to_string());
            return out;
        }
        Err(e) => {
            out.fail(format!("server failed to start: {e}"));
            return out;
        }
    };
    let max_jobs = if smoke { 6 } else { usize::MAX };
    let sample = if smoke { 2 } else { ORACLE_SAMPLE };
    if opts.trace {
        let budget = opts.seconds / 3;
        let (records, _) = closed_loop(svc.addr(), opts.seed, budget, max_jobs, &mut reference);
        check_jobs(svc.addr(), &records, opts, sample, &mut out);
        svc.shut_down();
        traced(
            opts,
            &records,
            &planned,
            &plan_stats,
            &dir,
            run_start,
            &mut out,
        );
    } else {
        let (records, windows) = closed_loop(
            svc.addr(),
            opts.seed,
            opts.seconds * 3 / 4,
            max_jobs,
            &mut reference,
        );
        check_jobs(svc.addr(), &records, opts, sample, &mut out);
        svc.shut_down();
        // The per-tool passes time, in process, the fuzz corpus the
        // `faults` cells run.
        let rounds = programs::closed_loop(
            &planned,
            &programs::config(Workload::Detect),
            opts.seconds / 4,
            opts.size,
            &mut reference,
            &mut out,
        );
        out.metrics = rounds.tool_metrics(&mut out.extra);
        out.metrics
            .extend(end_to_end(&records, &windows, &mut out.extra));
        out.metrics.push(Metric::one("setup_s", "s", setup_s));
        out.metrics.push(Metric::one(
            "peak_rss_mb",
            "MiB",
            crate::host::peak_rss_mb(),
        ));
        out.extra.push(reference.metric());
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// `cases_per_s` is the cells the service completed per normalised second
/// in each window; `op_*` are submit-to-completed job latencies, each
/// normalised by its window's factor.
fn end_to_end(records: &[JobRecord], windows: &[Window], extra: &mut Vec<Metric>) -> Vec<Metric> {
    let mut rate = Vec::new();
    let mut lat = Vec::new();
    for w in windows {
        let done = records
            .iter()
            .filter(|r| w.jobs.contains(&r.spec.index) && r.state == "completed");
        let mut cells = 0;
        for r in done {
            cells += r.cells;
            lat.push(r.latency_ms * w.scale);
        }
        rate.push(cells as f64 / (w.wall_s * w.scale).max(1e-9));
    }
    extra.push(Metric::one("jobs", "count", lat.len() as f64));
    vec![
        Metric::of("cases_per_s", "cases/s", &rate),
        op_latency(&lat, extra),
    ]
}

/// The traced `detect` run: a shorter closed loop already ran; replay a
/// seeded sample of its jobs in-process to time the campaign and batch
/// layers, then time the program layers on the fuzz corpus the `faults`
/// jobs run, for what is left of `opts.seconds` since `run_start`.
fn traced(
    opts: &Opts,
    records: &[JobRecord],
    planned: &[programs::Planned],
    plan_stats: &programs::PlanStats,
    dir: &Path,
    run_start: Instant,
    out: &mut Outcome,
) {
    let registry = StudyRegistry::builtin();
    let completed: Vec<&JobRecord> = records.iter().filter(|r| r.state == "completed").collect();
    let mut picks: Vec<usize> = (0..completed.len()).collect();
    Rng::new(opts.seed, 0x5eed).shuffle(&mut picks);
    picks.truncate(if opts.size == Size::Smoke { 2 } else { 8 });
    picks.sort_unstable();

    let mut next_id = 1u64;
    let mut commit_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut bytes = 0u64;
    let mut cells: Vec<(usize, usize, u64)> = Vec::new();
    for (j, &pi) in picks.iter().enumerate() {
        let r = completed[pi];
        let study = registry.get(r.spec.study).expect("registered study");
        let campaign = Campaign::new(study, r.spec.opts.clone()).expect("valid spec");
        let cdir = dir.join(format!("replay-{j}"));
        let _ = std::fs::remove_dir_all(&cdir);
        let job_id = next_id;
        next_id += 1;
        out.spans.push(Span {
            id: job_id,
            parent: 0,
            name: "job".to_string(),
            start_us: 0.0,
            dur_us: r.latency_ms * 1e3,
            attrs: Json::obj()
                .field("job", r.id.as_str())
                .field("study", r.spec.study)
                .field("seed", format!("{:#x}", r.spec.opts.seed)),
        });
        let mut direct_ms = 0.0;
        let mut at_us = 0.0;
        let n_cells = campaign.labels().len();
        for shard in 0..SHARDS {
            let spec = ShardSpec {
                index: shard,
                count: SHARDS,
            };
            let range = shard_range(n_cells, shard, SHARDS);
            let t = Instant::now();
            if let Err(e) = campaign.run_shard(&cdir, spec, &BatchRunner::serial()) {
                out.fail(format!("replay of job {}: {e}", r.spec.index));
            }
            let shard_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let _ = study.run_range(&r.spec.opts, range.clone(), &BatchRunner::serial());
            let mem_ms = t.elapsed().as_secs_f64() * 1e3;
            commit_ms.push(shard_ms - mem_ms);
            direct_ms += shard_ms;
            let shard_id = next_id;
            next_id += 1;
            out.spans.push(Span {
                id: shard_id,
                parent: job_id,
                name: "shard".to_string(),
                start_us: at_us,
                dur_us: shard_ms * 1e3,
                attrs: Json::obj()
                    .field("shard", shard)
                    .field("cells", range.len())
                    .field("commit_ms", shard_ms - mem_ms),
            });
            at_us += shard_ms * 1e3;
            cells.extend(range.map(|i| (j, i, shard_id)));
        }
        overhead_ms.push(r.latency_ms - direct_ms);
        bytes += dir_bytes(&cdir);
        let _ = std::fs::remove_dir_all(&cdir);
    }

    // The batch layer: every cell of the sampled jobs through one map.
    let runner = BatchRunner::new(2);
    let origin = Instant::now();
    let timed = runner.map(&cells, |_, &(j, i, _)| {
        let r = completed[picks[j]];
        let study = registry.get(r.spec.study).expect("registered study");
        let t = Instant::now();
        let _ = study.run_cell(&r.spec.opts, i);
        ((t - origin).as_secs_f64(), t.elapsed().as_secs_f64())
    });
    let wall = origin.elapsed().as_secs_f64();
    let mut per_shard: Vec<(u64, usize)> = Vec::new();
    for (&(_, i, shard_id), &(at, dur)) in cells.iter().zip(&timed) {
        let seen = match per_shard.iter_mut().find(|(s, _)| *s == shard_id) {
            Some(e) => {
                e.1 += 1;
                e.1
            }
            None => {
                per_shard.push((shard_id, 1));
                1
            }
        };
        if seen <= 16 {
            out.spans.push(Span {
                id: next_id,
                parent: shard_id,
                name: "cell".to_string(),
                start_us: at * 1e6,
                dur_us: dur * 1e6,
                attrs: Json::obj().field("cell", i).field("replay", "batch"),
            });
            next_id += 1;
        }
    }
    let cell_s: Vec<f64> = timed.iter().map(|&(_, d)| d).collect();

    // The program layers, on the corpus the fault-injection cells run.
    let remaining = opts.seconds.saturating_sub(run_start.elapsed());
    let ledger_opts = Opts {
        seconds: remaining.max(Duration::from_millis(100)),
        ..opts.clone()
    };
    let cal = Calibration::measure();
    let mut ledger_out = Outcome::default();
    let mut m = programs::ledger(
        planned,
        &programs::config(Workload::Detect),
        &ledger_opts,
        &cal,
        &mut ledger_out,
    );
    // The corpus includes programs with injected bugs: a report there is
    // the expected outcome, so only the traced/untraced agreement and the
    // clean programs' oracles count.
    out.attempted += ledger_out.attempted;
    for f in ledger_out.failures {
        out.fail(f);
    }
    let offset = next_id;
    out.spans.extend(ledger_out.spans.into_iter().map(|mut s| {
        s.id += offset;
        if s.parent != 0 {
            s.parent += offset;
        }
        s
    }));
    m.extend(programs::plan_metrics(plan_stats));
    m.extend(layers::batch_metrics(&cell_s, runner.threads(), wall));
    m.extend(layers::shadow_metrics());
    out.metrics = m;

    let submit: Vec<f64> = records.iter().map(|r| r.submit_ms).collect();
    let shed = records
        .iter()
        .flat_map(|r| &r.bad_status)
        .filter(|&&s| s == 429)
        .count();
    out.extra = vec![
        Metric::one("campaign.shard_commit_ms_p50", "ms", median(&commit_ms)),
        Metric::one("campaign.bytes_written", "B", bytes as f64),
        Metric::one("serve.submit_ms_p50", "ms", percentile(&submit, 0.50)),
        Metric::one("serve.submit_ms_p95", "ms", percentile(&submit, 0.95)),
        Metric::one("serve.overhead_ms_p50", "ms", median(&overhead_ms)),
        Metric::one("serve.shed_429", "count", shed as f64),
    ];
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
