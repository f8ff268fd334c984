//! The worker pool that turns queued jobs into committed campaign shards.
//!
//! Each worker pops one job at a time off the bounded admission queue and
//! drives it shard-by-shard through [`Campaign::run_shard`] — the PR 7
//! checkpoint path. Between shards the worker polls two conditions:
//!
//! * **Shutdown** — if the server is draining, the job is *parked*: its
//!   current shard finishes and commits, its descriptor goes back to
//!   `queued`, and the worker moves on. A restart re-queues the job and the
//!   resume path skips every committed shard, so graceful shutdown loses no
//!   work and repeats none.
//! * **Deadline** — a job past its deadline transitions to `timed-out` and
//!   stops scheduling further shards. Already-committed shards stay on
//!   disk; the client can resubmit with a longer deadline and resume them.
//!
//! Inside a shard, runaway cells are bounded by the per-cell watchdog
//! ([`BatchRunner::with_cell_deadline`]): they get a quarantined placeholder
//! payload instead of hanging the pool.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use giantsan_telemetry::{FlightEventKind, FlightRecorder};

use crate::batch::BatchRunner;
use crate::campaign::{records_digest, shard_range, Campaign, ShardSpec};
use crate::json::Json;
use crate::serve::admission::BoundedQueue;
use crate::serve::jobs::{JobEntry, JobPhase, JobRegistry};
use crate::serve::metrics::ServiceMetrics;
use crate::study::StudyRegistry;

/// Worker-pool tunables, fixed at server start.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Concurrent jobs (worker threads popping the queue).
    pub workers: usize,
    /// `BatchRunner` threads given to each job.
    pub threads_per_job: usize,
    /// Per-cell watchdog budget.
    pub cell_deadline: Duration,
    /// Job deadline applied when a submission names none.
    pub default_job_deadline: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            threads_per_job: 2,
            cell_deadline: Duration::from_secs(10),
            default_job_deadline: Duration::from_secs(300),
        }
    }
}

/// Everything a worker thread shares with the front-end.
#[derive(Debug)]
pub struct SchedulerShared {
    /// The admission queue.
    pub queue: BoundedQueue<Arc<JobEntry>>,
    /// Service counters and histograms.
    pub metrics: ServiceMetrics,
    /// Study lookup (shared with request validation).
    pub studies: StudyRegistry,
    /// Durable job index.
    pub jobs: JobRegistry,
    /// Set once when draining begins; workers park instead of running.
    pub draining: AtomicBool,
    /// Pool tunables.
    pub config: SchedulerConfig,
    /// Crash flight recorder shared by every worker's batch runners; dumped
    /// into the job directory when cells quarantine or SIGUSR1 arrives.
    pub flight: Arc<FlightRecorder>,
    /// The most recently started job — the directory a SIGUSR1 dump lands
    /// in (the job most likely to be wedged when the operator asks).
    pub active_job: Mutex<Option<Arc<JobEntry>>>,
}

impl SchedulerShared {
    /// `true` while the server should admit new work.
    pub fn accepting(&self) -> bool {
        !self.draining.load(Ordering::SeqCst)
    }
}

/// Writes the flight recorder's retained events into `dir` as a
/// self-contained JSONL + Chrome-trace bundle (`flight.jsonl`,
/// `flight_chrome.json` — the latter loads in Perfetto).
pub fn dump_flight(flight: &FlightRecorder, dir: &Path, process: &str) {
    // Dumps are re-fired (SIGUSR1, watchdog) while readers may already be
    // loading a previous bundle, so each file lands via rename: a reader
    // never observes a truncated-but-unwritten artifact.
    write_atomic(dir, "flight.jsonl", &flight.to_jsonl());
    write_atomic(dir, "flight_chrome.json", &flight.to_chrome(process));
}

/// Writes `dir/name` through `name.tmp` and a rename: atomic on POSIX, so a
/// crash leaves either the old file or the new one, never a torn one.
pub(super) fn write_atomic(dir: &Path, name: &str, contents: &str) {
    let tmp = dir.join(format!("{name}.tmp"));
    if std::fs::write(&tmp, contents).is_ok() {
        let _ = std::fs::rename(&tmp, dir.join(name));
    }
}

/// The running worker pool.
#[derive(Debug)]
pub struct Scheduler {
    shared: Arc<SchedulerShared>,
    handles: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `config.workers` worker threads over `shared`.
    pub fn start(shared: Arc<SchedulerShared>) -> Scheduler {
        let mut handles = Vec::new();
        for w in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker"),
            );
        }
        Scheduler { shared, handles }
    }

    /// Begins the drain: stop admitting, close the queue, let the workers
    /// park their in-flight jobs at the next shard boundary.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
    }

    /// Waits for every worker to exit (drain must have been requested).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &SchedulerShared) {
    while let Some(job) = shared.queue.pop() {
        if shared.draining.load(Ordering::SeqCst) {
            // Draining: everything still queued stays `queued` on disk and
            // is re-queued by the next process; do not start new work.
            job.push_event("parked", Json::obj().field("reason", "drain"));
            continue;
        }
        run_job(shared, &job);
    }
}

/// Runs (or resumes) one job to a terminal or parked state.
pub fn run_job(shared: &SchedulerShared, job: &Arc<JobEntry>) {
    job.update(|st| st.phase = JobPhase::Running);
    job.push_event(
        "started",
        Json::obj().field("shards", job.spec.shards as u64),
    );
    let study = match shared.studies.get(&job.spec.study) {
        Some(s) => s,
        None => return fail(shared, job, format!("study `{}` vanished", job.spec.study)),
    };
    let mut opts = job.spec.opts.clone();
    opts.threads = shared.config.threads_per_job;
    let campaign = match Campaign::new(study, opts) {
        Ok(c) => c,
        Err(e) => return fail(shared, job, e.to_string()),
    };
    let dir = job.campaign_dir();
    // The causal span chain is fully determined by the spec, so it goes to
    // disk *now*: if a cell wedges mid-shard, the post-mortem flight dump
    // already has spans.jsonl to chain back through. A resumed job writes
    // it again while `GET /v1/jobs/:id/spans` may be reading it, hence the
    // rename.
    let spans = campaign.spans(
        [
            &format!("POST /v1/jobs -> {}", job.id),
            "admission queue",
            "worker pool",
            &job.id,
        ],
        job.spec.shards,
    );
    write_atomic(&job.dir, "spans.jsonl", &spans.set.to_jsonl());
    shared.metrics.note_job(&job.id, spans.root);
    *shared.active_job.lock().expect("active job poisoned") = Some(Arc::clone(job));
    let job_seq = job
        .id
        .strip_prefix("job-")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    shared
        .flight
        .record(0, FlightEventKind::JobStart, spans.job, job_seq, 0);
    // Cell and shard lifecycle events land in the flight recorder under
    // spans the batch engine derives exactly as `Campaign::spans` did, so dumps
    // resolve against spans.jsonl.
    let runner = BatchRunner::new(shared.config.threads_per_job)
        .with_cell_deadline(shared.config.cell_deadline)
        .with_flight(Arc::clone(&shared.flight), spans.job, 0);
    let deadline = job
        .spec
        .deadline
        .unwrap_or(shared.config.default_job_deadline);
    let cells = campaign.labels().len();
    let shards = job.spec.shards;
    for shard in 0..shards {
        if shared.draining.load(Ordering::SeqCst) {
            // Park: committed shards are checkpointed; the descriptor goes
            // back to `queued` so the next process resumes right here.
            job.update(|st| st.phase = JobPhase::Queued);
            job.push_event(
                "parked",
                Json::obj()
                    .field("reason", "drain")
                    .field("next_shard", shard as u64),
            );
            return;
        }
        if job.admitted.elapsed() > deadline {
            shared
                .metrics
                .jobs_timed_out
                .fetch_add(1, Ordering::Relaxed);
            shared.metrics.observe_job(job.admitted);
            job.update(|st| {
                st.phase = JobPhase::TimedOut;
                st.error = Some(format!(
                    "deadline of {}ms exceeded after {} of {shards} shard(s)",
                    deadline.as_millis(),
                    shard
                ));
            });
            job.push_event("timed_out", Json::obj().field("after_shards", shard as u64));
            return;
        }
        let spec = ShardSpec {
            index: shard,
            count: shards,
        };
        let len = shard_range(cells, shard, shards).len();
        match campaign.run_shard(&dir, spec, &runner) {
            Ok(ran) => {
                if ran {
                    shared
                        .metrics
                        .shards_committed
                        .fetch_add(1, Ordering::Relaxed);
                }
                shared
                    .metrics
                    .cells_run
                    .fetch_add(len as u64, Ordering::Relaxed);
                job.update(|st| {
                    st.shards_done += 1;
                    st.cells_done += len;
                });
                job.push_event(
                    "shard",
                    Json::obj()
                        .field("shard", shard as u64)
                        .field("cells", len as u64)
                        .field("ran", ran),
                );
            }
            Err(e) => return fail(shared, job, e.to_string()),
        }
    }
    let records = match campaign.load_records(&dir) {
        Ok(r) => r,
        Err(e) => return fail(shared, job, e.to_string()),
    };
    let quarantined = records
        .iter()
        .filter(|r| {
            r.payload
                .get("quarantined")
                .and_then(Json::as_bool)
                .unwrap_or(false)
        })
        .count();
    shared
        .metrics
        .cells_quarantined
        .fetch_add(quarantined as u64, Ordering::Relaxed);
    if quarantined > 0 {
        // Cells wedged or crashed inside this job: preserve the black box
        // alongside the records, before anything overwrites the rings.
        dump_flight(&shared.flight, &job.dir, &job.id);
        job.push_event(
            "flight_dumped",
            Json::obj()
                .field("reason", "quarantine")
                .field("quarantined", quarantined as u64),
        );
    }
    shared
        .flight
        .record(0, FlightEventKind::JobEnd, spans.job, job_seq, 0);
    let digest = records_digest(&records);
    shared
        .metrics
        .jobs_completed
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics.observe_job(job.admitted);
    job.update(|st| {
        st.phase = JobPhase::Completed;
        st.digest = Some(digest);
    });
    job.push_event(
        "completed",
        Json::obj()
            .field("digest", Json::hex(digest))
            .field("cells", records.len() as u64)
            .field("quarantined", quarantined as u64),
    );
}

fn fail(shared: &SchedulerShared, job: &Arc<JobEntry>, error: String) {
    shared.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
    shared.metrics.observe_job(job.admitted);
    job.update(|st| {
        st.phase = JobPhase::Failed;
        st.error = Some(error.clone());
    });
    job.push_event("failed", Json::obj().field("error", error));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::jobs::JobSpec;
    use giantsan_telemetry::SpanKind;
    use std::path::{Path, PathBuf};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "giantsan-sched-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn shared_with_cell_deadline(dir: &Path, cell_deadline: Duration) -> Arc<SchedulerShared> {
        Arc::new(SchedulerShared {
            queue: BoundedQueue::new(16),
            metrics: ServiceMetrics::default(),
            studies: StudyRegistry::builtin(),
            jobs: JobRegistry::open(dir).unwrap(),
            draining: AtomicBool::new(false),
            config: SchedulerConfig {
                workers: 1,
                threads_per_job: 2,
                cell_deadline,
                default_job_deadline: Duration::from_secs(60),
            },
            flight: Arc::new(FlightRecorder::new(
                2,
                giantsan_telemetry::DEFAULT_FLIGHT_CAPACITY,
            )),
            active_job: Mutex::new(None),
        })
    }

    fn shared(dir: &Path) -> Arc<SchedulerShared> {
        shared_with_cell_deadline(dir, Duration::from_secs(10))
    }

    fn echo_spec(shared: &SchedulerShared, body: &str) -> JobSpec {
        JobSpec::from_json(&Json::parse(body).unwrap(), &shared.studies).unwrap()
    }

    #[test]
    fn job_runs_to_completion_with_digest() {
        let dir = tmpdir("complete");
        let sh = shared(&dir);
        let spec = echo_spec(
            &sh,
            r#"{"study":"echo","params":{"scale":4,"rounds":1},"shards":2}"#,
        );
        let job = sh.jobs.create(spec).unwrap();
        run_job(&sh, &job);
        let st = job.status();
        assert_eq!(st.phase, JobPhase::Completed);
        assert!(st.digest.is_some());
        assert_eq!(st.shards_done, 2);
        assert_eq!(st.cells_done, 4);
        assert_eq!(sh.metrics.jobs_completed.load(Ordering::Relaxed), 1);
        assert_eq!(sh.metrics.shards_committed.load(Ordering::Relaxed), 2);
        // Digest matches a monolithic serial run of the same spec.
        let study = sh.studies.get("echo").unwrap();
        let mut opts = job.spec.opts.clone();
        opts.threads = 1;
        let serial = Campaign::new(study, opts)
            .unwrap()
            .run_all(&BatchRunner::serial());
        assert_eq!(st.digest.unwrap(), records_digest(&serial));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_jsonl_is_written_at_start_and_chains_cells_to_the_request() {
        let dir = tmpdir("spans");
        let sh = shared(&dir);
        let spec = echo_spec(
            &sh,
            r#"{"study":"echo","params":{"scale":4,"rounds":1},"shards":2}"#,
        );
        let job = sh.jobs.create(spec).unwrap();
        run_job(&sh, &job);
        assert_eq!(job.status().phase, JobPhase::Completed);
        let text = std::fs::read_to_string(job.dir.join("spans.jsonl")).unwrap();
        let study = sh.studies.get("echo").unwrap();
        let mut opts = job.spec.opts.clone();
        opts.threads = sh.config.threads_per_job;
        let campaign = Campaign::new(study, opts).unwrap();
        assert_eq!(
            campaign.labels(),
            ["echo-0000", "echo-0001", "echo-0002", "echo-0003"]
        );
        let request = format!("POST /v1/jobs -> {}", job.id);
        let spans = campaign.spans([&request, "admission queue", "worker pool", &job.id], 2);
        // The file is exactly the deterministic set: request + admission +
        // scheduler + job + 2 shards + 4 cells = 10 spans.
        assert_eq!(text, spans.set.to_jsonl());
        assert_eq!(text.lines().count(), 10);
        // Every cell span's ancestry walks back to the request root.
        for span in spans.set.spans() {
            if span.kind == SpanKind::Cell {
                let chain = spans.set.ancestry(span.id);
                assert_eq!(*chain.last().unwrap(), spans.root);
            }
        }
        // Completion also registered the job on /metrics exemplars.
        assert_eq!(
            sh.metrics.last_job.lock().unwrap().as_ref().unwrap().0,
            job.id
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_cell_deadline_quarantines_and_dumps_the_flight_recorder() {
        let dir = tmpdir("flight");
        let sh = shared_with_cell_deadline(&dir, Duration::from_millis(0));
        let spec = echo_spec(
            &sh,
            r#"{"study":"echo","params":{"scale":3,"rounds":2},"shards":1}"#,
        );
        let job = sh.jobs.create(spec).unwrap();
        run_job(&sh, &job);
        // Quarantined cells degrade to placeholder records; the job still
        // completes, and the black box lands next to the records.
        let st = job.status();
        assert_eq!(st.phase, JobPhase::Completed);
        assert!(sh.metrics.cells_quarantined.load(Ordering::Relaxed) > 0);
        let flight = std::fs::read_to_string(job.dir.join("flight.jsonl")).unwrap();
        assert!(flight.lines().next().unwrap().contains("\"flight\":\"v1\""));
        assert!(flight.contains("\"ev\":\"timeout\""));
        assert!(flight.contains("\"ev\":\"quarantine\""));
        // The dump carries the shard's slice on the scheduler track.
        let chrome = std::fs::read_to_string(job.dir.join("flight_chrome.json")).unwrap();
        assert_eq!(chrome.matches("\"cat\":\"shard\"").count(), 1);
        // Every cell event's span resolves in spans.jsonl and chains back
        // to a request root — what a post-mortem needs.
        let spans_text = std::fs::read_to_string(job.dir.join("spans.jsonl")).unwrap();
        let mut set = std::collections::HashMap::new();
        for line in spans_text.lines() {
            let span = Json::parse(line).unwrap();
            let hex = |key| span.get(key).and_then(Json::as_hex);
            set.insert(hex("id").unwrap(), hex("parent"));
        }
        let mut checked = 0;
        for line in flight.lines().skip(1) {
            if !line.contains("\"ev\":\"quarantine\"") {
                continue;
            }
            let span = line
                .split("\"span\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
                .unwrap();
            let mut cur = span;
            while let Some(Some(parent)) = set.get(&cur) {
                cur = *parent;
            }
            assert!(set.contains_key(&cur), "span {span:#x} dangles");
            checked += 1;
        }
        assert!(checked > 0, "no quarantine events found in the dump");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_deadline_times_out_before_any_shard() {
        let dir = tmpdir("deadline");
        let sh = shared(&dir);
        let spec = echo_spec(
            &sh,
            r#"{"study":"echo","params":{"scale":2,"rounds":1},"deadline_ms":0}"#,
        );
        let job = sh.jobs.create(spec).unwrap();
        run_job(&sh, &job);
        assert_eq!(job.status().phase, JobPhase::TimedOut);
        assert_eq!(sh.metrics.jobs_timed_out.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_parks_job_and_resume_completes_it() {
        let dir = tmpdir("park");
        let sh = shared(&dir);
        let spec = echo_spec(
            &sh,
            r#"{"study":"echo","params":{"scale":4,"rounds":1},"shards":4}"#,
        );
        let job = sh.jobs.create(spec).unwrap();
        // Drain before the job starts a single shard: it must park, leaving
        // a queued descriptor and an (at most partially) committed campaign.
        sh.draining.store(true, Ordering::SeqCst);
        run_job(&sh, &job);
        assert_eq!(job.status().phase, JobPhase::Queued);
        // "Restart": clear the drain flag and run again — resume completes
        // the remaining shards and the digest matches a serial run.
        sh.draining.store(false, Ordering::SeqCst);
        run_job(&sh, &job);
        let st = job.status();
        assert_eq!(st.phase, JobPhase::Completed);
        let study = sh.studies.get("echo").unwrap();
        let serial = Campaign::new(study, job.spec.opts.clone())
            .unwrap()
            .run_all(&BatchRunner::serial());
        assert_eq!(st.digest.unwrap(), records_digest(&serial));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_pool_drains_queue_on_close() {
        let dir = tmpdir("pool");
        let sh = shared(&dir);
        let spec = echo_spec(&sh, r#"{"study":"echo","params":{"scale":2,"rounds":1}}"#);
        let a = sh.jobs.create(spec.clone()).unwrap();
        let b = sh.jobs.create(spec).unwrap();
        sh.queue.push(Arc::clone(&a)).unwrap();
        sh.queue.push(Arc::clone(&b)).unwrap();
        let sched = Scheduler::start(Arc::clone(&sh));
        let t0 = std::time::Instant::now();
        while (a.status().phase != JobPhase::Completed || b.status().phase != JobPhase::Completed)
            && t0.elapsed() < Duration::from_secs(30)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        sh.queue.close();
        sched.join();
        assert_eq!(a.status().phase, JobPhase::Completed);
        assert_eq!(b.status().phase, JobPhase::Completed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
