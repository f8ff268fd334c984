//! Job specs, job state, and the on-disk job registry.
//!
//! A *job* is one campaign submission: a study name plus [`StudyOpts`],
//! a shard count, and optional deadlines. Jobs are durable — every job owns
//! a directory under `<data>/jobs/<id>/` holding a `job.json` descriptor
//! and a `campaign/` checkpoint directory written through the PR 7
//! campaign path (header + manifest + digest-checked blobs). A server that
//! dies mid-job therefore leaves resumable state: on restart the registry
//! rescans the tree, re-queues every non-terminal job, and the scheduler's
//! `Campaign::resume` skips the shards whose manifest lines were already
//! committed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::study::{StudyOpts, StudyRegistry};

/// Upper bound on `shards` in a submission — shards beyond the cell count
/// only add manifest lines, and an attacker-controlled huge value would
/// turn one job into millions of empty checkpoint files.
pub const MAX_SHARDS: usize = 256;

/// One validated submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Registry name of the study to run.
    pub study: String,
    /// The bound options (threads come from the server, not clients).
    pub opts: StudyOpts,
    /// How many checkpoint shards to split the matrix into.
    pub shards: usize,
    /// Whole-job deadline; `None` means the server default applies.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// Parses and validates a submission body against the study registry.
    ///
    /// Unknown studies, unknown fields, and out-of-range values are all
    /// rejected here, before admission — a queued job is always runnable.
    pub fn from_json(body: &Json, registry: &StudyRegistry) -> Result<JobSpec, String> {
        let study = body
            .get("study")
            .and_then(Json::as_str)
            .ok_or("missing required string field `study`")?
            .to_string();
        if registry.get(&study).is_none() {
            return Err(format!(
                "unknown study `{study}` (available: {})",
                registry.names().join(", ")
            ));
        }
        let mut opts = StudyOpts::default();
        if let Some(params) = body.get("params") {
            let pairs = match params {
                Json::Object(fields) => fields
                    .iter()
                    .map(|(k, v)| {
                        let rendered = match v {
                            Json::Str(s) => s.clone(),
                            other => other.render_compact(),
                        };
                        (k.clone(), rendered)
                    })
                    .collect::<Vec<_>>(),
                _ => return Err("`params` must be an object".to_string()),
            };
            opts = StudyOpts::from_params(&pairs)?;
        }
        if opts.scale == 0 || opts.scale > 65_536 {
            return Err(format!("scale {} out of range [1, 65536]", opts.scale));
        }
        let shards = match body.get("shards") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or("`shards` must be a number")?
                .try_into()
                .map_err(|_| "`shards` out of range")?,
        };
        if shards == 0 || shards > MAX_SHARDS {
            return Err(format!("shards {shards} out of range [1, {MAX_SHARDS}]"));
        }
        let deadline = match body.get("deadline_ms") {
            None => None,
            Some(v) => Some(Duration::from_millis(
                v.as_u64().ok_or("`deadline_ms` must be a number")?,
            )),
        };
        for (key, _) in match body {
            Json::Object(fields) => fields.iter(),
            _ => return Err("job spec must be a JSON object".to_string()),
        } {
            if !matches!(key.as_str(), "study" | "params" | "shards" | "deadline_ms") {
                return Err(format!("unknown field `{key}` in job spec"));
            }
        }
        Ok(JobSpec {
            study,
            opts,
            shards,
            deadline,
        })
    }

    fn to_json(&self) -> Json {
        let params = self
            .opts
            .params()
            .into_iter()
            .fold(Json::obj(), |o, (k, v)| o.field(k, v));
        let mut j = Json::obj()
            .field("study", self.study.as_str())
            .field("params", params)
            .field("shards", self.shards as u64);
        if let Some(d) = self.deadline {
            j = j.field("deadline_ms", d.as_millis() as u64);
        }
        j
    }

    fn from_descriptor(body: &Json) -> Result<JobSpec, String> {
        let study = body
            .get("study")
            .and_then(Json::as_str)
            .ok_or("descriptor missing `study`")?
            .to_string();
        let mut pairs = Vec::new();
        if let Some(Json::Object(fields)) = body.get("params") {
            for (k, v) in fields {
                let rendered = match v {
                    Json::Str(s) => s.clone(),
                    other => other.render_compact(),
                };
                pairs.push((k.clone(), rendered));
            }
        }
        let opts = StudyOpts::from_params(&pairs)?;
        let shards = body
            .get("shards")
            .and_then(Json::as_u64)
            .ok_or("descriptor missing `shards`")? as usize;
        let deadline = body
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis);
        Ok(JobSpec {
            study,
            opts,
            shards,
            deadline,
        })
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing shards.
    Running,
    /// Every shard committed; digest available.
    Completed,
    /// Terminal failure (spec drift, quarantined shards, panicked cells).
    Failed,
    /// Cancelled by the per-job deadline.
    TimedOut,
}

impl JobPhase {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Failed => "failed",
            JobPhase::TimedOut => "timed-out",
        }
    }

    fn parse(s: &str) -> Option<JobPhase> {
        Some(match s {
            "queued" => JobPhase::Queued,
            "running" => JobPhase::Running,
            "completed" => JobPhase::Completed,
            "failed" => JobPhase::Failed,
            "timed-out" => JobPhase::TimedOut,
            _ => return None,
        })
    }

    /// `true` for states a job never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Completed | JobPhase::Failed | JobPhase::TimedOut
        )
    }
}

/// Mutable job progress, updated by the scheduler under the entry's lock.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Shards committed so far.
    pub shards_done: usize,
    /// Cells contained in the committed shards.
    pub cells_done: usize,
    /// FNV digest over the merged records, once completed.
    pub digest: Option<u64>,
    /// Human-readable failure cause, for `Failed`/`TimedOut`.
    pub error: Option<String>,
}

/// One job: immutable spec plus lock-guarded status and event log.
#[derive(Debug)]
pub struct JobEntry {
    /// Server-assigned identifier (`job-NNNNNN`).
    pub id: String,
    /// The validated submission.
    pub spec: JobSpec,
    /// This job's directory (`<data>/jobs/<id>`).
    pub dir: PathBuf,
    /// Admission instant, for the job-latency histogram.
    pub admitted: Instant,
    status: Mutex<JobStatus>,
    /// Compact-JSON event lines, appended in order; served as JSONL.
    events: Mutex<Vec<String>>,
}

impl JobEntry {
    /// The campaign checkpoint directory inside the job directory.
    pub fn campaign_dir(&self) -> PathBuf {
        self.dir.join("campaign")
    }

    /// Clones the current status.
    pub fn status(&self) -> JobStatus {
        self.status.lock().expect("job poisoned").clone()
    }

    /// Applies `f` to the status under the lock and persists the
    /// descriptor afterwards so a crash never loses a terminal state.
    pub fn update<F: FnOnce(&mut JobStatus)>(&self, f: F) {
        {
            let mut st = self.status.lock().expect("job poisoned");
            f(&mut st);
        }
        self.persist();
    }

    /// Appends an event line (an object; `kind` names the event).
    pub fn push_event(&self, kind: &str, fields: Json) {
        let line = match fields {
            Json::Object(mut obj) => {
                obj.insert(0, ("event".to_string(), Json::Str(kind.to_string())));
                Json::Object(obj).render_compact()
            }
            other => Json::obj()
                .field("event", kind)
                .field("detail", other)
                .render_compact(),
        };
        self.events.lock().expect("job poisoned").push(line);
    }

    /// The event log as newline-delimited JSON.
    pub fn events_jsonl(&self) -> String {
        let events = self.events.lock().expect("job poisoned");
        let mut out = String::new();
        for e in events.iter() {
            out.push_str(e);
            out.push('\n');
        }
        out
    }

    /// The job's status document (`GET /v1/jobs/:id`).
    pub fn snapshot(&self) -> Json {
        let st = self.status();
        let mut j = Json::obj()
            .field("id", self.id.as_str())
            .field("state", st.phase.name())
            .field("spec", self.spec.to_json())
            .field("shards_done", st.shards_done as u64)
            .field("cells_done", st.cells_done as u64);
        if let Some(d) = st.digest {
            j = j.field("digest", Json::hex(d));
        }
        if let Some(e) = st.error {
            j = j.field("error", e);
        }
        j
    }

    fn persist(&self) {
        let st = self.status.lock().expect("job poisoned");
        let mut j = Json::obj()
            .field("id", self.id.as_str())
            .field("state", st.phase.name());
        if let Some(d) = st.digest {
            j = j.field("digest", Json::hex(d));
        }
        if let Some(e) = &st.error {
            j = j.field("error", e.as_str());
        }
        // Splice the spec fields in at the top level so the descriptor is
        // itself a valid resubmission body (minus `id`/`state`/`digest`).
        let spec = self.spec.to_json();
        if let (Json::Object(target), Json::Object(fields)) = (&mut j, spec) {
            target.extend(fields);
        }
        drop(st);
        let text = j.render();
        let tmp = self.dir.join("job.json.tmp");
        let fin = self.dir.join("job.json");
        // Atomic on POSIX: a crash leaves either the old or the new
        // descriptor, never a torn one.
        if std::fs::write(&tmp, &text).is_ok() {
            let _ = std::fs::rename(&tmp, &fin);
        }
    }
}

/// The in-memory index of jobs plus their durable on-disk tree.
#[derive(Debug)]
pub struct JobRegistry {
    data_dir: PathBuf,
    next_seq: AtomicU64,
    jobs: Mutex<BTreeMap<String, Arc<JobEntry>>>,
}

impl JobRegistry {
    /// Opens (creating if needed) the registry rooted at `data_dir`.
    pub fn open(data_dir: &Path) -> std::io::Result<JobRegistry> {
        std::fs::create_dir_all(data_dir.join("jobs"))?;
        Ok(JobRegistry {
            data_dir: data_dir.to_path_buf(),
            next_seq: AtomicU64::new(1),
            jobs: Mutex::new(BTreeMap::new()),
        })
    }

    /// The registry's root directory.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Creates a new durable job from `spec`.
    pub fn create(&self, spec: JobSpec) -> std::io::Result<Arc<JobEntry>> {
        // Sequence numbers skip past any dirs already on disk so restart
        // never reuses an id.
        loop {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            let id = format!("job-{seq:06}");
            let dir = self.data_dir.join("jobs").join(&id);
            match std::fs::create_dir(&dir) {
                Ok(()) => {
                    let entry = Arc::new(JobEntry {
                        id: id.clone(),
                        spec,
                        dir,
                        admitted: Instant::now(),
                        status: Mutex::new(JobStatus {
                            phase: JobPhase::Queued,
                            shards_done: 0,
                            cells_done: 0,
                            digest: None,
                            error: None,
                        }),
                        events: Mutex::new(Vec::new()),
                    });
                    entry.persist();
                    entry.push_event("admitted", Json::obj().field("id", id.as_str()));
                    self.jobs
                        .lock()
                        .expect("registry poisoned")
                        .insert(id, Arc::clone(&entry));
                    return Ok(entry);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<JobEntry>> {
        self.jobs
            .lock()
            .expect("registry poisoned")
            .get(id)
            .cloned()
    }

    /// Every job, in id order.
    pub fn list(&self) -> Vec<Arc<JobEntry>> {
        self.jobs
            .lock()
            .expect("registry poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Scans the on-disk tree for jobs left by a previous process.
    ///
    /// Terminal jobs are re-indexed (their reports stay queryable);
    /// non-terminal jobs — queued or mid-run when the old process died —
    /// are returned so the caller can re-queue them. Their campaign
    /// directories still hold every committed shard, so the re-run resumes
    /// instead of restarting. Descriptors that fail to parse are skipped
    /// with a note on stderr; a corrupt job must not prevent startup.
    pub fn recover(&self, registry: &StudyRegistry) -> Vec<Arc<JobEntry>> {
        let jobs_root = self.data_dir.join("jobs");
        let mut dirs: Vec<PathBuf> = match std::fs::read_dir(&jobs_root) {
            Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
            Err(_) => return Vec::new(),
        };
        dirs.sort();
        let mut requeue = Vec::new();
        let mut max_seq = 0u64;
        for dir in dirs {
            let id = match dir.file_name().and_then(|n| n.to_str()) {
                Some(n) => n.to_string(),
                None => continue,
            };
            if let Some(seq) = id.strip_prefix("job-").and_then(|s| s.parse::<u64>().ok()) {
                max_seq = max_seq.max(seq);
            }
            let text = match std::fs::read_to_string(dir.join("job.json")) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("repro serve: skipping {id}: unreadable job.json: {e}");
                    continue;
                }
            };
            let parsed = Json::parse(&text).map_err(|e| e.to_string()).and_then(|j| {
                let spec = JobSpec::from_descriptor(&j)?;
                let phase = j
                    .get("state")
                    .and_then(Json::as_str)
                    .and_then(JobPhase::parse)
                    .ok_or("descriptor missing `state`")?;
                Ok((spec, phase, j.get("digest").and_then(Json::as_hex)))
            });
            let (spec, phase, digest) = match parsed {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("repro serve: skipping {id}: {e}");
                    continue;
                }
            };
            if registry.get(&spec.study).is_none() {
                eprintln!(
                    "repro serve: skipping {id}: study `{}` not in this binary",
                    spec.study
                );
                continue;
            }
            let entry = Arc::new(JobEntry {
                id: id.clone(),
                spec,
                dir,
                admitted: Instant::now(),
                status: Mutex::new(JobStatus {
                    // A job that was mid-run goes back to the queue.
                    phase: if phase.is_terminal() {
                        phase
                    } else {
                        JobPhase::Queued
                    },
                    shards_done: 0,
                    cells_done: 0,
                    digest,
                    error: None,
                }),
                events: Mutex::new(Vec::new()),
            });
            if !phase.is_terminal() {
                entry.push_event("recovered", Json::obj().field("id", id.as_str()));
                requeue.push(Arc::clone(&entry));
            }
            self.jobs
                .lock()
                .expect("registry poisoned")
                .insert(id, entry);
        }
        self.next_seq.store(max_seq + 1, Ordering::Relaxed);
        requeue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "giantsan-jobs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spec_parses_and_rejects_unknowns() {
        let reg = StudyRegistry::builtin();
        let good = Json::parse(
            r#"{"study":"echo","params":{"scale":4,"seed":"0x7"},"shards":2,"deadline_ms":5000}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&good, &reg).unwrap();
        assert_eq!(spec.study, "echo");
        assert_eq!(spec.opts.scale, 4);
        assert_eq!(spec.opts.seed, 7);
        assert_eq!(spec.shards, 2);
        assert_eq!(spec.deadline, Some(Duration::from_millis(5000)));

        let bad_study = Json::parse(r#"{"study":"nope"}"#).unwrap();
        assert!(JobSpec::from_json(&bad_study, &reg).is_err());
        let bad_field = Json::parse(r#"{"study":"echo","frobnicate":1}"#).unwrap();
        assert!(JobSpec::from_json(&bad_field, &reg).is_err());
        let bad_shards = Json::parse(r#"{"study":"echo","shards":100000}"#).unwrap();
        assert!(JobSpec::from_json(&bad_shards, &reg).is_err());
    }

    #[test]
    fn registry_persists_and_recovers_nonterminal_jobs() {
        let reg = StudyRegistry::builtin();
        let dir = tmpdir("recover");
        let jobs = JobRegistry::open(&dir).unwrap();
        let spec = JobSpec::from_json(
            &Json::parse(r#"{"study":"echo","shards":2}"#).unwrap(),
            &reg,
        )
        .unwrap();
        let a = jobs.create(spec.clone()).unwrap();
        let b = jobs.create(spec).unwrap();
        assert_eq!(a.id, "job-000001");
        assert_eq!(b.id, "job-000002");
        a.update(|st| {
            st.phase = JobPhase::Completed;
            st.digest = Some(0xdead_beef);
        });
        b.update(|st| st.phase = JobPhase::Running);

        // A fresh registry (new process) recovers: terminal job indexed,
        // running job re-queued, ids never reused.
        let jobs2 = JobRegistry::open(&dir).unwrap();
        let requeue = jobs2.recover(&reg);
        assert_eq!(requeue.len(), 1);
        assert_eq!(requeue[0].id, "job-000002");
        assert_eq!(requeue[0].status().phase, JobPhase::Queued);
        let done = jobs2.get("job-000001").unwrap();
        assert_eq!(done.status().phase, JobPhase::Completed);
        assert_eq!(done.status().digest, Some(0xdead_beef));
        let c = jobs2
            .create(JobSpec::from_json(&Json::parse(r#"{"study":"echo"}"#).unwrap(), &reg).unwrap())
            .unwrap();
        assert_eq!(c.id, "job-000003");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_render_as_jsonl() {
        let reg = StudyRegistry::builtin();
        let dir = tmpdir("events");
        let jobs = JobRegistry::open(&dir).unwrap();
        let spec = JobSpec::from_json(&Json::parse(r#"{"study":"echo"}"#).unwrap(), &reg).unwrap();
        let j = jobs.create(spec).unwrap();
        j.push_event("shard", Json::obj().field("shard", 0u64));
        let jsonl = j.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"admitted\""));
        assert!(lines[1].contains("\"event\":\"shard\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
