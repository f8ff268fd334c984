//! Request routing: URL space, admission decisions, response bodies.
//!
//! The router is deliberately a pure function from (request, client id,
//! shared state) to a [`Response`] — no sockets — so the whole URL space is
//! unit-testable without binding a port. The accept loop in `serve::mod`
//! owns the transport concerns (timeouts, response writing, metrics for
//! status classes).
//!
//! URL space:
//!
//! | Method & path | Purpose |
//! |---|---|
//! | `POST /v1/jobs` | submit a job (rate limit → queue → `202` with id) |
//! | `GET /v1/jobs` | list all jobs |
//! | `GET /v1/jobs/{id}` | one job's status document |
//! | `GET /v1/jobs/{id}/events` | the job's event log as JSON Lines |
//! | `GET /v1/jobs/{id}/spans` | the job's causal span chain as JSON Lines |
//! | `GET /v1/jobs/{id}/report` | rendered study report (`?format=json`) |
//! | `GET /v1/studies` | the study registry |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /healthz` | liveness (always `200` while the process serves) |
//! | `GET /readyz` | readiness (`503` once draining) |
//! | `POST /admin/drain` | begin graceful shutdown |

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::json::Json;
use crate::serve::admission::{QueueRefusal, RateDecision, RateLimiter};
use crate::serve::http::{Request, Response};
use crate::serve::jobs::{JobPhase, JobSpec};
use crate::serve::scheduler::SchedulerShared;

/// The router: shared scheduler state plus the front-end rate limiter.
#[derive(Debug)]
pub struct Router {
    shared: Arc<SchedulerShared>,
    limiter: RateLimiter,
}

impl Router {
    /// A router over `shared`, shedding clients past `rate`/`burst`
    /// submissions per second (`rate == 0` disables rate limiting).
    pub fn new(shared: Arc<SchedulerShared>, rate: u32, burst: u32) -> Router {
        Router {
            shared,
            limiter: RateLimiter::new(rate, burst),
        }
    }

    /// The shared state (for the accept loop's metrics/readiness).
    pub fn shared(&self) -> &Arc<SchedulerShared> {
        &self.shared
    }

    /// Routes one request. `client` identifies the submitter for rate
    /// limiting (the `X-Client` header when present, else the peer IP).
    pub fn handle(&self, req: &Request, client: &str) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET", "/readyz") => {
                if self.shared.accepting() {
                    Response::text(200, "ready\n")
                } else {
                    Response::text(503, "draining\n")
                }
            }
            ("GET", "/metrics") => {
                let m = &self.shared.metrics;
                let body = m.exposition(
                    self.shared.queue.depth(),
                    self.shared.queue.capacity(),
                    self.shared.accepting(),
                );
                Response::new(200, "text/plain; version=0.0.4", body)
            }
            ("GET", "/v1/studies") => {
                let names: Vec<Json> = self
                    .shared
                    .studies
                    .names()
                    .into_iter()
                    .map(Json::from)
                    .collect();
                Response::json(200, Json::obj().field("studies", names).render())
            }
            ("POST", "/v1/jobs") => self.submit(req, client),
            ("GET", "/v1/jobs") => {
                let jobs: Vec<Json> = self
                    .shared
                    .jobs
                    .list()
                    .iter()
                    .map(|j| j.snapshot())
                    .collect();
                Response::json(200, Json::obj().field("jobs", jobs).render())
            }
            ("POST", "/admin/drain") => {
                // Instance-scoped, not the global signal flag: a drain of
                // this server must not tear down other instances in the
                // same process (the in-process tests run several).
                self.shared.draining.store(true, Ordering::SeqCst);
                self.shared.queue.close();
                Response::text(202, "draining\n")
            }
            ("GET", path) => self.job_subresource(req, path),
            (method, _) => Response::error(405, &format!("method {method} not supported")),
        }
    }

    fn submit(&self, req: &Request, client: &str) -> Response {
        if !self.shared.accepting() {
            self.bump(&self.shared.metrics.shed_draining);
            return Response::error(503, "server is draining; resubmit to the next instance")
                .header("Retry-After", "5");
        }
        let client = req.header("x-client").unwrap_or(client);
        if let RateDecision::Shed { retry_after_s } = self.limiter.admit(client) {
            self.bump(&self.shared.metrics.shed_rate_limited);
            return Response::error(429, "client rate limit exceeded")
                .header("Retry-After", retry_after_s.to_string());
        }
        let body = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => return Response::error(400, "body is not UTF-8"),
        };
        let parsed = match Json::parse(body) {
            Ok(j) => j,
            Err(e) => return Response::error(400, &format!("body is not JSON: {e}")),
        };
        let spec = match JobSpec::from_json(&parsed, &self.shared.studies) {
            Ok(s) => s,
            Err(e) => return Response::error(400, &e),
        };
        // The queue place is taken before the job is created, so a shed
        // submission leaves nothing on disk or in the job list.
        let slot = match self.shared.queue.reserve() {
            Ok(slot) => slot,
            Err(QueueRefusal::Full { retry_after_s }) => {
                self.bump(&self.shared.metrics.shed_queue_full);
                return Response::error(429, "admission queue full")
                    .header("Retry-After", retry_after_s.to_string());
            }
            Err(QueueRefusal::Draining) => {
                self.bump(&self.shared.metrics.shed_draining);
                return Response::error(503, "server is draining").header("Retry-After", "5");
            }
        };
        let job = match self.shared.jobs.create(spec) {
            Ok(j) => j,
            Err(e) => return Response::error(500, &format!("cannot persist job: {e}")),
        };
        slot.fill(Arc::clone(&job));
        self.bump(&self.shared.metrics.jobs_admitted);
        Response::json(
            202,
            Json::obj()
                .field("id", job.id.as_str())
                .field("state", JobPhase::Queued.name())
                .render(),
        )
    }

    fn job_subresource(&self, req: &Request, path: &str) -> Response {
        let rest = match path.strip_prefix("/v1/jobs/") {
            Some(r) if !r.is_empty() => r,
            _ => return Response::error(404, "no such resource"),
        };
        let (id, sub) = match rest.split_once('/') {
            Some((id, sub)) => (id, Some(sub)),
            None => (rest, None),
        };
        let job = match self.shared.jobs.get(id) {
            Some(j) => j,
            None => return Response::error(404, &format!("no job `{id}`")),
        };
        match sub {
            None => Response::json(200, job.snapshot().render()),
            Some("events") => Response::ndjson(job.events_jsonl()),
            Some("spans") => {
                // Written by the scheduler when the job starts; durable, so
                // it survives the process that ran the job.
                match std::fs::read_to_string(job.dir.join("spans.jsonl")) {
                    Ok(text) => Response::ndjson(text),
                    Err(_) => Response::error(
                        404,
                        &format!("job `{id}` has no span file yet (not started)"),
                    ),
                }
            }
            Some("report") => {
                let st = job.status();
                if st.phase != JobPhase::Completed {
                    return Response::error(
                        409,
                        &format!(
                            "job `{id}` is {}; report needs `completed`",
                            st.phase.name()
                        ),
                    );
                }
                let study = match self.shared.studies.get(&job.spec.study) {
                    Some(s) => s,
                    None => return Response::error(500, "study vanished from registry"),
                };
                let campaign = match crate::campaign::Campaign::new(study, job.spec.opts.clone()) {
                    Ok(c) => c,
                    Err(e) => return Response::error(500, &e.to_string()),
                };
                let records = match campaign.load_records(&job.campaign_dir()) {
                    Ok(r) => r,
                    Err(e) => return Response::error(500, &e.to_string()),
                };
                let out = match study.render(&job.spec.opts, &records) {
                    Ok(o) => o,
                    Err(e) => return Response::error(500, &e),
                };
                if req.query_param("format") == Some("json") {
                    let doc = out
                        .json
                        .unwrap_or_else(|| crate::study::records_json(&job.spec.study, &records));
                    Response::json(200, doc)
                } else {
                    Response::text(200, out.report)
                }
            }
            Some(other) => Response::error(404, &format!("no job subresource `{other}`")),
        }
    }

    fn bump(&self, counter: &std::sync::atomic::AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::admission::BoundedQueue;
    use crate::serve::jobs::JobRegistry;
    use crate::serve::metrics::ServiceMetrics;
    use crate::serve::scheduler::{run_job, SchedulerConfig};
    use crate::study::StudyRegistry;
    use std::collections::HashMap;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicBool;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "giantsan-router-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn router(dir: &Path, queue_cap: usize, rate: u32) -> Router {
        let shared = Arc::new(SchedulerShared {
            queue: BoundedQueue::new(queue_cap),
            metrics: ServiceMetrics::default(),
            studies: StudyRegistry::builtin(),
            jobs: JobRegistry::open(dir).unwrap(),
            draining: AtomicBool::new(false),
            config: SchedulerConfig::default(),
            flight: Arc::new(giantsan_telemetry::FlightRecorder::new(
                2,
                giantsan_telemetry::DEFAULT_FLIGHT_CAPACITY,
            )),
            active_job: std::sync::Mutex::new(None),
        });
        Router::new(shared, rate, rate.max(1))
    }

    fn get(path: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path.to_string(), String::new()),
        };
        Request {
            method: "GET".to_string(),
            path,
            query,
            headers: HashMap::new(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: HashMap::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn health_metrics_and_studies_respond() {
        let dir = tmpdir("basic");
        let r = router(&dir, 4, 0);
        assert_eq!(r.handle(&get("/healthz"), "t").status, 200);
        assert_eq!(r.handle(&get("/readyz"), "t").status, 200);
        let m = r.handle(&get("/metrics"), "t");
        assert_eq!(m.status, 200);
        assert!(String::from_utf8(m.body)
            .unwrap()
            .contains("giantsan_serve_ready 1"));
        let s = r.handle(&get("/v1/studies"), "t");
        assert!(String::from_utf8(s.body).unwrap().contains("\"echo\""));
        assert_eq!(r.handle(&get("/nope"), "t").status, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_then_run_then_report() {
        let dir = tmpdir("submit");
        let r = router(&dir, 4, 0);
        let resp = r.handle(
            &post(
                "/v1/jobs",
                r#"{"study":"echo","params":{"scale":3,"rounds":1}}"#,
            ),
            "t",
        );
        assert_eq!(
            resp.status,
            202,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let body = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let id = body.get("id").and_then(Json::as_str).unwrap().to_string();
        // Report before completion: 409.
        assert_eq!(
            r.handle(&get(&format!("/v1/jobs/{id}/report")), "t").status,
            409
        );
        // Run it inline (no worker pool in this test).
        let job = r.shared().queue.pop().unwrap();
        run_job(r.shared(), &job);
        let status = r.handle(&get(&format!("/v1/jobs/{id}")), "t");
        assert!(String::from_utf8(status.body)
            .unwrap()
            .contains("\"completed\""));
        let report = r.handle(&get(&format!("/v1/jobs/{id}/report")), "t");
        assert_eq!(report.status, 200);
        assert!(String::from_utf8(report.body)
            .unwrap()
            .contains("campaign digest"));
        let json = r.handle(&get(&format!("/v1/jobs/{id}/report?format=json")), "t");
        assert!(String::from_utf8(json.body).unwrap().contains("\"digest\""));
        let events = r.handle(&get(&format!("/v1/jobs/{id}/events")), "t");
        let text = String::from_utf8(events.body).unwrap();
        assert!(text.contains("\"event\":\"admitted\""));
        assert!(text.contains("\"event\":\"completed\""));
        // The causal span chain is served as JSONL and chains to a request
        // root.
        let spans = r.handle(&get(&format!("/v1/jobs/{id}/spans")), "t");
        assert_eq!(spans.status, 200);
        let spans = String::from_utf8(spans.body).unwrap();
        assert!(spans.contains("\"kind\":\"request\""));
        assert!(spans.contains("\"kind\":\"cell\""));
        assert!(spans
            .lines()
            .all(|l| Json::parse(l).is_ok_and(|s| s.get("id").and_then(Json::as_hex).is_some())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_before_start_is_a_404() {
        let dir = tmpdir("nospans");
        let r = router(&dir, 4, 0);
        let resp = r.handle(&post("/v1/jobs", r#"{"study":"echo"}"#), "t");
        assert_eq!(resp.status, 202);
        let body = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let id = body.get("id").and_then(Json::as_str).unwrap().to_string();
        // Queued but never started: no spans.jsonl on disk yet.
        assert_eq!(
            r.handle(&get(&format!("/v1/jobs/{id}/spans")), "t").status,
            404
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_queue_sheds_with_retry_after() {
        let dir = tmpdir("shed");
        let r = router(&dir, 2, 0);
        let body = r#"{"study":"echo","params":{"scale":1,"rounds":1}}"#;
        assert_eq!(r.handle(&post("/v1/jobs", body), "t").status, 202);
        assert_eq!(r.handle(&post("/v1/jobs", body), "t").status, 202);
        let shed = r.handle(&post("/v1/jobs", body), "t");
        assert_eq!(shed.status, 429);
        assert!(shed.headers.iter().any(|(k, _)| k == "Retry-After"));
        assert_eq!(
            r.shared().metrics.shed_queue_full.load(Ordering::Relaxed),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rate_limiter_sheds_per_client() {
        let dir = tmpdir("rate");
        let r = router(&dir, 64, 1); // 1/s, burst 1
        let body = r#"{"study":"echo"}"#;
        assert_eq!(r.handle(&post("/v1/jobs", body), "alice").status, 202);
        assert_eq!(r.handle(&post("/v1/jobs", body), "alice").status, 429);
        // Different client: own bucket.
        assert_eq!(r.handle(&post("/v1/jobs", body), "bob").status, 202);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_refuses_submissions_and_flips_readyz() {
        let dir = tmpdir("drain");
        let r = router(&dir, 4, 0);
        r.shared().draining.store(true, Ordering::SeqCst);
        assert_eq!(r.handle(&get("/readyz"), "t").status, 503);
        let resp = r.handle(&post("/v1/jobs", r#"{"study":"echo"}"#), "t");
        assert_eq!(resp.status, 503);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_submissions_get_400() {
        let dir = tmpdir("bad");
        let r = router(&dir, 4, 0);
        assert_eq!(r.handle(&post("/v1/jobs", "not json"), "t").status, 400);
        assert_eq!(
            r.handle(&post("/v1/jobs", r#"{"study":"nope"}"#), "t")
                .status,
            400
        );
        assert_eq!(r.handle(&get("/v1/jobs/job-999999"), "t").status, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
