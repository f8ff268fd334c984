//! Service counters and histograms behind `/metrics`.
//!
//! All counters are relaxed atomics — a scrape sees a consistent-enough
//! snapshot, and the hot path (one `fetch_add` per event) never contends.
//! Latency histograms reuse the telemetry crate's deterministic
//! [`Log2Hist`] under a mutex taken once per completed request/job; the
//! exposition itself reuses `giantsan_telemetry::export::service_exposition`
//! so the service and the sanitizer speak one scrape format.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use giantsan_telemetry::export::service_exposition;
use giantsan_telemetry::Log2Hist;

/// Every counter, gauge, and histogram the service exports.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Completed HTTP responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses that were not admission sheds (bad requests, 404s).
    pub responses_4xx: AtomicU64,
    /// 5xx responses (a healthy service emits none; CI asserts zero).
    pub responses_5xx: AtomicU64,
    /// Submissions shed by the per-client rate limiter (429).
    pub shed_rate_limited: AtomicU64,
    /// Submissions shed because the admission queue was full (429).
    pub shed_queue_full: AtomicU64,
    /// Submissions refused because the server was draining (503).
    pub shed_draining: AtomicU64,
    /// Jobs accepted into the queue.
    pub jobs_admitted: AtomicU64,
    /// Jobs that ran to completion.
    pub jobs_completed: AtomicU64,
    /// Jobs that failed (spec errors, quarantined shards).
    pub jobs_failed: AtomicU64,
    /// Jobs cancelled by the per-request deadline.
    pub jobs_timed_out: AtomicU64,
    /// Cells executed across all jobs.
    pub cells_run: AtomicU64,
    /// Cells quarantined mid-job (panic or watchdog `Timeout` verdict).
    pub cells_quarantined: AtomicU64,
    /// Shards committed through the campaign checkpoint path.
    pub shards_committed: AtomicU64,
    /// Jobs resumed from a checkpoint at startup.
    pub jobs_resumed: AtomicU64,
    /// HTTP request service time, admission decision included (µs).
    pub request_latency_us: Mutex<Log2Hist>,
    /// Whole-job latency from admission to terminal state (µs).
    pub job_latency_us: Mutex<Log2Hist>,
    /// Most recent terminal job and its root span id — the exemplar the
    /// exposition links its families to, so a scrape can jump from an
    /// aggregate counter to the exact causal chain behind it.
    pub last_job: Mutex<Option<(String, u64)>>,
}

impl ServiceMetrics {
    /// Bumps the status-class counter for a response code.
    pub fn count_response(&self, status: u16) {
        let c = match status {
            200..=299 => &self.responses_2xx,
            500..=599 => &self.responses_5xx,
            _ => &self.responses_4xx,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request's service time.
    pub fn observe_request(&self, started: Instant) {
        let us = started.elapsed().as_micros() as u64;
        self.request_latency_us
            .lock()
            .expect("metrics poisoned")
            .record(us);
    }

    /// Records one job's admission-to-terminal latency.
    pub fn observe_job(&self, started: Instant) {
        let us = started.elapsed().as_micros() as u64;
        self.job_latency_us
            .lock()
            .expect("metrics poisoned")
            .record(us);
    }

    /// Remembers the most recent terminal job and its root span id for the
    /// exemplar gauge in the exposition.
    pub fn note_job(&self, job_id: &str, root_span: u64) {
        *self.last_job.lock().expect("metrics poisoned") = Some((job_id.to_string(), root_span));
    }

    /// Renders the Prometheus text exposition, with live gauges supplied by
    /// the caller (queue depth and readiness are scheduler state).
    pub fn exposition(&self, queue_depth: usize, queue_capacity: usize, ready: bool) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let counters: Vec<(&str, &str, u64)> = vec![
            // Family names follow the Prometheus text-format rules: the
            // `_total` suffix terminates a counter name (a `_2xx` tail
            // after it would make the family a non-counter to parsers).
            (
                "giantsan_serve_responses_2xx_total",
                "HTTP responses with a 2xx status.",
                c(&self.responses_2xx),
            ),
            (
                "giantsan_serve_responses_4xx_total",
                "HTTP responses with a non-shed 4xx status.",
                c(&self.responses_4xx),
            ),
            (
                "giantsan_serve_responses_5xx_total",
                "HTTP responses with a 5xx status.",
                c(&self.responses_5xx),
            ),
            (
                "giantsan_serve_shed_rate_limited_total",
                "Submissions shed by the per-client token bucket (429).",
                c(&self.shed_rate_limited),
            ),
            (
                "giantsan_serve_shed_queue_full_total",
                "Submissions shed because the admission queue was full (429).",
                c(&self.shed_queue_full),
            ),
            (
                "giantsan_serve_shed_draining_total",
                "Submissions refused during graceful drain (503).",
                c(&self.shed_draining),
            ),
            (
                "giantsan_serve_jobs_admitted_total",
                "Jobs accepted into the admission queue.",
                c(&self.jobs_admitted),
            ),
            (
                "giantsan_serve_jobs_completed_total",
                "Jobs that ran to completion.",
                c(&self.jobs_completed),
            ),
            (
                "giantsan_serve_jobs_failed_total",
                "Jobs that ended in an error state.",
                c(&self.jobs_failed),
            ),
            (
                "giantsan_serve_jobs_timed_out_total",
                "Jobs cancelled by their deadline.",
                c(&self.jobs_timed_out),
            ),
            (
                "giantsan_serve_cells_run_total",
                "Study cells executed across all jobs.",
                c(&self.cells_run),
            ),
            (
                "giantsan_serve_cells_quarantined_total",
                "Cells quarantined mid-job (panic or watchdog Timeout verdict).",
                c(&self.cells_quarantined),
            ),
            (
                "giantsan_serve_shards_committed_total",
                "Campaign shards committed through the checkpoint path.",
                c(&self.shards_committed),
            ),
            (
                "giantsan_serve_jobs_resumed_total",
                "Durable jobs resumed from checkpoints at startup.",
                c(&self.jobs_resumed),
            ),
        ];
        let gauges: Vec<(&str, &str, u64)> = vec![
            (
                "giantsan_serve_queue_depth",
                "Jobs waiting in the admission queue.",
                queue_depth as u64,
            ),
            (
                "giantsan_serve_queue_capacity",
                "Admission queue capacity.",
                queue_capacity as u64,
            ),
            (
                "giantsan_serve_ready",
                "1 while admitting, 0 while draining.",
                u64::from(ready),
            ),
        ];
        let req = self
            .request_latency_us
            .lock()
            .expect("metrics poisoned")
            .clone();
        let job = self
            .job_latency_us
            .lock()
            .expect("metrics poisoned")
            .clone();
        let mut out = service_exposition(
            &counters,
            &gauges,
            &[
                (
                    "giantsan_serve_request_latency_us",
                    "HTTP request service time in microseconds.",
                    &req,
                ),
                (
                    "giantsan_serve_job_latency_us",
                    "Job latency from admission to terminal state in microseconds.",
                    &job,
                ),
            ],
        );
        // Build identity: which binary produced these numbers. The kernel
        // label names the shadow kernel, the heap label the default
        // allocator backend jobs execute under.
        let heap = match giantsan_runtime::RuntimeConfig::default().heap_backend {
            giantsan_runtime::HeapBackend::FreeList => "freelist",
        };
        out.push_str(
            "# HELP repro_build_info Build and backend identity of the serving binary.\n\
             # TYPE repro_build_info gauge\n",
        );
        out.push_str(&format!(
            "repro_build_info{{version=\"{}\",kernel=\"{}\",heap=\"{heap}\"}} 1\n",
            env!("CARGO_PKG_VERSION"),
            giantsan_shadow::kernel::active().name(),
        ));
        // Exemplar-style linkage: the most recent terminal job and its root
        // span, so a scrape can resolve aggregate families against
        // `/v1/jobs/<job_id>/spans`.
        if let Some((job_id, span)) = self.last_job.lock().expect("metrics poisoned").clone() {
            out.push_str(
                "# HELP giantsan_serve_last_job_info Most recent terminal job and its root span.\n\
                 # TYPE giantsan_serve_last_job_info gauge\n",
            );
            out.push_str(&format!(
                "giantsan_serve_last_job_info{{job_id=\"{job_id}\",span_id=\"{span:#018x}\"}} 1\n"
            ));
        }
        out
    }
}

/// Lints a Prometheus text exposition against the format rules the scrape
/// contract depends on. Returns one message per violation (empty = clean):
///
/// * every sample belongs to a family declared with both `# HELP` and
///   `# TYPE` before its first sample;
/// * counter family names end in `_total`;
/// * no family is declared twice.
pub fn lint_exposition(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut families: Vec<(String, String, bool)> = Vec::new(); // (name, type, has_help)
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("").to_string();
            match families.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, has_help)) if *has_help => {
                    violations.push(format!("duplicate HELP for family {name}"));
                }
                Some((_, _, has_help)) => *has_help = true,
                None => families.push((name, String::new(), true)),
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap_or("").to_string();
            let ty = it.next().unwrap_or("").to_string();
            match families.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, t, _)) if !t.is_empty() => {
                    violations.push(format!("duplicate TYPE for family {name}"));
                }
                Some((_, t, _)) => *t = ty.clone(),
                None => families.push((name.clone(), ty.clone(), false)),
            }
            if ty == "counter" && !name.ends_with("_total") {
                violations.push(format!("counter family {name} does not end in _total"));
            }
        } else if !line.starts_with('#') {
            let sample = line.split(['{', ' ']).next().unwrap_or("").to_string();
            // Histogram samples belong to their base family.
            let base = sample
                .strip_suffix("_bucket")
                .or_else(|| sample.strip_suffix("_sum"))
                .or_else(|| sample.strip_suffix("_count"))
                .filter(|b| families.iter().any(|(n, _, _)| n == b))
                .unwrap_or(&sample);
            match families.iter().find(|(n, _, _)| n == base) {
                None => violations.push(format!("sample {sample} has no declared family")),
                Some((name, ty, has_help)) => {
                    if ty.is_empty() {
                        violations.push(format!("family {name} has no TYPE"));
                    }
                    if !has_help {
                        violations.push(format!("family {name} has no HELP"));
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_contains_every_family() {
        let m = ServiceMetrics::default();
        m.count_response(200);
        m.count_response(404);
        m.count_response(503);
        m.shed_queue_full.fetch_add(3, Ordering::Relaxed);
        m.observe_request(Instant::now());
        m.note_job("job-000007", 0xabcd);
        let s = m.exposition(5, 64, true);
        assert!(s.contains("giantsan_serve_responses_2xx_total 1"));
        assert!(s.contains("giantsan_serve_responses_4xx_total 1"));
        assert!(s.contains("giantsan_serve_responses_5xx_total 1"));
        assert!(s.contains("giantsan_serve_shed_queue_full_total 3"));
        assert!(s.contains("giantsan_serve_queue_depth 5"));
        assert!(s.contains("giantsan_serve_queue_capacity 64"));
        assert!(s.contains("giantsan_serve_ready 1"));
        assert!(s.contains("giantsan_serve_request_latency_us_count 1"));
        assert!(s.contains("repro_build_info{version=\""));
        assert!(s.contains("kernel=\""));
        assert!(s.contains("heap=\"freelist\""));
        assert!(s.contains(
            "giantsan_serve_last_job_info{job_id=\"job-000007\",span_id=\"0x000000000000abcd\"} 1"
        ));
    }

    #[test]
    fn exposition_passes_the_text_format_lint() {
        let m = ServiceMetrics::default();
        m.count_response(200);
        m.observe_request(Instant::now());
        m.observe_job(Instant::now());
        m.note_job("job-000001", 1);
        let s = m.exposition(0, 64, true);
        let violations = lint_exposition(&s);
        assert!(violations.is_empty(), "{violations:?}\n{s}");
    }

    #[test]
    fn lint_catches_the_violations_it_exists_for() {
        // Counter not ending in _total (the pre-rename bug).
        let bad = "# HELP x_total_2xx c\n# TYPE x_total_2xx counter\nx_total_2xx 1\n";
        assert!(lint_exposition(bad)
            .iter()
            .any(|v| v.contains("does not end in _total")));
        // Sample with no declared family.
        assert!(lint_exposition("orphan 1\n")
            .iter()
            .any(|v| v.contains("no declared family")));
        // Missing HELP.
        let no_help = "# TYPE y gauge\ny 1\n";
        assert!(lint_exposition(no_help)
            .iter()
            .any(|v| v.contains("no HELP")));
        // Duplicate family declaration.
        let dup = "# HELP z g\n# TYPE z gauge\n# HELP z g\n# TYPE z gauge\nz 1\n";
        let v = lint_exposition(dup);
        assert!(v.iter().any(|m| m.contains("duplicate")), "{v:?}");
    }
}
