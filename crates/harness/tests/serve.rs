//! Process-level chaos drill for `repro serve`.
//!
//! A server killed with SIGKILL **mid-campaign** must, on restart with the
//! same data directory, resume the interrupted job from its committed
//! shards and produce a digest byte-identical to a monolithic serial run —
//! zero lost, zero duplicated cells. A second leg checks the graceful path:
//! SIGTERM drains, prints the `drained` line and exits 0 with durable state
//! intact.
//!
//! Everything here drives the real binary (`CARGO_BIN_EXE_repro`) over real
//! sockets; the in-process lib tests in `src/serve/` cover the fine-grained
//! logic, and traffic past saturation.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use giantsan_harness::batch::BatchRunner;
use giantsan_harness::campaign::{records_digest, Campaign};
use giantsan_harness::json::Json;
use giantsan_harness::study::{StudyOpts, StudyRegistry};

const SCALE: u64 = 128;
const ROUNDS: u64 = 20;
const SEED: u64 = 0xc4a05;
const SHARDS: u64 = 16;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("giantsan-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns `repro serve` on an ephemeral port and returns the child, the
/// bound address parsed from its stdout banner, and a thread that collects
/// the rest of its stdout until it exits.
fn spawn_serve(data_dir: &Path) -> (Child, String, JoinHandle<String>) {
    spawn_serve_with(data_dir, &[])
}

/// [`spawn_serve`] with extra flags appended (e.g. a cell deadline).
fn spawn_serve_with(data_dir: &Path, extra: &[&str]) -> (Child, String, JoinHandle<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--workers",
            "1",
            "--threads-per-job",
            "1",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("serve banner line")
        .expect("read serve banner");
    let addr = banner
        .rsplit("http://")
        .next()
        .expect("address in banner")
        .trim()
        .to_string();
    // Keep draining the pipe so the child never blocks on a full buffer.
    let rest =
        std::thread::spawn(move || lines.map_while(Result::ok).collect::<Vec<_>>().join("\n"));
    (child, addr, rest)
}

fn request(addr: &str, raw: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let status: u16 = out
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

fn get(addr: &str, path: &str) -> (u16, String) {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

fn wait_exit(child: &mut Child, limit: Duration) -> std::process::ExitStatus {
    let t0 = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(t0.elapsed() < limit, "server did not exit in {limit:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The monolithic reference: the same study run serially in one process.
fn serial_digest() -> String {
    let registry = StudyRegistry::builtin();
    let study = registry.get("echo").unwrap();
    let opts = StudyOpts {
        scale: SCALE,
        rounds: ROUNDS,
        seed: SEED,
        ..StudyOpts::default()
    };
    let records = Campaign::new(study, opts)
        .unwrap()
        .run_all(&BatchRunner::serial());
    format!("{:#018x}", records_digest(&records))
}

#[test]
fn sigkill_mid_campaign_then_restart_resumes_to_the_serial_digest() {
    let data = tmpdir("chaos");
    let (mut child, addr, _) = spawn_serve(&data);

    let body = format!(
        r#"{{"study":"echo","params":{{"scale":{SCALE},"rounds":{ROUNDS},"seed":"{SEED:#x}"}},"shards":{SHARDS}}}"#
    );
    let (st, resp) = request(
        &addr,
        &format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(st, 202, "{resp}");
    let id = Json::parse(&resp)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Wait until the campaign is genuinely mid-flight — some shards
    // committed, most not — then SIGKILL the server. No drain, no warning.
    let manifest = data
        .join("jobs")
        .join(&id)
        .join("campaign")
        .join("manifest.jsonl");
    let t0 = Instant::now();
    loop {
        let committed = std::fs::read_to_string(&manifest)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if committed >= 2 {
            assert!(
                (committed as u64) < SHARDS,
                "job finished before the kill; grow the workload"
            );
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "no shard committed within 60s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();

    // The on-disk job is interrupted, not complete — exactly what the next
    // process must pick up.
    let descriptor = std::fs::read_to_string(data.join("jobs").join(&id).join("job.json")).unwrap();
    assert!(
        !descriptor.contains("\"completed\""),
        "job must not be complete at kill time: {descriptor}"
    );

    // Restart on the same data dir: recovery re-queues the job and the
    // campaign resumes from its committed shards.
    let (mut child2, addr2, stdout2) = spawn_serve(&data);
    let t0 = Instant::now();
    let digest = loop {
        let (st, body) = get(&addr2, &format!("/v1/jobs/{id}"));
        assert_eq!(st, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        let state = v
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if state == "completed" {
            break v
                .get("digest")
                .and_then(Json::as_str)
                .expect("completed job has a digest")
                .to_string();
        }
        assert!(
            state == "queued" || state == "running",
            "job must never fail across the restart: {body}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "resumed job never completed: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    // Zero lost, zero duplicated cells: the resumed digest is the serial one.
    assert_eq!(digest, serial_digest());

    let (st, metrics) = get(&addr2, "/metrics");
    assert_eq!(st, 200);
    assert!(
        metrics.contains("giantsan_serve_jobs_resumed_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("giantsan_serve_responses_5xx_total 0"),
        "{metrics}"
    );

    // Graceful leg: SIGTERM drains and exits 0.
    let term = Command::new("kill")
        .args(["-TERM", &child2.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = wait_exit(&mut child2, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0), "SIGTERM drain must exit 0");
    let stdout = stdout2.join().expect("stdout reader");
    assert!(
        stdout.contains("repro serve: drained"),
        "SIGTERM drain must print the drained line: {stdout}"
    );

    let _ = std::fs::remove_dir_all(&data);
}

/// Pulls the `"span":"0x..."` field out of a flight-recorder JSONL line.
/// `(id, parent)` of one `spans.jsonl` line.
fn span_link(line: &str) -> (u64, Option<u64>) {
    let span = Json::parse(line).expect("span line is JSON");
    let hex = |key| span.get(key).and_then(Json::as_hex);
    (hex("id").expect("span id"), hex("parent"))
}

fn flight_span(line: &str) -> Option<u64> {
    let at = line.find("\"span\":\"0x")? + "\"span\":\"0x".len();
    u64::from_str_radix(line.get(at..at + 16)?, 16).ok()
}

#[test]
fn watchdog_fired_cells_leave_a_flight_dump_chaining_to_the_request() {
    let data = tmpdir("flight");
    // A zero cell deadline makes the watchdog fire in every cell: the cells
    // quarantine to placeholders, the job still completes, and the
    // quarantine path must dump the flight recorder into the job dir.
    let (mut child, addr, _) = spawn_serve_with(&data, &["--cell-deadline-ms", "0"]);

    let body = r#"{"study":"echo","params":{"scale":3,"rounds":2,"seed":"0xf1"}}"#;
    let (st, resp) = request(
        &addr,
        &format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(st, 202, "{resp}");
    let id = Json::parse(&resp)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let t0 = Instant::now();
    loop {
        let (st, body) = get(&addr, &format!("/v1/jobs/{id}"));
        assert_eq!(st, 200, "{body}");
        let state = Json::parse(&body)
            .unwrap()
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if state == "completed" {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "watchdog job never completed: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The span chain was written at job start and is served over HTTP.
    let (st, spans_text) = get(&addr, &format!("/v1/jobs/{id}/spans"));
    assert_eq!(st, 200, "{spans_text}");
    let parents: std::collections::HashMap<u64, Option<u64>> =
        spans_text.lines().map(span_link).collect();
    assert!(!parents.is_empty(), "{spans_text}");
    let root_line = spans_text
        .lines()
        .find(|l| l.contains("\"kind\":\"request\""))
        .expect("request root span served");
    let (root, none) = span_link(root_line);
    assert_eq!(none, None, "the request span is the chain root");

    // The flight dump exists, parses, and its quarantine events carry span
    // ids that chain all the way back to the originating HTTP request.
    let job_dir = data.join("jobs").join(&id);
    let flight = std::fs::read_to_string(job_dir.join("flight.jsonl")).expect("flight.jsonl");
    assert!(
        flight.lines().next().unwrap().contains("\"flight\":\"v1\""),
        "{flight}"
    );
    let quarantined: Vec<u64> = flight
        .lines()
        .filter(|l| l.contains("\"ev\":\"quarantine\""))
        .filter_map(flight_span)
        .collect();
    assert!(!quarantined.is_empty(), "{flight}");
    for span in quarantined {
        let mut cur = span;
        let mut hops = 0;
        while let Some(&Some(parent)) = parents.get(&cur) {
            cur = parent;
            hops += 1;
            assert!(hops <= parents.len(), "parent chain loops");
        }
        assert_eq!(cur, root, "quarantined span chains to the request root");
    }
    // The Chrome rendering of the same dump is loadable trace_event JSON.
    let chrome = std::fs::read_to_string(job_dir.join("flight_chrome.json")).unwrap();
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");

    child.kill().expect("kill serve");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&data);
}
