//! `loadgen` — hammer a `repro serve` instance and verify its answers.
//!
//! ```text
//! loadgen hammer --addr HOST:PORT [--sessions N] [--clients N] [--scale N]
//!                [--rounds N] [--seed S] [--shards N] [--deadline-ms N]
//!                [--no-wait] [--format json]
//!     Submit N sessions from C concurrent clients (a shed or failed submit
//!     is sent again after a jittered, growing delay),
//!     wait for every accepted job to finish, and report throughput,
//!     submit-latency p50/p99, and shed counts.
//!
//! loadgen watch --addr HOST:PORT --job ID [--timeout-s N]
//!     Poll one job to a terminal state and print its final status document.
//!     Exits 1 if the job failed or the wait timed out.
//!
//! loadgen expect [--scale N] [--rounds N] [--seed S]
//!     Compute, in-process and serially, the campaign digest the echo study
//!     must produce for these parameters, and print it. The chaos drill
//!     compares this against the digest a kill/restart/resume server run
//!     reports: equality proves zero lost and zero duplicated cells.
//! ```
//!
//! The client is hand-rolled over `std::net` like the server: one request
//! per connection, `Content-Length` framing, socket timeouts. Backoff is
//! decorrelated jitter seeded from `--seed` and the client index via
//! `splitmix64`, honouring `Retry-After` when the server sheds.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use giantsan_harness::batch::BatchRunner;
use giantsan_harness::campaign::{records_digest, Campaign};
use giantsan_harness::faults::splitmix64;
use giantsan_harness::json::Json;
use giantsan_harness::study::{StudyOpts, StudyRegistry};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One HTTP exchange: returns `(status, headers, body)`.
fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    client_id: &str,
) -> Result<(u16, HashMap<String, String>, String), String> {
    let sock_addr = addr
        .parse()
        .map_err(|e| format!("bad address `{addr}`: {e}"))?;
    let mut s = TcpStream::connect_timeout(&sock_addr, CONNECT_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT)).ok();
    s.set_write_timeout(Some(IO_TIMEOUT)).ok();
    s.set_nodelay(true).ok();
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Client: {client_id}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, resp_body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {raw:?}"))?;
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or("malformed status line")?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers, resp_body.to_string()))
}

/// Shared hammer tallies.
#[derive(Debug, Default)]
struct Tally {
    accepted: AtomicU64,
    shed_429: AtomicU64,
    refused_503: AtomicU64,
    rejected_4xx: AtomicU64,
    errors_5xx: AtomicU64,
    transport_errors: AtomicU64,
    /// Per-submission round-trip times (accepted submissions only), µs.
    submit_us: Mutex<Vec<u64>>,
    /// Accepted job ids, for the completion wait.
    job_ids: Mutex<Vec<String>>,
}

#[derive(Debug, Clone)]
struct HammerOpts {
    addr: String,
    sessions: usize,
    clients: usize,
    scale: u64,
    rounds: u64,
    seed: u64,
    shards: usize,
    deadline_ms: Option<u64>,
    wait: bool,
    json: bool,
}

fn parse_u64(v: &str) -> Result<u64, String> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad number `{v}`: {e}"))
    } else {
        v.parse().map_err(|e| format!("bad number `{v}`: {e}"))
    }
}

fn flag_value<'a>(it: &mut std::slice::Iter<'a, String>, name: &str) -> Result<&'a String, String> {
    it.next().ok_or(format!("{name} needs a value"))
}

fn parse_hammer(args: &[String]) -> Result<HammerOpts, String> {
    let mut o = HammerOpts {
        addr: String::new(),
        sessions: 200,
        clients: 16,
        scale: 4,
        rounds: 1,
        seed: 0x10ad,
        shards: 1,
        deadline_ms: None,
        wait: true,
        json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => o.addr = flag_value(&mut it, "--addr")?.clone(),
            "--sessions" => o.sessions = parse_u64(flag_value(&mut it, "--sessions")?)? as usize,
            "--clients" => {
                o.clients = parse_u64(flag_value(&mut it, "--clients")?)?.max(1) as usize
            }
            "--scale" => o.scale = parse_u64(flag_value(&mut it, "--scale")?)?,
            "--rounds" => o.rounds = parse_u64(flag_value(&mut it, "--rounds")?)?,
            "--seed" => o.seed = parse_u64(flag_value(&mut it, "--seed")?)?,
            "--shards" => o.shards = parse_u64(flag_value(&mut it, "--shards")?)? as usize,
            "--deadline-ms" => {
                o.deadline_ms = Some(parse_u64(flag_value(&mut it, "--deadline-ms")?)?)
            }
            "--no-wait" => o.wait = false,
            "--format" => {
                o.json = match flag_value(&mut it, "--format")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            other => return Err(format!("unknown hammer flag `{other}`")),
        }
    }
    if o.addr.is_empty() {
        return Err("hammer needs --addr HOST:PORT".to_string());
    }
    Ok(o)
}

/// Decorrelated-jitter delay before sending a submit again: at least the server's `Retry-After` when
/// given, otherwise an exponentially growing, jittered delay.
fn retry_delay(attempt: u32, retry_after_s: Option<u64>, rng: &mut u64) -> Duration {
    if let Some(s) = retry_after_s {
        // Honour the server's hint, plus up to 250ms of jitter so a shed
        // burst does not come back as a synchronized burst.
        let jitter_ms = splitmix64(rng) % 250;
        return Duration::from_millis(s.saturating_mul(1000).min(10_000) + jitter_ms);
    }
    let cap_ms = 2_000u64;
    let base_ms = 25u64.saturating_mul(1 << attempt.min(6));
    Duration::from_millis(25 + splitmix64(rng) % base_ms.min(cap_ms))
}

fn hammer(o: &HammerOpts) -> Result<Json, String> {
    let tally = Arc::new(Tally::default());
    let next = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..o.clients {
            let tally = Arc::clone(&tally);
            let next = Arc::clone(&next);
            let o = o.clone();
            scope.spawn(move || {
                let client_id = format!("loadgen-{client}");
                let mut rng = o.seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= o.sessions {
                        return;
                    }
                    // Every session gets its own seed so job digests differ;
                    // the chaos drill uses one fixed seed instead.
                    let mut body = Json::obj().field("study", "echo").field(
                        "params",
                        Json::obj()
                            .field("scale", o.scale)
                            .field("rounds", o.rounds)
                            .field("seed", format!("{:#x}", o.seed ^ n as u64)),
                    );
                    body = body.field("shards", o.shards as u64);
                    if let Some(d) = o.deadline_ms {
                        body = body.field("deadline_ms", d);
                    }
                    let body = body.render_compact();
                    let mut attempt = 0u32;
                    loop {
                        let t0 = Instant::now();
                        match http(&o.addr, "POST", "/v1/jobs", Some(&body), &client_id) {
                            Ok((202, _, resp)) => {
                                tally.accepted.fetch_add(1, Ordering::Relaxed);
                                tally
                                    .submit_us
                                    .lock()
                                    .unwrap()
                                    .push(t0.elapsed().as_micros() as u64);
                                if let Ok(j) = Json::parse(&resp) {
                                    if let Some(id) = j.get("id").and_then(Json::as_str) {
                                        tally.job_ids.lock().unwrap().push(id.to_string());
                                    }
                                }
                                break;
                            }
                            Ok((status @ (429 | 503), headers, _)) => {
                                if status == 429 {
                                    tally.shed_429.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    tally.refused_503.fetch_add(1, Ordering::Relaxed);
                                }
                                let retry_after =
                                    headers.get("retry-after").and_then(|v| v.parse().ok());
                                std::thread::sleep(retry_delay(attempt, retry_after, &mut rng));
                                attempt += 1;
                            }
                            Ok((status, _, _)) if (500..600).contains(&status) => {
                                tally.errors_5xx.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(retry_delay(attempt, None, &mut rng));
                                attempt += 1;
                            }
                            Ok((_, _, _)) => {
                                // 4xx other than shed: a bug in the request;
                                // retrying cannot help.
                                tally.rejected_4xx.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(_) => {
                                tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(retry_delay(attempt, None, &mut rng));
                                attempt += 1;
                            }
                        }
                        if attempt > 50 {
                            // Give up on this session; counted as a transport
                            // error so the run still terminates.
                            tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });
        }
    });
    let submit_wall = started.elapsed();

    // Wait for every accepted job to reach a terminal state.
    let ids: Vec<String> = tally.job_ids.lock().unwrap().clone();
    let mut completed = 0u64;
    let mut failed = 0u64;
    if o.wait {
        for id in &ids {
            let t0 = Instant::now();
            loop {
                if let Ok((200, _, body)) = http(
                    &o.addr,
                    "GET",
                    &format!("/v1/jobs/{id}"),
                    None,
                    "loadgen-wait",
                ) {
                    let state = Json::parse(&body)
                        .ok()
                        .and_then(|j| j.get("state").and_then(Json::as_str).map(str::to_string))
                        .unwrap_or_default();
                    match state.as_str() {
                        "completed" => {
                            completed += 1;
                            break;
                        }
                        "failed" | "timed-out" => {
                            failed += 1;
                            break;
                        }
                        _ => {}
                    }
                }
                if t0.elapsed() > Duration::from_secs(120) {
                    failed += 1;
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    let total_wall = started.elapsed();

    let mut lat: Vec<u64> = tally.submit_us.lock().unwrap().clone();
    lat.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat.is_empty() {
            0
        } else {
            lat[((lat.len() - 1) as f64 * p) as usize]
        }
    };
    let accepted = tally.accepted.load(Ordering::Relaxed);
    Ok(Json::obj()
        .field("sessions", o.sessions as u64)
        .field("clients", o.clients as u64)
        .field("accepted", accepted)
        .field("shed_429", tally.shed_429.load(Ordering::Relaxed))
        .field("refused_503", tally.refused_503.load(Ordering::Relaxed))
        .field("rejected_4xx", tally.rejected_4xx.load(Ordering::Relaxed))
        .field("errors_5xx", tally.errors_5xx.load(Ordering::Relaxed))
        .field(
            "transport_errors",
            tally.transport_errors.load(Ordering::Relaxed),
        )
        .field("completed", completed)
        .field("failed", failed)
        .field("submit_wall_ms", submit_wall.as_millis() as u64)
        .field("total_wall_ms", total_wall.as_millis() as u64)
        .field("submit_p50_us", pct(0.50))
        .field("submit_p99_us", pct(0.99))
        .field(
            "accepted_per_s",
            (accepted as f64 / submit_wall.as_secs_f64().max(1e-9) * 100.0).round() / 100.0,
        ))
}

fn watch(args: &[String]) -> Result<(), String> {
    let mut addr = String::new();
    let mut job = String::new();
    let mut timeout = Duration::from_secs(120);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = flag_value(&mut it, "--addr")?.clone(),
            "--job" => job = flag_value(&mut it, "--job")?.clone(),
            "--timeout-s" => {
                timeout = Duration::from_secs(parse_u64(flag_value(&mut it, "--timeout-s")?)?)
            }
            other => return Err(format!("unknown watch flag `{other}`")),
        }
    }
    if addr.is_empty() || job.is_empty() {
        return Err("watch needs --addr and --job".to_string());
    }
    let t0 = Instant::now();
    loop {
        let (status, _, body) = http(&addr, "GET", &format!("/v1/jobs/{job}"), None, "loadgen")?;
        if status != 200 {
            return Err(format!("GET /v1/jobs/{job}: status {status}: {body}"));
        }
        let state = Json::parse(&body)?
            .get("state")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_default();
        match state.as_str() {
            "completed" => {
                println!("{body}");
                return Ok(());
            }
            "failed" | "timed-out" => {
                println!("{body}");
                return Err(format!("job {job} ended {state}"));
            }
            _ => {}
        }
        if t0.elapsed() > timeout {
            return Err(format!("job {job} still `{state}` after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn expect(args: &[String]) -> Result<(), String> {
    let mut opts = StudyOpts {
        scale: 4,
        rounds: 1,
        seed: 0x10ad,
        ..StudyOpts::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => opts.scale = parse_u64(flag_value(&mut it, "--scale")?)?,
            "--rounds" => opts.rounds = parse_u64(flag_value(&mut it, "--rounds")?)?,
            "--seed" => opts.seed = parse_u64(flag_value(&mut it, "--seed")?)?,
            other => return Err(format!("unknown expect flag `{other}`")),
        }
    }
    let registry = StudyRegistry::builtin();
    let study = registry.get("echo").expect("echo is built in");
    let campaign = Campaign::new(study, opts).map_err(|e| e.to_string())?;
    // Serially, in one process: the reference answer the service must match
    // regardless of sharding, parallelism, kills, and resumes.
    let records = campaign.run_all(&BatchRunner::serial());
    println!("{:#018x}", records_digest(&records));
    Ok(())
}

fn usage() -> &'static str {
    "usage: loadgen hammer --addr HOST:PORT [--sessions N] [--clients N] [--scale N] \
     [--rounds N] [--seed S] [--shards N] [--deadline-ms N] [--no-wait] [--format json]\n  \
     loadgen watch --addr HOST:PORT --job ID [--timeout-s N]\n  \
     loadgen expect [--scale N] [--rounds N] [--seed S]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("hammer") => match parse_hammer(&args[1..]) {
            Ok(o) => hammer(&o).map(|summary| {
                if o.json {
                    // Machine mode: the JSON document and nothing else, so
                    // CI can pipe stdout straight into a JSON parser.
                    println!("{}", summary.render());
                } else {
                    println!("== loadgen hammer against {} ==", o.addr);
                    let n = |key: &str| summary.get(key).and_then(Json::as_u64).unwrap_or(0);
                    println!(
                        "submitted {} session(s) from {} client(s): {} accepted, {} shed (429), \
                         {} refused (503), {} rejected (4xx), {} x 5xx, {} transport error(s)",
                        n("sessions"),
                        n("clients"),
                        n("accepted"),
                        n("shed_429"),
                        n("refused_503"),
                        n("rejected_4xx"),
                        n("errors_5xx"),
                        n("transport_errors"),
                    );
                    println!(
                        "completed {}, failed {} in {}ms (submit wall {}ms)",
                        n("completed"),
                        n("failed"),
                        n("total_wall_ms"),
                        n("submit_wall_ms"),
                    );
                    println!(
                        "submit latency p50 {}us, p99 {}us; {} accepted/s",
                        n("submit_p50_us"),
                        n("submit_p99_us"),
                        summary
                            .get("accepted_per_s")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0),
                    );
                }
            }),
            Err(e) => Err(e),
        },
        Some("watch") => watch(&args[1..]),
        Some("expect") => expect(&args[1..]),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
