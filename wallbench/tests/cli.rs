//! The command's output contract at smoke size: every metric by name and
//! unit, the result line, the host fingerprint, the spans, and the exit
//! codes of the correctness gate.

use std::path::PathBuf;
use std::process::{Command, Output};

use giantsan_harness::json::Json;
use giantsan_wallbench::{Opts, Size, Workload, END_TO_END};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{tag}"))
}

/// Runs the benchmark at smoke size into a fresh output directory.
fn bench(tag: &str, args: &[&str]) -> Output {
    let dir = out_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    Command::new(env!("CARGO_BIN_EXE_giantsan-wallbench"))
        .args(args)
        .args(["--size", "smoke", "--seed", "5", "--out-dir"])
        .arg(&dir)
        .output()
        .expect("run the benchmark")
}

fn last_json(o: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&o.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {stdout}"))
}

/// `(name, unit)` of one list in `BENCHMARK.json`.
fn contract(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn metrics(result: &Json) -> Vec<(String, String)> {
    match result.get("metrics") {
        Some(Json::Object(fields)) => fields
            .iter()
            .map(|(k, v)| {
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("?");
                assert!(v.get("value").and_then(Json::as_f64).is_some(), "{k}");
                (k.clone(), unit.to_string())
            })
            .collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn every_workload_reports_exactly_the_listed_metrics() {
    let e2e = contract("end_to_end");
    assert_eq!(
        e2e,
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    );
    let per_layer = contract("per_layer");
    for w in Workload::ALL {
        for (trace, expected) in [("0", &e2e), ("1", &per_layer)] {
            let o = bench(
                &format!("{}-{trace}", w.name()),
                &["--workload", w.name(), "--trace", trace],
            );
            assert!(o.status.success(), "{} trace {trace}: {o:?}", w.name());
            let r = last_json(&o);
            let keys: Vec<&str> = match &r {
                Json::Object(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("result is not an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
            assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            assert_eq!(&metrics(&r), expected, "{} trace {trace}", w.name());
            if trace == "0" {
                for (name, _) in &e2e {
                    let v = r.get("metrics").and_then(|m| m.get(name));
                    let v = v.and_then(|m| m.get("value")).and_then(Json::as_f64);
                    assert!(
                        v.unwrap_or(0.0) > 0.0,
                        "{} {name} must be positive",
                        w.name()
                    );
                }
            } else {
                let spans = out_dir(&format!("{}-{trace}", w.name()))
                    .join(format!("spans-{}.jsonl", w.name()));
                let text = std::fs::read_to_string(&spans).expect("spans written");
                assert!(text.lines().count() > 1, "{}", w.name());
                for line in text.lines() {
                    let s = Json::parse(line).expect("span line parses");
                    for k in ["id", "parent", "name", "start_us", "dur_us"] {
                        assert!(s.get(k).is_some(), "span without {k}: {line}");
                    }
                }
            }
        }
    }
}

#[test]
fn all_prints_the_table_and_a_blob_with_the_host_fingerprint() {
    let o = bench("all", &["all"]);
    assert!(o.status.success(), "{o:?}");
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(stdout
        .lines()
        .any(|l| l == "workload metric value unit median q1 q3 n"));
    for w in Workload::ALL {
        for (name, unit) in END_TO_END {
            assert!(
                stdout.lines().any(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    f.len() == 8 && f[0] == w.name() && f[1] == name && f[3] == unit
                }),
                "{} {name} missing:\n{stdout}",
                w.name()
            );
        }
    }
    let blob = last_json(&o);
    assert_eq!(blob.get("correct"), Some(&Json::Bool(true)));
    let host = blob.get("host").expect("host fingerprint");
    for k in ["cpu", "nproc", "kernel", "heap_backend", "git_rev", "rustc"] {
        assert!(host.get(k).is_some(), "fingerprint lacks {k}");
    }
    for w in Workload::ALL {
        let r = blob.get("workloads").and_then(|j| j.get(w.name()));
        let pct = r
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get("error_pct"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(pct, Some(0.0), "{}", w.name());
    }
}

/// A CI-seed `faults` job that does not reproduce the expected digest
/// fails the run (the command turns that into exit code 1).
#[test]
fn a_wrong_expected_digest_fails_the_run() {
    let opts = Opts {
        size: Size::Smoke,
        seed: 5,
        out_dir: out_dir("golden"),
        faults_golden: 0x0123_4567_89ab_cdef,
        ..Opts::default()
    };
    let out = giantsan_wallbench::run(Workload::Detect, &opts);
    assert!(!out.correct(), "{:?}", out.failures);
    assert!(out.failed >= 1);
    assert!(
        out.failures
            .iter()
            .any(|f| f.contains("CI-seed faults digest")),
        "{:?}",
        out.failures
    );
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let o = bench("usage", &["--workload", "nope"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(o.stdout.is_empty());
}
