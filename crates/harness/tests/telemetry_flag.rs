//! `repro all --telemetry PATH` writes the scheduling record of every
//! study it ran: one Chrome process per study, one `cell` slice per cell
//! and one `shard` slice per study's range, each a well-formed
//! `trace_event`.

use std::process::Command;

use giantsan_harness::json::Json;
use giantsan_harness::{Campaign, StudyOpts, StudyRegistry};

/// The studies `repro all` runs.
const ALL: [&str; 10] = [
    "table2", "fig10", "table3", "table4", "table5", "fig11", "ablation", "plan", "memory",
    "density",
];

#[test]
fn all_writes_every_studys_cells() {
    let path = std::env::temp_dir().join(format!(
        "giantsan-telemetry-all-{}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--threads", "2", "--div", "120", "--scale", "1"])
        .args(["--rounds", "1", "--telemetry"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("--telemetry writes its file");
    let _ = std::fs::remove_file(&path);

    let opts = StudyOpts {
        div: 120,
        scale: 1,
        rounds: 1,
        threads: 2,
        ..StudyOpts::default()
    };
    let registry = StudyRegistry::builtin();
    let cells: usize = ALL
        .iter()
        .map(|name| {
            let study = registry.get(name).expect("registered study");
            Campaign::new(study, opts.clone()).unwrap().labels().len()
        })
        .sum();

    let doc = Json::parse(&text).expect("the trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("a traceEvents array");
    for ev in events {
        for key in ["ph", "ts", "pid"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
        }
    }
    let cat = |c: &str| {
        events
            .iter()
            .filter(|ev| ev.get("cat").and_then(Json::as_str) == Some(c))
            .count()
    };
    assert_eq!(cat("cell"), cells);
    assert_eq!(cat("shard"), ALL.len());
    let processes = events
        .iter()
        .filter(|ev| ev.get("name").and_then(Json::as_str) == Some("process_name"))
        .count();
    assert_eq!(processes, ALL.len());
}
