//! Golden-file snapshots of whole interpreter runs.
//!
//! Pins, for every SPEC-model program at scale 1 under Native, GiantSan and
//! ASan and each recovery policy (`Continue`, `Halt`, `recover()`), the
//! run's [`ExecResult::digest`] and every sanitizer counter. A change to the
//! interpreter that alters a checksum, a step count, a report, or the number
//! of checks, shadow loads or cache hits fails here with a readable diff.
//!
//! The traced path is pinned too: the Figure-8 GiantSan trace study (the
//! data plane `repro trace --workload figure8 --tool giantsan` digests) must
//! reproduce `tests/golden/trace_digest.txt`.
//!
//! To regenerate after an *intentional* behaviour change (requires
//! justification in review): `GOLDEN_REGEN=1 cargo test --test golden_runs`.
//!
//! [`ExecResult::digest`]: giantsan::ir::ExecResult::digest

use std::fmt::Write as _;
use std::path::PathBuf;

use giantsan::harness::experiments::trace::trace_study;
use giantsan::harness::Tool;
use giantsan::runtime::{RecoveryPolicy, RuntimeConfig};
use giantsan::workloads::spec_suite;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// One line per (program, tool, policy): the result digest, then every
/// counter in `Counters::FIELD_NAMES` order.
fn run_document() -> String {
    let policies = [
        ("continue", RecoveryPolicy::Continue),
        ("halt", RecoveryPolicy::Halt),
        ("recover", RecoveryPolicy::recover()),
    ];
    let mut doc = String::new();
    for w in spec_suite(1) {
        for tool in [Tool::Native, Tool::GiantSan, Tool::Asan] {
            let plan = tool.builder().spec().plan(&w.program);
            for (label, policy) in &policies {
                let cfg = RuntimeConfig::builder().recovery(*policy).build();
                let out = tool
                    .builder()
                    .config(cfg)
                    .spec()
                    .run_planned(&w.program, &plan, &w.inputs);
                let _ = write!(
                    doc,
                    "{} {} {label} digest={:#018x}",
                    w.id,
                    tool.name(),
                    out.result.digest()
                );
                for (field, value) in out.counters.fields() {
                    let _ = write!(doc, " {field}={value}");
                }
                doc.push('\n');
            }
        }
    }
    doc
}

#[test]
fn spec_runs_match_golden_digests() {
    let doc = run_document();
    let path = golden("run_digests.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &doc).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    let drift: Vec<String> = want
        .lines()
        .zip(doc.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("golden `{a}`\n   got `{b}`"))
        .collect();
    assert!(
        drift.is_empty() && want.lines().count() == doc.lines().count(),
        "whole-run drift against {} (regenerate only if the behaviour \
         change is intentional: GOLDEN_REGEN=1):\n{}",
        path.display(),
        drift.join("\n")
    );
}

#[test]
fn figure8_trace_matches_golden_digest() {
    let study = trace_study("figure8", Tool::GiantSan, 1).unwrap();
    let want = std::fs::read_to_string(golden("trace_digest.txt")).unwrap();
    assert_eq!(
        study.digest_artifact(),
        want,
        "traced Figure-8 GiantSan run drifted from tests/golden/trace_digest.txt"
    );
}
