//! Golden-file snapshots of whole interpreter runs.
//!
//! Pins, for every SPEC-model program at scale 1 under Native, GiantSan and
//! ASan and each recovery policy (`Continue`, `Halt`, `recover()`), the
//! run's [`ExecResult::digest`] and every sanitizer counter. A change to the
//! interpreter that alters a checksum, a step count, a report, or the number
//! of checks, shadow loads or cache hits fails here with a readable diff.
//!
//! The same document must come out of every run under a full
//! `TraceRecorder` (tracing never perturbs execution). The traced path is
//! pinned too: the `trace_digest.txt` and `trace_span_digest.txt` that
//! `repro trace --workload figure8 --tool giantsan` writes must reproduce
//! their files under `tests/golden/`, and `trace_metrics_digest.txt` pins the
//! FNV-1a of its `trace_metrics.prom` without the `giantsan_kernel_info`
//! line, so the digest pins what the run did and not the kernel's name.
//!
//! Whole studies are pinned as well: `study_digests.txt` holds
//! `campaign::records_digest` of every cell payload of the studies that
//! build sessions with non-default configurations (`memory`'s per-tool
//! worlds, `ablation`'s option blocks and quarantine caps, `table5`'s
//! redzone sweep), and of the studies whose sessions run in
//! `RuntimeConfig::default()` worlds (`table2`, `fig10`, `fig11`,
//! `density`, at the options of `every_study_is_thread_count_invariant`),
//! and of the detection and planner studies (`table3`, `table4`, `plan`, at
//! the same options), whose buggy programs drive the crash and halt paths.
//! `echo` is pinned at the parameters of the README's service example, and
//! `fuzz` at its 50 seeds of safe and buggy programs. Each line is the
//! `repro` command whose records it digests.
//!
//! To regenerate after an *intentional* behaviour change (requires
//! justification in review): `GOLDEN_REGEN=1 cargo test --test golden_runs`.
//!
//! [`ExecResult::digest`]: giantsan::ir::ExecResult::digest

use std::fmt::Write as _;
use std::path::PathBuf;

use giantsan::harness::campaign::records_digest;
use giantsan::harness::cli::parse_opts;
use giantsan::harness::experiments::trace::TraceEntry;
use giantsan::harness::{
    BatchRunner, Campaign, RunOutcome, SessionSpec, Study, StudyOpts, StudyRegistry, Tool,
};
use giantsan::ir::{CheckPlan, Program};
use giantsan::runtime::{RecoveryPolicy, RuntimeConfig};
use giantsan::workloads::spec_suite;
use giantsan_telemetry::{fnv1a, TraceRecorder};

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// One line per (program, tool, policy): the result digest, then every
/// counter in `Counters::FIELD_NAMES` order. `run` executes one planned
/// session, so the variants below can attach a recorder.
fn run_document(
    mut run: impl FnMut(&SessionSpec, &Program, &CheckPlan, &[i64]) -> RunOutcome,
) -> String {
    let policies = [
        ("continue", RecoveryPolicy::Continue),
        ("halt", RecoveryPolicy::Halt),
        ("recover", RecoveryPolicy::recover()),
    ];
    let mut doc = String::new();
    for w in spec_suite(1) {
        for tool in [Tool::Native, Tool::GiantSan, Tool::Asan] {
            let plan = tool.plan(&w.program);
            for (label, policy) in &policies {
                let spec = SessionSpec {
                    config: RuntimeConfig {
                        recovery: *policy,
                        ..RuntimeConfig::default()
                    },
                    ..SessionSpec::new(tool)
                };
                let out = run(&spec, &w.program, &plan, &w.inputs);
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

/// Fails with a per-line diff unless `doc` equals `run_digests.txt`.
fn assert_matches_golden(doc: &str, what: &str) {
    let path = golden("run_digests.txt");
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
        "{what}: whole-run drift against {} (regenerate only if the \
         behaviour change is intentional: GOLDEN_REGEN=1):\n{}",
        path.display(),
        drift.join("\n")
    );
}

#[test]
fn spec_runs_match_golden_digests() {
    let doc = run_document(SessionSpec::run_planned);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(golden("run_digests.txt"), &doc).unwrap();
        return;
    }
    assert_matches_golden(&doc, "plain runs");
}

#[test]
fn traced_runs_match_golden_digests() {
    let mut events = 0u64;
    let doc = run_document(|spec, program, plan, inputs| {
        let mut rec = TraceRecorder::for_cell(0);
        let out = spec.run_planned_recorded(program, plan, inputs, &mut rec);
        events += rec.events().len() as u64 + rec.dropped();
        out
    });
    assert!(events > 0, "traced runs must capture events");
    assert_matches_golden(&doc, "runs under a TraceRecorder");
}

#[test]
fn figure8_trace_matches_golden_digest() {
    let opts = StudyOpts {
        workload: "figure8".to_string(),
        tool: Tool::GiantSan,
        scale: 1,
        ..StudyOpts::default()
    };
    let records = Campaign::new(&TraceEntry, opts.clone())
        .unwrap()
        .run_all(&BatchRunner::default());
    let out = TraceEntry.render(&opts, &records).unwrap();
    let artifact = |name: &str| -> &str {
        out.main_artifacts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, text)| text.as_str())
            .unwrap_or_else(|| panic!("repro trace writes {name}"))
    };
    for name in ["trace_digest.txt", "trace_span_digest.txt"] {
        let want = std::fs::read_to_string(golden(name)).unwrap();
        assert_eq!(
            artifact(name),
            want,
            "traced Figure-8 GiantSan run drifted from tests/golden/{name}"
        );
    }
    // The exposition minus its kernel-name line, digested like the event
    // stream.
    let prom: String = artifact("trace_metrics.prom")
        .lines()
        .filter(|l| !l.starts_with("giantsan_kernel_info{"))
        .map(|l| format!("{l}\n"))
        .collect();
    let want = std::fs::read_to_string(golden("trace_metrics_digest.txt")).unwrap();
    assert_eq!(
        format!("{:#018x}\n", fnv1a(prom.as_bytes())),
        want,
        "traced Figure-8 GiantSan exposition drifted from tests/golden/trace_metrics_digest.txt"
    );
}

#[test]
fn study_records_match_golden_digests() {
    let registry = StudyRegistry::builtin();
    let mut doc = String::new();
    for command in [
        "memory --div 10",
        "ablation --div 10",
        "table5 --div 60",
        "table2 --div 120 --rounds 1",
        "fig10 --div 120 --rounds 1",
        "fig11 --div 120 --rounds 1",
        "density --div 120 --rounds 1",
        "table3 --div 120 --rounds 1",
        "table4 --div 120 --rounds 1",
        "plan --div 120 --rounds 1",
        "echo --scale 64 --rounds 4 --seed 0x5eed",
        "fuzz --scale 1",
    ] {
        let (name, flags) = command.split_once(' ').unwrap();
        let flags: Vec<String> = flags.split(' ').map(String::from).collect();
        let opts = parse_opts(&flags).expect("valid flags").study;
        let study = registry.get(name).expect("registered study");
        let records = Campaign::new(study, opts)
            .unwrap()
            .run_all(&BatchRunner::default());
        let _ = writeln!(doc, "{command} digest={:#018x}", records_digest(&records));
    }
    let path = golden("study_digests.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &doc).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        doc,
        want,
        "study records drifted from {} (regenerate only if the behaviour \
         change is intentional: GOLDEN_REGEN=1)",
        path.display()
    );
}
