//! Golden-file snapshots of whole interpreter runs.
//!
//! Pins, for every SPEC-model program at scale 1 under Native, GiantSan and
//! ASan and each recovery policy (`Continue`, `Halt`, `recover()`), the
//! run's [`ExecResult::digest`] and every sanitizer counter. A change to the
//! interpreter that alters a checksum, a step count, a report, or the number
//! of checks, shadow loads or cache hits fails here with a readable diff.
//!
//! The same document must come out of every run under a full
//! `TraceRecorder` (tracing never perturbs execution) and under every shadow
//! kernel backend (the backends are interchangeable). The traced path is
//! pinned too: the `trace_digest.txt` that `repro trace --workload figure8
//! --tool giantsan` writes must reproduce `tests/golden/trace_digest.txt`.
//!
//! To regenerate after an *intentional* behaviour change (requires
//! justification in review): `GOLDEN_REGEN=1 cargo test --test golden_runs`.
//!
//! [`ExecResult::digest`]: giantsan::ir::ExecResult::digest

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use giantsan::harness::experiments::trace::TraceEntry;
use giantsan::harness::{BatchRunner, Campaign, RunOutcome, SessionSpec, Study, StudyOpts, Tool};
use giantsan::ir::{CheckPlan, Program};
use giantsan::runtime::{RecoveryPolicy, RuntimeConfig};
use giantsan::shadow::kernel::{self, Backend};
use giantsan::workloads::spec_suite;
use giantsan_telemetry::TraceRecorder;

/// The kernel backend is process-wide state: the backend test holds this
/// for writing while it forces backends, every other test for reading.
static BACKEND: RwLock<()> = RwLock::new(());

fn active_backend() -> RwLockReadGuard<'static, ()> {
    BACKEND.read().unwrap_or_else(PoisonError::into_inner)
}

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
            let plan = tool.builder().spec().plan(&w.program);
            for (label, policy) in &policies {
                let cfg = RuntimeConfig::builder().recovery(*policy).build();
                let spec = tool.builder().config(cfg).spec();
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
    let _backend = active_backend();
    let doc = run_document(SessionSpec::run_planned);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(golden("run_digests.txt"), &doc).unwrap();
        return;
    }
    assert_matches_golden(&doc, "plain runs");
}

#[test]
fn traced_runs_match_golden_digests() {
    let _backend = active_backend();
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
fn runs_match_golden_digests_under_every_kernel_backend() {
    let _exclusive = BACKEND.write().unwrap_or_else(PoisonError::into_inner);
    let restore = kernel::active().backend();
    let docs: Vec<(Backend, String)> = Backend::ALL
        .into_iter()
        .map(|backend| {
            kernel::force(backend);
            (backend, run_document(SessionSpec::run_planned))
        })
        .collect();
    kernel::force(restore);
    for (backend, doc) in docs {
        assert_matches_golden(&doc, &format!("runs under the {} backend", backend.label()));
    }
}

#[test]
fn figure8_trace_matches_golden_digest() {
    let _backend = active_backend();
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
    let (_, got) = out
        .main_artifacts
        .iter()
        .find(|(name, _)| name == "trace_digest.txt")
        .expect("repro trace writes trace_digest.txt");
    let want = std::fs::read_to_string(golden("trace_digest.txt")).unwrap();
    assert_eq!(
        *got, want,
        "traced Figure-8 GiantSan run drifted from tests/golden/trace_digest.txt"
    );
}
