//! Serial-vs-parallel determinism: the batch engine's core contract.
//!
//! The `BatchRunner` promises that results are a function of the cell
//! matrix alone — never of the thread count or of scheduling order. These
//! tests run every registered study (through the same `Campaign` path
//! `repro`, sharded campaigns and the service take) serially and with a
//! 4-worker pool and require identical records and byte-identical rendered
//! exports.

use giantsan::baselines::asan::{codes as asan_codes, Asan};
use giantsan::core::{encoding, GiantSan};
use giantsan::harness::campaign::{records_digest, Campaign};
use giantsan::harness::experiments::{table2, table3, table4, table5, trace};
use giantsan::harness::{
    csv, BatchRunner, Record, SessionSpec, Study, StudyOpts, StudyRegistry, Tool,
};
use giantsan::ir::{Expr, Program, ProgramBuilder};
use giantsan::runtime::{Counters, RuntimeConfig};
use giantsan::workloads::fuzz::{buggy_program, InjectedBug};

/// Every record of `study` at `opts`, run monolithically on `runner`.
fn records(study: &dyn Study, opts: StudyOpts, runner: &BatchRunner) -> Vec<Record> {
    Campaign::new(study, opts).unwrap().run_all(runner)
}

/// The named artifact of a rendered study.
fn artifact<'a>(artifacts: &'a [(String, String)], name: &str) -> &'a str {
    artifacts
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| c.as_str())
        .unwrap_or_else(|| panic!("missing artifact {name}"))
}

#[test]
fn table2_csv_is_byte_identical_across_thread_counts() {
    let opts = StudyOpts {
        scale: 1,
        ..StudyOpts::default()
    };
    let table2_csv = |runner: &BatchRunner| {
        let recs = records(&table2::Table2Entry, opts.clone(), runner);
        csv::table2_csv(&table2::Table2::from_records(&recs))
    };
    let serial = table2_csv(&BatchRunner::serial());
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            table2_csv(&BatchRunner::new(threads)),
            "{threads} threads"
        );
    }
}

#[test]
fn detection_tables_are_thread_count_invariant() {
    let runner4 = BatchRunner::new(4);
    let with_div = |div| StudyOpts {
        div,
        ..StudyOpts::default()
    };

    let t3 = |runner: &BatchRunner| {
        let recs = records(&table3::Table3Entry, with_div(40), runner);
        csv::table3_csv(&table3::Table3::from_records(40, &recs).unwrap())
    };
    assert_eq!(t3(&BatchRunner::serial()), t3(&runner4));

    let t4 = |runner: &BatchRunner| {
        let recs = records(&table4::Table4Entry, StudyOpts::default(), runner);
        csv::table4_csv(&table4::Table4::from_records(&recs))
    };
    assert_eq!(t4(&BatchRunner::serial()), t4(&runner4));

    let t5 = |runner: &BatchRunner| {
        let recs = records(&table5::Table5Entry, with_div(60), runner);
        csv::table5_csv(&table5::Table5::from_records(60, &recs).unwrap())
    };
    assert_eq!(t5(&BatchRunner::serial()), t5(&runner4));
}

#[test]
fn telemetry_data_plane_is_thread_count_invariant() {
    // The telemetry layer's determinism contract: the JSONL event stream,
    // its FNV-1a digest, the histograms (in the Prometheus exposition) and
    // the counters CSV are byte-identical at any thread count. Only the
    // Chrome trace — the presentation plane — may (and does) differ.
    for (workload, tool) in [
        ("figure8", Tool::GiantSan),
        ("figure8", Tool::Asan),
        ("519.lbm_r", Tool::GiantSan),
    ] {
        let opts = StudyOpts {
            workload: workload.to_string(),
            tool,
            scale: 1,
            ..StudyOpts::default()
        };
        let render = |runner: &BatchRunner| {
            let recs = records(&trace::TraceEntry, opts.clone(), runner);
            // The data plane spans both file sets `repro trace` writes.
            let out = trace::TraceEntry.render(&opts, &recs).unwrap();
            [out.main_artifacts, out.artifacts].concat()
        };
        let serial = render(&BatchRunner::serial());
        for threads in [2, 4] {
            let parallel = render(&BatchRunner::new(threads));
            let tag = format!("{workload} / {} / {threads} threads", tool.name());
            for name in [
                "trace_events.jsonl",
                "trace_digest.txt",
                "trace_metrics.prom",
                "trace_counters.csv",
            ] {
                assert_eq!(
                    artifact(&serial, name),
                    artifact(&parallel, name),
                    "{tag}: {name}"
                );
            }
        }
    }
}

#[test]
fn every_study_is_thread_count_invariant() {
    let small = StudyOpts {
        div: 120,
        scale: 1,
        rounds: 1,
        ..StudyOpts::default()
    };
    let registry = StudyRegistry::builtin();
    for name in registry.names() {
        let opts = small.clone();
        let study = registry.get(name).expect("registered study");
        let campaign = Campaign::new(study, opts.clone()).unwrap();
        let serial = campaign.run_all(&BatchRunner::serial());
        let parallel = campaign.run_all(&BatchRunner::new(4));
        let tag = format!("{name} ({} / {})", opts.workload, opts.tool.name());
        assert_eq!(
            records_digest(&serial),
            records_digest(&parallel),
            "{tag}: payloads differ between 1 and 4 workers"
        );
        // Everything the study writes — CSVs, digests, the trace JSONL,
        // Prometheus exposition and span chain, the JSON document — is
        // byte-identical too.
        let a = study.render(&opts, &serial).unwrap();
        let b = study.render(&opts, &parallel).unwrap();
        assert_eq!(a.artifacts, b.artifacts, "{tag}");
        assert_eq!(a.main_artifacts, b.main_artifacts, "{tag}");
        assert_eq!(a.json, b.json, "{tag}");
        assert_eq!(a.report, b.report, "{tag}");
    }
}

/// A Native program that writes nothing and loads every word of the first
/// 64 KiB of the heap and of the 2 KiB around its first stack slot, where
/// the fuzz programs place their objects and land their wild stores. Under
/// Native no load is checked, so its checksum folds whatever bytes the
/// world started with: 0 in a fresh world.
fn stale_byte_probe() -> Program {
    let mut b = ProgramBuilder::new("stale-byte-probe");
    let heap = b.alloc_heap(8);
    b.for_loop(0i64, 8192i64, |b, i| {
        b.load_discard(heap, Expr::var(i) * 8, 8);
    });
    b.frame(|b| {
        let slot = b.alloc_stack(16);
        b.for_loop(0i64, 256i64, |b, i| {
            b.load_discard(slot, Expr::var(i) * 8 - 1024, 8);
        });
    });
    b.build()
}

/// Builds a default GiantSan world, then a default ASan one, on this thread
/// and checks that every shadow segment of each reads as its tool's fill
/// byte. Both tools take the shadow buffer the last large world left
/// behind, so this covers the handoff in each direction.
fn assert_fresh_shadows(after: &str) {
    let giantsan = GiantSan::new(RuntimeConfig::default());
    let shadow = giantsan.shadow();
    assert!(
        shadow.view(0, shadow.len()).all_eq(encoding::UNALLOCATED),
        "GiantSan's shadow after {after} is not fresh"
    );
    drop(giantsan);
    let asan = Asan::new(RuntimeConfig::default());
    let shadow = asan.shadow();
    assert!(
        shadow.view(0, shadow.len()).all_eq(asan_codes::UNALLOCATED),
        "ASan's shadow after {after} is not fresh"
    );
}

/// A session in a recycled arena behaves exactly like one in a fresh arena.
///
/// `RuntimeConfig::default()` worlds are large enough that a dropped
/// session's address space and shadow are reset and reused by the next
/// session on the same thread, whatever its tool. Every injected bug's wild
/// stores land in that space (under Native nothing stops them). Each session
/// is followed by the [`stale_byte_probe`], which must read only zeros, and
/// by a fresh GiantSan and a fresh ASan world whose shadows must read only
/// their fill bytes ([`assert_fresh_shadows`]). The same sessions run
/// forward, then backward on the same thread (so each follows a different
/// session), then forward on a fresh thread, whose first arena is fresh;
/// every result digest and counter must agree.
#[test]
fn recycled_arenas_are_indistinguishable_from_fresh_ones() {
    fn sessions(reverse: bool) -> Vec<(u64, Counters)> {
        let probe = stale_byte_probe();
        let mut cases: Vec<_> = (0..2u64)
            .flat_map(|seed| InjectedBug::ALL.map(|bug| buggy_program(seed, bug)))
            .flat_map(|fp| Tool::ALL.map(|tool| (tool, fp.clone())))
            .collect();
        if reverse {
            cases.reverse();
        }
        let mut out: Vec<_> = cases
            .iter()
            .map(|(tool, fp)| {
                let o = SessionSpec::new(*tool).run(&fp.program, &fp.inputs);
                let after = SessionSpec::new(Tool::Native).run(&probe, &[]);
                assert_eq!(
                    after.result.checksum,
                    0,
                    "{} under {} left bytes behind",
                    fp.program.name,
                    tool.name()
                );
                assert_fresh_shadows(&format!("{} under {}", fp.program.name, tool.name()));
                (o.result.digest(), o.counters)
            })
            .collect();
        if reverse {
            out.reverse();
        }
        out
    }
    let first = sessions(false);
    assert_eq!(sessions(true), first, "backward on the same thread");
    let fresh = std::thread::spawn(|| sessions(false)).join().unwrap();
    assert_eq!(fresh, first, "forward on a fresh thread");
}
