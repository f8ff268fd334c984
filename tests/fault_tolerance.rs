//! End-to-end fault-tolerance tests: the `repro faults` campaign is
//! thread-invariant and panic-free, recover mode contains what it reports,
//! quarantine exhaustion degrades to a documented miss (never a crash), and
//! error reports compose with `std::error::Error` consumers.

use proptest::prelude::*;

use giantsan::harness::experiments::fault_study::{fault_matrix, FaultStudy, FaultsEntry, Verdict};
use giantsan::harness::{BatchRunner, Campaign, FaultKind, FaultPlan, StudyOpts, Tool};
use giantsan::ir::Termination;
use giantsan::runtime::{RecoveryPolicy, RuntimeConfig};
use giantsan::workloads::fuzz::InjectedBug;

/// The `repro faults` campaign at `seed` on `threads` workers.
fn fault_study(threads: usize, seed: u64) -> FaultStudy {
    let opts = StudyOpts {
        seed,
        ..StudyOpts::default()
    };
    let records = Campaign::new(&FaultsEntry, opts)
        .unwrap()
        .run_all(&BatchRunner::new(threads));
    FaultStudy::from_records(seed, &records).unwrap()
}

fn recover_config() -> RuntimeConfig {
    RuntimeConfig::small()
        .to_builder()
        .recovery(RecoveryPolicy::recover())
        .build()
}

/// The CI campaign's fixed-seed digest is identical at 1, 2, and 8 workers,
/// with zero harness panics — the batch engine's isolation plus the plan
/// derivation's schedule-independence, observed end to end.
#[test]
fn fault_campaign_digest_is_thread_invariant() {
    let studies: Vec<FaultStudy> = [1usize, 2, 8]
        .iter()
        .map(|&t| fault_study(t, 0x9aa2_c0de))
        .collect();
    for s in &studies {
        assert_eq!(s.harness_panics, 0, "no cell may panic the harness");
        assert_eq!(s.outcomes.len(), studies[0].outcomes.len());
    }
    assert_eq!(studies[0].digest(), studies[1].digest());
    assert_eq!(studies[0].digest(), studies[2].digest());
}

/// The full CI matrix holds at least 1000 injected-fault cells.
#[test]
fn full_matrix_meets_the_campaign_floor() {
    assert!(fault_matrix(5).len() >= 1000);
}

/// Under recover mode, a metadata bit flip on GiantSan is contained: the
/// run reports (fails closed) or finishes clean, but never aborts the
/// interpreter and never panics.
#[test]
fn bit_flips_are_contained_not_fatal() {
    for seed in 0..8 {
        let plan = FaultPlan::new(seed).with_event(
            FaultKind::ShadowBitFlip {
                byte_offset: seed % 48,
                bit: (seed % 8) as u8,
            },
            seed % 3,
        );
        let fp = giantsan::workloads::fuzz::safe_program(seed);
        let out = Tool::GiantSan
            .builder()
            .config(recover_config())
            .faults(plan)
            .spec()
            .run(&fp.program, &fp.inputs);
        assert!(
            matches!(out.result.termination, Termination::Finished),
            "seed {seed}: {:?}",
            out.result.termination
        );
        // Containment accounting: anything reported was also recovered.
        assert_eq!(
            out.result.reports.len() as u64,
            out.counters.errors_recovered,
            "seed {seed}"
        );
    }
}

/// An [`giantsan::runtime::ErrorReport`] flows through `std::error::Error`
/// consumers (boxing, `source()`, `Display`).
#[test]
fn error_report_is_a_std_error() {
    let fp = giantsan::workloads::fuzz::buggy_program(0, InjectedBug::OverflowNear);
    let out = Tool::GiantSan
        .builder()
        .config(RuntimeConfig::small())
        .spec()
        .run(&fp.program, &fp.inputs);
    let report = out
        .result
        .reports
        .first()
        .expect("overflow detected")
        .clone();
    let boxed: Box<dyn std::error::Error> = Box::new(report);
    assert!(!boxed.to_string().is_empty());
    assert!(boxed.source().is_none(), "reports are root causes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quarantine exhaustion under recover mode: a use-after-free is flagged
    /// while the freed block is still quarantined; once churn evicts and
    /// recycles it the miss is *documented* (the run completes, reports may
    /// be empty) — but no cap, however small, may panic or crash the run.
    #[test]
    fn quarantine_exhaustion_degrades_to_documented_miss(
        seed in 0u64..64,
        cap in 0u64..200_000,
    ) {
        let plan = FaultPlan::new(seed)
            .with_event(FaultKind::QuarantineExhaustion { cap }, 0);
        let fp = giantsan::workloads::fuzz::buggy_program(seed, InjectedBug::UseAfterFree);
        let out = Tool::GiantSan
            .builder()
            .config(recover_config())
            .faults(plan)
            .spec()
            .run(&fp.program, &fp.inputs);
        // Never a crash: the access is contained or the block was recycled.
        prop_assert!(
            matches!(out.result.termination, Termination::Finished),
            "cap {cap}: {:?}", out.result.termination
        );
        // A roomy quarantine always keeps the stale block poisoned long
        // enough to flag the dangling read.
        if cap >= 100_000 {
            prop_assert!(
                !out.result.reports.is_empty(),
                "cap {cap} seed {seed}: UAF must be flagged while quarantined"
            );
        }
    }

}

/// Whatever fault is armed, the campaign verdicts partition cleanly: every
/// cell lands in exactly one bucket and safe workloads never produce
/// `Missed` (that verdict is reserved for masked bugs).
#[test]
fn verdicts_partition_the_matrix() {
    for campaign_seed in [0u64, 3, 11] {
        let s = fault_study(4, campaign_seed);
        assert_eq!(s.harness_panics, 0);
        for o in &s.outcomes {
            if o.label.contains("fuzz-safe") {
                assert!(
                    o.verdict != Verdict::Missed,
                    "{}: safe cells cannot miss",
                    o.label
                );
            }
        }
    }
}
