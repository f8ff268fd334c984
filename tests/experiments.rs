//! Smoke tests over the experiment reproducers: each table/figure builds and
//! exhibits the paper's qualitative claims at reduced scale. Records come
//! from the same `Campaign` path `repro <study>` runs.

use giantsan::harness::experiments::{fig10, fig11, table2, table3, table4, table5};
use giantsan::harness::{BatchRunner, Campaign, Record, Study, StudyOpts, Tool};
use giantsan::workloads::Pattern;

/// Every record of `study` at `opts`, run monolithically.
fn records(study: &dyn Study, opts: StudyOpts) -> Vec<Record> {
    Campaign::new(study, opts)
        .unwrap()
        .run_all(&BatchRunner::default())
}

fn opts() -> StudyOpts {
    StudyOpts {
        scale: 1,
        ..StudyOpts::default()
    }
}

#[test]
fn table2_reproduces_the_headline_ordering() {
    let t = table2::Table2::from_records(&records(&table2::Table2Entry, opts()));
    let col = |tool: Tool| {
        table2::COLUMNS
            .iter()
            .position(|c| *c == tool)
            .expect("column")
    };
    let gm = &t.geomeans;
    // Who wins: GiantSan; by roughly what factor: ASan carries ~2x overhead,
    // GiantSan well under ASan-- and LFP, ablations in between.
    assert!(gm[col(Tool::GiantSan)] < gm[col(Tool::Lfp)]);
    assert!(gm[col(Tool::Lfp)] < gm[col(Tool::Asan)]);
    assert!(gm[col(Tool::GiantSan)] < gm[col(Tool::AsanMinusMinus)]);
    assert!(gm[col(Tool::AsanMinusMinus)] < gm[col(Tool::Asan)]);
    assert!(
        gm[col(Tool::Asan)] > 180.0,
        "ASan ~2x: {}",
        gm[col(Tool::Asan)]
    );
    assert!(gm[col(Tool::GiantSan)] < 160.0);
    // Crossovers: LFP wins a handful of rows (the paper says 5 of 24).
    let lfp_wins = t
        .rows
        .iter()
        .filter(|r| r.ratios[col(Tool::Lfp)] < r.ratios[col(Tool::GiantSan)])
        .count();
    assert!(
        (2..=10).contains(&lfp_wins),
        "LFP should win on a few rows, got {lfp_wins}"
    );
}

#[test]
fn fig10_majority_of_checks_optimised() {
    let f = fig10::Fig10::from_records(&records(&fig10::Fig10Entry, opts()));
    assert!(f.mean_optimised > 0.35 && f.mean_optimised < 0.95);
    // mcf/namd/lbm class kernels: roughly 80%+ optimised (paper §5.2 says
    // "more than 80% of the checks ... are eliminated or cached" there).
    for id in ["505.mcf_r", "508.namd_r", "519.lbm_r"] {
        let row = f.rows.iter().find(|r| r.id == id).unwrap();
        assert!(
            row.cached + row.eliminated >= 0.75,
            "{id}: {:.2}",
            row.cached + row.eliminated
        );
    }
}

#[test]
fn table3_rows_match_paper_at_full_family_shape() {
    let div = 25;
    let t = table3::Table3::from_records(
        div,
        &records(&table3::Table3Entry, StudyOpts { div, ..opts() }),
    )
    .unwrap();
    let lfp = 3usize;
    for r in &t.rows {
        // Location-based tools tie on every row.
        assert_eq!(r.detected[0], r.detected[1], "CWE-{}", r.cwe);
        assert_eq!(r.detected[1], r.detected[2], "CWE-{}", r.cwe);
        assert_eq!(r.false_positives.iter().sum::<u32>(), 0);
        match r.cwe {
            // LFP nearly blind on stack/heap overflow, partial on overread.
            121 | 122 => assert!(r.detected[lfp] * 4 < r.detected[0].max(1)),
            126 => assert!(r.detected[lfp] < r.detected[0]),
            124 | 127 | 416 | 476 | 761 => assert_eq!(r.detected[lfp], r.detected[0]),
            _ => {}
        }
    }
}

#[test]
fn table4_exact_match() {
    let t = table4::Table4::from_records(&records(&table4::Table4Entry, opts()));
    assert!(t.missed_by(Tool::GiantSan).is_empty());
    assert!(t.missed_by(Tool::Asan).is_empty());
    assert_eq!(
        t.missed_by(Tool::Lfp),
        vec!["CVE-2017-12858", "CVE-2017-9165", "CVE-2017-14409"]
    );
}

#[test]
fn table5_php_gaps() {
    let div = 25;
    let t = table5::Table5::from_records(
        div,
        &records(&table5::Table5Entry, StudyOpts { div, ..opts() }),
    )
    .unwrap();
    let php = t.rows.iter().find(|r| r.project == "php").unwrap();
    // Columns: ASan--16, ASan--512, ASan16, ASan512, GiantSan16.
    assert!(php.detected[2] < php.detected[3]);
    assert!(php.detected[3] < php.detected[4]);
    assert_eq!(php.detected[0], php.detected[2]);
    // Projects with no bypass POCs tie across all configurations.
    let png = t.rows.iter().find(|r| r.project == "libpng").unwrap();
    assert!(png.detected.iter().all(|&d| d == png.detected[0]));
}

#[test]
fn fig11_signs() {
    let f = fig11::Fig11::from_records(&records(
        &fig11::Fig11Entry,
        StudyOpts {
            rounds: 1,
            ..opts()
        },
    ));
    assert!(f.speedup_vs_asan(Pattern::Forward) > 1.0);
    assert!(f.speedup_vs_asan(Pattern::Random) > 1.0);
    assert!(f.speedup_vs_asan(Pattern::Reverse) < 1.0);
}
