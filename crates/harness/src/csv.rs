//! CSV export of experiment results (for plotting outside the repo).
//!
//! Each experiment type knows how to serialise itself into a simple RFC-4180
//! CSV (no external dependency needed — all fields are numeric or
//! identifier-shaped).

use std::fmt::Write as _;

use crate::experiments::{fig10::Fig10, fig11::Fig11, table2::Table2, table3::Table3};
use crate::experiments::{table2, table3 as t3, table4 as t4, table5 as t5};
use crate::experiments::{table4::Table4, table5::Table5};

fn esc(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serialises Table 2 (one row per benchmark, one column per tool ratio).
pub fn table2_csv(t: &Table2) -> String {
    let mut out = String::from("program,native_units");
    for tool in table2::COLUMNS {
        let _ = write!(out, ",{}_ratio_pct", tool.name().replace('-', "m"));
    }
    out.push('\n');
    for r in &t.rows {
        let _ = write!(out, "{},{:.1}", esc(&r.id), r.native_units);
        for v in &r.ratios {
            let _ = write!(out, ",{v:.2}");
        }
        out.push('\n');
    }
    let _ = write!(out, "geomean,");
    for v in &t.geomeans {
        let _ = write!(out, ",{v:.2}");
    }
    out.push('\n');
    out
}

/// Serialises Figure 10 (fractions per category).
pub fn fig10_csv(f: &Fig10) -> String {
    let mut out = String::from("program,full_check,fast_only,cached,eliminated\n");
    for r in &f.rows {
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{:.4},{:.4}",
            esc(&r.id),
            r.full_check,
            r.fast_only,
            r.cached,
            r.eliminated
        );
    }
    out
}

/// Serialises Table 3 (detections per CWE per tool).
pub fn table3_csv(t: &Table3) -> String {
    let mut out = String::from("cwe");
    for tool in t3::COLUMNS {
        let _ = write!(out, ",{}", tool.name().replace('-', "m"));
    }
    out.push_str(",total\n");
    for r in &t.rows {
        let _ = write!(out, "{}", r.cwe);
        for d in &r.detected {
            let _ = write!(out, ",{d}");
        }
        let _ = writeln!(out, ",{}", r.total);
    }
    out
}

/// Serialises Table 4 (one row per CVE, 1 = detected).
pub fn table4_csv(t: &Table4) -> String {
    let mut out = String::from("project,cve");
    for tool in t4::COLUMNS {
        let _ = write!(out, ",{}", tool.name().replace('-', "m"));
    }
    out.push('\n');
    for r in &t.rows {
        let _ = write!(out, "{},{}", esc(r.project), esc(r.cve));
        for d in &r.detected {
            let _ = write!(out, ",{}", *d as u8);
        }
        out.push('\n');
    }
    out
}

/// Serialises Table 5 (detections per project per configuration).
pub fn table5_csv(t: &Table5) -> String {
    let mut out = String::from("project");
    for c in t5::CONFIGS {
        let _ = write!(out, ",{}_rz{}", c.tool.name().replace('-', "m"), c.redzone);
    }
    out.push_str(",total\n");
    for r in &t.rows {
        let _ = write!(out, "{}", esc(r.project));
        for d in &r.detected {
            let _ = write!(out, ",{d}");
        }
        let _ = writeln!(out, ",{}", r.total);
    }
    out
}

/// Header of the plan-provenance CSV.
const PLAN_PROVENANCE_HEADER: &str = "workload,tool,site,fate,pass,reason\n";

/// Header of the plan per-pass statistics CSV.
const PLAN_PASSES_HEADER: &str = "workload,tool,pass,enabled,visited,transformed,eliminated\n";

/// The provenance rows of one plan cell (no header) — the unit campaign
/// shards store, so a merged CSV concatenates byte-identically.
pub fn plan_provenance_rows(cell: &crate::experiments::plan::PlanCell) -> String {
    let mut out = String::new();
    for (i, fate) in cell.analysis.fates.iter().enumerate() {
        let (pass, reason) = match &cell.analysis.provenance[i] {
            Some(p) => (p.pass.name(), p.reason.as_str()),
            None => ("-", "-"),
        };
        let _ = writeln!(
            out,
            "{},{},{},{:?},{},{}",
            esc(cell.workload),
            esc(cell.tool.name()),
            i,
            fate,
            pass,
            esc(reason)
        );
    }
    out
}

/// The per-pass statistics rows of one plan cell (no header).
pub fn plan_passes_rows(cell: &crate::experiments::plan::PlanCell) -> String {
    let mut out = String::new();
    for p in &cell.analysis.pass_stats {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            esc(cell.workload),
            esc(cell.tool.name()),
            p.pass.name(),
            p.enabled as u8,
            p.visited,
            p.transformed,
            p.eliminated
        );
    }
    out
}

/// Serialises the plan study's provenance traces (one row per site per
/// (workload, tool) cell: fate, deciding pass, recorded reasoning).
pub fn plan_provenance_csv(s: &crate::experiments::plan::PlanStudy) -> String {
    let mut out = String::from(PLAN_PROVENANCE_HEADER);
    for row in &s.rows {
        out.push_str(&row.provenance);
    }
    out
}

/// Serialises the plan study's per-pass statistics (one row per pipeline
/// stage per (workload, tool) cell).
pub fn plan_passes_csv(s: &crate::experiments::plan::PlanStudy) -> String {
    let mut out = String::from(PLAN_PASSES_HEADER);
    for row in &s.rows {
        out.push_str(&row.passes);
    }
    out
}

/// Serialises the fault-injection campaign (one row per cell: label,
/// verdict, interpreter digest, recovery counters).
pub fn faults_csv(s: &crate::experiments::fault_study::FaultStudy) -> String {
    let mut out = String::from("cell,verdict,result_digest,errors_recovered,errors_suppressed\n");
    for o in &s.outcomes {
        let _ = writeln!(
            out,
            "{},{},{:#018x},{},{}",
            esc(&o.label),
            o.verdict.name(),
            o.result_digest,
            o.errors_recovered,
            o.errors_suppressed
        );
    }
    out
}

/// Serialises per-cell sanitizer counters of a trace study's runs.
///
/// The header is driven by [`Counters::FIELD_NAMES`] — the single
/// authoritative exporter field list — so a counter added to the struct
/// (with its pinning test) appears here without touching this function.
///
/// [`Counters::FIELD_NAMES`]: giantsan_runtime::Counters::FIELD_NAMES
pub fn trace_counters_csv(runs: &[crate::experiments::trace::TraceRun]) -> String {
    let mut out = String::from("cell");
    for name in giantsan_runtime::Counters::FIELD_NAMES {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    for run in runs {
        let _ = write!(out, "{}", run.cell);
        for v in run.counters.field_values() {
            let _ = write!(out, ",{v}");
        }
        out.push('\n');
    }
    out
}

/// Serialises Figure 11 (modelled units per pattern/size/tool).
pub fn fig11_csv(f: &Fig11) -> String {
    let mut out = String::from("pattern,size_bytes,tool,model_units\n");
    for s in &f.series {
        for p in &s.points {
            for (i, tool) in crate::experiments::fig11::SERIES.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{},{},{},{:.1}",
                    s.pattern.name(),
                    p.size,
                    tool.name().replace('-', "m"),
                    p.units[i]
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig10::Fig10Entry, plan, table4::Table4Entry, trace};
    use crate::study::{self, StudyOpts};

    #[test]
    fn table4_csv_round_trips_structure() {
        let t = Table4::from_records(&study::run_all(&Table4Entry, StudyOpts::default()));
        let csv = table4_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), t.rows.len() + 1);
        assert!(lines[0].starts_with("project,cve,GiantSan"));
        // The libzip row shows LFP's miss as a 0.
        let libzip = lines.iter().find(|l| l.contains("libzip")).unwrap();
        assert!(libzip.ends_with(",1,1,1,0"), "{libzip}");
    }

    #[test]
    fn escaping_quotes_and_commas() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a,b"), "\"a,b\"");
        assert_eq!(esc("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn plan_csvs_cover_every_cell() {
        let s =
            plan::PlanStudy::from_records(&study::run_all(&plan::PlanEntry, StudyOpts::default()));
        let prov = plan_provenance_csv(&s);
        let total_sites: usize = s
            .rows
            .iter()
            .map(|r| study::req_array(&r.json, "sites").len())
            .sum();
        assert_eq!(prov.lines().count(), total_sites + 1);
        assert!(prov.starts_with("workload,tool,site,fate,pass,reason"));
        assert!(
            prov.contains("figure8,GiantSan,0,Promoted,promote"),
            "{prov}"
        );
        let passes = plan_passes_csv(&s);
        assert_eq!(passes.lines().count(), s.rows.len() * 9 + 1);
        assert!(passes.contains("figure8,GiantSan,cache,1,"), "{passes}");
    }

    #[test]
    fn trace_counters_csv_uses_the_canonical_field_list() {
        use giantsan_runtime::Counters;
        let records = study::run_all(&trace::TraceEntry, StudyOpts::default());
        let runs = trace::TraceData::from_records(&records).runs;
        let csv = trace_counters_csv(&runs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), runs.len() + 1);
        assert_eq!(
            lines[0],
            format!("cell,{}", Counters::FIELD_NAMES.join(","))
        );
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), Counters::FIELD_NAMES.len() + 1);
        }
    }

    #[test]
    fn fig10_csv_has_all_rows() {
        let f = Fig10::from_records(&study::run_all(&Fig10Entry, StudyOpts::default()));
        let csv = fig10_csv(&f);
        assert_eq!(csv.lines().count(), f.rows.len() + 1);
        assert!(csv.contains("519.lbm_r"));
    }
}
