//! Table 3: detection capability on the Juliet-like suite.

use std::collections::HashMap;

use giantsan_ir::CheckPlan;
use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::juliet::{juliet_suite_scaled, paper_totals};

use crate::batch::BatchRunner;
use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::{run_planned, Tool};

/// Detection tools of Table 3, in column order.
pub const COLUMNS: [Tool; 4] = [Tool::GiantSan, Tool::Asan, Tool::AsanMinusMinus, Tool::Lfp];

/// One CWE row of the table.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// CWE number.
    pub cwe: u32,
    /// Detected cases per column tool.
    pub detected: Vec<u32>,
    /// False positives on the safe twins per column tool (the paper reports
    /// none; this column validates that).
    pub false_positives: Vec<u32>,
    /// Total buggy cases.
    pub total: u32,
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Per-CWE rows, ascending.
    pub rows: Vec<Table3Row>,
    /// Scaling divisor used (1 = the paper's full counts).
    pub divisor: u32,
}

/// Human-readable CWE titles (the paper's row labels).
pub fn cwe_title(cwe: u32) -> &'static str {
    match cwe {
        121 => "Stack Buffer Overflow",
        122 => "Heap Buffer Overflow",
        124 => "Buffer Underwrite",
        126 => "Buffer Overread",
        127 => "Buffer Underread",
        416 => "Use After Free",
        476 => "NULL Pointer Dereference",
        761 => "Free Pointer Not at Start of Buffer",
        _ => "Unknown",
    }
}

impl Table3 {
    /// Folds [`Table3Entry`]'s records (one per Juliet case) into per-CWE
    /// rows. `divisor` is the `--div` the records were run at.
    pub fn from_records(divisor: u32, records: &[Record]) -> Result<Table3, String> {
        let mut rows: Vec<Table3Row> = paper_totals()
            .iter()
            .map(|&(cwe, _)| Table3Row {
                cwe,
                detected: vec![0; COLUMNS.len()],
                false_positives: vec![0; COLUMNS.len()],
                total: 0,
            })
            .collect();
        for r in records {
            let cwe = study::req_u64(&r.payload, "cwe") as u32;
            let buggy = study::req_bools(&r.payload, "buggy");
            let safe = study::req_bools(&r.payload, "safe");
            let row = rows
                .iter_mut()
                .find(|row| row.cwe == cwe)
                .ok_or_else(|| format!("unknown CWE family {cwe}"))?;
            row.total += 1;
            for (t, (&b, &s)) in buggy.iter().zip(&safe).enumerate() {
                if b {
                    row.detected[t] += 1;
                }
                if s {
                    row.false_positives[t] += 1;
                }
            }
        }
        Ok(Table3 { rows, divisor })
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut headers = vec!["CWE ID & Type".to_string()];
        headers.extend(COLUMNS.iter().map(|t| t.name().to_string()));
        headers.push("Total".to_string());
        let mut t = TextTable::new(headers);
        let mut sums = vec![0u32; COLUMNS.len()];
        let mut total = 0u32;
        for r in &self.rows {
            let mut cells = vec![format!("{}: {}", r.cwe, cwe_title(r.cwe))];
            for (i, d) in r.detected.iter().enumerate() {
                cells.push(d.to_string());
                sums[i] += d;
            }
            cells.push(r.total.to_string());
            total += r.total;
            t.row(cells);
        }
        t.separator();
        let mut cells = vec!["Total".to_string()];
        cells.extend(sums.iter().map(|s| s.to_string()));
        cells.push(total.to_string());
        t.row(cells);
        let mut s = t.render();
        let fps: u32 = self
            .rows
            .iter()
            .flat_map(|r| r.false_positives.iter())
            .sum();
        s.push_str(&format!(
            "\nFalse positives on non-buggy twins: {fps} (paper: all tools pass all non-buggy tests)\n"
        ));
        if self.divisor > 1 {
            s.push_str(&format!(
                "(subsampled 1/{}; run with --div 1 for the paper's full counts)\n",
                self.divisor
            ));
        }
        s
    }
}

/// `repro table3` as a [`Study`]: one cell per Juliet case.
#[derive(Debug, Clone, Copy)]
pub struct Table3Entry;

impl Study for Table3Entry {
    fn name(&self) -> &'static str {
        "table3"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(juliet_suite_scaled(opts.div)
            .cases
            .iter()
            .enumerate()
            .map(|(i, c)| format!("cwe{}/case{i}", c.cwe))
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        self.run_range(opts, index..index + 1, &BatchRunner::serial())
            .remove(0)
    }

    /// The one verdict loop: plans each (template, tool) pair the range
    /// uses once — templates are shared across thousands of cases — then
    /// runs every case's buggy and safe twins under every column tool.
    fn run_range(
        &self,
        opts: &StudyOpts,
        range: std::ops::Range<usize>,
        runner: &BatchRunner,
    ) -> Vec<Json> {
        let suite = juliet_suite_scaled(opts.div);
        let cfg = RuntimeConfig::small();
        let indices: Vec<usize> = range.collect();
        let mut plans: HashMap<usize, Vec<CheckPlan>> = HashMap::new();
        for &i in &indices {
            let template = suite.cases[i].template;
            plans.entry(template).or_insert_with(|| {
                let program = &suite.templates[template];
                COLUMNS.iter().map(|tool| tool.plan(program)).collect()
            });
        }
        runner.map(&indices, |_, &i| {
            let case = &suite.cases[i];
            let program = &suite.templates[case.template];
            let (buggy, safe): (Vec<bool>, Vec<bool>) = COLUMNS
                .iter()
                .zip(&plans[&case.template])
                .map(|(&tool, plan)| {
                    let buggy = run_planned(tool, program, plan, &case.buggy_inputs, &cfg);
                    let safe = run_planned(tool, program, plan, &case.safe_inputs, &cfg);
                    (buggy.detected(), safe.detected())
                })
                .unzip();
            Json::obj()
                .field("cwe", case.cwe)
                .field("buggy", study::bools(&buggy))
                .field("safe", study::bools(&safe))
        })
    }

    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let t = Table3::from_records(opts.div, records)?;
        Ok(StudyOutput {
            report: format!("== Table 3: Juliet-like detection ==\n\n{}\n", t.render()),
            artifacts: vec![("table3.csv".to_string(), crate::csv::table3_csv(&t))],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(div: u32) -> Table3 {
        let opts = StudyOpts {
            div,
            ..StudyOpts::default()
        };
        Table3::from_records(div, &study::run_all(&Table3Entry, opts)).unwrap()
    }

    #[test]
    fn subsampled_table_has_paper_shape() {
        let t = table(30);
        // Column indexes.
        let (gs, asan, asanmm, lfp) = (0, 1, 2, 3);
        for r in &t.rows {
            // Location-based tools agree with each other everywhere.
            assert_eq!(r.detected[gs], r.detected[asan], "CWE-{}", r.cwe);
            assert_eq!(r.detected[asan], r.detected[asanmm], "CWE-{}", r.cwe);
            // No tool reports on safe twins.
            assert_eq!(r.false_positives.iter().sum::<u32>(), 0, "CWE-{}", r.cwe);
            match r.cwe {
                121 => assert!(r.detected[lfp] < r.detected[gs] / 4),
                122 => assert!(r.detected[lfp] < r.detected[gs] / 4),
                126 => assert!(r.detected[lfp] < r.detected[gs]),
                124 | 127 | 416 | 476 | 761 => {
                    assert_eq!(r.detected[lfp], r.detected[gs], "CWE-{}", r.cwe)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn run_cell_is_the_range_payload() {
        let opts = StudyOpts {
            div: 120,
            ..StudyOpts::default()
        };
        let range = Table3Entry.run_range(&opts, 3..7, &BatchRunner::new(2));
        for (offset, payload) in range.iter().enumerate() {
            assert_eq!(&Table3Entry.run_cell(&opts, 3 + offset), payload);
        }
    }

    #[test]
    fn render_includes_titles() {
        let s = table(120).render();
        assert!(s.contains("Use After Free"));
        assert!(s.contains("False positives"));
    }
}
