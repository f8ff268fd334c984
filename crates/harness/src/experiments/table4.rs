//! Table 4: detection of Linux-Flaw-Project-like CVE scenarios.

use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::cve_scenarios;

use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::{run_tool, Tool};

/// Tools of Table 4, in column order.
pub const COLUMNS: [Tool; 4] = [Tool::GiantSan, Tool::Asan, Tool::AsanMinusMinus, Tool::Lfp];

/// One CVE row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Project name.
    pub project: &'static str,
    /// CVE id.
    pub cve: &'static str,
    /// Per-tool detection verdicts.
    pub detected: Vec<bool>,
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Rows in the paper's order.
    pub rows: Vec<Table4Row>,
}

impl Table4 {
    /// Folds [`Table4Entry`]'s records (one per CVE scenario, in cell
    /// order) into the table.
    pub fn from_records(records: &[Record]) -> Table4 {
        // Rows carry `&'static str` labels: recover them from the scenario
        // list (records arrive in scenario order) rather than the payload.
        let scenarios = cve_scenarios();
        let rows = records
            .iter()
            .map(|r| {
                let c = &scenarios[r.index];
                debug_assert_eq!(c.cve, study::req_str(&r.payload, "cve"));
                Table4Row {
                    project: c.project,
                    cve: c.cve,
                    detected: study::req_bools(&r.payload, "detected"),
                }
            })
            .collect();
        Table4 { rows }
    }

    /// Renders the table with ✓/✗ marks like the paper.
    pub fn render(&self) -> String {
        let mut headers = vec!["Program".to_string(), "CVE ID".to_string()];
        headers.extend(COLUMNS.iter().map(|t| t.name().to_string()));
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.project.to_string(), r.cve.to_string()];
            cells.extend(
                r.detected
                    .iter()
                    .map(|d| if *d { "Y" } else { "-" }.to_string()),
            );
            t.row(cells);
        }
        t.render()
    }

    /// The CVEs a given column tool missed.
    pub fn missed_by(&self, tool: Tool) -> Vec<&'static str> {
        let idx = COLUMNS
            .iter()
            .position(|t| *t == tool)
            .expect("tool not in table");
        self.rows
            .iter()
            .filter(|r| !r.detected[idx])
            .map(|r| r.cve)
            .collect()
    }
}

/// `repro table4` as a [`Study`]: one cell per CVE scenario.
#[derive(Debug, Clone, Copy)]
pub struct Table4Entry;

impl Study for Table4Entry {
    fn name(&self) -> &'static str {
        "table4"
    }

    fn cells(&self, _opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(cve_scenarios().iter().map(|c| c.cve.to_string()).collect())
    }

    fn run_cell(&self, _opts: &StudyOpts, index: usize) -> Json {
        let cfg = RuntimeConfig::small();
        let scenarios = cve_scenarios();
        let c = &scenarios[index];
        let detected: Vec<bool> = COLUMNS
            .iter()
            .map(|tool| run_tool(*tool, &c.program, &c.inputs, &cfg).detected())
            .collect();
        Json::obj()
            .field("project", c.project)
            .field("cve", c.cve)
            .field("detected", study::bools(&detected))
    }

    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let t = Table4::from_records(records);
        Ok(StudyOutput {
            report: format!(
                "== Table 4: Linux-Flaw-Project-like CVE detection ==\n\n{}\n",
                t.render()
            ),
            artifacts: vec![("table4.csv".to_string(), crate::csv::table4_csv(&t))],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_rows() {
        let t = Table4::from_records(&study::run_all(&Table4Entry, StudyOpts::default()));
        assert_eq!(t.rows.len(), 25);
        assert!(t.missed_by(Tool::GiantSan).is_empty());
        assert!(t.missed_by(Tool::Asan).is_empty());
        assert!(t.missed_by(Tool::AsanMinusMinus).is_empty());
        assert_eq!(
            t.missed_by(Tool::Lfp),
            vec!["CVE-2017-12858", "CVE-2017-9165", "CVE-2017-14409"]
        );
        let s = t.render();
        assert!(s.contains("CVE-2017-12858"));
        assert!(s
            .lines()
            .any(|l| l.contains("CVE-2017-9165") && l.contains('-')));
    }
}
