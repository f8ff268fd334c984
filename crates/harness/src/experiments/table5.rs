//! Table 5: redzone sensitivity on the Magma-like corpus.

use std::collections::HashMap;

use giantsan_ir::CheckPlan;
use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::magma::{magma_cases, magma_templates, PROJECTS};

use crate::batch::BatchRunner;
use crate::json::Json;
use crate::session::SessionSpec;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::Tool;

/// One detection configuration: a tool at a redzone size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The sanitizer.
    pub tool: Tool,
    /// Redzone size in bytes.
    pub redzone: u64,
}

/// The five configurations of Table 5, in the paper's column order.
pub const CONFIGS: [Config; 5] = [
    Config {
        tool: Tool::AsanMinusMinus,
        redzone: 16,
    },
    Config {
        tool: Tool::AsanMinusMinus,
        redzone: 512,
    },
    Config {
        tool: Tool::Asan,
        redzone: 16,
    },
    Config {
        tool: Tool::Asan,
        redzone: 512,
    },
    Config {
        tool: Tool::GiantSan,
        redzone: 16,
    },
];

/// One project row.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Project name.
    pub project: &'static str,
    /// Lines-of-code label from the paper.
    pub loc: &'static str,
    /// Detected POCs per configuration.
    pub detected: Vec<u32>,
    /// Total cases for the project.
    pub total: u32,
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Per-project rows.
    pub rows: Vec<Table5Row>,
    /// Subsampling divisor (1 = full 58,969-case corpus).
    pub divisor: u32,
}

impl Table5 {
    /// Folds [`Table5Entry`]'s records (one per Magma case) into
    /// per-project rows. `divisor` is the `--div` the records were run at.
    pub fn from_records(divisor: u32, records: &[Record]) -> Result<Table5, String> {
        let mut rows: Vec<Table5Row> = PROJECTS
            .iter()
            .map(|&(project, loc, ..)| Table5Row {
                project,
                loc,
                detected: vec![0; CONFIGS.len()],
                total: 0,
            })
            .collect();
        for r in records {
            let project = study::req_str(&r.payload, "project");
            let detected = study::req_bools(&r.payload, "detected");
            let row = rows
                .iter_mut()
                .find(|row| row.project == project)
                .ok_or_else(|| format!("unknown project `{project}`"))?;
            row.total += 1;
            for (i, &d) in detected.iter().enumerate() {
                if d {
                    row.detected[i] += 1;
                }
            }
        }
        Ok(Table5 { rows, divisor })
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut headers = vec!["Project (LoC)".to_string()];
        headers.extend(
            CONFIGS
                .iter()
                .map(|c| format!("{} (rz={})", c.tool.name(), c.redzone)),
        );
        headers.push("Total".to_string());
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![format!("{} ({})", r.project, r.loc)];
            cells.extend(r.detected.iter().map(|d| d.to_string()));
            cells.push(r.total.to_string());
            t.row(cells);
        }
        let mut s = t.render();
        if self.divisor > 1 {
            s.push_str(&format!(
                "(subsampled 1/{}; run with --div 1 for the paper's full counts)\n",
                self.divisor
            ));
        }
        s
    }
}

/// `repro table5` as a [`Study`]: one cell per Magma case.
#[derive(Debug, Clone, Copy)]
pub struct Table5Entry;

impl Study for Table5Entry {
    fn name(&self) -> &'static str {
        "table5"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(magma_cases(opts.div)
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{}/case{i}", c.project))
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        self.run_range(opts, index..index + 1, &BatchRunner::serial())
            .remove(0)
    }

    /// The one verdict loop: plans each (template, configuration) pair the
    /// range uses once, then runs every case under every configuration.
    fn run_range(
        &self,
        opts: &StudyOpts,
        range: std::ops::Range<usize>,
        runner: &BatchRunner,
    ) -> Vec<Json> {
        let templates = magma_templates();
        let cases = magma_cases(opts.div);
        let specs: Vec<SessionSpec> = CONFIGS
            .iter()
            .map(|c| SessionSpec {
                config: RuntimeConfig {
                    redzone: c.redzone,
                    ..RuntimeConfig::small()
                },
                ..SessionSpec::new(c.tool)
            })
            .collect();
        let indices: Vec<usize> = range.collect();
        let mut plans: HashMap<usize, Vec<CheckPlan>> = HashMap::new();
        for &i in &indices {
            let template = cases[i].template;
            plans.entry(template).or_insert_with(|| {
                specs
                    .iter()
                    .map(|s| s.tool.plan(&templates[template]))
                    .collect()
            });
        }
        runner.map(&indices, |_, &i| {
            let case = &cases[i];
            let detected: Vec<bool> = specs
                .iter()
                .zip(&plans[&case.template])
                .map(|(spec, plan)| {
                    spec.run_planned(&templates[case.template], plan, &case.inputs)
                        .detected()
                })
                .collect();
            Json::obj()
                .field("project", case.project)
                .field("detected", study::bools(&detected))
        })
    }

    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let t = Table5::from_records(opts.div, records)?;
        Ok(StudyOutput {
            report: format!(
                "== Table 5: Magma-like redzone study ==\n\n{}\n",
                t.render()
            ),
            artifacts: vec![("table5.csv".to_string(), crate::csv::table5_csv(&t))],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn php_shows_the_redzone_bypass_gap_and_other_projects_tie() {
        let opts = StudyOpts {
            div: 40,
            ..StudyOpts::default()
        };
        let t = Table5::from_records(40, &study::run_all(&Table5Entry, opts)).unwrap();
        let php = t.rows.iter().find(|r| r.project == "php").unwrap();
        let (mm16, mm512, a16, a512, gs) = (
            php.detected[0],
            php.detected[1],
            php.detected[2],
            php.detected[3],
            php.detected[4],
        );
        // ASan and ASan-- agree at the same redzone.
        assert_eq!(mm16, a16);
        assert_eq!(mm512, a512);
        // Bigger redzones catch more; the anchor catches the most.
        assert!(a16 < a512, "rz=512 must beat rz=16 ({a16} vs {a512})");
        assert!(a512 < gs, "GiantSan must beat rz=512 ({a512} vs {gs})");
        assert!(gs < php.total, "non-memory POCs stay undetected");
        // Projects without bypass cases tie across every configuration.
        for r in t.rows.iter().filter(|r| r.project == "libpng") {
            let first = r.detected[0];
            assert!(r.detected.iter().all(|&d| d == first), "{:?}", r.detected);
        }
    }
}
