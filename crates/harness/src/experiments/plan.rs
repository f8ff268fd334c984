//! Plan provenance study: what the planner decided, per pass and per site.
//!
//! Not a figure from the paper but an observability surface over its
//! compilation phase (§4.4): for each (workload × tool) cell this runs the
//! pass pipeline and records the full [`Analysis`] — per-site fates with the
//! deciding pass and its reasoning, plus per-pass visited / transformed /
//! eliminated counters and wall time. `repro plan` renders the tables and
//! exports both as CSV.

use giantsan_analysis::{analyze, Analysis, SiteFate};
use giantsan_ir::Program;
use giantsan_workloads::{figure8_program, spec_workload};

use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::Tool;

/// Site fates in the summary table's column order.
pub const FATES: [SiteFate; 8] = [
    SiteFate::Direct,
    SiteFate::Anchored,
    SiteFate::MergeLeader,
    SiteFate::MergedAway,
    SiteFate::Promoted,
    SiteFate::Cached,
    SiteFate::MemIntrinsic,
    SiteFate::StaticallySafe,
];

/// The workloads under study: the paper's worked example plus three
/// SPEC-model programs with distinct planner behavior (stencil,
/// pointer-chasing, byte-stream) — the same set the golden plan snapshots
/// lock.
pub const WORKLOADS: [&str; 4] = ["figure8", "519.lbm_r", "505.mcf_r", "557.xz_r"];

/// One (workload × tool) cell: the full analysis result.
#[derive(Debug, Clone)]
pub struct PlanCell {
    /// Workload id.
    pub workload: &'static str,
    /// The analysed tool.
    pub tool: Tool,
    /// The pipeline's output: plan, fates, provenance, pass statistics.
    pub analysis: Analysis,
}

/// One cell of the study as its record carries it: the fate counts plus the
/// pre-rendered text block, JSON subtree and CSV rows, so a merged campaign
/// reassembles every export byte-identically.
#[derive(Debug, Clone)]
pub struct PlanRow {
    /// Workload id.
    pub workload: String,
    /// Tool name.
    pub tool: String,
    /// Site counts in [`FATES`] order.
    pub fates: Vec<u64>,
    /// The cell's section of the text report.
    pub block: String,
    /// The cell's subtree of the JSON document.
    pub json: Json,
    /// The cell's rows of `plan_provenance.csv` (no header).
    pub provenance: String,
    /// The cell's rows of `plan_passes.csv` (no header).
    pub passes: String,
}

/// The study: one row per (workload × tool).
#[derive(Debug, Clone)]
pub struct PlanStudy {
    /// All rows, workload-major in [`WORKLOADS`] / [`Tool::ALL`] order.
    pub rows: Vec<PlanRow>,
}

fn workload_program(id: &str, scale: u64) -> Program {
    if id == "figure8" {
        figure8_program((100 * scale) as i64).0
    } else {
        spec_workload(id, scale)
            .expect("known SPEC-model id")
            .program
    }
}

/// One cell's fate counts in [`FATES`] order.
fn fate_counts_of(cell: &PlanCell) -> Vec<u64> {
    let counts = cell.analysis.fate_counts();
    FATES
        .iter()
        .map(|f| counts.get(f).copied().unwrap_or(0) as u64)
        .collect()
}

/// One cell's detail section of the text report.
fn cell_block(cell: &PlanCell) -> String {
    format!(
        "\n== {} under {} ==\n{}{}",
        cell.workload,
        cell.tool.name(),
        cell.analysis.render_pass_stats(),
        cell.analysis.render_provenance()
    )
}

/// One cell's subtree of the JSON document.
fn cell_json(cell: &PlanCell) -> Json {
    let sites: Vec<Json> = cell
        .analysis
        .fates
        .iter()
        .enumerate()
        .map(|(i, fate)| {
            let mut site = Json::obj()
                .field("site", i)
                .field("fate", format!("{fate:?}"));
            if let Some(p) = &cell.analysis.provenance[i] {
                site = site
                    .field("pass", p.pass.name())
                    .field("reason", p.reason.as_str());
            }
            site
        })
        .collect();
    let passes: Vec<Json> = cell
        .analysis
        .pass_stats
        .iter()
        .map(|p| {
            Json::obj()
                .field("pass", p.pass.name())
                .field("enabled", p.enabled)
                .field("visited", p.visited)
                .field("transformed", p.transformed)
                .field("eliminated", p.eliminated)
        })
        .collect();
    Json::obj()
        .field("workload", cell.workload)
        .field("tool", cell.tool.name())
        .field("sites", sites)
        .field("passes", passes)
}

impl PlanStudy {
    /// Folds [`PlanEntry`]'s records (in cell order) into the study.
    pub fn from_records(records: &[Record]) -> PlanStudy {
        let rows = records
            .iter()
            .map(|r| PlanRow {
                workload: study::req_str(&r.payload, "workload").to_string(),
                tool: study::req_str(&r.payload, "tool").to_string(),
                fates: study::req_u64s(&r.payload, "fates"),
                block: study::req_str(&r.payload, "block").to_string(),
                json: study::req(&r.payload, "json").clone(),
                provenance: study::req_str(&r.payload, "prov").to_string(),
                passes: study::req_str(&r.payload, "passes").to_string(),
            })
            .collect();
        PlanStudy { rows }
    }

    /// Renders a fate-count summary across all cells, then per-cell pass
    /// statistics and the per-site provenance trace.
    pub fn render(&self) -> String {
        let mut head = vec!["workload".to_string(), "tool".to_string()];
        head.extend(FATES.iter().map(|f| format!("{f:?}")));
        let mut t = TextTable::new(head);
        for row in &self.rows {
            let mut cells = vec![row.workload.clone(), row.tool.clone()];
            cells.extend(row.fates.iter().map(|c| c.to_string()));
            t.row(cells);
        }
        let mut out = String::from("-- site fates per (workload, tool) --\n");
        out.push_str(&t.render());
        for row in &self.rows {
            out.push_str(&row.block);
        }
        out
    }

    /// Machine-readable form of the study (`repro plan --format json`).
    pub fn to_json(&self) -> String {
        let cells: Vec<Json> = self.rows.iter().map(|r| r.json.clone()).collect();
        Json::obj()
            .field("study", "plan")
            .field("cells", cells)
            .render()
    }
}

/// `repro plan` as a [`Study`]: one cell per (workload × tool), whose
/// payload carries a [`PlanRow`].
#[derive(Debug, Clone, Copy)]
pub struct PlanEntry;

impl Study for PlanEntry {
    fn name(&self) -> &'static str {
        "plan"
    }

    fn cells(&self, _opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(WORKLOADS
            .iter()
            .flat_map(|w| Tool::ALL.iter().map(move |t| format!("{w}/{}", t.name())))
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let workload = WORKLOADS[index / Tool::ALL.len()];
        let tool = Tool::ALL[index % Tool::ALL.len()];
        let program = workload_program(workload, opts.scale);
        let cell = PlanCell {
            workload,
            tool,
            analysis: analyze(&program, &tool.profile()),
        };
        Json::obj()
            .field("workload", workload)
            .field("tool", tool.name())
            .field("fates", study::u64s(&fate_counts_of(&cell)))
            .field("block", cell_block(&cell))
            .field("json", cell_json(&cell))
            .field("prov", crate::csv::plan_provenance_rows(&cell))
            .field("passes", crate::csv::plan_passes_rows(&cell))
    }

    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let s = PlanStudy::from_records(records);
        Ok(StudyOutput {
            report: format!(
                "== Planner observability: per-pass statistics + site provenance ==\n\n{}\n",
                s.render()
            ),
            json: Some(s.to_json()),
            artifacts: vec![
                (
                    "plan_provenance.csv".to_string(),
                    crate::csv::plan_provenance_csv(&s),
                ),
                (
                    "plan_passes.csv".to_string(),
                    crate::csv::plan_passes_csv(&s),
                ),
            ],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_analysis::PassId;

    fn plan_study() -> PlanStudy {
        PlanStudy::from_records(&study::run_all(&PlanEntry, StudyOpts::default()))
    }

    /// The JSON subtree of one (workload, tool) row.
    fn cell<'a>(s: &'a PlanStudy, workload: &str, tool: Tool) -> &'a Json {
        &s.rows
            .iter()
            .find(|r| r.workload == workload && r.tool == tool.name())
            .unwrap()
            .json
    }

    #[test]
    fn study_covers_the_full_matrix() {
        let s = plan_study();
        assert_eq!(s.rows.len(), WORKLOADS.len() * Tool::ALL.len());
        // Every decided site carries provenance.
        for row in &s.rows {
            for site in study::req_array(&row.json, "sites") {
                if site.get("pass").is_none() {
                    assert_eq!(
                        study::req_str(site, "fate"),
                        "Direct",
                        "{} / {}: a non-default fate but no provenance",
                        row.workload,
                        row.tool
                    );
                }
            }
        }
    }

    #[test]
    fn giantsan_pipeline_is_fully_enabled_and_attributed() {
        let s = plan_study();
        let json = cell(&s, "figure8", Tool::GiantSan);
        for pass in study::req_array(json, "passes") {
            assert_eq!(pass.get("enabled").and_then(Json::as_bool), Some(true));
        }
        let site0 = &study::req_array(json, "sites")[0];
        assert_eq!(study::req_str(site0, "pass"), PassId::Promote.name());
    }

    #[test]
    fn asan_disables_every_optional_pass() {
        let s = plan_study();
        for pass in study::req_array(cell(&s, "519.lbm_r", Tool::Asan), "passes") {
            let name = study::req_str(pass, "pass");
            let id = PassId::PIPELINE
                .into_iter()
                .find(|p| p.name() == name)
                .unwrap();
            if !id.is_structural() {
                assert_eq!(pass.get("enabled").and_then(Json::as_bool), Some(false));
                assert_eq!(study::req_u64(pass, "transformed"), 0, "{name}");
            }
        }
    }

    #[test]
    fn exports_are_deterministic_and_complete() {
        let s = plan_study();
        let j = s.to_json();
        assert!(j.starts_with("{\n  \"study\": \"plan\""));
        assert_eq!(j.matches("\"workload\"").count(), s.rows.len());
        // One site object per fate, one pass object per pipeline stage.
        let total_sites: usize = s
            .rows
            .iter()
            .map(|r| study::req_array(&r.json, "sites").len())
            .sum();
        assert_eq!(j.matches("\"fate\"").count(), total_sites);
        assert_eq!(j.matches("\"enabled\"").count(), s.rows.len() * 9);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // No wall time anywhere, so every export is run-to-run identical.
        let again = plan_study();
        assert_eq!(j, again.to_json());
        assert_eq!(s.render(), again.render());
        for export in [j, s.render(), crate::csv::plan_passes_csv(&s)] {
            assert!(!export.contains("wall"), "{export}");
        }
    }

    #[test]
    fn render_shows_tables_and_traces() {
        let r = plan_study().render();
        assert!(r.contains("site fates per (workload, tool)"));
        assert!(r.contains("== figure8 under GiantSan =="));
        assert!(r.contains("const-prop"));
        assert!(r.contains("[promote"), "{r}");
    }
}
