//! Table 2: runtime overhead on the SPEC-like suite, with ablation columns.

use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::spec_suite;

use crate::cost::{geomean, CostModel};
use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::{pct, TextTable};
use crate::tool::{run_tool, Tool};

/// Tool columns in the paper's order (plus the two ablations).
pub const COLUMNS: [Tool; 6] = [
    Tool::GiantSan,
    Tool::Asan,
    Tool::AsanMinusMinus,
    Tool::Lfp,
    Tool::CacheOnly,
    Tool::EliminationOnly,
];

/// One benchmark row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark id (`"519.lbm_r"`).
    pub id: String,
    /// Native modelled time units.
    pub native_units: f64,
    /// Modelled ratio percentage per column tool.
    pub ratios: Vec<f64>,
}

/// The full reproduced table.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-benchmark rows.
    pub rows: Vec<Table2Row>,
    /// Geometric means of the modelled ratios, per column.
    pub geomeans: Vec<f64>,
}

impl Table2 {
    /// Folds [`Table2Entry`]'s records (one per benchmark, in cell order)
    /// into the table.
    pub fn from_records(records: &[Record]) -> Table2 {
        let rows: Vec<Table2Row> = records
            .iter()
            .map(|r| Table2Row {
                id: study::req_str(&r.payload, "id").to_string(),
                native_units: study::req_f64(&r.payload, "native_units"),
                ratios: study::req_f64s(&r.payload, "ratios"),
            })
            .collect();
        let geomeans = (0..COLUMNS.len())
            .map(|i| geomean(&rows.iter().map(|r| r.ratios[i]).collect::<Vec<_>>()))
            .collect();
        Table2 { rows, geomeans }
    }

    /// Renders the table in the paper's layout (modelled ratios).
    pub fn render(&self) -> String {
        let mut headers = vec!["Programs".to_string(), "Native(u)".to_string()];
        headers.extend(COLUMNS.iter().map(|t| format!("{} R", t.name())));
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.id.clone(), format!("{:.0}", r.native_units)];
            cells.extend(r.ratios.iter().map(|v| pct(*v)));
            t.row(cells);
        }
        t.separator();
        let mut cells = vec!["Geometric Means.".to_string(), String::new()];
        cells.extend(self.geomeans.iter().map(|v| pct(*v)));
        t.row(cells);
        t.render()
    }
}

/// `repro table2` as a [`Study`]: one cell per SPEC-like workload, each
/// running the native baseline plus every column tool.
#[derive(Debug, Clone, Copy)]
pub struct Table2Entry;

impl Study for Table2Entry {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(spec_suite(opts.scale)
            .iter()
            .map(|w| w.id.clone())
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let model = CostModel::default();
        let cfg = RuntimeConfig::default();
        let suite = spec_suite(opts.scale);
        let w = &suite[index];
        let native = run_tool(Tool::Native, &w.program, &w.inputs, &cfg);
        let ratios: Vec<f64> = COLUMNS
            .iter()
            .map(|&tool| {
                let out = run_tool(tool, &w.program, &w.inputs, &cfg);
                debug_assert!(
                    out.result.reports.is_empty(),
                    "{}: {} raised reports",
                    w.id,
                    tool.name()
                );
                model.ratio_percent(tool, &native, &out)
            })
            .collect();
        Json::obj()
            .field("id", w.id.as_str())
            .field("native_units", model.native_units(&native))
            .field("ratios", study::f64s(&ratios))
    }

    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let t = Table2::from_records(records);
        Ok(StudyOutput {
            report: format!(
                "== Table 2: runtime overhead on the SPEC-like suite ==\n\
                 (paper geomeans: GiantSan 146.04%, ASan 212.58%, ASan-- 174.89%, LFP 161.76%,\n \
                 CacheOnly 175.63%, EliminationOnly 170.24%)\n\n{}\n",
                t.render()
            ),
            artifacts: vec![("table2.csv".to_string(), crate::csv::table2_csv(&t))],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_the_paper() {
        let t = Table2::from_records(&study::run_all(&Table2Entry, StudyOpts::default()));
        assert_eq!(t.rows.len(), 24);
        let gm: std::collections::HashMap<&str, f64> = COLUMNS
            .iter()
            .zip(t.geomeans.iter())
            .map(|(tool, g)| (tool.name(), *g))
            .collect();
        // The paper's headline ordering: GiantSan < LFP, ASan-- < ASan, all
        // above native.
        assert!(gm["GiantSan"] < gm["ASan--"], "{gm:?}");
        assert!(gm["ASan--"] < gm["ASan"], "{gm:?}");
        assert!(gm["GiantSan"] < gm["LFP"], "{gm:?}");
        assert!(gm["GiantSan"] > 100.0);
        // Ablations fall between full GiantSan and ASan.
        assert!(gm["CacheOnly"] > gm["GiantSan"]);
        assert!(gm["EliminationOnly"] > gm["GiantSan"]);
        assert!(gm["CacheOnly"] < gm["ASan"]);
        assert!(gm["EliminationOnly"] < gm["ASan"]);

        let s = t.render();
        assert!(s.contains("500.perlbench_r"));
        assert!(s.contains("657.xz_s"));
        assert!(s.contains("Geometric Means."));
    }
}
