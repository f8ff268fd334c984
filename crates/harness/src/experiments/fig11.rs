//! Figure 11: traversal-pattern cost for Native / GiantSan / ASan.

use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::{figure11_sizes, traversal_program, Pattern};

use crate::cost::CostModel;
use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::{run_tool, Tool};

/// Tools plotted in the figure.
pub const SERIES: [Tool; 3] = [Tool::Native, Tool::GiantSan, Tool::Asan];

/// One (pattern, size) sample.
#[derive(Debug, Clone)]
pub struct Fig11Point {
    /// Buffer size in bytes.
    pub size: u64,
    /// Modelled time units per tool, in [`SERIES`] order.
    pub units: Vec<f64>,
}

/// One pattern's series.
#[derive(Debug, Clone)]
pub struct Fig11Series {
    /// Traversal pattern.
    pub pattern: Pattern,
    /// Samples across buffer sizes.
    pub points: Vec<Fig11Point>,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// One series per pattern (forward, random, reverse).
    pub series: Vec<Fig11Series>,
}

impl Fig11 {
    /// Folds [`Fig11Entry`]'s records (pattern-major, in cell order) into
    /// the figure's three series.
    pub fn from_records(records: &[Record]) -> Fig11 {
        let sizes = figure11_sizes();
        let points: Vec<Fig11Point> = records
            .iter()
            .map(|r| Fig11Point {
                size: study::req_u64(&r.payload, "size"),
                units: study::req_f64s(&r.payload, "units"),
            })
            .collect();
        let series = Pattern::ALL
            .iter()
            .enumerate()
            .map(|(pi, &pattern)| Fig11Series {
                pattern,
                points: points[pi * sizes.len()..(pi + 1) * sizes.len()].to_vec(),
            })
            .collect();
        Fig11 { series }
    }

    /// Mean modelled GiantSan/ASan cost ratio for one pattern (the paper's
    /// 1.48× faster random, 1.07× faster forward, 1.39× slower reverse).
    pub fn speedup_vs_asan(&self, pattern: Pattern) -> f64 {
        let s = self
            .series
            .iter()
            .find(|s| s.pattern == pattern)
            .expect("pattern missing");
        let ratios: Vec<f64> = s
            .points
            .iter()
            .map(|p| p.units[2] / p.units[1]) // ASan / GiantSan
            .collect();
        crate::cost::geomean(&ratios.iter().map(|r| r * 100.0).collect::<Vec<_>>()) / 100.0
    }

    /// Renders all three panels.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            out.push_str(&format!("\n({}) traversal\n", s.pattern.name()));
            let mut headers = vec!["Buffer".to_string()];
            headers.extend(SERIES.iter().map(|t| format!("{} (units)", t.name())));
            let mut t = TextTable::new(headers);
            for p in &s.points {
                let mut cells = vec![format!("{} KB", p.size / 1024)];
                cells.extend(p.units.iter().map(|u| format!("{u:.0}")));
                t.row(cells);
            }
            out.push_str(&t.render());
            out.push_str(&format!(
                "GiantSan vs ASan (modelled): {:.2}x\n",
                self.speedup_vs_asan(s.pattern)
            ));
        }
        out
    }
}

/// `repro fig11` as a [`Study`]: one cell per (pattern, size) sample,
/// pattern-major like the figure's panels.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Entry;

impl Study for Fig11Entry {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn cells(&self, _opts: &StudyOpts) -> Result<Vec<String>, String> {
        let sizes = figure11_sizes();
        Ok(Pattern::ALL
            .iter()
            .flat_map(|p| sizes.iter().map(move |s| format!("{}/{s}", p.name())))
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let model = CostModel::default();
        let cfg = RuntimeConfig::default();
        let sizes = figure11_sizes();
        let pattern = Pattern::ALL[index / sizes.len()];
        let size = sizes[index % sizes.len()];
        let (prog, inputs) = traversal_program(pattern, size, opts.rounds);
        let units: Vec<f64> = SERIES
            .iter()
            .map(|&tool| {
                let out = run_tool(tool, &prog, &inputs, &cfg);
                assert!(
                    out.result.reports.is_empty(),
                    "{pattern:?}/{size}: {} raised reports",
                    tool.name()
                );
                model.native_units(&out) + model.extra_units(tool, &out.counters)
            })
            .collect();
        Json::obj()
            .field("pattern", pattern.name())
            .field("size", size)
            .field("units", study::f64s(&units))
    }

    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let f = Fig11::from_records(records);
        Ok(StudyOutput {
            report: format!(
                "== Figure 11: traversal patterns ==\n(paper: GiantSan 1.48x faster random, \
                 1.07x faster forward, 1.39x slower reverse)\n{}\n",
                f.render()
            ),
            artifacts: vec![("fig11.csv".to_string(), crate::csv::fig11_csv(&f))],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_section_5_4() {
        // The paper's wall-clock ratios are 1.48× (random), 1.07× (forward),
        // 0.72× (reverse, i.e. 1.39× slower). A locality-free cost model
        // cannot reproduce the random-vs-forward gap (it comes from cache
        // misses on ASan's shadow loads), but the signs must match: GiantSan
        // wins both cache-friendly patterns and loses the reverse one.
        let opts = StudyOpts {
            rounds: 1,
            ..StudyOpts::default()
        };
        let f = Fig11::from_records(&study::run_all(&Fig11Entry, opts));
        let forward = f.speedup_vs_asan(Pattern::Forward);
        let random = f.speedup_vs_asan(Pattern::Random);
        let reverse = f.speedup_vs_asan(Pattern::Reverse);
        assert!(forward > 1.0, "forward {forward:.2}");
        assert!(random > 1.0, "random {random:.2}");
        assert!(
            reverse < 1.0,
            "reverse must be GiantSan's weak spot: {reverse:.2}"
        );
        // Costs grow with buffer size.
        for s in &f.series {
            for w in s.points.windows(2) {
                assert!(
                    w[1].units[1] > w[0].units[1],
                    "{:?}: non-monotonic",
                    s.pattern
                );
            }
        }
    }
}
