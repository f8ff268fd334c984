//! Figure 10: proportion of memory instructions per optimisation category.

use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::spec_suite;

use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::{run_tool, Tool};

/// The dynamic check breakdown of one benchmark under GiantSan.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark id.
    pub id: String,
    /// Fraction of memory instructions that needed fast + slow checks.
    pub full_check: f64,
    /// Fraction where the fast check alone sufficed.
    pub fast_only: f64,
    /// Fraction admitted by the history cache.
    pub cached: f64,
    /// Fraction whose checks were eliminated (merged or promoted away).
    pub eliminated: f64,
}

/// The figure's data: one row per benchmark.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig10Row>,
    /// Mean fraction optimised (cached + eliminated), the paper's 52.56%.
    pub mean_optimised: f64,
}

impl Fig10 {
    /// Folds [`Fig10Entry`]'s records (one per benchmark, in cell order)
    /// into the figure's data.
    pub fn from_records(records: &[Record]) -> Fig10 {
        let rows: Vec<Fig10Row> = records
            .iter()
            .map(|r| Fig10Row {
                id: study::req_str(&r.payload, "id").to_string(),
                full_check: study::req_f64(&r.payload, "full_check"),
                fast_only: study::req_f64(&r.payload, "fast_only"),
                cached: study::req_f64(&r.payload, "cached"),
                eliminated: study::req_f64(&r.payload, "eliminated"),
            })
            .collect();
        let mean_optimised =
            rows.iter().map(|r| r.cached + r.eliminated).sum::<f64>() / rows.len().max(1) as f64;
        Fig10 {
            rows,
            mean_optimised,
        }
    }

    /// Renders the figure's data as a table plus a text bar chart.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Programs".into(),
            "FullCheck".into(),
            "FastOnly".into(),
            "Cached".into(),
            "Eliminated".into(),
            "bar (E=eliminated C=cached f=fast F=full)".into(),
        ]);
        for r in &self.rows {
            let bar = render_bar(r, 32);
            t.row(vec![
                r.id.clone(),
                format!("{:.1}%", r.full_check * 100.0),
                format!("{:.1}%", r.fast_only * 100.0),
                format!("{:.1}%", r.cached * 100.0),
                format!("{:.1}%", r.eliminated * 100.0),
                bar,
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\nMean optimised (eliminated + cached): {:.2}% (paper: 52.56%)\n",
            self.mean_optimised * 100.0
        ));
        s
    }
}

#[allow(clippy::redundant_closure_call)]
fn render_bar(r: &Fig10Row, width: usize) -> String {
    let mut bar = String::new();
    let mut push = (|| {
        let mut emitted = 0usize;
        move |frac: f64, ch: char, bar: &mut String| {
            let n = ((frac * width as f64).round() as usize).min(width - emitted.min(width));
            for _ in 0..n {
                bar.push(ch);
            }
            emitted += n;
        }
    })();
    push(r.eliminated, 'E', &mut bar);
    push(r.cached, 'C', &mut bar);
    push(r.fast_only, 'f', &mut bar);
    push(r.full_check, 'F', &mut bar);
    bar
}

/// `repro fig10` as a [`Study`]: one cell per SPEC-like workload, each run
/// under full GiantSan with every dynamic memory instruction attributed to
/// the check path that admitted it.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Entry;

impl Study for Fig10Entry {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(spec_suite(opts.scale)
            .iter()
            .map(|w| w.id.clone())
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let cfg = RuntimeConfig::default();
        let suite = spec_suite(opts.scale);
        let w = &suite[index];
        let out = run_tool(Tool::GiantSan, &w.program, &w.inputs, &cfg);
        let c = &out.counters;
        // Dynamic memory instructions: accesses plus memop segments (the
        // same units ASan would have to check one by one).
        let m = out.result.native_work.max(1) as f64;
        let cached = (c.cache_hits + c.cache_updates) as f64;
        let fast = c.fast_checks as f64;
        let full = c.slow_checks as f64;
        let eliminated = (m - cached - fast - full).max(0.0);
        Json::obj()
            .field("id", w.id.as_str())
            .field("full_check", full / m)
            .field("fast_only", fast / m)
            .field("cached", cached / m)
            .field("eliminated", eliminated / m)
    }

    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let f = Fig10::from_records(records);
        Ok(StudyOutput {
            report: format!(
                "== Figure 10: checks per optimisation category (GiantSan) ==\n\n{}\n",
                f.render()
            ),
            artifacts: vec![("fig10.csv".to_string(), crate::csv::fig10_csv(&f))],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_matches_section_5_2() {
        let f = Fig10::from_records(&study::run_all(&Fig10Entry, StudyOpts::default()));
        assert_eq!(f.rows.len(), 24);
        for r in &f.rows {
            let sum = r.full_check + r.fast_only + r.cached + r.eliminated;
            assert!(
                (0.9..=1.01).contains(&sum),
                "{}: fractions sum to {sum}",
                r.id
            );
        }
        // The paper reports 52.56% eliminated+cached on average.
        assert!(
            f.mean_optimised > 0.35,
            "only {:.1}% optimised",
            f.mean_optimised * 100.0
        );
        // lbm's checks live in bounded affine loops: like the paper's lbm,
        // the overwhelming majority should be eliminated or cached.
        let lbm = f.rows.iter().find(|r| r.id == "519.lbm_r").unwrap();
        assert!(
            lbm.eliminated + lbm.cached > 0.8,
            "lbm optimised fraction {:.2}",
            lbm.eliminated + lbm.cached
        );
        let s = f.render();
        assert!(s.contains("Mean optimised"));
        assert!(s.contains('E') || s.contains('C'));
    }
}
