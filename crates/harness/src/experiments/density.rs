//! Supporting study: protection density.
//!
//! The paper's framing concept (§1, §2.3): *protection density* is the
//! number of bytes safeguarded by one piece of metadata. ASan's flat
//! encoding caps it at 8 bytes per shadow load; segment folding raises it to
//! `8·2^x`. This study measures the *achieved* density over the SPEC-like
//! suite — bytes of memory traffic validated per shadow byte actually
//! loaded — and the resulting metadata-traffic reduction.

use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::spec_suite;

use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::{run_tool, Tool};

/// One benchmark's density numbers.
#[derive(Debug, Clone)]
pub struct DensityRow {
    /// Benchmark id.
    pub id: String,
    /// Bytes of validated memory traffic (accesses + memop bytes).
    pub traffic_bytes: u64,
    /// Shadow bytes loaded by GiantSan.
    pub giantsan_loads: u64,
    /// Shadow bytes loaded by ASan.
    pub asan_loads: u64,
}

impl DensityRow {
    /// Achieved density (bytes validated per shadow load) for GiantSan.
    pub fn giantsan_density(&self) -> f64 {
        self.traffic_bytes as f64 / self.giantsan_loads.max(1) as f64
    }

    /// Achieved density for ASan (bounded by 8 from the encoding).
    pub fn asan_density(&self) -> f64 {
        self.traffic_bytes as f64 / self.asan_loads.max(1) as f64
    }

    /// Metadata-traffic reduction factor (ASan loads / GiantSan loads).
    pub fn reduction(&self) -> f64 {
        self.asan_loads as f64 / self.giantsan_loads.max(1) as f64
    }
}

/// The study's result.
#[derive(Debug, Clone)]
pub struct DensityStudy {
    /// Per-benchmark rows.
    pub rows: Vec<DensityRow>,
}

impl DensityStudy {
    /// Folds [`DensityEntry`]'s records (one per benchmark, in cell order)
    /// into the study.
    pub fn from_records(records: &[Record]) -> DensityStudy {
        let rows = records
            .iter()
            .map(|r| DensityRow {
                id: study::req_str(&r.payload, "id").to_string(),
                traffic_bytes: study::req_u64(&r.payload, "traffic_bytes"),
                giantsan_loads: study::req_u64(&r.payload, "giantsan_loads"),
                asan_loads: study::req_u64(&r.payload, "asan_loads"),
            })
            .collect();
        DensityStudy { rows }
    }

    /// Median metadata-traffic reduction across benchmarks.
    pub fn median_reduction(&self) -> f64 {
        let mut r: Vec<f64> = self.rows.iter().map(|x| x.reduction()).collect();
        r.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        r[r.len() / 2]
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Programs".into(),
            "traffic (B)".into(),
            "GiantSan loads".into(),
            "ASan loads".into(),
            "GiantSan B/load".into(),
            "ASan B/load".into(),
            "reduction".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.id.clone(),
                r.traffic_bytes.to_string(),
                r.giantsan_loads.to_string(),
                r.asan_loads.to_string(),
                format!("{:.1}", r.giantsan_density()),
                format!("{:.1}", r.asan_density()),
                format!("{:.1}x", r.reduction()),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\nMedian metadata-traffic reduction: {:.1}x. ASan's density is capped at 8\n\
             bytes per load by the flat encoding; folding lifts the cap to 8*2^x.\n",
            self.median_reduction()
        ));
        s
    }
}

/// `repro density` as a [`Study`]: one cell per SPEC-like workload.
#[derive(Debug, Clone, Copy)]
pub struct DensityEntry;

impl Study for DensityEntry {
    fn name(&self) -> &'static str {
        "density"
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
        let gs = run_tool(Tool::GiantSan, &w.program, &w.inputs, &cfg);
        let asan = run_tool(Tool::Asan, &w.program, &w.inputs, &cfg);
        Json::obj()
            .field("id", w.id.as_str())
            // native_work counts accesses and 8-byte memop units.
            .field("traffic_bytes", gs.result.native_work * 8)
            .field("giantsan_loads", gs.counters.shadow_loads)
            .field("asan_loads", asan.counters.shadow_loads)
    }

    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        Ok(StudyOutput {
            report: format!(
                "== Supporting study: achieved protection density ==\n\n{}\n",
                DensityStudy::from_records(records).render()
            ),
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_exceeds_the_flat_cap() {
        let d = DensityStudy::from_records(&study::run_all(&DensityEntry, StudyOpts::default()));
        assert_eq!(d.rows.len(), 24);
        for r in &d.rows {
            assert!(
                r.asan_density() <= 8.0 + 1e-9,
                "{}: flat encoding cannot beat 8 B/load",
                r.id
            );
            assert!(
                r.giantsan_density() > r.asan_density(),
                "{}: folding must raise achieved density",
                r.id
            );
        }
        assert!(d.median_reduction() > 4.0, "{}", d.median_reduction());
    }
}
