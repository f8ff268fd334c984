//! Supporting study: memory overhead per sanitizer.
//!
//! Location-based sanitizers trade memory for compatibility (§2.1 discusses
//! how larger metadata "causes excessive memory consumption and
//! significantly affects runtime efficiency"). This study measures, over
//! the SPEC-like suite, each tool's arena footprint relative to native:
//! redzone and rounding waste in the heap's high-water mark, quarantine
//! residency, and the fixed 1/8 shadow mapping.

use giantsan_workloads::spec_suite;

use crate::json::Json;
use crate::session::SessionSpec;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::Tool;

/// Tools measured.
pub const COLUMNS: [Tool; 4] = [Tool::Native, Tool::GiantSan, Tool::Asan, Tool::Lfp];

/// One benchmark's memory footprint per tool.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Benchmark id.
    pub id: String,
    /// Heap high-water marks in bytes, per column tool.
    pub heap_high_water: Vec<u64>,
    /// Bytes resident in quarantine at exit, per column tool.
    pub quarantined: Vec<u64>,
}

/// The study's result.
#[derive(Debug, Clone)]
pub struct MemoryStudy {
    /// Per-benchmark rows.
    pub rows: Vec<MemoryRow>,
    /// Mean heap overhead ratio vs native, per column (native = 1.0).
    pub mean_heap_ratio: Vec<f64>,
}

impl MemoryStudy {
    /// Folds [`MemoryEntry`]'s records (one per benchmark, in cell order)
    /// into the study.
    pub fn from_records(records: &[Record]) -> MemoryStudy {
        let rows: Vec<MemoryRow> = records
            .iter()
            .map(|r| MemoryRow {
                id: study::req_str(&r.payload, "id").to_string(),
                heap_high_water: study::req_u64s(&r.payload, "heap_high_water"),
                quarantined: study::req_u64s(&r.payload, "quarantined"),
            })
            .collect();
        let mean_heap_ratio = (0..COLUMNS.len())
            .map(|i| {
                let ratios: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.heap_high_water[0] > 0)
                    .map(|r| r.heap_high_water[i] as f64 / r.heap_high_water[0] as f64)
                    .collect();
                ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
            })
            .collect();
        MemoryStudy {
            rows,
            mean_heap_ratio,
        }
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut headers = vec!["Programs".to_string()];
        for t in COLUMNS {
            headers.push(format!("{} heap(B)", t.name()));
        }
        for t in COLUMNS.iter().skip(1) {
            headers.push(format!("{} quarantine(B)", t.name()));
        }
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.id.clone()];
            cells.extend(r.heap_high_water.iter().map(|v| v.to_string()));
            cells.extend(r.quarantined.iter().skip(1).map(|v| v.to_string()));
            t.row(cells);
        }
        let mut s = t.render();
        s.push_str("\nMean heap high-water ratio vs native: ");
        for (tool, ratio) in COLUMNS.iter().zip(self.mean_heap_ratio.iter()) {
            s.push_str(&format!("{} {:.2}x  ", tool.name(), ratio));
        }
        s.push_str(
            "\n(shadow adds a fixed 1/8 of the address space for the location-based tools;\n\
             LFP's waste is size-class rounding instead of redzones.)\n",
        );
        s
    }
}

/// `repro memory` as a [`Study`]: one cell per SPEC-like workload, each
/// running every column tool and reading its heap footprint at exit.
#[derive(Debug, Clone, Copy)]
pub struct MemoryEntry;

impl Study for MemoryEntry {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(spec_suite(opts.scale)
            .iter()
            .map(|w| w.id.clone())
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let suite = spec_suite(opts.scale);
        let w = &suite[index];
        let mut heap_high_water = Vec::new();
        let mut quarantined = Vec::new();
        for tool in COLUMNS {
            let out = SessionSpec::new(tool).run(&w.program, &w.inputs);
            heap_high_water.push(out.heap_high_water);
            quarantined.push(out.quarantined_bytes);
        }
        Json::obj()
            .field("id", w.id.as_str())
            .field("heap_high_water", study::u64s(&heap_high_water))
            .field("quarantined", study::u64s(&quarantined))
    }

    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        Ok(StudyOutput {
            report: format!(
                "== Supporting study: memory overhead ==\n\n{}\n",
                MemoryStudy::from_records(records).render()
            ),
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_core::GiantSan;
    use giantsan_runtime::{RuntimeConfig, Sanitizer};

    #[test]
    fn run_outcome_heap_fields_are_the_session_world_footprint() {
        let w = spec_suite(1)
            .into_iter()
            .find(|w| w.id == "502.gcc_r")
            .expect("SPEC row");
        let spec = SessionSpec::new(Tool::GiantSan);
        let plan = spec.tool.plan(&w.program);
        let out = spec.run_planned(&w.program, &plan, &w.inputs);
        let mut san = GiantSan::new(RuntimeConfig::default());
        giantsan_ir::run(&w.program, &w.inputs, &mut san, &plan, &spec.exec_config());
        assert_eq!(out.heap_high_water, san.world().heap().high_water());
        assert_eq!(out.quarantined_bytes, san.world().quarantined_bytes());
        assert!(out.quarantined_bytes > 0, "gcc's frees stay quarantined");
    }

    #[test]
    fn sanitizers_use_more_heap_and_only_quarantining_tools_quarantine() {
        let m = MemoryStudy::from_records(&study::run_all(&MemoryEntry, StudyOpts::default()));
        assert_eq!(m.rows.len(), 24);
        // Native ratio is exactly 1; every sanitizer pays something.
        assert!((m.mean_heap_ratio[0] - 1.0).abs() < 1e-9);
        for (i, col) in COLUMNS.iter().enumerate().skip(1) {
            assert!(
                m.mean_heap_ratio[i] > 1.0,
                "{} ratio {:.2}",
                col.name(),
                m.mean_heap_ratio[i]
            );
        }
        // LFP (last column) never quarantines.
        let lfp_q: u64 = m.rows.iter().map(|r| r.quarantined[3]).sum();
        assert_eq!(lfp_q, 0);
        // The churn-heavy kernels leave bytes in GiantSan's quarantine.
        let gs_q: u64 = m.rows.iter().map(|r| r.quarantined[1]).sum();
        assert!(gs_q > 0);
    }
}
