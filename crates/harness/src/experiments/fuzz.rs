//! Differential fuzzing: false positives, divergence and misses per tool.
//!
//! `repro fuzz` runs `50 × --scale` cells; cell `i` takes seed `--seed + i`.
//! A cell runs the seed's safe program (see `giantsan_workloads::fuzz`)
//! under Native and each of [`TOOLS`], and the seed's buggy program for
//! every [`InjectedBug`] geometry under each tool. The report has two
//! tables:
//!
//! * **safe programs** — per tool, the false positives (a report on a safe
//!   program) and the data divergences (a checksum unlike native's). Both
//!   must be zero for every tool: instrumentation must never fire on, or
//!   change, a correct program.
//! * **buggy programs** — misses per geometry and tool. The baselines are
//!   *expected* to miss the geometries their mechanisms cannot see (that
//!   asymmetry is the paper's detection story); GiantSan and CacheOnly must
//!   miss nothing.
//!
//! [`FuzzEntry::render`] fails, so `repro fuzz` exits 1, on any false
//! positive, any divergence, or any GiantSan or CacheOnly miss.

use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::fuzz::{buggy_program, safe_program, InjectedBug};

use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::{run_tool, Tool};

/// The tools under test, in column order.
pub const TOOLS: [Tool; 5] = [
    Tool::GiantSan,
    Tool::Asan,
    Tool::AsanMinusMinus,
    Tool::Lfp,
    Tool::CacheOnly,
];

/// Seeds (cells) per unit of `--scale`.
pub const SEEDS_PER_SCALE: u64 = 50;

/// The fuzz matrix, folded from a run's records.
#[derive(Debug, Default)]
pub struct FuzzMatrix {
    /// Seeds run (one per record).
    pub seeds: usize,
    /// False positives per tool, in [`TOOLS`] order.
    pub false_positives: [u32; TOOLS.len()],
    /// Checksum divergences from native per tool.
    pub divergences: [u32; TOOLS.len()],
    /// Misses per geometry (in [`InjectedBug::ALL`] order), then per tool.
    pub missed: [[u32; TOOLS.len()]; InjectedBug::ALL.len()],
    /// One line per verdict that fails the run, in record order.
    pub failures: Vec<String>,
}

impl FuzzMatrix {
    /// Folds [`FuzzEntry`]'s records into the matrix.
    pub fn from_records(records: &[Record]) -> FuzzMatrix {
        let mut m = FuzzMatrix {
            seeds: records.len(),
            ..FuzzMatrix::default()
        };
        for r in records {
            let fp = study::req_bools(&r.payload, "false_positive");
            let diverged = study::req_bools(&r.payload, "diverged");
            let missed = study::req_bools(&r.payload, "missed");
            for (t, &tool) in TOOLS.iter().enumerate() {
                if fp[t] {
                    m.false_positives[t] += 1;
                    m.failures
                        .push(format!("false positive: {} on {}", tool.name(), r.label));
                }
                if diverged[t] {
                    m.divergences[t] += 1;
                    m.failures
                        .push(format!("divergence: {} on {}", tool.name(), r.label));
                }
                for (b, bug) in InjectedBug::ALL.iter().enumerate() {
                    if missed[b * TOOLS.len() + t] {
                        m.missed[b][t] += 1;
                        if matches!(tool, Tool::GiantSan | Tool::CacheOnly) {
                            m.failures.push(format!(
                                "miss: {} on {} {}",
                                tool.name(),
                                bug.name(),
                                r.label
                            ));
                        }
                    }
                }
            }
        }
        m
    }

    /// The two tables, in text.
    pub fn render(&self) -> String {
        let mut safe = TextTable::new(vec![
            "Tool".into(),
            "False positives".into(),
            "Divergences".into(),
        ]);
        for (t, tool) in TOOLS.iter().enumerate() {
            safe.row(vec![
                tool.name().into(),
                self.false_positives[t].to_string(),
                self.divergences[t].to_string(),
            ]);
        }
        let mut headers = vec!["Missed".to_string()];
        headers.extend(TOOLS.iter().map(|t| t.name().to_string()));
        let mut buggy = TextTable::new(headers);
        for (bug, missed) in InjectedBug::ALL.iter().zip(&self.missed) {
            let mut row = vec![bug.name().to_string()];
            row.extend(missed.iter().map(u32::to_string));
            buggy.row(row);
        }
        format!(
            "Safe programs ({n} x {tools} tools):\n{}\nBuggy programs ({n} x {} geometries x \
             {tools} tools):\n{}\nexpected asymmetries: instruction-level tools miss \
             overflow-far; LFP additionally\nmisses stack-strcpy (unprotected stack) and near \
             overflows within rounding slack.\n",
            safe.render(),
            InjectedBug::ALL.len(),
            buggy.render(),
            n = self.seeds,
            tools = TOOLS.len(),
        )
    }

    /// One row per tool: its false positives, divergences and misses per
    /// geometry.
    pub fn csv(&self) -> String {
        let mut out = String::from("tool,false_positives,divergences");
        for bug in InjectedBug::ALL {
            out.push_str(&format!(",missed_{}", bug.name()));
        }
        out.push('\n');
        for (t, tool) in TOOLS.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{}",
                tool.name(),
                self.false_positives[t],
                self.divergences[t]
            ));
            for missed in &self.missed {
                out.push_str(&format!(",{}", missed[t]));
            }
            out.push('\n');
        }
        out
    }
}

/// `repro fuzz` as a study: one cell per seed.
#[derive(Debug, Clone, Copy)]
pub struct FuzzEntry;

impl Study for FuzzEntry {
    fn name(&self) -> &'static str {
        "fuzz"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok((0..SEEDS_PER_SCALE * opts.scale)
            .map(|i| format!("seed-{}", opts.seed.wrapping_add(i)))
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let seed = opts.seed.wrapping_add(index as u64);
        let cfg = RuntimeConfig::small();
        let safe = safe_program(seed);
        let native = run_tool(Tool::Native, &safe.program, &safe.inputs, &cfg);
        let (mut fp, mut diverged) = (Vec::new(), Vec::new());
        for tool in TOOLS {
            let out = run_tool(tool, &safe.program, &safe.inputs, &cfg);
            fp.push(out.detected());
            diverged.push(out.result.checksum != native.result.checksum);
        }
        let missed: Vec<bool> = InjectedBug::ALL
            .iter()
            .flat_map(|&bug| {
                let buggy = buggy_program(seed, bug);
                TOOLS.map(|tool| !run_tool(tool, &buggy.program, &buggy.inputs, &cfg).detected())
            })
            .collect();
        Json::obj()
            .field("false_positive", study::bools(&fp))
            .field("diverged", study::bools(&diverged))
            .field("missed", study::bools(&missed))
    }

    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let m = FuzzMatrix::from_records(records);
        let report = format!(
            "== Differential fuzzing: {} seed(s) from {:#x} ==\n\n{}",
            m.seeds,
            opts.seed,
            m.render()
        );
        if !m.failures.is_empty() {
            let first: Vec<&str> = m.failures.iter().take(10).map(String::as_str).collect();
            return Err(format!(
                "{report}\n{} failure(s), the first {}:\n  {}",
                m.failures.len(),
                first.len(),
                first.join("\n  ")
            ));
        }
        Ok(StudyOutput {
            report: format!(
                "{report}\nfuzzing clean: no false positives, no divergence, no GiantSan or \
                 CacheOnly misses.\n"
            ),
            artifacts: vec![("fuzz.csv".to_string(), m.csv())],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use InjectedBug::{OverflowFar, OverflowNear, StackStrcpy, UseAfterFree};

    /// A record whose tools in `fp` falsely fired, whose tools in
    /// `diverged` diverged, and which missed the `(geometry, tool)` pairs
    /// in `missed`.
    fn record(fp: &[Tool], diverged: &[Tool], missed: &[(InjectedBug, Tool)]) -> Record {
        let missed: Vec<bool> = InjectedBug::ALL
            .iter()
            .flat_map(|&bug| TOOLS.map(|tool| missed.contains(&(bug, tool))))
            .collect();
        Record {
            index: 2,
            label: "seed-2".to_string(),
            payload: Json::obj()
                .field(
                    "false_positive",
                    study::bools(&TOOLS.map(|t| fp.contains(&t))),
                )
                .field(
                    "diverged",
                    study::bools(&TOOLS.map(|t| diverged.contains(&t))),
                )
                .field("missed", study::bools(&missed)),
        }
    }

    /// Renders `extra` after the misses the baselines are expected to
    /// show: LFP misses near overflows and stack strcpy, ASan and ASan--
    /// miss far overflows.
    fn render(extra: Record) -> Result<StudyOutput, String> {
        let expected = record(
            &[],
            &[],
            &[
                (OverflowNear, Tool::Lfp),
                (StackStrcpy, Tool::Lfp),
                (OverflowFar, Tool::Asan),
                (OverflowFar, Tool::AsanMinusMinus),
            ],
        );
        FuzzEntry.render(&StudyOpts::default(), &[expected, extra])
    }

    #[test]
    fn expected_asymmetries_render_clean() {
        let out = render(record(&[], &[], &[])).expect("only expected misses");
        assert!(out.report.contains("fuzzing clean"), "{}", out.report);
        let csv = &out.artifacts[0].1;
        assert!(csv.contains("\nASan,0,0,0,1,0,0,0\n"), "{csv}");
        assert!(csv.contains("\nLFP,0,0,1,0,0,0,1\n"), "{csv}");
    }

    #[test]
    fn every_failing_verdict_fails_the_render() {
        for (want, extra) in [
            (
                "miss: GiantSan",
                record(&[], &[], &[(UseAfterFree, Tool::GiantSan)]),
            ),
            (
                "miss: CacheOnly",
                record(&[], &[], &[(OverflowFar, Tool::CacheOnly)]),
            ),
            ("false positive: ASan", record(&[Tool::Asan], &[], &[])),
            ("divergence: LFP", record(&[], &[Tool::Lfp], &[])),
        ] {
            let err = render(extra).expect_err(want);
            assert!(
                err.contains(&format!("1 failure(s), the first 1:\n  {want}")),
                "{err}"
            );
            assert!(err.contains("seed-2"), "{err}");
        }
    }
}
