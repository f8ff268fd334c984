//! The fault-injection campaign behind `repro faults`.
//!
//! Sweeps a matrix of (tool × workload × fault kind × seed) cells, each run
//! under [`RecoveryPolicy::Recover`] with one deterministic fault armed via
//! a [`FaultPlan`], and classifies every cell as **detected** (a buggy
//! workload still reported despite the fault), **recovered** (a safe
//! workload survived the fault to completion), **missed** (the fault masked
//! an injected bug), or **crashed** (the run aborted — OOM, step budget,
//! simulated hardware fault — or the harness cell panicked and was
//! quarantined by the batch engine).
//!
//! Everything is derived from the campaign seed with `splitmix64`, so the
//! per-cell verdict list — and therefore [`FaultStudy::digest`] — is
//! identical at any `--threads N`. CI locks the digest against a committed
//! golden (`tests/golden/faults_digest.txt`).

use giantsan_ir::Program;
use giantsan_runtime::{RecoveryPolicy, RuntimeConfig};
use giantsan_telemetry::{fnv1a, Fnv1a};
use giantsan_workloads::fuzz::{buggy_program, safe_program, InjectedBug};

use crate::faults::{splitmix64, FaultKind, FaultPlan};
use crate::json::Json;
use crate::session::SessionSpec;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::Tool;

/// The fault-kind axis of the campaign matrix.
pub const FAULT_AXES: [&str; 5] = [
    "bit-flip",
    "fold-downgrade",
    "alloc-oom",
    "quarantine-exhaustion",
    "step-budget",
];

/// The workload axis of the campaign: the fuzz corpus's safe shape or one
/// injected-bug geometry; the cell's seed picks the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// A generated safe program.
    FuzzSafe,
    /// A generated program with one injected bug of the given geometry.
    FuzzBuggy(InjectedBug),
}

impl CellWorkload {
    /// Materialises the program and inputs for `seed` (deterministic).
    pub fn materialize(self, seed: u64) -> (Program, Vec<i64>) {
        let fp = match self {
            CellWorkload::FuzzSafe => safe_program(seed),
            CellWorkload::FuzzBuggy(bug) => buggy_program(seed, bug),
        };
        (fp.program, fp.inputs)
    }
}

/// One cell of the fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCell {
    /// Tool under test.
    pub tool: Tool,
    /// Workload (fuzz corpus: one safe shape plus each bug geometry).
    pub workload: CellWorkload,
    /// Index into [`FAULT_AXES`].
    pub fault_axis: usize,
    /// Per-cell seed (combined with the campaign seed).
    pub seed: u64,
}

impl FaultCell {
    /// Stable, human-readable cell id.
    pub fn label(&self) -> String {
        let w = match self.workload {
            CellWorkload::FuzzSafe => "fuzz-safe".to_string(),
            CellWorkload::FuzzBuggy(bug) => format!("fuzz-{}", bug.name()),
        };
        format!(
            "{}/{w}/{}/r{}",
            self.tool.name(),
            FAULT_AXES[self.fault_axis],
            self.seed
        )
    }

    /// Whether the workload carries an injected bug a sanitizer should find.
    pub fn is_buggy(&self) -> bool {
        matches!(self.workload, CellWorkload::FuzzBuggy(_))
    }

    /// Derives this cell's fault plan from the campaign seed.
    ///
    /// Every parameter (alloc ordinal, byte offset, bit) unfolds from
    /// `splitmix64` seeded by the campaign seed and the cell's own label, so
    /// the schedule owes nothing to scheduling or thread count.
    pub fn plan(&self, campaign_seed: u64) -> FaultPlan {
        let mut state = campaign_seed ^ fnv1a(self.label().as_bytes());
        let r1 = splitmix64(&mut state);
        let r2 = splitmix64(&mut state);
        let r3 = splitmix64(&mut state);
        let plan = FaultPlan::new(campaign_seed);
        match FAULT_AXES[self.fault_axis] {
            "bit-flip" => plan.with_event(
                FaultKind::ShadowBitFlip {
                    byte_offset: r1 % 64,
                    bit: (r2 % 8) as u8,
                },
                r3 % 6,
            ),
            "fold-downgrade" => plan.with_event(
                FaultKind::FoldDowngrade {
                    byte_offset: r1 % 256,
                },
                r2 % 6,
            ),
            "alloc-oom" => plan.with_event(FaultKind::AllocOom, 1 + r1 % 8),
            "quarantine-exhaustion" => {
                plan.with_event(FaultKind::QuarantineExhaustion { cap: 64 + r1 % 192 }, 0)
            }
            "step-budget" => plan.with_event(
                FaultKind::StepBudget {
                    max_steps: 2_000 + r1 % 8_000,
                },
                0,
            ),
            other => unreachable!("unknown fault axis {other}"),
        }
    }

    /// Runs the cell under recover mode with its fault armed.
    pub fn run(&self, campaign_seed: u64) -> FaultCellOutcome {
        let cfg = RuntimeConfig::small()
            .to_builder()
            .recovery(RecoveryPolicy::recover())
            .build();
        let (program, inputs) = self.workload.materialize(self.seed);
        let out = SessionSpec {
            config: cfg,
            faults: Some(self.plan(campaign_seed)),
            ..SessionSpec::new(self.tool)
        }
        .run(&program, &inputs);
        let verdict = match out.result.termination {
            giantsan_ir::Termination::Crashed { .. } | giantsan_ir::Termination::StepLimit => {
                Verdict::Crashed
            }
            giantsan_ir::Termination::Finished | giantsan_ir::Termination::Halted => {
                if self.is_buggy() {
                    if out.result.reports.is_empty() {
                        Verdict::Missed
                    } else {
                        Verdict::Detected
                    }
                } else {
                    Verdict::Recovered
                }
            }
        };
        FaultCellOutcome {
            label: self.label(),
            verdict,
            result_digest: out.result.digest(),
            errors_recovered: out.counters.errors_recovered,
            errors_suppressed: out.counters.errors_suppressed,
        }
    }
}

/// Per-cell classification of a fault-campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Buggy workload, still reported despite the fault.
    Detected,
    /// Safe workload, ran to completion under the fault.
    Recovered,
    /// Buggy workload, the fault masked the bug (documented miss).
    Missed,
    /// The run aborted, or the harness cell panicked and was quarantined.
    Crashed,
}

impl Verdict {
    /// Short stable name (digest and CSV field).
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Detected => "detected",
            Verdict::Recovered => "recovered",
            Verdict::Missed => "missed",
            Verdict::Crashed => "crashed",
        }
    }

    /// Inverse of [`Verdict::name`] — used when campaign checkpoints are
    /// read back from disk.
    pub fn parse(name: &str) -> Option<Verdict> {
        match name {
            "detected" => Some(Verdict::Detected),
            "recovered" => Some(Verdict::Recovered),
            "missed" => Some(Verdict::Missed),
            "crashed" => Some(Verdict::Crashed),
            _ => None,
        }
    }
}

/// Deterministic residue of one fault cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCellOutcome {
    /// The cell's [`FaultCell::label`].
    pub label: String,
    /// The classification.
    pub verdict: Verdict,
    /// [`giantsan_ir::ExecResult::digest`] of the run.
    pub result_digest: u64,
    /// Recover-mode counters of the run.
    pub errors_recovered: u64,
    /// Reports dropped by dedup/rate limits.
    pub errors_suppressed: u64,
}

/// The whole campaign: per-cell outcomes plus the summary digest.
#[derive(Debug, Clone)]
pub struct FaultStudy {
    /// Campaign seed the schedule unfolded from.
    pub seed: u64,
    /// Per-cell outcomes, in matrix order.
    pub outcomes: Vec<FaultCellOutcome>,
    /// Cells the batch engine quarantined (harness panics). The campaign's
    /// promise is that this stays 0.
    pub harness_panics: usize,
}

/// The campaign matrix: every tool × fuzz workload × fault axis × seed.
pub fn fault_matrix(seeds: u64) -> Vec<FaultCell> {
    let mut cells = Vec::new();
    for tool in Tool::ALL {
        let mut workloads = vec![CellWorkload::FuzzSafe];
        workloads.extend(InjectedBug::ALL.into_iter().map(CellWorkload::FuzzBuggy));
        for workload in workloads {
            for fault_axis in 0..FAULT_AXES.len() {
                for seed in 0..seeds {
                    cells.push(FaultCell {
                        tool,
                        workload,
                        fault_axis,
                        seed,
                    });
                }
            }
        }
    }
    cells
}

impl FaultStudy {
    /// Folds [`FaultsEntry`]'s records (in matrix order) into the campaign
    /// run at `seed`. A record the batch engine quarantined carries
    /// `"panicked": true` and counts as a harness panic.
    pub fn from_records(seed: u64, records: &[Record]) -> Result<FaultStudy, String> {
        let mut harness_panics = 0usize;
        let outcomes = records
            .iter()
            .map(|r| {
                if let Some(true) = r.payload.get("panicked").and_then(Json::as_bool) {
                    harness_panics += 1;
                }
                let verdict = study::req_str(&r.payload, "verdict");
                Ok(FaultCellOutcome {
                    label: r.label.clone(),
                    verdict: Verdict::parse(verdict)
                        .ok_or_else(|| format!("unknown verdict `{verdict}`"))?,
                    result_digest: study::req_hex(&r.payload, "result_digest"),
                    errors_recovered: study::req_u64(&r.payload, "errors_recovered"),
                    errors_suppressed: study::req_u64(&r.payload, "errors_suppressed"),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(FaultStudy {
            seed,
            outcomes,
            harness_panics,
        })
    }

    /// FNV-1a digest over every cell's label, verdict, and result digest —
    /// the quantity CI compares against the committed golden.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.eat(&self.seed.to_le_bytes());
        for o in &self.outcomes {
            h.eat(o.label.as_bytes());
            h.eat(o.verdict.name().as_bytes());
            h.eat(&o.result_digest.to_le_bytes());
        }
        h.finish()
    }

    /// Verdict counts for one tool (detected, recovered, missed, crashed).
    fn counts_for(&self, tool: Tool) -> [u64; 4] {
        let prefix = format!("{}/", tool.name());
        let mut counts = [0u64; 4];
        for o in self
            .outcomes
            .iter()
            .filter(|o| o.label.starts_with(&prefix))
        {
            counts[o.verdict as usize] += 1;
        }
        counts
    }

    /// Renders the per-tool verdict table plus the campaign digest.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            [
                "tool",
                "detected",
                "recovered",
                "missed",
                "crashed",
                "total",
            ]
            .map(String::from)
            .to_vec(),
        );
        let mut totals = [0u64; 4];
        for tool in Tool::ALL {
            let c = self.counts_for(tool);
            for (tot, v) in totals.iter_mut().zip(c) {
                *tot += v;
            }
            t.row(vec![
                tool.name().to_string(),
                c[0].to_string(),
                c[1].to_string(),
                c[2].to_string(),
                c[3].to_string(),
                c.iter().sum::<u64>().to_string(),
            ]);
        }
        t.separator();
        t.row(vec![
            "all".to_string(),
            totals[0].to_string(),
            totals[1].to_string(),
            totals[2].to_string(),
            totals[3].to_string(),
            totals.iter().sum::<u64>().to_string(),
        ]);
        format!(
            "{}\ncells: {}  harness panics: {}\nsummary digest: {:#018x}\n",
            t.render(),
            self.outcomes.len(),
            self.harness_panics,
            self.digest()
        )
    }

    /// The one-line digest artefact CI diffs against the committed golden.
    pub fn digest_artifact(&self) -> String {
        format!("{:#018x}\n", self.digest())
    }

    /// Machine-readable form of the campaign (`repro faults --format json`).
    ///
    /// Carries the same deterministic residue as the CSV — label, verdict,
    /// result digest, recovery counters per cell — plus the campaign seed
    /// and summary digest, so the document is identical at any `--threads`.
    pub fn to_json(&self) -> String {
        let outcomes: Vec<Json> = self
            .outcomes
            .iter()
            .map(|o| {
                Json::obj()
                    .field("cell", o.label.as_str())
                    .field("verdict", o.verdict.name())
                    .field("result_digest", Json::hex(o.result_digest))
                    .field("errors_recovered", o.errors_recovered)
                    .field("errors_suppressed", o.errors_suppressed)
            })
            .collect();
        Json::obj()
            .field("study", "faults")
            .field("seed", Json::hex(self.seed))
            .field("digest", Json::hex(self.digest()))
            .field("harness_panics", self.harness_panics)
            .field("outcomes", outcomes)
            .render()
    }
}

/// Matrix breadth `repro faults` has always used (5 seeds ⇒ 1050 cells).
const FAULT_SEEDS: u64 = 5;

/// `repro faults` as a [`Study`]: one cell per fault-matrix entry. The
/// campaign seed is `--seed`; a panicking cell degrades to a synthetic
/// `crashed` outcome, so the study always covers the full matrix and
/// sharded and monolithic digests agree even in the presence of harness
/// panics.
#[derive(Debug, Clone, Copy)]
pub struct FaultsEntry;

impl Study for FaultsEntry {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn cells(&self, _opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(fault_matrix(FAULT_SEEDS)
            .iter()
            .map(FaultCell::label)
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let cells = fault_matrix(FAULT_SEEDS);
        let o = cells[index].run(opts.seed);
        Json::obj()
            .field("verdict", o.verdict.name())
            .field("result_digest", Json::hex(o.result_digest))
            .field("errors_recovered", o.errors_recovered)
            .field("errors_suppressed", o.errors_suppressed)
    }

    fn placeholder(&self, _opts: &StudyOpts, _index: usize) -> Option<Json> {
        Some(
            Json::obj()
                .field("verdict", Verdict::Crashed.name())
                .field("result_digest", Json::hex(0))
                .field("errors_recovered", 0u64)
                .field("errors_suppressed", 0u64)
                .field("panicked", true),
        )
    }

    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let s = FaultStudy::from_records(opts.seed, records)?;
        Ok(StudyOutput {
            report: format!(
                "== Fault-injection campaign (recover mode, seed {:#x}) ==\n\n{}\n",
                opts.seed,
                s.render()
            ),
            json: Some(s.to_json()),
            artifacts: vec![
                ("faults.csv".to_string(), crate::csv::faults_csv(&s)),
                ("faults_digest.txt".to_string(), s.digest_artifact()),
            ],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_a_thousand_cells_at_default_breadth() {
        assert!(fault_matrix(FAULT_SEEDS).len() >= 1000);
    }

    #[test]
    fn campaign_is_panic_free_and_its_json_carries_the_digested_residue() {
        let opts = StudyOpts {
            seed: 7,
            ..StudyOpts::default()
        };
        let s = FaultStudy::from_records(7, &study::run_all(&FaultsEntry, opts)).unwrap();
        assert_eq!(s.harness_panics, 0);
        let j = s.to_json();
        assert!(j.starts_with("{\n  \"study\": \"faults\""));
        assert!(j.contains(&format!("\"digest\": \"{:#018x}\"", s.digest())));
        assert_eq!(j.matches("\"verdict\"").count(), s.outcomes.len());
        assert!(j.contains("\"harness_panics\": 0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // The campaign exercises every verdict bucket being possible; at
        // minimum, buggy cells under most tools stay detected.
        assert!(s.outcomes.iter().any(|o| o.verdict == Verdict::Detected));
        assert!(
            s.outcomes.iter().any(|o| o.verdict == Verdict::Crashed),
            "OOM/step-budget cells abort"
        );
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let cells = fault_matrix(1);
        for c in cells.iter().take(20) {
            assert_eq!(c.plan(7), c.plan(7));
            assert_ne!(
                c.plan(7),
                c.plan(8),
                "campaign seed must matter: {}",
                c.label()
            );
        }
    }
}
