//! Supporting ablation studies (DESIGN.md §5): the §5.4 reverse-traversal
//! mitigation alternatives, the quarantine-capacity trade-off, and the
//! planner pass-subset sweep.

use giantsan_analysis::{analyze, PassId, SiteFate, ToolProfile};
use giantsan_core::GiantSanOptions;
use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::{figure8_program, quarantine_probe, traversal_program, Pattern};

use crate::cost::CostModel;
use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::{run_tool, Tool};

/// One reverse-traversal configuration's outcome.
#[derive(Debug, Clone)]
pub struct ReverseRow {
    /// Configuration label.
    pub label: String,
    /// Modelled time units.
    pub units: f64,
    /// Shadow loads performed.
    pub shadow_loads: u64,
    /// Whether the configuration still catches a redzone-bypassing
    /// underflow (the accuracy half of the trade-off).
    pub catches_bypass: bool,
}

/// One quarantine-capacity sample.
#[derive(Debug, Clone)]
pub struct QuarantineRow {
    /// Quarantine capacity in bytes.
    pub cap: u64,
    /// Of the churn levels probed, how many UAFs were still detected.
    pub detected: u64,
    /// Number of churn levels probed.
    pub total: u64,
}

/// One pass-subset variant's static plan shape and dynamic cost on the
/// Figure-8 workload.
#[derive(Debug, Clone)]
pub struct PassAblationRow {
    /// Variant label.
    pub label: String,
    /// Sites hoisted to a pre-header CI.
    pub promoted: u64,
    /// Sites routed through a quasi-bound cache.
    pub cached: u64,
    /// Sites eliminated by merging (leaders not counted).
    pub merged_away: u64,
    /// Sites left as per-execution checks (direct or anchored).
    pub per_access: u64,
    /// Shadow loads the plan actually performed at runtime.
    pub shadow_loads: u64,
}

/// The three ablation studies, rebuilt from [`AblationEntry`]'s records.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// The §5.4 study: cost and accuracy of each underflow-handling mode on
    /// a reverse traversal, with ASan as the reference point.
    pub reverse: Vec<ReverseRow>,
    /// UAF detection across churn volumes for several quarantine
    /// capacities (the §5.4 "quarantine bypassing" limitation).
    pub quarantine: Vec<QuarantineRow>,
    /// The planner pass-subset sweep: full GiantSan against dropping one
    /// optimisation pass at a time.
    pub passes: Vec<PassAblationRow>,
}

/// The reverse-traversal cell: every underflow-handling configuration on
/// one reverse traversal.
fn reverse_rows(size: u64, rounds: u64) -> Vec<ReverseRow> {
    let model = CostModel::default();
    let (prog, inputs) = traversal_program(Pattern::Reverse, size, rounds);
    let plan = Tool::GiantSan.plan(&prog);
    let configs: [(&str, Option<GiantSanOptions>); 4] = [
        (
            "GiantSan (anchored underflow)",
            Some(GiantSanOptions::default()),
        ),
        (
            "GiantSan + lower-bound cache",
            Some(GiantSanOptions::default().with_reverse_mitigation(true)),
        ),
        (
            "GiantSan, ASan-mode underflow",
            Some(GiantSanOptions::default().with_underflow_anchor(false)),
        ),
        ("ASan", None),
    ];
    configs
        .into_iter()
        .map(|(label, options)| {
            let out = match &options {
                Some(opts) => Tool::GiantSan
                    .builder()
                    .options(opts.clone())
                    .spec()
                    .run_planned(&prog, &plan, &inputs),
                None => run_tool(Tool::Asan, &prog, &inputs, &RuntimeConfig::default()),
            };
            assert!(
                out.result.reports.is_empty(),
                "{label}: clean traversal raised {:?}",
                out.result.reports.first()
            );
            let tool = if options.is_some() {
                Tool::GiantSan
            } else {
                Tool::Asan
            };
            ReverseRow {
                label: label.to_string(),
                units: model.native_units(&out) + model.extra_units(tool, &out.counters),
                shadow_loads: out.counters.shadow_loads,
                catches_bypass: catches_underflow_bypass(options.as_ref()),
            }
        })
        .collect()
}

/// Does this configuration catch a redzone-bypassing negative offset?
fn catches_underflow_bypass(options: Option<&GiantSanOptions>) -> bool {
    let (prog, inputs) = giantsan_workloads::underflow_bypass_probe();
    let cfg = RuntimeConfig::small();
    match options {
        Some(opts) => Tool::GiantSan
            .builder()
            .config(cfg)
            .options(opts.clone())
            .spec()
            .run(&prog, &inputs)
            .detected(),
        None => run_tool(Tool::Asan, &prog, &inputs, &cfg).detected(),
    }
}

/// The quarantine cell: UAF detection per capacity across churn levels.
fn quarantine_rows() -> Vec<QuarantineRow> {
    let churn_levels: [u64; 6] = [0, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20];
    let caps: [u64; 5] = [0, 8 << 10, 128 << 10, 1 << 20, 16 << 20];
    caps.into_iter()
        .map(|cap| {
            let spec = Tool::GiantSan
                .builder()
                .config(
                    RuntimeConfig::builder()
                        .quarantine_cap(cap)
                        .heap_size(32 << 20)
                        .build(),
                )
                .spec();
            let detected = churn_levels
                .iter()
                .filter(|&&churn| {
                    let (prog, inputs) = quarantine_probe(churn);
                    spec.run(&prog, &inputs).detected()
                })
                .count() as u64;
            QuarantineRow {
                cap,
                detected,
                total: churn_levels.len() as u64,
            }
        })
        .collect()
}

/// The pass-subset cell. With profiles declarative
/// [`giantsan_analysis::PassSet`]s, each variant is literally the full
/// profile minus one pass.
fn pass_rows() -> Vec<PassAblationRow> {
    let variants: [(&str, ToolProfile); 5] = [
        ("GiantSan (all passes)", ToolProfile::giantsan()),
        (
            "- cache",
            ToolProfile::giantsan().without_pass(PassId::Cache),
        ),
        (
            "- promote",
            ToolProfile::giantsan().without_pass(PassId::Promote),
        ),
        (
            "- merge",
            ToolProfile::giantsan().without_pass(PassId::Merge),
        ),
        (
            "- anchor",
            ToolProfile::giantsan().without_pass(PassId::Anchor),
        ),
    ];
    let (prog, inputs) = figure8_program(512);
    variants
        .into_iter()
        .map(|(label, profile)| {
            let a = analyze(&prog, &profile);
            let out = Tool::GiantSan
                .builder()
                .spec()
                .run_planned(&prog, &a.plan, &inputs);
            assert!(
                out.result.reports.is_empty(),
                "{label}: clean workload raised {:?}",
                out.result.reports.first()
            );
            let counts = a.fate_counts();
            let n = |f: SiteFate| counts.get(&f).copied().unwrap_or(0) as u64;
            PassAblationRow {
                label: label.to_string(),
                promoted: n(SiteFate::Promoted),
                cached: n(SiteFate::Cached),
                merged_away: n(SiteFate::MergedAway),
                per_access: n(SiteFate::Direct) + n(SiteFate::Anchored),
                shadow_loads: out.counters.shadow_loads,
            }
        })
        .collect()
}

impl Ablation {
    /// Folds [`AblationEntry`]'s three records (one per section) into the
    /// studies.
    pub fn from_records(records: &[Record]) -> Ablation {
        let rows = |name: &str| -> &[Json] {
            let r = records
                .iter()
                .find(|r| r.label == name)
                .unwrap_or_else(|| panic!("ablation record `{name}` missing"));
            study::req_array(&r.payload, "rows")
        };
        Ablation {
            reverse: rows("reverse")
                .iter()
                .map(|r| ReverseRow {
                    label: study::req_str(r, "label").to_string(),
                    units: study::req_f64(r, "units"),
                    shadow_loads: study::req_u64(r, "shadow_loads"),
                    catches_bypass: study::req(r, "catches_bypass")
                        .as_bool()
                        .expect("catches_bypass is a bool"),
                })
                .collect(),
            quarantine: rows("quarantine")
                .iter()
                .map(|r| QuarantineRow {
                    cap: study::req_u64(r, "cap"),
                    detected: study::req_u64(r, "detected"),
                    total: study::req_u64(r, "total"),
                })
                .collect(),
            passes: rows("passes")
                .iter()
                .map(|r| PassAblationRow {
                    label: study::req_str(r, "label").to_string(),
                    promoted: study::req_u64(r, "promoted"),
                    cached: study::req_u64(r, "cached"),
                    merged_away: study::req_u64(r, "merged_away"),
                    per_access: study::req_u64(r, "per_access"),
                    shadow_loads: study::req_u64(r, "shadow_loads"),
                })
                .collect(),
        }
    }

    /// Renders all three studies.
    pub fn render(&self) -> String {
        let mut out = String::from("-- §5.4 reverse-traversal mitigation alternatives --\n");
        let mut t = TextTable::new(vec![
            "configuration".into(),
            "units".into(),
            "shadow loads".into(),
            "catches redzone-bypass underflow".into(),
        ]);
        for r in &self.reverse {
            t.row(vec![
                r.label.clone(),
                format!("{:.0}", r.units),
                r.shadow_loads.to_string(),
                if r.catches_bypass { "yes" } else { "NO" }.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\nThe lower-bound cache removes the per-access underflow CI while keeping\n\
             anchored accuracy; dropping the anchor is cheap but reopens the bypass.\n",
        );

        out.push_str("\n-- quarantine capacity vs use-after-free detection --\n");
        let mut t = TextTable::new(vec![
            "quarantine cap".into(),
            "UAFs detected".into(),
            "churn levels".into(),
        ]);
        for r in &self.quarantine {
            t.row(vec![
                format!("{} KiB", r.cap >> 10),
                r.detected.to_string(),
                r.total.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\nDetection survives exactly as long as the quarantine outlives the churn\n\
             between free and dangling use (§5.4, quarantine bypassing).\n",
        );

        out.push_str("\n-- planner pass subsets on Figure 8 (full GiantSan minus one pass) --\n");
        let mut t = TextTable::new(vec![
            "variant".into(),
            "promoted".into(),
            "cached".into(),
            "merged away".into(),
            "per-access".into(),
            "shadow loads".into(),
        ]);
        for r in &self.passes {
            t.row(vec![
                r.label.clone(),
                r.promoted.to_string(),
                r.cached.to_string(),
                r.merged_away.to_string(),
                r.per_access.to_string(),
                r.shadow_loads.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\nEach dropped pass pushes its sites down the pipeline: no promote means\n\
             the affine loop access falls through to the cache; no cache leaves it as\n\
             a per-iteration anchored check and shadow traffic grows accordingly.\n",
        );
        out
    }
}

/// `repro ablation` as a [`Study`]: one cell per section, each computing
/// its (small, deterministic) rows serially — cross-section parallelism is
/// what sharding buys.
#[derive(Debug, Clone, Copy)]
pub struct AblationEntry;

/// The fixed traversal size `repro ablation` has always used.
const ABLATION_SIZE: u64 = 8192;
/// The fixed traversal rounds `repro ablation` has always used.
const ABLATION_ROUNDS: u64 = 2;

impl Study for AblationEntry {
    fn name(&self) -> &'static str {
        "ablation"
    }

    fn cells(&self, _opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(vec![
            "reverse".to_string(),
            "quarantine".to_string(),
            "passes".to_string(),
        ])
    }

    fn run_cell(&self, _opts: &StudyOpts, index: usize) -> Json {
        let rows: Vec<Json> = match index {
            0 => reverse_rows(ABLATION_SIZE, ABLATION_ROUNDS)
                .into_iter()
                .map(|r| {
                    Json::obj()
                        .field("label", r.label)
                        .field("units", r.units)
                        .field("shadow_loads", r.shadow_loads)
                        .field("catches_bypass", r.catches_bypass)
                })
                .collect(),
            1 => quarantine_rows()
                .into_iter()
                .map(|r| {
                    Json::obj()
                        .field("cap", r.cap)
                        .field("detected", r.detected)
                        .field("total", r.total)
                })
                .collect(),
            2 => pass_rows()
                .into_iter()
                .map(|r| {
                    Json::obj()
                        .field("label", r.label)
                        .field("promoted", r.promoted)
                        .field("cached", r.cached)
                        .field("merged_away", r.merged_away)
                        .field("per_access", r.per_access)
                        .field("shadow_loads", r.shadow_loads)
                })
                .collect(),
            other => unreachable!("ablation has 3 cells, asked for {other}"),
        };
        Json::obj().field("rows", rows)
    }

    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        Ok(StudyOutput {
            report: format!(
                "== Supporting ablations (DESIGN.md §5) ==\n\n{}\n",
                Ablation::from_records(records).render()
            ),
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ablation() -> Ablation {
        Ablation::from_records(&study::run_all(&AblationEntry, StudyOpts::default()))
    }

    #[test]
    fn reverse_mitigation_is_cheapest_accurate_mode() {
        let rows = ablation().reverse;
        let by_label = |l: &str| rows.iter().find(|r| r.label.contains(l)).unwrap();
        let anchored = by_label("anchored underflow");
        let mitigated = by_label("lower-bound cache");
        let degraded = by_label("ASan-mode");
        let asan = rows.iter().find(|r| r.label == "ASan").unwrap();
        // Default anchored mode is slower than ASan on reverse (the paper's
        // 1.39x); both alternatives fix the cost.
        assert!(anchored.units > asan.units);
        assert!(mitigated.units < anchored.units);
        assert!(degraded.units < anchored.units);
        // Accuracy: only the anchored modes catch the bypass.
        assert!(anchored.catches_bypass);
        assert!(mitigated.catches_bypass);
        assert!(!degraded.catches_bypass);
        assert!(!asan.catches_bypass);
        // And the mitigated mode's metadata traffic collapses.
        assert!(mitigated.shadow_loads * 10 < anchored.shadow_loads);
    }

    #[test]
    fn pass_subsets_shift_fates_down_the_pipeline() {
        let rows = ablation().passes;
        let by = |l: &str| rows.iter().find(|r| r.label == l).unwrap();
        let full = by("GiantSan (all passes)");
        assert!(full.promoted > 0 && full.cached > 0);
        // Dropping a pass removes exactly its fate; the sites reappear in a
        // later stage.
        let no_cache = by("- cache");
        assert_eq!(no_cache.cached, 0);
        assert!(no_cache.per_access > full.per_access);
        let no_promote = by("- promote");
        assert_eq!(no_promote.promoted, 0);
        assert!(no_promote.cached >= full.cached);
        // Fewer static optimisations can only cost more metadata traffic.
        assert!(no_cache.shadow_loads > full.shadow_loads);
    }

    #[test]
    fn quarantine_detection_is_monotone_in_capacity() {
        let rows = ablation().quarantine;
        for w in rows.windows(2) {
            assert!(
                w[1].detected >= w[0].detected,
                "bigger quarantine must never detect less"
            );
        }
        assert!(rows.first().unwrap().detected < rows.last().unwrap().detected);
        assert_eq!(rows.last().unwrap().detected, rows.last().unwrap().total);
    }
}
