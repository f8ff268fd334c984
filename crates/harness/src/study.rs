//! The unified `Study` API: every experiment behind one trait.
//!
//! Historically each table/figure had its own ad-hoc entry point in the
//! `repro` binary. This module replaces those with a single object-safe
//! [`Study`] trait — a study names itself, enumerates its *cells* (the
//! independent units of work the batch engine shards), runs one cell to a
//! self-describing [`Json`] payload, and renders a list of completed
//! [`Record`]s back into the human-readable report, machine-readable JSON,
//! and CSV artifacts the repo has always produced.
//!
//! The payload-per-cell discipline is what makes campaigns durable (see
//! [`crate::campaign`]): a cell's payload round-trips through
//! [`Json::render_compact`] / [`Json::parse`], so a shard written to disk by
//! one process can be re-read by another and rendered into a report that is
//! byte-identical to a monolithic in-memory run.
//!
//! [`StudyRegistry::builtin`] lists every study; `repro` dispatches by name.

use std::ops::Range;

use crate::batch::{BatchRunner, BatchTrace};
use crate::json::Json;
use crate::tool::Tool;

/// The shared experiment parameters every `repro` subcommand accepts.
///
/// The scheduling knob (`threads`) deliberately does **not** enter
/// [`StudyOpts::params`]: two campaigns that differ only in it produce
/// identical cell payloads, so they share a spec hash and can resume each
/// other's checkpoints.
#[derive(Debug, Clone)]
pub struct StudyOpts {
    /// Workload scale factor (`--scale`).
    pub scale: u64,
    /// Detection-corpus subsampling divisor (`--div`).
    pub div: u32,
    /// Traversal repeat count (`--rounds`).
    pub rounds: u64,
    /// Campaign seed (`--seed`).
    pub seed: u64,
    /// Trace workload id (`--workload`).
    pub workload: String,
    /// Trace tool (`--tool`).
    pub tool: Tool,
    /// Worker-pool size (`--threads`); excluded from the spec hash.
    pub threads: usize,
}

impl Default for StudyOpts {
    fn default() -> Self {
        StudyOpts {
            scale: 1,
            div: 10,
            rounds: 4,
            seed: 0,
            workload: "figure8".to_string(),
            tool: Tool::GiantSan,
            threads: BatchRunner::available_parallelism(),
        }
    }
}

impl StudyOpts {
    /// The deterministic parameter list that enters a campaign's spec hash
    /// and its `campaign.json` header, as `(key, value)` pairs.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scale", self.scale.to_string()),
            ("div", self.div.to_string()),
            ("rounds", self.rounds.to_string()),
            ("seed", format!("{:#x}", self.seed)),
            ("workload", self.workload.clone()),
            ("tool", self.tool.name().to_string()),
        ]
    }

    /// Rebuilds opts from [`StudyOpts::params`] pairs (the inverse used by
    /// `repro merge`, which reconstructs a study from a campaign header).
    ///
    /// Unknown keys are rejected — a header written by a newer binary with
    /// more parameters must not silently lose them.
    pub fn from_params(pairs: &[(String, String)]) -> Result<StudyOpts, String> {
        let mut opts = StudyOpts::default();
        for (k, v) in pairs {
            match k.as_str() {
                "scale" => opts.scale = v.parse().map_err(|e| format!("bad scale `{v}`: {e}"))?,
                "div" => opts.div = v.parse().map_err(|e| format!("bad div `{v}`: {e}"))?,
                "rounds" => {
                    opts.rounds = v.parse().map_err(|e| format!("bad rounds `{v}`: {e}"))?
                }
                "seed" => {
                    let hex = v.strip_prefix("0x").ok_or(format!("bad seed `{v}`"))?;
                    opts.seed =
                        u64::from_str_radix(hex, 16).map_err(|e| format!("bad seed `{v}`: {e}"))?;
                }
                "workload" => opts.workload = v.clone(),
                "tool" => opts.tool = Tool::parse(v).ok_or(format!("unknown tool `{v}`"))?,
                other => return Err(format!("unknown campaign parameter `{other}`")),
            }
        }
        Ok(opts)
    }
}

/// One completed cell: its index in the study's cell list, its stable
/// label, and the payload its run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Index into [`Study::cells`].
    pub index: usize,
    /// The cell's label (verified against [`Study::cells`] on reload).
    pub label: String,
    /// The cell's self-describing result.
    pub payload: Json,
}

/// What a render pass produces.
#[derive(Debug, Clone, Default)]
pub struct StudyOutput {
    /// The human-readable report (printed to stdout in text mode).
    pub report: String,
    /// The machine-readable document, for studies that define one
    /// (printed instead of `report` under `--format json`).
    pub json: Option<String>,
    /// `(name, content)` files written only when an output directory was
    /// given (the CSV exports).
    pub artifacts: Vec<(String, String)>,
    /// `(name, content)` files written to the output directory *or* the
    /// current directory (the trace exports, which always land somewhere).
    pub main_artifacts: Vec<(String, String)>,
}

/// An experiment: a named, shardable cell matrix plus a renderer.
///
/// A study is the only computation behind its table or figure: the CLI,
/// campaigns, the service and the tests all run it through
/// [`Study::run_range`] and [`Study::render`].
///
/// Implementations must keep [`Study::run_cell`] a pure function of
/// `(opts, index)`: its whole payload is deterministic (no wall-clock
/// fields), so any partition of the cell range and any worker count merge
/// back into the monolithic records, byte for byte.
pub trait Study: Send + Sync {
    /// The study's registry/CLI name.
    fn name(&self) -> &'static str;

    /// The cell labels, in matrix order. `Err` for invalid opts (e.g. an
    /// unknown trace workload).
    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String>;

    /// Runs one cell to its payload. Must be independent of every other
    /// cell — this is the contract that makes sharding sound.
    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json;

    /// Renders completed records (all cells, in index order) into the
    /// study's report and artifacts.
    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String>;

    /// Runs a contiguous index range under `runner`.
    ///
    /// The default shards the range cell-by-cell with panic isolation;
    /// studies with expensive shared setup (suites, plan caches) override
    /// this to hoist it per range while producing the same payloads.
    fn run_range(&self, opts: &StudyOpts, range: Range<usize>, runner: &BatchRunner) -> Vec<Json> {
        let indices: Vec<usize> = range.collect();
        let batch = runner.try_map(&indices, |_, &i| self.run_cell(opts, i));
        batch
            .results
            .into_iter()
            .zip(&indices)
            .map(|(r, &i)| {
                r.or_else(|| self.placeholder(opts, i)).unwrap_or_else(|| {
                    panic!(
                        "study {}: cell {i} panicked and has no placeholder",
                        self.name()
                    )
                })
            })
            .collect()
    }

    /// The payload to record when a cell panics and is quarantined by the
    /// batch engine. `None` (the default) re-raises the panic; the fault
    /// campaign overrides this to record a synthetic crashed outcome.
    fn placeholder(&self, _opts: &StudyOpts, _index: usize) -> Option<Json> {
        None
    }

    /// Presentation-plane artifacts that need the live scheduling trace
    /// (wall-clock spans; never digested, never part of a checkpoint).
    fn presentation(
        &self,
        _opts: &StudyOpts,
        _records: &[Record],
        _schedule: &BatchTrace,
    ) -> Vec<(String, String)> {
        Vec::new()
    }
}

/// The study registry `repro` dispatches over.
pub struct StudyRegistry {
    studies: Vec<Box<dyn Study>>,
}

impl std::fmt::Debug for StudyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyRegistry")
            .field("studies", &self.names())
            .finish()
    }
}

impl StudyRegistry {
    /// Every built-in study, in the order `repro`'s usage string lists them.
    pub fn builtin() -> StudyRegistry {
        use crate::experiments::*;
        StudyRegistry {
            studies: vec![
                Box::new(table2::Table2Entry),
                Box::new(fig10::Fig10Entry),
                Box::new(table3::Table3Entry),
                Box::new(table4::Table4Entry),
                Box::new(table5::Table5Entry),
                Box::new(fig11::Fig11Entry),
                Box::new(ablation::AblationEntry),
                Box::new(plan::PlanEntry),
                Box::new(memory::MemoryEntry),
                Box::new(density::DensityEntry),
                Box::new(echo::EchoEntry),
                Box::new(fault_study::FaultsEntry),
                Box::new(trace::TraceEntry),
            ],
        }
    }

    /// Looks a study up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Study> {
        self.studies
            .iter()
            .find(|s| s.name() == name)
            .map(|s| s.as_ref())
    }

    /// All registered names, in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.studies.iter().map(|s| s.name()).collect()
    }
}

/// The generic machine-readable fallback for studies without a dedicated
/// JSON form: the study name plus every record verbatim.
pub fn records_json(name: &str, records: &[Record]) -> String {
    let cells: Vec<Json> = records
        .iter()
        .map(|r| {
            Json::obj()
                .field("cell", r.index)
                .field("label", r.label.as_str())
                .field("payload", r.payload.clone())
        })
        .collect();
    Json::obj()
        .field("study", name)
        .field("cells", cells)
        .render()
}

// ---------------------------------------------------------------------------
// Payload codec helpers shared by the per-study `Study` impls. Payload
// decoding failures are programming errors (campaign blobs are digest-
// verified before they reach a renderer), so these panic with context
// rather than threading `Result`s through every row rebuild.
// ---------------------------------------------------------------------------

/// Fetches a required field, panicking with the key on absence.
pub fn req<'a>(payload: &'a Json, key: &str) -> &'a Json {
    payload
        .get(key)
        .unwrap_or_else(|| panic!("payload missing field `{key}`: {payload:?}"))
}

/// A required `u64` field.
pub fn req_u64(payload: &Json, key: &str) -> u64 {
    req(payload, key)
        .as_u64()
        .unwrap_or_else(|| panic!("field `{key}` is not a u64"))
}

/// A required `f64` field (accepts integers).
pub fn req_f64(payload: &Json, key: &str) -> f64 {
    req(payload, key)
        .as_f64()
        .unwrap_or_else(|| panic!("field `{key}` is not a number"))
}

/// A required string field.
pub fn req_str<'a>(payload: &'a Json, key: &str) -> &'a str {
    req(payload, key)
        .as_str()
        .unwrap_or_else(|| panic!("field `{key}` is not a string"))
}

/// A required `0x`-hex digest field.
pub fn req_hex(payload: &Json, key: &str) -> u64 {
    req(payload, key)
        .as_hex()
        .unwrap_or_else(|| panic!("field `{key}` is not a hex digest"))
}

/// A required array field.
pub fn req_array<'a>(payload: &'a Json, key: &str) -> &'a [Json] {
    req(payload, key)
        .as_array()
        .unwrap_or_else(|| panic!("field `{key}` is not an array"))
}

/// Encodes a float slice.
pub fn f64s(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::F64(v)).collect())
}

/// Decodes a float array field.
pub fn req_f64s(payload: &Json, key: &str) -> Vec<f64> {
    req_array(payload, key)
        .iter()
        .map(|v| {
            v.as_f64()
                .unwrap_or_else(|| panic!("non-number in `{key}`"))
        })
        .collect()
}

/// Encodes a u64 slice.
pub fn u64s(values: &[u64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::U64(v)).collect())
}

/// Decodes a u64 array field.
pub fn req_u64s(payload: &Json, key: &str) -> Vec<u64> {
    req_array(payload, key)
        .iter()
        .map(|v| v.as_u64().unwrap_or_else(|| panic!("non-u64 in `{key}`")))
        .collect()
}

/// Encodes a bool slice.
pub fn bools(values: &[bool]) -> Json {
    Json::Array(values.iter().map(|&v| Json::Bool(v)).collect())
}

/// Decodes a bool array field.
pub fn req_bools(payload: &Json, key: &str) -> Vec<bool> {
    req_array(payload, key)
        .iter()
        .map(|v| v.as_bool().unwrap_or_else(|| panic!("non-bool in `{key}`")))
        .collect()
}

/// Runs every cell of `study` at `opts` on the default runner: the
/// monolithic path `repro <study>` takes. Unit tests read records here.
#[cfg(test)]
pub(crate) fn run_all(study: &dyn Study, opts: StudyOpts) -> Vec<Record> {
    crate::campaign::Campaign::new(study, opts)
        .expect("valid study opts")
        .run_all(&BatchRunner::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_trip() {
        let mut opts = StudyOpts {
            scale: 3,
            div: 7,
            rounds: 9,
            seed: 0xdead_beef,
            workload: "519.lbm_r".to_string(),
            tool: Tool::Asan,
            ..StudyOpts::default()
        };
        let pairs: Vec<(String, String)> = opts
            .params()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let back = StudyOpts::from_params(&pairs).unwrap();
        // threads is not part of params: normalise before comparing.
        opts.threads = back.threads;
        assert_eq!(format!("{opts:?}"), format!("{back:?}"));
        assert!(StudyOpts::from_params(&[("nope".into(), "1".into())]).is_err());
    }

    #[test]
    fn registry_names_are_unique_and_cover_the_cli() {
        let reg = StudyRegistry::builtin();
        let names = reg.names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for n in ["table2", "faults", "trace", "plan", "all"] {
            if n == "all" {
                assert!(reg.get(n).is_none(), "`all` is a meta-command, not a study");
            } else {
                assert!(reg.get(n).is_some(), "{n} missing from the registry");
            }
        }
    }

    #[test]
    fn codec_helpers_round_trip() {
        let p = Json::obj()
            .field("f", f64s(&[1.5, -2.0]))
            .field("u", u64s(&[1, 2]))
            .field("b", bools(&[true, false]))
            .field("h", Json::hex(0xabc))
            .field("s", "x");
        let p = Json::parse(&p.render_compact()).unwrap();
        assert_eq!(req_f64s(&p, "f"), vec![1.5, -2.0]);
        assert_eq!(req_u64s(&p, "u"), vec![1, 2]);
        assert_eq!(req_bools(&p, "b"), vec![true, false]);
        assert_eq!(req_hex(&p, "h"), 0xabc);
        assert_eq!(req_str(&p, "s"), "x");
    }
}
