//! The end-to-end telemetry study behind `repro trace`.
//!
//! One (workload × tool) pair is run as a small cell matrix with the full
//! telemetry pipeline attached: the planner runs under
//! [`analyze_recorded`] (per-pass events), every cell runs under a
//! [`TraceRecorder`] (check / quasi-bound / allocator / containment events
//! plus the sampling histograms), and the batch engine records its
//! scheduling into a [`FlightRecorder`]. The study then exports all three
//! formats the telemetry crate supports:
//!
//! * **JSON Lines** — the deterministic data-plane event stream, sorted by
//!   `(cell, seq)`; its FNV-1a digest is invariant under thread count.
//! * **Chrome `trace_event`** — the presentation plane (worker tracks, cell
//!   slices, wall-clock), loadable in Perfetto / `chrome://tracing`.
//! * **Prometheus text exposition** — final counters, log2 histograms, and
//!   the per-site check-path mix.
//!
//! [`TraceData::hotspots`] ranks sites by slow-path share, which on the
//! paper's Figure 8 example singles out the data-dependent `y[j]` store
//! (history-cache refreshes) and the hoisted pre-header / loop-final region
//! checks — exactly the sites the paper's optimisation story is about.

use std::collections::BTreeMap;

use giantsan_analysis::analyze_recorded;
use giantsan_ir::Program;
use giantsan_runtime::Counters;
use giantsan_telemetry::export::{events_jsonl, prometheus, ChromeTrace};
use giantsan_telemetry::{
    fnv1a, site_label, span_id, CheckPathKind, FlightRecorder, Histograms, Log2Hist, PathMix,
    SpanKind, SpanSet, TraceRecorder,
};
use giantsan_workloads::{figure8_program, spec_workload};

use crate::campaign::Campaign;
use crate::json::Json;
use crate::session::SessionSpec;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::{pct, TextTable};
use crate::tool::Tool;

/// Number of batch cells a trace study runs (cell ids `1..=DEFAULT_CELLS`;
/// cell 0 carries the planner's per-pass events).
pub const DEFAULT_CELLS: u32 = 4;

/// Data-plane summary of one executed cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRun {
    /// Cell id (1-based; 0 is the planning cell).
    pub cell: u32,
    /// [`giantsan_ir::ExecResult::digest`] of the run.
    pub result_digest: u64,
    /// Executed statement count.
    pub steps: u64,
    /// Error reports raised.
    pub reports: usize,
    /// Events this cell emitted (before any cap).
    pub events: usize,
    /// The cell's sanitizer counters.
    pub counters: Counters,
}

/// The data plane of one `repro trace` invocation, folded from
/// [`TraceEntry`]'s records. Every field is invariant under thread count
/// and shard partition.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// The merged event stream as JSON Lines, sorted by `(cell, seq)`.
    pub jsonl: String,
    /// Merged sampling histograms (all cells).
    pub hists: Histograms,
    /// Events past the per-cell recorder caps (sampled, not buffered).
    pub dropped: u64,
    /// Events recorded across all cells.
    pub events: usize,
    /// Summed sanitizer counters across the executed cells.
    pub counters: Counters,
    /// Per-cell run summaries, in cell order.
    pub runs: Vec<TraceRun>,
}

impl TraceData {
    /// Folds the records (all cells, in index order). Each payload carries
    /// its cell's rendered JSONL slice, so concatenating them in index
    /// order is the exact event stream.
    pub fn from_records(records: &[Record]) -> TraceData {
        let mut data = TraceData {
            jsonl: String::new(),
            hists: Histograms::default(),
            dropped: 0,
            events: 0,
            counters: Counters::default(),
            runs: Vec::new(),
        };
        for r in records {
            data.jsonl.push_str(study::req_str(&r.payload, "jsonl"));
            data.hists
                .merge(&hists_from(study::req(&r.payload, "hists")));
            data.dropped += study::req_u64(&r.payload, "dropped");
            data.events += study::req_u64(&r.payload, "events") as usize;
            if study::req_str(&r.payload, "kind") == "run" {
                let counters = Counters::from_field_values(
                    study::req_u64s(&r.payload, "counters")
                        .try_into()
                        .expect("counters payload carries every field"),
                );
                data.counters += &counters;
                data.runs.push(TraceRun {
                    cell: study::req_u64(&r.payload, "cell") as u32,
                    result_digest: study::req_hex(&r.payload, "result_digest"),
                    steps: study::req_u64(&r.payload, "steps"),
                    reports: study::req_u64(&r.payload, "reports") as usize,
                    events: study::req_u64(&r.payload, "events") as usize,
                    counters,
                });
            }
        }
        data
    }

    /// FNV-1a digest of the JSONL bytes — the thread-invariant fingerprint
    /// `trace_digest.txt` carries.
    pub fn digest(&self) -> u64 {
        fnv1a(self.jsonl.as_bytes())
    }

    /// The top `n` sites by slow-path share (ties broken by visit volume,
    /// then site id). Sentinel sites render via [`site_label`].
    pub fn hotspots(&self, n: usize) -> Vec<(u32, PathMix)> {
        let mut v: Vec<(u32, PathMix)> = self.hists.sites.iter().map(|(s, m)| (*s, *m)).collect();
        v.sort_by(|a, b| {
            b.1.slow_share()
                .total_cmp(&a.1.slow_share())
                .then(b.1.total().cmp(&a.1.total()))
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }
}

/// Builds the program under study. `figure8` is the paper's worked example;
/// anything else is looked up as a SPEC-model row id.
fn workload_program(id: &str, scale: u64) -> Option<(Program, Vec<i64>)> {
    if id == "figure8" {
        Some(figure8_program((64 * scale) as i64))
    } else {
        spec_workload(id, scale).map(|w| (w.program, w.inputs))
    }
}

/// Per-cell inputs: figure8 scales its trip count with the cell id (so the
/// cells exercise different convergence lengths); SPEC workloads replay
/// their fixed input tape in every cell.
fn cell_inputs(id: &str, scale: u64, cell: u32, base: &[i64]) -> Vec<i64> {
    if id == "figure8" {
        vec![(64 * scale * cell as u64) as i64]
    } else {
        base.to_vec()
    }
}

/// The report body: run summaries plus the hot-spot table.
fn render_report(opts: &StudyOpts, kernel: &str, data: &TraceData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} under {} [kernel={}]: {} cells on {} worker(s), {} events ({} dropped), \
         digest {:#018x}\n\n",
        opts.workload,
        opts.tool.name(),
        kernel,
        data.runs.len(),
        opts.threads,
        data.events,
        data.dropped,
        data.digest()
    ));

    let mut t = TextTable::new(
        ["cell", "steps", "events", "reports", "result digest"]
            .map(String::from)
            .to_vec(),
    );
    for r in &data.runs {
        t.row(vec![
            r.cell.to_string(),
            r.steps.to_string(),
            r.events.to_string(),
            r.reports.to_string(),
            format!("{:#018x}", r.result_digest),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n-- hot spots by slow-path share --\n");
    let columns = [
        CheckPathKind::Fast,
        CheckPathKind::CacheHit,
        CheckPathKind::CacheUpdate,
        CheckPathKind::Slow,
        CheckPathKind::Underflow,
        CheckPathKind::Arith,
        CheckPathKind::Skipped,
    ];
    let mut header = vec!["site".to_string(), "total".to_string()];
    header.extend(columns.map(|p| p.name().to_string()));
    header.push("slow%".to_string());
    let mut t = TextTable::new(header);
    for (site, mix) in data.hotspots(10) {
        let mut row = vec![site_label(site), mix.total().to_string()];
        row.extend(columns.map(|p| mix[p].to_string()));
        row.push(pct(mix.slow_share() * 100.0));
        t.row(row);
    }
    out.push_str(&t.render());
    out
}

/// What a cell's span leaves derive from: its pipeline passes
/// (`(name, enabled)`, in emission order) and its per-site path mixes.
type CellLeaves = (Vec<(String, bool)>, BTreeMap<u32, PathMix>);

/// Reads a record's [`CellLeaves`] back out of its payload: the pass events
/// of its rendered JSONL slice and the site mixes of its histograms.
fn cell_leaves(r: &Record) -> CellLeaves {
    let passes = study::req_str(&r.payload, "jsonl")
        .lines()
        .filter(|line| line.contains("\"ev\":\"pass\""))
        .map(|line| {
            let e = Json::parse(line).expect("payload event line is JSON");
            let enabled = study::req(&e, "enabled").as_bool().expect("pass state");
            (study::req_str(&e, "pass").to_string(), enabled)
        })
        .collect();
    (passes, sites_from(study::req(&r.payload, "hists")))
}

/// The span chain of a trace run: the spine [`Campaign::spans`] builds for
/// one local shard, then each cell's [`SpanSet::hotspots`] leaves. A CLI
/// invocation has no admission queue or worker pool, but sharing the serve
/// taxonomy means one resolver works on both a service job's `spans.jsonl`
/// and a `repro trace` artifact.
fn trace_spans(campaign: &Campaign, cells: &[CellLeaves]) -> SpanSet {
    let opts = campaign.opts();
    let spans = campaign.spans(
        [
            &format!("repro trace: {} under {}", opts.workload, opts.tool.name()),
            "local invocation (no queue)",
            "in-process batch runner",
            "trace",
        ],
        1,
    );
    let shard = span_id(spans.job, SpanKind::Shard, 0);
    let mut set = spans.set;
    for (index, (passes, sites)) in cells.iter().enumerate() {
        let cell = span_id(shard, SpanKind::Cell, index as u64);
        set.hotspots(cell, passes.iter().map(|(p, on)| (p.as_str(), *on)), sites);
    }
    set
}

// ---------------------------------------------------------------------------
// Histogram payload codec: campaign shards carry each cell's sampling
// histograms through JSON. Encoding is sparse (non-empty buckets only) and
// decoding is exact, so merged histograms equal the monolithic run's.
// ---------------------------------------------------------------------------

/// Encodes one log2 histogram as `{"b": [[bucket, count], ...], "count": n,
/// "sum": s}` with empty buckets omitted.
fn log2_json(h: &Log2Hist) -> Json {
    let b: Vec<Json> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(i, &c)| Json::from(vec![Json::from(i as u64), Json::from(c)]))
        .collect();
    Json::obj()
        .field("b", b)
        .field("count", h.count)
        .field("sum", h.sum)
}

fn log2_from(j: &Json) -> Log2Hist {
    let mut h = Log2Hist::default();
    for pair in study::req_array(j, "b") {
        let pair = pair.as_array().expect("histogram bucket pair");
        let i = pair[0].as_u64().expect("bucket index") as usize;
        h.buckets[i] = pair[1].as_u64().expect("bucket count");
    }
    h.count = study::req_u64(j, "count");
    h.sum = study::req_u64(j, "sum");
    h
}

/// Encodes a full [`Histograms`] set (the four log2 histograms plus the
/// per-site path mixes).
fn hists_json(h: &Histograms) -> Json {
    let sites: Vec<Json> = h
        .sites
        .iter()
        .map(|(site, mix)| {
            Json::obj()
                .field("site", *site)
                .field("mix", study::u64s(&mix.0))
        })
        .collect();
    Json::obj()
        .field("region_sizes", log2_json(&h.region_sizes))
        .field("fold_depths", log2_json(&h.fold_depths))
        .field("convergence", log2_json(&h.convergence))
        .field("alloc_sizes", log2_json(&h.alloc_sizes))
        .field("sites", sites)
}

/// Inverse of [`hists_json`].
fn hists_from(j: &Json) -> Histograms {
    Histograms {
        region_sizes: log2_from(study::req(j, "region_sizes")),
        fold_depths: log2_from(study::req(j, "fold_depths")),
        convergence: log2_from(study::req(j, "convergence")),
        alloc_sizes: log2_from(study::req(j, "alloc_sizes")),
        sites: sites_from(j),
    }
}

/// The per-site path mixes of a [`hists_json`] encoding, leaving its log2
/// histograms undecoded.
fn sites_from(j: &Json) -> BTreeMap<u32, PathMix> {
    study::req_array(j, "sites")
        .iter()
        .map(|site| {
            let mix = study::req_u64s(site, "mix")
                .try_into()
                .expect("mix payload carries every path");
            (study::req_u64(site, "site") as u32, PathMix(mix))
        })
        .collect()
}

/// `repro trace` as a [`Study`]: cell 0 is the planner (its per-pass
/// events), cells 1..=[`DEFAULT_CELLS`] are the executed batch cells. Each
/// payload carries the cell's rendered JSONL slice, so a merged campaign
/// concatenates them in index order into the exact monolithic event stream
/// (events are already `(cell, seq)`-sorted within a cell).
#[derive(Debug, Clone, Copy)]
pub struct TraceEntry;

impl Study for TraceEntry {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        workload_program(&opts.workload, opts.scale).ok_or_else(|| {
            format!(
                "unknown workload `{}` (figure8 or a SPEC row id like 519.lbm_r)",
                opts.workload
            )
        })?;
        let mut labels = vec!["plan".to_string()];
        labels.extend((1..=DEFAULT_CELLS).map(|c| format!("cell-{c}")));
        Ok(labels)
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let (program, base_inputs) =
            workload_program(&opts.workload, opts.scale).expect("validated by cells()");
        if index == 0 {
            // The planning cell: per-pass events (none under Native).
            let mut rec = TraceRecorder::for_cell(0);
            if opts.tool != Tool::Native {
                analyze_recorded(&program, &opts.tool.profile(), &mut rec);
            }
            let (ev, h, d) = rec.finish();
            return Json::obj()
                .field("kind", "plan")
                .field("jsonl", events_jsonl(&ev))
                .field("events", ev.len() as u64)
                .field("dropped", d)
                .field("hists", hists_json(&h));
        }
        let cell = index as u32;
        // The plan the planning cell records: `Tool::plan` and
        // `analyze_recorded` run the same pipeline.
        let spec = SessionSpec::new(opts.tool);
        let plan = opts.tool.plan(&program);
        let inputs = cell_inputs(&opts.workload, opts.scale, cell, &base_inputs);
        let mut rec = TraceRecorder::for_cell(cell);
        let out = spec.run_planned_recorded(&program, &plan, &inputs, &mut rec);
        let (ev, h, d) = rec.finish();
        Json::obj()
            .field("kind", "run")
            .field("cell", cell)
            .field("jsonl", events_jsonl(&ev))
            .field("steps", out.result.steps)
            .field("reports", out.result.reports.len() as u64)
            .field("result_digest", Json::hex(out.result.digest()))
            .field("events", ev.len() as u64)
            .field("counters", study::u64s(&out.counters.field_values()))
            .field("dropped", d)
            .field("hists", hists_json(&h))
    }

    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let kernel = giantsan_shadow::kernel::active().name();
        let data = TraceData::from_records(records);
        let report = format!(
            "== End-to-end telemetry trace: {} under {} ==\n\n{}\n",
            opts.workload,
            opts.tool.name(),
            render_report(opts, kernel, &data)
        );
        let counter_fields: Vec<(&str, u64)> = data.counters.fields().collect();
        // The spans are seeded with the campaign spec hash — the same
        // fingerprint sharding and resuming verify, and it already excludes
        // `--threads`, so the span digest is invariant across worker counts.
        let campaign = Campaign::new(self, opts.clone()).map_err(|e| e.to_string())?;
        let cells: Vec<CellLeaves> = records.iter().map(cell_leaves).collect();
        let spans = trace_spans(&campaign, &cells);
        let digest = data.digest();
        Ok(StudyOutput {
            report,
            main_artifacts: vec![
                ("trace_events.jsonl".to_string(), data.jsonl),
                (
                    "trace_metrics.prom".to_string(),
                    prometheus(kernel, &counter_fields, &data.hists, data.dropped),
                ),
                ("trace_digest.txt".to_string(), format!("{digest:#018x}\n")),
                ("trace_spans.jsonl".to_string(), spans.to_jsonl()),
                (
                    "trace_span_digest.txt".to_string(),
                    format!("{:#018x}\n", spans.digest()),
                ),
            ],
            artifacts: vec![(
                "trace_counters.csv".to_string(),
                crate::csv::trace_counters_csv(&data.runs),
            )],
            ..StudyOutput::default()
        })
    }

    /// The Chrome trace: the flight recorder's shard and cell slices plus a
    /// final counter sample carrying the data-plane path totals —
    /// presentation plane, never checkpointed.
    fn presentation(
        &self,
        opts: &StudyOpts,
        records: &[Record],
        schedule: &FlightRecorder,
    ) -> Vec<(String, String)> {
        let process = format!(
            "repro trace: {} under {} [kernel={}]",
            opts.workload,
            opts.tool.name(),
            giantsan_shadow::kernel::active().name()
        );
        let mut t = ChromeTrace::new();
        schedule.render_chrome(&mut t, 1, &process);
        let end = schedule
            .snapshot()
            .iter()
            .map(|e| e.ts_us)
            .max()
            .unwrap_or(0) as f64;
        let mut mix = PathMix::default();
        for r in records {
            for m in sites_from(study::req(&r.payload, "hists")).values() {
                mix.merge(m);
            }
        }
        let series: Vec<(&str, String)> = CheckPathKind::ALL
            .into_iter()
            .map(|p| (p.name(), mix[p].to_string()))
            .collect();
        let series_refs: Vec<(&str, &str)> = series.iter().map(|(k, v)| (*k, v.as_str())).collect();
        t.counter(1, "check paths", end, &series_refs);
        vec![("trace_chrome.json".to_string(), t.finish())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRunner;
    use crate::campaign::Campaign;
    use giantsan_telemetry::{EventKind, PRE_CHECK_SITE};

    fn opts(workload: &str, tool: Tool) -> StudyOpts {
        StudyOpts {
            workload: workload.to_string(),
            tool,
            scale: 1,
            ..StudyOpts::default()
        }
    }

    /// One file of a rendered study, by name.
    fn artifact<'a>(out: &'a StudyOutput, name: &str) -> &'a str {
        out.main_artifacts
            .iter()
            .chain(&out.artifacts)
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
            .unwrap_or_else(|| panic!("{name} not rendered"))
    }

    #[test]
    fn figure8_trace_covers_every_layer() {
        let data = TraceData::from_records(&study::run_all(
            &TraceEntry,
            opts("figure8", Tool::GiantSan),
        ));
        assert_eq!(data.runs.len(), DEFAULT_CELLS as usize);
        // Planner events (cell 0) are present alongside run events.
        let lines: Vec<&str> = data.jsonl.lines().collect();
        assert_eq!(lines.len(), data.events);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("{\"cell\":0,") && l.contains("\"ev\":\"pass\"")));
        assert!(lines.iter().any(|l| l.contains("\"ev\":\"run\"")));
        assert!(lines.iter().any(|l| l.contains("\"ev\":\"alloc\"")));
        // All three figure8 sites were observed.
        for site in [0u32, 1, 2] {
            assert!(data.hists.site(site).is_some(), "site {site} missing");
        }
        assert_eq!(data.dropped, 0);
    }

    #[test]
    fn figure8_hotspots_single_out_the_slow_path_sites() {
        let o = opts("figure8", Tool::GiantSan);
        let records = study::run_all(&TraceEntry, o.clone());
        let data = TraceData::from_records(&records);
        // The data-dependent y[j] store (site 1) refreshes its history
        // cache once per cell, then hits it for the rest of the loop.
        let site1 = data.hists.site(1).expect("site 1 traced");
        let (hits, updates) = (
            site1[CheckPathKind::CacheHit],
            site1[CheckPathKind::CacheUpdate],
        );
        assert_eq!(updates, DEFAULT_CELLS as u64, "{site1:?}");
        assert!(hits > updates, "{site1:?}");
        // The hoisted pre-header region check runs once per cell and is the
        // only metadata work left for x[i]; site 0 itself is eliminated.
        let pre = data.hists.site(PRE_CHECK_SITE).expect("pre-header traced");
        assert_eq!(pre.total(), DEFAULT_CELLS as u64, "{pre:?}");
        assert_eq!(
            pre[CheckPathKind::Fast] + pre[CheckPathKind::Slow],
            pre.total(),
            "{pre:?}"
        );
        let site0 = data.hists.site(0).expect("site 0 traced");
        assert_eq!(site0.total(), site0[CheckPathKind::Skipped], "{site0:?}");
        // Ranking: the once-per-cell region checks (memset guardian,
        // pre-header) carry the highest slow-path share, the cached y[j]
        // store follows, and the eliminated x[i] load ranks below them all.
        let hot: Vec<u32> = data
            .hotspots(10)
            .into_iter()
            .map(|(site, _)| site)
            .collect();
        let pos = |s: u32| hot.iter().position(|&x| x == s);
        assert!(pos(2) < pos(1), "{hot:?}");
        assert!(pos(PRE_CHECK_SITE) < pos(1), "{hot:?}");
        assert!(pos(1) < pos(0), "{hot:?}");
        let rendered = TraceEntry.render(&o, &records).unwrap().report;
        assert!(rendered.contains("pre-header"), "{rendered}");
        assert!(rendered.contains("hot spots"));
    }

    #[test]
    fn exporters_render_all_three_formats() {
        let o = opts("figure8", Tool::GiantSan);
        let flight = std::sync::Arc::new(FlightRecorder::new(2, 64));
        let runner = BatchRunner::new(2).with_flight(std::sync::Arc::clone(&flight), 0, 0);
        let records = Campaign::new(&TraceEntry, o.clone())
            .unwrap()
            .run_all(&runner);
        let out = TraceEntry.render(&o, &records).unwrap();
        let kernel = giantsan_shadow::kernel::active().name();

        let jsonl = artifact(&out, "trace_events.jsonl");
        assert!(jsonl.lines().count() > 10);
        assert!(jsonl.starts_with("{\"cell\":0,\"seq\":0,"));
        let digest = artifact(&out, "trace_digest.txt");
        assert_eq!(digest, format!("{:#018x}\n", fnv1a(jsonl.as_bytes())));
        let prom = artifact(&out, "trace_metrics.prom");
        assert!(prom.contains(&format!("giantsan_kernel_info{{kernel=\"{kernel}\"}} 1")));
        assert!(prom.contains("giantsan_shadow_loads_total"));
        assert!(prom.contains("giantsan_site_checks_total"));

        let presentation = TraceEntry.presentation(&o, &records, &flight);
        let chrome = &presentation[0].1;
        assert_eq!(presentation[0].0, "trace_chrome.json");
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert_eq!(chrome.matches("\"cat\":\"cell\"").count(), records.len());
        assert_eq!(chrome.matches("\"cat\":\"shard\"").count(), 1);
        assert!(chrome.contains("check paths"));
        assert!(chrome.contains(&format!("[kernel={kernel}]")));
    }

    /// One cell's span leaves, recorded directly: the pass events of its
    /// stream and its `TraceRecorder` site mixes (the oracle the
    /// payload-derived span chain must reproduce).
    fn recorded_leaves(o: &StudyOpts, cell: u32) -> CellLeaves {
        let (program, base_inputs) = workload_program(&o.workload, o.scale).unwrap();
        let mut rec = TraceRecorder::for_cell(cell);
        if cell == 0 {
            analyze_recorded(&program, &o.tool.profile(), &mut rec);
        } else {
            let spec = SessionSpec::new(o.tool);
            let plan = o.tool.plan(&program);
            let inputs = cell_inputs(&o.workload, o.scale, cell, &base_inputs);
            spec.run_planned_recorded(&program, &plan, &inputs, &mut rec);
        }
        let (events, hists, _) = rec.finish();
        let passes = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Pass { pass, enabled, .. } => Some((pass.to_string(), enabled)),
                _ => None,
            })
            .collect();
        (passes, hists.sites)
    }

    #[test]
    fn span_artifact_matches_the_event_stream_and_is_causally_complete() {
        let o = opts("figure8", Tool::GiantSan);
        let campaign = Campaign::new(&TraceEntry, o.clone()).unwrap();
        let records = campaign.run_all(&BatchRunner::serial());
        let out = TraceEntry.render(&o, &records).unwrap();
        let jsonl = artifact(&out, "trace_spans.jsonl");
        let digest = artifact(&out, "trace_span_digest.txt");
        assert!(digest.starts_with("0x") && digest.ends_with('\n'));

        // The payload-reconstructed chain equals the one built from the
        // directly recorded cells.
        let recorded: Vec<CellLeaves> = (0..records.len())
            .map(|cell| recorded_leaves(&o, cell as u32))
            .collect();
        assert_eq!(
            recorded,
            records.iter().map(cell_leaves).collect::<Vec<_>>()
        );
        let from_events = trace_spans(&campaign, &recorded);
        assert_eq!(from_events.to_jsonl(), jsonl);
        assert_eq!(format!("{:#018x}\n", from_events.digest()), digest);

        // The chain is causally complete: every span resolves to the
        // request root, and pass + slow-path leaves made it in.
        let root = from_events.spans()[0].id;
        assert_eq!(from_events.find(root).unwrap().kind, SpanKind::Request);
        for s in from_events.spans() {
            assert_eq!(*from_events.ancestry(s.id).last().unwrap(), root, "{s:?}");
        }
        assert!(from_events.spans().iter().any(|s| s.kind == SpanKind::Pass));
        assert!(from_events
            .spans()
            .iter()
            .any(|s| s.kind == SpanKind::Check));
    }

    #[test]
    fn spec_workloads_and_native_trace_too() {
        let lbm =
            TraceData::from_records(&study::run_all(&TraceEntry, opts("519.lbm_r", Tool::Asan)));
        assert!(!lbm.jsonl.is_empty());
        let native =
            TraceData::from_records(&study::run_all(&TraceEntry, opts("figure8", Tool::Native)));
        // No planner events for Native (no pipeline runs), but run events
        // still flow; every check is planner-skipped.
        assert!(!native.jsonl.contains("\"ev\":\"pass\""));
        assert!(native.jsonl.contains("\"ev\":\"run\""));
        assert!(native
            .hists
            .sites
            .values()
            .all(|m| m.total() == m[CheckPathKind::Skipped]));
        assert!(Campaign::new(&TraceEntry, opts("nope", Tool::GiantSan)).is_err());
    }
}
