//! The end-to-end telemetry study behind `repro trace`.
//!
//! One (workload × tool) pair is run as a small cell matrix with the full
//! telemetry pipeline attached: the planner runs under
//! [`analyze_recorded`] (per-pass events), every cell runs under a
//! [`TraceRecorder`] (check / quasi-bound / allocator / containment events
//! plus the sampling histograms), and the batch engine records its
//! scheduling spans into a [`TraceSink`](crate::batch::TraceSink). The study then exports all three
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

use giantsan_analysis::{analyze, analyze_recorded};
use giantsan_ir::{CheckPlan, Program};
use giantsan_runtime::Counters;
use giantsan_telemetry::export::{events_jsonl, prometheus, text_digest, ChromeTrace};
use giantsan_telemetry::{
    site_label, Histograms, Log2Hist, PathMix, SpanKind, SpanSet, TraceRecorder,
};
use giantsan_workloads::{figure8_program, spec_workload};

use crate::batch::BatchTrace;
use crate::json::Json;
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
        text_digest(&self.jsonl)
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
    let mut t = TextTable::new(
        [
            "site", "total", "fast", "hit", "update", "slow", "under", "arith", "skip", "slow%",
        ]
        .map(String::from)
        .to_vec(),
    );
    for (site, mix) in data.hotspots(10) {
        t.row(vec![
            site_label(site),
            mix.total().to_string(),
            mix.fast.to_string(),
            mix.cache_hits.to_string(),
            mix.cache_updates.to_string(),
            mix.slow.to_string(),
            mix.underflow.to_string(),
            mix.arith.to_string(),
            mix.skipped.to_string(),
            pct(mix.slow_share() * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// The request → admission → scheduler → job → shard spine every trace
/// invocation hangs its cell spans off. A CLI invocation has no admission
/// queue or worker pool, but sharing the serve taxonomy means one resolver
/// (`spans.jsonl` + [`giantsan_telemetry::parse_span_line`]) works on both
/// a service job's dump and a `repro trace` artifact. Returns the set and
/// the shard span id cells attach to.
fn span_spine(seed: u64, workload: &str, tool: Tool, cells: usize) -> (SpanSet, u64) {
    let mut set = SpanSet::new();
    let root = set.root(
        seed,
        format!("repro trace: {workload} under {}", tool.name()),
    );
    let adm = set.child(root, SpanKind::Admission, 0, "local invocation (no queue)");
    let sched = set.child(adm, SpanKind::Scheduler, 0, "in-process batch runner");
    let job = set.child(sched, SpanKind::Job, 0, "trace");
    let shard = set.child(
        job,
        SpanKind::Shard,
        0,
        format!("shard 0 (cells 0..{cells})"),
    );
    (set, shard)
}

/// Rebuilds the span chain from the records: the spine from `span_spine`,
/// one cell span per record, Pass leaves parsed back out of each record's
/// rendered JSONL slice, and Check leaves recomputed from the record's
/// sampling histograms (`slow + cache_update + underflow` is exactly the
/// set [`CheckPathKind::is_slow_path`] charges, so the labels match
/// [`SpanSet::hotspots`] over the cell's events byte for byte).
///
/// [`CheckPathKind::is_slow_path`]: giantsan_telemetry::CheckPathKind::is_slow_path
fn trace_spans(seed: u64, workload: &str, tool: Tool, records: &[Record]) -> SpanSet {
    let (mut set, shard) = span_spine(seed, workload, tool, records.len());
    for (index, r) in records.iter().enumerate() {
        let cell_span = set.child(shard, SpanKind::Cell, index as u64, r.label.clone());
        let mut pass_ordinal = 0u64;
        for line in study::req_str(&r.payload, "jsonl").lines() {
            if !line.contains("\"ev\":\"pass\"") {
                continue;
            }
            let Some(name) = line
                .split_once(",\"pass\":\"")
                .and_then(|(_, rest)| rest.split('"').next())
            else {
                continue;
            };
            let state = if line.contains("\"enabled\":false") {
                " (disabled)"
            } else {
                ""
            };
            set.child(
                cell_span,
                SpanKind::Pass,
                pass_ordinal,
                format!("{name}{state}"),
            );
            pass_ordinal += 1;
        }
        let hists = hists_from(study::req(&r.payload, "hists"));
        let mut sites: Vec<(u32, u64)> = hists
            .sites
            .iter()
            .map(|(site, m)| (*site, m.slow + m.cache_updates + m.underflow))
            .filter(|&(_, slow)| slow > 0)
            .collect();
        sites.sort_by_key(|&(site, _)| site);
        for (site, slow) in sites {
            set.child(
                cell_span,
                SpanKind::Check,
                site as u64,
                format!("{} ({slow} slow-path)", site_label(site)),
            );
        }
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

/// [`PathMix`] fields in payload array order.
fn mix_values(m: &PathMix) -> [u64; 7] {
    [
        m.fast,
        m.slow,
        m.cache_hits,
        m.cache_updates,
        m.underflow,
        m.arith,
        m.skipped,
    ]
}

fn mix_from(values: &[u64]) -> PathMix {
    PathMix {
        fast: values[0],
        slow: values[1],
        cache_hits: values[2],
        cache_updates: values[3],
        underflow: values[4],
        arith: values[5],
        skipped: values[6],
    }
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
                .field("mix", study::u64s(&mix_values(mix)))
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
    let mut h = Histograms {
        region_sizes: log2_from(study::req(j, "region_sizes")),
        fold_depths: log2_from(study::req(j, "fold_depths")),
        convergence: log2_from(study::req(j, "convergence")),
        alloc_sizes: log2_from(study::req(j, "alloc_sizes")),
        sites: Default::default(),
    };
    for site in study::req_array(j, "sites") {
        let mix = study::req_u64s(site, "mix");
        h.sites
            .insert(study::req_u64(site, "site") as u32, mix_from(&mix));
    }
    h
}

/// `repro trace` as a [`Study`]: cell 0 is the planner (its per-pass
/// events), cells 1..=[`DEFAULT_CELLS`] are the executed batch cells. Each
/// payload carries the cell's rendered JSONL slice, so a merged campaign
/// concatenates them in index order into the exact monolithic event stream
/// (events are already `(cell, seq)`-sorted within a cell).
#[derive(Debug, Clone, Copy)]
pub struct TraceEntry;

impl TraceEntry {
    /// The deterministic plan every cell runs under (identical to the one
    /// the planning cell records: `analyze` and [`analyze_recorded`] run
    /// the same pipeline).
    fn plan_for(opts: &StudyOpts, program: &Program) -> CheckPlan {
        match opts.tool {
            Tool::Native => CheckPlan::none(program),
            _ => analyze(program, &opts.tool.builder().spec().profile()).plan,
        }
    }
}

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
            let spec = opts.tool.builder().spec();
            if opts.tool != Tool::Native {
                analyze_recorded(&program, &spec.profile(), &mut rec);
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
        let spec = opts.tool.builder().spec();
        let plan = Self::plan_for(opts, &program);
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
        // The span seed is the campaign spec hash — the same fingerprint
        // sharding and resuming verify, and it already excludes `--threads`,
        // so the span digest is invariant across worker counts.
        let seed = crate::campaign::Campaign::new(self, opts.clone())
            .map_err(|e| e.to_string())?
            .spec_hash();
        let spans = trace_spans(seed, &opts.workload, opts.tool, records);
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

    /// The Chrome trace: the batch engine's live scheduling spans plus a
    /// final counter sample carrying the data-plane path totals —
    /// presentation plane, never checkpointed.
    fn presentation(
        &self,
        opts: &StudyOpts,
        records: &[Record],
        schedule: &BatchTrace,
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
            .batches
            .iter()
            .map(|b| b.start_us + b.dur_us)
            .fold(0.0, f64::max);
        let mut mix = PathMix::default();
        for m in TraceData::from_records(records).hists.sites.values() {
            mix.merge(m);
        }
        let series: Vec<(&str, String)> = [
            ("fast", mix.fast),
            ("slow", mix.slow),
            ("cache_hit", mix.cache_hits),
            ("cache_update", mix.cache_updates),
            ("underflow", mix.underflow),
            ("arith", mix.arith),
            ("skipped", mix.skipped),
        ]
        .into_iter()
        .map(|(k, v)| (k, v.to_string()))
        .collect();
        let series_refs: Vec<(&str, &str)> = series.iter().map(|(k, v)| (*k, v.as_str())).collect();
        t.counter(1, "check paths", end, &series_refs);
        vec![("trace_chrome.json".to_string(), t.finish())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchRunner, TraceSink};
    use crate::campaign::Campaign;
    use giantsan_telemetry::{Event, PRE_CHECK_SITE};

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
        assert_eq!(site1.cache_updates, DEFAULT_CELLS as u64, "{site1:?}");
        assert!(site1.cache_hits > site1.cache_updates, "{site1:?}");
        // The hoisted pre-header region check runs once per cell and is the
        // only metadata work left for x[i]; site 0 itself is eliminated.
        let pre = data.hists.site(PRE_CHECK_SITE).expect("pre-header traced");
        assert_eq!(pre.total(), DEFAULT_CELLS as u64, "{pre:?}");
        assert_eq!(pre.fast + pre.slow, pre.total(), "{pre:?}");
        let site0 = data.hists.site(0).expect("site 0 traced");
        assert_eq!(site0.total(), site0.skipped, "{site0:?}");
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
        let sink = TraceSink::new();
        let runner = BatchRunner::new(2).with_sink(std::sync::Arc::clone(&sink));
        let records = Campaign::new(&TraceEntry, o.clone())
            .unwrap()
            .run_all(&runner);
        let out = TraceEntry.render(&o, &records).unwrap();
        let kernel = giantsan_shadow::kernel::active().name();

        let jsonl = artifact(&out, "trace_events.jsonl");
        assert!(jsonl.lines().count() > 10);
        assert!(jsonl.starts_with("{\"cell\":0,\"seq\":0,"));
        let digest = artifact(&out, "trace_digest.txt");
        assert_eq!(digest, format!("{:#018x}\n", text_digest(jsonl)));
        let prom = artifact(&out, "trace_metrics.prom");
        assert!(prom.contains(&format!("giantsan_kernel_info{{kernel=\"{kernel}\"}} 1")));
        assert!(prom.contains("giantsan_shadow_loads_total"));
        assert!(prom.contains("giantsan_site_checks_total"));

        let presentation = TraceEntry.presentation(&o, &records, &sink.take());
        let chrome = &presentation[0].1;
        assert_eq!(presentation[0].0, "trace_chrome.json");
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("check paths"));
        assert!(chrome.contains(&format!("[kernel={kernel}]")));
    }

    /// One cell's event stream, recorded directly (the oracle the
    /// payload-derived span chain must reproduce).
    fn cell_events(o: &StudyOpts, cell: u32) -> Vec<Event> {
        let (program, base_inputs) = workload_program(&o.workload, o.scale).unwrap();
        let spec = o.tool.builder().spec();
        let mut rec = TraceRecorder::for_cell(cell);
        if cell == 0 {
            analyze_recorded(&program, &spec.profile(), &mut rec);
        } else {
            let plan = TraceEntry::plan_for(o, &program);
            let inputs = cell_inputs(&o.workload, o.scale, cell, &base_inputs);
            spec.run_planned_recorded(&program, &plan, &inputs, &mut rec);
        }
        rec.finish().0
    }

    #[test]
    fn span_artifact_matches_the_event_stream_and_is_causally_complete() {
        let o = opts("figure8", Tool::GiantSan);
        let campaign = Campaign::new(&TraceEntry, o.clone()).unwrap();
        let seed = campaign.spec_hash();
        let records = campaign.run_all(&BatchRunner::serial());
        let out = TraceEntry.render(&o, &records).unwrap();
        let jsonl = artifact(&out, "trace_spans.jsonl");
        let digest = artifact(&out, "trace_span_digest.txt");
        assert!(digest.starts_with("0x") && digest.ends_with('\n'));

        // The payload-reconstructed chain equals the one derived from the
        // recorded event streams by `SpanSet::hotspots`.
        let (mut from_events, shard) =
            span_spine(seed, &o.workload, o.tool, DEFAULT_CELLS as usize + 1);
        for (cell, r) in records.iter().enumerate() {
            let cell_span = from_events.child(shard, SpanKind::Cell, cell as u64, r.label.clone());
            from_events.hotspots(cell_span, &cell_events(&o, cell as u32));
        }
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
        assert!(native.hists.sites.values().all(|m| m.total() == m.skipped));
        assert!(Campaign::new(&TraceEntry, opts("nope", Tool::GiantSan)).is_err());
    }
}
