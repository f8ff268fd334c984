//! Causal spans: deterministic, parent-linked attribution records that
//! connect an HTTP request to the shard, cell, pass, and check hot-spot
//! work it caused.
//!
//! A [`Span`] is a **data-plane** record: its id is derived by FNV-1a from
//! its parent's id, its [`SpanKind`], and a deterministic index (shard
//! number, global cell index, site id) — never from wall-clock, worker
//! identity, or allocation addresses. Two runs of the same campaign spec
//! therefore produce byte-identical span sets regardless of thread count,
//! and a span id seen in a flight-recorder dump or a Prometheus exemplar
//! label can be resolved against the job's `spans.jsonl` long after the
//! process died.
//!
//! The chain mirrors the service stack top to bottom:
//!
//! ```text
//! request → admission → scheduler → job → shard → cell → pass / check
//! ```
//!
//! The root of a chain is seeded with the campaign spec hash (which already
//! excludes `--threads`), so span ids are stable across
//! resumes, restarts, and worker counts. Leaf spans below the cell level
//! are synthesized from the [`Recorder`](crate::Recorder) event stream via
//! [`SpanSet::hotspots`]: under the [`NoopRecorder`](crate::NoopRecorder)
//! no events exist, no leaf spans are built, and the layer costs nothing —
//! the same zero-cost-when-disabled discipline the rest of the crate obeys.

use std::fmt::Write as _;

use crate::event::{fnv1a, site_label, Event, EventKind, Fnv1a};
use crate::export::json_escape;

/// Where in the service stack a span sits. The ordering of the variants is
/// the causal order of the chain; [`SpanSet::to_jsonl`] sorts by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// The originating HTTP request (`POST /v1/jobs`).
    Request,
    /// Admission control: rate limiter + bounded queue verdict.
    Admission,
    /// A scheduler worker picked the job up.
    Scheduler,
    /// The job's campaign run as a whole.
    Job,
    /// One committed shard of the campaign.
    Shard,
    /// One batch cell (indexed by its global cell index).
    Cell,
    /// One analysis-pipeline pass inside a cell (tracing only).
    Pass,
    /// One check-site hot-spot inside a cell (tracing only).
    Check,
}

impl SpanKind {
    /// Short stable name used in JSONL output and id derivation.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Admission => "admission",
            SpanKind::Scheduler => "scheduler",
            SpanKind::Job => "job",
            SpanKind::Shard => "shard",
            SpanKind::Cell => "cell",
            SpanKind::Pass => "pass",
            SpanKind::Check => "check",
        }
    }
}

/// Derives a span id from its parent id (or the campaign spec hash for the
/// root), the span kind, and a deterministic index. Pure FNV-1a — no
/// wall-clock, no randomness, no worker identity.
pub fn span_id(parent: u64, kind: SpanKind, index: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(&parent.to_le_bytes());
    h.eat(kind.name().as_bytes());
    h.eat(&index.to_le_bytes());
    h.finish()
}

/// One span: a node in the causal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Deterministic id ([`span_id`] of the parent/kind/index triple).
    pub id: u64,
    /// Parent span id; `None` for the chain root.
    pub parent: Option<u64>,
    /// Position in the stack.
    pub kind: SpanKind,
    /// Deterministic ordinal within the parent (shard number, global cell
    /// index, pass ordinal, site id).
    pub index: u64,
    /// Human-readable label (deterministic; no wall-clock).
    pub label: String,
}

/// An append-only set of spans with derivation helpers, a canonical JSONL
/// rendering, and an FNV-1a digest over that rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSet {
    spans: Vec<Span>,
}

impl SpanSet {
    /// An empty set.
    pub fn new() -> Self {
        SpanSet::default()
    }

    /// Adds the chain root: a [`SpanKind::Request`] span seeded from the
    /// campaign spec hash. Returns the new span's id.
    pub fn root(&mut self, seed: u64, label: impl Into<String>) -> u64 {
        let id = span_id(seed, SpanKind::Request, 0);
        self.spans.push(Span {
            id,
            parent: None,
            kind: SpanKind::Request,
            index: 0,
            label: label.into(),
        });
        id
    }

    /// Adds a child span under `parent` and returns the new span's id.
    pub fn child(
        &mut self,
        parent: u64,
        kind: SpanKind,
        index: u64,
        label: impl Into<String>,
    ) -> u64 {
        let id = span_id(parent, kind, index);
        self.spans.push(Span {
            id,
            parent: Some(parent),
            kind,
            index,
            label: label.into(),
        });
        id
    }

    /// The spans, in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans in the set.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the set holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Looks a span up by id.
    pub fn find(&self, id: u64) -> Option<&Span> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Walks parent links from `id` to the root, returning the ids visited
    /// (starting with `id` itself). Stops after `len()` hops so a corrupt
    /// set can never loop forever.
    pub fn ancestry(&self, id: u64) -> Vec<u64> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            if chain.len() > self.spans.len() {
                break;
            }
            chain.push(c);
            cur = self.find(c).and_then(|s| s.parent);
        }
        chain
    }

    /// Synthesizes leaf spans under `cell_span` from a cell's recorded
    /// event stream: one [`SpanKind::Pass`] span per pipeline pass (in
    /// emission order) and one [`SpanKind::Check`] span per site that took
    /// a slow path, labelled with its slow-path event count. Under the
    /// `NoopRecorder` the stream is empty and nothing is built.
    pub fn hotspots(&mut self, cell_span: u64, events: &[Event]) {
        let mut pass_ordinal = 0u64;
        let mut sites: Vec<(u32, u64)> = Vec::new();
        for e in events {
            match &e.kind {
                EventKind::Pass { pass, enabled, .. } => {
                    let state = if *enabled { "" } else { " (disabled)" };
                    self.child(
                        cell_span,
                        SpanKind::Pass,
                        pass_ordinal,
                        format!("{pass}{state}"),
                    );
                    pass_ordinal += 1;
                }
                EventKind::Check { site, path, .. } if path.is_slow_path() => {
                    match sites.iter_mut().find(|(s, _)| s == site) {
                        Some((_, n)) => *n += 1,
                        None => sites.push((*site, 1)),
                    }
                }
                _ => {}
            }
        }
        sites.sort_by_key(|&(site, _)| site);
        for (site, slow) in sites {
            self.child(
                cell_span,
                SpanKind::Check,
                site as u64,
                format!("{} ({slow} slow-path)", site_label(site)),
            );
        }
    }

    /// Renders the set as JSON Lines: one span per line, sorted by
    /// `(kind, index, id)` so the bytes are independent of insertion order
    /// (and therefore of scheduling).
    pub fn to_jsonl(&self) -> String {
        let mut sorted: Vec<&Span> = self.spans.iter().collect();
        sorted.sort_by_key(|s| (s.kind, s.index, s.id));
        let mut out = String::new();
        for s in sorted {
            let _ = write!(out, "{{\"id\":\"{:#018x}\"", s.id);
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":\"{p:#018x}\"");
            }
            let _ = write!(
                out,
                ",\"kind\":\"{}\",\"index\":{},\"label\":\"{}\"}}",
                s.kind.name(),
                s.index,
                json_escape(&s.label)
            );
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest of [`Self::to_jsonl`] — the thread-invariant span
    /// fingerprint CI diffs across worker counts.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_jsonl().as_bytes())
    }
}

/// Parses one line of [`SpanSet::to_jsonl`] output back into `(id, parent)`
/// — enough to rebuild the parent chain from a dump without a JSON parser.
/// Returns `None` when the line is not a span line.
pub fn parse_span_line(line: &str) -> Option<(u64, Option<u64>)> {
    fn hex_field(line: &str, key: &str) -> Option<u64> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        let hex = rest.strip_prefix("\"0x")?;
        let end = hex.find('"')?;
        u64::from_str_radix(&hex[..end], 16).ok()
    }
    let id = hex_field(line, "\"id\":")?;
    Some((id, hex_field(line, "\"parent\":")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CheckPathKind;

    fn chain() -> (SpanSet, u64, u64) {
        let mut set = SpanSet::new();
        let root = set.root(0xdead_beef, "POST /v1/jobs");
        let adm = set.child(root, SpanKind::Admission, 0, "admitted");
        let sched = set.child(adm, SpanKind::Scheduler, 0, "worker pickup");
        let job = set.child(sched, SpanKind::Job, 0, "job-000001");
        let shard = set.child(job, SpanKind::Shard, 3, "shard 3/16");
        let cell = set.child(shard, SpanKind::Cell, 42, "cell 42");
        (set, root, cell)
    }

    #[test]
    fn ids_are_deterministic_and_distinct() {
        let (a, _, _) = chain();
        let (b, _, _) = chain();
        assert_eq!(a, b);
        let ids: Vec<u64> = a.spans().iter().map(|s| s.id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "all span ids distinct");
        assert_ne!(
            span_id(1, SpanKind::Cell, 0),
            span_id(1, SpanKind::Shard, 0),
            "kind is part of the derivation"
        );
    }

    #[test]
    fn ancestry_walks_to_the_request_root() {
        let (set, root, cell) = chain();
        let up = set.ancestry(cell);
        assert_eq!(up.len(), 6);
        assert_eq!(*up.first().unwrap(), cell);
        assert_eq!(*up.last().unwrap(), root);
        assert_eq!(set.find(root).unwrap().kind, SpanKind::Request);
        assert!(set.find(root).unwrap().parent.is_none());
    }

    #[test]
    fn jsonl_is_insertion_order_invariant_and_round_trips() {
        let (set, root, cell) = chain();
        // Rebuild the same spans in a different insertion order.
        let mut shuffled = SpanSet::new();
        let mut spans: Vec<Span> = set.spans().to_vec();
        spans.reverse();
        for s in spans {
            shuffled.spans.push(s);
        }
        assert_eq!(set.to_jsonl(), shuffled.to_jsonl());
        assert_eq!(set.digest(), shuffled.digest());

        // Every line parses and the cell line links upward to the root.
        let text = set.to_jsonl();
        let parsed: Vec<(u64, Option<u64>)> = text.lines().filter_map(parse_span_line).collect();
        assert_eq!(parsed.len(), set.len());
        let cell_line = parsed.iter().find(|(id, _)| *id == cell).unwrap();
        assert_eq!(cell_line.1, set.find(cell).unwrap().parent);
        let root_line = parsed.iter().find(|(id, _)| *id == root).unwrap();
        assert_eq!(root_line.1, None, "root has no parent field");
    }

    #[test]
    fn hotspots_come_from_the_event_stream_only() {
        let (mut set, _, cell) = chain();
        let before = set.len();
        set.hotspots(cell, &[]);
        assert_eq!(set.len(), before, "no events, no leaf spans");

        let events = vec![
            Event {
                cell: 42,
                seq: 0,
                kind: EventKind::Pass {
                    pass: "merge",
                    enabled: true,
                    visited: 5,
                    transformed: 1,
                    eliminated: 1,
                },
            },
            Event {
                cell: 42,
                seq: 1,
                kind: EventKind::Check {
                    site: 7,
                    path: CheckPathKind::Slow,
                    write: false,
                    loads: 2,
                    region: 64,
                    code: None,
                },
            },
            Event {
                cell: 42,
                seq: 2,
                kind: EventKind::Check {
                    site: 7,
                    path: CheckPathKind::Fast,
                    write: false,
                    loads: 0,
                    region: 8,
                    code: None,
                },
            },
        ];
        set.hotspots(cell, &events);
        assert_eq!(set.len(), before + 2, "one pass + one slow-path site");
        let pass = set
            .spans()
            .iter()
            .find(|s| s.kind == SpanKind::Pass)
            .unwrap();
        assert_eq!(pass.parent, Some(cell));
        assert_eq!(pass.label, "merge");
        let check = set
            .spans()
            .iter()
            .find(|s| s.kind == SpanKind::Check)
            .unwrap();
        assert_eq!(check.index, 7);
        assert!(check.label.contains("1 slow-path"));
        assert_eq!(*set.ancestry(check.id).last().unwrap(), set.spans()[0].id);
    }
}
