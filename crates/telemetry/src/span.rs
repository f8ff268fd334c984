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
//! are built by [`SpanSet::hotspots`] from what a
//! [`TraceRecorder`](crate::TraceRecorder) kept of the cell: its pipeline
//! passes and its per-site [`PathMix`] aggregates. Under the
//! [`NoopRecorder`](crate::NoopRecorder) neither exists, no leaf spans are
//! built, and the layer costs nothing — the same zero-cost-when-disabled
//! discipline the rest of the crate obeys.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{fnv1a, site_label, Fnv1a};
use crate::export::json_escape;
use crate::hist::PathMix;

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

    /// Builds the leaf spans under `cell_span`: one [`SpanKind::Pass`] span
    /// per pipeline pass (`(name, enabled)`, in emission order) and one
    /// [`SpanKind::Check`] span per site that took a slow path, labelled
    /// with its [`PathMix::slow_paths`] count. A cell with no passes and no
    /// slow-path sites gets no leaves.
    pub fn hotspots<'a>(
        &mut self,
        cell_span: u64,
        passes: impl IntoIterator<Item = (&'a str, bool)>,
        sites: &BTreeMap<u32, PathMix>,
    ) {
        for (ordinal, (pass, enabled)) in passes.into_iter().enumerate() {
            let state = if enabled { "" } else { " (disabled)" };
            self.child(
                cell_span,
                SpanKind::Pass,
                ordinal as u64,
                format!("{pass}{state}"),
            );
        }
        for (&site, mix) in sites {
            let slow = mix.slow_paths();
            if slow > 0 {
                self.child(
                    cell_span,
                    SpanKind::Check,
                    site as u64,
                    format!("{} ({slow} slow-path)", site_label(site)),
                );
            }
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
    fn jsonl_is_insertion_order_invariant_and_links_parents() {
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

        // Every span is one line; the root has no parent field and the cell
        // line names its parent.
        let text = set.to_jsonl();
        assert_eq!(text.lines().count(), set.len());
        let line_of = |id: u64| {
            let key = format!("{{\"id\":\"{id:#018x}\"");
            text.lines().find(|l| l.starts_with(&key)).unwrap()
        };
        let parent = set.find(cell).unwrap().parent.unwrap();
        assert!(line_of(cell).contains(&format!("\"parent\":\"{parent:#018x}\"")));
        assert!(!line_of(root).contains("\"parent\""), "root has no parent");
    }

    #[test]
    fn hotspots_come_from_passes_and_site_mixes() {
        let (mut set, _, cell) = chain();
        let before = set.len();
        set.hotspots(cell, [], &BTreeMap::new());
        assert_eq!(set.len(), before, "no passes, no sites, no leaf spans");

        let mut sites = BTreeMap::new();
        // Site 7: one slow check and one fast one; site 9: fast only.
        let mut hot = PathMix::default();
        hot[CheckPathKind::Slow] = 1;
        hot[CheckPathKind::Fast] = 1;
        sites.insert(7, hot);
        let mut cold = PathMix::default();
        cold[CheckPathKind::Fast] = 3;
        sites.insert(9, cold);
        set.hotspots(cell, [("merge", true), ("hoist", false)], &sites);
        assert_eq!(set.len(), before + 3, "two passes + one slow-path site");
        let passes: Vec<&Span> = set
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Pass)
            .collect();
        assert_eq!(passes[0].parent, Some(cell));
        assert_eq!(passes[0].label, "merge");
        assert_eq!(
            (passes[1].index, passes[1].label.as_str()),
            (1, "hoist (disabled)")
        );
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
