//! JSON Lines export of the deterministic event stream.
//!
//! One JSON object per line, stable key order, no floats, no wall-clock, no
//! worker ids — the rendered bytes (and therefore [`jsonl_digest`]) are a
//! pure function of the sorted event stream and are invariant under thread
//! count.

use std::fmt::Write as _;

use crate::event::{fnv1a, Event, EventKind};

/// Renders `events` as JSON Lines, sorted by `(cell, seq)`.
///
/// Sorting makes the output independent of how per-cell streams were
/// concatenated; within a cell, `seq` preserves emission order.
pub fn events_jsonl(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| (e.cell, e.seq));
    let mut out = String::new();
    for e in sorted {
        let _ = write!(out, "{{\"cell\":{},\"seq\":{},", e.cell, e.seq);
        match &e.kind {
            EventKind::Check {
                site,
                path,
                write,
                loads,
                region,
                code,
            } => {
                let _ = write!(
                    out,
                    "\"ev\":\"check\",\"site\":{},\"path\":\"{}\",\"write\":{},\"loads\":{},\"region\":{}",
                    site,
                    path.name(),
                    write,
                    loads,
                    region
                );
                if let Some(c) = code {
                    let _ = write!(out, ",\"code\":{c}");
                }
            }
            EventKind::QuasiBound {
                site,
                old_ub,
                new_ub,
                step,
            } => {
                let _ = write!(
                    out,
                    "\"ev\":\"quasi_bound\",\"site\":{site},\"old_ub\":{old_ub},\"new_ub\":{new_ub},\"step\":{step}"
                );
            }
            EventKind::Alloc {
                size,
                stack,
                poison,
            } => {
                let _ = write!(
                    out,
                    "\"ev\":\"alloc\",\"size\":{size},\"stack\":{stack},\"poison\":{poison}"
                );
            }
            EventKind::Free { poison } => {
                let _ = write!(out, "\"ev\":\"free\",\"poison\":{poison}");
            }
            EventKind::Realloc { new_size, poison } => {
                let _ = write!(
                    out,
                    "\"ev\":\"realloc\",\"new_size\":{new_size},\"poison\":{poison}"
                );
            }
            EventKind::Report { site } => {
                let _ = write!(out, "\"ev\":\"report\"");
                if let Some(s) = site {
                    let _ = write!(out, ",\"site\":{s}");
                }
            }
            EventKind::Contained { site, suppressed } => {
                let _ = write!(out, "\"ev\":\"contained\",\"suppressed\":{suppressed}");
                if let Some(s) = site {
                    let _ = write!(out, ",\"site\":{s}");
                }
            }
            EventKind::Pass {
                pass,
                enabled,
                visited,
                transformed,
                eliminated,
            } => {
                let _ = write!(
                    out,
                    "\"ev\":\"pass\",\"pass\":\"{pass}\",\"enabled\":{enabled},\"visited\":{visited},\"transformed\":{transformed},\"eliminated\":{eliminated}"
                );
            }
            EventKind::Run {
                steps,
                native_work,
                reports,
            } => {
                let _ = write!(
                    out,
                    "\"ev\":\"run\",\"steps\":{steps},\"native_work\":{native_work},\"reports\":{reports}"
                );
            }
        }
        out.push_str("}\n");
    }
    out
}

/// FNV-1a digest of the rendered JSONL bytes — the thread-invariant trace
/// fingerprint CI diffs serial vs parallel.
pub fn jsonl_digest(events: &[Event]) -> u64 {
    fnv1a(events_jsonl(events).as_bytes())
}

/// FNV-1a digest of an already-rendered JSONL document.
///
/// Campaign shards store each cell's event stream as rendered JSONL text;
/// merging concatenates the per-cell texts in `(cell, seq)` order, so
/// digesting the concatenation with this function equals [`jsonl_digest`]
/// of the merged event list without re-parsing a single event.
pub fn text_digest(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CheckPathKind;

    fn ev(cell: u32, seq: u64) -> Event {
        Event {
            cell,
            seq,
            kind: EventKind::Check {
                site: 1,
                path: CheckPathKind::Fast,
                write: false,
                loads: 1,
                region: 8,
                code: Some(64),
            },
        }
    }

    #[test]
    fn lines_are_valid_shaped_json_and_sorted() {
        let events = vec![ev(1, 0), ev(0, 1), ev(0, 0)];
        let s = events_jsonl(&events);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"cell\":0,\"seq\":0,"));
        assert!(lines[1].starts_with("{\"cell\":0,\"seq\":1,"));
        assert!(lines[2].starts_with("{\"cell\":1,\"seq\":0,"));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert!(l.contains("\"ev\":\"check\""));
            assert!(l.contains("\"code\":64"));
        }
    }

    #[test]
    fn digest_is_order_invariant_under_sorting() {
        let a = vec![ev(0, 0), ev(1, 0), ev(1, 1)];
        let b = vec![ev(1, 1), ev(0, 0), ev(1, 0)];
        assert_eq!(jsonl_digest(&a), jsonl_digest(&b));
    }

    #[test]
    fn every_kind_renders() {
        let kinds = vec![
            EventKind::QuasiBound {
                site: 2,
                old_ub: 0,
                new_ub: 64,
                step: 1,
            },
            EventKind::Alloc {
                size: 10,
                stack: true,
                poison: 4,
            },
            EventKind::Free { poison: 4 },
            EventKind::Realloc {
                new_size: 20,
                poison: 8,
            },
            EventKind::Report { site: None },
            EventKind::Contained {
                site: Some(3),
                suppressed: true,
            },
            EventKind::Pass {
                pass: "merge",
                enabled: true,
                visited: 5,
                transformed: 1,
                eliminated: 1,
            },
            EventKind::Run {
                steps: 100,
                native_work: 50,
                reports: 0,
            },
        ];
        let events: Vec<Event> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                cell: 0,
                seq: i as u64,
                kind,
            })
            .collect();
        let s = events_jsonl(&events);
        for tag in [
            "quasi_bound",
            "alloc",
            "free",
            "realloc",
            "report",
            "contained",
            "pass",
            "run",
        ] {
            assert!(s.contains(&format!("\"ev\":\"{tag}\"")), "{tag} missing");
        }
    }
}
