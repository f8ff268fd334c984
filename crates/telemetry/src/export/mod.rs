//! The export pipeline: JSON Lines, Chrome `trace_event`, Prometheus text.
//!
//! | Format | Function / type | Plane |
//! |---|---|---|
//! | JSON Lines event stream | [`events_jsonl`] | data (deterministic, digested) |
//! | Chrome `trace_event` JSON | [`ChromeTrace`] | presentation (wall-clock, workers) |
//! | Prometheus text exposition | [`prometheus`] | data (final counters + histograms) |

mod chrome;
mod jsonl;
mod prom;

pub use chrome::ChromeTrace;
pub use jsonl::events_jsonl;
pub use prom::{prometheus, service_exposition};

/// Escapes `s` for embedding in a JSON string literal: quote, backslash and
/// every control character below U+0020 (`\n`, `\r`, `\t` by name, the rest
/// as `\u00XX`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_the_control_set() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t"), "x\\n\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
