//! Chrome `trace_event` export, loadable in Perfetto / `chrome://tracing`.
//!
//! This is the **presentation plane**: unlike the JSONL stream, slices here
//! carry real wall-clock timestamps and worker identities (workers render as
//! tracks, cells as slices), because the whole point of the view is to see
//! where wall-clock goes inside a batch run. Nothing emitted here is ever
//! digested or compared across thread counts.
//!
//! The emitted JSON is the object form `{"traceEvents": [...]}`; every event
//! carries the `ph`/`ts`/`pid`/`tid` keys the format requires.

use std::fmt::Write as _;

use super::json_escape;

/// Incremental builder for a Chrome trace file.
///
/// # Example
///
/// ```
/// use giantsan_telemetry::export::ChromeTrace;
/// let mut t = ChromeTrace::new();
/// t.process_name(1, "batch");
/// t.thread_name(1, 1, "worker 0");
/// t.complete(1, 1, "cell 0", "cell", 0.0, 150.0, &[("span", "0x1")]);
/// t.instant(1, 1, "report", 75.0);
/// t.counter(1, "checks", 100.0, &[("fast", "90"), ("slow", "10")]);
/// let json = t.finish();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"ph\":\"X\""));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no event has been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn args_json(args: &[(&str, &str)]) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        s.push('}');
        s
    }

    /// Names process `pid` (a metadata `M` event).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Names thread `tid` of process `pid` (a metadata `M` event).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Adds a complete slice (`ph: "X"`): `ts`/`dur` in microseconds.
    #[allow(clippy::too_many_arguments)] // mirrors the trace_event field list
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, &str)],
    ) {
        self.events.push(format!(
            "{{\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
            json_escape(name),
            json_escape(cat),
            Self::args_json(args)
        ));
    }

    /// Adds an instant event (`ph: "i"`, thread scope).
    pub fn instant(&mut self, pid: u32, tid: u32, name: &str, ts_us: f64) {
        self.events.push(format!(
            "{{\"ph\":\"i\",\"ts\":{ts_us:.3},\"pid\":{pid},\"tid\":{tid},\"s\":\"t\",\"name\":\"{}\"}}",
            json_escape(name)
        ));
    }

    /// Adds a counter sample (`ph: "C"`).
    pub fn counter(&mut self, pid: u32, name: &str, ts_us: f64, series: &[(&str, &str)]) {
        self.events.push(format!(
            "{{\"ph\":\"C\",\"ts\":{ts_us:.3},\"pid\":{pid},\"tid\":0,\"name\":\"{}\",\"args\":{}}}",
            json_escape(name),
            Self::args_json(series)
        ));
    }

    /// Renders the trace as a single JSON object.
    pub fn finish(self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_keys_are_present_on_every_event() {
        let mut t = ChromeTrace::new();
        t.process_name(1, "p");
        t.thread_name(1, 2, "w");
        t.complete(1, 2, "cell", "exec", 1.0, 2.0, &[]);
        t.instant(1, 2, "hit", 1.5);
        t.counter(1, "c", 0.0, &[("a", "1")]);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        let json = t.finish();
        for line in json.lines().filter(|l| l.starts_with('{') && l.len() > 2) {
            if line.starts_with("{\"traceEvents\"") {
                continue;
            }
            assert!(line.contains("\"ph\":"), "{line}");
            assert!(line.contains("\"ts\":"), "{line}");
            assert!(line.contains("\"pid\":"), "{line}");
        }
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}\n"));
    }

    #[test]
    fn names_are_escaped() {
        let mut t = ChromeTrace::new();
        t.complete(1, 1, "a\"b", "c\\d", 0.0, 1.0, &[("k\"", "v\n")]);
        let json = t.finish();
        assert!(json.contains("a\\\"b"));
        assert!(json.contains("c\\\\d"));
        assert!(json.contains("v\\n"));
    }
}
