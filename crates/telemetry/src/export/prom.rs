//! Prometheus-style text exposition of final counters and histograms.
//!
//! Not a live scrape endpoint — the reproduction runs batch experiments, so
//! the exposition is written once at the end of a run. The format follows
//! the Prometheus text exposition conventions (`# HELP` / `# TYPE`,
//! cumulative `_bucket{le=...}` histogram series) so the file can be pushed
//! through a gateway or diffed directly.

use std::fmt::Write as _;

use crate::hist::{Histograms, Log2Hist};

fn hist_exposition(out: &mut String, name: &str, help: &str, h: &Log2Hist) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    let top = h.max_bucket().unwrap_or(0);
    for i in 0..=top {
        cumulative += h.buckets[i];
        let le = Log2Hist::upper_bound(i);
        if le == u64::MAX {
            continue; // folded into +Inf below
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Renders the exposition: an info gauge naming the shadow-kernel backend
/// the run executed under (`kernel`, e.g. `swar` or `simd-avx2` — the
/// telemetry crate does not depend on `giantsan-shadow`, so callers pass the
/// resolved name), one counter series per `(name, value)` pair in `counters`
/// (names are emitted verbatim, prefixed `giantsan_`), the four
/// deterministic histograms, the per-site path mix, and the dropped-event
/// count (so a truncated trace can never read as a complete one).
pub fn prometheus(
    kernel: &str,
    counters: &[(&str, u64)],
    hists: &Histograms,
    dropped: u64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP giantsan_kernel_info Shadow-kernel backend this run executed under."
    );
    let _ = writeln!(out, "# TYPE giantsan_kernel_info gauge");
    let _ = writeln!(out, "giantsan_kernel_info{{kernel=\"{kernel}\"}} 1");
    for (name, value) in counters {
        let metric = format!("giantsan_{name}_total");
        let _ = writeln!(out, "# HELP {metric} Sanitizer counter `{name}`.");
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    hist_exposition(
        &mut out,
        "giantsan_region_size_bytes",
        "Checked region sizes (log2 buckets).",
        &hists.region_sizes,
    );
    hist_exposition(
        &mut out,
        "giantsan_fold_depth",
        "Folding degrees observed at checks (log2 buckets).",
        &hists.fold_depths,
    );
    hist_exposition(
        &mut out,
        "giantsan_quasi_bound_steps",
        "Quasi-bound refresh ordinals (convergence lengths).",
        &hists.convergence,
    );
    hist_exposition(
        &mut out,
        "giantsan_alloc_size_bytes",
        "Allocation sizes (log2 buckets).",
        &hists.alloc_sizes,
    );
    let _ = writeln!(
        out,
        "# HELP giantsan_site_checks_total Check-path visits per site."
    );
    let _ = writeln!(out, "# TYPE giantsan_site_checks_total counter");
    for (site, mix) in &hists.sites {
        for (path, v) in [
            ("fast", mix.fast),
            ("slow", mix.slow),
            ("cache_hit", mix.cache_hits),
            ("cache_update", mix.cache_updates),
            ("underflow", mix.underflow),
            ("arith", mix.arith),
            ("skipped", mix.skipped),
        ] {
            if v > 0 {
                let _ = writeln!(
                    out,
                    "giantsan_site_checks_total{{site=\"{site}\",path=\"{path}\"}} {v}"
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "# HELP giantsan_trace_events_dropped_total Events past the recorder cap (sampled but not buffered)."
    );
    let _ = writeln!(out, "# TYPE giantsan_trace_events_dropped_total counter");
    let _ = writeln!(out, "giantsan_trace_events_dropped_total {dropped}");
    out
}

/// Renders a generic service exposition: counters, gauges, and log2
/// histograms under caller-chosen metric names.
///
/// The sanitizer exposition above is shaped by the fixed [`Histograms`]
/// taxonomy; the long-lived `repro serve` front-end needs the same text
/// format for *its own* metrics (request totals by status class, admission
/// sheds, queue depth, latency histograms). Names are emitted verbatim —
/// callers prefix (`giantsan_serve_...`) themselves — and histogram
/// rendering reuses the cumulative-bucket discipline, so one scrape parser
/// handles both expositions.
pub fn service_exposition(
    counters: &[(&str, &str, u64)],
    gauges: &[(&str, &str, u64)],
    hists: &[(&str, &str, &Log2Hist)],
) -> String {
    let mut out = String::new();
    for (name, help, value) in counters {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, help, value) in gauges {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, help, h) in hists {
        hist_exposition(&mut out, name, help, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CheckPathKind, EventKind};

    #[test]
    fn service_exposition_renders_all_three_families() {
        let mut h = Log2Hist::default();
        h.record(100);
        h.record(90_000);
        let s = service_exposition(
            &[("svc_requests_total", "Requests.", 12)],
            &[("svc_queue_depth", "Queue depth.", 3)],
            &[("svc_latency_us", "Latency (µs).", &h)],
        );
        assert!(s.contains("# TYPE svc_requests_total counter"));
        assert!(s.contains("svc_requests_total 12"));
        assert!(s.contains("# TYPE svc_queue_depth gauge"));
        assert!(s.contains("svc_queue_depth 3"));
        assert!(s.contains("# TYPE svc_latency_us histogram"));
        assert!(s.contains("svc_latency_us_count 2"));
        assert!(s.contains("svc_latency_us_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn exposition_has_counters_histograms_and_sites() {
        let mut h = Histograms::default();
        h.observe(&EventKind::Check {
            site: 2,
            path: CheckPathKind::Slow,
            write: false,
            loads: 3,
            region: 100,
            code: None,
        });
        h.observe(&EventKind::Alloc {
            size: 64,
            stack: false,
            poison: 8,
        });
        let s = prometheus("swar", &[("shadow_loads", 3), ("reports", 0)], &h, 5);
        assert!(s.contains("giantsan_kernel_info{kernel=\"swar\"} 1"));
        assert!(s.contains("giantsan_shadow_loads_total 3"));
        assert!(s.contains("giantsan_reports_total 0"));
        assert!(s.contains("# TYPE giantsan_region_size_bytes histogram"));
        assert!(s.contains("giantsan_region_size_bytes_bucket{le=\"+Inf\"} 1"));
        assert!(s.contains("giantsan_region_size_bytes_sum 100"));
        assert!(s.contains("giantsan_site_checks_total{site=\"2\",path=\"slow\"} 1"));
        assert!(s.contains("giantsan_trace_events_dropped_total 5"));
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let mut h = Histograms::default();
        for size in [1u64, 2, 4, 8, 1024] {
            h.observe(&EventKind::Alloc {
                size,
                stack: false,
                poison: 0,
            });
        }
        let s = prometheus("scalar", &[], &h, 0);
        let mut last = 0u64;
        for line in s
            .lines()
            .filter(|l| l.starts_with("giantsan_alloc_size_bytes_bucket") && !l.contains("+Inf"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
        assert!(s.contains("giantsan_alloc_size_bytes_count 5"));
    }
}
