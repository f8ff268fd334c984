//! Per-layer measurements that do not depend on the workload's control
//! flow: the shadow kernels and the batch engine's utilisation.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, percentile};
use crate::Metric;

/// Median nanoseconds per call of `f` over 15 batches of `iters` calls.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    median(&batches)
}

/// The `shadow` layer: timed calls into `kernel::active()` on shadow slices
/// of 1, 4 and 64 KiB. Scans run over uniform bytes, so they read the
/// whole slice, as a check of a fully addressable region does.
pub fn shadow_metrics() -> Vec<Metric> {
    let k = giantsan_shadow::kernel::active();
    let mut m = Vec::new();
    for (label, len) in [("1k", 1usize << 10), ("4k", 4 << 10), ("64k", 64 << 10)] {
        let buf = vec![0u8; len];
        let iters = (4u32 << 20) / len as u32;
        m.push(Metric::one(
            format!("shadow.first_ne_ns.{label}"),
            "ns",
            ns_per_call(iters, || {
                black_box(k.first_ne(black_box(&buf), 0));
            }),
        ));
        if len == 1 << 10 {
            continue;
        }
        m.push(Metric::one(
            format!("shadow.first_ge_ns.{label}"),
            "ns",
            ns_per_call(iters, || {
                black_box(k.first_ge(black_box(&buf), 0x80));
            }),
        ));
        let mut dst = vec![0u8; len];
        m.push(Metric::one(
            format!("shadow.fill_ns.{label}"),
            "ns",
            ns_per_call(iters, || k.fill(black_box(&mut dst), 0xfa)),
        ));
        m.push(Metric::one(
            format!("shadow.write_folded_run_ns.{label}"),
            "ns",
            ns_per_call(iters, || k.write_folded_run(black_box(&mut dst))),
        ));
    }
    m
}

/// The `batch` layer from per-cell seconds of one `map` over `threads`
/// workers that took `wall_s`: cell time percentiles, the share of worker
/// time spent in cells, and the worker time left idle.
pub fn batch_metrics(cell_s: &[f64], threads: usize, wall_s: f64) -> Vec<Metric> {
    let busy: f64 = cell_s.iter().sum();
    let capacity = threads as f64 * wall_s;
    let ms: Vec<f64> = cell_s.iter().map(|s| s * 1e3).collect();
    vec![
        Metric::one("batch.cell_ms_p50", "ms", percentile(&ms, 0.50)),
        Metric::one("batch.cell_ms_p95", "ms", percentile(&ms, 0.95)),
        Metric::one("batch.utilisation", "ratio", busy / capacity),
        Metric::one("batch.idle_s", "s", capacity - busy),
    ]
}
