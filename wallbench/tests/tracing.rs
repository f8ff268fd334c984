//! The traced pass must time the same program the untraced pass runs.

use giantsan_wallbench::programs::{cases, config, execute, plan_all, TOOLS};
use giantsan_wallbench::timed::{Calibration, Probe};
use giantsan_wallbench::{Size, Workload};

/// Every `Sanitizer` method, the defaulted ones included, reaches the
/// wrapped tool: a traced run leaves the same digest and the same counters
/// as an untraced one. A wrapper that let `cached_check` fall back to the
/// trait default would show here as GiantSan losing its cache hits.
#[test]
fn traced_runs_equal_untraced_runs_on_every_workload() {
    let cal = Calibration::measure();
    for w in Workload::ALL {
        let cfg = config(w);
        let (planned, _) = plan_all(cases(w, Size::Smoke, 3));
        for p in &planned {
            for (t, &tool) in TOOLS.iter().enumerate() {
                let plain = execute(tool, &cfg, &p.case, &p.plans[t], None);
                let mut probe = Probe::new(cal);
                let traced = execute(tool, &cfg, &p.case, &p.plans[t], Some(&mut probe));
                let what = format!("{} {} under {}", w.name(), p.case.name, tool.name());
                assert_eq!(plain.result.digest(), traced.result.digest(), "{what}");
                assert_eq!(plain.counters, traced.counters, "{what}");
                assert_eq!(
                    probe.layer_calls(true) > 0,
                    plain.counters.total_checks() > 0,
                    "{what}: check calls were counted"
                );
            }
        }
    }
}

/// The sample is about one call in 64, and every call is counted.
#[test]
fn sampling_times_about_one_call_in_64() {
    let w = Workload::Spec;
    let (planned, _) = plan_all(cases(w, Size::Smoke, 1));
    let cal = Calibration::measure();
    let (mut calls, mut sampled) = (0u64, 0u64);
    for p in &planned {
        let mut probe = Probe::new(cal);
        let _ = execute(TOOLS[2], &config(w), &p.case, &p.plans[2], Some(&mut probe));
        calls += probe.calls.iter().sum::<u64>();
        sampled += probe.sampled.iter().sum::<u64>();
    }
    let rate = sampled as f64 / calls as f64;
    assert!(calls > 100_000, "{calls} calls");
    assert!((1.0 / 72.0..1.0 / 56.0).contains(&rate), "rate {rate}");
}
