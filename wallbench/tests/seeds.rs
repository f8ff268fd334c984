//! Generated inputs are a function of `--seed` alone.

use giantsan_wallbench::detect::JobSpec;
use giantsan_wallbench::programs::cases;
use giantsan_wallbench::{Size, Workload};

fn fingerprint(w: Workload, seed: u64) -> Vec<(String, giantsan_ir::Program, Vec<i64>)> {
    cases(w, Size::Smoke, seed)
        .into_iter()
        .map(|c| (c.name, c.program, c.inputs))
        .collect()
}

#[test]
fn the_same_seed_generates_the_same_programs_and_inputs() {
    for w in Workload::ALL {
        assert_eq!(fingerprint(w, 7), fingerprint(w, 7), "{}", w.name());
    }
    let stream = |seed| -> Vec<String> { (0..256).map(|i| JobSpec::nth(seed, i).body()).collect() };
    assert_eq!(stream(7), stream(7));
}

#[test]
fn another_seed_generates_other_programs_or_another_order() {
    for w in Workload::ALL {
        assert_ne!(fingerprint(w, 7), fingerprint(w, 8), "{}", w.name());
    }
    let stream = |seed| -> Vec<String> { (0..256).map(|i| JobSpec::nth(seed, i).body()).collect() };
    assert_ne!(stream(7), stream(8));
}

#[test]
fn the_job_stream_has_its_stated_mix() {
    let jobs: Vec<JobSpec> = (0..512).map(|i| JobSpec::nth(11, i)).collect();
    let table3 = jobs.iter().filter(|j| j.study == "table3").count();
    let ci = jobs.iter().filter(|j| j.is_ci()).count();
    assert_eq!(ci, 512 / 64);
    // One table3 job per block of eight, unless the block's CI slot took it.
    assert!((512 / 8 - ci..=512 / 8).contains(&table3), "{table3}");
    let fresh: std::collections::HashSet<u64> = jobs
        .iter()
        .filter(|j| j.study == "faults" && !j.is_ci())
        .map(|j| j.opts.seed)
        .collect();
    assert_eq!(fresh.len(), 512 - table3 - ci, "fresh seeds never repeat");
}
