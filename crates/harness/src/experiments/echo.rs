//! Service smoke study: many tiny, independent sanitizer sessions.
//!
//! `repro echo` is the cheap, deterministic workload the sanitizer service
//! is load-tested with: `--scale N` gives `N` cells, each running `--rounds`
//! fuzz-generated memory-safe programs (seeded from `--seed` and the cell
//! index) under `--tool` and digesting the interpreter results. Cells cost
//! microseconds-to-milliseconds, so thousands of submissions saturate the
//! admission queue without each one monopolising a worker — exactly the
//! regime `loadgen` and `BENCH_PR9.json` measure. Because every payload is a
//! pure function of `(seed, index, rounds, tool)`, lost or duplicated cells
//! shift the job digest, which is what the chaos drill checks.

use giantsan_runtime::RuntimeConfig;
use giantsan_telemetry::Fnv1a;
use giantsan_workloads::fuzz::safe_program;

use crate::faults::splitmix64;
use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::run_tool;

/// `repro echo` as a study: `--scale` cells of `--rounds` tiny sessions.
#[derive(Debug, Clone, Copy)]
pub struct EchoEntry;

impl Study for EchoEntry {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok((0..opts.scale).map(|i| format!("echo-{i:04}")).collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let cfg = RuntimeConfig::small();
        let mut state = opts.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut digest = Fnv1a::new();
        let mut steps = 0u64;
        let mut shadow_loads = 0u64;
        for _ in 0..opts.rounds.max(1) {
            // Cooperative cancellation point: tiny fuzz programs can finish
            // in fewer interpreter steps than the watchdog poll interval,
            // so the cell polls once per round to stay cancellable under a
            // per-cell deadline (a no-op when nothing is armed).
            giantsan_ir::watchdog::poll();
            let seed = splitmix64(&mut state);
            let w = safe_program(seed);
            let out = run_tool(opts.tool, &w.program, &w.inputs, &cfg);
            digest.eat(&out.result.digest().to_le_bytes());
            digest.eat(&out.counters.shadow_loads.to_le_bytes());
            steps += out.result.steps;
            shadow_loads += out.counters.shadow_loads;
        }
        Json::obj()
            .field("digest", Json::hex(digest.finish()))
            .field("steps", steps)
            .field("shadow_loads", shadow_loads)
    }

    fn placeholder(&self, _opts: &StudyOpts, _index: usize) -> Option<Json> {
        // A quarantined cell (panic or watchdog timeout) records a fixed
        // synthetic payload, so the service degrades to a deterministic
        // verdict instead of tearing down the whole job.
        Some(
            Json::obj()
                .field("digest", Json::hex(0))
                .field("steps", 0u64)
                .field("shadow_loads", 0u64)
                .field("quarantined", true),
        )
    }

    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let mut t = TextTable::new(vec![
            "Cell".into(),
            "Steps".into(),
            "Shadow loads".into(),
            "Digest".into(),
        ]);
        let mut h = Fnv1a::new();
        let mut steps = 0u64;
        for r in records {
            let d = study::req_hex(&r.payload, "digest");
            h.eat(&d.to_le_bytes());
            steps += study::req_u64(&r.payload, "steps");
            t.row(vec![
                r.label.clone(),
                study::req_u64(&r.payload, "steps").to_string(),
                study::req_u64(&r.payload, "shadow_loads").to_string(),
                format!("{d:#018x}"),
            ]);
        }
        let study_digest = h.finish();
        let mut out = StudyOutput {
            report: format!(
                "== Echo study: {} session cell(s) × {} round(s), tool {} ==\n\n{}\ncampaign \
                 digest: {study_digest:#018x}\n",
                records.len(),
                opts.rounds.max(1),
                opts.tool.name(),
                t.render()
            ),
            json: Some(
                Json::obj()
                    .field("study", "echo")
                    .field("cells", records.len())
                    .field("rounds", opts.rounds.max(1))
                    .field("tool", opts.tool.name())
                    .field("steps", steps)
                    .field("digest", Json::hex(study_digest))
                    .render(),
            ),
            ..Default::default()
        };
        out.artifacts
            .push(("echo_digest.txt".into(), format!("{study_digest:#018x}\n")));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRunner;
    use crate::campaign::Campaign;

    #[test]
    fn echo_cells_are_deterministic_and_thread_invariant() {
        let opts = StudyOpts {
            scale: 6,
            rounds: 2,
            seed: 0xec0,
            ..StudyOpts::default()
        };
        let serial = Campaign::new(&EchoEntry, opts.clone())
            .unwrap()
            .run_all(&BatchRunner::serial());
        let parallel = Campaign::new(&EchoEntry, opts.clone())
            .unwrap()
            .run_all(&BatchRunner::new(4));
        assert_eq!(serial, parallel);
        let a = EchoEntry.render(&opts, &serial).unwrap();
        let b = EchoEntry.render(&opts, &parallel).unwrap();
        assert_eq!(a.report, b.report);
        assert!(a.report.contains("campaign digest"));
    }

    #[test]
    fn different_seeds_give_different_digests() {
        let mk = |seed| {
            let opts = StudyOpts {
                scale: 3,
                seed,
                ..StudyOpts::default()
            };
            let recs = Campaign::new(&EchoEntry, opts.clone())
                .unwrap()
                .run_all(&BatchRunner::serial());
            crate::campaign::records_digest(&recs)
        };
        assert_ne!(mk(1), mk(2));
    }
}
