//! The experiment cell matrix: the unit of work the batch engine shards.
//!
//! A *cell* is one independent run — a tool on a workload at a size with a
//! seed. Every experiment in the harness is some fold over such a matrix;
//! this module gives the cross-cutting form the determinism differential
//! test uses: build the matrix, run it under a [`BatchRunner`], and digest
//! the deterministic outcome fields.
//!
//! Cells carry *descriptions*, not programs: each worker materialises its
//! own [`Program`] from the cell, so the matrix itself is tiny and trivially
//! `Send + Sync`. All outcome fields are modelled quantities (checksums,
//! step counts, counters) — wall-clock never enters a digest, which is what
//! lets serial and parallel runs compare byte-for-byte.

use giantsan_ir::Program;
use giantsan_runtime::{Counters, RuntimeConfig};
use giantsan_telemetry::Fnv1a;
use giantsan_workloads::fuzz::{buggy_program, safe_program, InjectedBug};
use giantsan_workloads::{spec_workload, traversal_program, Pattern};

use crate::batch::BatchRunner;
use crate::tool::Tool;

/// What a cell executes (the workload axis of the matrix).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CellWorkload {
    /// A SPEC-like workload by id (`"519.lbm_r"`); the cell's size is the
    /// suite scale.
    Spec(&'static str),
    /// A Figure 11 traversal; the cell's size is the buffer size in bytes.
    Traversal(Pattern),
    /// A generated safe program (differential-fuzzing corpus); the cell's
    /// seed picks the program.
    FuzzSafe,
    /// A generated program with one injected bug of the given geometry.
    FuzzBuggy(InjectedBug),
}

/// One independent run: tool × workload × size × seed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    /// The sanitizer configuration under test.
    pub tool: Tool,
    /// What to execute.
    pub workload: CellWorkload,
    /// Scale or buffer size, per [`CellWorkload`].
    pub size: u64,
    /// Program seed (meaningful for the fuzz workloads; recorded for all).
    pub seed: u64,
}

impl Cell {
    /// A stable, human-readable cell id (sorts with the matrix order).
    pub fn label(&self) -> String {
        let w = match &self.workload {
            CellWorkload::Spec(id) => (*id).to_string(),
            CellWorkload::Traversal(p) => format!("traversal-{}", p.name()),
            CellWorkload::FuzzSafe => "fuzz-safe".to_string(),
            CellWorkload::FuzzBuggy(bug) => format!("fuzz-{}", bug.name()),
        };
        format!("{}/{w}/s{}/r{}", self.tool.name(), self.size, self.seed)
    }

    /// Materialises the cell's program and inputs (deterministic).
    pub fn materialize(&self) -> (Program, Vec<i64>) {
        match &self.workload {
            CellWorkload::Spec(id) => {
                let w = spec_workload(id, self.size).expect("unknown SPEC workload id");
                (w.program, w.inputs)
            }
            CellWorkload::Traversal(p) => traversal_program(*p, self.size, 1 + self.seed % 2),
            CellWorkload::FuzzSafe => {
                let fp = safe_program(self.seed);
                (fp.program, fp.inputs)
            }
            CellWorkload::FuzzBuggy(bug) => {
                let fp = buggy_program(self.seed, *bug);
                (fp.program, fp.inputs)
            }
        }
    }

    /// Runs the cell in a fresh session and keeps the deterministic fields.
    pub fn run(&self, config: &RuntimeConfig) -> CellOutcome {
        let (program, inputs) = self.materialize();
        let out = self
            .tool
            .builder()
            .config(config.clone())
            .spec()
            .run(&program, &inputs);
        CellOutcome {
            label: self.label(),
            detected: out.detected(),
            result_digest: out.result.digest(),
            counters: out.counters,
        }
    }
}

/// The deterministic residue of one cell run (no wall-clock).
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell's [`Cell::label`].
    pub label: String,
    /// Whether the run raised a report or crashed.
    pub detected: bool,
    /// [`giantsan_ir::ExecResult::digest`] of the interpreter result.
    pub result_digest: u64,
    /// Sanitizer counters.
    pub counters: Counters,
}

/// The default PR 2 matrix: every tool crossed with a spread of workloads.
///
/// `scale` sizes the SPEC workloads; each fuzz workload contributes one cell
/// per seed in `seeds`. The order is fixed (tool-major) and is the order
/// [`run_matrix`] returns outcomes in, for every thread count.
pub fn default_matrix(scale: u64, seeds: &[u64]) -> Vec<Cell> {
    const SPEC_IDS: [&str; 4] = ["519.lbm_r", "505.mcf_r", "557.xz_r", "520.omnetpp_r"];
    let mut cells = Vec::new();
    for tool in Tool::ALL {
        for id in SPEC_IDS {
            cells.push(Cell {
                tool,
                workload: CellWorkload::Spec(id),
                size: scale,
                seed: 0,
            });
        }
        for pattern in Pattern::ALL {
            cells.push(Cell {
                tool,
                workload: CellWorkload::Traversal(pattern),
                size: 4096,
                seed: 0,
            });
        }
        for &seed in seeds {
            cells.push(Cell {
                tool,
                workload: CellWorkload::FuzzSafe,
                size: 0,
                seed,
            });
            for bug in InjectedBug::ALL {
                cells.push(Cell {
                    tool,
                    workload: CellWorkload::FuzzBuggy(bug),
                    size: 0,
                    seed,
                });
            }
        }
    }
    cells
}

/// Runs a matrix under `runner`, returning outcomes in cell order.
pub fn run_matrix(
    runner: &BatchRunner,
    cells: &[Cell],
    config: &RuntimeConfig,
) -> Vec<CellOutcome> {
    runner.map(cells, |_, cell| cell.run(config))
}

/// FNV-1a digest over every deterministic outcome field, in cell order.
///
/// Equal digests ⇒ the two runs agree on every label, verdict, interpreter
/// result, and counter of every cell — the batch engine's end-to-end
/// determinism check.
pub fn digest(outcomes: &[CellOutcome]) -> u64 {
    let mut h = Fnv1a::new();
    for o in outcomes {
        h.eat(o.label.as_bytes());
        h.eat(&[o.detected as u8]);
        h.eat(&o.result_digest.to_le_bytes());
        // Counters is plain data with a stable Debug form within a build.
        h.eat(format!("{:?}", o.counters).as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_outcomes_are_thread_count_invariant() {
        let cells = default_matrix(1, &[0, 1]);
        let cfg = RuntimeConfig::small();
        let serial = run_matrix(&BatchRunner::serial(), &cells, &cfg);
        let parallel = run_matrix(&BatchRunner::new(4), &cells, &cfg);
        assert_eq!(serial, parallel);
        assert_eq!(digest(&serial), digest(&parallel));
    }

    #[test]
    fn digest_is_sensitive_to_any_cell() {
        let cells = default_matrix(1, &[0]);
        let cfg = RuntimeConfig::small();
        let mut outcomes = run_matrix(&BatchRunner::serial(), &cells, &cfg);
        let base = digest(&outcomes);
        outcomes[0].detected = !outcomes[0].detected;
        assert_ne!(base, digest(&outcomes));
    }

    #[test]
    fn labels_are_unique() {
        let cells = default_matrix(1, &[0, 1, 2]);
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!(seen.insert(c.label()), "duplicate cell {}", c.label());
        }
    }

    #[test]
    fn giantsan_detects_every_buggy_fuzz_cell() {
        let cfg = RuntimeConfig::small();
        for seed in 0..3 {
            for bug in InjectedBug::ALL {
                let cell = Cell {
                    tool: Tool::GiantSan,
                    workload: CellWorkload::FuzzBuggy(bug),
                    size: 0,
                    seed,
                };
                assert!(cell.run(&cfg).detected, "missed {}", cell.label());
            }
        }
    }
}
