//! The tool registry: every sanitizer configuration the paper evaluates.
//!
//! `Tool` is the identity half of the session API: it names a column of
//! Table 2 and owns the tool's static facts — its compiler pass
//! ([`Tool::profile`]) and the plan that pass produces ([`Tool::plan`]).
//! Runtime configuration lives in [`crate::SessionSpec`], the value workers
//! of the batch engine build sessions from. The free functions here
//! ([`run_planned`], [`run_tool`]) are the short form for a default spec
//! with a given [`RuntimeConfig`].

use giantsan_analysis::{analyze, ToolProfile};
use giantsan_ir::{CheckPlan, ExecResult, Program};
use giantsan_runtime::{Counters, RuntimeConfig};

use crate::session::SessionSpec;

/// A sanitizer configuration (one column of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// Uninstrumented execution (the overhead baseline).
    Native,
    /// Full GiantSan.
    GiantSan,
    /// AddressSanitizer.
    Asan,
    /// ASan-- (elimination-only instrumentation on the ASan runtime).
    AsanMinusMinus,
    /// Low-fat pointers.
    Lfp,
    /// Ablation: GiantSan with history caching only.
    CacheOnly,
    /// Ablation: GiantSan with check elimination only.
    EliminationOnly,
}

impl Tool {
    /// The five columns of the performance study plus the two ablations.
    pub const ALL: [Tool; 7] = [
        Tool::Native,
        Tool::GiantSan,
        Tool::Asan,
        Tool::AsanMinusMinus,
        Tool::Lfp,
        Tool::CacheOnly,
        Tool::EliminationOnly,
    ];

    /// Parses a tool by its display name, case-insensitively.
    ///
    /// This is the single CLI-facing lookup every `repro` subcommand shares
    /// (`--tool asan--`, `--tool GiantSan`, …).
    pub fn parse(name: &str) -> Option<Tool> {
        Tool::ALL
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(name))
    }

    /// Display name matching the paper's column headers.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Native => "Native",
            Tool::GiantSan => "GiantSan",
            Tool::Asan => "ASan",
            Tool::AsanMinusMinus => "ASan--",
            Tool::Lfp => "LFP",
            Tool::CacheOnly => "CacheOnly",
            Tool::EliminationOnly => "EliminationOnly",
        }
    }

    /// The instrumentation capabilities this tool's compiler pass has.
    pub fn profile(self) -> ToolProfile {
        match self {
            Tool::Native => ToolProfile::native(),
            Tool::GiantSan => ToolProfile::giantsan(),
            Tool::Asan => ToolProfile::asan(),
            Tool::AsanMinusMinus => ToolProfile::asan_minus_minus(),
            Tool::Lfp => ToolProfile::lfp(),
            Tool::CacheOnly => ToolProfile::giantsan_cache_only(),
            Tool::EliminationOnly => ToolProfile::giantsan_elimination_only(),
        }
    }

    /// Computes this tool's instrumentation plan for `program` (Native runs
    /// uninstrumented, without planning).
    pub fn plan(self, program: &Program) -> CheckPlan {
        match self {
            Tool::Native => CheckPlan::none(program),
            _ => analyze(program, &self.profile()).plan,
        }
    }
}

/// Everything observed from one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Interpreter result (reports, termination, work).
    pub result: ExecResult,
    /// Sanitizer counters (shadow loads, check paths, poisoning).
    pub counters: Counters,
    /// The heap's high-water mark in bytes at exit (redzones and rounding
    /// included).
    pub heap_high_water: u64,
    /// Bytes resident in quarantine at exit.
    pub quarantined_bytes: u64,
}

impl RunOutcome {
    /// `true` if the run raised a report or crashed.
    pub fn detected(&self) -> bool {
        self.result.detected()
    }
}

/// Runs `program` under `tool` with a pre-computed plan (reuse plans when
/// running many inputs against one template).
///
/// Thin wrapper over [`crate::SessionSpec::run_planned`], which keeps the
/// monomorphized dispatch: the tool match happens once, outside the
/// interpreter, and per-access checks inline.
pub fn run_planned(
    tool: Tool,
    program: &Program,
    plan: &CheckPlan,
    inputs: &[i64],
    config: &RuntimeConfig,
) -> RunOutcome {
    SessionSpec {
        config: config.clone(),
        ..SessionSpec::new(tool)
    }
    .run_planned(program, plan, inputs)
}

/// Plans and runs in one step.
pub fn run_tool(
    tool: Tool,
    program: &Program,
    inputs: &[i64],
    config: &RuntimeConfig,
) -> RunOutcome {
    SessionSpec {
        config: config.clone(),
        ..SessionSpec::new(tool)
    }
    .run(program, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_ir::ProgramBuilder;

    fn tiny_program() -> (Program, Vec<i64>) {
        let mut b = ProgramBuilder::new("tiny");
        let p = b.alloc_heap(64);
        b.for_loop(0i64, 8i64, |b, i| {
            b.store(p, giantsan_ir::Expr::var(i) * 8, 8, 1i64);
        });
        b.free(p);
        (b.build(), vec![])
    }

    #[test]
    fn every_tool_runs_the_same_program() {
        let (prog, inputs) = tiny_program();
        for tool in Tool::ALL {
            let out = run_tool(tool, &prog, &inputs, &RuntimeConfig::small());
            assert!(!out.detected(), "{} raised on clean code", tool.name());
        }
    }

    #[test]
    fn check_counts_reflect_capabilities() {
        let (prog, inputs) = tiny_program();
        let native = run_tool(Tool::Native, &prog, &inputs, &RuntimeConfig::small());
        let asan = run_tool(Tool::Asan, &prog, &inputs, &RuntimeConfig::small());
        let gs = run_tool(Tool::GiantSan, &prog, &inputs, &RuntimeConfig::small());
        assert_eq!(native.counters.shadow_loads, 0);
        assert_eq!(asan.counters.shadow_loads, 8, "one per store");
        assert!(
            gs.counters.shadow_loads <= 2,
            "promoted loop: one region check"
        );
    }

    #[test]
    fn names_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for t in Tool::ALL {
            assert!(seen.insert(t.name()));
        }
    }

    #[test]
    fn wrappers_agree_with_the_spec_api() {
        let (prog, inputs) = tiny_program();
        let cfg = RuntimeConfig::small();
        for tool in Tool::ALL {
            let via_wrapper = run_tool(tool, &prog, &inputs, &cfg);
            let via_spec = SessionSpec {
                config: cfg.clone(),
                ..SessionSpec::new(tool)
            }
            .run(&prog, &inputs);
            assert_eq!(via_wrapper.counters, via_spec.counters, "{}", tool.name());
            assert_eq!(
                via_wrapper.result.checksum,
                via_spec.result.checksum,
                "{}",
                tool.name()
            );
        }
    }
}
