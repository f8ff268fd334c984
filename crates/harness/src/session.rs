//! The session API: one value describes a sanitizer configuration, and one
//! code path builds and runs it.
//!
//! The batch-execution engine ([`crate::BatchRunner`]) hands the same
//! experiment cell description to whichever worker steals it, and that
//! worker builds its own private sanitizer session. [`SessionSpec`] is that
//! description: a plain, `Send + Sync`, cloneable value carrying the tool
//! identity, the [`RuntimeConfig`], the [`GiantSanOptions`] and an optional
//! [`FaultPlan`] — everything needed to construct a session from scratch.
//! Callers start from [`SessionSpec::new`] and override fields with struct
//! update:
//!
//! ```
//! use giantsan_harness::{SessionSpec, Tool};
//! use giantsan_runtime::RuntimeConfig;
//!
//! let spec = SessionSpec {
//!     config: RuntimeConfig::small(),
//!     ..SessionSpec::new(Tool::Asan)
//! };
//! assert_eq!(spec.tool, Tool::Asan);
//! ```
//!
//! Runs stay **monomorphized**: [`SessionSpec::run_planned_recorded`] holds
//! the one `match` over [`Tool`] that builds a sanitizer, outside the
//! interpreter, so each arm instantiates [`giantsan_ir::run_with`] at a
//! concrete sanitizer type and the per-access check calls inline.

use giantsan_baselines::{Asan, Lfp};
use giantsan_core::{GiantSan, GiantSanOptions};
use giantsan_ir::{run_with, CheckPlan, ExecConfig, Program};
use giantsan_runtime::{NullSanitizer, RuntimeConfig, Sanitizer};
use giantsan_telemetry::{NoopRecorder, Recorder};

use crate::faults::FaultPlan;
use crate::tool::{RunOutcome, Tool};

/// A complete, thread-shareable description of one sanitizer configuration.
///
/// A spec never holds runtime state: every [`SessionSpec::run_planned`]
/// call constructs a fresh world, which is what lets the batch engine run
/// the same spec on many workers at once and what keeps serial and parallel
/// results identical (no state leaks between cells).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// The tool (column of Table 2) sessions run.
    pub tool: Tool,
    /// The runtime configuration sessions are built with.
    pub config: RuntimeConfig,
    /// The GiantSan option block (ignored by non-GiantSan tools).
    pub options: GiantSanOptions,
    /// A deterministic fault plan every session injects (see
    /// [`crate::faults`]), if armed.
    pub faults: Option<FaultPlan>,
}

impl SessionSpec {
    /// `tool` with [`RuntimeConfig::default`], [`GiantSanOptions::default`]
    /// and no faults.
    pub fn new(tool: Tool) -> SessionSpec {
        SessionSpec {
            tool,
            config: RuntimeConfig::default(),
            options: GiantSanOptions::default(),
            faults: None,
        }
    }

    /// The runtime config sessions are actually built with: the declared
    /// config plus any session-wide fault overrides (quarantine exhaustion).
    fn session_config(&self) -> RuntimeConfig {
        match self.faults.as_ref().and_then(FaultPlan::quarantine_cap) {
            Some(cap) => self.config.to_builder().quarantine_cap(cap).build(),
            None => self.config.clone(),
        }
    }

    /// The interpreter policy sessions run under: the config's recovery
    /// policy, plus the fault plan (if any): its step budget caps
    /// `max_steps` and its events are armed in [`ExecConfig::faults`].
    pub fn exec_config(&self) -> ExecConfig {
        let mut exec = ExecConfig {
            recovery: self.config.recovery,
            ..ExecConfig::default()
        };
        if let Some(plan) = &self.faults {
            if let Some(budget) = plan.step_budget() {
                exec.max_steps = exec.max_steps.min(budget);
            }
            exec.faults = plan.events.clone();
        }
        exec
    }

    /// Runs `program` in a fresh session with a pre-computed plan.
    pub fn run_planned(&self, program: &Program, plan: &CheckPlan, inputs: &[i64]) -> RunOutcome {
        self.run_planned_recorded(program, plan, inputs, &mut NoopRecorder)
    }

    /// [`SessionSpec::run_planned`] with a telemetry [`Recorder`] attached.
    ///
    /// With [`NoopRecorder`] (what [`SessionSpec::run_planned`] passes) the
    /// recorder compiles out and this is exactly the untraced path. With a
    /// [`TraceRecorder`] the interpreter emits structured events for every
    /// check, quasi-bound refresh, allocator operation, and containment (see
    /// [`giantsan_ir::run_with`]).
    ///
    /// [`TraceRecorder`]: giantsan_telemetry::TraceRecorder
    pub fn run_planned_recorded<R: Recorder>(
        &self,
        program: &Program,
        plan: &CheckPlan,
        inputs: &[i64],
        rec: &mut R,
    ) -> RunOutcome {
        let run = Run {
            program,
            plan,
            inputs,
            exec: self.exec_config(),
            rec,
        };
        let cfg = self.session_config();
        match self.tool {
            Tool::Native => run.on(NullSanitizer::new(cfg)),
            Tool::GiantSan | Tool::CacheOnly | Tool::EliminationOnly => {
                run.on(GiantSan::with_options(cfg, self.options.clone()))
            }
            Tool::Asan | Tool::AsanMinusMinus => run.on(Asan::new(cfg)),
            Tool::Lfp => run.on(Lfp::new(cfg)),
        }
    }

    /// Plans and runs in one step.
    pub fn run(&self, program: &Program, inputs: &[i64]) -> RunOutcome {
        let plan = self.tool.plan(program);
        self.run_planned(program, &plan, inputs)
    }
}

/// One run's inputs, waiting for the sanitizer the tool match builds.
struct Run<'a, R> {
    program: &'a Program,
    plan: &'a CheckPlan,
    inputs: &'a [i64],
    exec: ExecConfig,
    rec: &'a mut R,
}

impl<R: Recorder> Run<'_, R> {
    /// Runs under `san`, a concrete type, so the interpreter is
    /// instantiated once per runtime.
    fn on<S: Sanitizer>(self, mut san: S) -> RunOutcome {
        let result = run_with(
            self.program,
            self.inputs,
            &mut san,
            self.plan,
            &self.exec,
            self.rec,
        );
        let world = san.world();
        RunOutcome {
            result,
            counters: *san.counters(),
            heap_high_water: world.heap().high_water(),
            quarantined_bytes: world.quarantined_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_ir::ProgramBuilder;
    use giantsan_runtime::RecoveryPolicy;
    use giantsan_workloads::{buggy_program, spec_suite, traversal_program, InjectedBug, Pattern};

    fn tiny() -> (Program, Vec<i64>) {
        let mut b = ProgramBuilder::new("tiny");
        let p = b.alloc_heap(64);
        b.store(p, 0i64, 8, 7i64);
        b.free(p);
        (b.build(), vec![])
    }

    #[test]
    fn spec_is_sendable_and_buildable_per_worker() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SessionSpec>();
        let (prog, inputs) = tiny();
        let spec = SessionSpec::new(Tool::GiantSan);
        let plan = spec.tool.plan(&prog);
        let outcomes = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| s.spawn(|| spec.run_planned(&prog, &plan, &inputs)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for o in &outcomes {
            assert!(!o.detected());
            assert_eq!(o.counters, outcomes[0].counters, "sessions are isolated");
            assert_eq!(o.result.checksum, outcomes[0].result.checksum);
        }
    }

    #[test]
    fn field_overrides_flow_into_sessions() {
        let config = RuntimeConfig {
            redzone: 1,
            ..RuntimeConfig::small()
        };
        let options = GiantSanOptions {
            reverse_mitigation: true,
            ..GiantSanOptions::default()
        };
        let spec = SessionSpec {
            config: config.clone(),
            options: options.clone(),
            ..SessionSpec::new(Tool::GiantSan)
        };
        assert_eq!(spec.config.redzone, 1);
        assert!(spec.options.reverse_mitigation);
        // The session the spec runs is the one built by hand from the same
        // fields: same world (heap high-water), same checks (counters).
        let (prog, inputs) = traversal_program(Pattern::Reverse, 256, 2);
        let plan = spec.tool.plan(&prog);
        let out = spec.run_planned(&prog, &plan, &inputs);
        assert!(!out.detected());
        let mut san = GiantSan::with_options(config, options);
        assert_eq!(san.name(), "GiantSan");
        giantsan_ir::run(&prog, &inputs, &mut san, &plan, &spec.exec_config());
        assert_eq!(out.counters, *san.counters());
        assert_eq!(out.heap_high_water, san.world().heap().high_water());
        // ...and each override changes what the defaults would give.
        let default = SessionSpec::new(Tool::GiantSan).run_planned(&prog, &plan, &inputs);
        assert_ne!(out.counters.shadow_loads, default.counters.shadow_loads);
        assert_ne!(out.heap_high_water, default.heap_high_water);
    }

    #[test]
    fn recovery_policy_reaches_the_interpreter_policy() {
        let spec = SessionSpec {
            config: RuntimeConfig {
                recovery: RecoveryPolicy::Halt,
                ..RuntimeConfig::default()
            },
            ..SessionSpec::new(Tool::Asan)
        };
        assert!(spec.exec_config().recovery.halts());
        assert_eq!(
            SessionSpec::new(Tool::Asan).exec_config().recovery,
            RecoveryPolicy::Continue
        );
        let spec = SessionSpec {
            config: RuntimeConfig {
                recovery: RecoveryPolicy::recover(),
                ..RuntimeConfig::default()
            },
            ..SessionSpec::new(Tool::Asan)
        };
        assert!(spec.exec_config().recovery.contains_faults());
    }

    #[test]
    fn asan_minus_minus_is_asan_under_its_own_plan() {
        let spec = SessionSpec::new(Tool::AsanMinusMinus);
        let w = spec_suite(1).swap_remove(0);
        let bug = buggy_program(1, InjectedBug::OverflowNear);
        let mut reports = 0;
        for (prog, inputs) in [(&w.program, &w.inputs), (&bug.program, &bug.inputs)] {
            let out = spec.run(prog, inputs);
            reports += out.result.reports.len();
            let mut san = Asan::new(spec.config.clone());
            let plan = Tool::AsanMinusMinus.plan(prog);
            let hand = giantsan_ir::run(prog, inputs, &mut san, &plan, &spec.exec_config());
            assert_eq!(out.counters, *san.counters(), "{}", prog.name);
            assert_eq!(out.result.digest(), hand.digest(), "{}", prog.name);
            assert_eq!(out.result.reports, hand.reports, "{}", prog.name);
        }
        assert!(reports > 0, "the buggy program reports under ASan--");
    }
}
