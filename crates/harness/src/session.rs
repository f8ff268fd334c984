//! The session/config API: how tool instances are described and built.
//!
//! The batch-execution engine ([`crate::BatchRunner`]) hands the same
//! experiment cell description to whichever worker steals it, and that
//! worker builds its own private sanitizer session. [`SessionSpec`] is that
//! description: a cheap, `Send + Sync`, cloneable value carrying the tool
//! identity, the [`RuntimeConfig`], and the [`GiantSanOptions`] — everything
//! needed to construct a session from scratch. [`ToolBuilder`] is the fluent
//! front door that replaces the old ad-hoc `match`-construction scattered
//! through `tool.rs`.
//!
//! ```text
//! Tool::GiantSan.builder()          // ToolBuilder
//!     .config(...)                  //   fluent overrides
//!     .options(...)
//!     .spec()                       // SessionSpec (shareable across workers)
//!     .run_planned(&prog, &plan, &inputs)   // fresh session per run
//! ```
//!
//! Runs stay **monomorphized**: [`SessionSpec::run_planned`] dispatches on
//! the tool once, outside the interpreter, so each arm instantiates
//! [`giantsan_ir::run`] at a concrete sanitizer type and the per-access
//! check calls inline (PR 1's dispatch optimisation, preserved).

use giantsan_analysis::{analyze, ToolProfile};
use giantsan_baselines::{Asan, AsanMinusMinus, Lfp};
use giantsan_core::{GiantSan, GiantSanOptions};
use giantsan_ir::{run_with, CheckPlan, ExecConfig, ExecResult, Program};
use giantsan_runtime::{NullSanitizer, RuntimeConfig, Sanitizer};
use giantsan_telemetry::{NoopRecorder, Recorder};

use crate::faults::{FaultPlan, FaultySanitizer};
use crate::tool::{RunOutcome, Tool};

/// Fluent builder for a [`SessionSpec`].
///
/// Obtained from [`Tool::builder`]; defaults to [`RuntimeConfig::default`]
/// and [`GiantSanOptions::default`].
///
/// # Example
///
/// ```
/// use giantsan_harness::Tool;
/// use giantsan_runtime::RuntimeConfig;
///
/// let spec = Tool::Asan.builder().config(RuntimeConfig::small()).spec();
/// assert_eq!(spec.tool(), Tool::Asan);
/// ```
#[derive(Debug, Clone)]
pub struct ToolBuilder {
    tool: Tool,
    config: RuntimeConfig,
    options: GiantSanOptions,
    faults: Option<FaultPlan>,
}

impl ToolBuilder {
    pub(crate) fn new(tool: Tool) -> Self {
        ToolBuilder {
            tool,
            config: RuntimeConfig::default(),
            options: GiantSanOptions::default(),
            faults: None,
        }
    }

    /// Sets the runtime configuration for every session built from the spec.
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides only the redzone size, keeping the rest of the config
    /// (Table 5 varies exactly this).
    pub fn redzone(mut self, bytes: u64) -> Self {
        self.config.redzone = bytes;
        self
    }

    /// Sets the GiantSan option block (ignored by non-GiantSan tools).
    pub fn options(mut self, options: GiantSanOptions) -> Self {
        self.options = options;
        self
    }

    /// Arms a deterministic fault plan: every session built from the spec
    /// injects the plan's faults (see [`crate::faults`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Finishes the description.
    pub fn spec(self) -> SessionSpec {
        SessionSpec {
            tool: self.tool,
            config: self.config,
            options: self.options,
            faults: self.faults,
        }
    }
}

/// A complete, thread-shareable description of one sanitizer configuration.
///
/// A spec never holds runtime state: every [`SessionSpec::session`] or
/// [`SessionSpec::run_planned`] call constructs a fresh world, which is what
/// lets the batch engine run the same spec on many workers at once and what
/// keeps serial and parallel results identical (no state leaks between
/// cells).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    tool: Tool,
    config: RuntimeConfig,
    options: GiantSanOptions,
    faults: Option<FaultPlan>,
}

impl SessionSpec {
    /// The tool this spec describes.
    pub fn tool(&self) -> Tool {
        self.tool
    }

    /// The runtime configuration sessions are built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The GiantSan option block (meaningful for the GiantSan family only).
    pub fn options(&self) -> &GiantSanOptions {
        &self.options
    }

    /// The armed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The runtime config sessions are actually built with: the declared
    /// config plus any session-wide fault overrides (quarantine exhaustion).
    fn session_config(&self) -> RuntimeConfig {
        match self.faults.as_ref().and_then(FaultPlan::quarantine_cap) {
            Some(cap) => self.config.to_builder().quarantine_cap(cap).build(),
            None => self.config.clone(),
        }
    }

    /// The instrumentation capabilities of this tool's compiler pass.
    pub fn profile(&self) -> ToolProfile {
        match self.tool {
            Tool::Native => ToolProfile::native(),
            Tool::GiantSan => ToolProfile::giantsan(),
            Tool::Asan => ToolProfile::asan(),
            Tool::AsanMinusMinus => ToolProfile::asan_minus_minus(),
            Tool::Lfp => ToolProfile::lfp(),
            Tool::CacheOnly => ToolProfile::giantsan_cache_only(),
            Tool::EliminationOnly => ToolProfile::giantsan_elimination_only(),
        }
    }

    /// Computes the instrumentation plan for `program`.
    pub fn plan(&self, program: &Program) -> CheckPlan {
        match self.tool {
            Tool::Native => CheckPlan::none(program),
            _ => analyze(program, &self.profile()).plan,
        }
    }

    /// Builds a fresh boxed session (for callers that need to hold the
    /// sanitizer across calls, e.g. the memory study).
    pub fn session(&self) -> Box<dyn Sanitizer> {
        fn boxed<S: Sanitizer + 'static>(san: S, faults: Option<&FaultPlan>) -> Box<dyn Sanitizer> {
            match faults {
                Some(plan) => Box::new(FaultySanitizer::new(san, plan)),
                None => Box::new(san),
            }
        }
        let cfg = self.session_config();
        let faults = self.faults.as_ref();
        match self.tool {
            Tool::Native => boxed(NullSanitizer::new(cfg), faults),
            Tool::GiantSan | Tool::CacheOnly | Tool::EliminationOnly => {
                boxed(GiantSan::with_options(cfg, self.options.clone()), faults)
            }
            Tool::Asan => boxed(Asan::new(cfg), faults),
            Tool::AsanMinusMinus => boxed(AsanMinusMinus::new(cfg), faults),
            Tool::Lfp => boxed(Lfp::new(cfg), faults),
        }
    }

    /// The interpreter policy sessions run under: the config's recovery
    /// policy, with the fault plan's step budget (if any) capping
    /// `max_steps`.
    pub fn exec_config(&self) -> ExecConfig {
        let mut exec = ExecConfig {
            recovery: self.config.recovery,
            ..ExecConfig::default()
        };
        if let Some(budget) = self.faults.as_ref().and_then(FaultPlan::step_budget) {
            exec.max_steps = exec.max_steps.min(budget);
        }
        exec
    }

    /// Runs `program` in a fresh session with a pre-computed plan.
    ///
    /// Dispatches on the tool *here*, outside the interpreter, so each arm
    /// instantiates [`giantsan_ir::run`] at a concrete sanitizer type: the
    /// per-access
    /// check calls inline instead of costing a vtable hop per load/store.
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
        let exec = self.exec_config();
        let cfg = self.session_config();
        // Each arm stays monomorphized; the faulty variant instantiates the
        // interpreter at `FaultySanitizer<Tool>`, the clean one at `Tool`.
        fn dispatch<S: Sanitizer, R: Recorder>(
            san: S,
            faults: Option<&FaultPlan>,
            program: &Program,
            plan: &CheckPlan,
            inputs: &[i64],
            exec: &ExecConfig,
            rec: &mut R,
        ) -> RunOutcome {
            match faults {
                Some(fp) => {
                    let mut san = FaultySanitizer::new(san, fp);
                    run_counted(&mut san, program, plan, inputs, exec, rec)
                }
                None => {
                    let mut san = san;
                    run_counted(&mut san, program, plan, inputs, exec, rec)
                }
            }
        }
        let faults = self.faults.as_ref();
        match self.tool {
            Tool::Native => dispatch(
                NullSanitizer::new(cfg),
                faults,
                program,
                plan,
                inputs,
                &exec,
                rec,
            ),
            Tool::GiantSan | Tool::CacheOnly | Tool::EliminationOnly => dispatch(
                GiantSan::with_options(cfg, self.options.clone()),
                faults,
                program,
                plan,
                inputs,
                &exec,
                rec,
            ),
            Tool::Asan => dispatch(Asan::new(cfg), faults, program, plan, inputs, &exec, rec),
            Tool::AsanMinusMinus => dispatch(
                AsanMinusMinus::new(cfg),
                faults,
                program,
                plan,
                inputs,
                &exec,
                rec,
            ),
            Tool::Lfp => dispatch(Lfp::new(cfg), faults, program, plan, inputs, &exec, rec),
        }
    }

    /// Plans and runs in one step.
    pub fn run(&self, program: &Program, inputs: &[i64]) -> RunOutcome {
        let plan = self.plan(program);
        self.run_planned(program, &plan, inputs)
    }
}

fn run_counted<S: Sanitizer, R: Recorder>(
    san: &mut S,
    program: &Program,
    plan: &CheckPlan,
    inputs: &[i64],
    exec: &ExecConfig,
    rec: &mut R,
) -> RunOutcome {
    let result: ExecResult = run_with(program, inputs, san, plan, exec, rec);
    RunOutcome {
        result,
        counters: *san.counters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_ir::ProgramBuilder;

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
        let spec = Tool::GiantSan.builder().spec();
        let plan = spec.plan(&prog);
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
    fn builder_overrides_flow_into_sessions() {
        let spec = Tool::GiantSan
            .builder()
            .config(RuntimeConfig::small())
            .redzone(1)
            .options(GiantSanOptions::default().with_reverse_mitigation(true))
            .spec();
        assert_eq!(spec.config().redzone, 1);
        assert!(spec.options().reverse_mitigation);
        let mut session = spec.session();
        assert_eq!(session.name(), "GiantSan");
        assert_eq!(session.world().config().redzone, 1);
        let a = session
            .alloc(32, giantsan_runtime::Region::Heap)
            .expect("alloc");
        assert!(session
            .check_access(a.base, 8, giantsan_runtime::AccessKind::Read)
            .is_ok());
    }

    #[test]
    fn recovery_policy_reaches_the_interpreter_policy() {
        use giantsan_runtime::RecoveryPolicy;
        let cfg = RuntimeConfig::builder().halt_on_error(true).build();
        let spec = Tool::Asan.builder().config(cfg).spec();
        assert!(spec.exec_config().recovery.halts());
        assert_eq!(
            Tool::Asan.builder().spec().exec_config().recovery,
            RecoveryPolicy::Continue
        );
        let cfg = RuntimeConfig::builder()
            .recovery(RecoveryPolicy::recover())
            .build();
        let spec = Tool::Asan.builder().config(cfg).spec();
        assert!(spec.exec_config().recovery.contains_faults());
    }
}
