//! Analytic cost model for the performance study.
//!
//! The paper measures seconds on a Xeon workstation; a simulator cannot
//! reproduce absolute times, so Table 2's *shape* is reproduced two ways:
//! wall-clock time of the instrumented interpreter (measured by wallbench's
//! `spec` workload) and this analytic model, which converts the runtime
//! counters into abstract time units using per-operation weights.
//!
//! The weights are order-of-magnitude estimates of x86 costs for each
//! operation class (a shadow load + compare, a quasi-bound compare, an LFP
//! bounds computation, …), chosen once, before looking at per-benchmark
//! results; they are **not** fitted per workload. The model's honesty test
//! is that the orderings the paper reports emerge from the counter
//! differences, not from the constants.

use giantsan_runtime::Counters;

use crate::tool::{RunOutcome, Tool};

/// Per-operation weights (arbitrary time units; think "nanoseconds").
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Native cost of one executed IR statement (dispatch + ALU).
    pub step: f64,
    /// Native cost of one memory access or memop segment.
    pub access: f64,
    /// One shadow byte load (includes the address arithmetic).
    pub shadow_load: f64,
    /// Branch/compare sequence of a fast check.
    pub fast_check: f64,
    /// Extra branch work of a slow check (on top of its loads).
    pub slow_check: f64,
    /// Quasi-bound cache hit (one compare against a register).
    pub cache_hit: f64,
    /// Quasi-bound refresh (on top of the region check it performs).
    pub cache_update: f64,
    /// Dedicated underflow check overhead (on top of loads).
    pub underflow: f64,
    /// LFP bounds computation (mask/multiply/compare, no memory).
    pub arith_check: f64,
    /// LFP stack-simulation instruction overhead.
    pub stack_sim: f64,
    /// One shadow byte written while poisoning.
    pub shadow_store: f64,
    /// Allocator bookkeeping added by redzones + quarantine (per alloc/free
    /// pair half).
    pub alloc_overhead: f64,
    /// Cost of a *native* `malloc`/`free` call: the baseline a sanitizer's
    /// allocator overhead is measured against.
    pub native_alloc: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            step: 1.0,
            access: 1.0,
            shadow_load: 1.25,
            fast_check: 0.55,
            slow_check: 1.3,
            cache_hit: 0.3,
            cache_update: 0.6,
            underflow: 0.5,
            arith_check: 1.05,
            stack_sim: 2.4,
            // Poisoning runs at memset speed: a fraction of a unit per byte.
            shadow_store: 0.08,
            alloc_overhead: 6.0,
            native_alloc: 8.0,
        }
    }
}

impl CostModel {
    /// Native (baseline) time of a run: interpreter work with no checks,
    /// including the cost of the allocator calls the program makes anyway.
    pub fn native_units(&self, out: &RunOutcome) -> f64 {
        out.result.steps as f64 * self.step
            + out.result.native_work as f64 * self.access
            + (out.counters.allocs + out.counters.frees) as f64 * self.native_alloc
    }

    /// Sanitizer-added time from the counters.
    pub fn extra_units(&self, tool: Tool, c: &Counters) -> f64 {
        let alloc = match tool {
            Tool::Native => 0.0,
            // LFP's allocator only rounds sizes; no redzones or quarantine.
            Tool::Lfp => 2.0,
            _ => self.alloc_overhead,
        };
        c.shadow_loads as f64 * self.shadow_load
            + c.fast_checks as f64 * self.fast_check
            + c.slow_checks as f64 * self.slow_check
            + c.cache_hits as f64 * self.cache_hit
            + c.cache_updates as f64 * self.cache_update
            + c.underflow_checks as f64 * self.underflow
            + c.arith_checks as f64 * self.arith_check
            + c.stack_sim_ops as f64 * self.stack_sim
            + c.shadow_stores as f64 * self.shadow_store
            + (c.allocs + c.frees) as f64 * alloc
    }

    /// Modelled runtime ratio vs. native, as the paper's `R` percentage
    /// (native = 100%).
    pub fn ratio_percent(&self, tool: Tool, native: &RunOutcome, run: &RunOutcome) -> f64 {
        let base = self.native_units(native);
        let total = self.native_units(run) + self.extra_units(tool, &run.counters);
        100.0 * total / base
    }
}

/// Geometric mean of ratio percentages.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::run_tool;
    use giantsan_ir::{Expr, ProgramBuilder};
    use giantsan_runtime::RuntimeConfig;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[100.0, 100.0]) - 100.0).abs() < 1e-9);
        assert!((geomean(&[100.0, 400.0]) - 200.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn model_orders_tools_on_a_promotable_loop() {
        // A bounded affine loop: GiantSan ≈ native, ASan pays per access.
        let mut b = ProgramBuilder::new("loop");
        let p = b.alloc_heap(8192);
        b.for_loop(0i64, 1024i64, |b, i| {
            b.load_discard(p, Expr::var(i) * 8, 8);
        });
        b.free(p);
        let prog = b.build();
        let m = CostModel::default();
        let cfg = RuntimeConfig::small();
        let native = run_tool(Tool::Native, &prog, &[], &cfg);
        let gs = m.ratio_percent(
            Tool::GiantSan,
            &native,
            &run_tool(Tool::GiantSan, &prog, &[], &cfg),
        );
        let asan = m.ratio_percent(Tool::Asan, &native, &run_tool(Tool::Asan, &prog, &[], &cfg));
        assert!(gs < asan, "GiantSan {gs:.1}% !< ASan {asan:.1}%");
        assert!(gs < 115.0, "promoted loop should be nearly free: {gs:.1}%");
        assert!(asan > 150.0, "ASan pays per access: {asan:.1}%");
    }

    #[test]
    fn native_ratio_is_100() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(64);
        b.store(p, 0i64, 8, 1i64);
        let prog = b.build();
        let m = CostModel::default();
        let native = run_tool(Tool::Native, &prog, &[], &RuntimeConfig::small());
        let r = m.ratio_percent(Tool::Native, &native, &native);
        assert!((r - 100.0).abs() < 1e-9);
    }
}
