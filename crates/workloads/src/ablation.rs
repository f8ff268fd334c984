//! Workloads for the supporting ablation studies (DESIGN.md §5).
//!
//! * [`quarantine_probe`] — a use-after-free whose dangling access happens
//!   after a configurable volume of allocation churn: whether the quarantine
//!   still holds the freed block when the dangling pointer strikes decides
//!   detection (the paper's §5.4 "quarantine bypassing" limitation, made
//!   measurable);
//! * [`underflow_bypass_probe`] — a large negative offset landing inside a
//!   neighbouring object: detected by anchored underflow checks, missed by
//!   instruction-level ones (drives the §5.4 first-alternative trade-off).

use giantsan_ir::{Expr, Program, ProgramBuilder};

/// Builds a use-after-free probe: free a 64-byte target, run `churn_bytes`
/// of allocation traffic (1 KiB blocks, allocated and freed), then read
/// through the dangling pointer.
///
/// With a quarantine capacity above `churn_bytes` the freed block is still
/// poisoned when the dangling read happens; below it, the block has been
/// recycled and reallocated, and every quarantine-based tool goes blind.
///
/// # Example
///
/// ```
/// let (prog, inputs) = giantsan_workloads::quarantine_probe(16 << 10);
/// assert_eq!(inputs[0], (16 << 10) / 1024);
/// let _ = prog;
/// ```
pub fn quarantine_probe(churn_bytes: u64) -> (Program, Vec<i64>) {
    let mut b = ProgramBuilder::new("quarantine-probe");
    let rounds = b.input(0);
    let target = b.alloc_heap(64);
    // A live separator pins the target's hole: once recycled it cannot
    // coalesce with churn blocks, and the 1 KiB churn allocations cannot
    // fit it — so the small squatter below deterministically reoccupies
    // the target's exact slot.
    let separator = b.alloc_heap(64);
    b.store(separator, 0i64, 8, 3i64);
    b.store(target, 0i64, 8, 7i64);
    b.free(target);
    // Churn: each round allocates and frees 1 KiB, pushing the target
    // through the quarantine FIFO.
    b.for_loop(0i64, rounds, |b, _| {
        let t = b.alloc_heap(1024);
        b.store(t, 0i64, 8, 1i64);
        b.free(t);
    });
    // Reallocate the slot (first fit hands the recycled block back), then
    // strike through the dangling pointer.
    let squatter = b.alloc_heap(64);
    b.store(squatter, 0i64, 8, 9i64);
    b.load_discard(target, 0i64, 8);
    b.free(squatter);
    b.free(separator);
    (b.build(), vec![(churn_bytes / 1024) as i64])
}

/// Builds an underflow probe: a buffer sits above a victim object, and a
/// parsed (attacker-controlled) negative index reaches back into the victim.
///
/// Inputs: `in0` = victim size, `in1` = negative byte offset from the
/// buffer base.
pub fn underflow_bypass_probe() -> (Program, Vec<i64>) {
    let mut b = ProgramBuilder::new("underflow-bypass");
    let victim_size = b.input(0);
    let victim = b.alloc_heap(victim_size);
    b.store(victim, 0i64, 8, 0x5ec2e7i64);
    let buf = b.alloc_heap(64);
    // The buggy access: buf[in1] with in1 < 0 reaching into the victim.
    b.store(buf, Expr::input(1), 1, 0x41i64);
    b.free(buf);
    b.free(victim);
    (b.build(), vec![256, -72])
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_analysis::{analyze, ToolProfile};
    use giantsan_core::GiantSan;
    use giantsan_ir::{run, ExecConfig};
    use giantsan_runtime::RuntimeConfig;

    #[test]
    fn quarantine_size_decides_detection() {
        let (prog, inputs) = quarantine_probe(64 << 10);
        let plan = analyze(&prog, &ToolProfile::giantsan()).plan;
        // Large quarantine: the dangling read still sees poison.
        let mut big = GiantSan::new(RuntimeConfig {
            quarantine_cap: 1 << 20,
            ..RuntimeConfig::small()
        });
        let r = run(&prog, &inputs, &mut big, &plan, &ExecConfig::default());
        assert!(r.detected(), "large quarantine must detect");
        // Tiny quarantine: the slot is recycled and re-used — bypassed.
        let mut small = GiantSan::new(RuntimeConfig {
            quarantine_cap: 1 << 10,
            ..RuntimeConfig::small()
        });
        let r = run(&prog, &inputs, &mut small, &plan, &ExecConfig::default());
        assert!(!r.detected(), "tiny quarantine must be bypassed");
    }

    #[test]
    fn underflow_probe_reaches_the_victim() {
        let (prog, inputs) = underflow_bypass_probe();
        let plan = analyze(&prog, &ToolProfile::giantsan()).plan;
        let mut san = GiantSan::new(RuntimeConfig::small());
        let r = run(&prog, &inputs, &mut san, &plan, &ExecConfig::default());
        assert!(r.detected(), "anchored underflow check must catch it");
    }
}
