//! Figure 11 in miniature: where history caching wins and where it loses.
//!
//! ```sh
//! cargo run --release --example traversal_patterns
//! ```
//!
//! Runs forward, random, and reverse traversals of a 16 KiB buffer under
//! Native, GiantSan, and ASan, printing metadata loads and check paths. The
//! paper's §5.4 asymmetry is visible directly: the quasi-bound summarises
//! *higher* addresses from lower ones, so reverse traversals anchored at the
//! buffer end pay a dedicated underflow check per access.

use giantsan::harness::{run_tool, Tool};
use giantsan::runtime::RuntimeConfig;
use giantsan::workloads::{traversal_program, Pattern};

fn main() {
    let size = 16 * 1024;
    let rounds = 8;
    let cfg = RuntimeConfig::default();

    println!("{size} byte buffer, {rounds} rounds per pattern\n");
    println!(
        "{:<9} {:<9} {:>13} {:>11} {:>11}",
        "pattern", "tool", "shadow loads", "cache hits", "underflow"
    );
    for pattern in Pattern::ALL {
        let (prog, inputs) = traversal_program(pattern, size, rounds);
        for tool in [Tool::Native, Tool::GiantSan, Tool::Asan] {
            let out = run_tool(tool, &prog, &inputs, &cfg);
            assert!(out.result.reports.is_empty());
            let c = &out.counters;
            println!(
                "{:<9} {:<9} {:>13} {:>11} {:>11}",
                pattern.name(),
                tool.name(),
                c.shadow_loads,
                c.cache_hits,
                c.underflow_checks,
            );
        }
        println!();
    }
    println!(
        "forward/random: a handful of quasi-bound refreshes, then register\n\
         compares only. reverse: no quasi-lower-bound exists, so every access\n\
         runs an underflow CI — the paper's 1.39x slowdown case."
    );
}
