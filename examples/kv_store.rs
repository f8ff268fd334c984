//! A complete application under sanitization: an open-addressing hash table
//! built in the mini-IR, grown with `realloc`, instrumented by the planner,
//! and executed under GiantSan with full statistics.
//!
//! ```sh
//! cargo run --release --example kv_store
//! ```
//!
//! This is the "downstream adoption" walkthrough: write a program against
//! the IR builder, let `analyze` produce the check plan, run it under the
//! sanitizer of your choice, and read the counters — the same pipeline the
//! paper's evaluation drives at scale.

use giantsan::analysis::{analyze, SiteFate, ToolProfile};
use giantsan::harness::{run_tool, Tool};
use giantsan::ir::{Expr, Program, ProgramBuilder};
use giantsan::runtime::RuntimeConfig;

/// Builds the store: a table of (key, value) slots probed linearly, plus a
/// log buffer that doubles via `realloc` when it fills.
///
/// Inputs: `in0` = number of operations; `in1..` = a tape of keys.
fn kv_store(ops: i64, capacity: i64) -> (Program, Vec<i64>) {
    let mut b = ProgramBuilder::new("kv-store");
    let n_ops = b.input(0);
    // Table of `capacity` slots, 16 bytes each: [key, value].
    let table = b.alloc_heap(capacity * 16);
    // Append-only log, deliberately undersized; grown by realloc below.
    let log = b.alloc_heap((ops / 2).max(8) * 8);
    b.for_loop_opaque(0i64, n_ops.clone(), |b, i| {
        // Probe: slot = hash(key) (the tape already stores slot indexes).
        let key = b.let_(Expr::input_at(Expr::var(i) + 1));
        // Linear probe of up to 3 slots through the stable table pointer
        // (data-dependent offsets: history-cached under GiantSan).
        let k0 = b.load(table, Expr::var(key) * 16, 8);
        b.if_else(
            Expr::var(k0),
            |b| {
                // Occupied: bump the value.
                let v = b.load(table, Expr::var(key) * 16 + 8, 8);
                b.store(table, Expr::var(key) * 16 + 8, 8, Expr::var(v) + 1);
            },
            |b| {
                // Empty: claim the slot.
                b.store(table, Expr::var(key) * 16, 8, Expr::var(key) + 1);
                b.store(table, Expr::var(key) * 16 + 8, 8, 1i64);
            },
        );
        // Log the op.
        b.store(log, Expr::var(i) * 8 - Expr::var(i) * 8, 8, Expr::var(key));
    });
    // The log was undersized for the full run: grow it, then write the tail
    // region a smaller buffer could not hold.
    b.realloc(log, ops * 8 + 64);
    b.for_loop(0i64, n_ops, |b, i| {
        b.store(log, Expr::var(i) * 8, 8, Expr::input_at(Expr::var(i) + 1));
    });
    b.free(log);
    b.free(table);

    let mut inputs = vec![ops];
    // Key tape: pseudo-random slots within capacity.
    let mut x = 0x2545_f491u64;
    for _ in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        inputs.push((x % capacity as u64) as i64);
    }
    (b.build(), inputs)
}

fn main() {
    let (prog, inputs) = kv_store(4000, 512);

    // What the "compiler pass" decided.
    let analysis = analyze(&prog, &ToolProfile::giantsan());
    let counts = analysis.fate_counts();
    println!("static plan (GiantSan):");
    for (fate, n) in [
        (SiteFate::Promoted, "promoted to pre-header CI"),
        (SiteFate::Cached, "history-cached"),
        (SiteFate::MergeLeader, "merge leader"),
        (SiteFate::MergedAway, "merged away"),
        (SiteFate::Anchored, "anchored per access"),
        (SiteFate::Direct, "direct per access"),
    ] {
        if let Some(c) = counts.get(&fate) {
            println!("  {c:>2} site(s) {n}");
        }
    }

    println!("\nexecution (4000 ops over a 512-slot table):");
    println!(
        "{:<10} {:>13} {:>11} {:>9} {:>9}",
        "tool", "shadow loads", "cache hits", "fast", "slow"
    );
    for tool in [
        Tool::Native,
        Tool::GiantSan,
        Tool::Asan,
        Tool::AsanMinusMinus,
        Tool::Lfp,
    ] {
        let out = run_tool(tool, &prog, &inputs, &RuntimeConfig::default());
        assert!(
            out.result.reports.is_empty(),
            "{}: unexpected report {:?}",
            tool.name(),
            out.result.reports.first()
        );
        let c = &out.counters;
        println!(
            "{:<10} {:>13} {:>11} {:>9} {:>9}",
            tool.name(),
            c.shadow_loads,
            c.cache_hits,
            c.fast_checks,
            c.slow_checks
        );
    }
    println!(
        "\nthe probe loop's data-dependent slots ride the quasi-bound cache;\n\
         the post-realloc log rewrite is one promoted CI; ASan pays a shadow\n\
         load on every single access."
    );
}
