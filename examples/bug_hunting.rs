//! Bug hunting: run one buggy program under all four sanitizers and compare
//! what each one sees — the paper's detection studies in miniature.
//!
//! ```sh
//! cargo run --example bug_hunting
//! ```
//!
//! The program is a CWE-122-style parser bug: a header's length field is
//! trusted, so a `memcpy` writes a few bytes past a 100-byte heap buffer.
//! The overflow stays inside LFP's 128-byte size-class slot, demonstrating
//! the rounded-up-bound blind spot (paper §2.1); the location-based tools
//! see the redzone. ASan-- is ASan's runtime under a debloated plan
//! (`ToolProfile::asan_minus_minus`): it removes redundant checks, not the
//! ones that guard the copy.

use giantsan::analysis::{analyze, ToolProfile};
use giantsan::baselines::{Asan, Lfp};
use giantsan::core::GiantSan;
use giantsan::ir::{run, ExecConfig, Expr, Program, ProgramBuilder};
use giantsan::runtime::{RuntimeConfig, Sanitizer};

/// Builds the buggy "parser": copies `claimed` bytes into a 100-byte field.
fn buggy_parser() -> (Program, Vec<i64>) {
    let mut b = ProgramBuilder::new("trusting-parser");
    let field_size = b.input(0);
    let claimed = b.input(1);
    let field = b.alloc_heap(field_size);
    let packet = b.alloc_heap(256);
    // memcpy(field, packet, claimed) — claimed comes from the wire.
    b.memcpy(field, 0i64, packet, 0i64, claimed.clone());
    // ... followed by normal field accesses.
    b.for_loop(0i64, Expr::input(0), |b, i| {
        b.load_discard(field, Expr::var(i), 1);
    });
    b.free(packet);
    b.free(field);
    (b.build(), vec![100, 104]) // 4 bytes past the field
}

fn hunt(name: &str, san: &mut dyn Sanitizer, profile: &ToolProfile) {
    let (prog, inputs) = buggy_parser();
    let plan = analyze(&prog, profile).plan;
    let result = run(&prog, &inputs, san, &plan, &ExecConfig::default());
    match result.reports.first() {
        Some(r) => println!("{name:<10} DETECTED  {r}"),
        None => println!("{name:<10} missed    (overflow hides in the rounding slack)"),
    }
}

fn main() {
    println!("104-byte copy into a 100-byte heap field:\n");
    let cfg = RuntimeConfig::default;

    let mut gs = GiantSan::new(cfg());
    hunt("GiantSan", &mut gs, &ToolProfile::giantsan());

    let mut asan = Asan::new(cfg());
    hunt("ASan", &mut asan, &ToolProfile::asan());

    let mut mm = Asan::new(cfg());
    hunt("ASan--", &mut mm, &ToolProfile::asan_minus_minus());

    let mut lfp = Lfp::new(cfg());
    hunt("LFP", &mut lfp, &ToolProfile::lfp());

    println!(
        "\nLFP rounds the 100-byte allocation up to its {}‑byte size class,\n\
         so a 4-byte overflow never leaves the slot (paper §2.1, Table 3).",
        giantsan::baselines::lfp::class_for(100)
    );
}
