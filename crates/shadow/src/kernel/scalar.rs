//! The `scalar` reference: one byte per step, no cleverness.
//!
//! These loops are the semantic reference the `swar` kernel is
//! differential-tested against — kept deliberately close to a transcription
//! of each kernel's contract, at the cost of speed.

use crate::codes;

use super::folded_runs;

pub(super) fn first_ne(s: &[u8], byte: u8) -> Option<usize> {
    s.iter().position(|&b| b != byte)
}

pub(super) fn first_ge(s: &[u8], threshold: u8, key: u8) -> Option<usize> {
    s.iter().position(|&b| b ^ key >= threshold)
}

pub(super) fn all_eq(s: &[u8], byte: u8) -> bool {
    s.iter().all(|&b| b == byte)
}

pub(super) fn fill(dst: &mut [u8], byte: u8) {
    for b in dst.iter_mut() {
        *b = byte;
    }
}

pub(super) fn write_folded_run(dst: &mut [u8], key: u8) {
    // Per-segment, straight from Definition 1 — ignoring the run structure
    // the `swar` writer exploits.
    let q = dst.len() as u64;
    for (j, b) in dst.iter_mut().enumerate() {
        *b = codes::folded(codes::degree_at(q, j as u64)) ^ key;
    }
    // The run decomposition must agree; debug builds cross-check it here so
    // a folded_runs bug cannot hide behind the two tables agreeing.
    if cfg!(debug_assertions) {
        folded_runs(q, |lo, hi, code| {
            debug_assert!(dst[lo as usize..hi as usize]
                .iter()
                .all(|&b| b ^ key == code));
        });
    }
}
