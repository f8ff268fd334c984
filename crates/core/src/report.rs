//! ASan-style rendered error reports with a shadow dump.
//!
//! Real sanitizers don't just return an error code: they print the fault,
//! the object it relates to, and a window of shadow memory around the
//! address so the geometry of the bug is visible at a glance. This module
//! renders [`ErrorReport`]s against a [`GiantSan`] instance in that style,
//! with the folded-segment codes decoded.

use std::fmt::Write as _;

use giantsan_runtime::{ErrorReport, ObjectState, Sanitizer};
use giantsan_shadow::SEGMENT_SIZE;

use crate::encoding;
use crate::GiantSan;

/// Renders a full report: headline, object provenance, and a shadow window.
///
/// # Example
///
/// ```
/// use giantsan_core::{render_report, GiantSan};
/// use giantsan_runtime::{AccessKind, Region, RuntimeConfig, Sanitizer};
///
/// let mut san = GiantSan::new(RuntimeConfig::small());
/// let a = san.alloc(48, Region::Heap).unwrap();
/// let err = san
///     .check_region(a.base, a.base + 49, AccessKind::Write)
///     .unwrap_err();
/// let text = render_report(&san, &err);
/// assert!(text.contains("heap-buffer-overflow"));
/// assert!(text.contains("Shadow bytes around the buggy address"));
/// ```
pub fn render_report(san: &GiantSan, report: &ErrorReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "==GiantSan== {report}");

    // Object provenance from the ground-truth table (real sanitizers derive
    // this from allocator metadata and stored stacks).
    let objects = san.world().objects();
    if let Some(obj) = objects.live_containing(report.addr) {
        let _ = writeln!(
            out,
            "  address is inside a live {}-byte {} object [{}, {})",
            obj.size,
            obj.region,
            obj.base,
            obj.end()
        );
    } else if let Some(obj) = objects.live_block_containing(report.addr) {
        let side = if report.addr < obj.base {
            "left"
        } else {
            "right"
        };
        let _ = writeln!(
            out,
            "  address is in the {side} redzone of a {}-byte {} object [{}, {})",
            obj.size,
            obj.region,
            obj.base,
            obj.end()
        );
    } else if let Some(obj) = objects.dead_block_containing(report.addr) {
        let state = match obj.state {
            ObjectState::Quarantined => "freed (quarantined)",
            ObjectState::Recycled => "freed and recycled",
            ObjectState::Live => unreachable!("dead_block_containing returned live"),
        };
        let _ = writeln!(
            out,
            "  address is inside a {state} {}-byte {} object formerly at [{}, {})",
            obj.size,
            obj.region,
            obj.base,
            obj.end()
        );
    } else {
        let _ = writeln!(out, "  address is not in any tracked object (wild)");
    }

    // Shadow window: 8 segments either side, with the faulting one marked.
    // Segments outside the shadow render as "unmapped".
    let _ = writeln!(out, "Shadow bytes around the buggy address:");
    let shadow = san.shadow();
    let fault_seg = report.addr.segment();
    for seg in fault_seg.saturating_sub(8)..=fault_seg + 8 {
        let addr = giantsan_shadow::Addr::new(seg * SEGMENT_SIZE);
        let marker = if seg == fault_seg { "=>" } else { "  " };
        match shadow.try_segment_of(addr).map(|s| shadow.get(s)) {
            Some(c) => {
                let _ = writeln!(out, "{marker} {addr}: {:>3}  {}", c, describe_code(c));
            }
            None => {
                let _ = writeln!(out, "{marker} {addr}: unmapped");
            }
        }
    }
    out
}

/// Human description of one shadow code.
pub fn describe_code(code: u8) -> String {
    if let Some(degree) = encoding::folding_degree(code) {
        if degree == 0 {
            "good (8 addressable bytes)".to_string()
        } else {
            format!(
                "({degree})-folded: next {} bytes addressable",
                8u64 << degree
            )
        }
    } else if let Some(k) = encoding::partial_bytes(code) {
        format!("{k}-partial: first {k} bytes addressable")
    } else {
        match code {
            encoding::HEAP_LEFT_REDZONE => "heap left redzone".to_string(),
            encoding::HEAP_RIGHT_REDZONE => "heap right redzone".to_string(),
            encoding::FREED => "freed (quarantined)".to_string(),
            encoding::STACK_REDZONE => "stack redzone".to_string(),
            encoding::GLOBAL_REDZONE => "global redzone".to_string(),
            encoding::UNALLOCATED => "unallocated".to_string(),
            _ => format!("unknown code {code:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_runtime::{AccessKind, Region, RuntimeConfig};

    #[test]
    fn overflow_report_shows_redzone_and_fold_codes() {
        let mut san = GiantSan::new(RuntimeConfig::small());
        let a = san.alloc(64, Region::Heap).unwrap();
        let err = san
            .check_access(a.base + 64, 8, AccessKind::Write)
            .unwrap_err();
        let text = render_report(&san, &err);
        assert!(text.contains("heap-buffer-overflow"), "{text}");
        assert!(text.contains("right redzone"), "{text}");
        assert!(text.contains("folded"), "{text}");
        assert!(text.contains("=>"), "{text}");
    }

    #[test]
    fn uaf_report_names_the_freed_object() {
        let mut san = GiantSan::new(RuntimeConfig::small());
        let a = san.alloc(32, Region::Heap).unwrap();
        san.free(a.base).unwrap();
        let err = san.check_access(a.base, 8, AccessKind::Read).unwrap_err();
        let text = render_report(&san, &err);
        assert!(text.contains("heap-use-after-free"), "{text}");
        assert!(text.contains("freed (quarantined)"), "{text}");
        assert!(text.contains("32-byte heap object"), "{text}");
    }

    #[test]
    fn wild_report_says_untracked() {
        let mut san = GiantSan::new(RuntimeConfig::small());
        let err = san
            .check_access(giantsan_shadow::Addr::new(64), 8, AccessKind::Read)
            .unwrap_err();
        let text = render_report(&san, &err);
        assert!(text.contains("not in any tracked object"), "{text}");
    }

    #[test]
    fn describe_covers_every_code_class() {
        assert!(describe_code(encoding::folded(0)).contains("good"));
        assert!(describe_code(encoding::folded(5)).contains("256 bytes"));
        assert!(describe_code(encoding::partial(3)).contains("first 3"));
        assert!(describe_code(encoding::FREED).contains("freed"));
        assert!(describe_code(0xff).contains("unknown"));
    }
}
