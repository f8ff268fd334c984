//! Cooperative per-cell watchdog: a thread-local deadline polled from the
//! interpreter's hot loop.
//!
//! Threads cannot be preempted in safe Rust, so a runaway cell (an unbounded
//! loop, an adversarial service submission) is cancelled *cooperatively*:
//! the batch engine arms a deadline on the worker thread before invoking the
//! cell job, and long-running library loops — the interpreter's [`step`]
//! counter being the canonical one — periodically call [`poll`]. When the
//! deadline has passed, `poll` panics with the distinguished
//! [`TIMEOUT_PAYLOAD`]; the batch engine's `catch_unwind` recognises that
//! payload and quarantines the cell as timed out, so the worker moves on
//! and the pool never wedges.
//!
//! The deadline is thread-local: arming it on one worker never affects
//! another, and a cell that finishes in time leaves nothing armed (the
//! [`Armed`] guard clears it on drop, panic included).
//!
//! Polling costs one `Instant::now()` call; callers in tight loops are
//! expected to rate-limit their polls (the interpreter checks every
//! [`POLL_INTERVAL`] executed statements).
//!
//! [`step`]: crate::ExecConfig::max_steps

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Process-wide hook fired once per timeout, just before [`poll`] panics.
///
/// The sanitizer service installs a flight-recorder dump request here so a
/// wedged cell leaves a post-mortem trace bundle even though the panic
/// itself unwinds into the batch engine's quarantine path. The hook runs on
/// the timing-out worker thread and must not panic or block.
static TIMEOUT_HOOK: OnceLock<fn()> = OnceLock::new();

/// Installs the process-wide timeout hook. First caller wins; later calls
/// are ignored (the service installs it once at startup).
pub fn set_timeout_hook(hook: fn()) {
    let _ = TIMEOUT_HOOK.set(hook);
}

/// The panic payload [`poll`] raises on an expired deadline. The batch
/// engine matches on this exact string to classify a quarantined cell as
/// timed out rather than crashed.
pub const TIMEOUT_PAYLOAD: &str = "giantsan-watchdog: cell deadline exceeded";

/// How many interpreter steps elapse between deadline polls.
pub const POLL_INTERVAL: u64 = 4096;

/// Arms the calling thread's watchdog: [`poll`] panics once `budget` has
/// elapsed. Returns a guard that disarms on drop (normal return, panic, or
/// timeout alike), restoring whatever deadline was armed before — nested
/// arms keep the *earlier* of the two deadlines, so an outer budget can
/// never be extended by an inner one.
#[must_use]
pub fn arm(budget: Duration) -> Armed {
    let new = Instant::now() + budget;
    let prev = DEADLINE.with(|d| {
        let prev = d.get();
        let effective = match prev {
            Some(outer) if outer < new => outer,
            _ => new,
        };
        d.set(Some(effective));
        prev
    });
    Armed { prev }
}

/// Disarming guard returned by [`arm`].
#[derive(Debug)]
pub struct Armed {
    prev: Option<Instant>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        let prev = self.prev;
        DEADLINE.with(|d| d.set(prev));
    }
}

/// `true` when a deadline is armed on this thread and has passed.
pub fn expired() -> bool {
    DEADLINE.with(|d| d.get().is_some_and(|t| Instant::now() >= t))
}

/// Panics with [`TIMEOUT_PAYLOAD`] if the armed deadline has passed; a no-op
/// when nothing is armed. Library loops call this at their poll points.
#[inline]
pub fn poll() {
    if expired() {
        if let Some(hook) = TIMEOUT_HOOK.get() {
            hook();
        }
        std::panic::panic_any(TIMEOUT_PAYLOAD);
    }
}

/// `true` when `payload` (a caught panic payload) is a watchdog timeout.
pub fn is_timeout_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<&str>()
        .is_some_and(|s| *s == TIMEOUT_PAYLOAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_poll_is_a_noop() {
        assert!(!expired());
        poll();
    }

    #[test]
    fn armed_deadline_expires_and_disarms_on_drop() {
        {
            let _g = arm(Duration::from_millis(0));
            assert!(expired());
            let err = std::panic::catch_unwind(poll).unwrap_err();
            assert!(is_timeout_payload(err.as_ref()));
        }
        // Guard dropped (even though poll panicked inside the scope above,
        // the catch_unwind kept the guard alive until the block end).
        assert!(!expired());
        poll();
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let _g = arm(Duration::from_secs(3600));
        assert!(!expired());
        poll();
    }

    #[test]
    fn nested_arm_keeps_the_tighter_outer_deadline() {
        let _outer = arm(Duration::from_millis(0));
        {
            let _inner = arm(Duration::from_secs(3600));
            // The inner arm may not extend the already-expired outer budget.
            assert!(expired());
        }
        assert!(expired());
    }

    #[test]
    fn timeout_hook_fires_before_the_panic() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static FIRED: AtomicU64 = AtomicU64::new(0);
        // The hook is process-global; installing a pure counter bump keeps
        // this safe no matter which other test trips a timeout afterwards.
        set_timeout_hook(|| {
            FIRED.fetch_add(1, Ordering::SeqCst);
        });
        let before = FIRED.load(Ordering::SeqCst);
        let _g = arm(Duration::from_millis(0));
        let err = std::panic::catch_unwind(poll).unwrap_err();
        assert!(is_timeout_payload(err.as_ref()));
        assert!(FIRED.load(Ordering::SeqCst) > before);
    }

    #[test]
    fn deadlines_are_thread_local() {
        let _g = arm(Duration::from_millis(0));
        assert!(expired());
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!expired());
                poll();
            });
        });
    }
}
