//! Runtime configuration shared by all sanitizers.

use crate::recovery::RecoveryPolicy;

/// Which allocator backs the simulated heap.
///
/// There is one: the enum names it so host fingerprints and metrics can
/// record the heap a measurement ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeapBackend {
    /// First-fit free list ([`crate::SimHeap`]): coalescing `BTreeMap` of
    /// holes behind a flat FIFO quarantine, as ASan's allocator.
    #[default]
    FreeList,
}

/// Configuration of the simulated runtime environment.
///
/// Defaults follow the paper's evaluation setup (§5): 16-byte redzones (the
/// ASan default the performance study uses) and a generous quarantine.
///
/// # Example
///
/// ```
/// use giantsan_runtime::RuntimeConfig;
/// let cfg = RuntimeConfig {
///     redzone: 512,
///     ..RuntimeConfig::default()
/// };
/// assert_eq!(cfg.redzone, 512);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Redzone size in bytes placed on each side of heap objects.
    ///
    /// Table 5 of the paper varies this between 16 and 512 to demonstrate
    /// redzone bypassing.
    pub redzone: u64,
    /// Maximum number of bytes held in the quarantine before the oldest
    /// freed block is recycled. `0` disables the quarantine entirely.
    pub quarantine_cap: u64,
    /// Size of the heap arena in bytes.
    pub heap_size: u64,
    /// Size of the simulated stack in bytes.
    pub stack_size: u64,
    /// Size of the global-object arena in bytes.
    pub global_size: u64,
    /// What happens after an error report is raised.
    ///
    /// The paper sets `halt_on_error=false` for SPEC (§5, Configuration), and
    /// the detection studies need every report counted, so the default is
    /// [`RecoveryPolicy::Continue`]. [`RecoveryPolicy::Recover`] adds
    /// per-site dedup, per-kind rate limits, and access containment.
    pub recovery: RecoveryPolicy,
    /// Which allocator backs the heap arena.
    pub heap_backend: HeapBackend,
}

impl RuntimeConfig {
    /// Default redzone size used throughout the paper's performance study.
    pub const DEFAULT_REDZONE: u64 = 16;

    /// Configuration with a given redzone size, other fields default.
    pub fn with_redzone(redzone: u64) -> Self {
        RuntimeConfig {
            redzone,
            ..Self::default()
        }
    }

    /// A small-arena configuration for fast unit tests.
    pub fn small() -> Self {
        RuntimeConfig {
            heap_size: 1 << 20,
            stack_size: 1 << 16,
            global_size: 1 << 16,
            ..Self::default()
        }
    }

    /// A fluent builder seeded with [`RuntimeConfig::default`].
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// A builder seeded with this configuration, so any preset
    /// ([`RuntimeConfig::small`], [`RuntimeConfig::default`], a saved config)
    /// can serve as the baseline for targeted overrides.
    pub fn to_builder(&self) -> RuntimeConfigBuilder {
        RuntimeConfigBuilder { cfg: self.clone() }
    }
}

/// Non-consuming fluent builder for [`RuntimeConfig`].
///
/// Every setter takes `&mut self` and returns `&mut Self`, so a builder can
/// be kept around and forked: call [`RuntimeConfigBuilder::build`] as many
/// times as needed (each call clones the current state).
///
/// # Example
///
/// ```
/// use giantsan_runtime::RuntimeConfig;
/// let cfg = RuntimeConfig::small()
///     .to_builder()
///     .redzone(512)
///     .quarantine_cap(1 << 12)
///     .build();
/// assert_eq!(cfg.redzone, 512);
/// assert_eq!(cfg.heap_size, RuntimeConfig::small().heap_size);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the per-side redzone size in bytes.
    pub fn redzone(&mut self, bytes: u64) -> &mut Self {
        self.cfg.redzone = bytes;
        self
    }

    /// Sets the quarantine byte capacity (`0` disables the quarantine).
    pub fn quarantine_cap(&mut self, bytes: u64) -> &mut Self {
        self.cfg.quarantine_cap = bytes;
        self
    }

    /// Sets the heap arena size in bytes.
    pub fn heap_size(&mut self, bytes: u64) -> &mut Self {
        self.cfg.heap_size = bytes;
        self
    }

    /// Sets the simulated stack size in bytes.
    pub fn stack_size(&mut self, bytes: u64) -> &mut Self {
        self.cfg.stack_size = bytes;
        self
    }

    /// Sets the global-object arena size in bytes.
    pub fn global_size(&mut self, bytes: u64) -> &mut Self {
        self.cfg.global_size = bytes;
        self
    }

    /// Sets whether execution stops at the first error report.
    ///
    /// Shorthand for [`RuntimeConfigBuilder::recovery`] with
    /// [`RecoveryPolicy::Halt`] / [`RecoveryPolicy::Continue`].
    pub fn halt_on_error(&mut self, halt: bool) -> &mut Self {
        self.cfg.recovery = if halt {
            RecoveryPolicy::Halt
        } else {
            RecoveryPolicy::Continue
        };
        self
    }

    /// Sets the full post-report policy (halt / continue / recover).
    pub fn recovery(&mut self, policy: RecoveryPolicy) -> &mut Self {
        self.cfg.recovery = policy;
        self
    }

    /// Produces the configuration described so far.
    pub fn build(&self) -> RuntimeConfig {
        self.cfg.clone()
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            redzone: Self::DEFAULT_REDZONE,
            quarantine_cap: 1 << 20,
            heap_size: 64 << 20,
            stack_size: 4 << 20,
            global_size: 1 << 20,
            recovery: RecoveryPolicy::Continue,
            heap_backend: HeapBackend::FreeList,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = RuntimeConfig::default();
        assert_eq!(cfg.redzone, 16);
        assert_eq!(cfg.recovery, RecoveryPolicy::Continue);
        assert!(cfg.quarantine_cap > 0);
    }

    #[test]
    fn with_redzone_overrides_only_redzone() {
        let cfg = RuntimeConfig::with_redzone(512);
        assert_eq!(cfg.redzone, 512);
        assert_eq!(cfg.heap_size, RuntimeConfig::default().heap_size);
    }

    #[test]
    fn small_is_smaller() {
        assert!(RuntimeConfig::small().heap_size < RuntimeConfig::default().heap_size);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        assert_eq!(RuntimeConfig::builder().build(), RuntimeConfig::default());
        let cfg = RuntimeConfig::builder()
            .redzone(1)
            .halt_on_error(true)
            .build();
        assert_eq!(cfg.redzone, 1);
        assert_eq!(cfg.recovery, RecoveryPolicy::Halt);
        assert_eq!(cfg.heap_size, RuntimeConfig::default().heap_size);
        let recov = RuntimeConfig::builder()
            .recovery(RecoveryPolicy::recover())
            .build();
        assert!(recov.recovery.contains_faults());
    }

    #[test]
    fn builder_is_non_consuming() {
        let mut b = RuntimeConfig::small().to_builder();
        b.quarantine_cap(0);
        let no_quarantine = b.build();
        let bigger = b.quarantine_cap(1 << 10).build();
        assert_eq!(no_quarantine.quarantine_cap, 0);
        assert_eq!(bigger.quarantine_cap, 1 << 10);
        assert_eq!(no_quarantine.heap_size, RuntimeConfig::small().heap_size);
    }
}
