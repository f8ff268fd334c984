//! The mini-IR interpreter.
//!
//! Executes a [`Program`] against a [`Sanitizer`]'s world, performing *real*
//! data loads and stores in the simulated address space and running the
//! checks prescribed by a [`CheckPlan`]. The [`RecoveryPolicy`] on
//! [`ExecConfig`] decides what a report does: [`RecoveryPolicy::Continue`]
//! (the paper's SPEC configuration) records every report and keeps going,
//! [`RecoveryPolicy::Halt`] stops at the first one, and
//! [`RecoveryPolicy::Recover`] deduplicates reports per site, rate-limits
//! them per kind, and *contains* each faulting access — the access is
//! skipped and the tool's [`Sanitizer::contain`] hook heals its metadata —
//! so execution continues on a sound state. Unmapped accesses behave like
//! hardware faults and abort the run for every tool, native included.
//!
//! Each run first decodes the program under its plan and inputs: every
//! expression is lowered to a closed linear form (see `lower.rs`), every
//! access site carries its resolved [`SiteAction`], and every loop owns its
//! decoded [`crate::LoopPlan`]. Execution then walks the decoded tree, so
//! no statement evaluates an expression tree or consults the plan.
//!
//! [`run`] is generic over the sanitizer: calling it with a concrete tool
//! monomorphizes the whole interpreter loop around that tool's check
//! methods, so the per-access fast path inlines instead of going through a
//! vtable. [`run_dyn`] pins the `dyn Sanitizer` instantiation for call
//! sites that hold boxed tools and for dispatch-cost benchmarks.
//!
//! [`run_with`] additionally threads a [`Recorder`] through the loop. Every
//! emission site is guarded by `if R::ENABLED`, so [`run`] — which delegates
//! with [`NoopRecorder`] — monomorphizes to exactly the untraced
//! interpreter: telemetry is zero-cost unless a [`TraceRecorder`] is passed.
//! Events are classified from the sanitizer's own counter deltas (the tool
//! needs no telemetry hooks beyond the read-only
//! [`Sanitizer::shadow_probe`]), so traced and untraced runs execute
//! byte-identically.
//!
//! [`TraceRecorder`]: giantsan_telemetry::TraceRecorder

use giantsan_runtime::{
    AccessKind, Admission, CacheSlot, Counters, ErrorReport, RecoveryPolicy, RecoveryState, Region,
    Sanitizer,
};
use giantsan_shadow::Addr;
use giantsan_telemetry::{
    CheckPathKind, EventKind, Fnv1a, NoopRecorder, Recorder, LOOP_FINAL_SITE, PRE_CHECK_SITE,
};

use crate::expr::Expr;
use crate::lower::{Form, Lowerer};
use crate::plan::{CheckPlan, SiteAction};
use crate::program::{Program, SiteId, Stmt};

/// Interpreter limits and error policy.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Abort after this many executed statements (runaway-loop backstop).
    pub max_steps: u64,
    /// What a raised report does: halt, record-and-continue (the paper's
    /// configuration, the default), or recover with dedup + containment.
    pub recovery: RecoveryPolicy,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_steps: 200_000_000,
            recovery: RecoveryPolicy::Continue,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// Ran to completion.
    Finished,
    /// Stopped at the first report (only with [`RecoveryPolicy::Halt`]).
    Halted,
    /// Hardware-fault analogue: an access left the simulated address space.
    Crashed {
        /// Human-readable fault description.
        reason: String,
    },
    /// Exceeded [`ExecConfig::max_steps`].
    StepLimit,
}

/// The observable outcome of one run.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Error reports raised by the sanitizer, in order.
    pub reports: Vec<ErrorReport>,
    /// How the run ended.
    pub termination: Termination,
    /// XOR-rotate digest of every loaded value: identical across sanitizers
    /// for the same program and inputs (checked by differential tests).
    pub checksum: u64,
    /// Executed statement count.
    pub steps: u64,
    /// Abstract units of real memory work (accesses + memop segments); the
    /// denominator of the analytic overhead model.
    pub native_work: u64,
}

impl ExecResult {
    /// `true` if the run produced at least one report or crashed — the
    /// "detected" predicate of the detection studies (Tables 3–5).
    pub fn detected(&self) -> bool {
        !self.reports.is_empty() || matches!(self.termination, Termination::Crashed { .. })
    }

    /// FNV-1a digest of every deterministic field: checksum, steps, native
    /// work, termination, and the rendered reports.
    ///
    /// Two runs with equal digests behaved identically as far as the
    /// interpreter can observe; the batch engine's determinism checks
    /// compare these instead of whole results.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut eat = |bytes: &[u8]| h.eat(bytes);
        eat(&self.checksum.to_le_bytes());
        eat(&self.steps.to_le_bytes());
        eat(&self.native_work.to_le_bytes());
        match &self.termination {
            Termination::Finished => eat(b"finished"),
            Termination::Halted => eat(b"halted"),
            Termination::Crashed { reason } => {
                eat(b"crashed:");
                eat(reason.as_bytes());
            }
            Termination::StepLimit => eat(b"step-limit"),
        }
        for r in &self.reports {
            eat(r.to_string().as_bytes());
        }
        h.finish()
    }
}

/// Runs `program` with `inputs` under `san`, instrumented per `plan`.
///
/// # Example
///
/// ```
/// use giantsan_ir::{CheckPlan, ExecConfig, ProgramBuilder, run, Expr};
/// use giantsan_runtime::{NullSanitizer, RuntimeConfig};
///
/// let mut b = ProgramBuilder::new("sum");
/// let buf = b.alloc_heap(80);
/// b.for_loop(0i64, 10i64, |b, i| {
///     b.store(buf, Expr::var(i) * 8, 8, Expr::var(i));
/// });
/// let prog = b.build();
///
/// let mut native = NullSanitizer::new(RuntimeConfig::small());
/// let plan = CheckPlan::none(&prog);
/// let result = run(&prog, &[], &mut native, &plan, &ExecConfig::default());
/// assert!(!result.detected());
/// assert_eq!(result.native_work, 10);
/// ```
pub fn run<S: Sanitizer + ?Sized>(
    program: &Program,
    inputs: &[i64],
    san: &mut S,
    plan: &CheckPlan,
    config: &ExecConfig,
) -> ExecResult {
    run_with(program, inputs, san, plan, config, &mut NoopRecorder)
}

/// [`run`] with a telemetry [`Recorder`] attached.
///
/// With [`NoopRecorder`] (what [`run`] passes) every `if R::ENABLED` guard
/// is a compile-time `false` and this is exactly the untraced interpreter.
/// With an enabled recorder the loop additionally emits a structured
/// [`EventKind`] per check (site, path classified from counter deltas,
/// shadow loads, region size, observed folded code), per quasi-bound
/// refresh, per allocator operation (with poisoning spans), per report or
/// containment, and one end-of-run summary. Tracing never changes execution:
/// the recorder only observes counters the sanitizer already maintains.
pub fn run_with<S: Sanitizer + ?Sized, R: Recorder>(
    program: &Program,
    inputs: &[i64],
    san: &mut S,
    plan: &CheckPlan,
    config: &ExecConfig,
    rec: &mut R,
) -> ExecResult {
    debug_assert_eq!(plan.sites.len(), program.num_sites as usize);
    let ops = decode(program, plan, inputs);
    let mut interp = Interp {
        san,
        inputs,
        config,
        rec,
        vars: vec![0; program.num_vars as usize],
        ptrs: vec![0; program.num_ptrs as usize],
        slots: vec![CacheSlot::new(); plan.num_caches as usize],
        recovery: RecoveryState::new(),
        result: ExecResult {
            reports: Vec::new(),
            termination: Termination::Finished,
            checksum: 0,
            steps: 0,
            native_work: 0,
        },
    };
    match interp.exec_block(&ops) {
        Ok(()) => {}
        Err(stop) => interp.result.termination = stop,
    }
    if R::ENABLED {
        interp.rec.record(EventKind::Run {
            steps: interp.result.steps,
            native_work: interp.result.native_work,
            reports: interp.result.reports.len() as u64,
        });
    }
    interp.result
}

/// Dynamic-dispatch entry point: [`run`] instantiated at `dyn Sanitizer`.
///
/// Kept as an explicit shim so call sites that hold a boxed tool (and the
/// dispatch-cost benchmarks) have a stable, guaranteed-virtual path to
/// compare against the monomorphized one.
pub fn run_dyn(
    program: &Program,
    inputs: &[i64],
    san: &mut dyn Sanitizer,
    plan: &CheckPlan,
    config: &ExecConfig,
) -> ExecResult {
    run(program, inputs, san, plan, config)
}

/// One statement, decoded for execution: expressions lowered to [`Form`]s,
/// ids widened to indexes, and each access site's [`SiteAction`] resolved.
enum Op {
    Let {
        var: usize,
        expr: Form,
    },
    Alloc {
        ptr: usize,
        size: Form,
        region: Region,
    },
    Free {
        ptr: usize,
        offset: Form,
    },
    Realloc {
        ptr: usize,
        new_size: Form,
    },
    Load {
        site: u32,
        check: Check,
        ptr: usize,
        offset: Form,
        width: u8,
        dst: Option<usize>,
    },
    Store {
        site: u32,
        check: Check,
        ptr: usize,
        offset: Form,
        width: u8,
        value: Form,
    },
    MemSet {
        site: u32,
        checked: bool,
        ptr: usize,
        offset: Form,
        len: Form,
        value: Form,
    },
    StrCpy {
        site: u32,
        checked: bool,
        dst: usize,
        dst_offset: Form,
        src: usize,
        src_offset: Form,
    },
    MemCpy {
        site: u32,
        checked: bool,
        dst: usize,
        dst_offset: Form,
        src: usize,
        src_offset: Form,
        len: Form,
    },
    For {
        var: usize,
        lo: Form,
        hi: Form,
        reverse: bool,
        /// The loop's decoded [`crate::LoopPlan`]: promoted checks, then
        /// `(cache slot, guarded pointer)` pairs. Both empty without one.
        pre_checks: Box<[PreOp]>,
        caches: Box<[(usize, usize)]>,
        body: Box<[Op]>,
    },
    If {
        cond: Form,
        then_body: Box<[Op]>,
        else_body: Box<[Op]>,
    },
    Frame {
        body: Box<[Op]>,
    },
    PtrCopy {
        dst: usize,
        src: usize,
        offset: Form,
    },
}

/// A load or store site's resolved [`SiteAction`].
enum Check {
    Skip,
    Direct,
    Anchored,
    Region(Box<(Form, Form)>),
    Cached(usize),
}

/// A decoded [`crate::PreCheck`].
struct PreOp {
    ptr: usize,
    lo: Form,
    hi: Form,
    kind: AccessKind,
}

/// Lowers `program` under `plan` and `inputs` into the tree [`Interp`]
/// executes.
fn decode(program: &Program, plan: &CheckPlan, inputs: &[i64]) -> Box<[Op]> {
    Decoder {
        plan,
        lowerer: Lowerer::new(program.num_vars, inputs),
    }
    .block(&program.stmts)
}

struct Decoder<'a> {
    plan: &'a CheckPlan,
    lowerer: Lowerer<'a>,
}

impl Decoder<'_> {
    fn form(&mut self, e: &Expr) -> Form {
        self.lowerer.lower(e)
    }

    fn block(&mut self, stmts: &[Stmt]) -> Box<[Op]> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn check(&mut self, site: SiteId) -> Check {
        match self.plan.action(site) {
            SiteAction::Skip => Check::Skip,
            SiteAction::Direct => Check::Direct,
            SiteAction::Anchored => Check::Anchored,
            SiteAction::Region { lo, hi } => {
                Check::Region(Box::new((self.form(lo), self.form(hi))))
            }
            SiteAction::Cached { cache } => Check::Cached(cache.0 as usize),
        }
    }

    /// Whether a memory intrinsic's region checks run.
    fn checked(&self, site: SiteId) -> bool {
        !matches!(self.plan.action(site), SiteAction::Skip)
    }

    fn stmt(&mut self, stmt: &Stmt) -> Op {
        match stmt {
            Stmt::Let { var, expr } => Op::Let {
                var: var.0 as usize,
                expr: self.form(expr),
            },
            Stmt::Alloc { ptr, size, region } => Op::Alloc {
                ptr: ptr.0 as usize,
                size: self.form(size),
                region: *region,
            },
            Stmt::Free { ptr, offset } => Op::Free {
                ptr: ptr.0 as usize,
                offset: self.form(offset),
            },
            Stmt::Realloc { ptr, new_size } => Op::Realloc {
                ptr: ptr.0 as usize,
                new_size: self.form(new_size),
            },
            Stmt::Load {
                site,
                ptr,
                offset,
                width,
                dst,
            } => Op::Load {
                site: site.0,
                check: self.check(*site),
                ptr: ptr.0 as usize,
                offset: self.form(offset),
                width: *width,
                dst: dst.map(|d| d.0 as usize),
            },
            Stmt::Store {
                site,
                ptr,
                offset,
                width,
                value,
            } => Op::Store {
                site: site.0,
                check: self.check(*site),
                ptr: ptr.0 as usize,
                offset: self.form(offset),
                width: *width,
                value: self.form(value),
            },
            Stmt::MemSet {
                site,
                ptr,
                offset,
                len,
                value,
            } => Op::MemSet {
                site: site.0,
                checked: self.checked(*site),
                ptr: ptr.0 as usize,
                offset: self.form(offset),
                len: self.form(len),
                value: self.form(value),
            },
            Stmt::StrCpy {
                site,
                dst,
                dst_offset,
                src,
                src_offset,
            } => Op::StrCpy {
                site: site.0,
                checked: self.checked(*site),
                dst: dst.0 as usize,
                dst_offset: self.form(dst_offset),
                src: src.0 as usize,
                src_offset: self.form(src_offset),
            },
            Stmt::MemCpy {
                site,
                dst,
                dst_offset,
                src,
                src_offset,
                len,
            } => Op::MemCpy {
                site: site.0,
                checked: self.checked(*site),
                dst: dst.0 as usize,
                dst_offset: self.form(dst_offset),
                src: src.0 as usize,
                src_offset: self.form(src_offset),
                len: self.form(len),
            },
            Stmt::For {
                id,
                var,
                lo,
                hi,
                reverse,
                body,
                ..
            } => {
                let lp = self.plan.loops.get(id);
                Op::For {
                    var: var.0 as usize,
                    lo: self.form(lo),
                    hi: self.form(hi),
                    reverse: *reverse,
                    pre_checks: lp.map_or_else(Box::default, |lp| {
                        lp.pre_checks
                            .iter()
                            .map(|pre| PreOp {
                                ptr: pre.ptr.0 as usize,
                                lo: self.form(&pre.lo),
                                hi: self.form(&pre.hi),
                                kind: pre.kind,
                            })
                            .collect()
                    }),
                    caches: lp.map_or_else(Box::default, |lp| {
                        lp.caches
                            .iter()
                            .map(|(cache, ptr)| (cache.0 as usize, ptr.0 as usize))
                            .collect()
                    }),
                    body: self.block(body),
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => Op::If {
                cond: self.form(cond),
                then_body: self.block(then_body),
                else_body: self.block(else_body),
            },
            Stmt::Frame { body } => Op::Frame {
                body: self.block(body),
            },
            Stmt::PtrCopy { dst, src, offset } => Op::PtrCopy {
                dst: dst.0 as usize,
                src: src.0 as usize,
                offset: self.form(offset),
            },
        }
    }
}

struct Interp<'a, S: Sanitizer + ?Sized, R: Recorder> {
    san: &'a mut S,
    inputs: &'a [i64],
    config: &'a ExecConfig,
    rec: &'a mut R,
    vars: Vec<i64>,
    ptrs: Vec<u64>,
    slots: Vec<CacheSlot>,
    recovery: RecoveryState,
    result: ExecResult,
}

/// Classifies the path one check took from the counter delta it left.
///
/// Precedence mirrors the paths' cost ordering: a cache refresh implies a
/// real check underneath it, an anchored slow path may also bump the
/// underflow counter, so the most specific counter wins.
fn classify_path(before: &Counters, after: &Counters) -> CheckPathKind {
    if after.cache_hits > before.cache_hits {
        CheckPathKind::CacheHit
    } else if after.cache_updates > before.cache_updates {
        CheckPathKind::CacheUpdate
    } else if after.slow_checks > before.slow_checks {
        CheckPathKind::Slow
    } else if after.underflow_checks > before.underflow_checks {
        CheckPathKind::Underflow
    } else if after.arith_checks > before.arith_checks {
        CheckPathKind::Arith
    } else if after.fast_checks > before.fast_checks {
        CheckPathKind::Fast
    } else {
        CheckPathKind::Skipped
    }
}

impl<S: Sanitizer + ?Sized, R: Recorder> Interp<'_, S, R> {
    #[inline]
    fn eval(&self, f: &Form) -> i64 {
        f.eval(&self.vars, self.inputs)
    }

    /// Snapshot of the tool's counters, taken only when tracing.
    #[inline]
    fn counters_snapshot(&self) -> Counters {
        if R::ENABLED {
            *self.san.counters()
        } else {
            Counters::default()
        }
    }

    /// Emits one `Check` event classified against the `before` snapshot.
    #[inline]
    fn record_check(
        &mut self,
        site: u32,
        before: &Counters,
        kind: AccessKind,
        region: u64,
        probe: Addr,
    ) {
        let after = *self.san.counters();
        self.rec.record(EventKind::Check {
            site,
            path: classify_path(before, &after),
            write: kind == AccessKind::Write,
            loads: after.shadow_loads.saturating_sub(before.shadow_loads) as u32,
            region,
            code: self.san.shadow_probe(probe),
        });
    }

    #[inline]
    fn step(&mut self) -> Result<(), Termination> {
        self.result.steps += 1;
        if self.result.steps > self.config.max_steps {
            return Err(Termination::StepLimit);
        }
        // Cooperative cancellation: a cell running under an armed batch-
        // engine deadline is aborted here (by the watchdog's distinguished
        // panic) instead of wedging its worker for the rest of the budget.
        if self
            .result
            .steps
            .is_multiple_of(crate::watchdog::POLL_INTERVAL)
        {
            crate::watchdog::poll();
        }
        Ok(())
    }

    /// Handles a raised report per the recovery policy.
    ///
    /// Returns `Ok(true)` when the faulting access must be *contained*
    /// (skipped) rather than performed — only under
    /// [`RecoveryPolicy::Recover`], where the tool's
    /// [`Sanitizer::contain`] hook has already been given a chance to heal
    /// its metadata. `Ok(false)` is the historical record-and-continue path.
    fn note_report(&mut self, report: ErrorReport) -> Result<bool, Termination> {
        match self.recovery.admit(&self.config.recovery, &report) {
            Admission::Halt => {
                if R::ENABLED {
                    self.rec.record(EventKind::Report { site: report.site });
                }
                self.result.reports.push(report);
                Err(Termination::Halted)
            }
            Admission::Record => {
                let contain = self.config.recovery.contains_faults();
                if contain {
                    self.san.counters_mut().errors_recovered += 1;
                    self.san.contain(&report);
                }
                if R::ENABLED {
                    self.rec.record(EventKind::Report { site: report.site });
                    if contain {
                        self.rec.record(EventKind::Contained {
                            site: report.site,
                            suppressed: false,
                        });
                    }
                }
                self.result.reports.push(report);
                Ok(contain)
            }
            Admission::Suppress => {
                self.san.counters_mut().errors_suppressed += 1;
                self.san.contain(&report);
                if R::ENABLED {
                    self.rec.record(EventKind::Contained {
                        site: report.site,
                        suppressed: true,
                    });
                }
                Ok(true)
            }
        }
    }

    fn crash(&self, what: &str, addr: Addr) -> Termination {
        Termination::Crashed {
            reason: format!("{what} fault at {addr}"),
        }
    }

    /// Runs the planned check for an ordinary access site.
    ///
    /// Returns whether the real access should be performed: `false` only
    /// when a failed check was contained under [`RecoveryPolicy::Recover`].
    #[inline]
    fn check_site(
        &mut self,
        site: u32,
        check: &Check,
        base: Addr,
        offset: i64,
        width: u8,
        kind: AccessKind,
    ) -> Result<bool, Termination> {
        let before = self.counters_snapshot();
        // (cache index, pre-check bound) for the quasi-bound refresh event.
        let mut cached_pre: Option<(usize, u64)> = None;
        let mut region = width as u64;
        let verdict = match check {
            Check::Skip => {
                region = 0;
                Ok(())
            }
            Check::Direct => self
                .san
                .check_access(base.offset(offset), width as u32, kind),
            Check::Anchored => {
                if R::ENABLED {
                    // Anchored checks cover base..access end (both directions).
                    let lo = base.min(base.offset(offset));
                    let hi = base.max(base.offset(offset + width as i64));
                    region = hi.raw().saturating_sub(lo.raw());
                }
                self.san.check_anchored(
                    base,
                    base.offset(offset),
                    base.offset(offset + width as i64),
                    kind,
                )
            }
            Check::Region(bounds) => {
                // The planner already folded any anchoring into `lo`, so a
                // plain region check keeps non-anchored tools honest.
                let lo = self.eval(&bounds.0);
                let hi = self.eval(&bounds.1);
                if R::ENABLED {
                    region = (hi.max(lo) - lo) as u64;
                }
                self.san
                    .check_region(base.offset(lo), base.offset(hi.max(lo)), kind)
            }
            Check::Cached(idx) => {
                let idx = *idx;
                if R::ENABLED {
                    cached_pre = Some((idx, self.slots[idx].ub));
                }
                let slot = &mut self.slots[idx];
                self.san
                    .cached_check(slot, base, offset, width as u32, kind)
            }
        };
        if R::ENABLED {
            self.record_check(site, &before, kind, region, base.offset(offset));
            if let Some((idx, old_ub)) = cached_pre {
                let slot = self.slots[idx];
                if slot.ub != old_ub {
                    self.rec.record(EventKind::QuasiBound {
                        site,
                        old_ub,
                        new_ub: slot.ub,
                        step: slot.updates,
                    });
                }
            }
        }
        match verdict {
            Ok(()) => Ok(true),
            Err(r) => Ok(!self.note_report(r.with_site(site))?),
        }
    }

    /// Runs a (possibly skipped) region check for a memory intrinsic.
    ///
    /// Returns whether the memop's real data movement should be performed
    /// (see [`Interp::check_site`]).
    #[inline]
    fn check_memop(
        &mut self,
        site: u32,
        checked: bool,
        lo: Addr,
        hi: Addr,
        kind: AccessKind,
    ) -> Result<bool, Termination> {
        let before = self.counters_snapshot();
        let verdict = if checked {
            self.san.check_region(lo, hi, kind)
        } else {
            Ok(())
        };
        if R::ENABLED {
            let region = hi.raw().saturating_sub(lo.raw());
            self.record_check(site, &before, kind, region, lo);
        }
        match verdict {
            Ok(()) => Ok(true),
            Err(r) => Ok(!self.note_report(r.with_site(site))?),
        }
    }

    fn exec_block(&mut self, ops: &[Op]) -> Result<(), Termination> {
        for op in ops {
            self.exec(op)?;
        }
        Ok(())
    }

    fn exec(&mut self, op: &Op) -> Result<(), Termination> {
        self.step()?;
        match op {
            Op::Let { var, expr } => {
                self.vars[*var] = self.eval(expr);
            }
            Op::Alloc { ptr, size, region } => {
                let size = self.eval(size).max(0) as u64;
                let stores_before = self.counters_snapshot().shadow_stores;
                match self.san.alloc(size, *region) {
                    Ok(a) => {
                        self.ptrs[*ptr] = a.base.raw();
                        if R::ENABLED {
                            self.rec.record(EventKind::Alloc {
                                size,
                                stack: *region == Region::Stack,
                                poison: self
                                    .san
                                    .counters()
                                    .shadow_stores
                                    .saturating_sub(stores_before),
                            });
                        }
                    }
                    Err(e) => {
                        return Err(Termination::Crashed {
                            reason: format!("allocation failure: {e}"),
                        })
                    }
                }
            }
            Op::Free { ptr, offset } => {
                let off = self.eval(offset);
                let addr = Addr::new(self.ptrs[*ptr]).offset(off);
                let stores_before = self.counters_snapshot().shadow_stores;
                if let Err(r) = self.san.free(addr) {
                    // A rejected free performed no deallocation; there is
                    // nothing further to contain.
                    self.note_report(r)?;
                } else if R::ENABLED {
                    self.rec.record(EventKind::Free {
                        poison: self
                            .san
                            .counters()
                            .shadow_stores
                            .saturating_sub(stores_before),
                    });
                }
            }
            Op::Realloc { ptr, new_size } => {
                let size = self.eval(new_size).max(0) as u64;
                let addr = Addr::new(self.ptrs[*ptr]);
                let stores_before = self.counters_snapshot().shadow_stores;
                match self.san.realloc(addr, size) {
                    Ok(a) => {
                        self.ptrs[*ptr] = a.base.raw();
                        if R::ENABLED {
                            self.rec.record(EventKind::Realloc {
                                new_size: size,
                                poison: self
                                    .san
                                    .counters()
                                    .shadow_stores
                                    .saturating_sub(stores_before),
                            });
                        }
                    }
                    Err(r) => {
                        self.note_report(r)?;
                    }
                }
            }
            Op::Load {
                site,
                check,
                ptr,
                offset,
                width,
                dst,
            } => {
                let off = self.eval(offset);
                let base = Addr::new(self.ptrs[*ptr]);
                if !self.check_site(*site, check, base, off, *width, AccessKind::Read)? {
                    // Contained: the load is skipped and yields a safe zero.
                    if let Some(d) = dst {
                        self.vars[*d] = 0;
                    }
                    return Ok(());
                }
                let addr = base.offset(off);
                self.result.native_work += 1;
                match self.san.world().space().read_uint(addr, *width as u32) {
                    Ok(v) => {
                        self.result.checksum = self.result.checksum.rotate_left(1) ^ v;
                        if let Some(d) = dst {
                            self.vars[*d] = v as i64;
                        }
                    }
                    Err(_) => return Err(self.crash("load", addr)),
                }
            }
            Op::Store {
                site,
                check,
                ptr,
                offset,
                width,
                value,
            } => {
                let off = self.eval(offset);
                let val = self.eval(value);
                let base = Addr::new(self.ptrs[*ptr]);
                if !self.check_site(*site, check, base, off, *width, AccessKind::Write)? {
                    return Ok(()); // contained: the store never lands
                }
                let addr = base.offset(off);
                self.result.native_work += 1;
                if self
                    .san
                    .world_mut()
                    .space_mut()
                    .write_uint(addr, val as u64, *width as u32)
                    .is_err()
                {
                    return Err(self.crash("store", addr));
                }
            }
            Op::MemSet {
                site,
                checked,
                ptr,
                offset,
                len,
                value,
            } => {
                let off = self.eval(offset);
                let len = self.eval(len).max(0) as u64;
                let val = self.eval(value) as u8;
                let base = Addr::new(self.ptrs[*ptr]);
                let lo = base.offset(off);
                let hi = lo.offset(len as i64);
                if !self.check_memop(*site, *checked, lo, hi, AccessKind::Write)? {
                    return Ok(());
                }
                self.result.native_work += len / 8 + 1;
                if len > 0 && self.san.world_mut().space_mut().fill(lo, val, len).is_err() {
                    return Err(self.crash("memset", lo));
                }
            }
            Op::StrCpy {
                site,
                checked,
                dst,
                dst_offset,
                src,
                src_offset,
            } => {
                let doff = self.eval(dst_offset);
                let soff = self.eval(src_offset);
                let dbase = Addr::new(self.ptrs[*dst]);
                let sbase = Addr::new(self.ptrs[*src]);
                let slo = sbase.offset(soff);
                let dlo = dbase.offset(doff);
                // The libc scan: find the NUL. Reading an unterminated
                // string off the end of the space is a fault.
                let mut len = 1u64; // include the NUL
                loop {
                    match self
                        .san
                        .world()
                        .space()
                        .read_uint(slo.offset(len as i64 - 1), 1)
                    {
                        Ok(0) => break,
                        Ok(_) => len += 1,
                        Err(_) => return Err(self.crash("strcpy scan", slo)),
                    }
                }
                // The guardian checks both regions before the copy.
                let src_ok = self.check_memop(
                    *site,
                    *checked,
                    slo,
                    slo.offset(len as i64),
                    AccessKind::Read,
                )?;
                let dst_ok = self.check_memop(
                    *site,
                    *checked,
                    dlo,
                    dlo.offset(len as i64),
                    AccessKind::Write,
                )?;
                if !(src_ok && dst_ok) {
                    return Ok(());
                }
                self.result.native_work += len / 8 + 1;
                if self
                    .san
                    .world_mut()
                    .space_mut()
                    .copy(dlo, slo, len)
                    .is_err()
                {
                    return Err(self.crash("strcpy", dlo));
                }
            }
            Op::MemCpy {
                site,
                checked,
                dst,
                dst_offset,
                src,
                src_offset,
                len,
            } => {
                let doff = self.eval(dst_offset);
                let soff = self.eval(src_offset);
                let len = self.eval(len).max(0) as u64;
                let dbase = Addr::new(self.ptrs[*dst]);
                let sbase = Addr::new(self.ptrs[*src]);
                let dlo = dbase.offset(doff);
                let slo = sbase.offset(soff);
                let src_ok = self.check_memop(
                    *site,
                    *checked,
                    slo,
                    slo.offset(len as i64),
                    AccessKind::Read,
                )?;
                let dst_ok = self.check_memop(
                    *site,
                    *checked,
                    dlo,
                    dlo.offset(len as i64),
                    AccessKind::Write,
                )?;
                if !(src_ok && dst_ok) {
                    return Ok(());
                }
                self.result.native_work += len / 8 + 1;
                if len > 0
                    && self
                        .san
                        .world_mut()
                        .space_mut()
                        .copy(dlo, slo, len)
                        .is_err()
                {
                    return Err(self.crash("memcpy", dlo));
                }
            }
            Op::For {
                var,
                lo,
                hi,
                reverse,
                pre_checks,
                caches,
                body,
            } => {
                let lo = self.eval(lo);
                let hi = self.eval(hi);
                // Loop pre-header: promoted region checks (guarded by a
                // non-zero trip count, as a real compiler guards hoisted
                // checks) and cache resets.
                if hi > lo {
                    for pre in pre_checks.iter() {
                        let plo = self.eval(&pre.lo);
                        let phi = self.eval(&pre.hi);
                        let base = Addr::new(self.ptrs[pre.ptr]);
                        let before = self.counters_snapshot();
                        let verdict = self.san.check_region(
                            base.offset(plo),
                            base.offset(phi.max(plo)),
                            pre.kind,
                        );
                        if R::ENABLED {
                            let region = (phi.max(plo) - plo) as u64;
                            self.record_check(
                                PRE_CHECK_SITE,
                                &before,
                                pre.kind,
                                region,
                                base.offset(plo),
                            );
                        }
                        if let Err(r) = verdict {
                            self.note_report(r)?;
                        }
                    }
                }
                for &(cache, _) in caches.iter() {
                    self.slots[cache] = CacheSlot::new();
                }
                if *reverse {
                    for i in (lo..hi).rev() {
                        self.vars[*var] = i;
                        self.exec_block(body)?;
                    }
                } else {
                    for i in lo..hi {
                        self.vars[*var] = i;
                        self.exec_block(body)?;
                    }
                }
                // Loop exit: finalise caches (Figure 9 line 14).
                for &(cache, ptr) in caches.iter() {
                    let slot = self.slots[cache];
                    let base = Addr::new(self.ptrs[ptr]);
                    let before = self.counters_snapshot();
                    let verdict = self.san.loop_final_check(&slot, base, AccessKind::Read);
                    if R::ENABLED {
                        self.record_check(
                            LOOP_FINAL_SITE,
                            &before,
                            AccessKind::Read,
                            slot.ub,
                            base,
                        );
                    }
                    if let Err(r) = verdict {
                        self.note_report(r)?;
                    }
                }
            }
            Op::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval(cond) != 0 {
                    self.exec_block(then_body)?;
                } else {
                    self.exec_block(else_body)?;
                }
            }
            Op::Frame { body } => {
                self.san.push_frame();
                let r = self.exec_block(body);
                self.san.pop_frame();
                r?;
            }
            Op::PtrCopy { dst, src, offset } => {
                let off = self.eval(offset);
                self.ptrs[*dst] = Addr::new(self.ptrs[*src]).offset(off).raw();
            }
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckPlan, ProgramBuilder};
    use giantsan_runtime::{NullSanitizer, RuntimeConfig};

    fn native() -> NullSanitizer {
        NullSanitizer::new(RuntimeConfig::small())
    }

    #[test]
    fn arithmetic_and_memory_round_trip() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(64);
        b.store(p, 0i64, 8, 0xdeadi64);
        let v = b.load(p, 0i64, 8);
        let q = b.alloc_heap(8);
        b.store(q, 0i64, 8, Expr::var(v) + 1);
        let w = b.load(q, 0i64, 8);
        let out = b.alloc_heap(8);
        b.store(out, 0i64, 8, Expr::var(w));
        let prog = b.build();
        let mut san = native();
        let plan = CheckPlan::all_direct(&prog);
        let r = run(&prog, &[], &mut san, &plan, &ExecConfig::default());
        assert_eq!(r.termination, Termination::Finished);
        // checksum folds 0xdead then 0xdeae.
        assert_ne!(r.checksum, 0);
        assert_eq!(
            san.world()
                .space()
                .read_u64(san.world().objects().iter_live().last().unwrap().base)
                .unwrap(),
            0xdeae
        );
    }

    #[test]
    fn loops_forward_and_reverse() {
        for reverse in [false, true] {
            let mut b = ProgramBuilder::new("t");
            let p = b.alloc_heap(80);
            if reverse {
                b.for_loop_rev(0i64, 10i64, |b, i| {
                    b.store(p, Expr::var(i) * 8, 8, Expr::var(i));
                });
            } else {
                b.for_loop(0i64, 10i64, |b, i| {
                    b.store(p, Expr::var(i) * 8, 8, Expr::var(i));
                });
            }
            let prog = b.build();
            let mut san = native();
            let plan = CheckPlan::none(&prog);
            let r = run(&prog, &[], &mut san, &plan, &ExecConfig::default());
            assert_eq!(r.native_work, 10);
            let base = san.world().objects().iter_live().next().unwrap().base;
            for i in 0..10u64 {
                assert_eq!(san.world().space().read_u64(base + i * 8).unwrap(), i);
            }
        }
    }

    #[test]
    fn reverse_loop_at_i64_min_terminates() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.for_loop_rev(i64::MIN, i64::MIN + 2, |b, _| {
            b.store(p, 0i64, 8, 1i64);
        });
        let prog = b.build();
        let mut san = native();
        // A wrapped counter would run on to the step limit.
        let cfg = ExecConfig {
            max_steps: 1000,
            ..ExecConfig::default()
        };
        let r = run(&prog, &[], &mut san, &CheckPlan::none(&prog), &cfg);
        assert_eq!(r.termination, Termination::Finished);
        assert_eq!(r.native_work, 2);
    }

    #[test]
    fn empty_and_negative_ranges_skip() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.for_loop(5i64, 5i64, |b, i| b.store(p, Expr::var(i), 8, 0i64));
        b.for_loop(5i64, 2i64, |b, i| b.store(p, Expr::var(i), 8, 0i64));
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::none(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.native_work, 0);
    }

    #[test]
    fn inputs_parameterise_runs() {
        let mut b = ProgramBuilder::new("t");
        let n = b.input(0);
        let p = b.alloc_heap(Expr::input(0) * 8);
        b.for_loop(0i64, n, |b, i| {
            b.store(p, Expr::var(i) * 8, 8, Expr::var(i) * 2);
        });
        let prog = b.build();
        for n in [1i64, 7, 32] {
            let mut san = native();
            let r = run(
                &prog,
                &[n],
                &mut san,
                &CheckPlan::none(&prog),
                &ExecConfig::default(),
            );
            assert_eq!(r.native_work as i64, n);
        }
    }

    #[test]
    fn null_dereference_crashes() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        let q = b.ptr_add(p, 0i64);
        // Simulate p = NULL by pointer arithmetic down to zero.
        let null = b.ptr_add(q, Expr::Const(-(1i64 << 62)));
        b.load_discard(null, 0i64, 8);
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::none(&prog),
            &ExecConfig::default(),
        );
        assert!(matches!(r.termination, Termination::Crashed { .. }));
        assert!(r.detected());
    }

    #[test]
    fn step_limit_stops_runaway_loops() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.for_loop(0i64, 1_000_000i64, |b, _| {
            b.store(p, 0i64, 8, 1i64);
        });
        let prog = b.build();
        let mut san = native();
        let cfg = ExecConfig {
            max_steps: 1000,
            recovery: RecoveryPolicy::Continue,
        };
        let r = run(&prog, &[], &mut san, &CheckPlan::none(&prog), &cfg);
        assert_eq!(r.termination, Termination::StepLimit);
    }

    #[test]
    fn frames_push_and_pop() {
        let mut b = ProgramBuilder::new("t");
        b.frame(|b| {
            let s = b.alloc_stack(32);
            b.store(s, 0i64, 8, 42i64);
        });
        b.frame(|b| {
            let s = b.alloc_stack(32);
            b.store(s, 0i64, 8, 43i64);
        });
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::none(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.termination, Termination::Finished);
        assert_eq!(san.world().stack().bytes_in_use(), 0);
        assert_eq!(san.world().stack().depth(), 0);
    }

    #[test]
    fn memops_move_data() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_heap(64);
        let c = b.alloc_heap(64);
        b.memset(a, 0i64, 64i64, 0x5ai64);
        b.memcpy(c, 0i64, a, 0i64, 64i64);
        let v = b.load(c, 56i64, 8);
        let out = b.alloc_heap(8);
        b.store(out, 0i64, 8, Expr::var(v));
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.termination, Termination::Finished);
        let out_base = san.world().objects().iter_live().last().unwrap().base;
        assert_eq!(
            san.world().space().read_u64(out_base).unwrap(),
            0x5a5a_5a5a_5a5a_5a5a
        );
    }

    #[test]
    fn strcpy_copies_through_the_nul() {
        let mut b = ProgramBuilder::new("t");
        let src = b.alloc_heap(32);
        let dst = b.alloc_heap(32);
        // Build "abc\0" at src.
        b.store(src, 0i64, 1, 97i64);
        b.store(src, 1i64, 1, 98i64);
        b.store(src, 2i64, 1, 99i64);
        b.store(src, 3i64, 1, 0i64);
        b.memset(dst, 0i64, 32i64, 0x7fi64);
        b.strcpy(dst, 0i64, src, 0i64);
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.termination, Termination::Finished);
        let dst_base = san.world().objects().iter_live().last().unwrap().base;
        assert_eq!(
            san.world().space().read_uint(dst_base, 8).unwrap() & 0xff_ffff_ffff,
            0x7f00_636261, // "abc\0" then untouched 0x7f
        );
    }

    #[test]
    fn strcpy_overflow_detected_by_the_guardian() {
        // The classic bug: a long string into a short stack buffer.
        let mut b = ProgramBuilder::new("t");
        let src = b.alloc_heap(64);
        b.memset(src, 0i64, 48i64, 65i64); // 48 'A's, no NUL yet
        b.store(src, 48i64, 1, 0i64);
        b.frame(|b| {
            let buf = b.alloc_stack(16);
            b.strcpy(buf, 0i64, src, 0i64);
        });
        let prog = b.build();
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let r = run(
            &prog,
            &[],
            &mut gs,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.reports.len(), 1, "{:?}", r.reports);
        assert!(r.reports[0].kind.is_spatial());
    }

    #[test]
    fn checksum_is_sanitizer_independent() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(128);
        b.for_loop(0i64, 16i64, |b, i| {
            b.store(p, Expr::var(i) * 8, 8, Expr::var(i) * 31);
        });
        b.for_loop(0i64, 16i64, |b, i| {
            b.load_discard(p, Expr::var(i) * 8, 8);
        });
        let prog = b.build();

        let mut native = native();
        let r1 = run(
            &prog,
            &[],
            &mut native,
            &CheckPlan::none(&prog),
            &ExecConfig::default(),
        );
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let r2 = run(
            &prog,
            &[],
            &mut gs,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r1.checksum, r2.checksum);
    }

    #[test]
    fn halt_on_error_stops_at_first_report() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.for_loop(0i64, 10i64, |b, i| {
            b.store(p, Expr::var(i) * 8 + 8, 8, 0i64); // always OOB
        });
        let prog = b.build();
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let cfg = ExecConfig {
            recovery: RecoveryPolicy::Halt,
            ..ExecConfig::default()
        };
        let r = run(&prog, &[], &mut gs, &CheckPlan::all_direct(&prog), &cfg);
        assert_eq!(r.reports.len(), 1);
        assert_eq!(r.termination, Termination::Halted);
        // And without halting we get one report per iteration (offset 8..80
        // stays inside the 16-byte redzone for the first iteration only —
        // farther offsets are still poisoned, some land in the next block's
        // left zone, all invalid).
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let r = run(
            &prog,
            &[],
            &mut gs,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert!(r.reports.len() >= 2);
    }

    #[test]
    fn recover_mode_dedups_and_contains() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.store(p, 0i64, 8, 0x55i64);
        b.for_loop(0i64, 10i64, |b, _| {
            b.load_discard(p, 8i64, 8); // always OOB, same site
        });
        let v = b.load(p, 8i64, 8); // second OOB site
        let out = b.alloc_heap(8);
        b.store(out, 0i64, 8, Expr::var(v));
        let prog = b.build();
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let cfg = ExecConfig {
            recovery: RecoveryPolicy::recover(),
            ..ExecConfig::default()
        };
        let r = run(&prog, &[], &mut gs, &CheckPlan::all_direct(&prog), &cfg);
        assert_eq!(r.termination, Termination::Finished);
        assert_eq!(r.reports.len(), 2, "one report per (site, kind)");
        assert_eq!(gs.counters().errors_recovered, 2);
        assert_eq!(gs.counters().errors_suppressed, 9);
        // The contained load never touched memory: its destination holds the
        // safe zero, not redzone bytes.
        let out_base = gs.world().objects().iter_live().last().unwrap().base;
        assert_eq!(gs.world().space().read_u64(out_base).unwrap(), 0);
    }

    #[test]
    fn reports_carry_site_ids() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.load_discard(p, 16i64, 8);
        let prog = b.build();
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let r = run(
            &prog,
            &[],
            &mut gs,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.reports.len(), 1);
        assert_eq!(r.reports[0].site, Some(0));
    }
}
