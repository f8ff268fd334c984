//! `repro` — regenerate the GiantSan paper's tables and figures.
//!
//! ```text
//! repro table2 [--scale N]          Table 2: SPEC overhead (+ ablation)
//! repro fig10  [--scale N]          Figure 10: check breakdown
//! repro table3 [--div N]            Table 3: Juliet detection
//! repro table4                      Table 4: CVE detection
//! repro table5 [--div N]            Table 5: Magma redzone study
//! repro fig11  [--rounds N]         Figure 11: traversal patterns
//! repro ablation                    §5.4 mitigations + quarantine + pass subsets
//! repro plan   [--scale N] [--format json]  planner provenance + per-pass statistics
//! repro memory [--scale N]          memory-overhead study
//! repro density [--scale N]         achieved protection-density study
//! repro faults [--seed S] [--format json]   fault-injection campaign (detected/recovered/missed/crashed)
//! repro trace  [--workload W] [--tool T] end-to-end telemetry trace -> JSONL + Chrome + Prometheus
//! repro echo   [--scale N] [--rounds N]  many tiny sessions (the service load-test study)
//! repro all    [--div N] [--scale N] everything
//! repro merge DIR                   merge a sharded campaign's blobs into the full report
//! repro serve  [--addr HOST:PORT] [--data-dir DIR] ...   the sanitizer-as-a-service front-end
//! ```
//!
//! Every subcommand is a [`Study`] resolved from [`StudyRegistry::builtin`]
//! and accepts the same flag grammar (see `giantsan_harness::cli`). `--div 1`
//! runs the full detection corpora (5,948 Juliet cases, 58,969 Magma cases);
//! the default subsamples for a quick pass.
//!
//! # Campaigns: sharding, resuming, merging
//!
//! A study run with `--out-dir DIR` plus `--shard i/n` becomes a *campaign*:
//! the cell matrix is deterministically partitioned into `n` contiguous
//! shards, and each invocation runs one shard to a digest-committed blob in
//! DIR (see `giantsan_harness::campaign` for the artifact format). Shards are
//! independent processes:
//!
//! ```text
//! repro faults --out-dir D --shard 0/3 &
//! repro faults --out-dir D --shard 1/3 &
//! repro faults --out-dir D --shard 2/3 &
//! wait
//! repro merge D
//! ```
//!
//! `--resume DIR` verifies the campaign manifest, skips completed shards,
//! runs the missing ones, and renders the full report. `repro merge DIR`
//! only recombines (it never runs cells) and fails with the missing shard
//! list if the campaign is incomplete. Both verify the stored spec hash:
//! resuming against changed flags, a changed binary, or a changed cell
//! matrix fails loudly instead of mixing incompatible results. The merged
//! report and artifacts are byte-identical to a monolithic run's.
//!
//! Results are deterministic: every table, CSV, and digest is byte-identical
//! for every thread count and every shard partition. Wall-clock time is
//! measured by the separate `wallbench/` benchmark, never here.
//!
//! `repro faults` sweeps every tool across a fuzz corpus with one
//! deterministic fault armed per cell (shadow bit flips, fold downgrades,
//! allocator OOM, quarantine exhaustion, step budgets) under recover mode.
//! `--seed S` takes hex (`0x...`) or decimal; any other string (the CI badge
//! seed `0xg1an75an` included) is hashed with FNV-1a, so every spelling is a
//! valid, reproducible campaign seed. With `--out-dir DIR` it writes
//! `faults.csv` and `faults_digest.txt` — CI diffs the latter against
//! `tests/golden/faults_digest.txt`.
//!
//! `repro trace` runs one (workload × tool) pair under the telemetry layer
//! and writes the three exports — `trace_events.jsonl` (deterministic,
//! thread-invariant digest in `trace_digest.txt`), `trace_chrome.json`
//! (Perfetto-loadable), `trace_metrics.prom` — plus a hot-spot table ranking
//! sites by slow-path share. Independently, `--telemetry PATH` on *any*
//! subcommand writes the batch engine's scheduling spans for that whole
//! invocation as a Chrome trace to PATH.

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use giantsan_harness::campaign::{self, Campaign, CampaignError, ShardSpec};
use giantsan_harness::cli::{self, CliOpts};
use giantsan_harness::study::records_json;
use giantsan_harness::{serve, BatchTrace, Study, StudyOutput, StudyRegistry, TraceSink};
use giantsan_telemetry::export::ChromeTrace;

/// Exit codes, pinned by `tests/exit_codes.rs`:
///
/// * `0` — the invocation succeeded.
/// * `1` — runtime failure: cells failed or were quarantined, a campaign is
///   incomplete, I/O failed mid-run.
/// * `2` — the *invocation* is wrong: unknown command/flags, malformed
///   values, or spec drift (resuming/merging a campaign whose flags, binary,
///   or cell matrix no longer match).
#[derive(Debug)]
enum CliError {
    /// Exit 2: bad usage or spec drift — rerunning unchanged cannot help.
    Usage(String),
    /// Exit 1: the run itself failed — a retry or resume may succeed.
    Runtime(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Runtime(_) => ExitCode::from(1),
            CliError::Usage(_) => ExitCode::from(2),
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        }
    }
}

/// Classifies a campaign error: spec drift is a usage error (the flags or
/// binary no longer match the stored campaign), everything else is runtime.
fn classify(e: CampaignError) -> CliError {
    match e {
        CampaignError::SpecMismatch(_) => CliError::Usage(e.to_string()),
        _ => CliError::Runtime(e.to_string()),
    }
}

/// The studies `repro all` runs, in output order.
const ALL: [&str; 10] = [
    "table2", "fig10", "table3", "table4", "table5", "fig11", "ablation", "plan", "memory",
    "density",
];

fn usage() -> String {
    format!(
        "usage: repro <table2|fig10|table3|table4|table5|fig11|ablation|plan|memory|density\
         |echo|faults|trace|all> {}\n       repro merge DIR [--format text|json] \
         [--out-dir DIR]\n       repro serve {}",
        cli::FLAG_USAGE,
        serve::FLAG_USAGE
    )
}

/// Writes `content` to `<dir>/<name>`, reporting the path on stdout like the
/// historical per-subcommand writers did.
fn write_file(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, content)) {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}

/// Prints a rendered study and writes its artifacts.
///
/// * `out.report` / `out.json` go to stdout (exactly one of them).
/// * `out.artifacts` (the CSV exports) are written only when a directory was
///   given.
/// * `out.main_artifacts` (trace exports) land in the directory or the
///   current directory.
fn emit(
    study: &dyn Study,
    opts: &CliOpts,
    out_dir: Option<&Path>,
    records: &[giantsan_harness::Record],
    out: &StudyOutput,
    schedule: &BatchTrace,
) {
    if opts.json {
        match &out.json {
            Some(j) => print!("{j}"),
            None => print!("{}", records_json(study.name(), records)),
        }
    } else {
        print!("{}", out.report);
    }
    if let Some(dir) = out_dir {
        for (name, content) in &out.artifacts {
            write_file(dir, name, content);
        }
    }
    let main_dir = out_dir.map(Path::to_path_buf).unwrap_or_else(|| ".".into());
    for (name, content) in &out.main_artifacts {
        write_file(&main_dir, name, content);
    }
    for (name, content) in study.presentation(&opts.study, records, schedule) {
        write_file(&main_dir, &name, &content);
    }
}

/// Runs one study monolithically (no campaign directory involvement beyond
/// artifact writes).
fn run_plain(study: &dyn Study, opts: &CliOpts, schedule_of: &TakeOnce) -> Result<(), CliError> {
    let campaign = Campaign::new(study, opts.study.clone()).map_err(classify)?;
    let records = campaign.run_all(&opts.runner());
    let out = study
        .render(&opts.study, &records)
        .map_err(CliError::Runtime)?;
    emit(
        study,
        opts,
        opts.out_dir.as_deref(),
        &records,
        &out,
        schedule_of.get(),
    );
    Ok(())
}

/// Runs one shard of a campaign into `--out-dir` and stops — rendering
/// happens at `--resume` / `repro merge` time.
fn run_shard(study: &dyn Study, opts: &CliOpts, shard: ShardSpec) -> Result<(), CliError> {
    let dir = opts
        .out_dir
        .as_deref()
        .expect("validated by cli::parse_opts");
    let campaign = Campaign::new(study, opts.study.clone()).map_err(classify)?;
    let range = campaign::shard_range(campaign.labels().len(), shard.index, shard.count);
    let ran = campaign
        .run_shard(dir, shard, &opts.runner())
        .map_err(classify)?;
    if ran {
        println!(
            "campaign `{}` at {}: committed shard {}/{} (cells {}..{})",
            study.name(),
            dir.display(),
            shard.index,
            shard.count,
            range.start,
            range.end
        );
    } else {
        println!(
            "campaign `{}` at {}: shard {}/{} already committed; nothing to do",
            study.name(),
            dir.display(),
            shard.index,
            shard.count
        );
    }
    println!(
        "(merge with `repro merge {}` once all {} shards are committed)",
        dir.display(),
        shard.count
    );
    Ok(())
}

/// Finishes the campaign at `--resume DIR` and renders the full report.
fn run_resume(
    study: &dyn Study,
    opts: &CliOpts,
    dir: &Path,
    schedule_of: &TakeOnce,
) -> Result<(), CliError> {
    let campaign = Campaign::new(study, opts.study.clone()).map_err(classify)?;
    let (records, stats) = campaign.resume(dir, &opts.runner()).map_err(classify)?;
    eprintln!(
        "(resume: reused {} shard(s) {:?}, ran {} {:?})",
        stats.reused.len(),
        stats.reused,
        stats.ran.len(),
        stats.ran
    );
    let out = study
        .render(&opts.study, &records)
        .map_err(CliError::Runtime)?;
    // Artifacts default into the campaign directory so a resumed run leaves
    // its digests next to its shards.
    let out_dir = opts.out_dir.as_deref().unwrap_or(dir);
    emit(
        study,
        opts,
        Some(out_dir),
        &records,
        &out,
        schedule_of.get(),
    );
    Ok(())
}

/// `repro merge DIR`: recombine a completed campaign without running cells.
fn run_merge(registry: &StudyRegistry, args: &[String]) -> Result<(), CliError> {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(CliError::Usage(
            "merge needs a campaign directory: repro merge DIR".to_string(),
        ));
    };
    let dir = PathBuf::from(dir);
    let opts = cli::parse_opts(&args[1..]).map_err(CliError::Usage)?;
    let campaign = campaign::open_for_merge(registry, &dir).map_err(classify)?;
    let records = campaign.load_records(&dir).map_err(classify)?;
    let study = campaign.study();
    // Merge renders under the stored campaign parameters, not the CLI's.
    let mut merged_opts = opts;
    merged_opts.study = campaign.opts().clone();
    let out = study
        .render(&merged_opts.study, &records)
        .map_err(CliError::Runtime)?;
    let out_dir = merged_opts.out_dir.clone().unwrap_or_else(|| dir.clone());
    let schedule = BatchTrace::default();
    emit(
        study,
        &merged_opts,
        Some(&out_dir),
        &records,
        &out,
        &schedule,
    );
    Ok(())
}

/// Lazily takes the invocation-wide scheduling trace exactly once, so the
/// study presentation pass and the `--telemetry` writer see the same spans.
struct TakeOnce {
    sink: std::sync::Arc<TraceSink>,
    taken: std::cell::OnceCell<BatchTrace>,
}

impl TakeOnce {
    fn get(&self) -> &BatchTrace {
        self.taken.get_or_init(|| self.sink.take())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let registry = StudyRegistry::builtin();

    if cmd == "serve" {
        let config = match serve::ServeConfig::parse(&args[1..]) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("usage: repro serve {}", serve::FLAG_USAGE);
                return ExitCode::from(2);
            }
        };
        return match serve::run(config) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }

    if cmd == "merge" {
        return match run_merge(&registry, &args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {}", e.message());
                e.exit_code()
            }
        };
    }

    let mut opts = match cli::parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // One scheduling sink for the whole invocation: the trace study's Chrome
    // export and the `--telemetry` writer both read it.
    if opts.sink.is_none() {
        opts.sink = Some(TraceSink::new());
    }
    let schedule_of = TakeOnce {
        sink: std::sync::Arc::clone(opts.sink.as_ref().expect("just set")),
        taken: std::cell::OnceCell::new(),
    };

    let result = if cmd == "all" {
        if opts.shard.is_some() || opts.resume.is_some() {
            Err(CliError::Usage(
                "--shard/--resume apply to a single study, not `all`".to_string(),
            ))
        } else {
            ALL.iter().enumerate().try_for_each(|(i, name)| {
                if i > 0 {
                    println!();
                }
                let study = registry.get(name).expect("ALL lists registered studies");
                run_plain(study, &opts, &schedule_of)
            })
        }
    } else {
        match registry.get(cmd) {
            None => {
                eprintln!("unknown experiment: {cmd}");
                return ExitCode::from(2);
            }
            Some(study) => match (opts.shard, opts.resume.clone()) {
                (Some(shard), _) => run_shard(study, &opts, shard),
                (None, Some(dir)) => run_resume(study, &opts, &dir, &schedule_of),
                (None, None) => run_plain(study, &opts, &schedule_of),
            },
        }
    };
    if let Err(e) = result {
        eprintln!("error: {}", e.message());
        return e.exit_code();
    }

    // `--telemetry PATH`: dump the whole invocation's batch-scheduling spans
    // as a Chrome trace.
    if let Some(path) = &opts.telemetry {
        let mut chrome = ChromeTrace::new();
        let kernel = giantsan_shadow::kernel::active().name();
        schedule_of
            .get()
            .render_chrome(&mut chrome, 1, &format!("repro {cmd} [kernel={kernel}]"));
        match std::fs::write(path, chrome.finish()) {
            Ok(()) => println!("(wrote {})", path.display()),
            Err(e) => {
                eprintln!("error: failed to write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}
