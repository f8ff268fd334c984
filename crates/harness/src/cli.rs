//! The shared `repro` flag parser: one grammar for every subcommand.
//!
//! Historically each experiment grew its own flag subset; this module gives
//! the uniform surface — [`StudyOpts`] knobs (`--scale`, `--div`,
//! `--rounds`, `--seed`, `--threads`, `--workload`, `--tool`) plus
//! the cross-cutting flags (`--format text|json`, `--out-dir DIR`,
//! `--telemetry PATH`, `--shard i/n`, `--resume DIR`) — on every
//! subcommand. Flag validation happens here so every subcommand reports the
//! same actionable errors.
//!
//! `--out` is kept as an alias of `--out-dir` for existing scripts and CI.

use std::path::PathBuf;
use std::sync::Arc;

use giantsan_telemetry::fnv1a;

use crate::batch::{BatchRunner, TraceSink};
use crate::campaign::ShardSpec;
use crate::study::StudyOpts;
use crate::tool::Tool;

/// The flags shared by every `repro` subcommand.
#[derive(Debug)]
pub struct CliOpts {
    /// The study parameters.
    pub study: StudyOpts,
    /// `--format json`: print the machine-readable document instead of the
    /// text report.
    pub json: bool,
    /// `--out-dir DIR` (alias `--out DIR`): where CSVs, digests, and — for
    /// sharded runs — the campaign checkpoint land.
    pub out_dir: Option<PathBuf>,
    /// `--telemetry PATH`: write the whole invocation's batch-scheduling
    /// spans as a Chrome trace to PATH.
    pub telemetry: Option<PathBuf>,
    /// `--shard i/n`: run only the i-th of n shards into the campaign at
    /// `--out-dir`.
    pub shard: Option<ShardSpec>,
    /// `--resume DIR`: finish the campaign checkpointed at DIR.
    pub resume: Option<PathBuf>,
    /// The scheduling sink created when `--telemetry` was given.
    pub sink: Option<Arc<TraceSink>>,
}

/// Parses a campaign seed: hex with an `0x` prefix, plain decimal, or —
/// for any other spelling — the FNV-1a hash of the raw string, so seeds
/// like `0xg1an75an` are accepted and reproducible.
pub fn parse_seed(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    fnv1a(s.as_bytes())
}

/// Parses a tool by its paper column name, listing the alternatives on
/// failure.
pub fn parse_tool(s: &str) -> Result<Tool, String> {
    Tool::parse(s).ok_or_else(|| {
        let names: Vec<&str> = Tool::ALL.iter().map(|t| t.name()).collect();
        format!("unknown tool `{s}` (one of: {})", names.join(", "))
    })
}

/// The one-line flag summary shared by usage strings.
pub const FLAG_USAGE: &str = "[--scale N] [--div N] [--rounds N] [--threads N] [--seed S] \
[--out-dir DIR] [--workload W] [--tool T] [--telemetry PATH] [--format text|json] \
[--shard i/n] [--resume DIR]";

/// Parses the flags following the subcommand, cross-validating the
/// combinations that cannot work (`--shard` without `--out-dir`, `--shard`
/// with `--resume`, `--resume` on a directory that does not exist).
pub fn parse_opts(args: &[String]) -> Result<CliOpts, String> {
    let mut opts = CliOpts {
        study: StudyOpts::default(),
        json: false,
        out_dir: None,
        telemetry: None,
        shard: None,
        resume: None,
        sink: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                opts.study.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--div" => {
                opts.study.div = it
                    .next()
                    .ok_or("--div needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --div: {e}"))?
            }
            "--rounds" => {
                opts.study.rounds = it
                    .next()
                    .ok_or("--rounds needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --rounds: {e}"))?
            }
            "--threads" => {
                opts.study.threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--seed" => {
                opts.study.seed = parse_seed(it.next().ok_or("--seed needs a value")?);
            }
            "--out-dir" | "--out" => {
                opts.out_dir = Some(it.next().ok_or("--out-dir needs a directory")?.into());
            }
            "--workload" => {
                opts.study.workload = it.next().ok_or("--workload needs an id")?.clone();
            }
            "--tool" => {
                opts.study.tool = parse_tool(it.next().ok_or("--tool needs a name")?)?;
            }
            "--telemetry" => {
                opts.telemetry = Some(it.next().ok_or("--telemetry needs a path")?.into());
                opts.sink = Some(TraceSink::new());
            }
            "--format" => match it.next().ok_or("--format needs text|json")?.as_str() {
                "json" => opts.json = true,
                "text" => opts.json = false,
                other => return Err(format!("bad --format `{other}` (text or json)")),
            },
            "--shard" => {
                opts.shard = Some(ShardSpec::parse(it.next().ok_or("--shard needs i/n")?)?);
            }
            "--resume" => {
                opts.resume = Some(it.next().ok_or("--resume needs a directory")?.into());
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.shard.is_some() && opts.out_dir.is_none() {
        return Err(
            "--shard checkpoints into a campaign directory; pass --out-dir DIR (every shard \
             of one campaign must use the same directory)"
                .to_string(),
        );
    }
    if opts.shard.is_some() && opts.resume.is_some() {
        return Err(
            "--shard and --resume are mutually exclusive: --shard runs one slice, --resume \
             finishes whatever slices are missing. Run shards first, then --resume (or `repro \
             merge`) on the same directory."
                .to_string(),
        );
    }
    if let Some(dir) = &opts.resume {
        if !dir.is_dir() {
            return Err(format!(
                "--resume {}: directory does not exist. Point --resume at the --out-dir of a \
                 previous sharded run (it holds campaign.json and manifest.jsonl).",
                dir.display()
            ));
        }
    }
    Ok(opts)
}

impl CliOpts {
    /// Builds the batch runner for this invocation, attaching the
    /// `--telemetry` sink when one was requested.
    pub fn runner(&self) -> BatchRunner {
        let runner = BatchRunner::new(self.study.threads);
        match &self.sink {
            Some(sink) => runner.with_sink(Arc::clone(sink)),
            None => runner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOpts, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_opts(&owned)
    }

    #[test]
    fn seed_spellings() {
        assert_eq!(parse_seed("0xff"), 0xff);
        assert_eq!(parse_seed("42"), 42);
        assert_eq!(parse_seed("0xg1an75an"), fnv1a(b"0xg1an75an"));
        assert_eq!(parse_seed("badge"), fnv1a(b"badge"));
    }

    #[test]
    fn out_keeps_its_alias() {
        let a = parse(&["--out", "/tmp/x"]).unwrap();
        let b = parse(&["--out-dir", "/tmp/x"]).unwrap();
        assert_eq!(a.out_dir, b.out_dir);
    }

    #[test]
    fn shard_requires_out_dir() {
        let e = parse(&["--shard", "0/2"]).unwrap_err();
        assert!(e.contains("--out-dir"), "{e}");
        assert!(parse(&["--shard", "0/2", "--out-dir", "/tmp/x"]).is_ok());
    }

    #[test]
    fn shard_and_resume_conflict() {
        let e = parse(&[
            "--shard",
            "0/2",
            "--out-dir",
            "/tmp/x",
            "--resume",
            "/tmp/x",
        ])
        .unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn resume_requires_an_existing_directory() {
        let e = parse(&["--resume", "/nonexistent/campaign"]).unwrap_err();
        assert!(e.contains("does not exist"), "{e}");
        assert!(e.contains("campaign.json"), "{e}");
    }

    #[test]
    fn wall_is_not_a_flag() {
        // repro reports no wall-clock time; wallbench measures it.
        let e = parse(&["--wall"]).unwrap_err();
        assert_eq!(e, "unknown option --wall");
    }

    #[test]
    fn study_knobs_land_in_study_opts() {
        let o = parse(&[
            "--scale",
            "3",
            "--div",
            "2",
            "--rounds",
            "8",
            "--threads",
            "5",
            "--seed",
            "0x9",
            "--workload",
            "519.lbm_r",
            "--tool",
            "asan--",
            "--format",
            "json",
        ])
        .unwrap();
        assert_eq!(o.study.scale, 3);
        assert_eq!(o.study.div, 2);
        assert_eq!(o.study.rounds, 8);
        assert_eq!(o.study.threads, 5);
        assert_eq!(o.study.seed, 9);
        assert_eq!(o.study.workload, "519.lbm_r");
        assert_eq!(o.study.tool, Tool::AsanMinusMinus);
        assert!(o.json);
    }
}
