//! Command line of the end-to-end benchmark.
//!
//! ```text
//! giantsan-wallbench [all | --workload W] [--seed S] [--seconds N]
//!                    [--trace [0|1]] [--size full|smoke] [--out-dir DIR]
//! ```
//!
//! With `--workload W` it runs one workload and prints one line per metric
//! (`workload metric value unit median q1 q3 n`) and, last, the JSON result
//! line. `all` (the default) runs every workload in a child process of its
//! own, so each peak resident set belongs to one workload, and prints the
//! combined table and a JSON blob. The exit code is 1 when a correctness
//! check failed and 2 on a usage error.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use giantsan_harness::json::Json;
use giantsan_wallbench::{host, Opts, Outcome, Size, Workload};

const USAGE: &str = "usage: giantsan-wallbench [all | --workload spec|region|churn|detect] \
     [--seed S] [--seconds N] [--trace [0|1]] [--size full|smoke] [--out-dir DIR]";

struct Args {
    workload: Option<Workload>,
    opts: Opts,
    /// The flags to hand to each child of `all`.
    forward: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        opts: Opts::default(),
        forward: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "all" => {}
            "--workload" => {
                let v = value(i)?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
                i += 1;
            }
            "--trace" => {
                a.opts.trace = true;
                if let Some(v) = args.get(i + 1).filter(|v| *v == "0" || *v == "1") {
                    a.opts.trace = v == "1";
                    i += 1;
                }
            }
            "--seed" | "--seconds" | "--size" | "--out-dir" => {
                let v = value(i)?;
                match flag {
                    "--seed" => a.opts.seed = giantsan_harness::cli::parse_seed(&v),
                    "--seconds" => {
                        let s: f64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                        if !(s > 0.0 && s <= 3600.0) {
                            return Err(format!("seconds {s} out of range (0, 3600]"));
                        }
                        a.opts.seconds = Duration::from_secs_f64(s);
                    }
                    "--size" => {
                        a.opts.size = match v.as_str() {
                            "full" => Size::Full,
                            "smoke" => Size::Smoke,
                            other => return Err(format!("unknown size `{other}`")),
                        }
                    }
                    _ => a.opts.out_dir = PathBuf::from(&v),
                }
                a.forward.extend([flag.to_string(), v]);
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if a.opts.trace {
        a.forward.extend(["--trace".to_string(), "1".to_string()]);
    }
    Ok(a)
}

fn print_metrics(workload: Workload, out: &Outcome) {
    let rows = out.metrics.iter().chain(&out.extra);
    for m in rows {
        println!(
            "{} {} {} {} {} {} {} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit,
            m.value,
            m.q1,
            m.q3,
            m.n
        );
    }
    let error_pct = 100.0 * out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{} error_pct {error_pct} % {error_pct} {error_pct} {error_pct} {}",
        workload.name(),
        out.attempted
    );
}

fn run_one(workload: Workload, opts: &Opts) -> ExitCode {
    println!("# host {}", host::fingerprint().render_compact());
    println!(
        "# workload {} seed {:#x} seconds {} size {:?} trace {}",
        workload.name(),
        opts.seed,
        opts.seconds.as_secs_f64(),
        opts.size,
        opts.trace
    );
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::from(1);
    }
    let out = giantsan_wallbench::run(workload, opts);
    println!("workload metric value unit median q1 q3 n");
    print_metrics(workload, &out);
    for f in &out.failures {
        println!("# failure: {f}");
    }
    if opts.trace {
        let path = opts
            .out_dir
            .join(format!("spans-{}.jsonl", workload.name()));
        let text: String = out.spans.iter().map(|s| s.to_json() + "\n").collect();
        match std::fs::write(&path, text) {
            Ok(()) => println!("# spans {} ({} spans)", path.display(), out.spans.len()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload as a child process and combines their reports.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    let mut table = Vec::new();
    let mut results = Json::obj();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(&args.forward)
            .output();
        let stdout = match child {
            Ok(o) => {
                ok &= o.status.success();
                String::from_utf8_lossy(&o.stdout).into_owned()
            }
            Err(e) => {
                eprintln!("{}: cannot run: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let mut metrics = Json::obj();
        for line in stdout.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() == 8 && f[0] == w.name() {
                table.push(line.to_string());
                let num = |s: &str| Json::F64(s.parse().unwrap_or(f64::NAN));
                metrics = metrics.field(
                    f[1],
                    Json::obj()
                        .field("value", num(f[2]))
                        .field("unit", f[3])
                        .field("median", num(f[4]))
                        .field("q1", num(f[5]))
                        .field("q3", num(f[6]))
                        .field("n", num(f[7])),
                );
            } else if line.starts_with("# failure") {
                table.push(format!("# {}: {}", w.name(), &line[2..]));
            }
        }
        let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let field = |k: &str| {
            last.as_ref()
                .and_then(|j| j.get(k))
                .cloned()
                .unwrap_or(Json::Null)
        };
        if field("correct") != Json::Bool(true) {
            ok = false;
        }
        results = results.field(
            w.name(),
            Json::obj()
                .field("correct", field("correct"))
                .field("attempted", field("attempted"))
                .field("failed", field("failed"))
                .field("metrics", metrics),
        );
    }
    println!("# host {}", host::fingerprint().render_compact());
    println!("workload metric value unit median q1 q3 n");
    for line in &table {
        println!("{line}");
    }
    let blob = Json::obj()
        .field("host", host::fingerprint())
        .field("seed", format!("{:#x}", args.opts.seed))
        .field("seconds", args.opts.seconds.as_secs_f64())
        .field("trace", args.opts.trace)
        .field("correct", ok)
        .field("workloads", results);
    println!("{}", blob.render_compact());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args.opts),
        None => run_all(&args),
    }
}
