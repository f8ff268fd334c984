//! The host fingerprint recorded next to every result, and the process's
//! peak resident set.

use giantsan_harness::json::Json;
use giantsan_runtime::RuntimeConfig;

/// What a timing depends on besides the code: CPU, cores, the shadow
/// kernel backend, the default heap backend, the source revision and the
/// compiler.
pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj()
        .field("cpu", cpu)
        .field("nproc", nproc)
        .field("kernel", giantsan_shadow::kernel::active().name())
        .field(
            "heap_backend",
            format!("{:?}", RuntimeConfig::default().heap_backend),
        )
        .field("git_rev", command_line("git", &["rev-parse", "HEAD"]))
        .field("rustc", command_line("rustc", &["-V"]))
}

/// First line of a command's standard output, or `unknown` when it cannot
/// run (a source tree without `.git`, for instance). Git looks for a
/// repository in the working directory only, not in the directories above
/// it.
fn command_line(program: &str, args: &[&str]) -> String {
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
