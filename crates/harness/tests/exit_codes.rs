//! Pins the `repro` exit-code contract that scripts and CI depend on:
//!
//! * `0` — the run succeeded.
//! * `1` — a runtime failure: cells failed, a campaign is incomplete, I/O
//!   broke. Retrying (or finishing the campaign) can help.
//! * `2` — a usage error or campaign spec drift: the invocation itself is
//!   wrong, and rerunning it unchanged cannot help.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn code(out: &Output) -> i32 {
    out.status
        .code()
        .expect("repro must exit, not die on a signal")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("giantsan-exit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn success_exits_zero() {
    let out = repro(&["echo", "--scale", "2", "--rounds", "1"]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("campaign digest"));
}

#[test]
fn usage_errors_exit_two() {
    // No arguments at all.
    assert_eq!(code(&repro(&[])), 2);
    // An unknown study.
    assert_eq!(code(&repro(&["not-a-study"])), 2);
    // A known study with a malformed flag.
    assert_eq!(code(&repro(&["echo", "--scale"])), 2);
    // `--wall` is not a flag: wallbench measures wall-clock time.
    assert_eq!(code(&repro(&["table2", "--wall"])), 2);
    // --shard without --out-dir is an invalid combination.
    assert_eq!(code(&repro(&["echo", "--shard", "0/2"])), 2);
    // merge without a directory operand.
    assert_eq!(code(&repro(&["merge"])), 2);
    // serve with an unknown flag.
    assert_eq!(code(&repro(&["serve", "--bogus"])), 2);
}

#[test]
fn incomplete_campaign_exits_one_and_spec_drift_exits_two() {
    let dir = tmpdir("campaign");
    let dir_s = dir.to_str().unwrap();

    // Shard 0 of 2 commits cleanly.
    let out = repro(&[
        "echo",
        "--scale",
        "4",
        "--rounds",
        "1",
        "--seed",
        "0xe0",
        "--out-dir",
        dir_s,
        "--shard",
        "0/2",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));

    // Merging the half-finished campaign is a runtime failure (finish it),
    // not a usage error.
    let out = repro(&["merge", dir_s]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("incomplete"));

    // Resuming under different parameters is spec drift: exit 2, campaign
    // left untouched.
    let out = repro(&[
        "echo", "--scale", "4", "--rounds", "1", "--seed", "0xff", "--resume", dir_s,
    ]);
    assert_eq!(code(&out), 2, "{}", String::from_utf8_lossy(&out.stderr));

    // Resuming with the original parameters completes it: exit 0.
    let out = repro(&[
        "echo", "--scale", "4", "--rounds", "1", "--seed", "0xe0", "--resume", dir_s,
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));

    // And now merge succeeds too.
    assert_eq!(code(&repro(&["merge", dir_s])), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
