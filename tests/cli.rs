//! End-to-end checks of the `lambdav` binary's `run` and `watch`: with and
//! without `--timeout` they evaluate on the same id machine, so their
//! output is byte-identical, and a deadline stops a divergent program with
//! a non-zero exit and a `deadline exceeded` message.

use std::process::{Command, Output};

/// Closed programs covering sets, pairs, a recursive stream, and a
/// λ-valued result (whose printed binder names depend on the machine).
const PROGRAMS: &[&str] = &[
    "for x in {1, 2} . {x + 10}",
    "(1, {2}) \\/ (1, {3})",
    "let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()",
    "(\\x. \\y. x) 1",
    "\\x. \\y. x",
];

fn lambdav(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lambdav"))
        .args(args)
        .output()
        .expect("spawn lambdav")
}

fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = lambdav(args);
    assert!(
        out.status.success(),
        "lambdav {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_timeout_is_invisible(cmd: &str) {
    for program in PROGRAMS {
        let plain = stdout_of(&[cmd, program, "--fuel", "12"]);
        let timed = stdout_of(&[cmd, program, "--fuel", "12", "--timeout", "60000"]);
        assert!(!plain.is_empty(), "{cmd} printed nothing for {program}");
        assert_eq!(
            String::from_utf8_lossy(&plain),
            String::from_utf8_lossy(&timed),
            "{cmd} output changes under --timeout for {program}"
        );
    }
}

#[test]
fn run_output_is_identical_with_and_without_timeout() {
    assert_timeout_is_invisible("run");
}

#[test]
fn watch_output_is_identical_with_and_without_timeout() {
    assert_timeout_is_invisible("watch");
}

#[test]
fn divergent_program_hits_the_deadline() {
    // Two recursive calls per level: 2^fuel β-steps without a memo.
    let out = lambdav(&[
        "run",
        "let rec f x = f x \\/ f x in f 0",
        "--fuel",
        "1000000",
        "--timeout",
        "1",
    ]);
    assert!(
        !out.status.success(),
        "a tripped deadline must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline exceeded"), "stderr: {stderr}");
}
