//! Smoke tests of the `multinoc_run` command-line host: object files in,
//! printf lines, scanf answers and memory dumps out, and a non-zero exit
//! for anything it cannot run.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Assembles `source` and writes it as object text to a temp file.
fn object(name: &str, source: &str) -> String {
    let program = r8::asm::assemble(source).expect("assembles");
    write_temp(name, &r8::objfile::to_text(program.words()))
}

/// Writes `contents` to a temp file and returns its path.
fn write_temp(name: &str, contents: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("multinoc-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path.to_str().expect("utf-8 temp path").to_string()
}

/// Runs `multinoc_run` with `args`, feeding `stdin` and then closing it.
fn run(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_multinoc_run"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn multinoc_run");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn printf_then_halt_prints_and_exits_zero() {
    let p1 = object(
        "p1.obj",
        "XOR R0, R0, R0\nLIW R1, 1234\nLIW R2, 0xFFFF\nST R1, R2, R0\nHALT",
    );
    let p2 = object(
        "p2.obj",
        "XOR R0, R0, R0\nLIW R1, 77\nLIW R2, 0xFFFF\nST R1, R2, R0\nHALT",
    );
    let output = run(&[&p1, &p2], "");
    assert!(output.status.success(), "{output:?}");
    let out = stdout(&output);
    assert!(out.lines().any(|l| l == "P1: 1234"), "{out}");
    assert!(out.lines().any(|l| l == "P2: 77"), "{out}");
    assert!(stderr(&output).contains("all processors halted"));
}

#[test]
fn scanf_is_answered_from_stdin() {
    // scanf, double, printf.
    let p1 = object(
        "scanf.obj",
        "XOR R0, R0, R0\nLIW R2, 0xFFFF\nLD R1, R2, R0\nSL0 R1, R1\nST R1, R2, R0\nHALT",
    );
    let output = run(&[&p1], "21\n");
    assert!(output.status.success(), "{output:?}");
    assert_eq!(stdout(&output).trim(), "P1: 42");
    assert!(stderr(&output).contains("scanf>"));
}

#[test]
fn read_dumps_memory_after_the_run() {
    let p1 = object(
        "store.obj",
        "XOR R0, R0, R0\nLIW R1, 0xBEEF\nLIW R2, 0x40\nST R1, R2, R0\nHALT",
    );
    let output = run(&[&p1, "--read", "1", "0x40", "2"], "");
    assert!(output.status.success(), "{output:?}");
    assert_eq!(stdout(&output).trim(), "node 1 [0x0040..]: BEEF 0000");
}

#[test]
fn a_core_that_never_halts_fails() {
    // Waiting on P2, which is never activated: blocked for good.
    let waits = object(
        "wait.obj",
        "XOR R0, R0, R0\nLIW R8, 0xFFFE\nLIW R9, 2\nST R9, R0, R8\nHALT",
    );
    let output = run(&[&waits], "");
    assert!(!output.status.success(), "{output:?}");
    assert!(stderr(&output).contains("blocked"), "{}", stderr(&output));
    // An endless loop runs into the budget.
    let spins = object("spin.obj", "l: JMPD l");
    let output = run(&[&spins, "--budget", "5000"], "");
    assert!(!output.status.success(), "{output:?}");
    assert!(
        stderr(&output).contains("budget of 5000 cycles exhausted"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn bad_arguments_exit_non_zero() {
    let p1 = object("ok.obj", "HALT");
    let garbage = write_temp("bad.obj", "@0000\nnot-hex\n");
    let missing = format!("{garbage}.missing");
    let cases: [&[&str]; 7] = [
        &[],
        &[&p1, &p1, &p1],
        &[&p1, "--budget"],
        &[&p1, "--budget", "lots"],
        &[&p1, "--read", "1", "0x40"],
        &[&missing],
        &[&garbage],
    ];
    for args in cases {
        let output = run(args, "");
        assert!(!output.status.success(), "{args:?} must fail: {output:?}");
        assert!(
            stderr(&output).starts_with("multinoc-run: "),
            "{args:?}: {}",
            stderr(&output)
        );
    }
}
