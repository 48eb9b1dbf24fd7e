//! Smoke tests of the `r8asm`, `r8dis` and `r8sim` command-line tools.

use std::io::Write;
use std::process::{Command, Stdio};

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("r8-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

#[test]
fn r8asm_assembles_to_object_text() {
    let asm = write_temp("a.asm", "LIW R1, 42\nHALT\n");
    let output = Command::new(env!("CARGO_BIN_EXE_r8asm"))
        .arg(&asm)
        .output()
        .expect("run r8asm");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    let words = r8::objfile::from_text(&text).expect("valid object text");
    assert_eq!(words.len(), 3); // LIW expands to LDL+LDH, then HALT
}

#[test]
fn r8asm_reports_errors_with_lines() {
    let asm = write_temp("bad.asm", "NOP\nFROB R1\n");
    let output = Command::new(env!("CARGO_BIN_EXE_r8asm"))
        .arg(&asm)
        .output()
        .expect("run r8asm");
    assert!(!output.status.success());
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn r8dis_round_trips_r8asm_output() {
    let asm = write_temp("b.asm", "ADD R1, R2, R3\nHALT\n");
    let obj = write_temp("b.obj", "");
    let status = Command::new(env!("CARGO_BIN_EXE_r8asm"))
        .arg(&asm)
        .arg("-o")
        .arg(&obj)
        .status()
        .expect("run r8asm");
    assert!(status.success());
    let output = Command::new(env!("CARGO_BIN_EXE_r8dis"))
        .arg(&obj)
        .output()
        .expect("run r8dis");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("ADD  R1, R2, R3"), "{text}");
    assert!(text.contains("HALT"), "{text}");
}

#[test]
fn r8sim_runs_and_prints_io() {
    // printf(12345) via ST to 0xFFFF.
    let asm = write_temp(
        "c.asm",
        "XOR R0, R0, R0\nLIW R1, 12345\nLIW R2, 0xFFFF\nST R1, R2, R0\nHALT\n",
    );
    let output = Command::new(env!("CARGO_BIN_EXE_r8sim"))
        .arg(&asm)
        .stdin(Stdio::null())
        .output()
        .expect("run r8sim");
    assert!(output.status.success(), "{output:?}");
    let out = String::from_utf8(output.stdout).unwrap();
    assert_eq!(out.trim(), "12345");
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("halted"), "{err}");
}

#[test]
fn r8sim_scanf_reads_stdin() {
    // scanf then printf(value * 2).
    let asm = write_temp(
        "d.asm",
        "XOR R0, R0, R0\nLIW R2, 0xFFFF\nLD R1, R2, R0\nSL0 R1, R1\nST R1, R2, R0\nHALT\n",
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_r8sim"))
        .arg(&asm)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn r8sim");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"21\n")
        .expect("write stdin");
    let output = child.wait_with_output().expect("wait");
    assert!(output.status.success());
    assert_eq!(String::from_utf8(output.stdout).unwrap().trim(), "42");
}

#[test]
fn r8sim_rejects_object_text_past_the_address_space() {
    // The second word after @ffff has no address; it used to wrap to 0
    // and fault there as an illegal instruction.
    let obj = write_temp("wrap.obj", "@ffff\n1\n2\n");
    let output = Command::new(env!("CARGO_BIN_EXE_r8sim"))
        .arg(&obj)
        .output()
        .expect("run r8sim");
    assert!(!output.status.success(), "{output:?}");
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(
        err.contains("line 3: `2` would load past address 0xFFFF"),
        "{err}"
    );
}
