//! Smoke tests of the `r8cc` command-line compiler driver.

use std::process::Command;

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("r8cc-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

#[test]
fn compiles_to_assembly() {
    let src = write_temp("p.r8c", "func main() { printf(40 + 2); }");
    let output = Command::new(env!("CARGO_BIN_EXE_r8cc"))
        .arg(&src)
        .output()
        .expect("run r8cc");
    assert!(output.status.success(), "{output:?}");
    let asm = String::from_utf8(output.stdout).unwrap();
    assert!(asm.contains("Lf_main"), "{asm}");
    // The emitted assembly must itself assemble.
    r8::asm::assemble(&asm).expect("compiler output assembles");
}

#[test]
fn compiles_to_object_text() {
    let src = write_temp("q.r8c", "func main() { poke(0x700, 7); }");
    let output = Command::new(env!("CARGO_BIN_EXE_r8cc"))
        .arg(&src)
        .arg("--obj")
        .output()
        .expect("run r8cc");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    let words = r8::objfile::from_text(&text).expect("valid object text");
    assert!(!words.is_empty());
}

#[test]
fn reports_compile_errors() {
    let src = write_temp("bad.r8c", "func main() {\n  x = 1;\n}");
    let output = Command::new(env!("CARGO_BIN_EXE_r8cc"))
        .arg(&src)
        .output()
        .expect("run r8cc");
    assert!(!output.status.success());
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("line 2") && err.contains("undefined"), "{err}");
}

#[test]
fn refuses_deep_nesting_with_a_message() {
    // 20,000 nested parentheses overflowed the compiler's stack.
    let depth = 20_000;
    let source = format!(
        "func main() {{ printf({}1{}); }}",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let src = write_temp("deep.r8c", &source);
    let output = Command::new(env!("CARGO_BIN_EXE_r8cc"))
        .arg(&src)
        .output()
        .expect("run r8cc");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let err = String::from_utf8(output.stderr).unwrap();
    let want = format!(
        "line 1: nested deeper than {} levels",
        r8c::parser::MAX_NESTING
    );
    assert!(err.contains(&want), "{err}");
}
