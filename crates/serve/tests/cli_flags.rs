//! `pmc-serve serve` refuses flags it does not know. A misspelled
//! `--checkpoint`, or a flag this binary no longer has, must stop the
//! process with an error naming it — never run with a default in its
//! place.

use std::process::{Command, Output, Stdio};

/// Runs `pmc-serve serve --addr 127.0.0.1:0 EXTRA…` with stdin closed,
/// so a server that does start shuts straight down again.
fn serve(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmc-serve"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .expect("run pmc-serve")
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    for (flag, value) in [
        ("--checkpont", "/nonexistent/ck"),
        ("--batch-max", "4"),
        ("--batch-linger-us", "100"),
        ("--uds", "/nonexistent/serve.sock"),
    ] {
        let out = serve(&["--workers", "1", flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "error must name {flag}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("listening on"),
            "{flag}: the server must not start"
        );
    }
    // A known flag missing its value is refused too.
    let out = serve(&["--workers"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers needs a value"));
    // Known flags still start the server.
    let out = serve(&["--workers", "1", "--queue", "4"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("listening on"));
}
