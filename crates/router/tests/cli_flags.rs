//! `pmc-router route` refuses flags it does not know, naming them,
//! while its repeatable `--backend` and its boolean `--no-hedge` keep
//! working.

use std::process::{Command, Output, Stdio};

/// Runs `pmc-router route --addr 127.0.0.1:0 EXTRA…` with stdin
/// closed, so a router that does start shuts straight down again.
fn route(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmc-router"))
        .args(["route", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .expect("run pmc-router")
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    // Port 9 (discard) has no listener here: the backend is simply down.
    let backends = [
        "--backend",
        "127.0.0.1:9,name=a",
        "--backend",
        "127.0.0.1:9,name=b",
    ];
    for flag in ["--hedge-after", "--no-hedges", "--sync-interval"] {
        let mut args = backends.to_vec();
        args.extend(["--no-hedge", flag, "5"]);
        let out = route(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "error must name {flag}: {stderr}"
        );
        assert!(!String::from_utf8_lossy(&out.stdout).contains("listening on"));
    }
    // Known flags, including the boolean one and a repeated one, start
    // the router.
    let mut args = backends.to_vec();
    args.extend(["--no-hedge", "--sync-interval-ms", "0"]);
    let out = route(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("listening on"));
}
