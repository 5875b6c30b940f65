//! `pmc-router` — front a fleet of `pmc-serve` backends.
//!
//! ```text
//! pmc-router route   [--addr A] --backend SPEC [--backend SPEC…]
//!                    [--probe-interval-ms N] [--probe-timeout-ms N]
//!                    [--evict-after N] [--max-conns N] [--retry-after-ms N]
//!                    [--read-timeout-ms N] [--write-timeout-ms N] [--idle-timeout-ms N]
//!                    [--sync-interval-ms N]
//!                    [--no-hedge] [--hedge-after-ms N]
//!                    [--outlier-factor F] [--outlier-min-samples N] [--readmit-after N]
//!                    [--retry-budget-ratio F] [--retry-budget-burst N]
//! pmc-router readyz  --addr A
//! pmc-router metrics --addr A
//! ```
//!
//! A backend SPEC is `ADDR[,name=NAME][,weight=N][,ckpt=PATH]`; give
//! `ckpt=` the same path as that backend's `--checkpoint` so the
//! router can migrate its durable windows out of the file if it dies
//! without draining.
//!
//! `route` binds (default `127.0.0.1:7720`), prints the bound address,
//! and runs until stdin closes — the same supervised lifetime as
//! `pmc-serve serve`. `--sync-interval-ms` paces the anti-entropy
//! loop replicating dirty windows to their ring standby (default 200;
//! 0 disables replication). `readyz` prints the router's readiness
//! report and exits nonzero when it is not ready — including the
//! typed `no_backends` reason when every backend is down,
//! `no_standby:<name>` when a backend's windows have no live second
//! copy, and `gray_degraded:<name>` when the outlier detector has
//! soft-ejected a browned-out backend. `metrics` prints the
//! Prometheus exposition.
//!
//! Gray-failure knobs: `--no-hedge` turns hedged reads off;
//! `--hedge-after-ms` fixes the hedge delay (default: derived from
//! the primary's latency EWMA). `--outlier-factor` is the multiple of
//! the fleet-median latency EWMA past which a backend is soft-ejected
//! (judged only after `--outlier-min-samples` relay samples);
//! `--readmit-after` healthy passes re-admit it.
//! `--retry-budget-ratio`/`--retry-budget-burst` bound hedge
//! amplification per client connection.
//!
//! `route` rejects any flag it does not know, naming it, with a
//! non-zero exit rather than running with a default in its place.

use pmc_router::{BackendSpec, PowerRouter, RouterConfig};
use pmc_serve::cli::{check_flags, flag_value};
use pmc_serve::protocol::{read_frame, unwrap_response, write_frame, Request};
use pmc_serve::ServeError;
use std::io::Read;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("route") => route(&args[1..]),
        Some("readyz") => readyz(&args[1..]),
        Some("metrics") => metrics(&args[1..]),
        _ => {
            eprintln!("usage: pmc-router route   [--addr A] --backend SPEC [--backend SPEC…]");
            eprintln!("                          [--probe-interval-ms N] [--probe-timeout-ms N]");
            eprintln!(
                "                          [--evict-after N] [--max-conns N] [--retry-after-ms N]"
            );
            eprintln!("                          [--read-timeout-ms N] [--write-timeout-ms N] [--idle-timeout-ms N]");
            eprintln!("                          [--sync-interval-ms N]");
            eprintln!("                          [--no-hedge] [--hedge-after-ms N]");
            eprintln!("                          [--outlier-factor F] [--outlier-min-samples N] [--readmit-after N]");
            eprintln!(
                "                          [--retry-budget-ratio F] [--retry-budget-burst N]"
            );
            eprintln!("       pmc-router readyz  --addr A");
            eprintln!("       pmc-router metrics --addr A");
            eprintln!();
            eprintln!("backend SPEC: ADDR[,name=NAME][,weight=N][,ckpt=PATH]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pmc-router: {e}");
            ExitCode::FAILURE
        }
    }
}

fn route(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags(
        args,
        &[
            "--addr",
            "--backend",
            "--probe-interval-ms",
            "--probe-timeout-ms",
            "--evict-after",
            "--max-conns",
            "--retry-after-ms",
            "--read-timeout-ms",
            "--write-timeout-ms",
            "--idle-timeout-ms",
            "--sync-interval-ms",
            "--hedge-after-ms",
            "--outlier-factor",
            "--outlier-min-samples",
            "--readmit-after",
            "--retry-budget-ratio",
            "--retry-budget-burst",
        ],
        &["--no-hedge"],
    )?;
    let mut config = RouterConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:7720")
            .into(),
        ..RouterConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--backend" {
            let spec = args.get(i + 1).ok_or("--backend needs a spec")?;
            config.backends.push(BackendSpec::parse(spec)?);
            i += 2;
        } else {
            i += 1;
        }
    }
    if config.backends.is_empty() {
        return Err("route needs at least one --backend SPEC".into());
    }
    if let Some(ms) = flag_value(args, "--probe-interval-ms") {
        config.probe_interval = Duration::from_millis(ms.parse()?);
    }
    if let Some(ms) = flag_value(args, "--probe-timeout-ms") {
        config.probe_timeout = Duration::from_millis(ms.parse()?);
    }
    if let Some(n) = flag_value(args, "--evict-after") {
        config.evict_after = n.parse()?;
    }
    if let Some(n) = flag_value(args, "--max-conns") {
        config.max_connections = n.parse()?;
    }
    if let Some(ms) = flag_value(args, "--retry-after-ms") {
        config.retry_after_ms = ms.parse()?;
    }
    // 0 disables the background anti-entropy loop.
    if let Some(ms) = flag_value(args, "--sync-interval-ms") {
        config.sync_interval = Duration::from_millis(ms.parse()?);
    }
    // Deadline knobs: 0 disables, same convention as pmc-serve.
    let ms_flag = |flag: &str| -> Result<Option<Option<Duration>>, std::num::ParseIntError> {
        match flag_value(args, flag) {
            Some(v) => {
                let ms: u64 = v.parse()?;
                Ok(Some((ms > 0).then(|| Duration::from_millis(ms))))
            }
            None => Ok(None),
        }
    };
    if let Some(t) = ms_flag("--read-timeout-ms")? {
        config.read_timeout = t;
    }
    if let Some(t) = ms_flag("--write-timeout-ms")? {
        config.write_timeout = t;
    }
    if let Some(t) = ms_flag("--idle-timeout-ms")? {
        config.idle_timeout = t;
    }
    // Gray-failure defense knobs.
    if args.iter().any(|a| a == "--no-hedge") {
        config.hedge_reads = false;
    }
    // 0 restores the dynamic (EWMA-derived) hedge delay.
    if let Some(ms) = flag_value(args, "--hedge-after-ms") {
        let ms: u64 = ms.parse()?;
        config.hedge_after = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(f) = flag_value(args, "--outlier-factor") {
        config.outlier_factor = f.parse()?;
    }
    if let Some(n) = flag_value(args, "--outlier-min-samples") {
        config.outlier_min_samples = n.parse()?;
    }
    if let Some(n) = flag_value(args, "--readmit-after") {
        config.readmit_after = n.parse()?;
    }
    if let Some(f) = flag_value(args, "--retry-budget-ratio") {
        config.retry_budget_ratio = f.parse()?;
    }
    if let Some(n) = flag_value(args, "--retry-budget-burst") {
        config.retry_budget_burst = n.parse()?;
    }

    let mut router = PowerRouter::start(config)?;
    println!("listening on {}", router.addr());
    // Route until stdin closes — same supervised lifetime as pmc-serve.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    eprintln!("stdin closed — shutting down");
    router.shutdown();
    Ok(())
}

/// One inline request against a running router.
fn call(addr: &str, req: &Request) -> Result<pmc_json::Json, Box<dyn std::error::Error>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write_frame(&mut stream, &req.to_json_value())?;
    let frame = read_frame(&mut stream)?.ok_or(ServeError::Protocol {
        reason: "router closed without answering".into(),
    })?;
    Ok(unwrap_response(frame)?)
}

fn readyz(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7720");
    let r = call(addr, &Request::Readyz)?;
    let ready = r.field("ready").and_then(|v| v.as_bool()).unwrap_or(false);
    println!("{}", r.to_string_pretty());
    if !ready {
        return Err("router not ready".into());
    }
    Ok(())
}

fn metrics(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7720");
    let r = call(addr, &Request::Metrics)?;
    print!("{}", r.str_field("body")?);
    Ok(())
}
