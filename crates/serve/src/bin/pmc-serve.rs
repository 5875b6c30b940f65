//! `pmc-serve` — run the power-telemetry server or poke one.
//!
//! ```text
//! pmc-serve serve  [--addr A] [--workers N] [--queue N] [--cores N]
//!                  [--model FILE…] [--persist DIR] [--read-timeout-ms N]
//!                  [--write-timeout-ms N] [--idle-timeout-ms N] [--max-frame-bytes N]
//!                  [--max-conns N] [--max-inflight N] [--queue-deadline-ms N]
//!                  [--drain-deadline-ms N] [--retry-after-ms N]
//!                  [--checkpoint PATH] [--checkpoint-interval-ms N]
//!                  [--flap-cap N] [--respawn-backoff-ms N] [--stuck-bound-ms N]
//! pmc-serve client --addr A (stats | load NAME FILE [--activate] | activate NAME VER | rollback
//!                            | healthz | readyz | metrics | checkpoint)
//! pmc-serve chaos  [--seed N] [--fault-seed N] [--rate P] [--phases N]
//! ```
//!
//! `serve` rejects any flag it does not know, naming it, with a
//! non-zero exit: a misspelled `--checkpoint` must not quietly run
//! without durability.
//!
//! `serve` binds (default `127.0.0.1:7717`), optionally pre-loads and
//! activates model artifacts from JSON files, prints the bound
//! address, and runs until stdin closes (pipe `/dev/null` to run until
//! killed; an orchestrator holds the pipe open). With `--persist DIR`
//! the registry survives restarts: models and the active pointer are
//! written atomically and recovered on startup. With `--checkpoint
//! PATH` the engine's durable (resumed-token) client windows survive
//! crashes too: they are snapshotted every `--checkpoint-interval-ms`
//! (default 5000; 0 = only on drain; each wait is jittered ±20% so a
//! co-started fleet doesn't snapshot in lockstep) and restored warm on
//! the next start — a torn or corrupt checkpoint is quarantined and
//! reported, never fatal.
//!
//! `chaos` is a self-contained fault-tolerance demo: it trains a model
//! on the simulated machine, serves it on an ephemeral port, streams
//! phases through a seeded fault injector at the given `--rate`, and
//! reports injected-fault counts, degraded estimates, and estimation
//! error during and after the fault storm.

use pmc_serve::cli::{check_flags, flag_value};
use pmc_serve::registry::ModelRegistry;
use pmc_serve::server::{PowerServer, ServerConfig};
use pmc_serve::{ModelArtifact, PowerClient};
use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("chaos") => chaos(&args[1..]),
        _ => {
            eprintln!("usage: pmc-serve serve [--addr A] [--workers N] [--queue N] [--cores N]");
            eprintln!(
                "                       [--model FILE…] [--persist DIR] [--read-timeout-ms N]"
            );
            eprintln!("                       [--write-timeout-ms N] [--idle-timeout-ms N] [--max-frame-bytes N]");
            eprintln!(
                "                       [--max-conns N] [--max-inflight N] [--queue-deadline-ms N]"
            );
            eprintln!("                       [--drain-deadline-ms N] [--retry-after-ms N]");
            eprintln!("                       [--checkpoint PATH] [--checkpoint-interval-ms N]");
            eprintln!(
                "                       [--flap-cap N] [--respawn-backoff-ms N] [--stuck-bound-ms N]"
            );
            eprintln!("       pmc-serve client --addr A (stats | load NAME FILE [--activate] | activate NAME VER | rollback");
            eprintln!(
                "                                  | healthz | readyz | metrics | checkpoint)"
            );
            eprintln!("       pmc-serve chaos [--seed N] [--fault-seed N] [--rate P] [--phases N]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pmc-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags(
        args,
        &[
            "--addr",
            "--workers",
            "--queue",
            "--cores",
            "--model",
            "--persist",
            "--read-timeout-ms",
            "--write-timeout-ms",
            "--idle-timeout-ms",
            "--max-frame-bytes",
            "--max-conns",
            "--max-inflight",
            "--queue-deadline-ms",
            "--drain-deadline-ms",
            "--retry-after-ms",
            "--checkpoint",
            "--checkpoint-interval-ms",
            "--flap-cap",
            "--respawn-backoff-ms",
            "--stuck-bound-ms",
        ],
        &[],
    )?;
    let mut config = ServerConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:7717")
            .into(),
        ..ServerConfig::default()
    };
    if let Some(w) = flag_value(args, "--workers") {
        config.workers = w.parse()?;
    }
    if let Some(q) = flag_value(args, "--queue") {
        config.queue_depth = q.parse()?;
    }
    if let Some(c) = flag_value(args, "--cores") {
        config.engine.total_cores = c.parse()?;
    }
    // Deadline knobs: 0 disables.
    let ms_flag =
        |flag: &str| -> Result<Option<Option<std::time::Duration>>, std::num::ParseIntError> {
            match flag_value(args, flag) {
                Some(v) => {
                    let ms: u64 = v.parse()?;
                    Ok(Some((ms > 0).then(|| std::time::Duration::from_millis(ms))))
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
    if let Some(b) = flag_value(args, "--max-frame-bytes") {
        config.max_frame_bytes = b.parse()?;
    }
    if let Some(n) = flag_value(args, "--max-conns") {
        config.max_connections = n.parse()?;
    }
    if let Some(n) = flag_value(args, "--max-inflight") {
        config.max_inflight = n.parse()?;
    }
    if let Some(t) = ms_flag("--queue-deadline-ms")? {
        config.queue_deadline = t;
    }
    if let Some(ms) = flag_value(args, "--drain-deadline-ms") {
        config.drain_deadline = std::time::Duration::from_millis(ms.parse()?);
    }
    if let Some(ms) = flag_value(args, "--retry-after-ms") {
        config.retry_after_ms = ms.parse()?;
    }
    if let Some(path) = flag_value(args, "--checkpoint") {
        config.checkpoint_path = Some(path.into());
    }
    if let Some(ms) = flag_value(args, "--checkpoint-interval-ms") {
        config.checkpoint_interval = std::time::Duration::from_millis(ms.parse()?);
    }
    if let Some(n) = flag_value(args, "--flap-cap") {
        config.flap_cap = n.parse()?;
    }
    if let Some(ms) = flag_value(args, "--respawn-backoff-ms") {
        config.respawn_backoff = std::time::Duration::from_millis(ms.parse()?);
    }
    if let Some(ms) = flag_value(args, "--stuck-bound-ms") {
        config.stuck_job_bound = std::time::Duration::from_millis(ms.parse()?);
    }

    let registry = match flag_value(args, "--persist") {
        Some(dir) => {
            let (registry, report) = ModelRegistry::with_persistence(
                pmc_events::scheduler::CounterScheduler::haswell_default(),
                dir,
            )?;
            for (name, version) in &report.loaded {
                eprintln!("recovered {name} v{version} from {dir}");
            }
            for (file, why) in &report.skipped {
                eprintln!("skipped {file}: {why}");
            }
            if let Some((name, version)) = &report.active_restored {
                eprintln!("restored active model {name} v{version}");
            }
            if let Some((name, version)) = &report.previous_restored {
                eprintln!("restored rollback target {name} v{version}");
            }
            Arc::new(registry)
        }
        None => Arc::new(ModelRegistry::default()),
    };
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--model" {
            let path = args.get(i + 1).ok_or("--model needs a file path")?;
            let text = std::fs::read_to_string(path)?;
            let artifact = ModelArtifact::from_json(&text)?;
            let name = artifact.name.clone();
            let (_, version) = registry.load_and_activate(artifact)?;
            eprintln!("loaded and activated {name} v{version} from {path}");
            i += 2;
        } else {
            i += 1;
        }
    }

    let mut server = PowerServer::start(config, registry)?;
    match server.checkpoint_restore() {
        Some(pmc_serve::server::CheckpointRestore::Restored {
            clients,
            active,
            training_dropped,
        }) => {
            eprintln!("checkpoint restored: {clients} client window(s) warm");
            if let Some(reason) = training_dropped {
                eprintln!(
                    "checkpoint training section dropped ({reason}) — training restarts cold"
                );
            }
            if let Some((name, version)) = active {
                eprintln!("checkpoint active-model pin: {name} v{version}");
            }
        }
        Some(pmc_serve::server::CheckpointRestore::Quarantined {
            reason,
            quarantined_to,
        }) => {
            eprintln!("checkpoint rejected ({reason}) — cold start");
            match quarantined_to {
                Some(path) => eprintln!("bad checkpoint quarantined to {}", path.display()),
                None => eprintln!("bad checkpoint left in place; next write overwrites it"),
            }
        }
        None => {}
    }
    println!("listening on {}", server.addr());
    // Serve until stdin closes — the conventional "run me under a
    // supervisor" lifetime without needing signal handling.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    eprintln!("stdin closed — shutting down");
    server.shutdown();
    Ok(())
}

fn client(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7717");
    let mut c = PowerClient::connect(addr)?;
    // The verb is the first arg that isn't the --addr pair.
    let mut verb_args: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--addr" {
            i += 2;
        } else {
            verb_args.push(&args[i]);
            i += 1;
        }
    }
    match verb_args.first().map(|s| s.as_str()) {
        Some("stats") => {
            println!("{}", c.stats()?.to_string_pretty());
        }
        Some("load") => {
            let name = verb_args.get(1).ok_or("load needs NAME FILE")?;
            let path = verb_args.get(2).ok_or("load needs NAME FILE")?;
            let activate = verb_args.iter().any(|a| *a == "--activate");
            // Accept either a bare PowerModel JSON (what `to_json`
            // writes) or a full artifact file as used by `serve --model`.
            let text = std::fs::read_to_string(path)?;
            let model = match pmc_model::model::PowerModel::from_json(&text) {
                Ok(m) => m,
                Err(_) => ModelArtifact::from_json(&text)?.model,
            };
            let version = c.load_model(name, &model, activate)?;
            println!(
                "loaded {name} v{version}{}",
                if activate { " (active)" } else { "" }
            );
        }
        Some("activate") => {
            let name = verb_args.get(1).ok_or("activate needs NAME VERSION")?;
            let version: u32 = verb_args
                .get(2)
                .ok_or("activate needs NAME VERSION")?
                .parse()?;
            c.activate(name, version)?;
            println!("activated {name} v{version}");
        }
        Some("rollback") => {
            let (name, version) = c.rollback()?;
            println!("rolled back to {name} v{version}");
        }
        Some("healthz") => {
            println!("{}", c.healthz()?.to_string_pretty());
        }
        Some("readyz") => {
            let r = c.readyz()?;
            let ready = r.field("ready").and_then(|v| v.as_bool()).unwrap_or(false);
            println!("{}", r.to_string_pretty());
            if !ready {
                return Err("server not ready".into());
            }
        }
        Some("metrics") => {
            print!("{}", c.metrics()?);
        }
        Some("checkpoint") => {
            let clients = c.checkpoint_now()?;
            println!("checkpoint written: {clients} client window(s)");
        }
        other => {
            return Err(format!("unknown client verb {other:?}").into());
        }
    }
    Ok(())
}

/// Self-contained fault-tolerance demo: train → serve → stream phases
/// through a seeded fault injector → report degradation and recovery.
fn chaos(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use pmc_cpusim::{Machine, MachineConfig, PhaseContext, PhaseObserver};
    use pmc_events::PapiEvent;
    use pmc_faults::{FaultRates, FaultyMachine};
    use pmc_model::acquisition::{Campaign, ExperimentPlan};
    use pmc_model::dataset::Dataset;
    use pmc_model::model::PowerModel;
    use pmc_serve::{CounterSample, EngineConfig, RetryPolicy};

    let seed: u64 = flag_value(args, "--seed").unwrap_or("6").parse()?;
    let fault_seed: u64 = flag_value(args, "--fault-seed").unwrap_or("1").parse()?;
    let rate: f64 = flag_value(args, "--rate").unwrap_or("0.1").parse()?;
    let phases: usize = flag_value(args, "--phases").unwrap_or("120").parse()?;

    // --- Train on the clean simulated machine -----------------------
    let machine = Machine::new(MachineConfig::haswell_ep(seed));
    let total_cores = machine.config().total_cores();
    let mut training = pmc_workloads::roco2::kernels();
    training.extend(pmc_workloads::roco2::extended_kernels());
    let set = pmc_workloads::WorkloadSet::from_workloads(training);
    let plan = ExperimentPlan::quick_plan(set, vec![1200, 1600, 2000, 2400]);
    let profiles = Campaign::new(&machine, plan).run()?;
    let data = Dataset::from_profiles(&profiles, total_cores)?;
    let events = vec![
        PapiEvent::PRF_DM,
        PapiEvent::REF_CYC,
        PapiEvent::TOT_CYC,
        PapiEvent::STL_ICY,
        PapiEvent::TLB_IM,
        PapiEvent::FUL_CCY,
    ];
    let model = PowerModel::fit(&data, &events)?;
    eprintln!("trained 6-event model: R² = {:.4}", model.fit_r_squared);

    // --- Serve on an ephemeral port ---------------------------------
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        engine: EngineConfig {
            window: 8,
            total_cores,
            staleness_ns: 5_000_000_000,
        },
        ..ServerConfig::default()
    };
    let mut server = PowerServer::start(config, Arc::new(ModelRegistry::default()))?;
    let mut c = PowerClient::connect(server.addr())?.with_retry(RetryPolicy::default());
    c.load_model("chaos", &model, true)?;

    // --- Stream: a fault storm, then a fault-free recovery tail -----
    let faulty = FaultyMachine::new(machine.clone(), fault_seed, FaultRates::uniform(rate));
    let mut kernels = pmc_workloads::roco2::kernels();
    kernels.extend(pmc_workloads::roco2::extended_kernels());
    let freqs = [1200u32, 1600, 2000, 2400];
    let mut degraded = 0usize;
    let (mut storm_ape, mut tail_ape) = (Vec::new(), Vec::new());
    for i in 0..2 * phases {
        let storming = i < phases;
        let w = &kernels[i % kernels.len()];
        let phase = &w.phases(24)[0];
        let ctx = PhaseContext {
            workload_id: w.id,
            phase_id: 0,
            run_id: 9000 + i as u32,
            threads: 24,
            freq_mhz: freqs[i % freqs.len()],
            duration_s: 0.25,
        };
        // Clean reference first (deterministic per coordinates), then
        // the possibly-corrupted view the collector actually sees.
        let clean = machine.observe(&phase.activity, &ctx);
        let obs = if storming {
            PhaseObserver::observe(&faulty, &phase.activity, &ctx)
        } else {
            clean.clone()
        };
        // A real collector cannot send NaN over JSON: non-finite
        // deltas are declared in `missing`, a bad voltage becomes 0.0
        // (the engine substitutes the last good readout).
        let mut deltas: Vec<f64> = events.iter().map(|e| obs.counters[e.index()]).collect();
        let mut missing = Vec::new();
        for (j, d) in deltas.iter_mut().enumerate() {
            if !d.is_finite() {
                *d = 0.0;
                missing.push(j);
            }
        }
        let sample = CounterSample {
            time_ns: (i as u64 + 1) * 250_000_000,
            duration_s: obs.duration_s,
            freq_mhz: ctx.freq_mhz,
            voltage: if obs.voltage.is_finite() {
                obs.voltage
            } else {
                0.0
            },
            deltas,
            missing,
        };
        let est = c.ingest(&sample)?;
        if !est.power_w.is_finite() {
            return Err(format!("non-finite estimate at phase {i}").into());
        }
        if est.degraded {
            degraded += 1;
        }
        let ape = (est.power_w - clean.power_measured).abs() / clean.power_measured;
        if storming {
            storm_ape.push(ape);
        } else {
            tail_ape.push(ape);
        }
    }
    let mape = |v: &[f64]| 100.0 * v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!("injected: {}", faulty.injector().log());
    println!(
        "phases: {} under faults (rate {rate}), {} fault-free; degraded estimates: {degraded}",
        phases, phases
    );
    println!(
        "MAPE vs true power: {:.2}% under faults, {:.2}% after recovery",
        mape(&storm_ape),
        mape(&tail_ape)
    );
    server.shutdown();
    Ok(())
}
