//! Crash containment and durable hot restart, end to end.
//!
//! Drives the supervised worker pool, the health surface, and engine
//! checkpoint/replay through the public API with deterministic fault
//! injection ([`pmc_faults::ServeFaults`]):
//!
//! - an injected worker panic answers exactly one client with a typed
//!   `internal_error` frame while its siblings complete, and the
//!   supervisor respawns the slot;
//! - a deterministic crasher trips flap detection, and `readyz`
//!   (answered inline by the core, so it works with zero live
//!   workers) reports the retired slot;
//! - a stalled job is flagged by the stuck-worker watchdog while
//!   liveness probes keep answering;
//! - `resume TOKEN` binds a durable identity that survives
//!   reconnects, and a drain-time checkpoint carries it across a full
//!   server restart with estimates matching an uninterrupted run;
//! - a torn checkpoint write is quarantined on the next boot and the
//!   server cold-starts instead of refusing to serve.
//!
//! Seeded via `RECOVERY_SEED` (default 1) so CI can sweep a matrix:
//! the seed moves which job the panic lands on, the resume tokens,
//! and where the interrupted run splits its stream.

use pmc_events::PapiEvent;
use pmc_faults::ServeFaults;
use pmc_model::dataset::{Dataset, SampleRow};
use pmc_model::model::PowerModel;
use pmc_serve::registry::ModelRegistry;
use pmc_serve::server::{PowerServer, ServerConfig};
use pmc_serve::{CounterSample, EngineConfig, ModelArtifact, PowerClient, ServeError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn recovery_seed() -> u64 {
    std::env::var("RECOVERY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// A deterministic synthetic dataset whose power is exactly linear in
/// three event rates — well-posed fits, machine-epsilon reproducible.
fn tiny_dataset(n: usize) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let freq_mhz = [1200u32, 1600, 2000, 2400, 2600][i % 5];
        let f = freq_mhz as f64 / 1000.0;
        let v = 0.492857 + 0.214286 * f;
        let mut rates: Vec<f64> = (0..PapiEvent::COUNT)
            .map(|j| ((31 * i + 17 * j + i * i * (j + 3)) % 97) as f64 / 9700.0)
            .collect();
        rates[PapiEvent::PRF_DM.index()] = 0.001 + 0.00002 * (i as f64);
        rates[PapiEvent::TOT_CYC.index()] = 0.2 + 0.01 * ((i * 7 % 13) as f64);
        rates[PapiEvent::TLB_IM.index()] = 0.0005 + 0.00001 * ((i * 5 % 11) as f64);
        let v2f = v * v * f;
        let power = 5000.0 * rates[PapiEvent::PRF_DM.index()] * v2f
            + 120.0 * rates[PapiEvent::TOT_CYC.index()] * v2f
            + 900.0 * rates[PapiEvent::TLB_IM.index()] * v2f
            + 20.0 * v2f
            + 40.0 * v
            + 70.0;
        rows.push(SampleRow {
            workload_id: (i % 8) as u32,
            workload: format!("w{}", i % 8),
            suite: "roco2".into(),
            phase: "main".into(),
            threads: 24,
            freq_mhz,
            duration_s: 1.0,
            voltage: v,
            power,
            rates,
        });
    }
    Dataset::from_rows(rows)
}

fn tiny_events() -> Vec<PapiEvent> {
    vec![PapiEvent::PRF_DM, PapiEvent::TOT_CYC, PapiEvent::TLB_IM]
}

fn tiny_model() -> PowerModel {
    PowerModel::fit(&tiny_dataset(40), &tiny_events()).expect("well-posed synthetic fit")
}

/// Builds the `i`-th live counter sample from a training row, with a
/// strictly increasing timestamp.
fn sample_for(model: &PowerModel, data: &Dataset, i: usize) -> CounterSample {
    let row = &data.rows()[i % data.rows().len()];
    let avail = 24.0 * row.freq_mhz as f64 * 1e6 * row.duration_s;
    CounterSample {
        time_ns: (i as u64 + 1) * 250_000_000,
        duration_s: row.duration_s,
        freq_mhz: row.freq_mhz,
        voltage: row.voltage,
        deltas: model.events.iter().map(|e| row.rate(*e) * avail).collect(),
        missing: vec![],
    }
}

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        engine: EngineConfig {
            window: 8,
            total_cores: 24,
            staleness_ns: 5_000_000_000,
        },
        ..ServerConfig::default()
    }
}

/// Polls a counter until it reaches `want` or the deadline passes.
fn wait_for(counter: &AtomicU64, want: u64, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if counter.load(Ordering::Relaxed) >= want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    counter.load(Ordering::Relaxed) >= want
}

#[test]
fn worker_panic_answers_one_typed_error_and_pool_respawns() {
    let seed = recovery_seed();
    // The seed moves the landmine: any of the first three jobs.
    let victim_job = 1 + (seed % 3);
    let faults = Arc::new(ServeFaults::new().panic_on_job(victim_job));
    let config = ServerConfig {
        workers: 2,
        respawn_backoff: Duration::from_millis(1),
        faults: Some(Arc::clone(&faults)),
        ..base_config()
    };
    let mut server = PowerServer::start(config, Arc::new(ModelRegistry::default())).unwrap();
    let mut clients: Vec<PowerClient> = (0..3)
        .map(|_| PowerClient::connect(server.addr()).unwrap())
        .collect();

    // Requests are issued one at a time, so job sequence numbers are
    // deterministic: exactly the victim job's client sees the typed
    // internal error, with its connection still open.
    let mut internal = 0usize;
    let mut served = 0usize;
    for c in clients.iter_mut() {
        match c.ping(0) {
            Ok(_) => served += 1,
            Err(ServeError::Internal { reason }) => {
                assert!(reason.contains("panic"), "reason: {reason}");
                internal += 1;
            }
            Err(other) => panic!("expected pong or internal_error, got {other}"),
        }
    }
    assert_eq!(internal, 1, "exactly one client sees the panic");
    assert_eq!(served, 2, "siblings complete normally");
    assert_eq!(faults.panics_fired(), 1);
    assert_eq!(server.stats().worker_panics.load(Ordering::Relaxed), 1);

    // The supervisor respawns the slot and the pool keeps serving —
    // every connection (including the victim's) still round-trips.
    assert!(
        wait_for(&server.stats().worker_respawns, 1, Duration::from_secs(5)),
        "supervisor never respawned the panicked worker"
    );
    let before = server.stats().frames_received.load(Ordering::Relaxed);
    for c in clients.iter_mut() {
        c.ping(0).unwrap();
    }
    assert!(server.stats().frames_received.load(Ordering::Relaxed) >= before + 3);
    assert_eq!(
        server.stats().supervisor_flapping.load(Ordering::Relaxed),
        0
    );
    server.shutdown();
}

#[test]
fn deterministic_crasher_trips_flap_detection_and_readyz_reports_it() {
    let faults = Arc::new(ServeFaults::new().panic_from_job(1));
    let config = ServerConfig {
        workers: 1,
        flap_cap: 2,
        respawn_backoff: Duration::from_millis(1),
        faults: Some(Arc::clone(&faults)),
        ..base_config()
    };
    let mut server = PowerServer::start(config, Arc::new(ModelRegistry::default())).unwrap();
    let mut c = PowerClient::connect(server.addr()).unwrap();

    // Every worker-path request kills its worker; the first flap_cap
    // deaths are answered (the dying worker answers in-protocol before
    // retiring), then the slot is permanently retired.
    for attempt in 0..2 {
        match c.ping(0) {
            Err(ServeError::Internal { .. }) => {}
            other => panic!("attempt {attempt}: expected internal_error, got {other:?}"),
        }
    }
    assert!(
        wait_for(
            &server.stats().supervisor_flapping,
            1,
            Duration::from_secs(5)
        ),
        "flap detection never tripped"
    );

    // Liveness and readiness stay answerable with ZERO live workers:
    // both are served inline by the core thread.
    let h = c.healthz().unwrap();
    assert!(h.field("alive").unwrap().as_bool().unwrap());
    let r = c.readyz().unwrap();
    assert!(!r.field("ready").unwrap().as_bool().unwrap());
    let reasons = format!("{r}");
    assert!(reasons.contains("flapping"), "readyz: {r}");
    assert_eq!(server.stats().worker_panics.load(Ordering::Relaxed), 2);
    server.shutdown();
}

#[test]
fn stuck_worker_watchdog_flags_wedged_jobs_while_probes_answer() {
    let faults = Arc::new(ServeFaults::new().stall_on_job(1, Duration::from_millis(800)));
    let config = ServerConfig {
        workers: 1,
        stuck_job_bound: Duration::from_millis(50),
        faults: Some(Arc::clone(&faults)),
        ..base_config()
    };
    let mut server = PowerServer::start(config, Arc::new(ModelRegistry::default())).unwrap();

    // Wedge the only worker from a sacrificial connection…
    let addr = server.addr();
    let wedged = std::thread::spawn(move || {
        let mut c = PowerClient::connect(addr).unwrap();
        c.ping(0).unwrap()
    });

    // …and watch the health surface from another. The watchdog must
    // flag the stuck slot while healthz keeps answering promptly.
    let mut probe = PowerClient::connect(server.addr()).unwrap();
    assert!(
        wait_for(&server.stats().workers_stuck, 1, Duration::from_secs(5)),
        "watchdog never flagged the wedged worker"
    );
    let t0 = Instant::now();
    let h = probe.healthz().unwrap();
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "liveness probe lagged"
    );
    assert!(h.field("alive").unwrap().as_bool().unwrap());
    let r = probe.readyz().unwrap();
    assert!(!r.field("ready").unwrap().as_bool().unwrap());
    assert!(r.u64_field("stuck_workers").unwrap() >= 1, "readyz: {r}");

    // The stall ends, the job completes, and the gauge clears.
    wedged.join().unwrap();
    assert!(
        {
            let start = Instant::now();
            loop {
                if server.stats().workers_stuck.load(Ordering::Relaxed) == 0 {
                    break true;
                }
                if start.elapsed() > Duration::from_secs(5) {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        },
        "stuck gauge never cleared after the stall ended"
    );
    assert_eq!(faults.stalls_fired(), 1);
    server.shutdown();
}

#[test]
fn resume_binds_a_durable_identity_across_reconnects() {
    let seed = recovery_seed();
    let token = format!("sensor-{seed}");
    let model = tiny_model();
    let data = tiny_dataset(24);
    let registry = Arc::new(ModelRegistry::default());
    registry
        .load_and_activate(ModelArtifact::new("hsw", tiny_model()))
        .unwrap();
    let mut server = PowerServer::start(base_config(), registry).unwrap();

    let mut c1 = PowerClient::connect(server.addr()).unwrap();
    assert!(!c1.resume(&token).unwrap(), "no prior state for the token");
    let mut last = None;
    for i in 0..6 {
        last = Some(c1.ingest(&sample_for(&model, &data, i)).unwrap());
    }
    let last = last.unwrap();
    drop(c1);

    // A fresh connection has no state of its own, but resuming the
    // token finds the window warm — bitwise the same latest estimate.
    let mut c2 = PowerClient::connect(server.addr()).unwrap();
    assert!(c2.estimate(last.time_ns).unwrap().is_none());
    assert!(c2.resume(&token).unwrap(), "token state must survive");
    let warm = c2.estimate(last.time_ns).unwrap().expect("warm window");
    assert_eq!(warm.power_w.to_bits(), last.power_w.to_bits());
    assert_eq!(warm.samples_in_window, last.samples_in_window);
    assert!(server.stats().resumed_clients.load(Ordering::Relaxed) >= 2);
    server.shutdown();
}

#[test]
fn drain_checkpoint_restores_warm_windows_matching_uninterrupted_run() {
    let seed = recovery_seed();
    let token = format!("rack-{seed}");
    let split = 8 + (seed % 5) as usize; // where the "crash" lands
    let total = 20usize;
    let model = tiny_model();
    let data = tiny_dataset(24);
    let dir = std::env::temp_dir().join(format!("pmc-recovery-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("engine.ckpt");

    let registry_for = || {
        let r = Arc::new(ModelRegistry::default());
        r.load_and_activate(ModelArtifact::new("hsw", tiny_model()))
            .unwrap();
        r
    };
    let ck_config = || ServerConfig {
        checkpoint_path: Some(ck.clone()),
        checkpoint_interval: Duration::ZERO, // drain/explicit only
        ..base_config()
    };

    // Uninterrupted reference: one server sees the whole stream.
    let mut reference = None;
    {
        let mut server = PowerServer::start(base_config(), registry_for()).unwrap();
        let mut c = PowerClient::connect(server.addr()).unwrap();
        c.resume(&token).unwrap();
        for i in 0..total {
            reference = Some(c.ingest(&sample_for(&model, &data, i)).unwrap());
        }
        server.shutdown();
    }
    let reference = reference.unwrap();

    // Interrupted run: stream the head, drain (which checkpoints),
    // restart against the same file, resume, stream the tail.
    {
        let mut server = PowerServer::start(ck_config(), registry_for()).unwrap();
        assert!(server.checkpoint_restore().is_none(), "no file yet");
        let mut c = PowerClient::connect(server.addr()).unwrap();
        c.resume(&token).unwrap();
        for i in 0..split {
            c.ingest(&sample_for(&model, &data, i)).unwrap();
        }
        server.shutdown();
        assert!(
            server.stats().checkpoints_written.load(Ordering::Relaxed) >= 1,
            "drain must write a final checkpoint"
        );
    }
    let mut resumed = None;
    {
        let mut server = PowerServer::start(ck_config(), registry_for()).unwrap();
        match server.checkpoint_restore() {
            Some(pmc_serve::CheckpointRestore::Restored { clients, .. }) => {
                assert_eq!(*clients, 1, "one durable window checkpointed")
            }
            other => panic!("expected a restored checkpoint, got {other:?}"),
        }
        let mut c = PowerClient::connect(server.addr()).unwrap();
        assert!(c.resume(&token).unwrap(), "restored window must be warm");
        for i in split..total {
            resumed = Some(c.ingest(&sample_for(&model, &data, i)).unwrap());
        }
        server.shutdown();
    }
    let resumed = resumed.unwrap();

    // The sliding window converged over the shared tail: the restart
    // must be invisible — bitwise, which is far inside the 2-point
    // MAPE budget the acceptance bar asks for.
    let mape_pp = 100.0 * (resumed.power_w - reference.power_w).abs() / reference.power_w;
    assert!(mape_pp <= 2.0, "restart drifted {mape_pp:.4} pp");
    assert_eq!(resumed.power_w.to_bits(), reference.power_w.to_bits());
    assert_eq!(resumed.samples_in_window, reference.samples_in_window);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_write_is_quarantined_and_server_cold_starts() {
    let token = "torn-client";
    let model = tiny_model();
    let data = tiny_dataset(24);
    let dir = std::env::temp_dir().join(format!("pmc-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("engine.ckpt");

    // First life: a clean explicit checkpoint, then a drain-time write
    // torn mid-file (attempt 2) — as a crash between write and rename
    // would leave it.
    let faults = Arc::new(ServeFaults::new().tear_checkpoint(2));
    {
        let registry = Arc::new(ModelRegistry::default());
        registry
            .load_and_activate(ModelArtifact::new("hsw", tiny_model()))
            .unwrap();
        let config = ServerConfig {
            checkpoint_path: Some(ck.clone()),
            checkpoint_interval: Duration::ZERO,
            faults: Some(Arc::clone(&faults)),
            ..base_config()
        };
        let mut server = PowerServer::start(config, registry).unwrap();
        let mut c = PowerClient::connect(server.addr()).unwrap();
        c.resume(token).unwrap();
        for i in 0..4 {
            c.ingest(&sample_for(&model, &data, i)).unwrap();
        }
        assert_eq!(c.checkpoint_now().unwrap(), 1);
        server.shutdown(); // the torn write fires here
        assert_eq!(faults.tears_fired(), 1);
        assert_eq!(
            server
                .stats()
                .checkpoint_write_failures
                .load(Ordering::Relaxed),
            1
        );
    }

    // Second life: the torn file is detected, quarantined to
    // `<path>.corrupt`, and the server boots cold — it serves, it
    // just has no warm window for the token.
    {
        let registry = Arc::new(ModelRegistry::default());
        registry
            .load_and_activate(ModelArtifact::new("hsw", tiny_model()))
            .unwrap();
        let config = ServerConfig {
            checkpoint_path: Some(ck.clone()),
            checkpoint_interval: Duration::ZERO,
            ..base_config()
        };
        let mut server = PowerServer::start(config, registry).unwrap();
        match server.checkpoint_restore() {
            Some(pmc_serve::CheckpointRestore::Quarantined {
                reason,
                quarantined_to,
            }) => {
                assert!(reason.contains("CRC"), "reason: {reason}");
                let moved = quarantined_to.as_ref().expect("rename should succeed");
                assert!(moved.exists(), "quarantined file missing: {moved:?}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!ck.exists(), "torn file must be moved aside");
        assert_eq!(
            server
                .stats()
                .checkpoints_quarantined
                .load(Ordering::Relaxed),
            1
        );
        let mut c = PowerClient::connect(server.addr()).unwrap();
        assert!(!c.resume(token).unwrap(), "cold start: nothing restored");
        c.ingest(&sample_for(&model, &data, 0)).unwrap();
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_surface_distinguishes_liveness_from_readiness() {
    let mut server = PowerServer::start(base_config(), Arc::new(ModelRegistry::default())).unwrap();
    let mut c = PowerClient::connect(server.addr()).unwrap();

    // Alive from the first instant; not ready until a model serves.
    assert!(c
        .healthz()
        .unwrap()
        .field("alive")
        .unwrap()
        .as_bool()
        .unwrap());
    let r = c.readyz().unwrap();
    assert!(!r.field("ready").unwrap().as_bool().unwrap());
    assert!(format!("{r}").contains("no active model"), "readyz: {r}");

    c.load_model("hsw", &tiny_model(), true).unwrap();
    let r = c.readyz().unwrap();
    assert!(r.field("ready").unwrap().as_bool().unwrap());
    assert_eq!(
        r.field("active_model").unwrap().str_field("name").unwrap(),
        "hsw"
    );

    // The Prometheus scrape exposes the crash-containment counters.
    let scrape = c.metrics().unwrap();
    for needle in [
        "# TYPE pmc_serve_worker_panics counter",
        "# TYPE pmc_serve_checkpoints_written counter",
        "# TYPE pmc_serve_workers_stuck gauge",
        "pmc_serve_frames_received",
    ] {
        assert!(
            scrape.contains(needle),
            "metrics missing {needle}:\n{scrape}"
        );
    }
    server.shutdown();
}
