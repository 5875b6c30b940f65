//! Process-level crash recovery: SIGKILL the real `pmc-serve` binary
//! and prove the next life resumes warm from the checkpoint file.
//!
//! The in-process tests (`tests/recovery_e2e.rs` at the workspace
//! root) exercise drain-time checkpoints; this file covers the part
//! only a real process death can: `kill -9` leaves no drain, so the
//! survival of the durable windows rests entirely on the last
//! explicit/periodic checkpoint and on the restore path of a freshly
//! exec'd server. Also proves the boot-time reports on stderr: the
//! quarantine of a torn checkpoint, and a dropped training section.

use pmc_events::PapiEvent;
use pmc_model::dataset::{Dataset, SampleRow};
use pmc_model::model::PowerModel;
use pmc_serve::checkpoint::{encode_checkpoint, CheckpointData};
use pmc_serve::registry::ModelRegistry;
use pmc_serve::server::{PowerServer, ServerConfig};
use pmc_serve::trainer::TrainingSnapshot;
use pmc_serve::{CounterSample, ModelArtifact, PowerClient};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;

/// Same synthetic fixture as the crate's unit tests: power exactly
/// linear in three event rates, so fits and estimates are reproducible
/// to machine epsilon across processes.
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

fn tiny_model() -> PowerModel {
    PowerModel::fit(
        &tiny_dataset(40),
        &[PapiEvent::PRF_DM, PapiEvent::TOT_CYC, PapiEvent::TLB_IM],
    )
    .expect("well-posed synthetic fit")
}

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

/// A running `pmc-serve serve` child plus the stdin handle keeping it
/// alive and the parsed ephemeral address it bound.
struct ServeProc {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

/// Spawns the real binary on an ephemeral port and waits for its
/// "listening on" line.
fn spawn_serve(model_path: &Path, ck_path: &Path) -> ServeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pmc-serve"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--model",
            model_path.to_str().unwrap(),
            "--checkpoint",
            ck_path.to_str().unwrap(),
            "--checkpoint-interval-ms",
            "0",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pmc-serve");
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("server must print its address")
        .expect("readable stdout");
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first}"))
        .to_string();
    ServeProc { child, stdin, addr }
}

impl ServeProc {
    /// SIGKILL — no drain, no final checkpoint, the real crash.
    fn kill_hard(mut self) {
        self.child.kill().expect("kill -9");
        let _ = self.child.wait();
    }

    /// Closes stdin (the conventional shutdown trigger) and collects
    /// the exit status plus everything the server wrote to stderr.
    fn shutdown_clean(mut self) -> String {
        drop(self.stdin.take());
        let out = self.child.wait_with_output().expect("server exit");
        assert!(out.status.success(), "clean shutdown must exit 0");
        String::from_utf8_lossy(&out.stderr).into_owned()
    }
}

#[test]
fn sigkill_then_restart_resumes_from_last_explicit_checkpoint() {
    let model = tiny_model();
    let data = tiny_dataset(24);
    let total = 20usize;
    let split = 10usize;
    let token = "proc-sensor";

    let dir = std::env::temp_dir().join(format!("pmc-proc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    let ck_path = dir.join("engine.ckpt");
    std::fs::write(
        &model_path,
        ModelArtifact::new("hsw", tiny_model()).to_json().unwrap(),
    )
    .unwrap();

    // Uninterrupted reference, in-process (identical engine defaults).
    let reference = {
        let registry = Arc::new(ModelRegistry::default());
        registry
            .load_and_activate(ModelArtifact::new("hsw", tiny_model()))
            .unwrap();
        let mut server = PowerServer::start(ServerConfig::default(), registry).unwrap();
        let mut c = PowerClient::connect(server.addr()).unwrap();
        c.resume(token).unwrap();
        let mut last = None;
        for i in 0..total {
            last = Some(c.ingest(&sample_for(&model, &data, i)).unwrap());
        }
        server.shutdown();
        last.unwrap()
    };

    // First life: stream the head, checkpoint explicitly, die by
    // SIGKILL — nothing after the snapshot may matter.
    let proc1 = spawn_serve(&model_path, &ck_path);
    {
        let mut c = PowerClient::connect(proc1.addr.as_str()).unwrap();
        assert!(!c.resume(token).unwrap());
        for i in 0..split {
            c.ingest(&sample_for(&model, &data, i)).unwrap();
        }
        assert_eq!(c.checkpoint_now().unwrap(), 1);
    }
    proc1.kill_hard();
    assert!(ck_path.exists(), "checkpoint must survive the kill");

    // Second life: warm resume, stream the tail, match the reference.
    let proc2 = spawn_serve(&model_path, &ck_path);
    let resumed = {
        let mut c = PowerClient::connect(proc2.addr.as_str()).unwrap();
        assert!(
            c.resume(token).unwrap(),
            "restarted server must find the token's window in the checkpoint"
        );
        let mut last = None;
        for i in split..total {
            last = Some(c.ingest(&sample_for(&model, &data, i)).unwrap());
        }
        last.unwrap()
    };
    let stderr = proc2.shutdown_clean();
    assert!(
        stderr.contains("checkpoint restored: 1 client window(s) warm"),
        "stderr: {stderr}"
    );

    let drift_pp = 100.0 * (resumed.power_w - reference.power_w).abs() / reference.power_w;
    assert!(drift_pp <= 2.0, "restart drifted {drift_pp:.4} pp");
    assert_eq!(resumed.power_w.to_bits(), reference.power_w.to_bits());
    assert_eq!(resumed.samples_in_window, reference.samples_in_window);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_on_disk_is_reported_and_never_blocks_boot() {
    let dir = std::env::temp_dir().join(format!("pmc-proc-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    let ck_path = dir.join("engine.ckpt");
    std::fs::write(
        &model_path,
        ModelArtifact::new("hsw", tiny_model()).to_json().unwrap(),
    )
    .unwrap();
    // A plausible half-written file: valid magic, bogus CRC, torn body.
    std::fs::write(&ck_path, b"PMCCKPT1 deadbeef\n{\"clients\":[{\"trunc").unwrap();

    // The server must still boot and serve — printing the banner IS
    // the proof (spawn_serve blocks on it).
    let proc1 = spawn_serve(&model_path, &ck_path);
    {
        let mut c = PowerClient::connect(proc1.addr.as_str()).unwrap();
        assert!(!c.resume("anyone").unwrap(), "cold start: nothing warm");
        c.ping(0).unwrap();
    }
    let stderr = proc1.shutdown_clean();
    assert!(
        stderr.contains("checkpoint rejected"),
        "boot must report the quarantine: {stderr}"
    );
    assert!(stderr.contains("quarantined to"), "stderr: {stderr}");
    let corrupt = dir.join("engine.ckpt.corrupt");
    assert!(corrupt.exists(), "torn file must be moved aside");
    // The clean drain wrote a fresh, valid checkpoint at the original
    // path — the quarantine cleared the way for it.
    let fresh = std::fs::read(&ck_path).expect("drain rewrites the checkpoint");
    assert!(
        fresh.starts_with(b"PMCCKPT1 "),
        "not a checkpoint: {fresh:?}"
    );
    assert_ne!(fresh, b"PMCCKPT1 deadbeef\n{\"clients\":[{\"trunc".to_vec());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A training section whose fit width was tampered with (the CRC is
/// recomputable, so it verifies) is dropped — training and any armed
/// activation guard restart cold — and the boot says so instead of
/// silently discarding it.
#[test]
fn training_section_dropped_at_boot_is_reported() {
    let dir = std::env::temp_dir().join(format!("pmc-proc-train-drop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    let ck_path = dir.join("engine.ckpt");
    std::fs::write(
        &model_path,
        ModelArtifact::new("hsw", tiny_model()).to_json().unwrap(),
    )
    .unwrap();
    let training = TrainingSnapshot {
        words: vec![u64::MAX, 30],
        floats: vec![0.0; 8],
        events: vec![],
        base: None,
        accepted: 30,
        active_apes: vec![],
        shadow_apes: vec![],
        guard: None,
    };
    let data = CheckpointData {
        training: Some(training),
        ..CheckpointData::default()
    };
    std::fs::write(&ck_path, encode_checkpoint(&data)).unwrap();

    let proc1 = spawn_serve(&model_path, &ck_path);
    let stderr = proc1.shutdown_clean();
    assert!(
        stderr.contains("checkpoint restored: 0 client window(s) warm"),
        "stderr: {stderr}"
    );
    let line = stderr
        .lines()
        .find(|l| l.starts_with("checkpoint training section dropped ("))
        .unwrap_or_else(|| panic!("boot must report the dropped section: {stderr}"));
    assert!(line.contains("malformed serialized fit state"), "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}
