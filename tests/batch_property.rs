//! Equivalence property for the served ingest path and the wire codec:
//! for seeded random interleavings of N concurrent clients streaming
//! samples against M models (an active model plus a previous-version
//! fallback of a different width), a server spoken to in JSON and one
//! spoken to in `PMCB1` binary must both answer every client exactly
//! as an in-process sequential replay of that client's samples does —
//! however the clients' requests interleave across the workers.
//!
//! The comparison keys on `f64::to_bits` of every power field — both
//! codecs round-trip f64 exactly, so any arithmetic divergence between
//! the served and replayed ingests shows up as a hard bit mismatch,
//! not a tolerance failure. Errors count too: a request the replay
//! refuses must be refused identically by the server.
//!
//! Seeds come from `BATCH_SEED` (one run) or default to a small
//! matrix, mirroring the chaos suite's `CHAOS_SEED` convention.

use pmc_serve::protocol::{error_response, unwrap_response};
use pmc_serve::registry::ModelRegistry;
use pmc_serve::server::{PowerServer, ServerConfig};
use pmc_serve::{
    CounterSample, Encoding, EngineConfig, EstimatorEngine, ModelArtifact, PowerClient, ServeError,
};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 6;
const SAMPLES_PER_CLIENT: usize = 20;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e9b5);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1).
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn fit(events: &[pmc_events::PapiEvent]) -> pmc_model::model::PowerModel {
    let rows: Vec<_> = (0..24)
        .map(|i| pmc_model::dataset::SampleRow {
            workload_id: i as u32,
            workload: format!("w{i}"),
            suite: "syn".into(),
            phase: "main".into(),
            threads: 24,
            freq_mhz: [1200, 1600, 2000, 2400][i % 4],
            duration_s: 1.0,
            voltage: 0.8 + 0.05 * (i % 4) as f64,
            power: 70.0 + 3.0 * (i as f64),
            rates: (0..pmc_events::PapiEvent::COUNT)
                .map(|j| ((i * 13 + j * 7) % 41) as f64 / 4100.0)
                .collect(),
        })
        .collect();
    let data = pmc_model::dataset::Dataset::from_rows(rows);
    pmc_model::model::PowerModel::fit(&data, events).unwrap()
}

/// The two served models: wide (loaded first, v1, the fallback) and
/// narrow (v2, active).
fn models() -> (pmc_model::model::PowerModel, pmc_model::model::PowerModel) {
    let wide = fit(&[
        pmc_events::PapiEvent::PRF_DM,
        pmc_events::PapiEvent::TOT_CYC,
        pmc_events::PapiEvent::TLB_IM,
    ]);
    let narrow = fit(&[
        pmc_events::PapiEvent::PRF_DM,
        pmc_events::PapiEvent::TOT_CYC,
    ]);
    (wide, narrow)
}

/// One client's full sample schedule, derived from the seed alone so
/// both servers replay the identical stream. Mixes widths (narrow
/// samples hit the active model, wide ones fall back to the previous
/// version), declared-missing counters, and zero voltages.
fn schedule(seed: u64, client: usize) -> Vec<CounterSample> {
    let mut rng = seed
        .wrapping_mul(0x2545f4914f6cdd1d)
        .wrapping_add(client as u64 + 1);
    (0..SAMPLES_PER_CLIENT)
        .map(|i| {
            let freq_mhz = [1200u32, 1600, 2000, 2400][(splitmix64(&mut rng) % 4) as usize];
            let duration_s = 0.25;
            let avail = 24.0 * freq_mhz as f64 * 1e6 * duration_s;
            // 1 in 4 samples is wide (3 deltas → previous-model
            // fallback); the rest match the active narrow model.
            let width = if splitmix64(&mut rng) % 4 == 0 { 3 } else { 2 };
            let deltas: Vec<f64> = (0..width)
                .map(|_| (0.001 + 0.4 * unit(&mut rng)) * avail)
                .collect();
            // Occasional unreadable counter / dead voltage readout.
            let missing = if splitmix64(&mut rng) % 8 == 0 {
                vec![(splitmix64(&mut rng) % width as u64) as usize]
            } else {
                vec![]
            };
            let voltage = if splitmix64(&mut rng) % 10 == 0 {
                0.0
            } else {
                0.75 + 0.25 * unit(&mut rng)
            };
            CounterSample {
                time_ns: (i as u64 + 1) * 250_000_000,
                duration_s,
                freq_mhz,
                voltage,
                deltas,
                missing,
            }
        })
        .collect()
}

/// Everything observable about one response, with floats as raw bits.
#[derive(Debug, PartialEq)]
enum Outcome {
    Est {
        time_ns: u64,
        power_bits: u64,
        window_bits: u64,
        samples_in_window: usize,
        out_of_envelope: bool,
        degraded: bool,
        reasons: Vec<String>,
        model: String,
        version: u32,
    },
    Err(String),
}

fn outcome(result: Result<pmc_serve::Estimate, ServeError>) -> Outcome {
    match result {
        Ok(e) => Outcome::Est {
            time_ns: e.time_ns,
            power_bits: e.power_w.to_bits(),
            window_bits: e.window_power_w.to_bits(),
            samples_in_window: e.samples_in_window,
            out_of_envelope: e.out_of_envelope,
            degraded: e.degraded,
            reasons: e.degraded_reasons,
            model: e.model,
            version: e.version,
        },
        Err(e) => Outcome::Err(format!("{e:?}")),
    }
}

/// The reference: each client's schedule replayed in process, one
/// `ingest` after another, serving a sample the active model cannot
/// read from the previous version (flagged `stale_model`) the way the
/// server does. Errors go through the wire's error frame so they
/// compare like the ones a client decodes.
fn replay(seed: u64) -> Vec<Vec<Outcome>> {
    let (wide, narrow) = models();
    let artifact = |model, version| {
        let mut a = ModelArtifact::new("hsw", model);
        a.version = version;
        Arc::new(a)
    };
    let (previous, active) = (artifact(wide, 1), artifact(narrow, 2));
    let engine = EstimatorEngine::new(EngineConfig::default());
    (0..CLIENTS)
        .map(|id| {
            let client = id as u64;
            schedule(seed, id)
                .iter()
                .map(|s| {
                    let result = match engine.ingest(client, s, &active) {
                        Err(ServeError::WidthMismatch { .. })
                            if s.deltas.len() == previous.model.events.len() =>
                        {
                            engine.ingest(client, s, &previous).map(|mut est| {
                                est.degraded = true;
                                est.degraded_reasons.push("stale_model:hsw@v1".into());
                                est
                            })
                        }
                        other => other,
                    };
                    outcome(result.map_err(|e| unwrap_response(error_response(&e)).unwrap_err()))
                })
                .collect()
        })
        .collect()
}

/// Starts a server with both models loaded (wide v1 previous, narrow
/// v2 active), drives all clients concurrently with seeded jitter —
/// each speaking `encoding` on the wire, negotiated with a leading
/// `hello` — and returns each client's response sequence.
fn run_server(seed: u64, encoding: Encoding) -> Vec<Vec<Outcome>> {
    let cfg = ServerConfig {
        workers: 2,
        queue_depth: 64,
        max_inflight: 64,
        ..ServerConfig::default()
    };
    let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
    let addr = server.addr();
    let mut admin = PowerClient::connect(addr).unwrap();
    let (wide, narrow) = models();
    assert_eq!(admin.load_model("hsw", &wide, true).unwrap(), 1);
    assert_eq!(admin.load_model("hsw", &narrow, true).unwrap(), 2);

    let handles: Vec<_> = (0..CLIENTS)
        .map(|id| {
            std::thread::spawn(move || {
                let mut rng = seed.wrapping_add(0xc0ffee * (id as u64 + 1));
                let mut c = PowerClient::connect(addr).unwrap();
                if encoding != Encoding::Json {
                    assert_eq!(c.negotiate_encoding(encoding).unwrap(), encoding);
                }
                schedule(seed, id)
                    .iter()
                    .map(|s| {
                        // Seeded jitter varies how client streams
                        // interleave in the worker queue.
                        let pause = splitmix64(&mut rng) % 400;
                        std::thread::sleep(Duration::from_micros(pause));
                        outcome(c.ingest(s))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let out = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    server.shutdown();
    out
}

#[test]
fn json_and_binary_servers_answer_like_a_sequential_replay() {
    let seeds: Vec<u64> = match std::env::var("BATCH_SEED") {
        Ok(s) => vec![s.parse().expect("BATCH_SEED must be a u64")],
        Err(_) => vec![1, 2, 3],
    };
    for seed in seeds {
        let reference = replay(seed);
        for enc in [Encoding::Json, Encoding::Binary] {
            let got = run_server(seed, enc);
            for (id, (want, have)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(want.len(), SAMPLES_PER_CLIENT);
                assert_eq!(have.len(), SAMPLES_PER_CLIENT);
                for (i, (w, g)) in want.iter().zip(have).enumerate() {
                    assert_eq!(
                        w,
                        g,
                        "seed {seed}: client {id} sample {i} diverged between \
                         the sequential replay and the {} server",
                        enc.as_str()
                    );
                }
            }
        }
    }
}
