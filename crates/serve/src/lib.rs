//! # pmc-serve
//!
//! The online power-telemetry service: everything needed to deploy a
//! fitted [`pmc_model::model::PowerModel`] as a live software power
//! meter, the production use case the paper motivates (once the six
//! counters are chosen, a runtime needs one counter group plus the
//! voltage readout — no wattmeter).
//!
//! Three layers:
//!
//! 1. **[`registry`]** — named, versioned model artifacts
//!    ([`artifact::ModelArtifact`]) with load / activate / rollback.
//!    Loading validates that the model's events schedule into a
//!    *single* Haswell counter group
//!    ([`pmc_events::scheduler::CounterScheduler::validate_single_run`]):
//!    a model that needs multiplexed groups cannot be driven online.
//! 2. **[`engine`]** — the streaming estimator: per-client sliding
//!    windows over timestamped counter-delta samples, normalized to
//!    events per available core cycle exactly as the offline dataset
//!    assembly does, with out-of-envelope and staleness flags.
//! 3. **[`server`] / [`client`] / [`protocol`]** — a
//!    readiness-based server speaking 4-byte-length-prefixed frames
//!    (`ingest`, `estimate`, `load_model`, `activate`,
//!    `rollback`, `stats`, `ping`, `healthz`, `readyz`, `metrics`,
//!    `resume`, `checkpoint`) — payloads in UTF-8 JSON by default, or
//!    the self-describing `PMCB1` tagged binary encoding negotiated
//!    per connection with a leading `hello {"encoding": "binary"}`
//!    op ([`protocol::Encoding`]) — over localhost TCP. One
//!    non-blocking core thread multiplexes every connection over a
//!    **supervised** worker pool that takes one job per dequeue (an
//!    `ingest` is one Eq.-1 evaluation): a worker panic is contained
//!    by `catch_unwind` (the affected request gets a typed
//!    `internal_error` frame, the slot is respawned with backoff,
//!    flapping slots are retired and surfaced in `readyz`),
//!    with admission control (connection and in-flight budgets
//!    answered by typed `overloaded` frames), deadline-aware load
//!    shedding, slow-client buffering under read/write deadlines, and
//!    a graceful drain that finishes in-flight work, notifies clients
//!    with a `draining` frame, writes a final [`checkpoint`] and
//!    flushes the registry. Health probes and the Prometheus
//!    `metrics` scrape are answered inline by the core — they work
//!    even with every worker wedged. The client side composes
//!    jittered retry/backoff ([`RetryPolicy`]) with a circuit breaker
//!    ([`BreakerPolicy`]) that fails fast after consecutive
//!    overload/timeout failures.
//!
//! Durable hot restart: a connection that issues `resume TOKEN` keys
//! its sliding window by the token instead of the socket; with
//! [`server::ServerConfig::checkpoint_path`] set those windows (plus
//! the active-model pin) survive crashes via an atomic, CRC-checked
//! checkpoint file — see [`checkpoint`].
//!
//! ## Quick example
//!
//! ```no_run
//! use pmc_serve::client::PowerClient;
//! use pmc_serve::registry::ModelRegistry;
//! use pmc_serve::server::{PowerServer, ServerConfig};
//! use std::sync::Arc;
//!
//! let server = PowerServer::start(ServerConfig::default(),
//!                                 Arc::new(ModelRegistry::default())).unwrap();
//! let mut client = PowerClient::connect(server.addr()).unwrap();
//! # let model = unimplemented!();
//! client.load_model("haswell-ep", &model, true).unwrap();
//! // …stream CounterSamples with client.ingest(…)
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod checkpoint;
pub mod cli;
pub mod client;
pub mod engine;
mod error;
pub mod fsutil;
mod job;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod stats;
pub mod tokenhash;
pub mod trainer;

pub use artifact::ModelArtifact;
pub use checkpoint::{CheckpointData, CheckpointOutcome};
pub use client::{BreakerPolicy, ClientStats, HedgeStats, PowerClient, RetryPolicy};
pub use engine::{ClientSnapshot, CounterSample, EngineConfig, Estimate, EstimatorEngine};
pub use error::ServeError;
pub use protocol::Encoding;
pub use registry::{ModelRegistry, RecoveryReport};
pub use server::{CheckpointRestore, PowerServer, ServerConfig};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! Synthetic fitted models for unit tests — no simulator needed:
    //! power is an exact linear function of a few rates, so fits are
    //! well-posed and predictions are reproducible to machine epsilon.

    use crate::artifact::ModelArtifact;
    use pmc_events::PapiEvent;
    use pmc_model::dataset::{Dataset, SampleRow};
    use pmc_model::model::PowerModel;
    use std::sync::Arc;

    /// A deterministic synthetic dataset spanning 1200–2600 MHz whose
    /// power is exactly linear in the tiny/oversized event rates.
    pub fn tiny_dataset(n: usize) -> Dataset {
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

    /// Events of the servable test model: 2 programmable + 1 fixed.
    pub fn tiny_events() -> Vec<PapiEvent> {
        vec![PapiEvent::PRF_DM, PapiEvent::TOT_CYC, PapiEvent::TLB_IM]
    }

    /// A fitted model that schedules into a single counter group.
    pub fn tiny_model() -> PowerModel {
        PowerModel::fit(&tiny_dataset(40), &tiny_events()).unwrap()
    }

    /// The tiny model wrapped as a version-1 artifact.
    pub fn tiny_artifact() -> Arc<ModelArtifact> {
        let mut a = ModelArtifact::new("hsw", tiny_model());
        a.version = 1;
        Arc::new(a)
    }

    /// A servable model with one event fewer than [`tiny_model`] —
    /// for width-mismatch and model-fallback tests.
    pub fn narrow_model() -> PowerModel {
        PowerModel::fit(&tiny_dataset(40), &[PapiEvent::PRF_DM, PapiEvent::TOT_CYC]).unwrap()
    }

    /// A fitted model with five programmable events — more than the
    /// four Haswell slots, so it must be rejected for online serving.
    pub fn oversized_model() -> PowerModel {
        let events = vec![
            PapiEvent::PRF_DM,
            PapiEvent::TLB_IM,
            PapiEvent::STL_ICY,
            PapiEvent::FUL_CCY,
            PapiEvent::BR_MSP,
        ];
        PowerModel::fit(&tiny_dataset(40), &events).unwrap()
    }
}
