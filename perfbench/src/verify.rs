//! The reply verifier: every reply must equal, byte for byte, the
//! reply an in-process replay of the same request stream produces.
//!
//! The replay runs the serving engine and the trainer from the library
//! on a registry loaded from the same artifact file the program loads.
//! Each `ingest` reply's `power_w` must in addition equal, bit for bit,
//! the paper's Eq. 1 evaluated here from the model named in the reply.
//! Replies through the router are held to the same bytes as direct
//! replies, which is the routed = direct contract.

use crate::inputs::{Req, TOTAL_CORES};
use crate::procs::decode_payload;
use pmc_json::Json;
use pmc_model::model::PowerModel;
use pmc_serve::engine::{EngineConfig, EstimatorEngine};
use pmc_serve::protocol::{encode_frame_as, error_response, ok_response};
use pmc_serve::registry::ModelRegistry;
use pmc_serve::stats::ServerStats;
use pmc_serve::trainer::{Trainer, TrainerConfig};
use pmc_serve::{CounterSample, Encoding, ModelArtifact};
use std::sync::Arc;

/// Eq. 1 for one wire sample: rates are deltas per available core
/// cycle, and `P = β·V²f + γ·V + δ + Σ αᵢ·rᵢ·V²f` (f in GHz), summed in
/// event order.
pub fn eq1_power(model: &PowerModel, s: &CounterSample) -> f64 {
    let available = TOTAL_CORES as f64 * s.freq_mhz as f64 * 1e6 * s.duration_s;
    let v2f = s.voltage * s.voltage * (s.freq_mhz as f64 / 1000.0);
    let mut p = model.beta * v2f + model.gamma * s.voltage + model.delta;
    for (a, d) in model.alpha.iter().zip(&s.deltas) {
        p += a * (d / available) * v2f;
    }
    p
}

/// The in-process replay of the program.
pub struct Reference {
    registry: ModelRegistry,
    engine: EstimatorEngine,
    trainer: Trainer,
    stats: ServerStats,
}

/// Why a reply was not the expected one.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// No reply arrived (timeout or a dropped connection).
    Missing,
    /// The reply differs from the replay's.
    Bytes { expected: String, got: String },
    /// The replay's own `power_w` disagrees with Eq. 1.
    Eq1 { engine: f64, eq1: f64 },
}

impl Reference {
    /// A replay starting from the artifact the program loads.
    pub fn new(artifact_json: &str) -> Result<Self, String> {
        let registry = ModelRegistry::default();
        let artifact = ModelArtifact::from_json(artifact_json).map_err(|e| e.to_string())?;
        registry
            .load_and_activate(artifact)
            .map_err(|e| e.to_string())?;
        Ok(Reference {
            registry,
            engine: EstimatorEngine::new(EngineConfig::default()),
            trainer: Trainer::new(TrainerConfig::default()),
            stats: ServerStats::default(),
        })
    }

    /// Counters the replayed trainer kept: accepted, quarantined,
    /// activations, rollbacks.
    pub fn train_counts(&self) -> [u64; 4] {
        let read = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        [
            read(&self.stats.train_samples_accepted),
            read(&self.stats.train_samples_quarantined),
            read(&self.stats.auto_activations),
            read(&self.stats.auto_rollbacks),
        ]
    }

    /// The model an ingest reply names, looked up in the replay's
    /// registry (train-mix activates new versions under the reads). A
    /// reply naming no known model is replayed on the active one, so
    /// the replay's windows stay in step; its bytes then differ.
    fn named_model(&self, reply: Option<&Json>) -> Arc<ModelArtifact> {
        let result = reply.and_then(|r| r.get("result"));
        let name = result
            .and_then(|r| r.get("model"))
            .and_then(|m| m.as_str().ok());
        let version = result
            .and_then(|r| r.get("version"))
            .and_then(|v| v.as_u32().ok());
        name.zip(version)
            .and_then(|(n, v)| self.registry.get(n, v))
            .or_else(|| self.registry.active())
            .expect("the replay registry always has an active model")
    }

    /// Replays `req` for the client keyed `key` and checks `reply`, a
    /// raw payload in `enc`. Returns the expected reply.
    pub fn check(
        &self,
        key: u64,
        req: &Req,
        reply: Option<&[u8]>,
        enc: Encoding,
    ) -> (Json, Result<(), Mismatch>) {
        let decoded = reply.map(decode_payload);
        let mut eq1_check = Ok(());
        let expected = match req {
            Req::Ingest(sample) => {
                let artifact = self.named_model(decoded.as_ref().and_then(|d| d.as_ref().ok()));
                match self.engine.ingest(key, sample, &artifact) {
                    Ok(est) => {
                        let eq1 = eq1_power(&artifact.model, sample);
                        if eq1.to_bits() != est.power_w.to_bits() {
                            eq1_check = Err(Mismatch::Eq1 {
                                engine: est.power_w,
                                eq1,
                            });
                        }
                        ok_response(est.to_json_value())
                    }
                    Err(e) => error_response(&e),
                }
            }
            Req::Estimate(now_ns) => ok_response(
                self.engine
                    .estimate(key, *now_ns)
                    .map(|e| e.to_json_value())
                    .unwrap_or(Json::Null),
            ),
            Req::Train(sample, power_w) => {
                match self
                    .trainer
                    .train(&self.registry, &self.stats, TOTAL_CORES, sample, *power_w)
                {
                    Ok(j) => ok_response(j),
                    Err(e) => error_response(&e),
                }
            }
        };
        let verdict = match reply {
            None => Err(Mismatch::Missing),
            Some(got) => {
                let want = encode_frame_as(&expected, enc).expect("replies fit a frame");
                if &want[4..] == got {
                    eq1_check
                } else {
                    Err(Mismatch::Bytes {
                        expected: expected.to_string(),
                        got: decoded
                            .map(|d| d.map(|j| j.to_string()).unwrap_or_else(|e| e))
                            .unwrap_or_default(),
                    })
                }
            }
        };
        (expected, verdict)
    }

    /// The replay's engine, holding the final client windows.
    pub fn engine(&self) -> &EstimatorEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{artifact_events, fit_paper_model, Stream, StreamKind};
    use crate::procs::call;
    use pmc_serve::protocol::Request;
    use pmc_serve::server::{PowerServer, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn read_payload(s: &mut TcpStream) -> Vec<u8> {
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut p = vec![0u8; u32::from_be_bytes(len) as usize];
        s.read_exact(&mut p).unwrap();
        p
    }

    /// Streams `reqs` through an in-process server and returns the raw
    /// reply payloads.
    fn serve(artifact: &str, enc: Encoding, reqs: &[Req]) -> Vec<Vec<u8>> {
        let registry = Arc::new(ModelRegistry::default());
        registry
            .load_and_activate(ModelArtifact::from_json(artifact).unwrap())
            .unwrap();
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(config, registry).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let hello = Request::Hello {
            encoding: enc.as_str().into(),
        };
        call(&mut s, &hello, enc).unwrap();
        let resume = Request::Resume { token: "t".into() };
        call(&mut s, &resume, enc).unwrap();
        let out = reqs
            .iter()
            .map(|r| {
                s.write_all(&r.frame(enc)).unwrap();
                read_payload(&mut s)
            })
            .collect();
        drop(s);
        server.shutdown();
        out
    }

    #[test]
    fn real_server_replies_pass_and_a_flipped_bit_fails() {
        let (artifact, data, _) = fit_paper_model(5).unwrap();
        let events = artifact_events(&artifact).unwrap();
        let mut stream = Stream::new(StreamKind::Agent, &data, &events, 5);
        let reqs: Vec<Req> = (0..40).map(|_| stream.next_req()).collect();
        for enc in [Encoding::Json, Encoding::Binary] {
            let replies = serve(&artifact, enc, &reqs);
            let reference = Reference::new(&artifact).unwrap();
            for (req, reply) in reqs.iter().zip(&replies) {
                let (_, verdict) = reference.check(1, req, Some(reply), enc);
                assert_eq!(verdict, Ok(()), "{req:?}");
            }
            // Replaying again from a fresh reference with one reply
            // corrupted: exactly that reply fails.
            let reference = Reference::new(&artifact).unwrap();
            let mut bad = replies.clone();
            let last = bad[3].len() - 3;
            bad[3][last] ^= 1;
            let fails: Vec<usize> = reqs
                .iter()
                .zip(&bad)
                .enumerate()
                .filter(|(_, (req, reply))| reference.check(1, req, Some(reply), enc).1.is_err())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fails, vec![3]);
        }
    }

    #[test]
    fn missing_and_forged_replies_fail() {
        let (artifact, data, _) = fit_paper_model(5).unwrap();
        let events = artifact_events(&artifact).unwrap();
        let reference = Reference::new(&artifact).unwrap();
        let mut stream = Stream::new(StreamKind::Agent, &data, &events, 1);
        let req = stream.next_req();
        let (_, verdict) = reference.check(1, &req, None, Encoding::Json);
        assert_eq!(verdict, Err(Mismatch::Missing));
        let forged = br#"{"status":"ok","result":{"model":"paper","version":9}}"#;
        let (_, verdict) = reference.check(2, &req, Some(forged), Encoding::Json);
        assert!(
            matches!(verdict, Err(Mismatch::Bytes { .. })),
            "{verdict:?}"
        );
    }

    #[test]
    fn train_replies_match_the_replayed_trainer() {
        let (artifact, _, _) = fit_paper_model(5).unwrap();
        let events = artifact_events(&artifact).unwrap();
        let drifted = crate::inputs::drifted_dataset(5).unwrap();
        let mut labels = Stream::new(StreamKind::Labels, &drifted, &events, 5);
        let reqs: Vec<Req> = (0..120).map(|_| labels.next_req()).collect();
        let replies = serve(&artifact, Encoding::Json, &reqs);
        let reference = Reference::new(&artifact).unwrap();
        for (req, reply) in reqs.iter().zip(&replies) {
            assert_eq!(
                reference.check(7, req, Some(reply), Encoding::Json).1,
                Ok(())
            );
        }
        let [accepted, quarantined, activations, _] = reference.train_counts();
        assert_eq!(accepted + quarantined, 120);
        assert!(quarantined > 0, "some labels are poisoned");
        assert!(activations >= 1, "the drifted labels win the shadow race");
    }

    #[test]
    fn eq1_matches_the_fitted_model_on_campaign_rows() {
        let (artifact, _, _) = fit_paper_model(5).unwrap();
        let model = ModelArtifact::from_json(&artifact).unwrap().model;
        let s = CounterSample {
            time_ns: 1,
            duration_s: 1.0,
            freq_mhz: 2000,
            voltage: 0.9,
            deltas: vec![1e9; model.events.len()],
            missing: Vec::new(),
        };
        let rates: Vec<f64> = s.deltas.iter().map(|d| d / (24.0 * 2000.0 * 1e6)).collect();
        let p = model.predict_raw(&rates, 0.9, 2000).unwrap();
        assert_eq!(eq1_power(&model, &s).to_bits(), p.to_bits());
    }
}
