//! The traced layer replay: the run's own generated inputs pushed
//! through each layer's public functions in-process, each call timed
//! from outside the layer.

use crate::inputs::{Req, TOTAL_CORES};
use crate::stats::median;
use pmc_json::Json;
use pmc_router::HashRing;
use pmc_serve::checkpoint::{encode_checkpoint, CheckpointData};
use pmc_serve::engine::{EngineConfig, EstimatorEngine};
use pmc_serve::protocol::{encode_frame_as, parse_frame, Request, MAX_FRAME_BYTES};
use pmc_serve::registry::ModelRegistry;
use pmc_serve::stats::ServerStats;
use pmc_serve::tokenhash::resume_key;
use pmc_serve::trainer::{Trainer, TrainerConfig};
use pmc_serve::{Encoding, ModelArtifact};
use pmc_stats::online::OnlineOls;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls per layer the replay times at most.
const MAX_CALLS: usize = 4000;

/// Median wall time of `f` over `items`, nanoseconds; 0 when empty.
fn time_each<T>(items: impl Iterator<Item = T>, mut f: impl FnMut(T)) -> f64 {
    let mut ns: Vec<f64> = items
        .take(MAX_CALLS)
        .map(|item| {
            let t = Instant::now();
            f(item);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut ns)
}

/// Median per-call times of each layer, nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub encode_json: f64,
    pub encode_bin: f64,
    pub decode_json: f64,
    pub decode_bin: f64,
    pub ingest: f64,
    pub estimate: f64,
    pub batch2: f64,
    pub train: f64,
    pub ols_push: f64,
    pub ring_owner: f64,
    pub checkpoint_encode: f64,
}

impl LayerTimes {
    /// Server self time of one request outside its core and sockets:
    /// request decode, the engine or trainer call, reply encode.
    pub fn self_ns(&self, req: &Req, enc: Encoding) -> f64 {
        let (decode, encode) = match enc {
            Encoding::Json => (self.decode_json, self.encode_json),
            Encoding::Binary => (self.decode_bin, self.encode_bin),
        };
        let work = match req {
            Req::Ingest(_) => self.ingest,
            Req::Estimate(_) => self.estimate,
            Req::Train(..) => self.train,
        };
        decode + work + encode
    }
}

/// Everything the replay needs from the run.
pub struct Replay<'a> {
    pub artifact_json: &'a str,
    /// Every sent request with the reply the reference expected.
    pub exchanges: &'a [(Req, Json)],
    /// The final client windows (the reference engine after the run).
    pub final_windows: &'a EstimatorEngine,
    pub routed: bool,
}

/// Times each layer on the run's inputs.
pub fn replay(r: &Replay) -> Result<LayerTimes, String> {
    let artifact = Arc::new(ModelArtifact::from_json(r.artifact_json).map_err(|e| e.to_string())?);
    let mut t = LayerTimes::default();

    // Codec: every request decoded, and its expected reply encoded, in
    // both encodings — the server's half of the wire path.
    let codec = |enc: Encoding| -> (f64, f64) {
        let frames: Vec<Vec<u8>> = r
            .exchanges
            .iter()
            .take(MAX_CALLS)
            .map(|(q, _)| q.frame(enc))
            .collect();
        let decode = time_each(frames.iter(), |f| {
            let (json, _) = parse_frame(f, MAX_FRAME_BYTES)
                .ok()
                .flatten()
                .expect("generated frames parse");
            black_box(Request::from_json_value(&json).expect("generated requests decode"));
        });
        let encode = time_each(r.exchanges.iter(), |(_, reply)| {
            black_box(encode_frame_as(reply, enc).expect("replies fit a frame"));
        });
        (encode, decode)
    };
    (t.encode_json, t.decode_json) = codec(Encoding::Json);
    (t.encode_bin, t.decode_bin) = codec(Encoding::Binary);

    // Engine: ingests and estimates on a fresh engine, in stream order.
    let engine = EstimatorEngine::new(EngineConfig::default());
    let ingests: Vec<_> = r
        .exchanges
        .iter()
        .filter_map(|(q, _)| match q {
            Req::Ingest(s) => Some(s),
            _ => None,
        })
        .collect();
    t.ingest = time_each(ingests.iter(), |s| {
        black_box(engine.ingest(1, s, &artifact).ok());
    });
    t.estimate = time_each(
        r.exchanges.iter().filter_map(|(q, _)| match q {
            Req::Estimate(now) => Some(*now),
            _ => None,
        }),
        |now| {
            black_box(engine.estimate(1, now));
        },
    );
    // A coalesced batch of two, as two connections fill it.
    let batch_engine = EstimatorEngine::new(EngineConfig::default());
    t.batch2 = time_each(ingests.chunks_exact(2), |pair| {
        let batch = [(1, pair[0].clone()), (2, pair[1].clone())];
        black_box(batch_engine.estimate_batch(&batch, &artifact));
    });

    // Trainer and the incremental OLS it feeds: labels in stream order.
    let labels: Vec<_> = r
        .exchanges
        .iter()
        .filter_map(|(q, reply)| match q {
            Req::Train(s, p) => Some((s, *p, reply)),
            _ => None,
        })
        .collect();
    if !labels.is_empty() {
        let registry = ModelRegistry::default();
        registry
            .load_and_activate((*artifact).clone())
            .map_err(|e| e.to_string())?;
        let trainer = Trainer::new(TrainerConfig::default());
        let stats = ServerStats::default();
        t.train = time_each(labels.iter(), |(s, p, _)| {
            black_box(trainer.train(&registry, &stats, TOTAL_CORES, s, *p).ok());
        });
        let width = artifact.model.events.len() + 3;
        let mut ols = OnlineOls::new(width, TrainerConfig::default().resync_every);
        let accepted = labels.iter().filter(|(_, _, reply)| {
            reply
                .get("result")
                .and_then(|res| res.get("accepted"))
                .and_then(|a| a.as_bool().ok())
                == Some(true)
        });
        t.ols_push = time_each(accepted, |(s, p, _)| {
            let available = TOTAL_CORES as f64 * s.freq_mhz as f64 * 1e6 * s.duration_s;
            let v2f = s.voltage * s.voltage * (s.freq_mhz as f64 / 1000.0);
            let mut row: Vec<f64> = s.deltas.iter().map(|d| d / available * v2f).collect();
            row.extend_from_slice(&[v2f, s.voltage, 1.0]);
            black_box(ols.push(&row, *p).ok());
        });
    }

    if r.routed {
        // Ring lookups are tens of nanoseconds: time them in blocks.
        let ring = HashRing::build([("shard-1", 1), ("shard-2", 1)].into_iter(), |_| true);
        let keys: Vec<u64> = (0..1000)
            .map(|i| resume_key(&format!("agent-{i}")))
            .collect();
        let mut per_block: Vec<f64> = (0..50)
            .map(|_| {
                let t0 = Instant::now();
                for &k in &keys {
                    black_box(ring.owner(black_box(k)));
                }
                t0.elapsed().as_nanos() as f64 / keys.len() as f64
            })
            .collect();
        t.ring_owner = median(&mut per_block);

        let data = CheckpointData {
            // The registry gives the loaded artifact version 1.
            active: Some((artifact.name.clone(), 1)),
            clients: r.final_windows.export_clients(|_| true),
            training: None,
        };
        t.checkpoint_encode = time_each(0..200, |_| {
            black_box(encode_checkpoint(&data));
        });
    }
    Ok(t)
}
