//! The streaming estimator engine.
//!
//! Each client streams timestamped counter-delta samples (one delta per
//! model event, in model-event order) plus the voltage readout. The
//! engine normalizes deltas to events per available core cycle exactly
//! as the offline [`pmc_model::dataset`] assembly does —
//! `count / (total_cores · f_clk · duration)` — evaluates Equation 1,
//! and maintains a per-client sliding window whose mean smooths sensor
//! noise the way the paper's trace post-processing averages runs.
//!
//! Every estimate carries quality flags: `out_of_envelope` when the
//! sample's (V, f) operating point falls outside the model's training
//! envelope (extrapolation — the estimate is untrustworthy), and
//! `stale` when the estimate is queried long after the last sample
//! arrived.
//!
//! ## Degraded-mode estimation
//!
//! Real counter streams lose readings: a multiplexing gap leaves a
//! counter unread, a sensor drops out, an overflowed counter reports
//! garbage. Rather than reject the whole sample, the engine substitutes
//! the **last good rate** seen for that counter on this client (or 0.0
//! when it has no history) and flags the estimate `degraded`, with one
//! machine-readable reason token per substitution:
//!
//! - `stale_counter:<EVT>` — the delta was missing/non-finite/negative;
//!   the client's last good rate for `<EVT>` was used.
//! - `no_history:<EVT>` — same, but no good rate has ever been seen, so
//!   0.0 was used.
//! - `saturated_counter:<EVT>` — the delta implied an implausible
//!   events-per-cycle rate (counter overflow); substituted likewise.
//! - `stale_voltage` — the voltage readout was non-finite or
//!   non-positive; the last good readout was used.
//!
//! Only structurally hopeless samples remain hard errors: a delta-count
//! mismatch ([`ServeError::WidthMismatch`]), a bad duration/frequency,
//! or a bad voltage with no previous good readout.

use crate::artifact::ModelArtifact;
use crate::error::ServeError;
use pmc_events::MAX_PLAUSIBLE_EVENTS_PER_CYCLE;
use pmc_json::Json;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Sliding-window length in samples.
    pub window: usize,
    /// Total cores of the monitored machine (normalization constant).
    pub total_cores: u32,
    /// An estimate older than this is flagged stale.
    pub staleness_ns: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window: 8,
            total_cores: 24,
            staleness_ns: 5_000_000_000, // 5 s
        }
    }
}

/// One timestamped counter-delta sample from a client.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Client timestamp, nanoseconds (monotonic per client).
    pub time_ns: u64,
    /// Length of the sampling interval, seconds.
    pub duration_s: f64,
    /// Operating frequency during the interval, MHz.
    pub freq_mhz: u32,
    /// Core voltage readout, volts.
    pub voltage: f64,
    /// Raw counter deltas, one per model event in model-event order.
    pub deltas: Vec<f64>,
    /// Indices into `deltas` the client knows are unread (counter
    /// multiplexing gaps, sensor dropouts). JSON cannot carry NaN, so
    /// "this reading does not exist" travels out-of-band here; the
    /// engine treats a listed delta exactly like a non-finite one.
    pub missing: Vec<usize>,
}

impl CounterSample {
    /// Serializes to a JSON value (the wire shape). The `missing`
    /// field is omitted when empty, keeping the common case compact.
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("time_ns", Json::from(self.time_ns)),
            ("duration_s", Json::from(self.duration_s)),
            ("freq_mhz", Json::from(self.freq_mhz)),
            ("voltage", Json::from(self.voltage)),
            ("deltas", Json::from(&self.deltas[..])),
        ];
        if !self.missing.is_empty() {
            fields.push((
                "missing",
                Json::Arr(self.missing.iter().map(|&i| Json::from(i as u64)).collect()),
            ));
        }
        Json::obj(fields)
    }

    /// Reads a sample from a JSON value. An absent `missing` field
    /// means no declared gaps.
    pub fn from_json_value(v: &Json) -> Result<Self, ServeError> {
        let missing = match v.get("missing") {
            Some(m) => m
                .as_arr()?
                .iter()
                .map(Json::as_usize)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(CounterSample {
            time_ns: v.u64_field("time_ns")?,
            duration_s: v.f64_field("duration_s")?,
            freq_mhz: v.u32_field("freq_mhz")?,
            voltage: v.f64_field("voltage")?,
            deltas: v.f64_vec_field("deltas")?,
            missing,
        })
    }
}

/// A power estimate with quality flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Timestamp of the newest contributing sample.
    pub time_ns: u64,
    /// Instantaneous estimate from the newest sample, watts.
    pub power_w: f64,
    /// Sliding-window mean estimate, watts.
    pub window_power_w: f64,
    /// Samples currently in the window.
    pub samples_in_window: usize,
    /// True if (V, f) fell outside the model's training envelope.
    pub out_of_envelope: bool,
    /// True if the estimate is older than the staleness budget.
    pub stale: bool,
    /// True if any input was substituted (missing counter, stale
    /// voltage, saturated counter) — see [`Self::degraded_reasons`].
    pub degraded: bool,
    /// Machine-readable reason tokens for each substitution, e.g.
    /// `stale_counter:PAPI_TOT_CYC` or `stale_voltage`. Empty when the
    /// estimate is not degraded.
    pub degraded_reasons: Vec<String>,
    /// Name of the model that produced the estimate.
    pub model: String,
    /// Version of the model that produced the estimate.
    pub version: u32,
}

impl Estimate {
    /// Serializes to a JSON value (the wire shape).
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("time_ns", Json::from(self.time_ns)),
            ("power_w", Json::from(self.power_w)),
            ("window_power_w", Json::from(self.window_power_w)),
            ("samples_in_window", Json::from(self.samples_in_window)),
            ("out_of_envelope", Json::Bool(self.out_of_envelope)),
            ("stale", Json::Bool(self.stale)),
            ("degraded", Json::Bool(self.degraded)),
            (
                "degraded_reasons",
                Json::Arr(
                    self.degraded_reasons
                        .iter()
                        .map(|r| Json::from(r.as_str()))
                        .collect(),
                ),
            ),
            ("model", Json::from(self.model.as_str())),
            ("version", Json::from(self.version)),
        ])
    }

    /// Reads an estimate from a JSON value.
    pub fn from_json_value(v: &Json) -> Result<Self, ServeError> {
        let as_bool = |name: &'static str| -> Result<bool, ServeError> {
            v.field(name)?.as_bool().map_err(ServeError::from)
        };
        Ok(Estimate {
            time_ns: v.u64_field("time_ns")?,
            power_w: v.f64_field("power_w")?,
            window_power_w: v.f64_field("window_power_w")?,
            samples_in_window: v.usize_field("samples_in_window")?,
            out_of_envelope: as_bool("out_of_envelope")?,
            stale: as_bool("stale")?,
            degraded: as_bool("degraded")?,
            degraded_reasons: v
                .arr_field("degraded_reasons")?
                .iter()
                .map(|r| r.as_str().map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?,
            model: v.str_field("model")?.to_string(),
            version: v.u32_field("version")?,
        })
    }
}

/// Per-client sliding-window state.
#[derive(Debug, Default)]
struct ClientState {
    /// `(time_ns, instantaneous power)` of recent samples.
    window: VecDeque<(u64, f64)>,
    /// Model identity the window was built under; a model switch
    /// invalidates the window (estimates are not comparable).
    model_id: Option<(String, u32)>,
    /// Last good normalized rate per model event — the degraded-mode
    /// substitute when a counter reading is missing or implausible.
    last_rates: Vec<Option<f64>>,
    /// Last good voltage readout — the substitute when the sensor
    /// reports NaN or zero.
    last_voltage: Option<f64>,
    last: Option<Estimate>,
    /// Monotone per-window modification counter, bumped on every
    /// ingest. Replication compares this against the last sequence it
    /// drained to decide whether a window is dirty, so anti-entropy
    /// costs one integer compare per clean window instead of a full
    /// record diff.
    dirty_seq: u64,
}

/// A client's full sliding-window state, exported for checkpointing
/// and re-imported on restart. This is everything the engine knows
/// about a client: restoring a snapshot and then ingesting a sample
/// behaves exactly as if the intervening process death never happened.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSnapshot {
    /// The engine key the state belongs to.
    pub client: u64,
    /// Model identity the window was built under.
    pub model_id: Option<(String, u32)>,
    /// `(time_ns, instantaneous power)` of recent samples, oldest first.
    pub window: Vec<(u64, f64)>,
    /// Last good normalized rate per model event.
    pub last_rates: Vec<Option<f64>>,
    /// Last good voltage readout.
    pub last_voltage: Option<f64>,
    /// The last estimate served.
    pub last: Option<Estimate>,
    /// Modification counter at export time (see [`ClientState`]).
    pub dirty_seq: u64,
}

/// How many locks the client map is split across. Connection ids are
/// sequential, so `id % SHARDS` spreads neighbors over distinct locks
/// and concurrent ingests from different clients rarely contend.
const SHARDS: u64 = 16;

/// The multi-client streaming estimator. Client state is sharded
/// across [`SHARDS`] independently locked maps so the readiness core's
/// worker pool does not serialize on a single engine lock at high
/// client counts.
#[derive(Debug)]
pub struct EstimatorEngine {
    config: EngineConfig,
    shards: [Mutex<HashMap<u64, ClientState>>; SHARDS as usize],
}

impl EstimatorEngine {
    /// Creates an engine with the given tuning.
    pub fn new(config: EngineConfig) -> Self {
        EstimatorEngine {
            config,
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    /// Locks a shard, recovering from poisoning: a worker that
    /// panicked while holding the lock leaves per-client state that is
    /// at worst one sample behind — self-healing on the next ingest —
    /// so propagating the poison would amplify one contained panic
    /// into an engine-wide outage.
    fn lock(shard: &Mutex<HashMap<u64, ClientState>>) -> MutexGuard<'_, HashMap<u64, ClientState>> {
        shard.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shard(&self, client: u64) -> &Mutex<HashMap<u64, ClientState>> {
        &self.shards[(client % SHARDS) as usize]
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Validates and ingests one sample for `client`, returning the
    /// updated estimate. Missing or implausible readings degrade the
    /// estimate instead of failing it (see the module docs); only
    /// structurally hopeless samples are errors.
    ///
    /// One pass under the client's shard lock: degraded-mode
    /// substitution against the client's history, Eq. 1 through
    /// [`pmc_model::model::PowerModel::predict_raw`], then the window
    /// update.
    pub fn ingest(
        &self,
        client: u64,
        sample: &CounterSample,
        artifact: &Arc<ModelArtifact>,
    ) -> Result<Estimate, ServeError> {
        let model = &artifact.model;
        if sample.deltas.len() != model.events.len() {
            return Err(ServeError::WidthMismatch {
                expected: model.events.len(),
                got: sample.deltas.len(),
            });
        }
        if !(sample.duration_s > 0.0 && sample.duration_s.is_finite()) {
            return Err(ServeError::BadSample {
                reason: "duration_s must be positive and finite".into(),
            });
        }
        if sample.freq_mhz == 0 {
            return Err(ServeError::BadSample {
                reason: "freq_mhz must be positive".into(),
            });
        }
        if let Some(&i) = sample.missing.iter().find(|&&i| i >= sample.deltas.len()) {
            return Err(ServeError::BadSample {
                reason: format!(
                    "missing index {i} out of range for {} deltas",
                    sample.deltas.len()
                ),
            });
        }

        let id = (artifact.name.clone(), artifact.version);
        let mut clients = Self::lock(self.shard(client));
        let state = clients.entry(client).or_default();
        if state.model_id.as_ref() != Some(&id) {
            state.window.clear();
            state.last_rates.clear();
            state.last_voltage = None;
            state.model_id = Some(id);
        }
        state.last_rates.resize(model.events.len(), None);

        let mut reasons: Vec<String> = Vec::new();

        let voltage = if sample.voltage.is_finite() && sample.voltage > 0.0 {
            state.last_voltage = Some(sample.voltage);
            sample.voltage
        } else if let Some(v) = state.last_voltage {
            reasons.push("stale_voltage".to_string());
            v
        } else {
            return Err(ServeError::BadSample {
                reason: "voltage must be positive and finite (no previous good readout)".into(),
            });
        };

        // Events per available core cycle — identical to the offline
        // Dataset::from_profiles normalization.
        let available_cycles =
            self.config.total_cores as f64 * sample.freq_mhz as f64 * 1e6 * sample.duration_s;
        let mut rates = Vec::with_capacity(model.events.len());
        for (i, (&delta, &event)) in sample.deltas.iter().zip(model.events.iter()).enumerate() {
            let unreadable = sample.missing.contains(&i) || !delta.is_finite() || delta < 0.0;
            let rate = delta / available_cycles;
            if unreadable || rate > MAX_PLAUSIBLE_EVENTS_PER_CYCLE {
                // Substitute: last good rate for this event, else 0.
                let (substitute, token) = match state.last_rates[i] {
                    Some(r) if unreadable => (r, "stale_counter"),
                    Some(r) => (r, "saturated_counter"),
                    None if unreadable => (0.0, "no_history"),
                    None => (0.0, "saturated_counter"),
                };
                reasons.push(format!("{token}:{}", event.mnemonic()));
                rates.push(substitute);
            } else {
                state.last_rates[i] = Some(rate);
                rates.push(rate);
            }
        }
        let power = model.predict_raw(&rates, voltage, sample.freq_mhz)?;
        let out_of_envelope = match &model.envelope {
            Some(env) => !env.contains(voltage, sample.freq_mhz),
            None => false,
        };

        // A retry after a lost response re-sends the same sample; the
        // recompute is deterministic, so replacing the entry (instead
        // of stacking a duplicate) keeps the window bitwise identical
        // to a run where the first response arrived.
        if state.window.back().map(|&(t, _)| t) == Some(sample.time_ns) {
            state.window.pop_back();
        }
        state.window.push_back((sample.time_ns, power));
        while state.window.len() > self.config.window.max(1) {
            state.window.pop_front();
        }
        state.dirty_seq += 1;
        let window_power_w =
            state.window.iter().map(|(_, p)| p).sum::<f64>() / state.window.len() as f64;
        let est = Estimate {
            time_ns: sample.time_ns,
            power_w: power,
            window_power_w,
            samples_in_window: state.window.len(),
            out_of_envelope,
            stale: false,
            degraded: !reasons.is_empty(),
            degraded_reasons: reasons,
            model: artifact.name.clone(),
            version: artifact.version,
        };
        state.last = Some(est.clone());
        Ok(est)
    }

    /// [`Self::ingest`] over each request in order — results equal
    /// calling it once per request, because that is all this does.
    /// Kept for in-process callers that time a pair of ingests as one
    /// unit; the server ingests one sample per dequeued job.
    pub fn estimate_batch(
        &self,
        requests: &[(u64, CounterSample)],
        artifact: &Arc<ModelArtifact>,
    ) -> Vec<Result<Estimate, ServeError>> {
        requests
            .iter()
            .map(|(client, sample)| self.ingest(*client, sample, artifact))
            .collect()
    }

    /// The latest estimate for `client`, with the staleness flag
    /// evaluated against `now_ns` (the client's clock).
    pub fn estimate(&self, client: u64, now_ns: u64) -> Option<Estimate> {
        let clients = Self::lock(self.shard(client));
        let state = clients.get(&client)?;
        let mut est = state.last.clone()?;
        est.stale = now_ns.saturating_sub(est.time_ns) > self.config.staleness_ns;
        Some(est)
    }

    /// Drops a client's window (connection closed).
    pub fn forget(&self, client: u64) {
        Self::lock(self.shard(client)).remove(&client);
    }

    /// Number of clients with live state.
    pub fn client_count(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    /// True if the engine holds state for `client`.
    pub fn has_client(&self, client: u64) -> bool {
        Self::lock(self.shard(client)).contains_key(&client)
    }

    /// Exports every client for which `keep` is true, sorted by client
    /// key so checkpoint bytes are deterministic. Each shard is locked
    /// briefly in turn; ingests on other shards proceed concurrently.
    pub fn export_clients(&self, keep: impl Fn(u64) -> bool) -> Vec<ClientSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let clients = Self::lock(shard);
            for (&client, state) in clients.iter().filter(|(&c, _)| keep(c)) {
                out.push(ClientSnapshot {
                    client,
                    model_id: state.model_id.clone(),
                    window: state.window.iter().copied().collect(),
                    last_rates: state.last_rates.clone(),
                    last_voltage: state.last_voltage,
                    last: state.last.clone(),
                    dirty_seq: state.dirty_seq,
                });
            }
        }
        out.sort_by_key(|s| s.client);
        out
    }

    /// Imports snapshots (a checkpoint restore), replacing any state
    /// the same keys already have. Windows longer than the configured
    /// cap are trimmed from the front — the checkpoint may come from a
    /// process with a larger window. Returns how many clients were
    /// restored.
    pub fn restore_clients(&self, snaps: Vec<ClientSnapshot>) -> usize {
        let cap = self.config.window.max(1);
        let n = snaps.len();
        for snap in snaps {
            let mut window: VecDeque<(u64, f64)> = snap.window.into();
            while window.len() > cap {
                window.pop_front();
            }
            let state = ClientState {
                window,
                model_id: snap.model_id,
                last_rates: snap.last_rates,
                last_voltage: snap.last_voltage,
                last: snap.last,
                dirty_seq: snap.dirty_seq,
            };
            Self::lock(self.shard(snap.client)).insert(snap.client, state);
        }
        n
    }

    /// `(client, dirty_seq)` for every client for which `keep` is
    /// true, sorted by client key. This is the cheap anti-entropy
    /// poll: a replicator compares sequence numbers against what it
    /// last drained and only exports windows that moved.
    pub fn client_seqs(&self, keep: impl Fn(u64) -> bool) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let clients = Self::lock(shard);
            for (&client, state) in clients.iter().filter(|(&c, _)| keep(c)) {
                out.push((client, state.dirty_seq));
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{tiny_artifact, tiny_dataset};

    fn engine() -> EstimatorEngine {
        EstimatorEngine::new(EngineConfig {
            window: 4,
            total_cores: 24,
            staleness_ns: 1_000_000_000,
        })
    }

    /// A sample whose normalized rates reproduce a dataset row exactly.
    fn sample_from_row(
        row: &pmc_model::dataset::SampleRow,
        a: &Arc<ModelArtifact>,
        t: u64,
    ) -> CounterSample {
        let avail = 24.0 * row.freq_mhz as f64 * 1e6 * row.duration_s;
        CounterSample {
            time_ns: t,
            duration_s: row.duration_s,
            freq_mhz: row.freq_mhz,
            voltage: row.voltage,
            deltas: a
                .model
                .events
                .iter()
                .map(|e| row.rate(*e) * avail)
                .collect(),
            missing: vec![],
        }
    }

    #[test]
    fn ingest_matches_offline_prediction() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(12);
        for (i, row) in data.rows().iter().enumerate() {
            let s = sample_from_row(row, &a, i as u64);
            let est = eng.ingest(7, &s, &a).unwrap();
            let offline = a.model.predict_row(row);
            assert!(
                (est.power_w - offline).abs() < 1e-9,
                "row {i}: {} vs {offline}",
                est.power_w
            );
        }
    }

    #[test]
    fn window_caps_and_averages() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(10);
        let mut last = None;
        for (i, row) in data.rows().iter().enumerate() {
            let s = sample_from_row(row, &a, i as u64);
            last = Some(eng.ingest(1, &s, &a).unwrap());
        }
        let est = last.unwrap();
        assert_eq!(est.samples_in_window, 4); // capped at window
                                              // Window mean equals the mean of the last 4 instantaneous estimates.
        let tail: Vec<f64> = data.rows()[6..]
            .iter()
            .map(|r| a.model.predict_row(r))
            .collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((est.window_power_w - mean).abs() < 1e-9);
    }

    #[test]
    fn clients_are_isolated() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(2);
        let s = sample_from_row(&data.rows()[0], &a, 0);
        eng.ingest(1, &s, &a).unwrap();
        assert!(eng.estimate(2, 0).is_none());
        assert!(eng.estimate(1, 0).is_some());
        eng.forget(1);
        assert!(eng.estimate(1, 0).is_none());
        assert_eq!(eng.client_count(), 0);
    }

    #[test]
    fn staleness_flag_tracks_clock() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(1);
        let s = sample_from_row(&data.rows()[0], &a, 1_000);
        eng.ingest(1, &s, &a).unwrap();
        assert!(!eng.estimate(1, 1_000).unwrap().stale);
        assert!(eng.estimate(1, 2_000_001_000).unwrap().stale);
    }

    #[test]
    fn out_of_envelope_flagged() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(4);
        let mut s = sample_from_row(&data.rows()[0], &a, 0);
        assert!(!eng.ingest(1, &s, &a).unwrap().out_of_envelope);
        // Training envelope spans the fixture's 1200–2600 MHz.
        s.freq_mhz = 3600;
        assert!(eng.ingest(1, &s, &a).unwrap().out_of_envelope);
        s.freq_mhz = 2400;
        s.voltage = 2.5;
        assert!(eng.ingest(1, &s, &a).unwrap().out_of_envelope);
    }

    #[test]
    fn bad_samples_are_typed_errors() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(1);
        let good = sample_from_row(&data.rows()[0], &a, 0);

        // Width mismatch is its own variant, carrying both counts.
        let mut s = good.clone();
        s.deltas.pop();
        let expected = a.model.events.len();
        assert!(matches!(
            eng.ingest(1, &s, &a),
            Err(ServeError::WidthMismatch { expected: e, got }) if e == expected && got == expected - 1
        ));

        let mut s = good.clone();
        s.duration_s = 0.0;
        assert!(eng.ingest(1, &s, &a).is_err());

        // NaN voltage on a client with no history is unrecoverable.
        let mut s = good.clone();
        s.voltage = f64::NAN;
        assert!(matches!(
            eng.ingest(1, &s, &a),
            Err(ServeError::BadSample { .. })
        ));

        let mut s = good.clone();
        s.missing = vec![99];
        assert!(eng.ingest(1, &s, &a).is_err());

        let mut s = good;
        s.freq_mhz = 0;
        assert!(eng.ingest(1, &s, &a).is_err());
    }

    #[test]
    fn missing_counter_degrades_with_last_good_rate() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(1);
        let good = sample_from_row(&data.rows()[0], &a, 0);
        let baseline = eng.ingest(1, &good, &a).unwrap();
        assert!(!baseline.degraded);

        // Same readings, but counter 0 declared unread: the engine
        // substitutes its last good rate, reproducing the estimate.
        let mut s = good.clone();
        s.time_ns = 1;
        s.deltas[0] = 0.0;
        s.missing = vec![0];
        let est = eng.ingest(1, &s, &a).unwrap();
        assert!(est.degraded);
        let evt = a.model.events[0].mnemonic();
        assert_eq!(est.degraded_reasons, vec![format!("stale_counter:{evt}")]);
        assert!((est.power_w - baseline.power_w).abs() < 1e-9);

        // A non-finite delta degrades the same way as a declared gap.
        let mut s = good.clone();
        s.time_ns = 2;
        s.deltas[0] = f64::NAN;
        let est = eng.ingest(1, &s, &a).unwrap();
        assert_eq!(est.degraded_reasons, vec![format!("stale_counter:{evt}")]);
        assert!((est.power_w - baseline.power_w).abs() < 1e-9);
    }

    #[test]
    fn no_history_substitutes_zero() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(1);
        let mut s = sample_from_row(&data.rows()[0], &a, 0);
        s.missing = vec![0];
        let est = eng.ingest(1, &s, &a).unwrap();
        assert!(est.degraded);
        let evt = a.model.events[0].mnemonic();
        assert_eq!(est.degraded_reasons, vec![format!("no_history:{evt}")]);
        assert!(est.power_w.is_finite());
    }

    #[test]
    fn saturated_counter_is_substituted_not_trusted() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(1);
        let good = sample_from_row(&data.rows()[0], &a, 0);
        let baseline = eng.ingest(1, &good, &a).unwrap();

        let mut s = good.clone();
        s.time_ns = 1;
        s.deltas[0] = (1u64 << 56) as f64; // overflowed counter
        let est = eng.ingest(1, &s, &a).unwrap();
        assert!(est.degraded);
        let evt = a.model.events[0].mnemonic();
        assert_eq!(
            est.degraded_reasons,
            vec![format!("saturated_counter:{evt}")]
        );
        assert!((est.power_w - baseline.power_w).abs() < 1e-9);

        // The garbage rate must not poison the history: the next gap
        // still substitutes the last *good* rate.
        let mut s = good.clone();
        s.time_ns = 2;
        s.missing = vec![0];
        let est = eng.ingest(1, &s, &a).unwrap();
        assert!((est.power_w - baseline.power_w).abs() < 1e-9);
    }

    #[test]
    fn stale_voltage_uses_last_good_readout() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(1);
        let good = sample_from_row(&data.rows()[0], &a, 0);
        let baseline = eng.ingest(1, &good, &a).unwrap();

        for bad in [f64::NAN, 0.0, -0.3] {
            let mut s = good.clone();
            s.time_ns += 1;
            s.voltage = bad;
            let est = eng.ingest(1, &s, &a).unwrap();
            assert!(est.degraded, "voltage {bad} should degrade");
            assert_eq!(est.degraded_reasons, vec!["stale_voltage".to_string()]);
            assert!((est.power_w - baseline.power_w).abs() < 1e-9);
        }
    }

    #[test]
    fn model_switch_clears_degraded_history() {
        let eng = engine();
        let a = tiny_artifact();
        let mut b = tiny_artifact();
        {
            let m = Arc::get_mut(&mut b).unwrap();
            m.version = 2;
        }
        let data = tiny_dataset(1);
        let good = sample_from_row(&data.rows()[0], &a, 0);
        eng.ingest(1, &good, &a).unwrap();

        // Under the new model the voltage history is gone: a bad
        // readout is a hard error again, not a silent substitution.
        let mut s = sample_from_row(&data.rows()[0], &b, 1);
        s.voltage = f64::NAN;
        assert!(eng.ingest(1, &s, &b).is_err());
    }

    #[test]
    fn model_switch_resets_window() {
        let eng = engine();
        let a = tiny_artifact();
        let mut b = tiny_artifact();
        {
            let m = Arc::get_mut(&mut b).unwrap();
            m.version = 2;
        }
        let data = tiny_dataset(3);
        for (i, row) in data.rows().iter().enumerate() {
            let s = sample_from_row(row, &a, i as u64);
            eng.ingest(1, &s, &a).unwrap();
        }
        let s = sample_from_row(&data.rows()[0], &b, 99);
        let est = eng.ingest(1, &s, &b).unwrap();
        assert_eq!(est.samples_in_window, 1); // fresh window under v2
        assert_eq!(est.version, 2);
    }

    /// Two engines fed the same requests — one per-sample, one through
    /// `estimate_batch` — must agree bit for bit, flags and reasons
    /// included.
    fn assert_batch_matches_sequential(requests: &[(u64, CounterSample)]) {
        let a = tiny_artifact();
        let solo = engine();
        let batched = engine();
        let expected: Vec<_> = requests
            .iter()
            .map(|(c, s)| solo.ingest(*c, s, &a))
            .collect();
        let got = batched.estimate_batch(requests, &a);
        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            match (g, e) {
                (Ok(g), Ok(e)) => {
                    assert_eq!(g.power_w.to_bits(), e.power_w.to_bits(), "row {i} power");
                    assert_eq!(
                        g.window_power_w.to_bits(),
                        e.window_power_w.to_bits(),
                        "row {i} window"
                    );
                    let (g_rest, e_rest) = (
                        (
                            g.time_ns,
                            g.samples_in_window,
                            g.out_of_envelope,
                            g.stale,
                            g.degraded,
                            &g.degraded_reasons,
                            &g.model,
                            g.version,
                        ),
                        (
                            e.time_ns,
                            e.samples_in_window,
                            e.out_of_envelope,
                            e.stale,
                            e.degraded,
                            &e.degraded_reasons,
                            &e.model,
                            e.version,
                        ),
                    );
                    assert_eq!(g_rest, e_rest, "row {i} metadata");
                }
                (Err(g), Err(e)) => assert_eq!(format!("{g:?}"), format!("{e:?}"), "row {i}"),
                _ => panic!("row {i}: batched {g:?} vs sequential {e:?}"),
            }
        }
    }

    #[test]
    fn estimate_batch_bitwise_matches_sequential_ingest() {
        let a = tiny_artifact();
        let data = tiny_dataset(12);
        // Interleave three clients over the rows, with degraded and
        // erroring samples mixed in.
        let mut requests: Vec<(u64, CounterSample)> = Vec::new();
        for (i, row) in data.rows().iter().enumerate() {
            let client = (i % 3) as u64;
            let mut s = sample_from_row(row, &a, i as u64);
            match i {
                4 => s.missing = vec![0],               // declared gap
                5 => s.deltas[1] = f64::NAN,            // unreadable counter
                6 => s.voltage = 0.0,                   // stale voltage
                7 => s.deltas[2] = (1u64 << 56) as f64, // saturated
                8 => s.duration_s = 0.0,                // hard error
                _ => {}
            }
            requests.push((client, s));
        }
        assert_batch_matches_sequential(&requests);
    }

    #[test]
    fn estimate_batch_preserves_order_for_repeated_client() {
        // The same client twice in one batch: the second sample must
        // see the first's window and substitution history, exactly as
        // two sequential ingests would.
        let a = tiny_artifact();
        let data = tiny_dataset(4);
        let mut requests: Vec<(u64, CounterSample)> = Vec::new();
        for (i, row) in data.rows().iter().enumerate() {
            let mut s = sample_from_row(row, &a, i as u64);
            if i == 2 {
                s.missing = vec![0]; // substitutes rate learned at i==0
            }
            requests.push((9, s));
        }
        assert_batch_matches_sequential(&requests);
        let eng = engine();
        let ests = eng.estimate_batch(&requests, &a);
        assert_eq!(ests.last().unwrap().as_ref().unwrap().samples_in_window, 4);
    }

    #[test]
    fn bad_voltage_row_degrades_only_itself_in_a_batch() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(3);
        // Establish voltage history for client 0 so its bad readout
        // degrades instead of erroring.
        let warm = sample_from_row(&data.rows()[0], &a, 0);
        eng.ingest(0, &warm, &a).unwrap();

        let mut bad = sample_from_row(&data.rows()[0], &a, 1);
        bad.voltage = f64::NAN;
        let requests = vec![
            (1, sample_from_row(&data.rows()[1], &a, 1)),
            (0, bad),
            (2, sample_from_row(&data.rows()[2], &a, 1)),
        ];
        let out = eng.estimate_batch(&requests, &a);

        let degraded = out[1].as_ref().unwrap();
        assert!(degraded.degraded);
        assert_eq!(degraded.degraded_reasons, vec!["stale_voltage".to_string()]);

        // Neighbors are untouched: bitwise equal to solo ingests on a
        // fresh engine.
        let reference = engine();
        for (slot, (client, row_idx)) in [(0usize, (1u64, 1usize)), (2, (2, 2))] {
            let est = out[slot].as_ref().unwrap();
            assert!(!est.degraded, "neighbor {client} degraded");
            let solo = reference
                .ingest(client, &sample_from_row(&data.rows()[row_idx], &a, 1), &a)
                .unwrap();
            assert_eq!(est.power_w.to_bits(), solo.power_w.to_bits());
            assert_eq!(est.window_power_w.to_bits(), solo.window_power_w.to_bits());
        }
    }

    #[test]
    fn estimate_batch_empty_is_empty() {
        let eng = engine();
        let a = tiny_artifact();
        assert!(eng.estimate_batch(&[], &a).is_empty());
    }

    #[test]
    fn export_restore_roundtrips_client_state() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(6);
        for (i, row) in data.rows().iter().enumerate() {
            let mut s = sample_from_row(row, &a, i as u64);
            if i == 3 {
                s.missing = vec![0]; // leave degraded history behind
            }
            eng.ingest(7, &s, &a).unwrap();
            eng.ingest(8, &s, &a).unwrap();
        }
        let snaps = eng.export_clients(|c| c == 7);
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].client, 7);
        assert_eq!(snaps[0].window.len(), 4);

        // A cold engine restored from the snapshot continues exactly
        // where the donor stopped: same estimate, same window growth.
        let cold = engine();
        assert_eq!(cold.restore_clients(snaps), 1);
        assert!(cold.has_client(7) && !cold.has_client(8));
        assert_eq!(cold.estimate(7, 5), eng.estimate(7, 5));
        let next = sample_from_row(&data.rows()[0], &a, 99);
        let warm = eng.ingest(7, &next, &a).unwrap();
        let restored = cold.ingest(7, &next, &a).unwrap();
        assert_eq!(warm.power_w.to_bits(), restored.power_w.to_bits());
        assert_eq!(
            warm.window_power_w.to_bits(),
            restored.window_power_w.to_bits()
        );
        assert_eq!(warm.samples_in_window, restored.samples_in_window);
    }

    #[test]
    fn restore_trims_oversized_windows_from_the_front() {
        let eng = engine(); // window = 4
        let snap = ClientSnapshot {
            client: 1,
            model_id: Some(("m".into(), 1)),
            window: (0..10).map(|i| (i as u64, i as f64)).collect(),
            last_rates: vec![None; 3],
            last_voltage: Some(1.0),
            last: None,
            dirty_seq: 10,
        };
        eng.restore_clients(vec![snap]);
        let exported = eng.export_clients(|_| true);
        assert_eq!(exported[0].window.len(), 4);
        assert_eq!(exported[0].window[0], (6, 6.0)); // oldest dropped
    }

    #[test]
    fn export_is_sorted_and_filtered() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(1);
        let s = sample_from_row(&data.rows()[0], &a, 0);
        for client in [33u64, 2, 17, 50] {
            eng.ingest(client, &s, &a).unwrap();
        }
        let keys: Vec<u64> = eng
            .export_clients(|c| c != 17)
            .iter()
            .map(|s| s.client)
            .collect();
        assert_eq!(keys, vec![2, 33, 50]);
    }

    #[test]
    fn dirty_seq_counts_ingests_and_survives_restore() {
        let eng = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(3);
        for (i, row) in data.rows().iter().enumerate() {
            let s = sample_from_row(row, &a, i as u64 + 1);
            eng.ingest(5, &s, &a).unwrap();
        }
        assert_eq!(eng.client_seqs(|_| true), vec![(5, 3)]);
        let snaps = eng.export_clients(|_| true);
        assert_eq!(snaps[0].dirty_seq, 3);
        let cold = engine();
        cold.restore_clients(snaps);
        assert_eq!(cold.client_seqs(|_| true), vec![(5, 3)]);
        // The counter keeps moving after restore, never resets.
        let s = sample_from_row(&data.rows()[0], &a, 9);
        cold.ingest(5, &s, &a).unwrap();
        assert_eq!(cold.client_seqs(|_| true), vec![(5, 4)]);
    }

    #[test]
    fn duplicate_timestamp_reingest_is_idempotent() {
        // A client retry after a lost response re-sends the sample the
        // server already applied. The window must end up bitwise
        // identical to a run where the duplicate never happened.
        let eng = engine();
        let dup = engine();
        let a = tiny_artifact();
        let data = tiny_dataset(6);
        for (i, row) in data.rows().iter().enumerate() {
            let s = sample_from_row(row, &a, (i as u64 + 1) * 100);
            let clean = eng.ingest(3, &s, &a).unwrap();
            dup.ingest(3, &s, &a).unwrap();
            let retried = dup.ingest(3, &s, &a).unwrap(); // retry
            assert_eq!(clean.power_w.to_bits(), retried.power_w.to_bits());
            assert_eq!(
                clean.window_power_w.to_bits(),
                retried.window_power_w.to_bits()
            );
            assert_eq!(clean.samples_in_window, retried.samples_in_window);
        }
        let a_snap = eng.export_clients(|_| true);
        let b_snap = dup.export_clients(|_| true);
        assert_eq!(a_snap[0].window, b_snap[0].window);
    }

    #[test]
    fn sample_json_roundtrip() {
        let s = CounterSample {
            time_ns: 123,
            duration_s: 0.25,
            freq_mhz: 2400,
            voltage: 1.01,
            deltas: vec![1.0, 2.0, 3.0],
            missing: vec![],
        };
        let v = s.to_json_value();
        assert_eq!(CounterSample::from_json_value(&v).unwrap(), s);
        // Declared gaps survive the roundtrip.
        let s = CounterSample {
            missing: vec![0, 2],
            ..s
        };
        let v = s.to_json_value();
        assert_eq!(CounterSample::from_json_value(&v).unwrap(), s);
        // Malformed shape is a typed error.
        assert!(CounterSample::from_json_value(&Json::obj(vec![("x", Json::Null)])).is_err());
    }
}
